#include "src/util/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace depsurf {

namespace {

// read(2) into [data, data + len) until full or EOF; the byte count, or -1
// with errno set.
ssize_t ReadFully(int fd, uint8_t* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0) {
      return -1;
    }
    if (n == 0) {
      break;
    }
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

Status WriteWhole(const std::string& path, std::string_view bytes, int mode_flags) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | mode_flags, 0666);
  if (fd < 0) {
    return Status(ErrorCode::kIoError,
                  "cannot write " + path + ": " + std::strerror(errno));
  }
  size_t put = 0;
  while (put < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      int saved_errno = n < 0 ? errno : EIO;
      ::close(fd);
      return Status(ErrorCode::kIoError,
                    "cannot write " + path + ": " + std::strerror(saved_errno));
    }
    put += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    return Status(ErrorCode::kIoError,
                  "cannot write " + path + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Error(ErrorCode::kIoError, "cannot stat " + path);
  }
  std::vector<uint8_t> bytes;
  ssize_t n = 0;
  if (S_ISREG(st.st_mode)) {
    bytes.resize(static_cast<size_t>(st.st_size));
    n = ReadFully(fd, bytes.data(), bytes.size());
    if (n >= 0 && static_cast<size_t>(n) != bytes.size()) {
      ::close(fd);
      return Error(ErrorCode::kIoError, "short read on " + path);
    }
  } else {
    constexpr size_t kChunk = 1 << 16;
    do {
      size_t at = bytes.size();
      bytes.resize(at + kChunk);
      n = ReadFully(fd, bytes.data() + at, kChunk);
      bytes.resize(at + (n > 0 ? static_cast<size_t>(n) : 0));
    } while (n == static_cast<ssize_t>(kChunk));
  }
  int saved_errno = errno;
  ::close(fd);
  if (n < 0) {
    return Error(ErrorCode::kIoError,
                 "cannot read " + path + ": " + std::strerror(saved_errno));
  }
  return bytes;
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  return WriteWhole(path, bytes, O_TRUNC);
}

Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  return WriteFile(path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                          bytes.size()));
}

Status AppendFile(const std::string& path, std::string_view bytes) {
  return WriteWhole(path, bytes, O_APPEND);
}

}  // namespace depsurf
