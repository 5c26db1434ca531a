// Whole-file reads for the tools' inputs (kernel images, `.o` objects,
// `.dds` datasets) and whole-file writes for everything they emit.
#ifndef DEPSURF_SRC_UTIL_FILE_UTIL_H_
#define DEPSURF_SRC_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// Reads all of `path`. A regular file is sized once and read into one
// buffer of that size; anything else (a pipe, /dev/stdin) is read to EOF.
// kIoError when the file cannot be opened, or when a read fails or ends
// short of the size: a caller never gets a silently truncated buffer.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Every file the program writes goes through these: WriteFile creates or
// truncates `path`, AppendFile adds to its end (creating it if needed).
// kIoError, naming the path and the system's reason, when the open, any
// write or the close fails: a full disk (/dev/full) may fail only at the
// close, so the close is checked too.
Status WriteFile(const std::string& path, std::string_view bytes);
Status WriteFile(const std::string& path, const std::vector<uint8_t>& bytes);
Status AppendFile(const std::string& path, std::string_view bytes);

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_FILE_UTIL_H_
