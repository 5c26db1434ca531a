// Whole-file reads for the tools' inputs (kernel images, `.o` objects,
// `.dds` datasets).
#ifndef DEPSURF_SRC_UTIL_FILE_UTIL_H_
#define DEPSURF_SRC_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// Reads all of `path`. A regular file is sized once and read into one
// buffer of that size; anything else (a pipe, /dev/stdin) is read to EOF.
// kIoError when the file cannot be opened, or when a read fails or ends
// short of the size: a caller never gets a silently truncated buffer.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_FILE_UTIL_H_
