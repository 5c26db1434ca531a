// An append-only interned string pool: every string lives once in one
// blob, each followed by a NUL, and is named by its insertion index. The
// layout is the `.dds` string table's (docs/FORMATS.md §6, §6a), so a
// writer can emit the blob and offsets as they are.
//
// The index is an open-addressed, linear-probing table of ids (at most 3/4
// full). It stores no keys: each probe compares against the blob. Lookups
// take string_views, so a caller never builds a std::string to ask.
#ifndef DEPSURF_SRC_UTIL_STRING_POOL_H_
#define DEPSURF_SRC_UTIL_STRING_POOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace depsurf {

class StringPool {
 public:
  static constexpr uint32_t kNone = 0xffffffff;

  size_t size() const { return offsets_.size() - 1; }

  // The id of `s`, appending it when new (`*added` tells which). `s` may
  // view this pool's own blob.
  uint32_t Intern(std::string_view s, bool* added = nullptr);
  // kNone when `s` was never interned.
  uint32_t Lookup(std::string_view s) const;
  // `id` must be below size().
  std::string_view At(uint32_t id) const {
    return std::string_view(blob_).substr(offsets_[id], offsets_[id + 1] - offsets_[id] - 1);
  }

  // Every string in id order, each followed by a NUL.
  std::string_view blob() const { return blob_; }
  // size() + 1 entries: where each string starts in blob(), then blob().size().
  const std::vector<uint64_t>& offsets() const { return offsets_; }

  // Room for `strings` more strings of `bytes` total (NULs included), so a
  // loader that knows its counts never rehashes.
  void Reserve(size_t strings, size_t bytes);

 private:
  size_t Probe(std::string_view s, uint64_t hash) const;
  void Rehash(size_t num_slots);

  std::string blob_;
  std::vector<uint64_t> offsets_{0};
  std::vector<uint32_t> slots_;  // ids; kNone marks an empty slot
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_STRING_POOL_H_
