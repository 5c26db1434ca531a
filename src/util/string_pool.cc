#include "src/util/string_pool.h"

#include <functional>

namespace depsurf {

namespace {

uint64_t HashOf(std::string_view s) { return std::hash<std::string_view>{}(s); }

}  // namespace

size_t StringPool::Probe(std::string_view s, uint64_t hash) const {
  size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint32_t id = slots_[i];
    if (id == kNone || At(id) == s) {
      return i;
    }
  }
}

void StringPool::Rehash(size_t num_slots) {
  slots_.assign(num_slots, kNone);
  for (uint32_t id = 0; id < size(); ++id) {
    slots_[Probe(At(id), HashOf(At(id)))] = id;
  }
}

void StringPool::Reserve(size_t strings, size_t bytes) {
  blob_.reserve(blob_.size() + bytes);
  offsets_.reserve(offsets_.size() + strings);
  size_t want = size() + strings;
  size_t num_slots = slots_.empty() ? 64 : slots_.size();
  while (4 * want > 3 * num_slots) {
    num_slots *= 2;
  }
  if (num_slots != slots_.size()) {
    Rehash(num_slots);
  }
}

uint32_t StringPool::Intern(std::string_view s, bool* added) {
  if (4 * (size() + 1) > 3 * slots_.size()) {
    Rehash(slots_.empty() ? 64 : 2 * slots_.size());
  }
  size_t slot = Probe(s, HashOf(s));
  bool is_new = slots_[slot] == kNone;
  if (added != nullptr) {
    *added = is_new;
  }
  if (!is_new) {
    return slots_[slot];
  }
  uint32_t id = static_cast<uint32_t>(size());
  blob_.append(s);  // std::string::append copes with `s` viewing blob_
  blob_.push_back('\0');
  offsets_.push_back(blob_.size());
  slots_[slot] = id;
  return id;
}

uint32_t StringPool::Lookup(std::string_view s) const {
  if (slots_.empty()) {
    return kNone;
  }
  return slots_[Probe(s, HashOf(s))];
}

}  // namespace depsurf
