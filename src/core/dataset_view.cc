#include "src/core/dataset_view.h"

#include <algorithm>
#include <iterator>
#include <ranges>

namespace depsurf {

namespace {

// Name and matrix code of each MismatchKind, in enumerator order.
constexpr std::pair<const char*, char> kKindNames[] = {
    {"absent", '-'},     {"changed", 'C'},    {"full_inline", 'F'}, {"selective_inline", 'S'},
    {"transformed", 'T'}, {"duplicated", 'D'}, {"collision", 'N'},   {"not_traceable", 'U'},
};

// The function flags that are mismatches, in the order a cell lists them.
constexpr std::pair<uint8_t, MismatchKind> kFuncFlagKinds[] = {
    {kFuncFullInline, MismatchKind::kFullInline},
    {kFuncSelectiveInline, MismatchKind::kSelectiveInline},
    {kFuncTransformed, MismatchKind::kTransformed},
    {kFuncDuplicated, MismatchKind::kDuplicated},
    {kFuncCollided, MismatchKind::kCollision},
};

}  // namespace

const char* MismatchKindName(MismatchKind kind) {
  size_t i = static_cast<size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i].first : "?";
}

char MismatchKindCode(MismatchKind kind) {
  size_t i = static_cast<size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i].second : '?';
}

bool PairRun::operator==(const PairRun& other) const {
  if (size_ != other.size_) {
    return false;
  }
  for (size_t i = 0; i < size_; ++i) {
    if ((*this)[i] != other[i]) {
      return false;
    }
  }
  return true;
}

std::optional<StrId> PairRun::Find(StrId name) const {
  auto indices = std::views::iota(size_t{0}, size_);
  auto it =
      std::ranges::partition_point(indices, [&](size_t i) { return (*this)[i].first < name; });
  if (it == indices.end() || (*this)[*it].first != name) {
    return std::nullopt;
  }
  return (*this)[*it].second;
}

std::vector<std::string> DatasetView::labels() const {
  std::vector<std::string> out;
  out.reserve(num_images());
  for (size_t i = 0; i < num_images(); ++i) {
    out.emplace_back(ImageLabel(i));
  }
  return out;
}

SurfaceMeta DatasetView::MetaAt(size_t image_index) const {
  return image_index < num_images() ? ImageMeta(image_index) : SurfaceMeta{};
}

std::string DatasetView::HealthSummaryAt(size_t image_index) const {
  return image_index < num_images() ? ImageHealth(image_index).Summary() : std::string("clean");
}

DatasetView::Cells DatasetView::CheckFunc(const std::string& name, Status* error) const {
  Cells out(num_images());
  StrId id = LookupId(name, error);
  std::optional<uint64_t> baseline;
  for (size_t i = 0; i < out.size(); ++i) {
    std::optional<FuncRecord> fr = id == kNoStrId ? std::nullopt : FindFunc(i, id, error);
    if (!fr.has_value()) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (!baseline.has_value()) {
      baseline = fr->decl_hash;
    } else if (fr->decl_hash != *baseline) {
      out[i].insert(MismatchKind::kChanged);
    }
    for (const auto& [flag, kind] : kFuncFlagKinds) {
      if ((fr->flags & flag) != 0) {
        out[i].insert(kind);
      }
    }
  }
  return out;
}

std::optional<PairRun> DatasetView::StructFields(size_t image, StrId name, Status* error) const {
  std::optional<StructRecord> sr = name == kNoStrId ? std::nullopt : FindStruct(image, name, error);
  return sr.has_value() ? PairRunAt(sr->fields_begin, sr->fields_count) : std::nullopt;
}

DatasetView::Cells DatasetView::CheckStruct(const std::string& name, Status* error) const {
  Cells out(num_images());
  StrId id = LookupId(name, error);
  std::optional<PairRun> baseline;
  for (size_t i = 0; i < out.size(); ++i) {
    std::optional<PairRun> fields = StructFields(i, id, error);
    if (!fields.has_value()) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (!baseline.has_value()) {
      baseline = fields;
    } else if (!(*fields == *baseline)) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

DatasetView::Cells DatasetView::CheckField(const std::string& struct_name,
                                           const std::string& field_name,
                                           const std::string& expected_type, bool guarded,
                                           Status* error) const {
  Cells out(num_images());
  StrId sid = LookupId(struct_name, error);
  StrId fid = LookupId(field_name, error);
  StrId expected = expected_type.empty() ? kNoStrId : LookupId(expected_type, error);
  bool expectation_fixed = !expected_type.empty();
  for (size_t i = 0; i < out.size(); ++i) {
    std::optional<PairRun> fields = fid == kNoStrId ? std::nullopt : StructFields(i, sid, error);
    std::optional<StrId> actual = fields.has_value() ? fields->Find(fid) : std::nullopt;
    if (!actual.has_value()) {
      if (!guarded) {
        out[i].insert(MismatchKind::kAbsent);
      }
      continue;
    }
    if (expected == kNoStrId && !expectation_fixed) {
      expected = *actual;  // baseline fallback
    } else if (*actual != expected) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

DatasetView::Cells DatasetView::CheckTracepoint(const std::string& event, Status* error) const {
  Cells out(num_images());
  StrId id = LookupId(event, error);
  std::optional<std::pair<PairRun, PairRun>> baseline;  // (params, fields)
  for (size_t i = 0; i < out.size(); ++i) {
    std::optional<TracepointRecord> tr =
        id == kNoStrId ? std::nullopt : FindTracepoint(i, id, error);
    std::optional<PairRun> params, fields;
    if (tr.has_value()) {
      params = PairRunAt(tr->params_begin, tr->params_count);
      fields = PairRunAt(tr->fields_begin, tr->fields_count);
    }
    if (!params.has_value() || !fields.has_value()) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (!baseline.has_value()) {
      baseline.emplace(*params, *fields);
    } else if (!(*params == baseline->first) || !(*fields == baseline->second)) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

DatasetView::Cells DatasetView::CheckSyscall(const std::string& name, Status* error) const {
  Cells out(num_images());
  StrId id = LookupId(name, error);
  for (size_t i = 0; i < out.size(); ++i) {
    if (id == kNoStrId || !HasSyscall(i, id, error)) {
      out[i].insert(MismatchKind::kAbsent);
    }
    // Compat (32-bit) traceability is a per-image property reported by the
    // configuration analysis (Table 5), not a per-dependency mismatch.
  }
  return out;
}

DatasetView::Cells DatasetView::CheckRegisters() const {
  Cells out(num_images());
  for (size_t i = 1; i < out.size(); ++i) {
    if (PtRegsHashAt(i) != PtRegsHashAt(0)) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::optional<std::string_view> DatasetView::FuncDeclAt(const std::string& name,
                                                        size_t image_index,
                                                        Status* error) const {
  if (image_index >= num_images()) {
    return std::nullopt;
  }
  StrId id = LookupId(name, error);
  std::optional<FuncRecord> fr =
      id == kNoStrId ? std::nullopt : FindFunc(image_index, id, error);
  if (!fr.has_value() || fr->decl == kNoStrId) {
    return std::nullopt;
  }
  return StringViewAt(fr->decl);
}

std::optional<std::string_view> DatasetView::FieldTypeAt(const std::string& struct_name,
                                                         const std::string& field_name,
                                                         size_t image_index,
                                                         Status* error) const {
  if (image_index >= num_images()) {
    return std::nullopt;
  }
  StrId sid = LookupId(struct_name, error);
  StrId fid = LookupId(field_name, error);
  std::optional<PairRun> fields =
      fid == kNoStrId ? std::nullopt : StructFields(image_index, sid, error);
  std::optional<StrId> type = fields.has_value() ? fields->Find(fid) : std::nullopt;
  if (!type.has_value()) {
    return std::nullopt;
  }
  return StringViewAt(*type);
}

}  // namespace depsurf
