#include "src/core/dataset.h"

#include <algorithm>

#include "src/btf/btf_print.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/prng.h"

namespace depsurf {

DatasetView::~DatasetView() = default;

const char* MismatchKindName(MismatchKind kind) {
  switch (kind) {
    case MismatchKind::kAbsent:
      return "absent";
    case MismatchKind::kChanged:
      return "changed";
    case MismatchKind::kFullInline:
      return "full_inline";
    case MismatchKind::kSelectiveInline:
      return "selective_inline";
    case MismatchKind::kTransformed:
      return "transformed";
    case MismatchKind::kDuplicated:
      return "duplicated";
    case MismatchKind::kCollision:
      return "collision";
    case MismatchKind::kNotTraceable:
      return "not_traceable";
  }
  return "?";
}

char MismatchKindCode(MismatchKind kind) {
  switch (kind) {
    case MismatchKind::kAbsent:
      return '-';
    case MismatchKind::kChanged:
      return 'C';
    case MismatchKind::kFullInline:
      return 'F';
    case MismatchKind::kSelectiveInline:
      return 'S';
    case MismatchKind::kTransformed:
      return 'T';
    case MismatchKind::kDuplicated:
      return 'D';
    case MismatchKind::kCollision:
      return 'N';
    case MismatchKind::kNotTraceable:
      return 'U';
  }
  return '?';
}

namespace {

uint8_t PackFuncFlags(const FunctionStatus& status) {
  uint8_t flags = 0;
  flags |= status.has_exact_symbol ? kFuncExactSymbol : 0;
  flags |= status.fully_inlined ? kFuncFullInline : 0;
  flags |= status.selectively_inlined ? kFuncSelectiveInline : 0;
  flags |= status.transformed ? kFuncTransformed : 0;
  flags |= status.duplicated ? kFuncDuplicated : 0;
  flags |= status.collided ? kFuncCollided : 0;
  flags |= status.external ? kFuncExternal : 0;
  return flags;
}

// TypeString text and hash, rendered once per type id of one graph.
class TypeTexts {
 public:
  explicit TypeTexts(const TypeGraph& graph)
      : graph_(graph), text_(graph.num_types() + 1), hash_(graph.num_types() + 1, 0) {}

  const std::string& Text(BtfTypeId id) {
    if (id >= text_.size()) {
      scratch_ = TypeString(graph_, id);
      return scratch_;
    }
    if (hash_[id] == 0) {
      text_[id] = TypeString(graph_, id);
      // 0 marks "not rendered yet"; a text hashing to 0 is re-rendered.
      hash_[id] = HashString(text_[id]);
    }
    return text_[id];
  }

  uint64_t Hash(BtfTypeId id) {
    if (id >= text_.size()) {
      return HashString(TypeString(graph_, id));
    }
    Text(id);
    return hash_[id];
  }

 private:
  const TypeGraph& graph_;
  std::vector<std::string> text_;
  std::vector<uint64_t> hash_;
  std::string scratch_;
};

template <typename Record>
void SortByName(std::vector<Record>& records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.name < b.name; });
}

template <typename Record>
const Record* FindByName(const std::vector<Record>& records, StrId name) {
  auto it = std::lower_bound(records.begin(), records.end(), name,
                             [](const Record& r, StrId key) { return r.name < key; });
  return it == records.end() || it->name != name ? nullptr : &*it;
}

}  // namespace

StrId Dataset::Intern(std::string_view s) {
  bool added = false;
  StrId id = pool_.Intern(s, &added);
  ++(added ? intern_misses_ : intern_hits_);
  return id;
}

void Dataset::FlushInternMetrics() {
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  if (intern_hits_ > intern_hits_flushed_) {
    metrics.Incr("dataset.intern_hits", intern_hits_ - intern_hits_flushed_);
    intern_hits_flushed_ = intern_hits_;
  }
  if (intern_misses_ > intern_misses_flushed_) {
    metrics.Incr("dataset.intern_misses", intern_misses_ - intern_misses_flushed_);
    intern_misses_flushed_ = intern_misses_;
  }
}

void Dataset::AddImage(const std::string& label, const DependencySurface& surface) {
  obs::ScopedSpan span("dataset.distill");
  span.AddAttr("image", label);
  ImageRecord record;
  record.label = label;
  record.meta = surface.meta();
  record.health = surface.health();
  const TypeGraph& graph = surface.btf();
  TypeTexts types(graph);
  auto type_text = [&types](BtfTypeId id) -> const std::string& { return types.Text(id); };
  // Pool ids are assigned in first-intern order, which fixes the `.dds`
  // bytes (tests/golden pins them): every Intern below keeps its place, and
  // a pair interns its type before its name.
  auto intern_pair = [this](std::string_view name, std::string_view type) {
    StrId type_id = Intern(type);
    return Pair(Intern(name), type_id);
  };

  auto decl_hash = [&](BtfTypeId func_id) -> uint64_t {
    const BtfType* func = graph.Get(func_id);
    const BtfType* proto = func != nullptr ? graph.Get(func->ref_type_id) : nullptr;
    if (proto == nullptr || proto->kind != BtfKind::kFuncProto) {
      return 0;
    }
    uint64_t h = types.Hash(proto->ref_type_id);
    for (const BtfParam& p : proto->params) {
      h = HashCombine({h, HashString(p.name), types.Hash(p.type_id)});
    }
    return h;
  };

  record.funcs.reserve(surface.functions().size());
  for (const auto& [name, entry] : surface.functions()) {
    FuncRecord fr;
    fr.flags = PackFuncFlags(entry.status);
    if (!entry.status.transform_suffix.empty()) {
      fr.suffix = suffixes_.Intern(entry.status.transform_suffix);
    }
    if (entry.btf_id != 0) {
      fr.decl_hash = decl_hash(entry.btf_id);
      fr.decl = Intern(FuncDeclString(graph, entry.btf_id, type_text));
    }
    fr.name = Intern(name);
    record.funcs.push_back(fr);
  }
  SortByName(record.funcs);

  record.structs.reserve(surface.structs().size());
  for (const auto& [name, id] : surface.structs()) {
    StructRecord sr;
    sr.fields_begin = static_cast<uint32_t>(pairs_.size());
    const BtfType* st = graph.Get(id);
    if (st != nullptr) {
      for (const BtfMember& m : st->members) {
        pairs_.push_back(intern_pair(m.name, type_text(m.type_id)));
      }
      std::sort(pairs_.begin() + sr.fields_begin, pairs_.end());
    }
    sr.fields_count = static_cast<uint32_t>(pairs_.size() - sr.fields_begin);
    sr.name = Intern(name);
    record.structs.push_back(sr);
  }
  SortByName(record.structs);

  record.tracepoints.reserve(surface.tracepoints().size());
  for (const auto& [name, tp] : surface.tracepoints()) {
    TracepointRecord tr;
    tr.params_begin = static_cast<uint32_t>(pairs_.size());
    if (tp.func_btf_id != 0) {
      const BtfType* func = graph.Get(tp.func_btf_id);
      const BtfType* proto = func != nullptr ? graph.Get(func->ref_type_id) : nullptr;
      if (proto != nullptr) {
        for (const BtfParam& p : proto->params) {
          pairs_.push_back(intern_pair(p.name, type_text(p.type_id)));
        }
      }
    }
    tr.params_count = static_cast<uint32_t>(pairs_.size() - tr.params_begin);
    tr.fields_begin = static_cast<uint32_t>(pairs_.size());
    if (tp.struct_btf_id != 0) {
      const BtfType* st = graph.Get(tp.struct_btf_id);
      if (st != nullptr) {
        for (const BtfMember& m : st->members) {
          pairs_.push_back(intern_pair(m.name, type_text(m.type_id)));
        }
        std::sort(pairs_.begin() + tr.fields_begin, pairs_.end());
      }
    }
    tr.fields_count = static_cast<uint32_t>(pairs_.size() - tr.fields_begin);
    tr.name = Intern(name);
    record.tracepoints.push_back(tr);
  }
  SortByName(record.tracepoints);

  record.syscalls.reserve(surface.syscalls().size());
  for (const auto& [name, entry] : surface.syscalls()) {
    (void)entry;
    record.syscalls.push_back(Intern(name));
  }
  std::sort(record.syscalls.begin(), record.syscalls.end());
  record.compat_syscalls_traceable = record.meta.compat_syscalls_traceable;
  if (auto pt_regs = surface.FindStruct("pt_regs"); pt_regs.has_value()) {
    const BtfType* st = graph.Get(*pt_regs);
    uint64_t h = 0x9e11;
    for (const BtfMember& m : st->members) {
      h = HashCombine({h, HashString(m.name)});
    }
    record.pt_regs_hash = h;
  }
  FlushInternMetrics();
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("dataset.images_distilled");
  metrics.Incr("dataset.funcs_distilled", record.funcs.size());
  metrics.Incr("dataset.structs_distilled", record.structs.size());
  metrics.Set("dataset.pool_strings", static_cast<int64_t>(pool_.size()));
  span.AddAttr("funcs", static_cast<uint64_t>(record.funcs.size()));
  span.AddAttr("structs", static_cast<uint64_t>(record.structs.size()));
  span.AddAttr("pool_strings", static_cast<uint64_t>(pool_.size()));
  images_.push_back(std::move(record));
}

std::vector<std::string> Dataset::labels() const {
  std::vector<std::string> out;
  out.reserve(images_.size());
  for (const ImageRecord& image : images_) {
    out.push_back(image.label);
  }
  return out;
}

const FuncRecord* Dataset::FindFunc(size_t image_index, StrId name) const {
  return name == kNoStr ? nullptr : FindByName(images_[image_index].funcs, name);
}

const StructRecord* Dataset::FindStruct(size_t image_index, StrId name) const {
  return name == kNoStr ? nullptr : FindByName(images_[image_index].structs, name);
}

const StrId* Dataset::FindField(const StructRecord& record, StrId field) const {
  std::span<const Pair> fields = Pairs(record.fields_begin, record.fields_count);
  auto it = std::lower_bound(fields.begin(), fields.end(), field,
                             [](const Pair& pair, StrId key) { return pair.first < key; });
  return it == fields.end() || it->first != field ? nullptr : &it->second;
}

std::vector<std::set<MismatchKind>> Dataset::CheckFunc(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(name);
  const FuncRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const FuncRecord* fr = FindFunc(i, id);
    if (fr == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline == nullptr) {
      baseline = fr;
    } else if (fr->decl_hash != baseline->decl_hash) {
      out[i].insert(MismatchKind::kChanged);
    }
    if ((fr->flags & kFuncFullInline) != 0) {
      out[i].insert(MismatchKind::kFullInline);
    }
    if ((fr->flags & kFuncSelectiveInline) != 0) {
      out[i].insert(MismatchKind::kSelectiveInline);
    }
    if ((fr->flags & kFuncTransformed) != 0) {
      out[i].insert(MismatchKind::kTransformed);
    }
    if ((fr->flags & kFuncDuplicated) != 0) {
      out[i].insert(MismatchKind::kDuplicated);
    }
    if ((fr->flags & kFuncCollided) != 0) {
      out[i].insert(MismatchKind::kCollision);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> Dataset::CheckStruct(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(name);
  std::optional<std::span<const Pair>> baseline;
  for (size_t i = 0; i < images_.size(); ++i) {
    const StructRecord* sr = FindStruct(i, id);
    if (sr == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    std::span<const Pair> fields = Pairs(sr->fields_begin, sr->fields_count);
    if (!baseline.has_value()) {
      baseline = fields;
    } else if (!std::ranges::equal(fields, *baseline)) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> Dataset::CheckField(const std::string& struct_name,
                                                        const std::string& field_name,
                                                        const std::string& expected_type,
                                                        bool guarded) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId sid = Lookup(struct_name);
  StrId fid = Lookup(field_name);
  StrId expected = expected_type.empty() ? kNoStr : Lookup(expected_type);
  bool expectation_fixed = !expected_type.empty();
  for (size_t i = 0; i < images_.size(); ++i) {
    const StrId* actual = nullptr;
    if (fid != kNoStr) {
      if (const StructRecord* sr = FindStruct(i, sid); sr != nullptr) {
        actual = FindField(*sr, fid);
      }
    }
    if (actual == nullptr) {
      if (!guarded) {
        out[i].insert(MismatchKind::kAbsent);
      }
      continue;
    }
    if (expected == kNoStr && !expectation_fixed) {
      expected = *actual;  // baseline fallback
    } else if (*actual != expected) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> Dataset::CheckTracepoint(const std::string& event) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(event);
  const TracepointRecord* baseline = nullptr;
  for (size_t i = 0; i < images_.size(); ++i) {
    const TracepointRecord* tr =
        id == kNoStr ? nullptr : FindByName(images_[i].tracepoints, id);
    if (tr == nullptr) {
      out[i].insert(MismatchKind::kAbsent);
      continue;
    }
    if (baseline == nullptr) {
      baseline = tr;
    } else if (!std::ranges::equal(Pairs(tr->params_begin, tr->params_count),
                                   Pairs(baseline->params_begin, baseline->params_count)) ||
               !std::ranges::equal(Pairs(tr->fields_begin, tr->fields_count),
                                   Pairs(baseline->fields_begin, baseline->fields_count))) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

std::vector<std::set<MismatchKind>> Dataset::CheckSyscall(const std::string& name) const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  StrId id = Lookup(name);
  for (size_t i = 0; i < images_.size(); ++i) {
    const std::vector<StrId>& syscalls = images_[i].syscalls;
    if (id == kNoStr || !std::binary_search(syscalls.begin(), syscalls.end(), id)) {
      out[i].insert(MismatchKind::kAbsent);
    }
    // Compat (32-bit) traceability is a per-image property reported by the
    // configuration analysis (Table 5), not a per-dependency mismatch.
  }
  return out;
}

std::optional<std::string_view> Dataset::FuncDeclAt(const std::string& name,
                                                    size_t image_index) const {
  if (image_index >= images_.size()) {
    return std::nullopt;
  }
  const FuncRecord* fr = FindFunc(image_index, Lookup(name));
  if (fr == nullptr || fr->decl == kNoStr) {
    return std::nullopt;
  }
  return StringAt(fr->decl);
}

std::optional<std::string_view> Dataset::FieldTypeAt(const std::string& struct_name,
                                                     const std::string& field_name,
                                                     size_t image_index) const {
  if (image_index >= images_.size()) {
    return std::nullopt;
  }
  StrId fid = Lookup(field_name);
  const StructRecord* sr = FindStruct(image_index, Lookup(struct_name));
  if (sr == nullptr || fid == kNoStr) {
    return std::nullopt;
  }
  const StrId* type = FindField(*sr, fid);
  if (type == nullptr) {
    return std::nullopt;
  }
  return StringAt(*type);
}

SurfaceMeta Dataset::MetaAt(size_t image_index) const {
  return image_index < images_.size() ? images_[image_index].meta : SurfaceMeta{};
}

std::string Dataset::HealthSummaryAt(size_t image_index) const {
  return image_index < images_.size() ? images_[image_index].health.Summary() : std::string("clean");
}

bool Dataset::AnyDegradedAt(size_t image_index) const {
  return image_index < images_.size() && images_[image_index].AnyDegraded();
}

std::vector<std::set<MismatchKind>> Dataset::CheckRegisters() const {
  std::vector<std::set<MismatchKind>> out(images_.size());
  for (size_t i = 1; i < images_.size(); ++i) {
    if (images_[i].pt_regs_hash != images_[0].pt_regs_hash) {
      out[i].insert(MismatchKind::kChanged);
    }
  }
  return out;
}

}  // namespace depsurf
