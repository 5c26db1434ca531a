#include "src/core/dataset.h"

#include <algorithm>

#include "src/btf/btf_print.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/prng.h"

namespace depsurf {

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
std::optional<Record> FindByName(const std::vector<Record>& records, StrId name) {
  auto it = std::lower_bound(records.begin(), records.end(), name,
                             [](const Record& r, StrId key) { return r.name < key; });
  if (it == records.end() || it->name != name) {
    return std::nullopt;
  }
  return *it;
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

std::optional<FuncRecord> Dataset::FindFunc(size_t image, StrId name, Status* /*error*/) const {
  return FindByName(images_[image].funcs, name);
}

std::optional<StructRecord> Dataset::FindStruct(size_t image, StrId name,
                                                Status* /*error*/) const {
  return FindByName(images_[image].structs, name);
}

std::optional<TracepointRecord> Dataset::FindTracepoint(size_t image, StrId name,
                                                        Status* /*error*/) const {
  return FindByName(images_[image].tracepoints, name);
}

bool Dataset::HasSyscall(size_t image, StrId name, Status* /*error*/) const {
  const std::vector<StrId>& syscalls = images_[image].syscalls;
  return std::binary_search(syscalls.begin(), syscalls.end(), name);
}

SurfaceHealth Dataset::ImageHealth(size_t image) const {
  const SurfaceHealth& health = images_[image].health;
  SurfaceHealth states;
  states.elf = health.elf;
  states.dwarf = health.dwarf;
  states.btf = health.btf;
  states.tracepoint = health.tracepoint;
  states.syscall = health.syscall;
  return states;
}

}  // namespace depsurf
