#include "src/core/dependency_surface.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/btf/btf_codec.h"
#include "src/elf/elf_reader.h"
#include "src/obs/diagnostics.h"
#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Section/symbol names shared with the image layout (and real kernels).
constexpr char kBtfSection[] = ".BTF";
constexpr char kDwarfAbbrevSection[] = ".sdwarf_abbrev";
constexpr char kDwarfInfoSection[] = ".sdwarf_info";
constexpr char kStartFtrace[] = "__start_ftrace_events";
constexpr char kStopFtrace[] = "__stop_ftrace_events";
constexpr char kSyscallTable[] = "sys_call_table";
constexpr char kTraceFuncPrefix[] = "trace_event_raw_event_";
constexpr char kTraceStructPrefix[] = "trace_event_raw_";

// Known per-architecture syscall entry-point prefixes; tried longest first.
constexpr const char* kSyscallPrefixes[] = {"__x64_sys_", "__arm64_sys_", "__riscv_sys_",
                                            "sys_"};

// Known compiler transformation suffix markers.
constexpr const char* kTransformSuffixes[] = {".isra.", ".constprop.", ".part.", ".cold"};

// Splits "name.isra.0" into base and suffix; base == input when unsuffixed.
std::pair<std::string_view, std::string_view> SplitTransformSuffix(std::string_view symbol) {
  for (const char* marker : kTransformSuffixes) {
    size_t pos = symbol.find(marker);
    if (pos != std::string_view::npos) {
      return {symbol.substr(0, pos), symbol.substr(pos)};
    }
  }
  return {symbol, {}};
}

// Identity facts that cannot fail once the ELF container parsed.
SurfaceMeta MetaFromIdent(const ElfReader& reader) {
  SurfaceMeta meta;
  meta.arch = ElfMachineName(reader.ident().machine);
  meta.pointer_size = reader.pointer_size();
  meta.endian = reader.endian();
  return meta;
}

Status ParseBanner(const ElfReader& reader, SurfaceMeta& meta) {
  auto banner_sym = reader.FindSymbol("linux_banner");
  if (!banner_sym.has_value()) {
    return Status::Ok();  // tolerated: version/gcc stay unknown
  }
  DEPSURF_ASSIGN_OR_RETURN(at, reader.ReadAtAddress(banner_sym->value));
  DEPSURF_ASSIGN_OR_RETURN(banner, at.ReadCString());
  // "Linux version 5.4.0-26-generic (...) (gcc (Ubuntu) 9.4.0) ..."
  int major = 0;
  int minor = 0;
  char flavor[64] = {0};
  int gcc = 0;
  if (sscanf(banner.c_str(), "Linux version %d.%d.0-26-%63[^ ] (buildd@lcy02) (gcc (Ubuntu) %d",
             &major, &minor, flavor, &gcc) >= 3) {
    meta.version_major = major;
    meta.version_minor = minor;
    meta.flavor = flavor;
    meta.gcc_major = gcc;
  }
  return Status::Ok();
}

}  // namespace

const char* DegradationStateName(DegradationState state) {
  switch (state) {
    case DegradationState::kClean:
      return "clean";
    case DegradationState::kDegraded:
      return "degraded";
    case DegradationState::kMissing:
      return "missing";
  }
  return "unknown";
}

bool SurfaceHealth::AnyDegraded() const {
  return elf == DegradationState::kDegraded || dwarf == DegradationState::kDegraded ||
         btf == DegradationState::kDegraded ||
         tracepoint == DegradationState::kDegraded ||
         syscall == DegradationState::kDegraded;
}

std::string SurfaceHealth::Summary() const {
  std::string out;
  auto add = [&out](const char* name, DegradationState state) {
    if (state == DegradationState::kClean) {
      return;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += name;
    out += '=';
    out += DegradationStateName(state);
  };
  add("elf", elf);
  add("dwarf", dwarf);
  add("btf", btf);
  add("tracepoint", tracepoint);
  add("syscall", syscall);
  return out.empty() ? "clean" : out;
}

std::string FunctionStatus::CollisionClass() const {
  if (collided) {
    return external ? "Static-Global Collision" : "Static-Static Collision";
  }
  if (duplicated) {
    return "Static Duplication";
  }
  return external ? "Unique Global" : "Unique Static";
}

std::string FunctionEntry::StatusJson() const {
  // Names, files and caller strings come from the image: escape them all.
  auto quoted = [](const std::string& s) { return "\"" + obs::JsonEscape(s) + "\""; };
  std::string inline_type = status.fully_inlined          ? "Fully inlined"
                            : status.selectively_inlined  ? "Partially inlined"
                                                          : "Not inlined";
  std::string out = "{\"name\": " + quoted(name);
  out += ", \"collision_type\": \"" + status.CollisionClass() + "\"";
  out += ", \"inline_type\": \"" + inline_type + "\"";
  out += ", \"funcs\": [";
  for (size_t i = 0; i < instances.size(); ++i) {
    const FunctionInstance& inst = instances[i];
    if (i != 0) {
      out += ", ";
    }
    out += "{\"name\": " + quoted(inst.name);
    out += StrFormat(", \"external\": %s, \"loc\": ", inst.external ? "true" : "false");
    out += quoted(StrFormat("%s:%u", inst.decl_file.c_str(), inst.decl_line));
    out += ", \"caller_inline\": [";
    for (size_t k = 0; k < inst.caller_inline.size(); ++k) {
      out += (k != 0 ? ", " : "") + quoted(inst.caller_inline[k]);
    }
    out += "], \"caller_func\": [";
    for (size_t k = 0; k < inst.caller_func.size(); ++k) {
      out += (k != 0 ? ", " : "") + quoted(inst.caller_func[k]);
    }
    out += "]}";
  }
  out += "], \"symbols\": [";
  for (size_t i = 0; i < symbols.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += "{\"name\": " + quoted(symbols[i].name);
    out += StrFormat(", \"addr\": %llu, \"bind\": \"%s\", \"size\": %llu}",
                     (unsigned long long)symbols[i].value,
                     symbols[i].bind == SymBind::kGlobal ? "STB_GLOBAL" : "STB_LOCAL",
                     (unsigned long long)symbols[i].size);
  }
  out += "]}";
  return out;
}

Result<DependencySurface> DependencySurface::Extract(std::vector<uint8_t> image_bytes) {
  obs::ScopedSpan span("surface.extract");
  span.AddAttr("image_bytes", static_cast<uint64_t>(image_bytes.size()));
  // The ELF container is the one hard requirement: without sections and
  // symbols there is nothing to salvage from.
  DEPSURF_ASSIGN_OR_RETURN(reader, ElfReader::Parse(std::move(image_bytes)));
  DependencySurface surface;
  SurfaceHealth& health = surface.health_;
  DiagnosticLedger& ledger = health.ledger;
  surface.meta_ = MetaFromIdent(reader);

  // Banner and .config are metadata; unreadable copies cost version/config
  // facts but never the surface itself.
  if (Status st = ParseBanner(reader, surface.meta_); !st.ok()) {
    ledger.AddError(DiagSeverity::kWarning, DiagSubsystem::kElf,
                    st.error().Wrap("linux_banner unreadable"));
  }
  if (const ElfSectionView* config = reader.SectionByName(".config")) {
    auto parse_config = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(data, reader.SectionData(*config));
      DEPSURF_ASSIGN_OR_RETURN(raw, data.ReadBytes(data.size()));
      std::string text(raw.begin(), raw.end());
      unsigned options = 0;
      char traceable = 'y';
      if (size_t pos = text.find("CONFIG_OPTIONS="); pos != std::string::npos) {
        sscanf(text.c_str() + pos, "CONFIG_OPTIONS=%u", &options);
      }
      if (size_t pos = text.find("CONFIG_COMPAT_TRACEABLE="); pos != std::string::npos) {
        sscanf(text.c_str() + pos, "CONFIG_COMPAT_TRACEABLE=%c", &traceable);
      }
      surface.meta_.config_options = options;
      surface.meta_.compat_syscalls_traceable = traceable == 'y';
      return Status::Ok();
    };
    if (Status st = parse_config(); !st.ok()) {
      ledger.AddError(DiagSeverity::kWarning, DiagSubsystem::kElf,
                      st.error().Wrap(".config unreadable"));
    }
  }

  // ---- BTF: declarations of functions and structs. A corrupt .BTF costs
  // the type graph (declarations, struct layouts) but not the symbol-table,
  // tracepoint, or syscall views.
  {
    obs::ScopedSpan btf_span("surface.btf");
    auto decode_btf = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(btf_data, reader.SectionDataByName(kBtfSection));
      DEPSURF_ASSIGN_OR_RETURN(graph, DecodeBtf(btf_data));
      surface.btf_ = std::move(graph);
      return Status::Ok();
    };
    if (Status st = decode_btf(); !st.ok()) {
      if (st.error().code() == ErrorCode::kNotFound) {
        health.btf = DegradationState::kMissing;
        ledger.AddError(DiagSeverity::kWarning, DiagSubsystem::kBtf, st.error());
      } else {
        health.btf = DegradationState::kDegraded;
        ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                        st.error().Wrap(".BTF decode failed"));
      }
      surface.btf_ = TypeGraph();  // queries see an empty, valid graph
    }
    uint64_t func_names = 0;
    for (BtfTypeId id = 1; id <= surface.btf_.num_types(); ++id) {
      const BtfType* t = surface.btf_.Get(id);
      if (t->kind == BtfKind::kStruct && !t->name.empty()) {
        if (!StartsWith(t->name, kTraceStructPrefix)) {
          surface.structs_.emplace(t->name, id);
        }
      } else if (t->kind == BtfKind::kFunc && surface.btf_.FindFunc(t->name) == id) {
        ++func_names;  // the first FUNC of its name, as the function table resolves it
      }
    }
    btf_span.AddAttr("structs", static_cast<uint64_t>(surface.structs_.size()));
    btf_span.AddAttr("funcs", func_names);
  }

  // ---- DWARF: function instances and inline structure. Absent debug
  // sections degrade to a BTF+symtab-only surface (distro kernels without
  // dbgsym packages): declarations remain, compilation status is unknown.
  FunctionInstanceMap instances;
  surface.meta_.has_debug_info = reader.SectionByName(kDwarfInfoSection) != nullptr &&
                                 reader.SectionByName(kDwarfAbbrevSection) != nullptr;
  {
    obs::ScopedSpan dwarf_span("surface.dwarf");
    dwarf_span.AddAttr("has_debug_info", surface.meta_.has_debug_info ? "true" : "false");
    auto decode_dwarf = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(abbrev_reader, reader.SectionDataByName(kDwarfAbbrevSection));
      DEPSURF_ASSIGN_OR_RETURN(info_reader, reader.SectionDataByName(kDwarfInfoSection));
      DEPSURF_ASSIGN_OR_RETURN(abbrev_bytes, abbrev_reader.ReadBytes(abbrev_reader.size()));
      DEPSURF_ASSIGN_OR_RETURN(info_bytes, info_reader.ReadBytes(info_reader.size()));
      DEPSURF_ASSIGN_OR_RETURN(
          collected, DecodeFunctionInstances(abbrev_bytes, info_bytes, reader.endian()));
      instances = std::move(collected);
      return Status::Ok();
    };
    if (!surface.meta_.has_debug_info) {
      health.dwarf = DegradationState::kMissing;
    } else if (Status st = decode_dwarf(); !st.ok()) {
      // Broken DWARF costs inline/duplication status, not the surface: fall
      // back to the same BTF+symtab path used for images without dbgsym.
      // health records the truth (kDegraded, vs kMissing for absent
      // sections); meta_.has_debug_info drops to false so the status
      // classifier below stays consistent with what it can actually see.
      health.dwarf = DegradationState::kDegraded;
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kDwarf,
                      st.error().Wrap("DWARF decode failed"));
      surface.meta_.has_debug_info = false;
      instances.clear();
    }
    if (!surface.meta_.has_debug_info) {
      // Seed the function table from BTF FUNC declarations; instances stay
      // empty and the status classifier sees only the symbol table.
      for (BtfTypeId id = 1; id <= surface.btf_.num_types(); ++id) {
        const BtfType* t = surface.btf_.Get(id);
        if (t->kind == BtfKind::kFunc && !StartsWith(t->name, kTraceFuncPrefix)) {
          instances.try_emplace(t->name);
        }
      }
      if (instances.empty()) {
        // Both DWARF and BTF are gone; the symbol table alone still names
        // the attachable functions.
        for (const ElfSymbol& sym : reader.symbols()) {
          if (sym.type != SymType::kFunc) {
            continue;
          }
          std::string_view base = SplitTransformSuffix(sym.name).first;
          if (!base.empty() && !StartsWith(base, kTraceFuncPrefix)) {
            instances.try_emplace(std::string(base));
          }
        }
      }
    }
    dwarf_span.AddAttr("function_instances", static_cast<uint64_t>(instances.size()));
    dwarf_span.AddAttr("health", DegradationStateName(health.dwarf));
  }

  // Symbol indexes into the reader's table: by base name (strips
  // transformation suffixes) and by address (for tracepoint/syscall reverse
  // lookup; the first symbol-table entry at an address wins).
  std::unordered_map<std::string_view, std::vector<const ElfSymbol*>> symbols_by_base;
  std::map<uint64_t, const ElfSymbol*> func_sym_at;
  {
  obs::ScopedSpan classify_span("surface.classify_functions");
  classify_span.AddAttr("instances", static_cast<uint64_t>(instances.size()));
  for (const ElfSymbol& sym : reader.symbols()) {
    if (sym.type != SymType::kFunc) {
      continue;
    }
    symbols_by_base[SplitTransformSuffix(sym.name).first].push_back(&sym);
    func_sym_at.emplace(sym.value, &sym);
  }

  for (auto& [name, insts] : instances) {
    FunctionEntry entry;
    entry.name = name;
    entry.instances = std::move(insts);
    if (auto id = surface.btf_.FindFunc(name)) {
      entry.btf_id = *id;
    }
    if (auto sit = symbols_by_base.find(name); sit != symbols_by_base.end()) {
      entry.symbols.reserve(sit->second.size());
      for (const ElfSymbol* sym : sit->second) {
        entry.symbols.push_back(*sym);
      }
    }

    FunctionStatus& status = entry.status;
    bool any_code = false;
    bool any_inline_site = false;
    std::set<std::pair<std::string_view, uint32_t>> decl_locations;
    for (const FunctionInstance& inst : entry.instances) {
      any_code |= inst.HasCode();
      any_inline_site |= !inst.caller_inline.empty();
      status.external |= inst.external;
      decl_locations.emplace(inst.decl_file, inst.decl_line);
    }
    for (const ElfSymbol& sym : entry.symbols) {
      if (sym.name == name) {
        status.has_exact_symbol = true;
      } else {
        status.transform_suffix = SplitTransformSuffix(sym.name).second;
      }
    }
    status.transformed = !status.has_exact_symbol && !status.transform_suffix.empty();
    if (surface.meta_.has_debug_info) {
      status.fully_inlined = !any_code;
      status.selectively_inlined = any_code && any_inline_site;
      // Duplication counts debug-info instances (a fully-inlined header
      // static is still duplicated across its including TUs).
      status.duplicated = entry.instances.size() >= 2 && decl_locations.size() == 1;
      status.collided = decl_locations.size() >= 2;
    } else {
      // Without DWARF only the symbol table speaks: a BTF function with no
      // symbol at all was compiled away (inlined); selective inlining,
      // duplication, and collisions are undetectable.
      status.fully_inlined = !status.has_exact_symbol && !status.transformed;
      status.external = !entry.symbols.empty() &&
                        entry.symbols.front().bind == SymBind::kGlobal;
    }
    // `instances` iterates in key order, so every insert lands at the end.
    surface.functions_.emplace_hint(surface.functions_.end(), name, std::move(entry));
  }
  }

  // ---- Tracepoints: walk the __start/__stop_ftrace_events pointer array,
  // dereferencing records and strings through the data sections.
  {
  obs::ScopedSpan tp_span("surface.tracepoints");
  auto start_sym = reader.FindSymbol(kStartFtrace);
  auto stop_sym = reader.FindSymbol(kStopFtrace);
  if (!start_sym.has_value() || !stop_sym.has_value()) {
    health.tracepoint = DegradationState::kMissing;
  } else {
    int ptr = reader.pointer_size();
    uint64_t skipped = 0;
    auto walk = [&]() -> Status {
      if (stop_sym->value < start_sym->value ||
          (stop_sym->value - start_sym->value) % ptr != 0) {
        return Status(Error(ErrorCode::kMalformedData, "bad ftrace_events bounds")
                          .WithOffset(start_sym->value));
      }
      uint64_t count = (stop_sym->value - start_sym->value) / ptr;
      DEPSURF_ASSIGN_OR_RETURN(array, reader.ReadAtAddress(start_sym->value));
      // Each record stands alone: a dangling pointer or unterminated string
      // skips that tracepoint, not the registry.
      auto parse_record = [&](uint64_t rec_addr) -> Status {
        DEPSURF_ASSIGN_OR_RETURN(rec, reader.ReadAtAddress(rec_addr));
        TracepointEntry tp;
        DEPSURF_ASSIGN_OR_RETURN(event_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(class_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(struct_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(fmt_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(func_addr, rec.ReadAddr(ptr));
        DEPSURF_ASSIGN_OR_RETURN(event_reader, reader.ReadAtAddress(event_addr));
        DEPSURF_ASSIGN_OR_RETURN(event_name, event_reader.ReadCString());
        tp.event_name = std::move(event_name);
        DEPSURF_ASSIGN_OR_RETURN(class_reader, reader.ReadAtAddress(class_addr));
        DEPSURF_ASSIGN_OR_RETURN(class_name, class_reader.ReadCString());
        tp.class_name = std::move(class_name);
        DEPSURF_ASSIGN_OR_RETURN(struct_reader, reader.ReadAtAddress(struct_addr));
        DEPSURF_ASSIGN_OR_RETURN(struct_name, struct_reader.ReadCString());
        tp.struct_name = std::move(struct_name);
        DEPSURF_ASSIGN_OR_RETURN(fmt_reader, reader.ReadAtAddress(fmt_addr));
        DEPSURF_ASSIGN_OR_RETURN(fmt, fmt_reader.ReadCString());
        tp.fmt = std::move(fmt);
        if (auto it = func_sym_at.find(func_addr); it != func_sym_at.end()) {
          tp.func_name = it->second->name;
        }
        if (auto id = surface.btf_.FindByKindAndName(BtfKind::kStruct, tp.struct_name)) {
          tp.struct_btf_id = *id;
        }
        if (auto id = surface.btf_.FindFunc(tp.func_name)) {
          tp.func_btf_id = *id;
        }
        surface.tracepoints_.emplace(tp.event_name, std::move(tp));
        return Status::Ok();
      };
      for (uint64_t i = 0; i < count; ++i) {
        // Losing the pointer array itself ends the walk; a bad record only
        // costs the record.
        DEPSURF_ASSIGN_OR_RETURN(rec_addr, array.ReadAddr(ptr));
        if (Status st = parse_record(rec_addr); !st.ok()) {
          health.tracepoint = DegradationState::kDegraded;
          ledger.AddError(
              DiagSeverity::kDegraded, DiagSubsystem::kTracepoint,
              st.error().Wrap(StrFormat("ftrace_events record %llu unreadable",
                                        (unsigned long long)i)));
          ++skipped;
        }
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      health.tracepoint = DegradationState::kDegraded;
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kTracepoint,
                      st.error().Wrap("ftrace_events walk aborted"));
    }
    tp_span.AddAttr("skipped", skipped);
  }
  tp_span.AddAttr("records", static_cast<uint64_t>(surface.tracepoints_.size()));
  }

  // ---- System calls: read sys_call_table, reverse-map entry addresses.
  {
  obs::ScopedSpan sys_span("surface.syscalls");
  auto table_sym = reader.FindSymbol(kSyscallTable);
  if (!table_sym.has_value()) {
    health.syscall = DegradationState::kMissing;
  } else {
    auto walk = [&]() -> Status {
      int ptr = reader.pointer_size();
      uint64_t slots = table_sym->size / ptr;
      uint64_t ni_addr = 0;
      if (auto ni = reader.FindSymbol("sys_ni_syscall"); ni.has_value()) {
        ni_addr = ni->value;
      }
      DEPSURF_ASSIGN_OR_RETURN(table, reader.ReadAtAddress(table_sym->value));
      for (uint64_t nr = 0; nr < slots; ++nr) {
        DEPSURF_ASSIGN_OR_RETURN(addr, table.ReadAddr(ptr));
        if (addr == ni_addr || addr == 0) {
          continue;
        }
        auto it = func_sym_at.find(addr);
        if (it == func_sym_at.end()) {
          continue;
        }
        for (const char* prefix : kSyscallPrefixes) {
          if (StartsWith(it->second->name, prefix)) {
            SyscallEntry entry;
            entry.name = it->second->name.substr(strlen(prefix));
            entry.nr = static_cast<int>(nr);
            surface.syscalls_.emplace(entry.name, std::move(entry));
            break;
          }
        }
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      // The table reader is sequential, so a truncated table keeps every
      // entry decoded before the break.
      health.syscall = DegradationState::kDegraded;
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kSyscall,
                      st.error().Wrap("sys_call_table walk aborted"));
    }
  }
  sys_span.AddAttr("entries", static_cast<uint64_t>(surface.syscalls_.size()));
  }

  // ---- kfuncs: registered via BTF id sets in .BTF_ids. Entries that do
  // not resolve to a FUNC (stale ids, or a degraded type graph) are skipped
  // individually.
  if (const ElfSectionView* ids_section = reader.SectionByName(".BTF_ids")) {
    auto walk = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(ids, reader.SectionData(*ids_section));
      while (ids.remaining() >= 4) {
        DEPSURF_ASSIGN_OR_RETURN(id, ids.ReadU32());
        const BtfType* t = surface.btf_.Get(id);
        if (t == nullptr || t->kind != BtfKind::kFunc) {
          if (health.btf == DegradationState::kClean) {
            health.btf = DegradationState::kDegraded;
          }
          ledger.AddAt(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                       ErrorCode::kMalformedData, ids.offset() - 4,
                       StrFormat("BTF_ids entry %u is not a FUNC", id));
          continue;
        }
        surface.kfuncs_.insert(t->name);
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      if (health.btf == DegradationState::kClean) {
        health.btf = DegradationState::kDegraded;
      }
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                      st.error().Wrap(".BTF_ids unreadable"));
    }
  }

  // ---- BPF helper ids (.bpf_helpers, written by kernelgen; name kept in
  // sync with kBpfHelpersSection there). A truncated table keeps every id
  // decoded before the break.
  if (const ElfSectionView* helpers_section = reader.SectionByName(".bpf_helpers")) {
    auto walk = [&]() -> Status {
      DEPSURF_ASSIGN_OR_RETURN(ids, reader.SectionData(*helpers_section));
      while (ids.remaining() >= 4) {
        DEPSURF_ASSIGN_OR_RETURN(id, ids.ReadU32());
        surface.helpers_.insert(id);
      }
      return Status::Ok();
    };
    if (Status st = walk(); !st.ok()) {
      if (health.btf == DegradationState::kClean) {
        health.btf = DegradationState::kDegraded;
      }
      ledger.AddError(DiagSeverity::kDegraded, DiagSubsystem::kBtf,
                      st.error().Wrap(".bpf_helpers unreadable"));
    }
  }

  // Functions that are really tracepoint machinery or syscall stubs must
  // not pollute the function surface (they are reachable through their own
  // tables above). Our DWARF only covers source functions, but scripted
  // syscall implementations like __x64_sys_fsync legitimately appear in
  // both; keep them.
  for (auto it = surface.functions_.begin(); it != surface.functions_.end();) {
    if (StartsWith(it->first, kTraceFuncPrefix)) {
      it = surface.functions_.erase(it);
    } else {
      ++it;
    }
  }

  uint64_t fully_inlined = 0;
  uint64_t selectively_inlined = 0;
  uint64_t transformed = 0;
  uint64_t duplicated = 0;
  uint64_t collided = 0;
  for (const auto& [name, entry] : surface.functions_) {
    (void)name;
    fully_inlined += entry.status.fully_inlined ? 1 : 0;
    selectively_inlined += entry.status.selectively_inlined ? 1 : 0;
    transformed += entry.status.transformed ? 1 : 0;
    duplicated += entry.status.duplicated ? 1 : 0;
    collided += entry.status.collided ? 1 : 0;
  }
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Incr("surface.extracted");
  if (health.AnyDegraded()) {
    metrics.Incr("surface.salvaged");
  }
  if (!ledger.empty()) {
    metrics.Incr("surface.diagnostics", ledger.size());
  }
  metrics.Incr("surface.functions", surface.functions_.size());
  metrics.Incr("surface.structs", surface.structs_.size());
  metrics.Incr("surface.tracepoints", surface.tracepoints_.size());
  metrics.Incr("surface.syscalls", surface.syscalls_.size());
  metrics.Incr("surface.kfuncs", surface.kfuncs_.size());
  metrics.Incr("surface.helpers", surface.helpers_.size());
  metrics.Incr("surface.funcs_fully_inlined", fully_inlined);
  metrics.Incr("surface.funcs_selectively_inlined", selectively_inlined);
  metrics.Incr("surface.funcs_transformed", transformed);
  metrics.Incr("surface.funcs_duplicated", duplicated);
  metrics.Incr("surface.funcs_collided", collided);
  span.AddAttr("functions", static_cast<uint64_t>(surface.functions_.size()));
  span.AddAttr("structs", static_cast<uint64_t>(surface.structs_.size()));
  span.AddAttr("tracepoints", static_cast<uint64_t>(surface.tracepoints_.size()));
  span.AddAttr("syscalls", static_cast<uint64_t>(surface.syscalls_.size()));
  span.AddAttr("health", health.Summary());
  // Publish the ledger so run reports carry a per-run diagnostics section.
  if (!ledger.empty()) {
    obs::Context::Current().diagnostics().AddAll(ledger);
  }
  return surface;
}

bool DependencySurface::IsLsmHook(const std::string& name) {
  return StartsWith(name, "security_");
}

const FunctionEntry* DependencySurface::FindFunction(const std::string& name) const {
  auto it = functions_.find(name);
  return it == functions_.end() ? nullptr : &it->second;
}

std::optional<BtfTypeId> DependencySurface::FindStruct(const std::string& name) const {
  auto it = structs_.find(name);
  if (it == structs_.end()) {
    return std::nullopt;
  }
  return it->second;
}

const TracepointEntry* DependencySurface::FindTracepoint(const std::string& event) const {
  auto it = tracepoints_.find(event);
  return it == tracepoints_.end() ? nullptr : &it->second;
}

bool DependencySurface::HasSyscall(const std::string& name) const {
  return syscalls_.count(name) != 0;
}

}  // namespace depsurf
