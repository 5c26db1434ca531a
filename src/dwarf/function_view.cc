#include "src/dwarf/function_view.h"

#include <algorithm>
#include <string_view>

#include "src/obs/context.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/leb128.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// The attributes the instance table reads. Only the first occurrence of an
// attribute in an abbrev is captured (later duplicates are parsed and
// skipped), matching a first-match lookup over the DIE's attributes.
enum Field : uint8_t {
  kNoField,
  kNameField,
  kDeclFileField,
  kDeclLineField,
  kExternalField,
  kInlineField,
  kLowPcField,
  kAbstractOriginField,
  kCallOriginField,
  kNumFields,
};

Field FieldOf(DwAttr attr) {
  switch (attr) {
    case DwAttr::kName:
      return kNameField;
    case DwAttr::kDeclFile:
      return kDeclFileField;
    case DwAttr::kDeclLine:
      return kDeclLineField;
    case DwAttr::kExternal:
      return kExternalField;
    case DwAttr::kInline:
      return kInlineField;
    case DwAttr::kLowPc:
      return kLowPcField;
    case DwAttr::kAbstractOrigin:
      return kAbstractOriginField;
    case DwAttr::kCallOrigin:
      return kCallOriginField;
  }
  return kNoField;
}

struct AbbrevAttr {
  DwForm form;
  Field field;
};

struct AbbrevEntry {
  DwTag tag;
  bool has_children = false;
  std::vector<AbbrevAttr> attrs;
};

Result<std::vector<AbbrevEntry>> ParseAbbrevTable(const std::vector<uint8_t>& abbrev,
                                                  Endian endian) {
  std::vector<AbbrevEntry> entries;  // index = code - 1
  ByteReader r(abbrev, endian);
  while (true) {
    DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
    if (code == 0) {
      return entries;
    }
    if (code != entries.size() + 1) {
      return Error(ErrorCode::kMalformedData, "abbrev codes not sequential")
          .WithOffset(r.offset());
    }
    AbbrevEntry entry;
    DEPSURF_ASSIGN_OR_RETURN(tag, ReadUleb128(r));
    entry.tag = static_cast<DwTag>(static_cast<uint16_t>(tag));
    DEPSURF_ASSIGN_OR_RETURN(has_children, r.ReadU8());
    entry.has_children = has_children != 0;
    bool captured[kNumFields] = {};
    while (true) {
      DEPSURF_ASSIGN_OR_RETURN(attr, ReadUleb128(r));
      DEPSURF_ASSIGN_OR_RETURN(form, ReadUleb128(r));
      if (attr == 0 && form == 0) {
        break;
      }
      DwForm parsed_form = static_cast<DwForm>(form);
      DwAttr parsed_attr = static_cast<DwAttr>(attr);
      if (parsed_form != FormOf(parsed_attr)) {
        return Error(ErrorCode::kMalformedData,
                     StrFormat("attr 0x%x has unexpected form %u", (unsigned)attr,
                               (unsigned)form))
            .WithOffset(r.offset());
      }
      Field field = FieldOf(parsed_attr);
      if (captured[field]) {
        field = kNoField;
      }
      captured[field] = true;
      entry.attrs.push_back(AbbrevAttr{parsed_form, field});
    }
    entries.push_back(std::move(entry));
  }
}

// The captured attributes of the DIE being decoded.
struct DieFields {
  uint32_t present = 0;  // bit per Field
  std::string_view name;
  std::string_view decl_file;
  uint64_t num[kNumFields] = {};

  bool Has(Field f) const { return (present >> f) & 1; }
  uint64_t NumOr(Field f, uint64_t fallback) const { return Has(f) ? num[f] : fallback; }
};

// A unit-level subprogram as decoded: views into the section bytes until
// the instance table is built.
struct Proto {
  std::string_view name;
  std::string_view decl_file;
  std::string_view unit;  // the enclosing compile unit's name
  uint32_t decl_line;
  bool external;
  DwInl inline_attr;
  std::optional<uint64_t> low_pc;
};

// A site below an instance, resolved once every DIE index is known (an
// origin may point forward).
struct SiteRecord {
  uint64_t origin;
  uint32_t caller;  // instance index
  bool inlined;
};

// What a stack frame's children are nested in.
constexpr uint32_t kOutside = UINT32_MAX;     // nothing that collects
constexpr uint32_t kUnit = UINT32_MAX - 1;    // a compile unit
// Any other value: the index of the enclosing instance.

}  // namespace

Result<FunctionInstanceMap> DecodeFunctionInstances(const std::vector<uint8_t>& abbrev,
                                                    const std::vector<uint8_t>& info,
                                                    Endian endian) {
  obs::ScopedSpan span("dwarf.decode");
  span.AddAttr("abbrev_bytes", static_cast<uint64_t>(abbrev.size()));
  span.AddAttr("info_bytes", static_cast<uint64_t>(info.size()));
  DEPSURF_ASSIGN_OR_RETURN(entries, ParseAbbrevTable(abbrev, endian));

  std::vector<Proto> protos;  // instances, in stream order
  std::vector<uint32_t> die_instance(1, 0);  // DIE index -> instance index + 1
  std::vector<SiteRecord> sites;
  std::vector<uint32_t> stack;  // per open children list: kOutside, kUnit or an instance
  // The first structural error in stream order; reported only if the bytes
  // themselves decode cleanly. Collection stops at it.
  std::optional<Error> structure_error;
  std::string_view unit_name;
  uint64_t max_ref = 0;
  uint32_t num_dies = 0;

  ByteReader r(info, endian);
  DieFields fields;
  while (!r.AtEnd()) {
    DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
    if (code == 0) {
      if (stack.empty()) {
        return Error(ErrorCode::kMalformedData, "end-of-children with empty stack")
            .WithOffset(r.offset());
      }
      stack.pop_back();
      continue;
    }
    if (code > entries.size()) {
      return Error(ErrorCode::kMalformedData, "abbrev code out of range")
          .WithOffset(r.offset());
    }
    const AbbrevEntry& entry = entries[code - 1];
    fields.present = 0;
    for (const AbbrevAttr& a : entry.attrs) {
      uint64_t n = 0;
      switch (a.form) {
        case DwForm::kString: {
          DEPSURF_ASSIGN_OR_RETURN(s, r.ReadCStringView());
          if (a.field == kNameField) {
            fields.name = s;
          } else if (a.field == kDeclFileField) {
            fields.decl_file = s;
          }
          break;
        }
        case DwForm::kUdata: {
          DEPSURF_ASSIGN_OR_RETURN(v, ReadUleb128(r));
          n = v;
          break;
        }
        case DwForm::kRef: {
          DEPSURF_ASSIGN_OR_RETURN(v, ReadUleb128(r));
          n = v;
          max_ref = std::max(max_ref, v);
          break;
        }
        case DwForm::kFlag:
          DEPSURF_RETURN_IF_ERROR(r.Skip(1));
          n = 1;
          break;
        case DwForm::kAddr: {
          DEPSURF_ASSIGN_OR_RETURN(v, r.ReadU64());
          n = v;
          break;
        }
      }
      fields.num[a.field] = n;
      fields.present |= 1u << a.field;
    }

    uint32_t die = ++num_dies;
    die_instance.push_back(0);
    uint32_t parent = stack.empty() ? kUnit : stack.back();
    uint32_t scope = kOutside;  // what this DIE's children are nested in
    if (structure_error.has_value()) {
      // Collection stopped; only the wire format is still checked.
    } else if (stack.empty()) {
      if (entry.tag != DwTag::kCompileUnit) {
        structure_error = Error(ErrorCode::kMalformedData, "top-level DIE is not a compile unit");
      } else {
        unit_name = fields.Has(kNameField) ? fields.name : std::string_view();
        scope = kUnit;
      }
    } else if (parent == kUnit) {
      if (entry.tag == DwTag::kSubprogram) {
        if (!fields.Has(kNameField) || fields.name.empty()) {
          structure_error = Error(ErrorCode::kMalformedData, "subprogram without a name");
        } else {
          scope = static_cast<uint32_t>(protos.size());
          die_instance[die] = scope + 1;
          Proto& proto = protos.emplace_back();
          proto.name = fields.name;
          proto.decl_file = fields.Has(kDeclFileField) ? fields.decl_file : unit_name;
          proto.unit = unit_name;
          proto.decl_line = static_cast<uint32_t>(fields.NumOr(kDeclLineField, 0));
          proto.external = fields.Has(kExternalField);
          proto.inline_attr = static_cast<DwInl>(fields.NumOr(kInlineField, 0));
          if (fields.Has(kLowPcField)) {
            proto.low_pc = fields.num[kLowPcField];
          }
        }
      }
    } else if (parent != kOutside) {
      scope = parent;
      if (entry.tag == DwTag::kInlinedSubroutine) {
        sites.push_back(SiteRecord{fields.NumOr(kAbstractOriginField, 0), parent, true});
      } else if (entry.tag == DwTag::kCallSite) {
        sites.push_back(SiteRecord{fields.NumOr(kCallOriginField, 0), parent, false});
      }
    }
    if (entry.has_children) {
      stack.push_back(scope);
    }
  }
  if (!stack.empty()) {
    return Error(ErrorCode::kMalformedData, "unterminated children list")
        .WithOffset(r.offset());
  }
  if (max_ref > num_dies) {
    return Error(ErrorCode::kMalformedData, "DIE reference out of range");
  }
  span.AddAttr("abbrevs", static_cast<uint64_t>(entries.size()));
  span.AddAttr("dies", static_cast<uint64_t>(num_dies));
  // No static counter caching: the current context differs per image in
  // report-mode builds, so pointers must be re-resolved each decode.
  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  metrics.Counter("dwarf.documents_decoded")->fetch_add(1, std::memory_order_relaxed);
  metrics.Counter("dwarf.abbrevs_decoded")
      ->fetch_add(entries.size(), std::memory_order_relaxed);
  metrics.Counter("dwarf.dies_decoded")->fetch_add(num_dies, std::memory_order_relaxed);
  metrics.Counter("dwarf.bytes_decoded")
      ->fetch_add(abbrev.size() + info.size(), std::memory_order_relaxed);
  if (structure_error.has_value()) {
    return *std::move(structure_error);
  }

  // Build the table in key order: sort the instances by name (stream order
  // within a name), so each name's node is appended at the end of the map
  // and each instance is constructed once, in place.
  std::vector<std::pair<std::string_view, uint32_t>> order(protos.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = {protos[i].name, i};
  }
  std::sort(order.begin(), order.end());
  FunctionInstanceMap result;
  std::vector<FunctionInstance*> placed(protos.size());
  for (size_t run = 0; run < order.size();) {
    std::string_view name = order[run].first;
    size_t end = run;
    while (end < order.size() && order[end].first == name) {
      ++end;
    }
    auto& list = result.emplace_hint(result.end(), std::string(name),
                                     std::vector<FunctionInstance>())
                     ->second;
    list.reserve(end - run);
    for (; run < end; ++run) {
      const Proto& proto = protos[order[run].second];
      FunctionInstance& inst = list.emplace_back();
      inst.name = proto.name;
      inst.decl_file = proto.decl_file;
      inst.decl_line = proto.decl_line;
      inst.external = proto.external;
      inst.inline_attr = proto.inline_attr;
      inst.low_pc = proto.low_pc;
      placed[order[run].second] = &inst;
    }
  }

  // Attribute each site to its origin instance. Sites arrive grouped by
  // caller, so the caller string is rebuilt only when the caller changes.
  std::string caller;
  uint32_t caller_index = kOutside;
  for (const SiteRecord& site : sites) {
    uint32_t target = die_instance[site.origin];  // origin <= num_dies: checked above
    if (target == 0) {
      return Error(ErrorCode::kMalformedData, "call origin is not a subprogram");
    }
    if (site.caller != caller_index) {
      caller_index = site.caller;
      caller.assign(protos[caller_index].unit);
      caller += ':';
      caller += protos[caller_index].name;
    }
    FunctionInstance& inst = *placed[target - 1];
    (site.inlined ? inst.caller_inline : inst.caller_func).push_back(caller);
  }
  return result;
}

}  // namespace depsurf
