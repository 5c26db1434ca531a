#include "tests/dwarf_reference.h"

#include <map>
#include <string>
#include <utility>

#include "src/util/leb128.h"
#include "src/util/str_util.h"

namespace depsurf {

Result<DwarfDocument> DecodeDwarf(const std::vector<uint8_t>& abbrev,
                                  const std::vector<uint8_t>& info, Endian endian) {
  struct AbbrevEntry {
    uint16_t tag = 0;
    bool has_children = false;
    std::vector<std::pair<DwAttr, DwForm>> attrs;
  };

  // Parse the abbreviation table.
  std::vector<AbbrevEntry> entries;  // index = code - 1
  {
    ByteReader r(abbrev, endian);
    while (true) {
      DEPSURF_ASSIGN_OR_RETURN(code, ReadUleb128(r));
      if (code == 0) {
        break;
      }
      if (code != entries.size() + 1) {
        return Error(ErrorCode::kMalformedData, "abbrev codes not sequential")
            .WithOffset(r.offset());
      }
      AbbrevEntry entry;
      DEPSURF_ASSIGN_OR_RETURN(tag, ReadUleb128(r));
      entry.tag = static_cast<uint16_t>(tag);
      DEPSURF_ASSIGN_OR_RETURN(has_children, r.ReadU8());
      entry.has_children = has_children != 0;
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
        entry.attrs.emplace_back(parsed_attr, parsed_form);
      }
      entries.push_back(std::move(entry));
    }
  }

  // Parse the info stream.
  DwarfDocument document;
  ByteReader r(info, endian);
  std::vector<uint32_t> stack;  // parent DIE indices

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
    uint32_t parent = stack.empty() ? 0 : stack.back();
    uint32_t die_index = document.AddDie(static_cast<DwTag>(entry.tag), parent);
    for (const auto& [attr, form] : entry.attrs) {
      switch (form) {
        case DwForm::kString: {
          DEPSURF_ASSIGN_OR_RETURN(s, r.ReadCString());
          document.SetString(die_index, attr, s);
          break;
        }
        case DwForm::kUdata:
        case DwForm::kRef: {
          DEPSURF_ASSIGN_OR_RETURN(n, ReadUleb128(r));
          document.SetNumber(die_index, attr, n);
          break;
        }
        case DwForm::kFlag: {
          DEPSURF_RETURN_IF_ERROR(r.Skip(1));
          document.SetFlag(die_index, attr);
          break;
        }
        case DwForm::kAddr: {
          DEPSURF_ASSIGN_OR_RETURN(n, r.ReadU64());
          document.SetNumber(die_index, attr, n);
          break;
        }
      }
    }
    if (entry.has_children) {
      stack.push_back(die_index);
    }
  }
  if (!stack.empty()) {
    return Error(ErrorCode::kMalformedData, "unterminated children list")
        .WithOffset(r.offset());
  }
  // Validate references point at real DIEs.
  Status ref_status = Status::Ok();
  document.WalkAll([&](uint32_t index, const Die&) {
    document.ForEachAttr(index, [&](const DwarfAttrValue& v) {
      if (FormOf(v.attr) == DwForm::kRef && v.num > document.num_dies()) {
        ref_status = Status(ErrorCode::kMalformedData, "DIE reference out of range");
      }
    });
  });
  DEPSURF_RETURN_IF_ERROR(ref_status);
  return document;
}

Result<FunctionInstanceMap> CollectFunctionInstances(const DwarfDocument& document) {
  // Pass 1: map every subprogram DIE index to its slot in the result, and
  // record the enclosing (CU file, subprogram name) context of each DIE.
  struct Slot {
    std::string name;
    size_t index;  // into instances[name]
  };
  FunctionInstanceMap instances;
  std::map<uint32_t, Slot> subprogram_slots;

  for (uint32_t root : document.roots()) {
    if (document.die(root).tag != DwTag::kCompileUnit) {
      return Error(ErrorCode::kMalformedData, "top-level DIE is not a compile unit");
    }
    std::string cu_file(document.GetString(root, DwAttr::kName).value_or(""));
    Status bad = Status::Ok();
    document.ForEachChild(root, [&](uint32_t child) {
      if (!bad.ok() || document.die(child).tag != DwTag::kSubprogram) {
        return;
      }
      FunctionInstance inst;
      inst.name = document.GetString(child, DwAttr::kName).value_or("");
      if (inst.name.empty()) {
        bad = Status(ErrorCode::kMalformedData, "subprogram without a name");
        return;
      }
      inst.decl_file = document.GetString(child, DwAttr::kDeclFile).value_or(cu_file);
      inst.decl_line =
          static_cast<uint32_t>(document.GetNumber(child, DwAttr::kDeclLine).value_or(0));
      inst.external = document.GetFlag(child, DwAttr::kExternal);
      inst.inline_attr =
          static_cast<DwInl>(document.GetNumber(child, DwAttr::kInline).value_or(0));
      if (auto pc = document.GetNumber(child, DwAttr::kLowPc); pc.has_value()) {
        inst.low_pc = *pc;
      }
      auto& list = instances[inst.name];
      subprogram_slots[child] = Slot{inst.name, list.size()};
      list.push_back(std::move(inst));
    });
    DEPSURF_RETURN_IF_ERROR(bad);
  }

  // Pass 2: attribute inlined_subroutine / call_site records to their
  // origin instances.
  Status bad = Status::Ok();
  for (uint32_t root : document.roots()) {
    std::string cu_file(document.GetString(root, DwAttr::kName).value_or(""));
    document.ForEachChild(root, [&](uint32_t sub_index) {
      if (document.die(sub_index).tag != DwTag::kSubprogram) {
        return;
      }
      std::string caller =
          cu_file + ":" + std::string(document.GetString(sub_index, DwAttr::kName).value_or("?"));
      document.Walk(sub_index, [&](uint32_t index, const Die& die) {
        if (index == sub_index) {
          return;
        }
        uint64_t origin = 0;
        bool is_inline_site = false;
        if (die.tag == DwTag::kInlinedSubroutine) {
          origin = document.GetNumber(index, DwAttr::kAbstractOrigin).value_or(0);
          is_inline_site = true;
        } else if (die.tag == DwTag::kCallSite) {
          origin = document.GetNumber(index, DwAttr::kCallOrigin).value_or(0);
        } else {
          return;
        }
        auto it = subprogram_slots.find(static_cast<uint32_t>(origin));
        if (it == subprogram_slots.end()) {
          bad = Status(ErrorCode::kMalformedData, "call origin is not a subprogram");
          return;
        }
        FunctionInstance& target = instances[it->second.name][it->second.index];
        if (is_inline_site) {
          target.caller_inline.push_back(caller);
        } else {
          target.caller_func.push_back(caller);
        }
      });
    });
  }
  DEPSURF_RETURN_IF_ERROR(bad);
  return instances;
}

Result<FunctionInstanceMap> ReferenceFunctionInstances(const std::vector<uint8_t>& abbrev,
                                                       const std::vector<uint8_t>& info,
                                                       Endian endian) {
  DEPSURF_ASSIGN_OR_RETURN(document, DecodeDwarf(abbrev, info, endian));
  return CollectFunctionInstances(document);
}

std::string DescribeInstances(const Result<FunctionInstanceMap>& result) {
  if (!result.ok()) {
    return "error: " + result.error().ToString();
  }
  std::string out;
  for (const auto& [name, insts] : *result) {
    out += name + ":\n";
    for (const FunctionInstance& inst : insts) {
      out += StrFormat("  name=%s decl=%s:%u external=%d inline=%u low_pc=%s\n",
                       inst.name.c_str(), inst.decl_file.c_str(), inst.decl_line,
                       inst.external ? 1 : 0, static_cast<unsigned>(inst.inline_attr),
                       inst.low_pc.has_value()
                           ? StrFormat("%llx", (unsigned long long)*inst.low_pc).c_str()
                           : "none");
      for (const std::string& caller : inst.caller_inline) {
        out += "    inline " + caller + "\n";
      }
      for (const std::string& caller : inst.caller_func) {
        out += "    call " + caller + "\n";
      }
    }
  }
  return out;
}

DwarfDocument RandomDwarfDocument(Prng& prng) {
  DwarfDocument doc;
  size_t num_cus = 1 + prng.NextBelow(4);
  std::vector<uint32_t> subprograms;
  for (size_t cu_index = 0; cu_index < num_cus; ++cu_index) {
    uint32_t cu = doc.AddDie(DwTag::kCompileUnit, 0);
    doc.SetString(cu, DwAttr::kName, StrFormat("dir/file%zu.c", cu_index));
    size_t num_subs = prng.NextBelow(12);
    for (size_t s = 0; s < num_subs; ++s) {
      uint32_t sub = doc.AddDie(DwTag::kSubprogram, cu);
      doc.SetString(sub, DwAttr::kName, StrFormat("fn_%zu_%zu", cu_index, s));
      doc.SetNumber(sub, DwAttr::kDeclLine, prng.NextBelow(5000));
      if (prng.NextBool(0.5)) {
        doc.SetFlag(sub, DwAttr::kExternal);
      }
      if (prng.NextBool(0.8)) {
        doc.SetNumber(sub, DwAttr::kLowPc, prng.NextU64());
      }
      if (prng.NextBool(0.3) && !subprograms.empty()) {
        uint32_t site = doc.AddDie(DwTag::kInlinedSubroutine, sub);
        doc.SetNumber(site, DwAttr::kAbstractOrigin,
                      subprograms[prng.NextBelow(subprograms.size())]);
      }
      if (prng.NextBool(0.3) && !subprograms.empty()) {
        uint32_t site = doc.AddDie(DwTag::kCallSite, sub);
        doc.SetNumber(site, DwAttr::kCallOrigin,
                      subprograms[prng.NextBelow(subprograms.size())]);
      }
      subprograms.push_back(sub);
    }
  }
  return doc;
}

}  // namespace depsurf
