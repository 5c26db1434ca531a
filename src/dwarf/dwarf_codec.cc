#include "src/dwarf/dwarf_codec.h"

#include <map>

#include "src/util/leb128.h"

namespace depsurf {

namespace {

// The shape of a DIE for abbreviation purposes.
struct AbbrevShape {
  uint16_t tag;
  bool has_children;
  std::vector<uint16_t> attrs;

  bool operator<(const AbbrevShape& other) const {
    if (tag != other.tag) {
      return tag < other.tag;
    }
    if (has_children != other.has_children) {
      return has_children < other.has_children;
    }
    return attrs < other.attrs;
  }
};

void WriteAttrValue(ByteWriter& w, const DwarfDocument& document, const DwarfAttrValue& v,
                    uint64_t ref_remap) {
  switch (FormOf(v.attr)) {
    case DwForm::kString:
      w.WriteCString(document.StringOf(v));
      break;
    case DwForm::kUdata:
      WriteUleb128(w, v.num);
      break;
    case DwForm::kFlag:
      w.WriteU8(1);
      break;
    case DwForm::kAddr:
      w.WriteU64(v.num);
      break;
    case DwForm::kRef:
      WriteUleb128(w, ref_remap);
      break;
  }
}

}  // namespace

DwarfSections EncodeDwarf(const DwarfDocument& document, Endian endian) {
  // Pass 1: pre-order numbering so references are decoder-stable.
  std::vector<uint32_t> arena_to_preorder(document.num_dies() + 1, 0);
  uint32_t next = 1;
  document.WalkAll([&](uint32_t index, const Die&) { arena_to_preorder[index] = next++; });

  // Pass 2: give each DIE its abbrev code, numbering shapes in first-seen
  // order. One shape buffer is reused for every lookup.
  std::map<AbbrevShape, uint64_t> abbrev_codes;
  std::vector<const AbbrevShape*> ordered;  // index = code - 1
  std::vector<uint64_t> code_of(document.num_dies() + 1, 0);
  AbbrevShape shape;
  document.WalkAll([&](uint32_t index, const Die& die) {
    shape.tag = static_cast<uint16_t>(die.tag);
    shape.has_children = die.first_child != 0;
    shape.attrs.clear();
    document.ForEachAttr(index, [&](const DwarfAttrValue& v) {
      shape.attrs.push_back(static_cast<uint16_t>(v.attr));
    });
    auto [it, inserted] = abbrev_codes.try_emplace(shape, abbrev_codes.size() + 1);
    if (inserted) {
      ordered.push_back(&it->first);
    }
    code_of[index] = it->second;
  });

  ByteWriter abbrev(endian);
  for (size_t i = 0; i < ordered.size(); ++i) {
    WriteUleb128(abbrev, i + 1);
    WriteUleb128(abbrev, ordered[i]->tag);
    abbrev.WriteU8(ordered[i]->has_children ? 1 : 0);
    for (uint16_t attr : ordered[i]->attrs) {
      WriteUleb128(abbrev, attr);
      WriteUleb128(abbrev, static_cast<uint64_t>(FormOf(static_cast<DwAttr>(attr))));
    }
    WriteUleb128(abbrev, 0);
    WriteUleb128(abbrev, 0);
  }
  WriteUleb128(abbrev, 0);  // table terminator

  // Pass 3: emit DIEs pre-order. Like Walk, this recurses over a
  // kernelgen-built document only.
  ByteWriter info(endian);
  auto emit = [&](auto&& self, uint32_t index) -> void {
    WriteUleb128(info, code_of[index]);
    document.ForEachAttr(index, [&](const DwarfAttrValue& v) {
      uint64_t remapped = v.num;
      if (FormOf(v.attr) == DwForm::kRef && v.num != 0) {
        remapped = arena_to_preorder[v.num];
      }
      WriteAttrValue(info, document, v, remapped);
    });
    if (document.die(index).first_child != 0) {
      document.ForEachChild(index, [&](uint32_t child) { self(self, child); });
      WriteUleb128(info, 0);  // end of children
    }
  };
  for (uint32_t root : document.roots()) {
    emit(emit, root);
  }

  return DwarfSections{abbrev.TakeBytes(), info.TakeBytes()};
}

}  // namespace depsurf
