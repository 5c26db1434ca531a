#include "src/dwarf/dwarf.h"

namespace depsurf {

DwForm FormOf(DwAttr attr) {
  switch (attr) {
    case DwAttr::kName:
    case DwAttr::kDeclFile:
      return DwForm::kString;
    case DwAttr::kDeclLine:
    case DwAttr::kInline:
      return DwForm::kUdata;
    case DwAttr::kExternal:
      return DwForm::kFlag;
    case DwAttr::kLowPc:
      return DwForm::kAddr;
    case DwAttr::kAbstractOrigin:
    case DwAttr::kCallOrigin:
      return DwForm::kRef;
  }
  return DwForm::kUdata;
}

uint32_t DwarfDocument::AddDie(DwTag tag, uint32_t parent) {
  uint32_t index = static_cast<uint32_t>(dies_.size());
  dies_.push_back(Die{tag});
  if (parent == 0) {
    roots_.push_back(index);
  } else {
    Die& p = dies_[parent];
    if (p.last_child == 0) {
      p.first_child = index;
    } else {
      dies_[p.last_child].next_sibling = index;
    }
    p.last_child = index;
  }
  return index;
}

void DwarfDocument::Append(uint32_t die, DwarfAttrValue value) {
  uint32_t index = static_cast<uint32_t>(attrs_.size());
  attrs_.push_back(value);
  Die& d = dies_[die];
  if (d.last_attr == 0) {
    d.first_attr = index;
  } else {
    attrs_[d.last_attr].next = index;
  }
  d.last_attr = index;
}

void DwarfDocument::SetString(uint32_t die, DwAttr attr, std::string_view value) {
  DwarfAttrValue v{attr};
  v.num = strings_.size();
  v.str_len = static_cast<uint32_t>(value.size());
  strings_.append(value);
  Append(die, v);
}

void DwarfDocument::SetNumber(uint32_t die, DwAttr attr, uint64_t value) {
  DwarfAttrValue v{attr};
  v.num = value;
  Append(die, v);
}

void DwarfDocument::SetFlag(uint32_t die, DwAttr attr) { SetNumber(die, attr, 1); }

const DwarfAttrValue* DwarfDocument::Find(uint32_t die, DwAttr attr) const {
  for (uint32_t a = dies_[die].first_attr; a != 0; a = attrs_[a].next) {
    if (attrs_[a].attr == attr) {
      return &attrs_[a];
    }
  }
  return nullptr;
}

std::string_view DwarfDocument::StringOf(const DwarfAttrValue& value) const {
  if (FormOf(value.attr) != DwForm::kString) {
    return {};
  }
  return std::string_view(strings_).substr(value.num, value.str_len);
}

std::optional<std::string_view> DwarfDocument::GetString(uint32_t die, DwAttr attr) const {
  const DwarfAttrValue* v = Find(die, attr);
  if (v == nullptr) {
    return std::nullopt;
  }
  return StringOf(*v);
}

std::optional<uint64_t> DwarfDocument::GetNumber(uint32_t die, DwAttr attr) const {
  const DwarfAttrValue* v = Find(die, attr);
  if (v == nullptr) {
    return std::nullopt;
  }
  return v->num;
}

bool DwarfDocument::GetFlag(uint32_t die, DwAttr attr) const {
  return Find(die, attr) != nullptr;
}

}  // namespace depsurf
