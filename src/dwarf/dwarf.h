// DWARF-lite: a from-scratch debugging-information format modeled on DWARF.
//
// The document is a forest of DIEs (debugging information entries), each
// with a tag, attribute list, and children. Encoding follows the DWARF
// architecture: an abbreviation table describing distinct (tag, attribute
// shape) combinations, and an info stream of ULEB-coded abbrev references
// plus attribute values, with children terminated by a zero entry.
//
// The subset implemented covers what kernel-image analysis needs: compile
// units, subprograms (with inline attributes and parameters), inlined call
// sites (DW_TAG_inlined_subroutine + abstract origin), and call-site records
// (DW_TAG_call_site + origin) used to enumerate non-inlined callers.
#ifndef DEPSURF_SRC_DWARF_DWARF_H_
#define DEPSURF_SRC_DWARF_DWARF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {

// Tag values mirror real DWARF numbering where one exists.
enum class DwTag : uint16_t {
  kCompileUnit = 0x11,
  kSubprogram = 0x2e,
  kFormalParameter = 0x05,
  kInlinedSubroutine = 0x1d,
  kCallSite = 0x48,  // DWARF 5
};

// Attribute codes (subset; values mirror DWARF where applicable).
enum class DwAttr : uint16_t {
  kName = 0x03,          // string
  kDeclFile = 0x3a,      // string (we inline the path rather than a file table)
  kDeclLine = 0x3b,      // udata
  kExternal = 0x3f,      // flag
  kLowPc = 0x11,         // addr (u64)
  kInline = 0x20,        // udata (DwInl)
  kAbstractOrigin = 0x31,  // ref (global DIE index)
  kCallOrigin = 0x7f,    // ref (DW_AT_call_origin)
};

// DW_INL_* inline attribute values (DWARF spec section 3.3.8).
enum class DwInl : uint8_t {
  kNotInlined = 0,           // not declared inline, not inlined
  kInlined = 1,              // not declared inline, but inlined
  kDeclaredNotInlined = 2,   // declared inline, not inlined
  kDeclaredInlined = 3,      // declared inline and inlined
};

// Attribute forms determine the wire encoding.
enum class DwForm : uint8_t {
  kString = 1,  // inline NUL-terminated string
  kUdata = 2,   // ULEB128
  kFlag = 3,    // 1-byte 0/1
  kAddr = 4,    // fixed 8 bytes
  kRef = 5,     // ULEB128 global DIE index (1-based; 0 = null ref)
};

// Which form each attribute uses (fixed per attribute in this dialect).
DwForm FormOf(DwAttr attr);

// One attribute of a DIE. Attributes live in the owning document's flat
// attribute vector, linked per DIE through `next`.
struct DwarfAttrValue {
  DwAttr attr;
  uint32_t next = 0;  // the DIE's next attribute; 0 = last
  // Per FormOf(attr): the number, or the string's offset into the
  // document's string blob.
  uint64_t num = 0;
  uint32_t str_len = 0;
};

// One DIE: plain indices into the owning document, no containers of its
// own. Index 0 means "none" for every link.
struct Die {
  DwTag tag;
  uint32_t first_child = 0;
  uint32_t last_child = 0;
  uint32_t next_sibling = 0;
  uint32_t first_attr = 0;
  uint32_t last_attr = 0;
};

// An arena of DIEs. Index 0 is reserved (null reference); real DIEs start
// at index 1. Top-level DIEs (compile units) are tracked separately.
//
// This is the write-side model: kernelgen builds one per image and
// EncodeDwarf serializes it. DWARF read back from an image is never
// materialized as a document; DecodeFunctionInstances (function_view.h)
// streams it.
class DwarfDocument {
 public:
  DwarfDocument() : dies_(1), attrs_(1) {}  // slot 0 = null

  // Creates a DIE; if parent != 0 it is appended to the parent's children,
  // otherwise it becomes a root (compile unit).
  uint32_t AddDie(DwTag tag, uint32_t parent);

  const Die& die(uint32_t index) const { return dies_[index]; }
  uint32_t num_dies() const { return static_cast<uint32_t>(dies_.size()) - 1; }
  const std::vector<uint32_t>& roots() const { return roots_; }

  void SetString(uint32_t die, DwAttr attr, std::string_view value);
  void SetNumber(uint32_t die, DwAttr attr, uint64_t value);
  void SetFlag(uint32_t die, DwAttr attr);

  // The first value of `attr` on `die`, if any. String views stay valid
  // until the next SetString.
  std::optional<std::string_view> GetString(uint32_t die, DwAttr attr) const;
  std::optional<uint64_t> GetNumber(uint32_t die, DwAttr attr) const;
  bool GetFlag(uint32_t die, DwAttr attr) const;
  // The string an attribute holds (empty for non-string forms).
  std::string_view StringOf(const DwarfAttrValue& value) const;

  // Calls fn(child_index) for each child of `index`, in order.
  template <typename Fn>
  void ForEachChild(uint32_t index, Fn&& fn) const {
    for (uint32_t c = dies_[index].first_child; c != 0; c = dies_[c].next_sibling) {
      fn(c);
    }
  }

  // Calls fn(attr) for each attribute of `die`, in the order set.
  template <typename Fn>
  void ForEachAttr(uint32_t die, Fn&& fn) const {
    for (uint32_t a = dies_[die].first_attr; a != 0; a = attrs_[a].next) {
      fn(attrs_[a]);
    }
  }

  // Depth-first visit of every DIE under (and including) `index`. The
  // recursion depth is the tree depth, which is fine for the shallow
  // documents kernelgen builds (CU > subprogram > site). Only kernelgen-built
  // documents reach this walk and EncodeDwarf's recursion: the program never
  // turns DWARF bytes read from an image into a document.
  template <typename Fn>
  void Walk(uint32_t index, Fn&& fn) const {
    fn(index, dies_[index]);
    ForEachChild(index, [&](uint32_t child) { Walk(child, fn); });
  }

  // Visits every DIE in the document.
  template <typename Fn>
  void WalkAll(Fn&& fn) const {
    for (uint32_t root : roots_) {
      Walk(root, fn);
    }
  }

 private:
  const DwarfAttrValue* Find(uint32_t die, DwAttr attr) const;
  void Append(uint32_t die, DwarfAttrValue value);

  std::vector<Die> dies_;
  std::vector<DwarfAttrValue> attrs_;
  std::string strings_;
  std::vector<uint32_t> roots_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_DWARF_DWARF_H_
