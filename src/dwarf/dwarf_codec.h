// Binary encoder/decoder for DWARF-lite documents.
//
// Two sections are produced, mirroring .debug_abbrev/.debug_info:
//   - abbrev: distinct (tag, has_children, attribute/form list) shapes,
//     each with a ULEB code; terminated by code 0.
//   - info: DIEs in pre-order; each is an abbrev code followed by attribute
//     values; a DIE with children is followed by its children and a 0
//     terminator.
// DIE references use the pre-order index (1-based) within the document.
#ifndef DEPSURF_SRC_DWARF_DWARF_CODEC_H_
#define DEPSURF_SRC_DWARF_DWARF_CODEC_H_

#include <vector>

#include "src/dwarf/dwarf.h"
#include "src/util/byte_buffer.h"

namespace depsurf {

struct DwarfSections {
  std::vector<uint8_t> abbrev;
  std::vector<uint8_t> info;
};

// Serializes the document. DIE indices are renumbered to pre-order; all
// reference attributes are remapped accordingly.
DwarfSections EncodeDwarf(const DwarfDocument& document, Endian endian = Endian::kLittle);

// The read side is DecodeFunctionInstances (function_view.h): it streams
// the two sections straight into the function-instance table.

}  // namespace depsurf

#endif  // DEPSURF_SRC_DWARF_DWARF_CODEC_H_
