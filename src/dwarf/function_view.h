// Extraction of function instances and call-site relations from DWARF-lite
// sections. Produces the data behind the paper's function-status records
// (Appendix A.2.4): per-instance name/location/inline attribute, plus the
// lists of callers that inlined the function and callers that call it
// out of line.
#ifndef DEPSURF_SRC_DWARF_FUNCTION_VIEW_H_
#define DEPSURF_SRC_DWARF_FUNCTION_VIEW_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/dwarf/dwarf.h"
#include "src/util/byte_buffer.h"
#include "src/util/error.h"

namespace depsurf {

// One DW_TAG_subprogram instance (a source function compiled into one
// translation unit; a header-defined static appears once per including TU).
struct FunctionInstance {
  std::string name;
  std::string decl_file;
  uint32_t decl_line = 0;
  bool external = false;
  DwInl inline_attr = DwInl::kNotInlined;
  // Set when the instance has an out-of-line copy.
  std::optional<uint64_t> low_pc;
  // "file:caller" for each caller that inlined this instance.
  std::vector<std::string> caller_inline;
  // "file:caller" for each caller with an out-of-line call.
  std::vector<std::string> caller_func;

  // An instance is "out of line" iff it has code of its own.
  bool HasCode() const { return low_pc.has_value(); }
};

// All instances of an image, grouped by function name, in DIE order.
using FunctionInstanceMap = std::map<std::string, std::vector<FunctionInstance>>;

// Decodes the .sdwarf_abbrev/.sdwarf_info sections in one pass straight into
// the instance table; no DIE tree is built, and nesting depth costs only a
// stack slot per level. Each DW_TAG_subprogram child of a compile unit is an
// instance; every inlined_subroutine / call_site below such a subprogram,
// at any depth, adds "cu_file:subprogram" to its origin's caller_inline /
// caller_func list.
//
// Fails on malformed bytes (wire errors first, then a DIE reference beyond
// the last DIE) and on structurally invalid documents: a top-level DIE that
// is not a compile unit or an unnamed instance (whichever comes first in
// the stream), then a site whose origin is not an instance.
Result<FunctionInstanceMap> DecodeFunctionInstances(const std::vector<uint8_t>& abbrev,
                                                    const std::vector<uint8_t>& info,
                                                    Endian endian = Endian::kLittle);

}  // namespace depsurf

#endif  // DEPSURF_SRC_DWARF_FUNCTION_VIEW_H_
