// The reference DWARF-lite reader the tests compare the streaming decoder
// against: DecodeDwarf materializes the whole DIE tree as a DwarfDocument,
// and CollectFunctionInstances walks that tree in two passes. Together they
// define the semantics DecodeFunctionInstances must reproduce: the same
// instance map, or an error with the same ToString().
//
// This is test code only. Its walks recurse once per nesting level, so it
// is fed small documents, never untrusted images.
#ifndef DEPSURF_TESTS_DWARF_REFERENCE_H_
#define DEPSURF_TESTS_DWARF_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/dwarf/dwarf.h"
#include "src/dwarf/function_view.h"
#include "src/util/byte_buffer.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace depsurf {

// Parses the two sections back into a document (indices in pre-order).
Result<DwarfDocument> DecodeDwarf(const std::vector<uint8_t>& abbrev,
                                  const std::vector<uint8_t>& info,
                                  Endian endian = Endian::kLittle);

// All instances in a document, grouped by function name, in DIE order.
Result<FunctionInstanceMap> CollectFunctionInstances(const DwarfDocument& document);

// Both steps: what DecodeFunctionInstances must return for these bytes.
Result<FunctionInstanceMap> ReferenceFunctionInstances(const std::vector<uint8_t>& abbrev,
                                                       const std::vector<uint8_t>& info,
                                                       Endian endian = Endian::kLittle);

// A canonical text form of a decode result: the error's ToString(), or
// every instance field in map order. Two results are equal iff their
// descriptions are.
std::string DescribeInstances(const Result<FunctionInstanceMap>& result);

// A random forest of compile units, subprograms and sites (references point
// only backwards, at earlier subprograms).
DwarfDocument RandomDwarfDocument(Prng& prng);

}  // namespace depsurf

#endif  // DEPSURF_TESTS_DWARF_REFERENCE_H_
