// Rendering of BTF types as C-like declarations: the type strings and
// function declarations the dataset stores and the CLI prints.
#ifndef DEPSURF_SRC_BTF_BTF_PRINT_H_
#define DEPSURF_SRC_BTF_BTF_PRINT_H_

#include <functional>
#include <string>

#include "src/btf/btf.h"

namespace depsurf {

// C-ish rendering of a type: "struct file *", "const char *", "u64".
std::string TypeString(const TypeGraph& graph, BtfTypeId id);

// Full declaration of a FUNC node:
//   "int vfs_fsync(struct file *file, int datasync)"
std::string FuncDeclString(const TypeGraph& graph, BtfTypeId func_id);
// The same, with each type rendered by `type_string` (a caller rendering
// many declarations over one graph passes a per-type memo of TypeString).
// The returned reference need only live until the next call.
std::string FuncDeclString(const TypeGraph& graph, BtfTypeId func_id,
                           const std::function<const std::string&(BtfTypeId)>& type_string);

}  // namespace depsurf

#endif  // DEPSURF_SRC_BTF_BTF_PRINT_H_
