#include "src/btf/btf_print.h"

#include "src/util/str_util.h"

namespace depsurf {

namespace {

std::string TypeStringDepth(const TypeGraph& graph, BtfTypeId id, int depth) {
  if (depth > 32) {
    return "<cycle>";
  }
  const BtfType* t = graph.Get(id);
  if (t == nullptr) {
    return "void";
  }
  switch (t->kind) {
    case BtfKind::kInt:
    case BtfKind::kFloat:
    case BtfKind::kTypedef:
      return t->name;
    case BtfKind::kPtr: {
      std::string inner = TypeStringDepth(graph, t->ref_type_id, depth + 1);
      if (!inner.empty() && inner.back() == '*') {
        return inner + "*";
      }
      return inner + " *";
    }
    case BtfKind::kConst: {
      std::string inner = TypeStringDepth(graph, t->ref_type_id, depth + 1);
      // const-of-pointer is "T *const"; const-of-object is "const T".
      if (!inner.empty() && inner.back() == '*') {
        return inner + "const";
      }
      return "const " + inner;
    }
    case BtfKind::kVolatile:
      return "volatile " + TypeStringDepth(graph, t->ref_type_id, depth + 1);
    case BtfKind::kRestrict:
      return TypeStringDepth(graph, t->ref_type_id, depth + 1) + " restrict";
    case BtfKind::kArray:
      return StrFormat("%s[%u]", TypeStringDepth(graph, t->ref_type_id, depth + 1).c_str(),
                       t->nelems);
    case BtfKind::kStruct:
    case BtfKind::kFwd:
      return "struct " + t->name;
    case BtfKind::kUnion:
      return "union " + t->name;
    case BtfKind::kEnum:
      return "enum " + t->name;
    case BtfKind::kFunc:
      return t->name;
    case BtfKind::kFuncProto: {
      std::string out = TypeStringDepth(graph, t->ref_type_id, depth + 1) + " (*)(";
      for (size_t i = 0; i < t->params.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        out += TypeStringDepth(graph, t->params[i].type_id, depth + 1);
      }
      out += ")";
      return out;
    }
    case BtfKind::kVoid:
      return "void";
  }
  return "?";
}

}  // namespace

std::string TypeString(const TypeGraph& graph, BtfTypeId id) {
  return TypeStringDepth(graph, id, 0);
}

std::string FuncDeclString(const TypeGraph& graph, BtfTypeId func_id) {
  std::string scratch;
  return FuncDeclString(graph, func_id, [&](BtfTypeId id) -> const std::string& {
    scratch = TypeString(graph, id);
    return scratch;
  });
}

std::string FuncDeclString(const TypeGraph& graph, BtfTypeId func_id,
                           const std::function<const std::string&(BtfTypeId)>& type_string) {
  const BtfType* func = graph.Get(func_id);
  if (func == nullptr || func->kind != BtfKind::kFunc) {
    return "<not a function>";
  }
  const BtfType* proto = graph.Get(func->ref_type_id);
  if (proto == nullptr || proto->kind != BtfKind::kFuncProto) {
    return func->name + "()";
  }
  std::string out = type_string(proto->ref_type_id);
  out += " ";
  out += func->name;
  out += "(";
  for (size_t i = 0; i < proto->params.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    const std::string& type_str = type_string(proto->params[i].type_id);
    out += type_str;
    if (!proto->params[i].name.empty()) {
      if (type_str.empty() || type_str.back() != '*') {
        out += " ";
      }
      out += proto->params[i].name;
    }
  }
  out += ")";
  return out;
}

}  // namespace depsurf
