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

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

std::string TypeJsonDepth(const TypeGraph& graph, BtfTypeId id, int depth) {
  const BtfType* t = graph.Get(id);
  if (t == nullptr) {
    return "{\"name\": \"void\", \"kind\": \"VOID\"}";
  }
  std::string out = "{\"kind\": \"" + std::string(BtfKindName(t->kind)) + "\"";
  if (!t->name.empty()) {
    out += ", \"name\": \"" + JsonEscape(t->name) + "\"";
  }
  if (depth <= 0) {
    return out + "}";
  }
  switch (t->kind) {
    case BtfKind::kPtr:
    case BtfKind::kConst:
    case BtfKind::kVolatile:
    case BtfKind::kRestrict:
    case BtfKind::kTypedef:
      out += ", \"type\": " + TypeJsonDepth(graph, t->ref_type_id, depth - 1);
      break;
    case BtfKind::kArray:
      out += StrFormat(", \"nelems\": %u, \"type\": ", t->nelems) +
             TypeJsonDepth(graph, t->ref_type_id, depth - 1);
      break;
    case BtfKind::kStruct:
    case BtfKind::kUnion: {
      out += StrFormat(", \"size\": %u, \"members\": [", t->size);
      for (size_t i = 0; i < t->members.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        const BtfMember& m = t->members[i];
        out += "{\"name\": \"" + JsonEscape(m.name) + "\"";
        out += StrFormat(", \"bits_offset\": %u, \"type\": ", m.bits_offset);
        // Members render shallow struct references, as in the dataset.
        out += TypeJsonDepth(graph, m.type_id, 1);
        out += "}";
      }
      out += "]";
      break;
    }
    case BtfKind::kFunc:
      out += ", \"type\": " + TypeJsonDepth(graph, t->ref_type_id, depth - 1);
      break;
    case BtfKind::kFuncProto: {
      out += ", \"params\": [";
      for (size_t i = 0; i < t->params.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        const BtfParam& p = t->params[i];
        out += "{\"name\": \"" + JsonEscape(p.name) +
               "\", \"type\": " + TypeJsonDepth(graph, p.type_id, depth - 1) + "}";
      }
      out += "], \"ret_type\": " + TypeJsonDepth(graph, t->ref_type_id, depth - 1);
      break;
    }
    default:
      break;
  }
  return out + "}";
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

std::string TypeJson(const TypeGraph& graph, BtfTypeId id, int max_depth) {
  return TypeJsonDepth(graph, id, max_depth);
}

}  // namespace depsurf
