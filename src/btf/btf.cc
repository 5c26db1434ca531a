#include "src/btf/btf.h"

#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {

const char* BtfKindName(BtfKind kind) {
  switch (kind) {
    case BtfKind::kVoid:
      return "VOID";
    case BtfKind::kInt:
      return "INT";
    case BtfKind::kPtr:
      return "PTR";
    case BtfKind::kArray:
      return "ARRAY";
    case BtfKind::kStruct:
      return "STRUCT";
    case BtfKind::kUnion:
      return "UNION";
    case BtfKind::kEnum:
      return "ENUM";
    case BtfKind::kFwd:
      return "FWD";
    case BtfKind::kTypedef:
      return "TYPEDEF";
    case BtfKind::kVolatile:
      return "VOLATILE";
    case BtfKind::kConst:
      return "CONST";
    case BtfKind::kRestrict:
      return "RESTRICT";
    case BtfKind::kFunc:
      return "FUNC";
    case BtfKind::kFuncProto:
      return "FUNC_PROTO";
    case BtfKind::kFloat:
      return "FLOAT";
  }
  return "UNKNOWN";
}

namespace {

constexpr BtfTypeId kEmptySlot = 0;
// Marks the slot of a ring emptied by CompleteStruct. Probes pass over it;
// Reindex drops it.
constexpr BtfTypeId kTombstone = UINT32_MAX;

uint64_t NameKey(BtfKind kind, std::string_view name) {
  return HashString(name) ^ (static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ull);
}

uint64_t FwdDedupKey(std::string_view name) { return HashCombine({7, HashString(name)}); }

}  // namespace

BtfTypeId TypeGraph::Add(BtfType type) {
  types_.push_back(std::move(type));
  BtfTypeId id = static_cast<BtfTypeId>(types_.size());
  Index(id);
  return id;
}

const BtfType* TypeGraph::Get(BtfTypeId id) const {
  if (id == 0 || id > types_.size()) {
    return nullptr;
  }
  return &types_[id - 1];
}

Status TypeGraph::CompleteStruct(BtfTypeId id, uint32_t byte_size,
                                 std::vector<BtfMember> members) {
  if (id == 0 || id > types_.size() ||
      (types_[id - 1].kind != BtfKind::kStruct && types_[id - 1].kind != BtfKind::kFwd)) {
    return Status(ErrorCode::kInvalidArgument,
                  StrFormat("type %u is not a FWD or STRUCT", id));
  }
  BtfType& t = types_[id - 1];
  if (t.kind == BtfKind::kFwd) {
    // Re-key the id from (FWD, name) to (STRUCT, name); Fwd(name) no longer
    // answers with it.
    Unlink(id);
    if (auto it = dedup_.find(FwdDedupKey(t.name)); it != dedup_.end() && it->second == id) {
      dedup_.erase(it);
    }
    t.kind = BtfKind::kStruct;
    Index(id);
  }
  t.size = byte_size;
  t.members = std::move(members);
  return Status::Ok();
}

size_t TypeGraph::Probe(BtfKind kind, std::string_view name) const {
  size_t mask = slots_.size() - 1;
  for (size_t i = NameKey(kind, name) & mask;; i = (i + 1) & mask) {
    BtfTypeId id = slots_[i];
    if (id == kEmptySlot) {
      return i;
    }
    if (id != kTombstone && types_[id - 1].kind == kind && types_[id - 1].name == name) {
      return i;
    }
  }
}

void TypeGraph::Index(BtfTypeId id) {
  if (types_[id - 1].name.empty()) {
    return;
  }
  if (4 * (used_slots_ + 1) > 3 * slots_.size()) {
    Reindex(slots_.empty() ? 64 : 2 * slots_.size());  // links `id` too
  } else {
    Link(id);
  }
}

BtfTypeId TypeGraph::Next(BtfTypeId id) const {
  auto it = next_.find(id);
  return it == next_.end() ? id : it->second;
}

void TypeGraph::SetNext(BtfTypeId id, BtfTypeId next) {
  if (next == id) {
    next_.erase(id);
  } else {
    next_[id] = next;
  }
}

void TypeGraph::Link(BtfTypeId id) {
  const BtfType& t = types_[id - 1];
  size_t slot = Probe(t.kind, t.name);
  BtfTypeId highest = slots_[slot];
  if (highest == kEmptySlot) {
    slots_[slot] = id;
    ++used_slots_;
    return;
  }
  // Add appends the new highest id; only CompleteStruct walks the ring.
  BtfTypeId prev = highest;
  if (id < highest) {
    while (Next(prev) < id) {
      prev = Next(prev);
    }
  } else {
    slots_[slot] = id;
  }
  SetNext(id, Next(prev));
  SetNext(prev, id);
}

void TypeGraph::Unlink(BtfTypeId id) {
  const BtfType& t = types_[id - 1];
  if (t.name.empty()) {
    return;
  }
  size_t slot = Probe(t.kind, t.name);
  if (Next(id) == id) {
    slots_[slot] = kTombstone;
    return;
  }
  BtfTypeId prev = slots_[slot];
  while (Next(prev) != id) {
    prev = Next(prev);
  }
  SetNext(prev, Next(id));
  SetNext(id, id);
  if (slots_[slot] == id) {
    slots_[slot] = prev;
  }
}

void TypeGraph::Reindex(size_t num_slots) {
  slots_.assign(num_slots, kEmptySlot);
  next_.clear();
  used_slots_ = 0;
  for (BtfTypeId id = 1; id <= types_.size(); ++id) {
    if (!types_[id - 1].name.empty()) {
      Link(id);
    }
  }
}

BtfTypeId TypeGraph::Dedup(uint64_t key, BtfType type) {
  auto it = dedup_.find(key);
  if (it != dedup_.end()) {
    return it->second;
  }
  BtfTypeId id = Add(std::move(type));
  dedup_[key] = id;
  return id;
}

BtfTypeId TypeGraph::Int(std::string_view name, uint32_t byte_size) {
  BtfType t;
  t.kind = BtfKind::kInt;
  t.name = name;
  t.size = byte_size;
  t.int_bits = static_cast<uint8_t>(byte_size * 8);
  return Dedup(HashCombine({1, HashString(name), byte_size}), std::move(t));
}

BtfTypeId TypeGraph::Float(std::string_view name, uint32_t byte_size) {
  BtfType t;
  t.kind = BtfKind::kFloat;
  t.name = name;
  t.size = byte_size;
  return Dedup(HashCombine({16, HashString(name), byte_size}), std::move(t));
}

BtfTypeId TypeGraph::Ptr(BtfTypeId to) {
  BtfType t;
  t.kind = BtfKind::kPtr;
  t.ref_type_id = to;
  return Dedup(HashCombine({2, to}), std::move(t));
}

BtfTypeId TypeGraph::Const(BtfTypeId of) {
  BtfType t;
  t.kind = BtfKind::kConst;
  t.ref_type_id = of;
  return Dedup(HashCombine({10, of}), std::move(t));
}

BtfTypeId TypeGraph::Volatile(BtfTypeId of) {
  BtfType t;
  t.kind = BtfKind::kVolatile;
  t.ref_type_id = of;
  return Dedup(HashCombine({9, of}), std::move(t));
}

BtfTypeId TypeGraph::Typedef(std::string_view name, BtfTypeId of) {
  BtfType t;
  t.kind = BtfKind::kTypedef;
  t.name = name;
  t.ref_type_id = of;
  return Dedup(HashCombine({8, HashString(name), of}), std::move(t));
}

BtfTypeId TypeGraph::Array(BtfTypeId element, uint32_t nelems) {
  BtfType t;
  t.kind = BtfKind::kArray;
  t.ref_type_id = element;
  t.nelems = nelems;
  return Dedup(HashCombine({3, element, nelems}), std::move(t));
}

BtfTypeId TypeGraph::Fwd(std::string_view name) {
  BtfType t;
  t.kind = BtfKind::kFwd;
  t.name = name;
  return Dedup(FwdDedupKey(name), std::move(t));
}

BtfTypeId TypeGraph::Struct(std::string_view name, uint32_t byte_size,
                            std::vector<BtfMember> members) {
  BtfType t;
  t.kind = BtfKind::kStruct;
  t.name = name;
  t.size = byte_size;
  t.members = std::move(members);
  return Add(std::move(t));
}

BtfTypeId TypeGraph::Union(std::string_view name, uint32_t byte_size,
                           std::vector<BtfMember> members) {
  BtfType t;
  t.kind = BtfKind::kUnion;
  t.name = name;
  t.size = byte_size;
  t.members = std::move(members);
  return Add(std::move(t));
}

BtfTypeId TypeGraph::Enum(std::string_view name, std::vector<BtfEnumerator> enumerators) {
  BtfType t;
  t.kind = BtfKind::kEnum;
  t.name = name;
  t.size = 4;
  t.enumerators = std::move(enumerators);
  return Add(std::move(t));
}

BtfTypeId TypeGraph::FuncProto(BtfTypeId return_type, std::vector<BtfParam> params) {
  BtfType t;
  t.kind = BtfKind::kFuncProto;
  t.ref_type_id = return_type;
  t.params = std::move(params);
  return Add(std::move(t));
}

BtfTypeId TypeGraph::Func(std::string_view name, BtfTypeId proto) {
  BtfType t;
  t.kind = BtfKind::kFunc;
  t.name = name;
  t.ref_type_id = proto;
  return Add(std::move(t));
}

std::optional<BtfTypeId> TypeGraph::FindByKindAndName(BtfKind kind, std::string_view name) const {
  if (name.empty() || slots_.empty()) {
    return std::nullopt;
  }
  BtfTypeId highest = slots_[Probe(kind, name)];
  if (highest == kEmptySlot) {
    return std::nullopt;
  }
  return Next(highest);  // the ring wraps to its lowest id
}

std::optional<BtfTypeId> TypeGraph::FindStruct(std::string_view name) const {
  return FindByKindAndName(BtfKind::kStruct, name);
}

std::optional<BtfTypeId> TypeGraph::FindFunc(std::string_view name) const {
  return FindByKindAndName(BtfKind::kFunc, name);
}

BtfTypeId TypeGraph::ResolveAliases(BtfTypeId id) const {
  // Alias chains are finite in valid graphs; the loop bound guards against
  // cycles in malformed ones.
  for (uint32_t depth = 0; depth < 64; ++depth) {
    const BtfType* t = Get(id);
    if (t == nullptr) {
      return id;
    }
    switch (t->kind) {
      case BtfKind::kConst:
      case BtfKind::kVolatile:
      case BtfKind::kRestrict:
      case BtfKind::kTypedef:
        id = t->ref_type_id;
        break;
      default:
        return id;
    }
  }
  return id;
}

Status TypeGraph::Validate() const {
  auto check = [&](uint32_t id, const char* what) -> Status {
    if (id > types_.size()) {
      return Status(ErrorCode::kMalformedData,
                    StrFormat("%s references type %u beyond %zu", what, id, types_.size()));
    }
    return Status::Ok();
  };
  for (const BtfType& t : types_) {
    switch (t.kind) {
      case BtfKind::kPtr:
      case BtfKind::kTypedef:
      case BtfKind::kConst:
      case BtfKind::kVolatile:
      case BtfKind::kRestrict:
      case BtfKind::kArray:
      case BtfKind::kFunc:
      case BtfKind::kFuncProto:
        DEPSURF_RETURN_IF_ERROR(check(t.ref_type_id, BtfKindName(t.kind)));
        break;
      default:
        break;
    }
    for (const BtfMember& m : t.members) {
      DEPSURF_RETURN_IF_ERROR(check(m.type_id, "member"));
    }
    for (const BtfParam& p : t.params) {
      DEPSURF_RETURN_IF_ERROR(check(p.type_id, "param"));
    }
  }
  return Status::Ok();
}

}  // namespace depsurf
