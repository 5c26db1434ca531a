#include "src/core/dataset_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ranges>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/util/byte_buffer.h"
#include "src/util/file_util.h"
#include "src/util/leb128.h"

namespace depsurf {

namespace {

// Every v1 function entry takes at least this many bytes (name, flags,
// suffix NUL, hash, decl), which bounds what a count may reserve.
constexpr size_t kV1MinFuncBytes = 12;

void WritePairs(ByteWriter& w, std::span<const Dataset::Pair> pairs) {
  WriteUleb128(w, pairs.size());
  for (const auto& [a, b] : pairs) {
    WriteUleb128(w, a);
    WriteUleb128(w, b);
  }
}

// Appends a v1 pair list to `arena`; the list's begin index in it.
Result<uint32_t> ReadPairs(ByteReader& r, size_t max_id, std::vector<Dataset::Pair>& arena) {
  DEPSURF_ASSIGN_OR_RETURN(count, ReadUleb128(r));
  if (count > r.remaining()) {
    return Error(ErrorCode::kMalformedData, "pair count beyond buffer");
  }
  uint32_t begin = static_cast<uint32_t>(arena.size());
  for (uint64_t i = 0; i < count; ++i) {
    DEPSURF_ASSIGN_OR_RETURN(a, ReadUleb128(r));
    DEPSURF_ASSIGN_OR_RETURN(b, ReadUleb128(r));
    if (a >= max_id || b >= max_id) {
      return Error(ErrorCode::kMalformedData, "string id out of range");
    }
    arena.emplace_back(static_cast<StrId>(a), static_cast<StrId>(b));
  }
  return begin;
}

// The ordering invariants the queries' binary searches rely on. The loaders
// reject a file that breaks them, and MmapDataset reports the same messages
// for a run it maps: a search over such records would answer wrong without
// any error.
Error NameOrderError(const char* what) {
  return Error(ErrorCode::kMalformedData, std::string(what) + " name ids not strictly ascending");
}

Error FieldOrderError() {
  return Error(ErrorCode::kMalformedData, "struct field pairs not sorted");
}

template <typename Record>
Status CheckNameOrder(const std::vector<Record>& records, StrId name, const char* what) {
  if (records.empty()) {
    return Status::Ok();
  }
  StrId previous = 0;
  if constexpr (std::is_same_v<Record, StrId>) {
    previous = records.back();
  } else {
    previous = records.back().name;
  }
  return name <= previous ? Status(NameOrderError(what)) : Status::Ok();
}

Status CheckFieldOrder(const PairRun& fields) {
  for (size_t i = 1; i < fields.size(); ++i) {
    if (fields[i] < fields[i - 1]) {
      return FieldOrderError();
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SaveDataset(const Dataset& dataset) {
  ByteWriter w(Endian::kLittle);
  w.WriteU32(kDatasetMagic);
  WriteUleb128(w, dataset.pool_size());
  WriteUleb128(w, dataset.num_images());
  // The pool blob is the v1 pool encoding: each string, then a NUL.
  w.WriteString(dataset.pool().blob());
  // Suffixes and ledger messages are not in the pool (v1 pool ids must not
  // depend on them); they are written inline as cstrings.
  for (const ImageRecord& image : dataset.images()) {
    w.WriteCString(image.label);
    w.WriteU16(static_cast<uint16_t>(image.meta.version_major));
    w.WriteU16(static_cast<uint16_t>(image.meta.version_minor));
    w.WriteCString(image.meta.flavor);
    w.WriteCString(image.meta.arch);
    w.WriteU8(static_cast<uint8_t>(image.meta.gcc_major));
    w.WriteU8(static_cast<uint8_t>(image.meta.pointer_size));
    w.WriteU8(image.meta.endian == Endian::kBig ? 1 : 0);
    w.WriteU32(image.meta.config_options);
    w.WriteU8(image.meta.compat_syscalls_traceable ? 1 : 0);
    w.WriteU64(image.pt_regs_hash);

    WriteUleb128(w, image.funcs.size());
    for (const FuncRecord& record : image.funcs) {
      WriteUleb128(w, record.name);
      w.WriteU8(record.flags);
      w.WriteCString(record.suffix == kNoStrId ? std::string_view()
                                               : dataset.SuffixAt(record.suffix));
      w.WriteU64(record.decl_hash);
      // kNoStrId encodes as pool_size (never a valid id).
      WriteUleb128(w, record.decl == kNoStrId ? dataset.pool_size() : record.decl);
    }
    WriteUleb128(w, image.structs.size());
    for (const StructRecord& record : image.structs) {
      WriteUleb128(w, record.name);
      WritePairs(w, dataset.Pairs(record.fields_begin, record.fields_count));
    }
    WriteUleb128(w, image.tracepoints.size());
    for (const TracepointRecord& record : image.tracepoints) {
      WriteUleb128(w, record.name);
      WritePairs(w, dataset.Pairs(record.params_begin, record.params_count));
      WritePairs(w, dataset.Pairs(record.fields_begin, record.fields_count));
    }
    WriteUleb128(w, image.syscalls.size());
    for (StrId id : image.syscalls) {
      WriteUleb128(w, id);
    }

    // Salvage provenance: per-subsystem degradation states, then the
    // diagnostic ledger (messages inline; they are rare and unpooled).
    w.WriteU8(static_cast<uint8_t>(image.health.elf));
    w.WriteU8(static_cast<uint8_t>(image.health.dwarf));
    w.WriteU8(static_cast<uint8_t>(image.health.btf));
    w.WriteU8(static_cast<uint8_t>(image.health.tracepoint));
    w.WriteU8(static_cast<uint8_t>(image.health.syscall));
    const auto& entries = image.health.ledger.entries();
    WriteUleb128(w, entries.size());
    for (const DiagnosticEntry& entry : entries) {
      w.WriteU8(static_cast<uint8_t>(entry.severity));
      w.WriteU8(static_cast<uint8_t>(entry.subsystem));
      w.WriteU8(static_cast<uint8_t>(entry.code));
      w.WriteU8(entry.has_offset ? 1 : 0);
      w.WriteU64(entry.offset);
      w.WriteCString(entry.message);
    }
  }
  return w.TakeBytes();
}

Result<Dataset> LoadDataset(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes, Endian::kLittle);
  DEPSURF_ASSIGN_OR_RETURN(magic, r.ReadU32());
  if (magic != kDatasetMagic) {
    return Error(ErrorCode::kMalformedData, "not a depsurf dataset (bad magic)");
  }
  DEPSURF_ASSIGN_OR_RETURN(num_strings, ReadUleb128(r));
  DEPSURF_ASSIGN_OR_RETURN(num_images, ReadUleb128(r));
  if (num_strings > bytes.size() || num_images > bytes.size()) {
    return Error(ErrorCode::kMalformedData, "counts beyond buffer");
  }
  Dataset dataset;
  dataset.pool_.Reserve(std::min<uint64_t>(num_strings, r.remaining()), 0);
  for (uint64_t i = 0; i < num_strings; ++i) {
    DEPSURF_ASSIGN_OR_RETURN(s, r.ReadCStringView());
    // Fresh interning assigns sequential ids, so saved ids stay valid.
    StrId id = dataset.Intern(s);
    if (id != i) {
      return Error(ErrorCode::kMalformedData, "duplicate string in pool");
    }
  }
  dataset.FlushInternMetrics();
  for (uint64_t image_index = 0; image_index < num_images; ++image_index) {
    ImageRecord image;
    DEPSURF_ASSIGN_OR_RETURN(label, r.ReadCString());
    image.label = std::move(label);
    DEPSURF_ASSIGN_OR_RETURN(major, r.ReadU16());
    image.meta.version_major = major;
    DEPSURF_ASSIGN_OR_RETURN(minor, r.ReadU16());
    image.meta.version_minor = minor;
    DEPSURF_ASSIGN_OR_RETURN(flavor, r.ReadCString());
    image.meta.flavor = std::move(flavor);
    DEPSURF_ASSIGN_OR_RETURN(arch, r.ReadCString());
    image.meta.arch = std::move(arch);
    DEPSURF_ASSIGN_OR_RETURN(gcc, r.ReadU8());
    image.meta.gcc_major = gcc;
    DEPSURF_ASSIGN_OR_RETURN(pointer_size, r.ReadU8());
    image.meta.pointer_size = pointer_size;
    DEPSURF_ASSIGN_OR_RETURN(endian, r.ReadU8());
    image.meta.endian = endian == 1 ? Endian::kBig : Endian::kLittle;
    DEPSURF_ASSIGN_OR_RETURN(config, r.ReadU32());
    image.meta.config_options = config;
    DEPSURF_ASSIGN_OR_RETURN(compat, r.ReadU8());
    image.meta.compat_syscalls_traceable = compat != 0;
    image.compat_syscalls_traceable = image.meta.compat_syscalls_traceable;
    DEPSURF_ASSIGN_OR_RETURN(pt_regs_hash, r.ReadU64());
    image.pt_regs_hash = pt_regs_hash;

    DEPSURF_ASSIGN_OR_RETURN(num_funcs, ReadUleb128(r));
    if (num_funcs > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "function count beyond buffer");
    }
    image.funcs.reserve(std::min<uint64_t>(num_funcs, r.remaining() / kV1MinFuncBytes));
    for (uint64_t i = 0; i < num_funcs; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(name, ReadUleb128(r));
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "function name id out of range");
      }
      DEPSURF_ASSIGN_OR_RETURN(flags, r.ReadU8());
      DEPSURF_ASSIGN_OR_RETURN(suffix, r.ReadCStringView());
      DEPSURF_ASSIGN_OR_RETURN(decl_hash, r.ReadU64());
      DEPSURF_ASSIGN_OR_RETURN(decl, ReadUleb128(r));
      if (decl > num_strings) {
        return Error(ErrorCode::kMalformedData, "decl id out of range");
      }
      FuncRecord record;
      record.name = static_cast<StrId>(name);
      record.flags = flags & kFuncFlagMask;
      record.suffix = suffix.empty() ? kNoStrId : dataset.suffixes_.Intern(suffix);
      record.decl_hash = decl_hash;
      record.decl = decl == num_strings ? kNoStrId : static_cast<StrId>(decl);
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.funcs, record.name, "function"));
      image.funcs.push_back(record);
    }
    DEPSURF_ASSIGN_OR_RETURN(num_structs, ReadUleb128(r));
    if (num_structs > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "struct count beyond buffer");
    }
    for (uint64_t i = 0; i < num_structs; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(name, ReadUleb128(r));
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "struct name id out of range");
      }
      StructRecord record;
      record.name = static_cast<StrId>(name);
      DEPSURF_ASSIGN_OR_RETURN(fields_begin, ReadPairs(r, num_strings, dataset.pairs_));
      record.fields_begin = fields_begin;
      record.fields_count = static_cast<uint32_t>(dataset.pairs_.size() - fields_begin);
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.structs, record.name, "struct"));
      DEPSURF_RETURN_IF_ERROR(
          CheckFieldOrder(dataset.Pairs(record.fields_begin, record.fields_count)));
      image.structs.push_back(record);
    }
    DEPSURF_ASSIGN_OR_RETURN(num_tracepoints, ReadUleb128(r));
    if (num_tracepoints > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "tracepoint count beyond buffer");
    }
    for (uint64_t i = 0; i < num_tracepoints; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(name, ReadUleb128(r));
      if (name >= num_strings) {
        return Error(ErrorCode::kMalformedData, "tracepoint name id out of range");
      }
      TracepointRecord record;
      record.name = static_cast<StrId>(name);
      DEPSURF_ASSIGN_OR_RETURN(params_begin, ReadPairs(r, num_strings, dataset.pairs_));
      record.params_begin = params_begin;
      record.params_count = static_cast<uint32_t>(dataset.pairs_.size() - params_begin);
      DEPSURF_ASSIGN_OR_RETURN(fields_begin, ReadPairs(r, num_strings, dataset.pairs_));
      record.fields_begin = fields_begin;
      record.fields_count = static_cast<uint32_t>(dataset.pairs_.size() - fields_begin);
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.tracepoints, record.name, "tracepoint"));
      image.tracepoints.push_back(record);
    }
    DEPSURF_ASSIGN_OR_RETURN(num_syscalls, ReadUleb128(r));
    if (num_syscalls > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "syscall count beyond buffer");
    }
    for (uint64_t i = 0; i < num_syscalls; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(id, ReadUleb128(r));
      if (id >= num_strings) {
        return Error(ErrorCode::kMalformedData, "syscall id out of range");
      }
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.syscalls, static_cast<StrId>(id), "syscall"));
      image.syscalls.push_back(static_cast<StrId>(id));
    }

    auto read_state = [&r]() -> Result<DegradationState> {
      DEPSURF_ASSIGN_OR_RETURN(raw, r.ReadU8());
      if (raw > static_cast<uint8_t>(DegradationState::kMissing)) {
        return Error(ErrorCode::kMalformedData, "bad degradation state");
      }
      return static_cast<DegradationState>(raw);
    };
    DEPSURF_ASSIGN_OR_RETURN(elf_state, read_state());
    image.health.elf = elf_state;
    DEPSURF_ASSIGN_OR_RETURN(dwarf_state, read_state());
    image.health.dwarf = dwarf_state;
    DEPSURF_ASSIGN_OR_RETURN(btf_state, read_state());
    image.health.btf = btf_state;
    DEPSURF_ASSIGN_OR_RETURN(tracepoint_state, read_state());
    image.health.tracepoint = tracepoint_state;
    DEPSURF_ASSIGN_OR_RETURN(syscall_state, read_state());
    image.health.syscall = syscall_state;
    DEPSURF_ASSIGN_OR_RETURN(num_diags, ReadUleb128(r));
    if (num_diags > r.remaining()) {
      return Error(ErrorCode::kMalformedData, "diagnostic count beyond buffer");
    }
    for (uint64_t i = 0; i < num_diags; ++i) {
      DEPSURF_ASSIGN_OR_RETURN(severity, r.ReadU8());
      if (severity > static_cast<uint8_t>(DiagSeverity::kFatal)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic severity");
      }
      DEPSURF_ASSIGN_OR_RETURN(subsystem, r.ReadU8());
      if (subsystem > static_cast<uint8_t>(DiagSubsystem::kBpf)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic subsystem");
      }
      DEPSURF_ASSIGN_OR_RETURN(code, r.ReadU8());
      if (code > static_cast<uint8_t>(ErrorCode::kIoError)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic error code");
      }
      DEPSURF_ASSIGN_OR_RETURN(has_offset, r.ReadU8());
      DEPSURF_ASSIGN_OR_RETURN(offset, r.ReadU64());
      DEPSURF_ASSIGN_OR_RETURN(message, r.ReadCString());
      if (has_offset != 0) {
        image.health.ledger.AddAt(static_cast<DiagSeverity>(severity),
                                  static_cast<DiagSubsystem>(subsystem),
                                  static_cast<ErrorCode>(code), offset,
                                  std::move(message));
      } else {
        image.health.ledger.Add(static_cast<DiagSeverity>(severity),
                                static_cast<DiagSubsystem>(subsystem),
                                static_cast<ErrorCode>(code), std::move(message));
      }
    }
    dataset.images_.push_back(std::move(image));
  }
  return dataset;
}

// ---------------------------------------------------------------------------
// `.dds` v2: page-aligned sections + flat sorted record arrays (mmap path).
// ---------------------------------------------------------------------------

namespace {

// Section kinds, also the section-table order. V2Header::sections is indexed
// by kind.
constexpr uint32_t kSecStringOffsets = 1;  // u64[string_count + 1]
constexpr uint32_t kSecStringBlob = 2;     // NUL-terminated string bodies
constexpr uint32_t kSecStringSorted = 3;   // u32[string_count], lexicographic
constexpr uint32_t kSecImages = 4;         // fixed 88-byte image headers
constexpr uint32_t kSecFuncs = 5;          // 24-byte entries, sorted by name
constexpr uint32_t kSecStructs = 6;        // 12-byte entries, sorted by name
constexpr uint32_t kSecTracepoints = 7;    // 20-byte entries, sorted by name
constexpr uint32_t kSecSyscalls = 8;       // u32 name ids, ascending
constexpr uint32_t kSecPairs = 9;          // (u32, u32) flattened field lists
constexpr uint32_t kSecDiags = 10;         // 16-byte ledger entries
constexpr uint32_t kV2SectionCount = 10;
static_assert(std::size(V2Header{}.sections) == kV2SectionCount + 1);

constexpr size_t kV2HeaderSize = 40;
constexpr size_t kV2SectionEntrySize = 24;
constexpr size_t kV2ImageHeaderSize = 88;
constexpr size_t kV2FuncEntrySize = 24;
constexpr size_t kV2StructEntrySize = 12;
constexpr size_t kV2TracepointEntrySize = 20;
constexpr size_t kV2PairSize = 8;
constexpr size_t kV2DiagEntrySize = 16;

// Offsets of the begin/count range pairs inside an image header.
constexpr size_t kImgFuncRange = 40;
constexpr size_t kImgStructRange = 48;
constexpr size_t kImgTracepointRange = 56;
constexpr size_t kImgSyscallRange = 64;
constexpr size_t kImgDiagRange = 72;

uint16_t LoadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) | static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

// The numeric fields of an image header; flavor and arch are string ids.
SurfaceMeta MetaFromHeader(const uint8_t* img) {
  SurfaceMeta meta;
  meta.version_major = LoadU16(img + 12);
  meta.version_minor = LoadU16(img + 14);
  meta.gcc_major = img[16];
  meta.pointer_size = img[17];
  meta.endian = img[18] == 1 ? Endian::kBig : Endian::kLittle;
  meta.compat_syscalls_traceable = img[19] != 0;
  meta.config_options = LoadU32(img + 20);
  return meta;
}

// The per-subsystem degradation states, which CheckImageHeader has bounded.
SurfaceHealth HealthFromHeader(const uint8_t* img) {
  SurfaceHealth health;
  health.elf = static_cast<DegradationState>(img[32]);
  health.dwarf = static_cast<DegradationState>(img[33]);
  health.btf = static_cast<DegradationState>(img[34]);
  health.tracepoint = static_cast<DegradationState>(img[35]);
  health.syscall = static_cast<DegradationState>(img[36]);
  return health;
}

// What both v2 readers reject in an image header before using it: a label,
// flavor or arch id past the string table, or an unknown degradation state.
Status CheckImageHeader(const uint8_t* img, uint32_t num_strings) {
  for (const auto& [offset, what] :
       {std::pair<size_t, const char*>{0, "label"}, {4, "flavor"}, {8, "arch"}}) {
    if (LoadU32(img + offset) >= num_strings) {
      return Status(ErrorCode::kMalformedData, std::string("v2 ") + what + " id out of range");
    }
  }
  for (size_t h = 32; h < 37; ++h) {
    if (img[h] > static_cast<uint8_t>(DegradationState::kMissing)) {
      return Status(ErrorCode::kMalformedData, "bad degradation state");
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> SaveDatasetV2(const Dataset& dataset) {
  // v2 pool = the v1 pool with every id preserved, then transform suffixes,
  // diagnostic messages and image strings the pool lacks, appended in
  // first-use order. Keeping v1 ids intact is what makes `dataset migrate`
  // byte-deterministic and lets the two formats share query semantics (ids
  // compare within the same pool).
  const StringPool& pool = dataset.pool();
  const uint32_t pool_size = static_cast<uint32_t>(pool.size());
  StringPool appended;
  auto intern = [&](std::string_view s) -> uint32_t {
    StrId id = pool.Lookup(s);
    return id != kNoStrId ? id : pool_size + appended.Intern(s);
  };
  auto string_at = [&](uint32_t id) {
    return id < pool_size ? pool.At(id) : appended.At(id - pool_size);
  };

  ByteWriter images_w(Endian::kLittle);
  ByteWriter funcs_w(Endian::kLittle);
  ByteWriter structs_w(Endian::kLittle);
  ByteWriter tps_w(Endian::kLittle);
  ByteWriter sys_w(Endian::kLittle);
  ByteWriter pairs_w(Endian::kLittle);
  ByteWriter diags_w(Endian::kLittle);
  uint32_t func_cursor = 0;
  uint32_t struct_cursor = 0;
  uint32_t tp_cursor = 0;
  uint32_t sys_cursor = 0;
  uint32_t pair_cursor = 0;
  uint32_t diag_cursor = 0;
  auto write_pairs = [&](uint32_t begin, uint32_t count) {
    uint32_t at = pair_cursor;
    for (const auto& [a, b] : dataset.Pairs(begin, count)) {
      pairs_w.WriteU32(a);
      pairs_w.WriteU32(b);
    }
    pair_cursor += count;
    return at;
  };

  for (const ImageRecord& image : dataset.images()) {
    uint32_t func_begin = func_cursor;
    // Records are kept ascending by name id: exactly the order the
    // mmap-side binary search requires.
    for (const FuncRecord& record : image.funcs) {
      funcs_w.WriteU32(record.name);
      funcs_w.WriteU32(record.decl);  // kNoStrId doubles as "no decl"
      funcs_w.WriteU64(record.decl_hash);
      funcs_w.WriteU32(record.suffix == kNoStrId ? kNoStrId
                                                 : intern(dataset.SuffixAt(record.suffix)));
      funcs_w.WriteU8(record.flags);
      funcs_w.WriteZeros(3);
      ++func_cursor;
    }
    uint32_t struct_begin = struct_cursor;
    for (const StructRecord& record : image.structs) {
      structs_w.WriteU32(record.name);
      structs_w.WriteU32(write_pairs(record.fields_begin, record.fields_count));
      structs_w.WriteU32(record.fields_count);
      ++struct_cursor;
    }
    uint32_t tp_begin = tp_cursor;
    for (const TracepointRecord& record : image.tracepoints) {
      tps_w.WriteU32(record.name);
      tps_w.WriteU32(write_pairs(record.params_begin, record.params_count));
      tps_w.WriteU32(record.params_count);
      tps_w.WriteU32(write_pairs(record.fields_begin, record.fields_count));
      tps_w.WriteU32(record.fields_count);
      ++tp_cursor;
    }
    uint32_t sys_begin = sys_cursor;
    for (StrId id : image.syscalls) {
      sys_w.WriteU32(id);
      ++sys_cursor;
    }
    uint32_t diag_begin = diag_cursor;
    for (const DiagnosticEntry& entry : image.health.ledger.entries()) {
      diags_w.WriteU32(intern(entry.message));
      diags_w.WriteU8(static_cast<uint8_t>(entry.severity));
      diags_w.WriteU8(static_cast<uint8_t>(entry.subsystem));
      diags_w.WriteU8(static_cast<uint8_t>(entry.code));
      diags_w.WriteU8(entry.has_offset ? 1 : 0);
      diags_w.WriteU64(entry.offset);
      ++diag_cursor;
    }

    images_w.WriteU32(intern(image.label));
    images_w.WriteU32(intern(image.meta.flavor));
    images_w.WriteU32(intern(image.meta.arch));
    images_w.WriteU16(static_cast<uint16_t>(image.meta.version_major));
    images_w.WriteU16(static_cast<uint16_t>(image.meta.version_minor));
    images_w.WriteU8(static_cast<uint8_t>(image.meta.gcc_major));
    images_w.WriteU8(static_cast<uint8_t>(image.meta.pointer_size));
    images_w.WriteU8(image.meta.endian == Endian::kBig ? 1 : 0);
    images_w.WriteU8(image.meta.compat_syscalls_traceable ? 1 : 0);
    images_w.WriteU32(image.meta.config_options);
    images_w.WriteU64(image.pt_regs_hash);
    images_w.WriteU8(static_cast<uint8_t>(image.health.elf));
    images_w.WriteU8(static_cast<uint8_t>(image.health.dwarf));
    images_w.WriteU8(static_cast<uint8_t>(image.health.btf));
    images_w.WriteU8(static_cast<uint8_t>(image.health.tracepoint));
    images_w.WriteU8(static_cast<uint8_t>(image.health.syscall));
    images_w.WriteZeros(3);
    images_w.WriteU32(func_begin);
    images_w.WriteU32(func_cursor - func_begin);
    images_w.WriteU32(struct_begin);
    images_w.WriteU32(struct_cursor - struct_begin);
    images_w.WriteU32(tp_begin);
    images_w.WriteU32(tp_cursor - tp_begin);
    images_w.WriteU32(sys_begin);
    images_w.WriteU32(sys_cursor - sys_begin);
    images_w.WriteU32(diag_begin);
    images_w.WriteU32(diag_cursor - diag_begin);
    images_w.WriteU64(0);  // reserved
  }

  // String table: cumulative offsets + NUL-terminated blob + sorted index.
  // Both pools keep that layout, so their blobs and offsets go out as is.
  const uint32_t string_count = pool_size + static_cast<uint32_t>(appended.size());
  ByteWriter str_offsets_w(Endian::kLittle);
  ByteWriter str_blob_w(Endian::kLittle);
  ByteWriter str_sorted_w(Endian::kLittle);
  str_offsets_w.Reserve((static_cast<size_t>(string_count) + 1) * 8);
  for (uint32_t i = 0; i < pool_size; ++i) {
    str_offsets_w.WriteU64(pool.offsets()[i]);
  }
  for (uint64_t offset : appended.offsets()) {
    str_offsets_w.WriteU64(pool.blob().size() + offset);
  }
  str_blob_w.Reserve(pool.blob().size() + appended.blob().size());
  str_blob_w.WriteString(pool.blob());
  str_blob_w.WriteString(appended.blob());
  std::vector<uint32_t> sorted_ids(string_count);
  for (uint32_t i = 0; i < string_count; ++i) {
    sorted_ids[i] = i;
  }
  std::sort(sorted_ids.begin(), sorted_ids.end(),
            [&string_at](uint32_t a, uint32_t b) { return string_at(a) < string_at(b); });
  str_sorted_w.Reserve(static_cast<size_t>(string_count) * 4);
  for (uint32_t id : sorted_ids) {
    str_sorted_w.WriteU32(id);
  }

  struct SectionPayload {
    uint32_t kind;
    std::vector<uint8_t> bytes;
    uint64_t offset = 0;
  };
  SectionPayload payloads[kV2SectionCount] = {
      {kSecStringOffsets, str_offsets_w.TakeBytes()},
      {kSecStringBlob, str_blob_w.TakeBytes()},
      {kSecStringSorted, str_sorted_w.TakeBytes()},
      {kSecImages, images_w.TakeBytes()},
      {kSecFuncs, funcs_w.TakeBytes()},
      {kSecStructs, structs_w.TakeBytes()},
      {kSecTracepoints, tps_w.TakeBytes()},
      {kSecSyscalls, sys_w.TakeBytes()},
      {kSecPairs, pairs_w.TakeBytes()},
      {kSecDiags, diags_w.TakeBytes()},
  };
  uint64_t cursor = kV2HeaderSize + kV2SectionCount * kV2SectionEntrySize;
  for (SectionPayload& payload : payloads) {
    cursor = (cursor + kDatasetV2PageSize - 1) / kDatasetV2PageSize * kDatasetV2PageSize;
    payload.offset = cursor;
    cursor += payload.bytes.size();
  }
  uint64_t file_size = cursor;

  ByteWriter out(Endian::kLittle);
  out.Reserve(file_size);
  out.WriteU32(kDatasetMagicV2);
  out.WriteU32(2);  // version
  out.WriteU32(kDatasetV2PageSize);
  out.WriteU32(kV2SectionCount);
  out.WriteU64(file_size);
  out.WriteU32(static_cast<uint32_t>(dataset.num_images()));
  out.WriteU32(string_count);
  out.WriteU64(0);  // reserved
  for (const SectionPayload& payload : payloads) {
    out.WriteU32(payload.kind);
    out.WriteU32(0);  // reserved
    out.WriteU64(payload.offset);
    out.WriteU64(payload.bytes.size());
  }
  for (const SectionPayload& payload : payloads) {
    out.WriteZeros(payload.offset - out.size());
    out.WriteBytes(payload.bytes.data(), payload.bytes.size());
  }
  return out.TakeBytes();
}

Result<int> DatasetFormatVersion(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return Error(ErrorCode::kMalformedData, "not a depsurf dataset (too short)");
  }
  uint32_t magic = LoadU32(bytes.data());
  if (magic == kDatasetMagic) {
    return 1;
  }
  if (magic == kDatasetMagicV2) {
    return 2;
  }
  return Error(ErrorCode::kMalformedData, "not a depsurf dataset (bad magic)");
}

Result<Dataset> LoadAnyDataset(const std::vector<uint8_t>& bytes) {
  DEPSURF_ASSIGN_OR_RETURN(format, DatasetFormatVersion(bytes));
  return format == 2 ? LoadDatasetV2(bytes) : LoadDataset(bytes);
}

// ---------------------------------------------------------------------------
// MmapDataset
// ---------------------------------------------------------------------------

namespace {

Status ParseV2Header(const uint8_t* data, size_t size, V2Header* header) {
  if (size < kV2HeaderSize) {
    return Status(ErrorCode::kMalformedData, "v2 dataset shorter than its header");
  }
  if (LoadU32(data) != kDatasetMagicV2) {
    return Status(ErrorCode::kMalformedData, "not a v2 depsurf dataset (bad magic)");
  }
  if (LoadU32(data + 4) != 2) {
    return Status(ErrorCode::kMalformedData, "unsupported v2 dataset version");
  }
  if (LoadU32(data + 8) != kDatasetV2PageSize) {
    return Status(ErrorCode::kMalformedData, "v2 dataset has unexpected page size");
  }
  if (LoadU32(data + 12) != kV2SectionCount) {
    return Status(ErrorCode::kMalformedData, "v2 dataset has unexpected section count");
  }
  // file_size doubles as the truncation oracle: a file cut short (or a
  // header bit flip) fails here before any record is trusted.
  if (LoadU64(data + 16) != size) {
    return Status(ErrorCode::kMalformedData, "v2 dataset truncated (recorded size mismatch)");
  }
  header->image_count = LoadU32(data + 24);
  header->string_count = LoadU32(data + 28);
  size_t table_end = kV2HeaderSize + kV2SectionCount * kV2SectionEntrySize;
  if (table_end > size) {
    return Status(ErrorCode::kMalformedData, "v2 section table beyond buffer");
  }
  auto& sections = header->sections;
  for (uint32_t i = 0; i < kV2SectionCount; ++i) {
    const uint8_t* entry = data + kV2HeaderSize + i * kV2SectionEntrySize;
    uint32_t kind = LoadU32(entry);
    if (kind != i + 1) {
      return Status(ErrorCode::kMalformedData, "v2 section table out of order");
    }
    uint64_t offset = LoadU64(entry + 8);
    uint64_t sec_size = LoadU64(entry + 16);
    if (offset > size || sec_size > size - offset) {
      return Status(ErrorCode::kMalformedData, "v2 section beyond buffer");
    }
    sections[kind] = {offset, sec_size};
  }
  // Structural invariants between counts and section sizes; everything past
  // this point is lazily bounds-checked per access instead.
  if (header->string_count >= kNoStrId ||
      sections[kSecStringOffsets].size !=
          (static_cast<uint64_t>(header->string_count) + 1) * 8) {
    return Status(ErrorCode::kMalformedData, "v2 string offset table size mismatch");
  }
  if (sections[kSecStringSorted].size != static_cast<uint64_t>(header->string_count) * 4) {
    return Status(ErrorCode::kMalformedData, "v2 sorted string index size mismatch");
  }
  if (sections[kSecImages].size !=
      static_cast<uint64_t>(header->image_count) * kV2ImageHeaderSize) {
    return Status(ErrorCode::kMalformedData, "v2 image section size mismatch");
  }
  if (sections[kSecFuncs].size % kV2FuncEntrySize != 0 ||
      sections[kSecStructs].size % kV2StructEntrySize != 0 ||
      sections[kSecTracepoints].size % kV2TracepointEntrySize != 0 ||
      sections[kSecSyscalls].size % 4 != 0 || sections[kSecPairs].size % kV2PairSize != 0 ||
      sections[kSecDiags].size % kV2DiagEntrySize != 0) {
    return Status(ErrorCode::kMalformedData, "v2 record section size not entry-aligned");
  }
  return Status::Ok();
}

// Where each run kind lives: its section, entry stride, the offset of its
// [begin, count) range in an image header, the loaders' word for it and
// their message for an entry whose name id is past the string table. The
// first kCheckedRuns kinds are binary-searched by name id.
struct RunLayout {
  uint32_t section;
  size_t stride;
  size_t range;
  const char* what;
  const char* id_error;
};
enum RunKind : uint8_t { kFuncRun, kStructRun, kTracepointRun, kSyscallRun, kDiagRun };
constexpr size_t kCheckedRuns = 4;
constexpr RunLayout kRunLayouts[] = {
    {kSecFuncs, kV2FuncEntrySize, kImgFuncRange, "function", "function name id out of range"},
    {kSecStructs, kV2StructEntrySize, kImgStructRange, "struct", "struct name id out of range"},
    {kSecTracepoints, kV2TracepointEntrySize, kImgTracepointRange, "tracepoint",
     "tracepoint name id out of range"},
    {kSecSyscalls, 4, kImgSyscallRange, "syscall", "syscall id out of range"},
    {kSecDiags, kV2DiagEntrySize, kImgDiagRange, "diagnostic",
     "diagnostic message id out of range"},
};

// One image's run of a kind: its first entry and entry count; nullopt when
// the recorded range leaves the section.
std::optional<std::pair<const uint8_t*, uint32_t>> RunOf(const uint8_t* data,
                                                         const V2Header& header,
                                                         const uint8_t* img, RunKind run) {
  const RunLayout& layout = kRunLayouts[run];
  const V2Header::Section& sec = header.sections[layout.section];
  uint32_t begin = LoadU32(img + layout.range);
  uint32_t count = LoadU32(img + layout.range + 4);
  uint64_t entries = sec.size / layout.stride;
  if (begin > entries || count > entries - begin) {
    return std::nullopt;
  }
  return std::pair(data + sec.offset + uint64_t{begin} * layout.stride, count);
}

// String `id` of a v2 string table; nullopt when its offsets are corrupt.
std::optional<std::string_view> V2String(const uint8_t* data, const V2Header& header, StrId id) {
  if (id >= header.string_count) {
    return std::nullopt;
  }
  const uint8_t* offsets = data + header.sections[kSecStringOffsets].offset + uint64_t{id} * 8;
  const V2Header::Section& blob = header.sections[kSecStringBlob];
  uint64_t begin = LoadU64(offsets);
  uint64_t end = LoadU64(offsets + 8);
  if (begin >= end || end > blob.size || data[blob.offset + end - 1] != '\0') {
    return std::nullopt;
  }
  return std::string_view(reinterpret_cast<const char*>(data + blob.offset + begin),
                          end - begin - 1);
}

// Entry decoders. A function's suffix is a v2 string id here; it is left
// unset for the loader to map into the suffix pool.
FuncRecord DecodeFunc(const uint8_t* e) {
  return FuncRecord{LoadU32(e), LoadU32(e + 4), LoadU64(e + 8), kNoStrId,
                    static_cast<uint8_t>(e[20] & kFuncFlagMask)};
}

StructRecord DecodeStruct(const uint8_t* e) {
  return StructRecord{LoadU32(e), LoadU32(e + 4), LoadU32(e + 8)};
}

TracepointRecord DecodeTracepoint(const uint8_t* e) {
  return TracepointRecord{LoadU32(e), LoadU32(e + 4), LoadU32(e + 8), LoadU32(e + 12),
                          LoadU32(e + 16)};
}

// A run's (or the string index's) check result, memoized per view: sound,
// or the first fault found.
enum Verdict : uint8_t {
  kUnchecked,
  kSound,
  kRunRange,    // the run's range leaves its section
  kNameId,      // an entry's name id is past the string table
  kDeclId,      // a function's decl id is
  kSuffixId,    // a function's suffix id is
  kPairRange,   // a struct's or tracepoint's pair range leaves the pairs section
  kPairId,      // a field or type id in such a range is past the string table
  kNameOrder,   // name ids not strictly ascending
  kFieldOrder,  // a struct's field pairs not sorted
  kIndexOrder,  // the sorted string index is not ascending
  kBadString,   // a string table entry is corrupt
};

// The loaders' message for a fault in a run of kind `run` (ignored for the
// string index's faults).
Error FaultError(uint8_t verdict, RunKind run = kFuncRun) {
  const RunLayout& layout = kRunLayouts[run];
  switch (verdict) {
    case kRunRange:
      return Error(ErrorCode::kMalformedData,
                   std::string("v2 ") + layout.what + " range beyond section");
    case kNameId:
      return Error(ErrorCode::kMalformedData, layout.id_error);
    case kDeclId:
      return Error(ErrorCode::kMalformedData, "decl id out of range");
    case kSuffixId:
      return Error(ErrorCode::kMalformedData, "suffix id out of range");
    case kPairRange:
      return Error(ErrorCode::kMalformedData, "v2 pair range beyond section");
    case kPairId:
      return Error(ErrorCode::kMalformedData, "string id out of range");
    case kNameOrder:
      return NameOrderError(layout.what);
    case kFieldOrder:
      return FieldOrderError();
    case kIndexOrder:
      return Error(ErrorCode::kMalformedData, "v2 sorted string index not ascending");
    default:
      return Error(ErrorCode::kMalformedData, "v2 string table entry corrupt");
  }
}

// Sets `*error` to the message LoadDatasetV2 gives for the same fault,
// unless it already holds an earlier one.
void Report(Status* error, uint8_t verdict, RunKind run = kFuncRun) {
  if (error != nullptr && error->ok()) {
    *error = FaultError(verdict, run);
  }
}

// A pair range's verdict: inside the pairs section (`pairs` is set), with
// every field and type id naming a string.
uint8_t PairVerdict(const std::optional<PairRun>& pairs, uint32_t num_strings) {
  if (!pairs.has_value()) {
    return kPairRange;
  }
  for (size_t i = 0; i < pairs->size(); ++i) {
    if ((*pairs)[i].first >= num_strings || (*pairs)[i].second >= num_strings) {
      return kPairId;
    }
  }
  return kSound;
}

// Computes a verdict once. The verdict depends only on the mapped bytes, so
// lanes that race here compute and store the same value.
template <typename Compute>
uint8_t Memoized(std::atomic<uint8_t>& slot, Compute compute) {
  uint8_t verdict = slot.load();
  if (verdict == kUnchecked) {
    verdict = compute();
    slot.store(verdict);
  }
  return verdict;
}

// Binary search for the entry named `name` in a run of `count` entries of
// `stride` bytes that start with their name id; nullptr when absent.
const uint8_t* FindNamedEntry(const uint8_t* run, uint32_t count, size_t stride, StrId name) {
  auto at = [&](uint32_t i) { return run + uint64_t{i} * stride; };
  auto indices = std::views::iota(uint32_t{0}, count);
  auto it =
      std::ranges::partition_point(indices, [&](uint32_t i) { return LoadU32(at(i)) < name; });
  return it != indices.end() && LoadU32(at(*it)) == name ? at(*it) : nullptr;
}

}  // namespace

Status MmapDataset::Attach(const uint8_t* data, size_t size) {
  data_ = data;
  DEPSURF_RETURN_IF_ERROR(ParseV2Header(data, size, &header_));
  for (size_t image = 0; image < header_.image_count; ++image) {
    DEPSURF_RETURN_IF_ERROR(CheckImageHeader(ImageHeader(image), header_.string_count));
  }
  verdicts_ =
      std::make_unique<std::atomic<uint8_t>[]>(size_t{header_.image_count} * kCheckedRuns + 1);
  return Status::Ok();
}

Result<MmapDataset> MmapDataset::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Error(ErrorCode::kIoError, "cannot stat " + path);
  }
  size_t len = static_cast<size_t>(st.st_size);
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Error(ErrorCode::kIoError, "mmap failed for " + path);
  }
  MmapDataset dataset;
  dataset.mapping_ = std::unique_ptr<void, Unmap>(base, Unmap{len});
  // On error, the dataset's destructor unmaps.
  DEPSURF_RETURN_IF_ERROR(dataset.Attach(static_cast<const uint8_t*>(base), len));
  return dataset;
}

Result<MmapDataset> MmapDataset::FromBytes(std::vector<uint8_t> bytes) {
  MmapDataset dataset;
  dataset.owned_ = std::move(bytes);
  DEPSURF_RETURN_IF_ERROR(dataset.Attach(dataset.owned_.data(), dataset.owned_.size()));
  return dataset;
}

void MmapDataset::Unmap::operator()(void* base) const { ::munmap(base, length); }

std::optional<std::string_view> MmapDataset::StringViewAt(StrId id) const {
  return V2String(data_, header_, id);
}

uint8_t MmapDataset::CheckIndex() const {
  return Memoized(verdicts_[size_t{header_.image_count} * kCheckedRuns], [this]() -> uint8_t {
    // A corrupt string outranks the order it breaks, as in LoadDatasetV2.
    const uint8_t* index = data_ + header_.sections[kSecStringSorted].offset;
    uint8_t verdict = kSound;
    std::string_view previous;
    for (uint64_t i = 0; i < header_.string_count; ++i) {
      StrId id = LoadU32(index + i * 4);
      std::optional<std::string_view> text = StringViewAt(id);
      if (!text.has_value()) {
        return id >= header_.string_count ? kIndexOrder : kBadString;
      }
      if (i > 0 && *text <= previous) {
        verdict = kIndexOrder;
      }
      previous = *text;
    }
    return verdict;
  });
}

StrId MmapDataset::LookupId(std::string_view text, Status* error) const {
  if (uint8_t verdict = CheckIndex(); verdict != kSound) {
    Report(error, verdict);
    return kNoStrId;
  }
  // A sound index is a permutation of decodable ids in ascending order.
  const uint8_t* index = data_ + header_.sections[kSecStringSorted].offset;
  auto text_at = [&](uint32_t i) { return *StringViewAt(LoadU32(index + uint64_t{i} * 4)); };
  auto indices = std::views::iota(uint32_t{0}, header_.string_count);
  auto it = std::ranges::partition_point(indices, [&](uint32_t i) { return text_at(i) < text; });
  return it != indices.end() && text_at(*it) == text ? LoadU32(index + uint64_t{*it} * 4)
                                                       : kNoStrId;
}

const uint8_t* MmapDataset::ImageHeader(size_t image_index) const {
  return data_ + header_.sections[kSecImages].offset + image_index * kV2ImageHeaderSize;
}

uint8_t MmapDataset::CheckRun(size_t image, size_t run) const {
  return Memoized(verdicts_[image * kCheckedRuns + run], [&]() -> uint8_t {
    auto entries = RunOf(data_, header_, ImageHeader(image), static_cast<RunKind>(run));
    if (!entries.has_value()) {
      return kRunRange;
    }
    const uint32_t num_strings = header_.string_count;
    auto pairs_at = [&](const uint8_t* range) {
      return PairRunAt(LoadU32(range), LoadU32(range + 4));
    };
    // Entry by entry, in the loaders' order: ids, pair ranges, then order.
    const size_t stride = kRunLayouts[run].stride;
    const uint8_t* entry = entries->first;
    for (uint32_t i = 0; i < entries->second; ++i, entry += stride) {
      if (LoadU32(entry) >= num_strings) {
        return kNameId;
      }
      uint8_t verdict = kSound;
      if (run == kFuncRun) {
        StrId decl = LoadU32(entry + 4);
        StrId suffix = LoadU32(entry + 16);
        verdict = decl != kNoStrId && decl >= num_strings       ? kDeclId
                  : suffix != kNoStrId && suffix >= num_strings ? kSuffixId
                                                                : kSound;
      } else if (run == kStructRun) {
        verdict = PairVerdict(pairs_at(entry + 4), num_strings);
      } else if (run == kTracepointRun) {
        verdict = PairVerdict(pairs_at(entry + 4), num_strings);
        verdict = verdict != kSound ? verdict : PairVerdict(pairs_at(entry + 12), num_strings);
      }
      if (verdict != kSound) {
        return verdict;
      }
      if (i > 0 && LoadU32(entry) <= LoadU32(entry - stride)) {
        return kNameOrder;
      }
      if (run == kStructRun && !CheckFieldOrder(*pairs_at(entry + 4)).ok()) {
        return kFieldOrder;
      }
    }
    return kSound;
  });
}

const uint8_t* MmapDataset::FindEntry(size_t image, size_t run, StrId name,
                                      Status* error) const {
  if (uint8_t verdict = CheckRun(image, run); verdict != kSound) {
    Report(error, verdict, static_cast<RunKind>(run));
    return nullptr;
  }
  // A sound run lies inside its section.
  auto entries = RunOf(data_, header_, ImageHeader(image), static_cast<RunKind>(run));
  return FindNamedEntry(entries->first, entries->second, kRunLayouts[run].stride, name);
}

std::optional<FuncRecord> MmapDataset::FindFunc(size_t image, StrId name, Status* error) const {
  const uint8_t* entry = FindEntry(image, kFuncRun, name, error);
  return entry != nullptr ? std::optional(DecodeFunc(entry)) : std::nullopt;
}

std::optional<StructRecord> MmapDataset::FindStruct(size_t image, StrId name,
                                                    Status* error) const {
  const uint8_t* entry = FindEntry(image, kStructRun, name, error);
  return entry != nullptr ? std::optional(DecodeStruct(entry)) : std::nullopt;
}

std::optional<TracepointRecord> MmapDataset::FindTracepoint(size_t image, StrId name,
                                                            Status* error) const {
  const uint8_t* entry = FindEntry(image, kTracepointRun, name, error);
  return entry != nullptr ? std::optional(DecodeTracepoint(entry)) : std::nullopt;
}

bool MmapDataset::HasSyscall(size_t image, StrId name, Status* error) const {
  return FindEntry(image, kSyscallRun, name, error) != nullptr;
}

std::optional<PairRun> MmapDataset::PairRunAt(uint32_t begin, uint32_t count) const {
  const V2Header::Section& pairs = header_.sections[kSecPairs];
  uint64_t entries = pairs.size / kV2PairSize;
  if (begin > entries || count > entries - begin) {
    return std::nullopt;
  }
  return PairRun(data_ + pairs.offset + uint64_t{begin} * kV2PairSize, count);
}

uint64_t MmapDataset::PtRegsHashAt(size_t image) const { return LoadU64(ImageHeader(image) + 24); }

std::string_view MmapDataset::ImageLabel(size_t image) const {
  return StringViewAt(LoadU32(ImageHeader(image))).value_or(std::string_view());
}

SurfaceMeta MmapDataset::ImageMeta(size_t image) const {
  const uint8_t* img = ImageHeader(image);
  SurfaceMeta meta = MetaFromHeader(img);
  meta.flavor = std::string(StringViewAt(LoadU32(img + 4)).value_or(std::string_view()));
  meta.arch = std::string(StringViewAt(LoadU32(img + 8)).value_or(std::string_view()));
  return meta;
}

SurfaceHealth MmapDataset::ImageHealth(size_t image) const {
  return HealthFromHeader(ImageHeader(image));
}

// ---------------------------------------------------------------------------
// Full strict v2 parse (dataset info / migrate round-trips).
// ---------------------------------------------------------------------------

Result<Dataset> LoadDatasetV2(const std::vector<uint8_t>& bytes) {
  V2Header header;
  DEPSURF_RETURN_IF_ERROR(ParseV2Header(bytes.data(), bytes.size(), &header));
  const uint8_t* data = bytes.data();
  const uint32_t num_strings = header.string_count;
  Dataset dataset;
  dataset.pool_.Reserve(num_strings, header.sections[kSecStringBlob].size);
  for (uint32_t i = 0; i < num_strings; ++i) {
    std::optional<std::string_view> s = V2String(data, header, i);
    if (!s.has_value()) {
      return FaultError(kBadString);
    }
    if (dataset.Intern(*s) != i) {
      return Error(ErrorCode::kMalformedData, "duplicate string in pool");
    }
  }
  dataset.FlushInternMetrics();

  // Strict walk of the raw sections (the lazy mmap accessors degrade on
  // corruption; a full parse must reject it instead). The pair section is
  // copied whole, so records keep their file ranges into it.
  auto [pairs_off, pairs_size] = header.sections[kSecPairs];
  const uint64_t pair_entries = pairs_size / kV2PairSize;
  dataset.pairs_.resize(pair_entries);
  for (uint64_t i = 0; i < pair_entries; ++i) {
    const uint8_t* p = data + pairs_off + i * kV2PairSize;
    dataset.pairs_[i] = {LoadU32(p), LoadU32(p + 4)};
  }
  auto check_pairs = [&](uint32_t begin, uint32_t count) -> Status {
    bool inside = begin <= pair_entries && count <= pair_entries - begin;
    uint8_t verdict = PairVerdict(
        inside ? std::optional<PairRun>(dataset.Pairs(begin, count)) : std::nullopt, num_strings);
    return verdict == kSound ? Status::Ok() : Status(FaultError(verdict));
  };
  auto run_of = [&](const uint8_t* img,
                    RunKind run) -> Result<std::pair<const uint8_t*, uint32_t>> {
    auto entries = RunOf(data, header, img, run);
    if (!entries.has_value()) {
      return FaultError(kRunRange, run);
    }
    return *entries;
  };

  dataset.images_.reserve(header.image_count);
  for (uint32_t image_index = 0; image_index < header.image_count; ++image_index) {
    const uint8_t* img = data + header.sections[kSecImages].offset +
                         static_cast<uint64_t>(image_index) * kV2ImageHeaderSize;
    DEPSURF_RETURN_IF_ERROR(CheckImageHeader(img, num_strings));
    ImageRecord image;
    image.meta = MetaFromHeader(img);
    image.label = std::string(dataset.StringAt(LoadU32(img)));
    image.meta.flavor = std::string(dataset.StringAt(LoadU32(img + 4)));
    image.meta.arch = std::string(dataset.StringAt(LoadU32(img + 8)));
    image.compat_syscalls_traceable = image.meta.compat_syscalls_traceable;
    image.pt_regs_hash = LoadU64(img + 24);
    image.health = HealthFromHeader(img);

    DEPSURF_ASSIGN_OR_RETURN(funcs, run_of(img, kFuncRun));
    image.funcs.reserve(funcs.second);
    for (uint32_t i = 0; i < funcs.second; ++i) {
      const uint8_t* e = funcs.first + uint64_t{i} * kV2FuncEntrySize;
      FuncRecord record = DecodeFunc(e);
      if (record.name >= num_strings) {
        return FaultError(kNameId, kFuncRun);
      }
      if (record.decl != kNoStrId && record.decl >= num_strings) {
        return FaultError(kDeclId);
      }
      uint32_t suffix = LoadU32(e + 16);
      if (suffix != kNoStrId && suffix >= num_strings) {
        return FaultError(kSuffixId);
      }
      if (suffix != kNoStrId && !dataset.StringAt(suffix).empty()) {
        record.suffix = dataset.suffixes_.Intern(dataset.StringAt(suffix));
      }
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.funcs, record.name, "function"));
      image.funcs.push_back(record);
    }

    DEPSURF_ASSIGN_OR_RETURN(structs, run_of(img, kStructRun));
    image.structs.reserve(structs.second);
    for (uint32_t i = 0; i < structs.second; ++i) {
      StructRecord record = DecodeStruct(structs.first + uint64_t{i} * kV2StructEntrySize);
      if (record.name >= num_strings) {
        return FaultError(kNameId, kStructRun);
      }
      DEPSURF_RETURN_IF_ERROR(check_pairs(record.fields_begin, record.fields_count));
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.structs, record.name, "struct"));
      DEPSURF_RETURN_IF_ERROR(
          CheckFieldOrder(dataset.Pairs(record.fields_begin, record.fields_count)));
      image.structs.push_back(record);
    }

    DEPSURF_ASSIGN_OR_RETURN(tps, run_of(img, kTracepointRun));
    image.tracepoints.reserve(tps.second);
    for (uint32_t i = 0; i < tps.second; ++i) {
      TracepointRecord record =
          DecodeTracepoint(tps.first + uint64_t{i} * kV2TracepointEntrySize);
      if (record.name >= num_strings) {
        return FaultError(kNameId, kTracepointRun);
      }
      DEPSURF_RETURN_IF_ERROR(check_pairs(record.params_begin, record.params_count));
      DEPSURF_RETURN_IF_ERROR(check_pairs(record.fields_begin, record.fields_count));
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.tracepoints, record.name, "tracepoint"));
      image.tracepoints.push_back(record);
    }

    DEPSURF_ASSIGN_OR_RETURN(syscalls, run_of(img, kSyscallRun));
    image.syscalls.reserve(syscalls.second);
    for (uint32_t i = 0; i < syscalls.second; ++i) {
      uint32_t id = LoadU32(syscalls.first + uint64_t{i} * 4);
      if (id >= num_strings) {
        return FaultError(kNameId, kSyscallRun);
      }
      DEPSURF_RETURN_IF_ERROR(CheckNameOrder(image.syscalls, id, "syscall"));
      image.syscalls.push_back(id);
    }

    DEPSURF_ASSIGN_OR_RETURN(diags, run_of(img, kDiagRun));
    for (uint32_t i = 0; i < diags.second; ++i) {
      const uint8_t* e = diags.first + uint64_t{i} * kV2DiagEntrySize;
      uint32_t message = LoadU32(e);
      if (message >= num_strings) {
        return FaultError(kNameId, kDiagRun);
      }
      uint8_t severity = e[4];
      if (severity > static_cast<uint8_t>(DiagSeverity::kFatal)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic severity");
      }
      uint8_t subsystem = e[5];
      if (subsystem > static_cast<uint8_t>(DiagSubsystem::kBpf)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic subsystem");
      }
      uint8_t code = e[6];
      if (code > static_cast<uint8_t>(ErrorCode::kIoError)) {
        return Error(ErrorCode::kMalformedData, "bad diagnostic error code");
      }
      std::string text(dataset.StringAt(message));
      if (e[7] != 0) {
        image.health.ledger.AddAt(static_cast<DiagSeverity>(severity),
                                  static_cast<DiagSubsystem>(subsystem),
                                  static_cast<ErrorCode>(code), LoadU64(e + 8), std::move(text));
      } else {
        image.health.ledger.Add(static_cast<DiagSeverity>(severity),
                                static_cast<DiagSubsystem>(subsystem),
                                static_cast<ErrorCode>(code), std::move(text));
      }
    }
    dataset.images_.push_back(std::move(image));
  }
  return dataset;
}

Result<OpenedDataset> OpenDatasetView(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error(ErrorCode::kIoError, "cannot open " + path);
  }
  std::vector<uint8_t> magic(4);
  in.read(reinterpret_cast<char*>(magic.data()), 4);
  magic.resize(static_cast<size_t>(in.gcount()));
  Result<int> format = DatasetFormatVersion(magic);
  if (!format.ok()) {
    return format.TakeError().Wrap(path);
  }
  OpenedDataset opened;
  opened.format = *format;
  if (opened.format == 2) {
    DEPSURF_ASSIGN_OR_RETURN(view, MmapDataset::Open(path));
    opened.view = std::make_unique<MmapDataset>(std::move(view));
  } else {
    DEPSURF_ASSIGN_OR_RETURN(bytes, ReadFileBytes(path));
    DEPSURF_ASSIGN_OR_RETURN(dataset, LoadDataset(bytes));
    opened.view = std::make_unique<Dataset>(std::move(dataset));
  }
  return opened;
}

}  // namespace depsurf
