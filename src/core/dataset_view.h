// Read-side interface over a mismatch dataset. The mismatch rules (the
// Check* queries, FuncDeclAt and FieldTypeAt) are written once, here, over a
// small per-image record interface that each storage backend supplies:
// `Dataset` (flat in-memory arrays built by distillation or a full v1/v2
// parse, see dataset.h) and `MmapDataset` (entries decoded in place from a
// mmap'd `.dds` v2 file, see dataset_io.h). Report building and the `serve`
// query loop are written against this interface so a long-lived server
// never pays a full parse.
#ifndef DEPSURF_SRC_CORE_DATASET_VIEW_H_
#define DEPSURF_SRC_CORE_DATASET_VIEW_H_

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/dependency_surface.h"

namespace depsurf {

// Everything that can go wrong for one dependency on one image.
enum class MismatchKind : uint8_t {
  kAbsent,           // Ø  construct not on the surface
  kChanged,          // Δ  definition differs (vs baseline or expectation)
  kFullInline,       // F
  kSelectiveInline,  // S
  kTransformed,      // T
  kDuplicated,       // D
  kCollision,        // C (the paper's "name collision")
  kNotTraceable,     // 32-bit syscall blind spot
};

const char* MismatchKindName(MismatchKind kind);
// One-letter code used in report matrices (Ø rendered as '-').
char MismatchKindCode(MismatchKind kind);

using StrId = uint32_t;
// The "no string" id of both pools and of both `.dds` formats.
inline constexpr StrId kNoStrId = 0xffffffff;

// FunctionStatus bits as both `.dds` formats store them.
inline constexpr uint8_t kFuncExactSymbol = 1 << 0;
inline constexpr uint8_t kFuncFullInline = 1 << 1;
inline constexpr uint8_t kFuncSelectiveInline = 1 << 2;
inline constexpr uint8_t kFuncTransformed = 1 << 3;
inline constexpr uint8_t kFuncDuplicated = 1 << 4;
inline constexpr uint8_t kFuncCollided = 1 << 5;
inline constexpr uint8_t kFuncExternal = 1 << 6;
inline constexpr uint8_t kFuncFlagMask = 0x7f;

// The records below have the shapes of the `.dds` v2 entries
// (docs/FORMATS.md §6a). Each image keeps one run per kind, sorted by
// strictly ascending name id so lookups binary-search it.

struct FuncRecord {
  StrId name = 0;
  // Rendered declaration ("int vfs_fsync(struct file *file, int datasync)"),
  // interned: declarations repeat across images. kNoStrId: none.
  StrId decl = kNoStrId;
  uint64_t decl_hash = 0;  // fingerprint of (return type, param names+types)
  // Transform suffix (".isra.0"), an id in Dataset::SuffixAt's pool;
  // kNoStrId: none. Suffixes stay out of the name pool, so distilling
  // them cannot shift v1 pool ids. The mismatch rules never read it.
  uint32_t suffix = kNoStrId;
  uint8_t flags = 0;  // kFunc* bits
};

// Field lists are [begin, begin + count) slices of the dataset's pair run
// (DatasetView::PairRunAt); each pair is (field name id, field type id).
struct StructRecord {
  StrId name = 0;
  uint32_t fields_begin = 0;  // sorted by (name id, type id)
  uint32_t fields_count = 0;
};

struct TracepointRecord {
  StrId name = 0;
  uint32_t params_begin = 0;  // in declaration order
  uint32_t params_count = 0;
  uint32_t fields_begin = 0;  // sorted by (name id, type id)
  uint32_t fields_count = 0;
};

// A field or parameter list: (name id, type id) pairs, read either from
// memory or from little-endian u32 pairs inside a `.dds` v2 mapping.
class PairRun {
 public:
  using Pair = std::pair<StrId, StrId>;

  PairRun(std::span<const Pair> pairs)  // NOLINT: implicit by design
      : pairs_(pairs.data()), size_(pairs.size()) {}
  PairRun(const uint8_t* le_pairs, size_t size) : bytes_(le_pairs), size_(size) {}

  size_t size() const { return size_; }
  Pair operator[](size_t i) const {
    return pairs_ != nullptr ? pairs_[i] : Pair{Le32(bytes_ + i * 8), Le32(bytes_ + i * 8 + 4)};
  }
  bool operator==(const PairRun& other) const;
  // The type id paired with `name` in a run sorted by name id.
  std::optional<StrId> Find(StrId name) const;

 private:
  static StrId Le32(const uint8_t* p) {
    return p[0] | p[1] << 8 | p[2] << 16 | static_cast<StrId>(p[3]) << 24;
  }

  const Pair* pairs_ = nullptr;
  const uint8_t* bytes_ = nullptr;
  size_t size_ = 0;
};

class DatasetView {
 public:
  virtual ~DatasetView() = default;

  virtual size_t num_images() const = 0;
  std::vector<std::string> labels() const;
  // Surface metadata / salvage-health summary for one image. Out-of-range
  // indices return defaults (never throw).
  SurfaceMeta MetaAt(size_t image_index) const;
  std::string HealthSummaryAt(size_t image_index) const;

  // All queries return one mismatch set per image, in insertion order.
  // Baselines (for Changed) are the construct's definition on the earliest
  // image where it is present.
  //
  // `error` (optional) receives the first malformed record run a query hit
  // (only a mapped `.dds` v2 file checks its runs lazily; the loaders reject
  // such files up front). The answer is then not an answer: a caller that
  // passes `error` must not use it.
  using Cells = std::vector<std::set<MismatchKind>>;
  Cells CheckFunc(const std::string& name, Status* error = nullptr) const;
  Cells CheckStruct(const std::string& name, Status* error = nullptr) const;
  // `expected_type` is the program-side expectation (empty: fall back to
  // the baseline image's type). Guarded accesses never report kAbsent.
  Cells CheckField(const std::string& struct_name, const std::string& field_name,
                   const std::string& expected_type, bool guarded,
                   Status* error = nullptr) const;
  Cells CheckTracepoint(const std::string& event, Status* error = nullptr) const;
  Cells CheckSyscall(const std::string& name, Status* error = nullptr) const;
  // Register-layout mismatch vs the first image (Table 5's "Register Δ").
  Cells CheckRegisters() const;

  // Rendered function declaration on one image; nullopt when absent there.
  // Views stay valid as long as the implementation object does.
  std::optional<std::string_view> FuncDeclAt(const std::string& name, size_t image_index,
                                             Status* error = nullptr) const;
  // Field type string on one image; nullopt when absent.
  std::optional<std::string_view> FieldTypeAt(const std::string& struct_name,
                                              const std::string& field_name,
                                              size_t image_index,
                                              Status* error = nullptr) const;

 protected:
  DatasetView() = default;
  DatasetView(const DatasetView&) = default;
  DatasetView& operator=(const DatasetView&) = default;
  DatasetView(DatasetView&&) = default;
  DatasetView& operator=(DatasetView&&) = default;

  // The per-image record interface. `image` is always below num_images().
  // A backend that finds a run malformed reports it in `*error` (when
  // `error` is set and holds no earlier error) and then finds nothing.

  // String id <-> text. LookupId returns kNoStrId for an unknown string.
  virtual StrId LookupId(std::string_view text, Status* error) const = 0;
  virtual std::optional<std::string_view> StringViewAt(StrId id) const = 0;
  // The entry named `name` in one image's run of that kind.
  virtual std::optional<FuncRecord> FindFunc(size_t image, StrId name, Status* error) const = 0;
  virtual std::optional<StructRecord> FindStruct(size_t image, StrId name,
                                                 Status* error) const = 0;
  virtual std::optional<TracepointRecord> FindTracepoint(size_t image, StrId name,
                                                         Status* error) const = 0;
  virtual bool HasSyscall(size_t image, StrId name, Status* error) const = 0;
  // A record's field or parameter list; nullopt when the range is not
  // inside the dataset's pairs (the record then counts as absent).
  virtual std::optional<PairRun> PairRunAt(uint32_t begin, uint32_t count) const = 0;
  virtual uint64_t PtRegsHashAt(size_t image) const = 0;
  virtual std::string_view ImageLabel(size_t image) const = 0;
  virtual SurfaceMeta ImageMeta(size_t image) const = 0;
  // The degradation states; the ledger is not part of the view.
  virtual SurfaceHealth ImageHealth(size_t image) const = 0;

 private:
  // The field list of the struct named `name` on one image.
  std::optional<PairRun> StructFields(size_t image, StrId name, Status* error) const;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_VIEW_H_
