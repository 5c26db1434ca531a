// The dependency-mismatch dataset: compact per-image records distilled from
// dependency surfaces, queryable per construct. This is the artifact
// DepSurf publishes (paper §3.1): images are processed once, surfaces are
// dropped, and dependency-set analysis runs against these records.
//
// Records are heavily interned: at paper scale an image contributes ~70k
// functions and ~8k structs, and the corpus holds 25 images, so names and
// type strings are stored once in a shared pool and referenced by id. The
// records themselves are flat arrays, with one dataset-wide arena for
// field lists: no per-record heap node.
// Function declarations are kept as fingerprints (hashes); benches that
// need change *kinds* (Table 4) diff full surfaces pairwise instead.
#ifndef DEPSURF_SRC_CORE_DATASET_H_
#define DEPSURF_SRC_CORE_DATASET_H_

#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/dataset_view.h"
#include "src/core/dependency_surface.h"
#include "src/util/string_pool.h"

namespace depsurf {

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
// (docs/FORMATS.md §6a). Each image keeps one array per kind, sorted by
// strictly ascending name id so queries binary-search it.

struct FuncRecord {
  StrId name = 0;
  // Rendered declaration ("int vfs_fsync(struct file *file, int datasync)"),
  // interned: declarations repeat across images. 0xffffffff: none.
  StrId decl = 0xffffffff;
  uint64_t decl_hash = 0;  // fingerprint of (return type, param names+types)
  // Transform suffix (".isra.0"), an id in Dataset::SuffixAt's pool;
  // 0xffffffff: none. Suffixes stay out of the name pool, so distilling
  // them cannot shift v1 pool ids.
  uint32_t suffix = 0xffffffff;
  uint8_t flags = 0;  // kFunc* bits
};

// Field lists are [begin, begin + count) slices of the dataset's pair arena
// (Dataset::Pairs); each pair is (field name id, field type id).
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

struct ImageRecord {
  std::string label;
  SurfaceMeta meta;
  std::vector<FuncRecord> funcs;
  std::vector<StructRecord> structs;
  std::vector<TracepointRecord> tracepoints;
  std::vector<StrId> syscalls;
  bool compat_syscalls_traceable = true;
  uint64_t pt_regs_hash = 0;
  // Salvage provenance, persisted with the record (see dataset_io.cc):
  // per-subsystem degradation states plus the extraction ledger, so report
  // consumers can tell which conclusions rest on partial data.
  SurfaceHealth health;

  bool AnyDegraded() const { return health.AnyDegraded(); }
};

class Dataset : public DatasetView {
 public:
  using Pair = std::pair<StrId, StrId>;

  // Distills one surface; images are queried in insertion order.
  void AddImage(const std::string& label, const DependencySurface& surface);

  size_t num_images() const override { return images_.size(); }
  const std::vector<ImageRecord>& images() const { return images_; }
  std::vector<std::string> labels() const override;
  SurfaceMeta MetaAt(size_t image_index) const override;
  std::string HealthSummaryAt(size_t image_index) const override;
  bool AnyDegradedAt(size_t image_index) const override;

  // All queries return one mismatch set per image, in insertion order.
  // Baselines (for Changed) are the construct's definition on the earliest
  // image where it is present.
  std::vector<std::set<MismatchKind>> CheckFunc(const std::string& name) const override;
  std::vector<std::set<MismatchKind>> CheckStruct(const std::string& name) const override;
  // `expected_type` is the program-side expectation (empty: fall back to
  // the baseline image's type). Guarded accesses never report kAbsent.
  std::vector<std::set<MismatchKind>> CheckField(const std::string& struct_name,
                                                 const std::string& field_name,
                                                 const std::string& expected_type,
                                                 bool guarded) const override;
  std::vector<std::set<MismatchKind>> CheckTracepoint(const std::string& event) const override;
  std::vector<std::set<MismatchKind>> CheckSyscall(const std::string& name) const override;
  // Register-layout mismatch vs the first image (Table 5's "Register Δ").
  std::vector<std::set<MismatchKind>> CheckRegisters() const override;

  // Rendered function declaration on one image; nullopt when absent there.
  std::optional<std::string_view> FuncDeclAt(const std::string& name,
                                             size_t image_index) const override;
  // Field type string on one image; nullopt when absent.
  std::optional<std::string_view> FieldTypeAt(const std::string& struct_name,
                                              const std::string& field_name,
                                              size_t image_index) const override;

  // A record's field or parameter list.
  std::span<const Pair> Pairs(uint32_t begin, uint32_t count) const {
    return std::span<const Pair>(pairs_).subspan(begin, count);
  }

  // Interning accessors (exposed for benches and serialization).
  size_t pool_size() const { return pool_.size(); }
  const StringPool& pool() const { return pool_; }
  StrId Intern(std::string_view s);
  // kNoStr if the string was never interned.
  static constexpr StrId kNoStr = StringPool::kNone;
  StrId Lookup(std::string_view s) const { return pool_.Lookup(s); }
  std::string_view StringAt(StrId id) const { return pool_.At(id); }
  std::string_view SuffixAt(uint32_t id) const { return suffixes_.At(id); }

  // Publishes intern hit/miss counts accumulated since the last flush to the
  // current obs::Context. Intern() itself only bumps plain members — it is
  // the hot path of distillation, and resolving a registry counter per string
  // (or caching one across per-image contexts) would be wrong or slow.
  // AddImage flushes automatically; LoadDataset flushes after the pool read.
  void FlushInternMetrics();

 private:
  // The loaders fill the arrays in bulk (dataset_io.cc).
  friend Result<Dataset> LoadDataset(const std::vector<uint8_t>& bytes);
  friend Result<Dataset> LoadDatasetV2(const std::vector<uint8_t>& bytes);

  const FuncRecord* FindFunc(size_t image_index, StrId name) const;
  const StructRecord* FindStruct(size_t image_index, StrId name) const;
  // The type id of `field` in `record`, or nullptr.
  const StrId* FindField(const StructRecord& record, StrId field) const;

  std::vector<ImageRecord> images_;
  std::vector<Pair> pairs_;
  StringPool pool_;
  StringPool suffixes_;
  uint64_t intern_hits_ = 0;
  uint64_t intern_misses_ = 0;
  uint64_t intern_hits_flushed_ = 0;
  uint64_t intern_misses_flushed_ = 0;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_H_
