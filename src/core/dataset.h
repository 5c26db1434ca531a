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
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/dataset_view.h"
#include "src/core/dependency_surface.h"
#include "src/util/string_pool.h"

namespace depsurf {

static_assert(StringPool::kNone == kNoStrId);

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

  // A record's field or parameter list.
  std::span<const Pair> Pairs(uint32_t begin, uint32_t count) const {
    return std::span<const Pair>(pairs_).subspan(begin, count);
  }

  // Interning accessors (exposed for benches and serialization).
  size_t pool_size() const { return pool_.size(); }
  const StringPool& pool() const { return pool_; }
  StrId Intern(std::string_view s);
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

  // The record interface (dataset_view.h) over the arrays; a loaded or
  // distilled Dataset has no malformed run, so `error` is never set.
  StrId LookupId(std::string_view text, Status*) const override { return pool_.Lookup(text); }
  std::optional<std::string_view> StringViewAt(StrId id) const override { return pool_.At(id); }
  std::optional<FuncRecord> FindFunc(size_t image, StrId name, Status* error) const override;
  std::optional<StructRecord> FindStruct(size_t image, StrId name, Status* error) const override;
  std::optional<TracepointRecord> FindTracepoint(size_t image, StrId name,
                                                 Status* error) const override;
  bool HasSyscall(size_t image, StrId name, Status* error) const override;
  std::optional<PairRun> PairRunAt(uint32_t begin, uint32_t count) const override {
    return PairRun(Pairs(begin, count));
  }
  uint64_t PtRegsHashAt(size_t i) const override { return images_[i].pt_regs_hash; }
  std::string_view ImageLabel(size_t i) const override { return images_[i].label; }
  SurfaceMeta ImageMeta(size_t i) const override { return images_[i].meta; }
  SurfaceHealth ImageHealth(size_t image) const override;

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
