// Serialization of the mismatch dataset. The paper publishes its dataset
// as a standalone artifact so dependency-set analysis can run without the
// (64 GB of) kernel images; this is the equivalent: distill images once
// with `depsurf dataset build`, query the compact file forever after.
//
// Two on-disk formats coexist:
//  - v1 ("DDS1"): ULEB128 sequential encoding. Compact, but every open is a
//    full parse — the wrong shape for a long-lived query server.
//  - v2 ("DDS2"): page-aligned sections, an offset-based interned string
//    table, and flat per-image record arrays sorted by name id, so a file
//    opens via mmap in O(pages touched) and `MmapDataset` answers queries
//    with zero-copy string/record views (see docs/FORMATS.md §6a).
// `depsurf dataset migrate` converts v1 -> v2 byte-deterministically.
#ifndef DEPSURF_SRC_CORE_DATASET_IO_H_
#define DEPSURF_SRC_CORE_DATASET_IO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dataset.h"
#include "src/core/dataset_view.h"

namespace depsurf {

inline constexpr uint32_t kDatasetMagic = 0x31534444;    // "DDS1"
inline constexpr uint32_t kDatasetMagicV2 = 0x32534444;  // "DDS2"
// Every v2 section starts on a page boundary so a query touches only the
// pages its binary searches land on.
inline constexpr uint32_t kDatasetV2PageSize = 4096;

// Compact binary encoding (string pool + per-image records).
std::vector<uint8_t> SaveDataset(const Dataset& dataset);

// Parses a v1 dataset file; validates the magic, bounds, string ids, and
// the record order the queries' binary searches rely on (docs/FORMATS.md §6).
Result<Dataset> LoadDataset(const std::vector<uint8_t>& bytes);

// Emits the mmap-friendly v2 layout. The v2 string pool preserves every v1
// pool id and appends transform suffixes / diagnostic messages after them,
// so migration is deterministic byte-for-byte.
std::vector<uint8_t> SaveDatasetV2(const Dataset& dataset);

// Full strict parse of a v2 buffer into an in-memory Dataset (the path for
// `dataset info`, `analyze`/`fix --against` and other whole-file consumers;
// servers use MmapDataset). Rejects what LoadDataset rejects.
Result<Dataset> LoadDatasetV2(const std::vector<uint8_t>& bytes);

// Dispatches on the magic; accepts v1 and v2 buffers.
Result<Dataset> LoadAnyDataset(const std::vector<uint8_t>& bytes);

// 1 or 2; kMalformedData when the buffer carries neither magic.
Result<int> DatasetFormatVersion(const std::vector<uint8_t>& bytes);

// The header and section table of a `.dds` v2 buffer, as validated by
// MmapDataset and LoadDatasetV2 (docs/FORMATS.md §6a).
struct V2Header {
  struct Section {
    uint64_t offset = 0;
    uint64_t size = 0;
  };
  uint32_t image_count = 0;
  uint32_t string_count = 0;
  Section sections[11];  // by section kind, 1..10
};

// Zero-copy read view over a `.dds` v2 file. Open() maps the file and
// validates the header + section table once (O(sections)); every query then
// touches only the pages its lookups land on. The view supplies the record
// interface of dataset_view.h by decoding entries in place:
//  - Bounds are re-checked on every access, so a range outside its section
//    reads as "no record" and a truncated or bit-flipped file never crashes.
//  - Each binary-searched run is checked once, on first use: an image's
//    function, struct (with each struct's field pairs), tracepoint and
//    syscall runs, and the sorted string index. A run that breaks its order
//    makes every query that reaches it report the message LoadDatasetV2
//    gives for the same bytes (e.g. "function name ids not strictly
//    ascending"), never an answer. The verdicts are atomics, so concurrent
//    queries may race to compute them.
class MmapDataset : public DatasetView {
 public:
  static Result<MmapDataset> Open(const std::string& path);
  // Adopts an in-memory buffer instead of a file mapping (tests, sockets).
  static Result<MmapDataset> FromBytes(std::vector<uint8_t> bytes);

  size_t num_images() const override { return header_.image_count; }

 private:
  MmapDataset() = default;
  Status Attach(const uint8_t* data, size_t size);
  const uint8_t* ImageHeader(size_t image_index) const;
  // The entry named `name` in one image's run of a kind (dataset_io.cc),
  // once the run checks out.
  const uint8_t* FindEntry(size_t image, size_t run, StrId name, Status* error) const;
  // The memoized check of one run or of the string index (a verdict code).
  uint8_t CheckRun(size_t image, size_t run) const;
  uint8_t CheckIndex() const;

  StrId LookupId(std::string_view text, Status* error) const override;
  std::optional<std::string_view> StringViewAt(StrId id) const override;
  std::optional<FuncRecord> FindFunc(size_t image, StrId name, Status* error) const override;
  std::optional<StructRecord> FindStruct(size_t image, StrId name, Status* error) const override;
  std::optional<TracepointRecord> FindTracepoint(size_t image, StrId name,
                                                 Status* error) const override;
  bool HasSyscall(size_t image, StrId name, Status* error) const override;
  std::optional<PairRun> PairRunAt(uint32_t begin, uint32_t count) const override;
  uint64_t PtRegsHashAt(size_t image) const override;
  std::string_view ImageLabel(size_t image) const override;
  SurfaceMeta ImageMeta(size_t image) const override;
  SurfaceHealth ImageHealth(size_t image) const override;

  struct Unmap {
    size_t length;
    void operator()(void* base) const;
  };

  const uint8_t* data_ = nullptr;  // into mapping_ or owned_ (moves keep it valid)
  std::unique_ptr<void, Unmap> mapping_;  // set when backed by mmap
  std::vector<uint8_t> owned_;            // set when backed by FromBytes
  V2Header header_;
  // Verdicts: one per (image, searched run kind), then the string index.
  std::unique_ptr<std::atomic<uint8_t>[]> verdicts_;
};

// A dataset opened for querying, either format: v1 loads fully, v2 maps.
struct OpenedDataset {
  std::unique_ptr<DatasetView> view;
  int format = 1;
};
Result<OpenedDataset> OpenDatasetView(const std::string& path);

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_IO_H_
