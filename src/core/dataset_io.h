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

// Zero-copy read view over a `.dds` v2 file. Open() maps the file and
// validates the header + section table once (O(sections)); every query then
// touches only the pages its lookups land on. Record accessors re-check
// bounds on every access, so a truncated or bit-flipped file degrades to
// "absent" answers instead of crashing — corruption found at open time is
// reported as an error, corruption found later yields empty views.
class MmapDataset : public DatasetView {
 public:
  static Result<MmapDataset> Open(const std::string& path);
  // Adopts an in-memory buffer instead of a file mapping (tests, sockets).
  static Result<MmapDataset> FromBytes(std::vector<uint8_t> bytes);

  MmapDataset(MmapDataset&& other) noexcept;
  MmapDataset& operator=(MmapDataset&& other) noexcept;
  MmapDataset(const MmapDataset&) = delete;
  MmapDataset& operator=(const MmapDataset&) = delete;
  ~MmapDataset() override;

  size_t num_images() const override { return image_count_; }
  std::vector<std::string> labels() const override;
  SurfaceMeta MetaAt(size_t image_index) const override;
  std::string HealthSummaryAt(size_t image_index) const override;
  bool AnyDegradedAt(size_t image_index) const override;

  std::vector<std::set<MismatchKind>> CheckFunc(const std::string& name) const override;
  std::vector<std::set<MismatchKind>> CheckStruct(const std::string& name) const override;
  std::vector<std::set<MismatchKind>> CheckField(const std::string& struct_name,
                                                 const std::string& field_name,
                                                 const std::string& expected_type,
                                                 bool guarded) const override;
  std::vector<std::set<MismatchKind>> CheckTracepoint(const std::string& event) const override;
  std::vector<std::set<MismatchKind>> CheckSyscall(const std::string& name) const override;
  std::vector<std::set<MismatchKind>> CheckRegisters() const override;

  std::optional<std::string_view> FuncDeclAt(const std::string& name,
                                             size_t image_index) const override;
  std::optional<std::string_view> FieldTypeAt(const std::string& struct_name,
                                              const std::string& field_name,
                                              size_t image_index) const override;

  // Interned-pool introspection (stats/debugging).
  uint32_t string_count() const { return string_count_; }
  size_t byte_size() const { return size_; }
  // Zero-copy string view; nullopt for out-of-range ids or corrupt offsets.
  std::optional<std::string_view> StringViewAt(StrId id) const;
  // Binary search over the lexicographically sorted id index.
  StrId LookupId(std::string_view s) const;

 private:
  struct Section {
    uint64_t offset = 0;
    uint64_t size = 0;
  };

  MmapDataset() = default;
  Status Attach(const uint8_t* data, size_t size);
  const uint8_t* ImageHeader(size_t image_index) const;
  const Section& SectionOf(uint32_t kind) const { return sections_[kind]; }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  void* map_base_ = nullptr;  // non-null when backed by mmap
  size_t map_len_ = 0;
  std::vector<uint8_t> owned_;  // non-empty when backed by FromBytes
  uint32_t image_count_ = 0;
  uint32_t string_count_ = 0;
  std::vector<Section> sections_;  // indexed by section kind (1..10)
};

// A dataset opened for querying, either format: v1 loads fully, v2 maps.
struct OpenedDataset {
  std::unique_ptr<DatasetView> view;
  int format = 1;
  size_t images = 0;
};
Result<OpenedDataset> OpenDatasetView(const std::string& path);

}  // namespace depsurf

#endif  // DEPSURF_SRC_CORE_DATASET_IO_H_
