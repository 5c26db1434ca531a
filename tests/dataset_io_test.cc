// Round-trip and robustness tests for dataset serialization (the published
// dataset artifact format).
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <set>

#include "src/core/dataset_io.h"
#include "src/core/depsurf.h"
#include "src/elf/elf_reader.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/kernelgen/rates.h"
#include "src/kernelgen/scripted.h"
#include "src/obs/run_report.h"
#include "src/serve/serve.h"
#include "src/util/byte_buffer.h"
#include "src/util/leb128.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace {

Dataset SmallDataset() {
  Dataset dataset;
  KernelModel model(2025, 0.01, BuildCuratedCatalog());
  for (KernelVersion version : {KernelVersion(5, 4), KernelVersion(6, 2)}) {
    auto kernel = model.Configure(MakeBuild(version));
    EXPECT_TRUE(kernel.ok());
    auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
    EXPECT_TRUE(bytes.ok());
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    EXPECT_TRUE(surface.ok());
    dataset.AddImage(version.Tag(), *surface);
  }
  return dataset;
}

TEST(DatasetIoTest, RoundTripPreservesQueries) {
  Dataset original = SmallDataset();
  std::vector<uint8_t> bytes = SaveDataset(original);
  EXPECT_GT(bytes.size(), 1000u);
  auto loaded = LoadDataset(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();

  EXPECT_EQ(loaded->num_images(), original.num_images());
  EXPECT_EQ(loaded->labels(), original.labels());
  // Query equivalence on scripted constructs with known behavior.
  for (const char* func : {"blk_account_io_start", "vfs_fsync", "__page_cache_alloc",
                           "get_order", "no_such_function"}) {
    EXPECT_EQ(loaded->CheckFunc(func), original.CheckFunc(func)) << func;
  }
  EXPECT_EQ(loaded->CheckStruct("request"), original.CheckStruct("request"));
  EXPECT_EQ(loaded->CheckField("request", "rq_disk", "struct gendisk *", false),
            original.CheckField("request", "rq_disk", "struct gendisk *", false));
  EXPECT_EQ(loaded->CheckTracepoint("block_rq_issue"), original.CheckTracepoint("block_rq_issue"));
  EXPECT_EQ(loaded->CheckSyscall("openat2"), original.CheckSyscall("openat2"));
  EXPECT_EQ(loaded->CheckRegisters(), original.CheckRegisters());

  // Metadata survives.
  EXPECT_EQ(loaded->images()[0].meta.version_minor, 4);
  EXPECT_EQ(loaded->images()[1].meta.gcc_major, 12);
  EXPECT_EQ(loaded->images()[0].meta.arch, "x86");
}

TEST(DatasetIoTest, HealthAndLedgerSurviveRoundTrip) {
  // Distill one clean image and one whose DWARF was corrupted, and check
  // the degradation provenance (states + ledger entries) round-trips.
  Dataset dataset;
  KernelModel model(2025, 0.01, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());

  auto clean = DependencySurface::Extract(*bytes);
  ASSERT_TRUE(clean.ok());
  dataset.AddImage("clean", *clean);

  std::vector<uint8_t> damaged = bytes.TakeValue();
  auto elf = ElfReader::Parse(damaged);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
  ASSERT_NE(info, nullptr);
  for (size_t i = 0; i < 16 && i < info->size; ++i) {
    damaged[static_cast<size_t>(info->offset) + i] = 0xff;
  }
  auto salvaged = DependencySurface::Extract(std::move(damaged));
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->health().dwarf, DegradationState::kDegraded);
  dataset.AddImage("salvaged", *salvaged);

  auto loaded = LoadDataset(SaveDataset(dataset));
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  ASSERT_EQ(loaded->num_images(), 2u);
  const ImageRecord& a = loaded->images()[0];
  const ImageRecord& b = loaded->images()[1];
  EXPECT_FALSE(a.AnyDegraded());
  EXPECT_EQ(a.health.ledger.size(), 0u);
  EXPECT_TRUE(b.AnyDegraded());
  EXPECT_EQ(b.health.dwarf, DegradationState::kDegraded);
  ASSERT_EQ(b.health.ledger.size(), salvaged->health().ledger.size());
  for (size_t i = 0; i < b.health.ledger.size(); ++i) {
    const DiagnosticEntry& got = b.health.ledger.entries()[i];
    const DiagnosticEntry& want = salvaged->health().ledger.entries()[i];
    EXPECT_EQ(got.severity, want.severity);
    EXPECT_EQ(got.subsystem, want.subsystem);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.has_offset, want.has_offset);
    EXPECT_EQ(got.offset, want.offset);
    EXPECT_EQ(got.message, want.message);
  }
}

TEST(DatasetIoTest, RoundTripIsByteStable) {
  Dataset original = SmallDataset();
  std::vector<uint8_t> once = SaveDataset(original);
  auto loaded = LoadDataset(once);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(SaveDataset(*loaded), once);
}

TEST(DatasetIoTest, RejectsCorruptedInput) {
  std::vector<uint8_t> bytes = SaveDataset(SmallDataset());
  // Bad magic.
  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(LoadDataset(bad_magic).ok());
  // Truncations at various points must error, not crash.
  for (size_t cut : {4ul, 64ul, bytes.size() / 2, bytes.size() - 3}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(LoadDataset(truncated).ok()) << cut;
  }
  EXPECT_FALSE(LoadDataset({}).ok());
}

// The full bundled LTS corpus, at a scale small enough for test time.
const Dataset& LtsDataset() {
  static const Dataset dataset = [] {
    Dataset d;
    KernelModel model(2025, 0.005, BuildCuratedCatalog());
    for (KernelVersion version : kLtsVersions) {
      auto kernel = model.Configure(MakeBuild(version));
      EXPECT_TRUE(kernel.ok());
      auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
      EXPECT_TRUE(bytes.ok());
      auto surface = DependencySurface::Extract(bytes.TakeValue());
      EXPECT_TRUE(surface.ok());
      d.AddImage(version.Tag(), *surface);
    }
    return d;
  }();
  return dataset;
}

// The names every view is queried with: every string in the dataset's pool
// (function, struct, field, tracepoint and syscall names among them), every
// (struct, field, type) a struct carries on some image, and absent ones.
struct QueryNames {
  std::vector<std::string> names;
  std::set<std::array<std::string, 3>> fields;
};

QueryNames NamesOf(const Dataset& dataset) {
  QueryNames q;
  for (size_t i = 0; i < dataset.pool_size(); ++i) {
    q.names.emplace_back(dataset.StringAt(static_cast<StrId>(i)));
  }
  for (const char* absent : {"no_such_function", "no_such_struct", "no_such_event",
                             "no_such_call", "vfs_read.isra.0"}) {
    q.names.emplace_back(absent);
  }
  for (const ImageRecord& image : dataset.images()) {
    for (const StructRecord& record : image.structs) {
      std::string name(dataset.StringAt(record.name));
      for (const auto& [field, type] : dataset.Pairs(record.fields_begin, record.fields_count)) {
        q.fields.insert({name, std::string(dataset.StringAt(field)),
                         std::string(dataset.StringAt(type))});
      }
    }
  }
  q.fields.insert({"request", "no_such_field", "int"});
  q.fields.insert({"no_such_struct", "rq_disk", "struct gendisk *"});
  return q;
}

std::string Render(const std::vector<std::set<MismatchKind>>& cells) {
  std::string out;
  for (const std::set<MismatchKind>& cell : cells) {
    out += '|';
    for (MismatchKind kind : cell) {
      out += MismatchKindCode(kind);
    }
  }
  return out;
}

std::string Render(const std::optional<std::string_view>& text) {
  return text.has_value() ? "=" + std::string(*text) : "none";
}

// One line per query, for every query DatasetView offers. Per-image queries
// also run at the index one past the last image, which answers defaults.
std::vector<std::string> Transcript(const DatasetView& view, const QueryNames& q) {
  std::vector<std::string> out;
  out.push_back("labels " + JoinStrings(view.labels(), ","));
  for (size_t i = 0; i <= view.num_images(); ++i) {
    SurfaceMeta m = view.MetaAt(i);
    out.push_back(StrFormat("meta %zu v%d.%d %s %s gcc%d cfg%u %s", i, m.version_major,
                            m.version_minor, m.arch.c_str(), m.flavor.c_str(), m.gcc_major,
                            m.config_options, view.HealthSummaryAt(i).c_str()));
  }
  out.push_back("registers " + Render(view.CheckRegisters()));
  for (const std::string& name : q.names) {
    std::string decls;
    for (size_t i = 0; i <= view.num_images(); ++i) {
      decls += Render(view.FuncDeclAt(name, i)) + ";";
    }
    out.push_back(name + " func " + Render(view.CheckFunc(name)) + " " + decls);
    out.push_back(name + " struct " + Render(view.CheckStruct(name)));
    out.push_back(name + " tracepoint " + Render(view.CheckTracepoint(name)));
    out.push_back(name + " syscall " + Render(view.CheckSyscall(name)));
  }
  for (const auto& [st, field, type] : q.fields) {
    std::string types;
    for (size_t i = 0; i <= view.num_images(); ++i) {
      types += Render(view.FieldTypeAt(st, field, i)) + ";";
    }
    out.push_back(st + "." + field + " " + Render(view.CheckField(st, field, type, false)) +
                  " " + Render(view.CheckField(st, field, "", false)) + " " +
                  Render(view.CheckField(st, field, type, true)) + " " + types);
  }
  return out;
}

// Every DatasetView query, compared line for line against `want`.
void ExpectTranscript(const DatasetView& view, const QueryNames& q,
                      const std::vector<std::string>& want, const char* what) {
  std::vector<std::string> got = Transcript(view, q);
  ASSERT_EQ(got.size(), want.size()) << what;
  size_t mismatches = 0;
  for (size_t i = 0; i < got.size() && mismatches < 10; ++i) {
    if (got[i] != want[i]) {
      ADD_FAILURE() << what << ": got " << got[i] << "\n want " << want[i];
      ++mismatches;
    }
  }
}

void ExpectViewsAgree(const DatasetView& a, const DatasetView& b, const QueryNames& q) {
  ExpectTranscript(b, q, Transcript(a, q), "second view");
}

TEST(DatasetV2Test, MmapViewMatchesV1LoadOverLtsCorpus) {
  const Dataset& original = LtsDataset();
  auto v1 = LoadDataset(SaveDataset(original));
  ASSERT_TRUE(v1.ok()) << v1.error().ToString();
  auto v2_heap = LoadDatasetV2(SaveDatasetV2(original));
  ASSERT_TRUE(v2_heap.ok()) << v2_heap.error().ToString();
  auto v2 = MmapDataset::FromBytes(SaveDatasetV2(original));
  ASSERT_TRUE(v2.ok()) << v2.error().ToString();
  // A fresh distill, a v1 reload, a v2 heap reload and the mmap view answer
  // every query alike, for every name the dataset knows and some it lacks.
  const QueryNames names = NamesOf(original);
  ASSERT_GT(names.names.size(), 1000u);
  ASSERT_GT(names.fields.size(), 500u);
  const std::vector<std::string> want = Transcript(original, names);
  ExpectTranscript(*v1, names, want, "v1 reload");
  ExpectTranscript(*v2_heap, names, want, "v2 heap reload");
  ExpectTranscript(*v2, names, want, "v2 mmap view");

  // Whole-program analysis over the two views renders identically.
  DependencySet deps;
  deps.program = "probe";
  deps.funcs = {"blk_account_io_start", "vfs_read"};
  deps.fields["request"]["rq_disk"] = FieldDep{"struct gendisk *", false};
  deps.tracepoints = {"block_rq_issue"};
  deps.syscalls = {"openat2"};
  ProgramReport a = AnalyzeProgram(*v1, deps);
  ProgramReport b = AnalyzeProgram(*v2, deps);
  EXPECT_EQ(a.RenderMatrix(), b.RenderMatrix());
  EXPECT_EQ(a.WorstImplication(), b.WorstImplication());
}

TEST(DatasetV2Test, EmptyDatasetViewsAgree) {
  const Dataset empty;
  auto v1 = LoadDataset(SaveDataset(empty));
  ASSERT_TRUE(v1.ok()) << v1.error().ToString();
  auto v2_heap = LoadDatasetV2(SaveDatasetV2(empty));
  ASSERT_TRUE(v2_heap.ok()) << v2_heap.error().ToString();
  auto v2 = MmapDataset::FromBytes(SaveDatasetV2(empty));
  ASSERT_TRUE(v2.ok()) << v2.error().ToString();
  const QueryNames names = NamesOf(empty);
  const std::vector<std::string> want = Transcript(empty, names);
  ASSERT_GE(want.size(), 3u);
  EXPECT_EQ(want[0], "labels ");
  EXPECT_EQ(want[1], "meta 0 v0.0   gcc0 cfg0 clean");
  EXPECT_EQ(want[2], "registers ");
  ExpectTranscript(*v1, names, want, "v1 reload");
  ExpectTranscript(*v2_heap, names, want, "v2 heap reload");
  ExpectTranscript(*v2, names, want, "v2 mmap view");
}

TEST(DatasetV2Test, MigrateIsByteDeterministic) {
  const Dataset& original = LtsDataset();
  std::vector<uint8_t> first = SaveDatasetV2(original);
  std::vector<uint8_t> second = SaveDatasetV2(original);
  EXPECT_EQ(first, second);

  // Migrating an already-migrated dataset reproduces it exactly: v2 load
  // followed by v2 save is the identity on bytes.
  auto reloaded = LoadDatasetV2(first);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().ToString();
  EXPECT_EQ(SaveDatasetV2(*reloaded), first);

  // The v1 -> v2 path preserves every v1 string id (the v2 pool only
  // appends the suffix/diagnostic strings v1 stored inline), so migrating
  // the re-loaded dataset reproduces the same v2 bytes, and the round trip
  // is query-equivalent with the v1 load.
  std::vector<uint8_t> v1 = SaveDataset(original);
  auto v1_loaded = LoadDataset(v1);
  ASSERT_TRUE(v1_loaded.ok());
  EXPECT_EQ(SaveDatasetV2(*v1_loaded), first);
  auto via_v2 = LoadDatasetV2(first);
  ASSERT_TRUE(via_v2.ok());
  ExpectViewsAgree(*v1_loaded, *via_v2, NamesOf(original));
}

TEST(DatasetV2Test, FormatDetectionAndLoadAny) {
  Dataset original = SmallDataset();
  std::vector<uint8_t> v1 = SaveDataset(original);
  std::vector<uint8_t> v2 = SaveDatasetV2(original);
  ASSERT_TRUE(DatasetFormatVersion(v1).ok());
  EXPECT_EQ(*DatasetFormatVersion(v1), 1);
  ASSERT_TRUE(DatasetFormatVersion(v2).ok());
  EXPECT_EQ(*DatasetFormatVersion(v2), 2);
  EXPECT_FALSE(DatasetFormatVersion({0, 1, 2, 3}).ok());

  auto from_v1 = LoadAnyDataset(v1);
  auto from_v2 = LoadAnyDataset(v2);
  ASSERT_TRUE(from_v1.ok());
  ASSERT_TRUE(from_v2.ok()) << from_v2.error().ToString();
  EXPECT_EQ(from_v1->labels(), from_v2->labels());
  // Both loads canonicalize to the same v2 bytes. (v1 byte-identity is not
  // an invariant here: the v2 pool interns the suffix/diagnostic strings
  // that v1 stores inline, so a v2-loaded pool carries extra entries.)
  EXPECT_EQ(SaveDatasetV2(*from_v1), SaveDatasetV2(*from_v2));
}

TEST(DatasetV2Test, HealthAndDiagnosticsSurviveV2) {
  // Same salvage scenario as the v1 ledger test: a degraded image's states
  // and diagnostics must survive the v2 round trip and surface through the
  // mmap view's health summary.
  Dataset dataset;
  KernelModel model(2025, 0.01, BuildCuratedCatalog());
  auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
  ASSERT_TRUE(kernel.ok());
  auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> damaged = *bytes;
  auto elf = ElfReader::Parse(damaged);
  ASSERT_TRUE(elf.ok());
  const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
  ASSERT_NE(info, nullptr);
  for (size_t i = 0; i < 16 && i < info->size; ++i) {
    damaged[static_cast<size_t>(info->offset) + i] = 0xff;
  }
  auto salvaged = DependencySurface::Extract(std::move(damaged));
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->health().dwarf, DegradationState::kDegraded);
  dataset.AddImage("salvaged", *salvaged);

  std::vector<uint8_t> v2 = SaveDatasetV2(dataset);
  auto view = MmapDataset::FromBytes(v2);
  ASSERT_TRUE(view.ok()) << view.error().ToString();
  EXPECT_EQ(view->HealthSummaryAt(0), "dwarf=degraded");
  EXPECT_EQ(view->HealthSummaryAt(0), dataset.HealthSummaryAt(0));

  auto reloaded = LoadDatasetV2(v2);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->images()[0].health.ledger.size(),
            dataset.images()[0].health.ledger.size());
  EXPECT_EQ(reloaded->images()[0].health.ledger.entries()[0].message,
            dataset.images()[0].health.ledger.entries()[0].message);
}

// Runs every query against a possibly-corrupt view; the only contract is
// "never crash" — results may degrade to absent.
void PokeAllQueries(const MmapDataset& view) {
  for (size_t i = 0; i < view.num_images(); ++i) {
    view.MetaAt(i);
    view.HealthSummaryAt(i);
  }
  view.labels();
  view.CheckFunc("vfs_read");
  view.FuncDeclAt("vfs_read", 0);
  view.CheckStruct("request");
  view.CheckField("request", "rq_disk", "struct gendisk *", false);
  view.FieldTypeAt("request", "rq_disk", 0);
  view.CheckTracepoint("block_rq_issue");
  view.CheckSyscall("openat2");
  view.CheckRegisters();
}

TEST(DatasetV2Test, MmapViewSurvivesTruncation) {
  std::vector<uint8_t> v2 = SaveDatasetV2(SmallDataset());
  // Truncation anywhere must be rejected at Open (the header records the
  // exact file size) — and must never crash.
  for (size_t cut : {0ul, 4ul, 39ul, 40ul, 4095ul, 4096ul, v2.size() / 2, v2.size() - 1}) {
    std::vector<uint8_t> truncated(v2.begin(), v2.begin() + cut);
    auto view = MmapDataset::FromBytes(std::move(truncated));
    EXPECT_FALSE(view.ok()) << "cut at " << cut;
  }
}

TEST(DatasetV2Test, MmapViewSurvivesHeaderAndIndexMutations) {
  std::vector<uint8_t> v2 = SaveDatasetV2(SmallDataset());
  // Seeded byte flips across the header, section table, and the first
  // pages of every index. Attach may reject the file; if it accepts,
  // every query must complete without crashing.
  Prng prng(2025);
  const size_t probe_limit = std::min(v2.size(), size_t{64} * 1024);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> mutated = v2;
    size_t offset = static_cast<size_t>(prng.NextBelow(probe_limit));
    mutated[offset] ^= static_cast<uint8_t>(1 + prng.NextBelow(255));
    auto view = MmapDataset::FromBytes(std::move(mutated));
    if (view.ok()) {
      PokeAllQueries(*view);
    }
  }
  // Targeted section-table damage: huge offsets/sizes and kind renumbering
  // must be rejected outright (the table is fully validated at attach).
  for (size_t entry = 0; entry < 10; ++entry) {
    std::vector<uint8_t> mutated = v2;
    size_t base = 40 + entry * 24;
    for (size_t i = 0; i < 8; ++i) {
      mutated[base + 8 + i] = 0xff;  // offset -> ~2^64
    }
    EXPECT_FALSE(MmapDataset::FromBytes(std::move(mutated)).ok()) << entry;
  }
}

TEST(DatasetV2Test, OpenDatasetViewDispatchesOnMagic) {
  Dataset original = SmallDataset();
  char tmpl[] = "/tmp/depsurf_dsio_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string v1_path = std::string(dir) + "/a.dds";
  const std::string v2_path = std::string(dir) + "/b.dds";
  for (const auto& [path, bytes] :
       {std::pair<std::string, std::vector<uint8_t>>{v1_path, SaveDataset(original)},
        {v2_path, SaveDatasetV2(original)}}) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  auto v1 = OpenDatasetView(v1_path);
  ASSERT_TRUE(v1.ok()) << v1.error().ToString();
  EXPECT_EQ(v1->format, 1);
  auto v2 = OpenDatasetView(v2_path);
  ASSERT_TRUE(v2.ok()) << v2.error().ToString();
  EXPECT_EQ(v2->format, 2);
  EXPECT_EQ(v1->view->num_images(), v2->view->num_images());
  ExpectViewsAgree(*v1->view, *v2->view, NamesOf(original));
  EXPECT_FALSE(OpenDatasetView(std::string(dir) + "/missing.dds").ok());
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
  rmdir(dir);
}

TEST(DatasetIoTest, AnalysisOnLoadedDatasetMatches) {
  Dataset original = SmallDataset();
  auto loaded = LoadDataset(SaveDataset(original));
  ASSERT_TRUE(loaded.ok());
  DependencySet deps;
  deps.program = "probe";
  deps.funcs = {"blk_account_io_start", "blk_mq_start_request"};
  deps.fields["request"]["rq_disk"] = FieldDep{"struct gendisk *", false};
  ProgramReport a = AnalyzeProgram(original, deps);
  ProgramReport b = AnalyzeProgram(*loaded, deps);
  EXPECT_EQ(a.RenderMatrix(), b.RenderMatrix());
}

// ---------------------------------------------------------------------------
// Loader rejections: one corrupted field per case, and the exact message.
// ---------------------------------------------------------------------------

// What a hand-written v1 file gets wrong (kNone: nothing).
enum class V1Fault {
  kNone,
  kBadMagic,
  kCountsBeyondBuffer,
  kDuplicatePoolString,
  kFuncCountBeyondBuffer,
  kFuncNameOutOfRange,
  kDeclOutOfRange,
  kStructCountBeyondBuffer,
  kStructNameOutOfRange,
  kPairCountBeyondBuffer,
  kPairIdOutOfRange,
  kTracepointCountBeyondBuffer,
  kTracepointNameOutOfRange,
  kSyscallCountBeyondBuffer,
  kSyscallIdOutOfRange,
  kBadDegradationState,
  kDiagCountBeyondBuffer,
  kBadDiagSeverity,
  kBadDiagSubsystem,
  kBadDiagCode,
  // Ordering faults a binary search would answer wrong on.
  kFuncsOutOfOrder,
  kFuncsDuplicated,
  kStructsDuplicated,
  kTracepointsOutOfOrder,
  kSyscallsOutOfOrder,
  kFieldsUnsorted,
};

// A one-image v1 file written field by field (docs/FORMATS.md §6), so a
// case corrupts exactly the field it names.
std::vector<uint8_t> EncodeV1(V1Fault fault) {
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  const std::vector<std::string> pool = {
      "vfs_read", "vfs_write", "task_struct", "pid",   "int",
      "comm",     "char [16]", "sched_switch", "openat", "close",
      "ssize_t vfs_read(struct file *file)"};
  const uint64_t n = pool.size();
  auto pick = [fault](V1Fault when, uint64_t bad, uint64_t good) {
    return fault == when ? bad : good;
  };
  ByteWriter w(Endian::kLittle);
  w.WriteU32(fault == V1Fault::kBadMagic ? 0x31534445 : kDatasetMagic);
  WriteUleb128(w, pick(V1Fault::kCountsBeyondBuffer, kHuge, n));
  WriteUleb128(w, 1);
  for (size_t i = 0; i < pool.size(); ++i) {
    w.WriteCString(fault == V1Fault::kDuplicatePoolString && i == 1 ? pool[0] : pool[i]);
  }
  w.WriteCString("v5.4-x86");
  w.WriteU16(5);
  w.WriteU16(4);
  w.WriteCString("generic");
  w.WriteCString("x86");
  w.WriteU8(9);
  w.WriteU8(8);
  w.WriteU8(0);
  w.WriteU32(0x1234);
  w.WriteU8(1);
  w.WriteU64(0x9e11);

  // Functions: vfs_read (decl 10), vfs_write (no decl: encoded as n).
  WriteUleb128(w, pick(V1Fault::kFuncCountBeyondBuffer, kHuge, 2));
  std::vector<uint64_t> func_names = {0, 1};
  if (fault == V1Fault::kFuncsOutOfOrder) {
    func_names = {1, 0};
  } else if (fault == V1Fault::kFuncsDuplicated) {
    func_names = {0, 0};
  }
  for (size_t i = 0; i < 2; ++i) {
    WriteUleb128(w, i == 0 ? pick(V1Fault::kFuncNameOutOfRange, n, func_names[0])
                           : func_names[1]);
    w.WriteU8(kFuncExactSymbol);
    w.WriteCString(i == 1 ? ".isra.0" : "");
    w.WriteU64(0xabc0 + i);
    WriteUleb128(w, i == 0 ? pick(V1Fault::kDeclOutOfRange, n + 1, 10) : n);
  }
  // Structs: task_struct {pid: int, comm: char [16]}.
  const bool two_structs = fault == V1Fault::kStructsDuplicated;
  WriteUleb128(w, pick(V1Fault::kStructCountBeyondBuffer, kHuge, two_structs ? 2 : 1));
  for (int i = 0; i < (two_structs ? 2 : 1); ++i) {
    WriteUleb128(w, pick(V1Fault::kStructNameOutOfRange, n + 5, 2));
    WriteUleb128(w, pick(V1Fault::kPairCountBeyondBuffer, kHuge, 2));
    const bool swap = fault == V1Fault::kFieldsUnsorted;
    WriteUleb128(w, swap ? 5 : 3);
    WriteUleb128(w, swap ? 6 : pick(V1Fault::kPairIdOutOfRange, n, 4));
    WriteUleb128(w, swap ? 3 : 5);
    WriteUleb128(w, swap ? 4 : 6);
  }
  // Tracepoints: sched_switch (params and fields {pid: int}); openat also
  // in the out-of-order case.
  const bool two_tps = fault == V1Fault::kTracepointsOutOfOrder;
  WriteUleb128(w, pick(V1Fault::kTracepointCountBeyondBuffer, kHuge, two_tps ? 2 : 1));
  for (uint64_t name : two_tps ? std::vector<uint64_t>{8, 7} : std::vector<uint64_t>{7}) {
    WriteUleb128(w, pick(V1Fault::kTracepointNameOutOfRange, n, name));
    for (int list = 0; list < 2; ++list) {
      WriteUleb128(w, 1);
      WriteUleb128(w, 3);
      WriteUleb128(w, 4);
    }
  }
  // Syscalls: openat, close.
  WriteUleb128(w, pick(V1Fault::kSyscallCountBeyondBuffer, kHuge, 2));
  const bool swap_sys = fault == V1Fault::kSyscallsOutOfOrder;
  WriteUleb128(w, swap_sys ? 9 : 8);
  WriteUleb128(w, swap_sys ? 8 : pick(V1Fault::kSyscallIdOutOfRange, n, 9));
  // Health, then one diagnostic.
  w.WriteU8(0);
  w.WriteU8(static_cast<uint8_t>(pick(V1Fault::kBadDegradationState, 9, 1)));
  w.WriteU8(0);
  w.WriteU8(0);
  w.WriteU8(0);
  WriteUleb128(w, pick(V1Fault::kDiagCountBeyondBuffer, kHuge, 1));
  w.WriteU8(static_cast<uint8_t>(pick(V1Fault::kBadDiagSeverity, 200, 1)));
  w.WriteU8(static_cast<uint8_t>(pick(V1Fault::kBadDiagSubsystem, 200, 1)));
  w.WriteU8(static_cast<uint8_t>(pick(V1Fault::kBadDiagCode, 200, 2)));
  w.WriteU8(1);
  w.WriteU64(64);
  w.WriteCString("abbrev table truncated");
  return w.TakeBytes();
}

TEST(DatasetLoadRejectionTest, HandWrittenV1FileLoads) {
  auto loaded = LoadDataset(EncodeV1(V1Fault::kNone));
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  ASSERT_EQ(loaded->num_images(), 1u);
  EXPECT_EQ(Render(loaded->CheckFunc("vfs_read")), "|");
  EXPECT_EQ(loaded->FuncDeclAt("vfs_read", 0), "ssize_t vfs_read(struct file *file)");
  EXPECT_EQ(loaded->FuncDeclAt("vfs_write", 0), std::nullopt);
  EXPECT_EQ(loaded->FieldTypeAt("task_struct", "comm", 0), "char [16]");
  EXPECT_EQ(Render(loaded->CheckTracepoint("sched_switch")), "|");
  EXPECT_EQ(Render(loaded->CheckSyscall("close")), "|");
  EXPECT_EQ(Render(loaded->CheckSyscall("pid")), "|-");
  EXPECT_EQ(loaded->HealthSummaryAt(0), "dwarf=degraded");
  // The v1 bytes round-trip, the v2 ones too.
  EXPECT_EQ(SaveDataset(*loaded), EncodeV1(V1Fault::kNone));
  auto v2 = LoadDatasetV2(SaveDatasetV2(*loaded));
  ASSERT_TRUE(v2.ok()) << v2.error().ToString();
  EXPECT_EQ(SaveDatasetV2(*v2), SaveDatasetV2(*loaded));
}

TEST(DatasetLoadRejectionTest, V1RejectsEachCorruptField) {
  const std::pair<V1Fault, const char*> cases[] = {
      {V1Fault::kBadMagic, "not a depsurf dataset (bad magic)"},
      {V1Fault::kCountsBeyondBuffer, "counts beyond buffer"},
      {V1Fault::kDuplicatePoolString, "duplicate string in pool"},
      {V1Fault::kFuncCountBeyondBuffer, "function count beyond buffer"},
      {V1Fault::kFuncNameOutOfRange, "function name id out of range"},
      {V1Fault::kDeclOutOfRange, "decl id out of range"},
      {V1Fault::kStructCountBeyondBuffer, "struct count beyond buffer"},
      {V1Fault::kStructNameOutOfRange, "struct name id out of range"},
      {V1Fault::kPairCountBeyondBuffer, "pair count beyond buffer"},
      {V1Fault::kPairIdOutOfRange, "string id out of range"},
      {V1Fault::kTracepointCountBeyondBuffer, "tracepoint count beyond buffer"},
      {V1Fault::kTracepointNameOutOfRange, "tracepoint name id out of range"},
      {V1Fault::kSyscallCountBeyondBuffer, "syscall count beyond buffer"},
      {V1Fault::kSyscallIdOutOfRange, "syscall id out of range"},
      {V1Fault::kBadDegradationState, "bad degradation state"},
      {V1Fault::kDiagCountBeyondBuffer, "diagnostic count beyond buffer"},
      {V1Fault::kBadDiagSeverity, "bad diagnostic severity"},
      {V1Fault::kBadDiagSubsystem, "bad diagnostic subsystem"},
      {V1Fault::kBadDiagCode, "bad diagnostic error code"},
  };
  for (const auto& [fault, message] : cases) {
    auto loaded = LoadDataset(EncodeV1(fault));
    ASSERT_FALSE(loaded.ok()) << message;
    EXPECT_EQ(loaded.error().code(), ErrorCode::kMalformedData) << message;
    EXPECT_EQ(loaded.error().message(), message);
  }
}

TEST(DatasetLoadRejectionTest, V1RejectsUnsortedOrDuplicatedRecords) {
  const std::pair<V1Fault, const char*> cases[] = {
      {V1Fault::kFuncsOutOfOrder, "function name ids not strictly ascending"},
      {V1Fault::kFuncsDuplicated, "function name ids not strictly ascending"},
      {V1Fault::kStructsDuplicated, "struct name ids not strictly ascending"},
      {V1Fault::kTracepointsOutOfOrder, "tracepoint name ids not strictly ascending"},
      {V1Fault::kSyscallsOutOfOrder, "syscall name ids not strictly ascending"},
      {V1Fault::kFieldsUnsorted, "struct field pairs not sorted"},
  };
  for (const auto& [fault, message] : cases) {
    auto loaded = LoadDataset(EncodeV1(fault));
    ASSERT_FALSE(loaded.ok()) << message;
    EXPECT_EQ(loaded.error().code(), ErrorCode::kMalformedData) << message;
    EXPECT_EQ(loaded.error().message(), message);
  }
}

// A v2 file patched in place: offsets follow docs/FORMATS.md §6a.
class V2File {
 public:
  explicit V2File(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::vector<uint8_t>& bytes() { return bytes_; }
  uint32_t string_count() const { return U32(28); }
  uint64_t SectionOffset(uint32_t kind) const { return U64(40 + (kind - 1) * 24 + 8); }
  uint64_t SectionSize(uint32_t kind) const { return U64(40 + (kind - 1) * 24 + 16); }
  // Byte offset of image 0's header, and of entry `i` of a record section.
  uint64_t Image() const { return SectionOffset(4); }
  uint64_t Entry(uint32_t kind, uint64_t stride, uint64_t i) const {
    return SectionOffset(kind) + i * stride;
  }
  // Where string `id` starts in the file, and its length.
  uint64_t StringAt(uint32_t id) const {
    return SectionOffset(2) + U64(SectionOffset(1) + uint64_t{id} * 8);
  }
  uint64_t StringSize(uint32_t id) const {
    return U64(SectionOffset(1) + (uint64_t{id} + 1) * 8) -
           U64(SectionOffset(1) + uint64_t{id} * 8) - 1;
  }

  uint32_t U32(uint64_t at) const {
    uint32_t v;
    std::memcpy(&v, bytes_.data() + at, 4);
    return v;
  }
  uint64_t U64(uint64_t at) const {
    uint64_t v;
    std::memcpy(&v, bytes_.data() + at, 8);
    return v;
  }
  void SetU32(uint64_t at, uint32_t v) { std::memcpy(bytes_.data() + at, &v, 4); }
  void SetU64(uint64_t at, uint64_t v) { std::memcpy(bytes_.data() + at, &v, 8); }
  void SwapBytes(uint64_t a, uint64_t b, size_t len) {
    std::swap_ranges(bytes_.begin() + a, bytes_.begin() + a + len, bytes_.begin() + b);
  }

 private:
  std::vector<uint8_t> bytes_;
};

// One salvaged image (so the ledger has entries) as v2 bytes.
const std::vector<uint8_t>& SalvagedV2() {
  static const std::vector<uint8_t> bytes = [] {
    KernelModel model(2025, 0.01, BuildCuratedCatalog());
    auto kernel = model.Configure(MakeBuild(KernelVersion(5, 4)));
    EXPECT_TRUE(kernel.ok());
    auto image = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
    EXPECT_TRUE(image.ok());
    std::vector<uint8_t> damaged = image.TakeValue();
    auto elf = ElfReader::Parse(damaged);
    EXPECT_TRUE(elf.ok());
    const ElfSectionView* info = elf->SectionByName(".sdwarf_info");
    for (size_t i = 0; info != nullptr && i < 16 && i < info->size; ++i) {
      damaged[static_cast<size_t>(info->offset) + i] = 0xff;
    }
    auto surface = DependencySurface::Extract(std::move(damaged));
    EXPECT_TRUE(surface.ok());
    Dataset dataset;
    dataset.AddImage("salvaged", *surface);
    return SaveDatasetV2(dataset);
  }();
  return bytes;
}

constexpr uint32_t kFuncs = 5, kStructs = 6, kTracepoints = 7, kSyscalls = 8, kPairs = 9,
                   kDiags = 10;

// Which readers must reject a patched file with the case's message. The
// heap loader walks every record; the mmap view checks the runs it binary
// searches (and the sorted string index, which the loader never reads) on
// first touch, and only the image headers at open (kOpen).
enum class Rejects { kHeap, kBoth, kMmap, kOpen };

struct V2Case {
  const char* message;
  std::function<void(V2File&)> patch;
  Rejects rejects = Rejects::kHeap;
};

// The first struct with at least two distinct field pairs; its entry index.
uint64_t StructWithTwoFields(const V2File& f) {
  uint32_t count = f.U32(f.Image() + 52);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t e = f.Entry(kStructs, 12, i);
    uint64_t pair = f.Entry(kPairs, 8, f.U32(e + 4));
    if (f.U32(e + 8) >= 2 && f.U64(pair) != f.U64(pair + 8)) {
      return i;
    }
  }
  ADD_FAILURE() << "no struct with two distinct fields";
  return 0;
}

// A request that reaches every searched run of the fixture's image: two
// functions, a field of a two-field struct, a tracepoint and a syscall.
DependencySet ProbeDeps() {
  V2File file(SalvagedV2());
  auto loaded = LoadDatasetV2(file.bytes());
  EXPECT_TRUE(loaded.ok());
  const ImageRecord& image = loaded->images()[0];
  auto name = [&](StrId id) { return std::string(loaded->StringAt(id)); };
  DependencySet deps;
  deps.program = "probe";
  deps.funcs = {name(image.funcs[0].name), name(image.funcs[1].name)};
  const StructRecord& st = image.structs[StructWithTwoFields(file)];
  const auto& [field, type] = loaded->Pairs(st.fields_begin, st.fields_count)[0];
  deps.fields[name(st.name)][name(field)] = FieldDep{name(type), false};
  deps.tracepoints = {name(image.tracepoints[0].name)};
  deps.syscalls = {name(image.syscalls[0])};
  return deps;
}

// ProbeDeps as a serve request line.
std::string ProbeRequest(const DependencySet& deps) {
  auto list = [](const std::set<std::string>& names) {
    std::vector<std::string> quoted;
    for (const std::string& n : names) {
      quoted.push_back("\"" + obs::JsonEscape(n) + "\"");
    }
    return "[" + JoinStrings(quoted, ", ") + "]";
  };
  const auto& [st, fields] = *deps.fields.begin();
  const auto& [field, dep] = *fields.begin();
  return "{\"id\": 1, \"program\": \"probe\", \"funcs\": " + list(deps.funcs) +
         ", \"fields\": {\"" + obs::JsonEscape(st) + "\": {\"" + obs::JsonEscape(field) +
         "\": {\"type\": \"" + obs::JsonEscape(dep.expected_type) +
         "\", \"guarded\": false}}}, \"tracepoints\": " + list(deps.tracepoints) +
         ", \"syscalls\": " + list(deps.syscalls) + "}";
}

// Serves `request` twice in one batch, then once more in a second batch
// (which a cached answer would serve as a hit), from `bytes` written to
// `path`; the responses, or the open error.
std::vector<std::string> ServeTwice(const std::string& path, const std::vector<uint8_t>& bytes,
                                    const std::string& request) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  ServeOptions options;
  options.jobs = 2;
  auto engine = ServeEngine::Open({path}, options);
  if (!engine.ok()) {
    return {engine.error().message()};
  }
  std::vector<std::string> responses = engine->HandleBatch({request, request});
  responses.push_back(engine->HandleBatch({request})[0]);
  return responses;
}

void ExpectV2Rejections(const std::vector<V2Case>& cases) {
  {
    V2File file(SalvagedV2());
    // The fixture has what every case patches.
    ASSERT_GE(file.U32(file.Image() + 44), 2u);  // functions
    ASSERT_GE(file.U32(file.Image() + 52), 2u);  // structs
    ASSERT_GE(file.U32(file.Image() + 60), 2u);  // tracepoints
    ASSERT_GE(file.U32(file.Image() + 68), 2u);  // syscalls
    ASSERT_GE(file.U32(file.Image() + 76), 1u);  // diagnostics
    ASSERT_TRUE(LoadDatasetV2(file.bytes()).ok());
  }
  const DependencySet deps = ProbeDeps();
  const std::string request = ProbeRequest(deps);
  char tmpl[] = "/tmp/depsurf_v2rej_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/patched.dds";
  for (const V2Case& c : cases) {
    V2File file(SalvagedV2());
    c.patch(file);
    auto loaded = LoadDatasetV2(file.bytes());
    if (c.rejects == Rejects::kMmap) {
      EXPECT_TRUE(loaded.ok()) << c.message;
    } else {
      ASSERT_FALSE(loaded.ok()) << c.message;
      EXPECT_EQ(loaded.error().code(), ErrorCode::kMalformedData) << c.message;
      EXPECT_EQ(loaded.error().message(), c.message);
    }
    // The mmap view and serve: a request that reaches a rejected run fails
    // with the loader's message, every time, and is never cached. Other
    // damage may be answered, but must not crash.
    auto view = MmapDataset::FromBytes(file.bytes());
    ProgramReport report;
    if (view.ok()) {
      report = AnalyzeProgram(*view, deps);
    }
    std::vector<std::string> responses = ServeTwice(path, file.bytes(), request);
    if (c.rejects == Rejects::kHeap) {
      continue;
    }
    if (c.rejects == Rejects::kOpen) {
      // Image-header damage is caught at open: the view and the serve
      // session refuse the file with the loader's message.
      ASSERT_FALSE(view.ok()) << c.message;
      EXPECT_EQ(view.error().message(), c.message);
      EXPECT_EQ(responses, std::vector<std::string>{"opening " + path + ": " + c.message});
      continue;
    }
    ASSERT_TRUE(view.ok()) << c.message;
    EXPECT_EQ(report.status.ToString(), std::string("malformed_data: ") + c.message);
    const std::string want = "{\"id\": 1, \"ok\": false, \"error\": \"" +
                             obs::JsonEscape(path + ": " + c.message) + "\"}";
    ASSERT_EQ(responses.size(), 3u) << c.message;
    for (const std::string& response : responses) {
      EXPECT_EQ(response, want);
    }
  }
  std::remove(path.c_str());
  rmdir(dir);
}

TEST(DatasetLoadRejectionTest, V2RejectsEachCorruptField) {
  const uint32_t huge = 0xfffffff0;
  std::vector<V2Case> cases = {
      {"not a v2 depsurf dataset (bad magic)", [](V2File& f) { f.bytes()[0] ^= 0xff; }},
      {"v2 dataset truncated (recorded size mismatch)", [](V2File& f) { f.bytes().pop_back(); }},
      {"v2 string table entry corrupt",
       [](V2File& f) { f.SetU64(f.SectionOffset(1) + 8, f.U64(f.SectionOffset(1))); },
       Rejects::kBoth},
      {"duplicate string in pool",
       [](V2File& f) {
         // Overwrite a later string with an earlier one of the same length.
         for (uint32_t j = 1; j < f.string_count(); ++j) {
           for (uint32_t i = 0; i < j; ++i) {
             if (f.StringSize(i) == f.StringSize(j) && f.StringSize(i) > 0) {
               std::memcpy(f.bytes().data() + f.StringAt(j), f.bytes().data() + f.StringAt(i),
                           f.StringSize(i));
               return;
             }
           }
         }
       }},
      {"v2 label id out of range", [huge](V2File& f) { f.SetU32(f.Image(), huge); },
       Rejects::kOpen},
      {"v2 flavor id out of range", [huge](V2File& f) { f.SetU32(f.Image() + 4, huge); },
       Rejects::kOpen},
      {"v2 arch id out of range", [huge](V2File& f) { f.SetU32(f.Image() + 8, huge); },
       Rejects::kOpen},
      {"bad degradation state", [](V2File& f) { f.bytes()[f.Image() + 34] = 9; },
       Rejects::kOpen},
      {"v2 function range beyond section", [huge](V2File& f) { f.SetU32(f.Image() + 44, huge); },
       Rejects::kBoth},
      {"function name id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kFuncs, 24, 0), f.string_count()); },
       Rejects::kBoth},
      {"decl id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kFuncs, 24, 0) + 4, f.string_count()); },
       Rejects::kBoth},
      {"suffix id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kFuncs, 24, 0) + 16, f.string_count()); },
       Rejects::kBoth},
      {"v2 struct range beyond section", [huge](V2File& f) { f.SetU32(f.Image() + 48, huge); },
       Rejects::kBoth},
      {"struct name id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kStructs, 12, 0), f.string_count()); },
       Rejects::kBoth},
      {"v2 pair range beyond section",
       [huge](V2File& f) { f.SetU32(f.Entry(kStructs, 12, 0) + 8, huge); },
       Rejects::kBoth},
      {"string id out of range",
       [](V2File& f) {
         uint64_t e = f.Entry(kStructs, 12, StructWithTwoFields(f));
         f.SetU32(f.Entry(kPairs, 8, f.U32(e + 4)) + 4, f.string_count());
       },
       Rejects::kBoth},
      {"v2 tracepoint range beyond section",
       [huge](V2File& f) { f.SetU32(f.Image() + 56, huge); },
       Rejects::kBoth},
      {"tracepoint name id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kTracepoints, 20, 0), f.string_count()); },
       Rejects::kBoth},
      {"v2 syscall range beyond section", [huge](V2File& f) { f.SetU32(f.Image() + 64, huge); },
       Rejects::kBoth},
      {"syscall id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kSyscalls, 4, 0), f.string_count()); },
       Rejects::kBoth},
      {"v2 diagnostic range beyond section",
       [huge](V2File& f) { f.SetU32(f.Image() + 72, huge); }},
      {"diagnostic message id out of range",
       [](V2File& f) { f.SetU32(f.Entry(kDiags, 16, 0), f.string_count()); }},
      {"bad diagnostic severity", [](V2File& f) { f.bytes()[f.Entry(kDiags, 16, 0) + 4] = 200; }},
      {"bad diagnostic subsystem", [](V2File& f) { f.bytes()[f.Entry(kDiags, 16, 0) + 5] = 200; }},
      {"bad diagnostic error code", [](V2File& f) { f.bytes()[f.Entry(kDiags, 16, 0) + 6] = 200; }},
  };
  ExpectV2Rejections(cases);
}

TEST(DatasetLoadRejectionTest, V2RejectsUnsortedOrDuplicatedRecords) {
  std::vector<V2Case> cases = {
      {"function name ids not strictly ascending",
       [](V2File& f) { f.SwapBytes(f.Entry(kFuncs, 24, 0), f.Entry(kFuncs, 24, 1), 24); },
       Rejects::kBoth},
      {"function name ids not strictly ascending",
       [](V2File& f) { f.SetU32(f.Entry(kFuncs, 24, 1), f.U32(f.Entry(kFuncs, 24, 0))); },
       Rejects::kBoth},
      {"struct name ids not strictly ascending",
       [](V2File& f) { f.SwapBytes(f.Entry(kStructs, 12, 0), f.Entry(kStructs, 12, 1), 12); },
       Rejects::kBoth},
      {"tracepoint name ids not strictly ascending",
       [](V2File& f) {
         f.SetU32(f.Entry(kTracepoints, 20, 1), f.U32(f.Entry(kTracepoints, 20, 0)));
       },
       Rejects::kBoth},
      {"syscall name ids not strictly ascending",
       [](V2File& f) { f.SwapBytes(f.Entry(kSyscalls, 4, 0), f.Entry(kSyscalls, 4, 1), 4); },
       Rejects::kBoth},
      {"struct field pairs not sorted",
       [](V2File& f) {
         uint64_t e = f.Entry(kStructs, 12, StructWithTwoFields(f));
         uint64_t pair = f.Entry(kPairs, 8, f.U32(e + 4));
         f.SwapBytes(pair, pair + 8, 8);
       },
       Rejects::kBoth},
      {"v2 sorted string index not ascending",
       [](V2File& f) { f.SwapBytes(f.SectionOffset(3), f.SectionOffset(3) + 4, 4); },
       Rejects::kMmap},
  };
  ExpectV2Rejections(cases);
}

}  // namespace
}  // namespace depsurf
