#include "src/study/study.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <utility>

#include "src/obs/context.h"
#include "src/obs/diagnostics.h"
#include "src/obs/metrics.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"
#include "src/util/file_util.h"
#include "src/util/ordered_executor.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// CPU time consumed by the whole process, all threads summed. std::clock()
// reports the same quantity but overflows 32-bit clock_t in under an hour
// at CLOCKS_PER_SEC=1e6; CLOCK_PROCESS_CPUTIME_ID has nanosecond range.
// Published as `cpu_total_ms` — with a parallel window this legitimately
// exceeds wall_ms, which is why the old `cpu_ms` name was retired (see
// docs/OBSERVABILITY.md).
uint64_t ProcessCpuNs() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// One image's generate+extract, run on an executor lane. `seconds` is the
// wall time the progress callback reports.
struct ExtractedImage {
  Result<DependencySurface> surface;
  double seconds = 0;
};

ExtractedImage TimedExtract(const Study& study, const BuildSpec& build) {
  const auto start = std::chrono::steady_clock::now();
  Result<DependencySurface> surface = study.ExtractSurface(build);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  return ExtractedImage{std::move(surface), elapsed.count()};
}

void ReportProgress(const std::function<void(const Study::ImageProgress&)>& progress,
                    const std::vector<BuildSpec>& corpus, size_t index, double seconds,
                    bool quarantined) {
  if (!progress) {
    return;
  }
  Study::ImageProgress report;
  report.label = corpus[index].Label();
  report.seconds = seconds;
  report.index = index;
  report.total = corpus.size();
  report.quarantined = quarantined;
  progress(report);
}

// The build's own metrics, published once it completes. The executor's
// measurements are batched here rather than recorded as they happen:
// report-mode builds reset the root registry mid-flight and scope per-image
// contexts around the lanes, so recording as-you-go would either leak
// executor noise into per-image reports (breaking their masked determinism)
// or be wiped by the reset.
void PublishBuildMetrics(obs::MetricsRegistry& metrics,
                         std::chrono::steady_clock::time_point wall_start,
                         uint64_t cpu_start_ns, size_t lanes, const OrderedRunStats& stats) {
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  const uint64_t cpu_ns = ProcessCpuNs() - cpu_start_ns;
  metrics.Incr("study.datasets_built");
  metrics.Set("study.build_dataset.wall_ms", static_cast<int64_t>(wall.count() * 1e3));
  metrics.Set("study.build_dataset.cpu_total_ms", static_cast<int64_t>(cpu_ns / 1000000));
  metrics.Set("study.build_dataset.window", static_cast<int64_t>(lanes));
  obs::Histogram* queue_wait = metrics.GetHistogram("study.executor.queue_wait_us");
  obs::Histogram* inflight = metrics.GetHistogram("study.executor.inflight_us");
  for (size_t i = 0; i < stats.busy_ns.size(); ++i) {
    queue_wait->Record(stats.queue_wait_ns[i] / 1000);
    inflight->Record(stats.busy_ns[i] / 1000);
  }
  metrics.Incr("study.executor.serialize_stall_us", stats.consume_stall_ns / 1000);
  for (size_t lane = 0; lane < stats.lane_busy_ns.size(); ++lane) {
    metrics.Set(StrFormat("study.executor.worker%zu.busy_ms", lane),
                static_cast<int64_t>(stats.lane_busy_ns[lane] / 1000000));
  }
}

}  // namespace

Result<double> StudyOptions::ParseScale(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  double value = strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return Error(ErrorCode::kInvalidArgument, StrFormat("\"%s\" is not a number", text.c_str()));
  }
  if (value <= 0.0 || value > 4.0) {
    return Error(ErrorCode::kInvalidArgument,
                 StrFormat("%s is outside (0, 4]", text.c_str()));
  }
  return value;
}

Result<uint64_t> StudyOptions::ParseSeed(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0' || errno == ERANGE) {
    return Error(ErrorCode::kInvalidArgument,
                 StrFormat("\"%s\" is not an unsigned integer", text.c_str()));
  }
  return static_cast<uint64_t>(value);
}

Result<StudyOptions> StudyOptions::Parse(int argc, char** argv, double default_scale) {
  StudyOptions options;
  options.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--scale=")) {
      auto scale = ParseScale(arg.substr(8));
      if (!scale.ok()) {
        return scale.TakeError().Wrap("--scale");
      }
      options.scale = *scale;
    } else if (StartsWith(arg, "--seed=")) {
      auto seed = ParseSeed(arg.substr(7));
      if (!seed.ok()) {
        return seed.TakeError().Wrap("--seed");
      }
      options.seed = *seed;
    }
  }
  return options;
}

StudyOptions StudyOptions::FromArgs(int argc, char** argv, double default_scale) {
  Result<StudyOptions> options = Parse(argc, argv, default_scale);
  if (!options.ok()) {
    std::fprintf(stderr, "depsurf: error: %s\n", options.error().message().c_str());
    std::exit(1);
  }
  return options.TakeValue();
}

Study::Study(const StudyOptions& options)
    : options_(options), programs_(BuildProgramCorpus()) {
  ScriptedCatalog catalog = BuildCuratedCatalog();
  ScriptedCatalog additions = programs_.additions;
  catalog.Merge(std::move(additions));
  model_ = std::make_unique<KernelModel>(options.seed, options.scale, std::move(catalog));
}

Result<std::vector<uint8_t>> Study::BuildImage(const BuildSpec& build) const {
  DEPSURF_ASSIGN_OR_RETURN(kernel, model_->Configure(build));
  DEPSURF_ASSIGN_OR_RETURN(bytes, BuildKernelImage(CompileKernel(options_.seed, std::move(kernel))));
  if (image_mutator_) {
    image_mutator_(build, bytes);
  }
  return bytes;
}

Result<DependencySurface> Study::ExtractSurface(const BuildSpec& build) const {
  DEPSURF_ASSIGN_OR_RETURN(bytes, BuildImage(build));
  return DependencySurface::Extract(std::move(bytes));
}

Result<Dataset> Study::BuildDataset(
    const std::vector<BuildSpec>& corpus,
    const std::function<void(const ImageProgress&)>& progress,
    const BuildPolicy& policy,
    std::vector<QuarantinedImage>* quarantined) const {
  obs::ScopedSpan span("study.build_dataset");
  span.AddAttr("images", static_cast<uint64_t>(corpus.size()));
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t cpu_start_ns = ProcessCpuNs();

  // Extraction is pure, so images run concurrently on the executor's lanes;
  // distillation happens serially in corpus order (Dataset interning is
  // order-sensitive and must stay deterministic).
  const size_t lanes = LaneCount(policy.jobs);
  Dataset dataset;
  std::optional<Error> failure;
  const OrderedRunStats stats = RunOrdered(
      corpus.size(), lanes, [&](size_t i) { return TimedExtract(*this, corpus[i]); },
      [&](size_t i, ExtractedImage& image) {
        const std::string label = corpus[i].Label();
        if (!image.surface.ok()) {
          if (!policy.keep_going) {
            failure = image.surface.TakeError().Wrap("image " + label);
            return false;
          }
          // Quarantine: the image stays out of the dataset, the build goes
          // on. Progress still fires — callers counting callbacks see every
          // corpus slot exactly once, with the quarantine flagged.
          obs::Context::Current().metrics().Incr("study.images_quarantined");
          if (quarantined != nullptr) {
            quarantined->push_back(QuarantinedImage{label, image.surface.TakeError()});
          }
          ReportProgress(progress, corpus, i, image.seconds, true);
          return true;
        }
        obs::Context::Current().metrics().GetHistogram("study.image_extract_ms")
            ->Record(static_cast<uint64_t>(image.seconds * 1e3));
        ReportProgress(progress, corpus, i, image.seconds, false);
        dataset.AddImage(label, *image.surface);
        return true;
      });
  if (failure.has_value()) {
    return std::move(*failure);
  }
  PublishBuildMetrics(obs::Context::Current().metrics(), wall_start, cpu_start_ns, lanes, stats);
  span.AddAttr("window", static_cast<uint64_t>(lanes));
  return dataset;
}

Result<Dataset> Study::BuildDatasetWithReports(
    const std::vector<BuildSpec>& corpus, const std::string& report_dir,
    DatasetReportFiles* files,
    const std::function<void(const ImageProgress&)>& progress,
    const BuildPolicy& policy,
    std::vector<QuarantinedImage>* quarantined) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const uint64_t cpu_start_ns = ProcessCpuNs();
  const size_t lanes = LaneCount(policy.jobs);

  // Per-image isolation comes from obs::Context, not from clearing the
  // globals: each image owns a fresh context, which its lane pushes on its
  // own thread (the TLS stack does not cross threads). Everything
  // BuildImage + Extract collect — spans, metrics, the salvage ledger —
  // lands in that context. The calling thread consumes in corpus order,
  // distills under the same context, and serializes it as the per-image
  // report, so report contents match a serial build while generate+extract
  // overlap across the lanes.
  struct ImageTask {
    std::unique_ptr<obs::Context> context;
    ExtractedImage image;
  };
  // A fresh context inherits the live trace flag from the constructing
  // thread's context; the lanes construct them, so pass the caller's on.
  const bool live_trace = obs::Context::Current().spans().live_trace();

  Dataset dataset;
  std::vector<obs::LabeledReport> reports;
  std::optional<Error> failure;
  const OrderedRunStats stats = RunOrdered(
      corpus.size(), lanes,
      [&](size_t i) {
        auto context = std::make_unique<obs::Context>();
        context->spans().SetLiveTrace(live_trace);
        obs::ScopedContext scope(*context);
        ExtractedImage image = TimedExtract(*this, corpus[i]);
        return ImageTask{std::move(context), std::move(image)};
      },
      [&](size_t i, ImageTask& task) {
        obs::Context& context = *task.context;
        Result<DependencySurface>& surface = task.image.surface;
        const std::string label = corpus[i].Label();
        const bool image_ok = surface.ok();
        if (!image_ok) {
          if (!policy.keep_going) {
            failure = surface.TakeError().Wrap("image " + label);
            return false;
          }
          // Quarantined images still leave a trace in the report set: one
          // fatal ledger entry explaining why extraction died, so the
          // aggregate lists the image alongside the survivors.
          Error error = surface.TakeError();
          DiagnosticEntry fatal;
          fatal.severity = DiagSeverity::kFatal;
          // The layer closest to the fault tags the error (a poisoned DWARF
          // section reads as a dwarf failure); untagged errors — generator
          // failures, unreadable containers — default to the ELF layer.
          fatal.subsystem = error.subsystem().value_or(DiagSubsystem::kElf);
          fatal.code = error.code();
          if (error.offset().has_value()) {
            fatal.offset = *error.offset();
            fatal.has_offset = true;
          }
          fatal.message = error.message();
          context.diagnostics().Add(fatal);
          context.metrics().Incr("study.images_quarantined");
          if (quarantined != nullptr) {
            quarantined->push_back(QuarantinedImage{label, std::move(error)});
          }
        } else {
          // Distill under the image's context so dataset.distill spans and
          // intern metrics land in its report, exactly as in the serial build.
          obs::ScopedContext scope(context);
          dataset.AddImage(label, *surface);
        }
        std::string json = obs::ContextRunReportJson(context);
        std::string path = report_dir + "/report_" + label + ".json";
        Status written = WriteFile(path, json);
        if (!written.ok()) {
          failure = written.TakeError();
          return false;
        }
        reports.push_back(obs::LabeledReport{label, std::move(json)});
        if (files != nullptr) {
          files->per_image.push_back(path);
        }
        ReportProgress(progress, corpus, i, task.image.seconds, !image_ok);
        return true;
      });
  if (failure.has_value()) {
    return std::move(*failure);
  }

  auto aggregate = obs::MergeRunReports(reports);
  if (!aggregate.ok()) {
    return aggregate.TakeError();
  }
  std::string agg_path = report_dir + "/report_agg.json";
  DEPSURF_RETURN_IF_ERROR(WriteFile(agg_path, *aggregate));
  if (files != nullptr) {
    files->aggregate = agg_path;
  }

  // Leave the global state describing the whole build, not stray collection
  // from before it: callers using --metrics-out after this still get a
  // meaningful report.
  obs::Context& root = obs::Context::Root();
  root.spans().Clear();
  root.metrics().Reset();
  root.diagnostics().Clear();
  root.metrics().Incr("study.reports_written", corpus.size() + 1);
  PublishBuildMetrics(root.metrics(), wall_start, cpu_start_ns, lanes, stats);
  return dataset;
}

Result<ProgramReport> Study::Analyze(const Dataset& dataset, const std::string& program) const {
  for (const BpfObject& object : programs_.objects) {
    if (object.name == program) {
      return Analyze(dataset, object);
    }
  }
  return Error(ErrorCode::kNotFound, "no program named " + program);
}

Result<ProgramReport> Study::Analyze(const Dataset& dataset, const BpfObject& object) {
  // Round-trip through object bytes: the analyzer sees only what a real
  // compiled .o would carry.
  DEPSURF_ASSIGN_OR_RETURN(bytes, WriteBpfObject(object));
  DEPSURF_ASSIGN_OR_RETURN(parsed, ParseBpfObject(std::move(bytes)));
  DEPSURF_ASSIGN_OR_RETURN(deps, ExtractDependencySet(parsed));
  return AnalyzeProgram(dataset, deps);
}

namespace {

// The health state a ledger entry's subsystem ended extraction in. kBpf
// entries have no surface state; they map to kClean so the silent-salvage
// check below never fires for them on image inputs.
DegradationState SubsystemState(const SurfaceHealth& health, DiagSubsystem subsystem) {
  switch (subsystem) {
    case DiagSubsystem::kElf: return health.elf;
    case DiagSubsystem::kDwarf: return health.dwarf;
    case DiagSubsystem::kBtf: return health.btf;
    case DiagSubsystem::kTracepoint: return health.tracepoint;
    case DiagSubsystem::kSyscall: return health.syscall;
    case DiagSubsystem::kBpf: return DegradationState::kClean;
  }
  return DegradationState::kClean;
}

// Deterministic fingerprint of one extraction run, for the double-run
// nondeterminism check: outcome, health summary, and every ledger line.
std::string ExtractionFingerprint(const Result<DependencySurface>& result) {
  if (!result.ok()) {
    return "fatal: " + result.error().ToString();
  }
  std::string out = "ok " + result->health().Summary();
  for (const DiagnosticEntry& entry : result->health().ledger.entries()) {
    out += "\n" + entry.ToString();
  }
  return out;
}

std::string ObjectFingerprint(const Result<BpfObject>& result,
                              const DiagnosticLedger* ledger) {
  if (!result.ok()) {
    return "fatal: " + result.error().ToString();
  }
  std::string out = StrFormat("ok programs=%zu relocs=%zu", result->programs.size(),
                              result->relocs.size());
  for (const BpfProgram& program : result->programs) {
    out += StrFormat("\n%s insns=%zu", program.name.c_str(), program.insns.size());
  }
  if (ledger != nullptr) {
    for (const DiagnosticEntry& entry : ledger->entries()) {
      out += "\n" + entry.ToString();
    }
  }
  return out;
}

}  // namespace

Study::OracleOutcome Study::RunSalvageStrictOracle(const std::vector<uint8_t>& bytes) {
  OracleOutcome out;
  // Two independent runs over the same bytes: salvage extraction is a pure
  // function of its input, so any divergence is itself a finding.
  auto first = DependencySurface::Extract(bytes);
  auto second = DependencySurface::Extract(bytes);
  const std::string fp1 = ExtractionFingerprint(first);
  const std::string fp2 = ExtractionFingerprint(second);
  if (fp1 != fp2) {
    out.violations.push_back("non-deterministic extraction: run 1 [" + fp1 +
                             "] vs run 2 [" + fp2 + "]");
  }
  if (!first.ok()) {
    // Fatal for both policies; the error must still diagnose itself.
    if (first.error().message().empty()) {
      out.violations.push_back("fatal extraction with an empty error message");
    }
    return out;
  }
  out.salvage_ok = true;
  const SurfaceHealth& health = first->health();
  out.degraded = health.AnyDegraded();
  out.ledger_entries = health.ledger.size();
  out.strict_ok = !out.degraded;
  // The one allowed disagreement — salvage accepts, strict rejects — must
  // be explained: a degraded subsystem without a degraded-severity ledger
  // entry means salvage lost the diagnosis.
  if (out.degraded &&
      health.ledger.CountSeverity(DiagSeverity::kDegraded) == 0) {
    out.violations.push_back("degraded health (" + health.Summary() +
                             ") with no degraded-severity ledger entry");
  }
  for (const DiagnosticEntry& entry : health.ledger.entries()) {
    if (entry.severity == DiagSeverity::kFatal) {
      out.violations.push_back("fatal ledger entry on a surviving surface: " +
                               entry.ToString());
    }
    if (entry.severity == DiagSeverity::kDegraded &&
        SubsystemState(health, entry.subsystem) == DegradationState::kClean) {
      out.violations.push_back(
          "ledger reports degradation but health stayed clean: " + entry.ToString());
    }
    if (entry.message.empty()) {
      out.violations.push_back("ledger entry with an empty message");
    }
  }
  return out;
}

Study::OracleOutcome Study::RunObjectSalvageStrictOracle(const std::vector<uint8_t>& bytes) {
  OracleOutcome out;
  DiagnosticLedger ledger1;
  DiagnosticLedger ledger2;
  auto salvage1 = ParseBpfObject(bytes, &ledger1);
  auto salvage2 = ParseBpfObject(bytes, &ledger2);
  auto strict1 = ParseBpfObject(bytes);
  auto strict2 = ParseBpfObject(bytes);
  const std::string sfp1 = ObjectFingerprint(salvage1, &ledger1);
  const std::string sfp2 = ObjectFingerprint(salvage2, &ledger2);
  if (sfp1 != sfp2) {
    out.violations.push_back("non-deterministic salvage parse: run 1 [" + sfp1 +
                             "] vs run 2 [" + sfp2 + "]");
  }
  if (ObjectFingerprint(strict1, nullptr) != ObjectFingerprint(strict2, nullptr)) {
    out.violations.push_back("non-deterministic strict parse");
  }
  out.salvage_ok = salvage1.ok();
  out.strict_ok = strict1.ok();
  out.ledger_entries = ledger1.size();
  out.degraded = !ledger1.empty();
  if (out.strict_ok && !out.salvage_ok) {
    out.violations.push_back("strict parse accepted what salvage rejected: " +
                             salvage1.error().ToString());
  }
  if (out.salvage_ok && !out.strict_ok && ledger1.empty()) {
    out.violations.push_back("salvage diverged from strict (" +
                             strict1.error().ToString() +
                             ") without any ledger entry explaining it");
  }
  if (out.salvage_ok && out.strict_ok) {
    // No salvage happened, so both parses must see the same object.
    if (!ledger1.empty()) {
      out.violations.push_back(StrFormat(
          "strict parse succeeded but the salvage ledger has %zu entries", ledger1.size()));
    }
    if (ObjectFingerprint(salvage1, nullptr) != ObjectFingerprint(strict1, nullptr)) {
      out.violations.push_back("salvage and strict parses disagree on a clean object");
    }
  }
  for (const DiagnosticEntry& entry : ledger1.entries()) {
    if (entry.message.empty()) {
      out.violations.push_back("ledger entry with an empty message");
    }
  }
  return out;
}

}  // namespace depsurf
