// depsurf: command-line interface to the analysis library.
//
// Every command and subcommand is declared once, in the command table at the
// bottom of this file: its positionals, its flags with their value kinds, its
// help text and its handler. ParseArgs checks argv against that entry and
// hands the handler typed values; `depsurf` with no arguments prints the
// usage text generated from the same table. Every command also accepts the
// global flags --metrics-out=FILE (write a depsurf.run_report.v1 JSON
// document on exit), --trace-out=FILE (write a Chrome/Perfetto trace_event
// timeline of the span tree, for ui.perfetto.dev) and --trace (stream spans
// to stderr as they close).
//
// Images and objects are ordinary files; `gen`/`emit` exist because this
// reproduction generates its corpus instead of downloading Ubuntu dbgsym
// packages (see DESIGN.md).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string_view>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/bpf/core_reloc_engine.h"
#include "src/btf/btf_print.h"
#include "src/core/dataset_io.h"
#include "src/faultgen/fault_injector.h"
#include "src/fuzz/fuzz_campaign.h"
#include "src/kernelgen/rates.h"
#include "src/obs/bench_report.h"
#include "src/obs/diag.h"
#include "src/obs/diagnostics.h"
#include "src/obs/json_lint.h"
#include "src/obs/perf_gate.h"
#include "src/obs/perf_history.h"
#include "src/obs/profile.h"
#include "src/obs/profile_diff.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/schema.h"
#include "src/obs/trace_export.h"
#include "src/serve/serve.h"
#include "src/study/study.h"
#include "src/util/file_util.h"
#include "src/util/str_util.h"

using namespace depsurf;
using obs::DiagError;

namespace {

// ---- Flag values ---------------------------------------------------------

// How a flag's value is checked. kBool flags take no value; every other kind
// requires a nonempty `--name=VALUE`.
enum class Kind : uint8_t {
  kBool,
  kText,
  kU64,      // a nonnegative integer
  kJobs,     // an executor-window width: 0 (auto) through 256
  kSeconds,  // a finite, nonnegative number of seconds
  kRatio,    // "15%", "15" or "0.15", all meaning 15%
  kScale,    // StudyOptions::ParseScale
  kSeed,     // StudyOptions::ParseSeed
};

// One flag as given on the command line, with its typed value.
struct Arg {
  std::string text;
  uint64_t u64 = 0;
  double real = 0;
};

// The arguments of one command, checked against its table entry.
struct Args {
  std::vector<std::string> pos;
  std::map<std::string, Arg> flags;

  bool Has(const std::string& name) const { return flags.count(name) != 0; }
  std::string Text(const std::string& name, const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second.text;
  }
  uint64_t U64(const std::string& name, uint64_t fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second.u64;
  }
  double Real(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second.real;
  }
};

Error Invalid(const std::string& message) {
  return Error(ErrorCode::kInvalidArgument, message);
}

// The whole text must parse: a prefix or a wrapped negative number would
// silently change what the command does (--sweep=abc as 0 skips the sweep).
Result<uint64_t> ParseU64(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  unsigned long long value = strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || text.front() == '-') {
    return Invalid("\"" + text + "\" is not a nonnegative integer");
  }
  return static_cast<uint64_t>(value);
}

// A threshold read as 0 would turn the perf gate into a tripwire on noise.
Result<double> ParseRatio(const std::string& text) {
  bool percent = text.back() == '%';
  std::string digits = percent ? text.substr(0, text.size() - 1) : text;
  char* end = nullptr;
  double value = digits.empty() ? 0 : strtod(digits.c_str(), &end);
  if (digits.empty() || end == nullptr || *end != '\0' || !std::isfinite(value) ||
      value <= 0) {
    return Invalid("\"" + text + "\" is not a positive ratio (try 15%, 15, or 0.15)");
  }
  return percent || value > 1.0 ? value / 100.0 : value;
}

Result<double> ParseSeconds(const std::string& text) {
  char* end = nullptr;
  double value = strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value) || value < 0) {
    return Invalid("\"" + text + "\" is not a nonnegative number of seconds");
  }
  return value;
}

// Checks a nonempty value against its kind.
Result<Arg> ParseValue(Kind kind, const std::string& text) {
  Arg arg{text};
  if (kind == Kind::kU64 || kind == Kind::kJobs || kind == Kind::kSeed) {
    auto value = kind == Kind::kSeed ? StudyOptions::ParseSeed(text) : ParseU64(text);
    if (!value.ok()) {
      return value.TakeError();
    }
    if (kind == Kind::kJobs && *value > 256) {
      return Invalid("\"" + text + "\" is out of range (0 = auto, max 256)");
    }
    arg.u64 = *value;
  } else if (kind == Kind::kSeconds || kind == Kind::kRatio || kind == Kind::kScale) {
    auto value = kind == Kind::kSeconds ? ParseSeconds(text)
                 : kind == Kind::kRatio ? ParseRatio(text)
                                        : StudyOptions::ParseScale(text);
    if (!value.ok()) {
      return value.TakeError();
    }
    arg.real = *value;
  }
  return arg;
}

// ---- Files ---------------------------------------------------------------

Result<std::string> ReadTextFile(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.TakeError();
  }
  return std::string(bytes->begin(), bytes->end());
}

// The nonempty items of a comma-separated flag value.
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> items;
  for (const std::string& item : SplitString(list, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

// Loads every dataset named in --against into `datasets` and points `opts`
// at them.
Status LoadAgainstDatasets(const Args& args, std::vector<Dataset>& datasets,
                           AnalyzeOptions& opts) {
  std::vector<std::string> paths = SplitList(args.Text("against"));
  datasets.reserve(paths.size());
  for (const std::string& path : paths) {
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      return bytes.TakeError();
    }
    auto loaded = LoadAnyDataset(*bytes);
    if (!loaded.ok()) {
      return loaded.TakeError().Wrap(path);
    }
    datasets.push_back(loaded.TakeValue());
  }
  for (const Dataset& ds : datasets) {
    opts.against_all.push_back(&ds);
  }
  return Status::Ok();
}

// Parses --arch/--flavor flags into enums; false on an unknown name.
bool ParseArchFlavor(const Args& args, Arch* arch, Flavor* flavor) {
  std::string arch_name = args.Text("arch", "x86");
  std::string flavor_name = args.Text("flavor", "generic");
  bool arch_ok = false;
  for (Arch a : kAllArches) {
    if (arch_name == ArchName(a)) {
      *arch = a;
      arch_ok = true;
    }
  }
  bool flavor_ok = false;
  for (Flavor f : kAllFlavors) {
    if (flavor_name == FlavorName(f)) {
      *flavor = f;
      flavor_ok = true;
    }
  }
  return arch_ok && flavor_ok;
}

// --scale/--seed, already checked by StudyOptions' rules in ParseArgs.
StudyOptions StudyOptionsFrom(const Args& args, double default_scale) {
  StudyOptions options;
  options.scale = args.Real("scale", default_scale);
  options.seed = args.U64("seed", options.seed);
  return options;
}

int CmdGen(const Args& args) {
  auto version = KernelVersion::Parse(args.Text("version", "5.4"));
  if (!version.ok()) {
    return DiagError(version.error().ToString());
  }
  std::string out = args.Text("out");
  Arch arch = Arch::kX86;
  Flavor flavor = Flavor::kGeneric;
  if (!ParseArchFlavor(args, &arch, &flavor)) {
    return DiagError("unknown --arch or --flavor");
  }
  Study study(StudyOptionsFrom(args, /*default_scale=*/1.0));
  auto bytes = study.BuildImage(MakeBuild(*version, arch, flavor));
  if (!bytes.ok()) {
    return DiagError(bytes.error().ToString());
  }
  Status written = WriteFile(out, *bytes);
  if (!written.ok()) {
    return DiagError(written.ToString());
  }
  printf("wrote %s (%zu bytes, %s)\n", out.c_str(), bytes->size(),
         MakeBuild(*version, arch, flavor).Label().c_str());
  return 0;
}

int CmdSurface(const Args& args) {
  auto bytes = ReadFileBytes(args.pos[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error().ToString());
  }
  auto surface = DependencySurface::Extract(bytes.TakeValue());
  if (!surface.ok()) {
    return DiagError(surface.error().ToString());
  }
  const SurfaceMeta& meta = surface->meta();
  printf("image: Linux v%d.%d %s/%s gcc%d (%d-bit %s-endian, %u config options)\n",
         meta.version_major, meta.version_minor, meta.arch.c_str(), meta.flavor.c_str(),
         meta.gcc_major, meta.pointer_size * 8,
         meta.endian == Endian::kLittle ? "little" : "big", meta.config_options);
  size_t attachable = 0;
  size_t full = 0;
  size_t selective = 0;
  size_t transformed = 0;
  for (const auto& [name, entry] : surface->functions()) {
    (void)name;
    attachable += entry.status.has_exact_symbol ? 1 : 0;
    full += entry.status.fully_inlined ? 1 : 0;
    selective += entry.status.selectively_inlined ? 1 : 0;
    transformed += entry.status.transformed ? 1 : 0;
  }
  printf("functions:   %zu in debug info; %zu attachable, %zu fully inlined,\n"
         "             %zu selectively inlined, %zu transformed\n",
         surface->functions().size(), attachable, full, selective, transformed);
  printf("structs:     %zu\n", surface->structs().size());
  printf("tracepoints: %zu\n", surface->tracepoints().size());
  printf("syscalls:    %zu (compat 32-bit tracing: %s)\n", surface->syscalls().size(),
         meta.compat_syscalls_traceable ? "supported" : "blind spot");

  std::string func = args.Text("func");
  if (!func.empty()) {
    const FunctionEntry* entry = surface->FindFunction(func);
    if (entry == nullptr) {
      return DiagError("no function named " + func + " on this surface");
    }
    if (args.Has("json")) {
      printf("%s\n", entry->StatusJson().c_str());
    } else {
      printf("\n%s\n", entry->btf_id != 0
                           ? FuncDeclString(surface->btf(), entry->btf_id).c_str()
                           : func.c_str());
      printf("  class: %s\n", entry->status.CollisionClass().c_str());
      printf("  attachable: %s%s%s%s\n", entry->status.has_exact_symbol ? "yes" : "NO",
             entry->status.fully_inlined ? " (fully inlined)" : "",
             entry->status.transformed
                 ? StrFormat(" (transformed%s)", entry->status.transform_suffix.c_str()).c_str()
                 : "",
             entry->status.selectively_inlined ? " (selectively inlined)" : "");
      for (const FunctionInstance& inst : entry->instances) {
        printf("  instance at %s:%u (%s)\n", inst.decl_file.c_str(), inst.decl_line,
               inst.HasCode() ? "has code" : "no code");
        for (const std::string& caller : inst.caller_inline) {
          printf("    inlined into %s\n", caller.c_str());
        }
        for (const std::string& caller : inst.caller_func) {
          printf("    called from  %s\n", caller.c_str());
        }
      }
    }
  }
  return 0;
}

// Decodes an image end to end (ELF, BTF, DWARF, surface extraction) and
// prints the metrics the pipeline collected along the way. The JSON form is
// the same document --metrics-out writes.
int CmdStats(const Args& args) {
  auto bytes = ReadFileBytes(args.pos[0]);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  auto surface = DependencySurface::Extract(bytes.TakeValue());
  if (!surface.ok()) {
    return DiagError(args.pos[0], surface.error());
  }
  if (args.Has("json")) {
    printf("%s\n", obs::GlobalRunReportJson().c_str());
  } else {
    printf("%s", obs::GlobalRunReportText().c_str());
  }
  return 0;
}

// depsurf.diagnostics.v1: the standalone document `doctor --json` emits.
std::string DiagnosticsDocJson(const std::string& image, const SurfaceHealth& health,
                               const Error* fatal_error) {
  std::vector<DiagnosticEntry> entries = health.ledger.entries();
  if (fatal_error != nullptr) {
    DiagnosticEntry fatal;
    fatal.severity = DiagSeverity::kFatal;
    // Errors tagged by an inner layer keep that attribution; untagged ones
    // (unreadable container) are the ELF layer's.
    fatal.subsystem = fatal_error->subsystem().value_or(DiagSubsystem::kElf);
    fatal.code = fatal_error->code();
    if (fatal_error->offset().has_value()) {
      fatal.offset = *fatal_error->offset();
      fatal.has_offset = true;
    }
    fatal.message = fatal_error->message();
    entries.push_back(fatal);
  }
  std::string out = "{\n";
  out += StrFormat("\"schema\": \"%s\",\n", obs::kDiagnosticsSchema);
  out += StrFormat("\"image\": \"%s\",\n", obs::JsonEscape(image).c_str());
  out += StrFormat(
      "\"health\": {\"elf\": \"%s\", \"dwarf\": \"%s\", \"btf\": \"%s\", "
      "\"tracepoint\": \"%s\", \"syscall\": \"%s\"},\n",
      DegradationStateName(health.elf), DegradationStateName(health.dwarf),
      DegradationStateName(health.btf), DegradationStateName(health.tracepoint),
      DegradationStateName(health.syscall));
  out += StrFormat("\"fatal\": %s,\n", fatal_error != nullptr ? "true" : "false");
  out += "\"entries\": " + obs::DiagnosticsJson(std::move(entries));
  out += "\n}\n";
  return out;
}

// Triage for damaged inputs: extract once and report what salvage-mode
// extraction survived, or sweep N seeded mutations over the image and
// assert the crash-free contract corpus-wide. Exit codes mirror `check`:
// 0 clean, 2 salvaged (degraded subsystems), 1 unreadable container.
int CmdDoctor(const Args& args) {
  const std::string& image = args.pos[0];
  auto bytes = ReadFileBytes(image);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  const bool json = args.Has("json");
  const uint64_t sweep = args.U64("sweep", 0);
  const uint64_t seed = args.U64("seed", 2025);
  const double timeout_s = args.Real("mutation-timeout", 30.0);
  const uint64_t budget_ms = static_cast<uint64_t>(timeout_s * 1000.0);

  if (sweep == 0) {
    auto surface = DependencySurface::Extract(*bytes);
    if (!surface.ok()) {
      if (json) {
        printf("%s", DiagnosticsDocJson(image, SurfaceHealth{}, &surface.error()).c_str());
      } else {
        printf("%s: unreadable (%s)\n", image.c_str(),
               surface.error().ToString().c_str());
      }
      return 1;
    }
    const SurfaceHealth& health = surface->health();
    if (json) {
      printf("%s", DiagnosticsDocJson(image, health, nullptr).c_str());
    } else {
      printf("%s: %s\n", image.c_str(), health.Summary().c_str());
      for (const DiagnosticEntry& entry : health.ledger.entries()) {
        printf("  %s\n", entry.ToString().c_str());
      }
    }
    return health.AnyDegraded() ? 2 : 0;
  }

  // Sweep mode: every mutation must extract without crashing, and damage
  // must never pass silently — a non-clean outcome without ledger entries
  // (or a fatal error) would mean salvage lost the diagnosis. Each
  // extraction runs under the --mutation-timeout wall-clock guard, so a
  // pathological mutation shows up as a named timeout diagnostic (and exit
  // 1) instead of stalling CI.
  size_t clean = 0;
  size_t salvaged = 0;
  size_t fatal = 0;
  size_t timed_out = 0;
  for (uint64_t i = 0; i < sweep; ++i) {
    auto damaged = std::make_shared<std::vector<uint8_t>>(*bytes);
    FaultKind kind = FaultKindForIndex(i);
    std::string what = ApplyFault(*damaged, kind, seed + i);
    // Shared state so a timed-out worker never touches freed stack.
    auto state = std::make_shared<std::pair<bool, bool>>();  // {fatal, degraded}
    const bool finished = RunWithWallClock(budget_ms, [damaged, state] {
      auto surface = DependencySurface::Extract(std::move(*damaged));
      state->first = !surface.ok();
      state->second = surface.ok() && surface->health().AnyDegraded();
    });
    const char* outcome;
    if (!finished) {
      outcome = "TIMEOUT";
      ++timed_out;
    } else if (state->first) {
      outcome = "fatal";
      ++fatal;
    } else if (state->second) {
      outcome = "salvaged";
      ++salvaged;
    } else {
      outcome = "clean";
      ++clean;
    }
    if (!json) {
      printf("[%3llu] %-8s %s\n", static_cast<unsigned long long>(i), outcome, what.c_str());
    }
    if (!finished) {
      obs::Diag(obs::Severity::kError,
                StrFormat("sweep mutation %llu exceeded --mutation-timeout "
                          "(%.1fs): %s",
                          static_cast<unsigned long long>(i), timeout_s,
                          what.c_str()));
    }
  }
  printf("sweep: %llu mutations over %s: %zu clean, %zu salvaged, %zu fatal, "
         "%zu timed out, 0 crashes\n",
         static_cast<unsigned long long>(sweep), image.c_str(), clean, salvaged,
         fatal, timed_out);
  return timed_out > 0 ? 1 : 0;
}

// Coverage-guided fault fuzzing over seed images or eBPF objects
// (src/fuzz): mutate, extract under salvage mode, keep candidates whose
// diagnostic signature is novel, cross-check every candidate against the
// salvage-vs-strict oracle. Exit codes: 0 clean campaign, 2 oracle
// disagreements, 1 hangs or infrastructure failure. Deterministic in
// (--seed, seed files): two runs emit byte-identical JSON and corpora.
int CmdFuzz(const Args& args) {
  FuzzOptions options;
  options.rounds = args.U64("rounds", 64);
  options.seed = args.U64("seed", 2025);
  options.time_budget_ms =
      static_cast<uint64_t>(args.Real("mutation-timeout", 10.0) * 1000.0);
  options.max_ledger_entries = static_cast<size_t>(args.U64("max-ledger", 10000));

  std::vector<FuzzSeed> seeds;
  for (const std::string& path : args.pos) {
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      return DiagError(bytes.error());
    }
    FuzzSeed fuzz_seed;
    // Basename only: the report must not change with the invocation dir.
    fuzz_seed.name = path.substr(path.find_last_of('/') + 1);
    fuzz_seed.bytes = bytes.TakeValue();
    seeds.push_back(std::move(fuzz_seed));
  }

  auto campaign = RunFuzzCampaign(std::move(seeds), options);
  if (!campaign.ok()) {
    return DiagError(campaign.error());
  }
  std::string corpus_dir = args.Text("corpus-dir");
  if (!corpus_dir.empty()) {
    auto written = WriteFuzzCorpus(*campaign, corpus_dir);
    if (!written.ok()) {
      return DiagError(written.error());
    }
  }
  if (args.Has("json")) {
    printf("%s", RenderFuzzCampaignJson(*campaign).c_str());
    return campaign->ExitCode();
  }
  printf("fuzz: %llu rounds over %zu seed(s) [%s mode]: %zu coverage tuples, "
         "corpus %zu (minimized to %zu), %zu oracle disagreements, %zu hangs\n",
         static_cast<unsigned long long>(campaign->rounds),
         campaign->seed_names.size(), SeedModeName(campaign->mode),
         campaign->coverage.size(), campaign->corpus.size(),
         campaign->minimized.size(), campaign->disagreements.size(),
         campaign->hangs.size());
  for (const FuzzKindStats& stats : campaign->kinds) {
    printf("  %-24s attempts=%-4llu novel=%llu\n", stats.kind.c_str(),
           static_cast<unsigned long long>(stats.attempts),
           static_cast<unsigned long long>(stats.novel));
  }
  for (const FuzzOracleDisagreement& d : campaign->disagreements) {
    printf("  ORACLE round=%llu kind=%s fault_seed=%llu: %s\n",
           static_cast<unsigned long long>(d.round), d.kind.c_str(),
           static_cast<unsigned long long>(d.fault_seed), d.violation.c_str());
  }
  for (const FuzzHang& h : campaign->hangs) {
    printf("  HANG round=%llu kind=%s fault_seed=%llu: %s\n",
           static_cast<unsigned long long>(h.round), h.kind.c_str(),
           static_cast<unsigned long long>(h.fault_seed), h.description.c_str());
  }
  return campaign->ExitCode();
}

// `metrics canon` re-emits any document in compact form with timing fields
// masked, so two runs over the same inputs can be compared byte for byte.
int CmdMetricsCanon(const Args& args) {
  auto text = ReadTextFile(args.pos[0]);
  if (!text.ok()) {
    return DiagError(text.error());
  }
  auto json = obs::ParseJson(*text);
  if (!json.ok()) {
    return DiagError(args.pos[0], json.error());
  }
  printf("%s\n", obs::CanonicalMaskedJson(*json).c_str());
  return 0;
}

// `metrics lint` checks an observability document against the schema row
// of its --kind (src/obs/schema.cc); only the per-kind arguments are read
// here.
int CmdMetricsLint(const Args& args) {
  const std::string& path = args.pos[0];
  auto text = ReadTextFile(path);
  if (!text.ok()) {
    return DiagError(text.error());
  }
  std::string kind = args.Text("kind", "report");
  obs::LintOptions options;
  options.min_distinct_spans = static_cast<size_t>(args.U64("min-spans", 0));
  options.required_counters = SplitList(args.Text("require"));
  // --report counts the trace's span nodes; other kinds ignore it.
  std::string report_path = args.Text("report");
  if (kind == "trace" && !report_path.empty()) {
    auto report_text = ReadTextFile(report_path);
    if (!report_text.ok()) {
      return DiagError(report_text.error());
    }
    auto report = obs::ParseJson(*report_text);
    if (!report.ok()) {
      return DiagError(report_path, report.error());
    }
    options.expect_events = static_cast<int64_t>(obs::CountReportSpanNodes(*report));
  }
  obs::LintOutcome outcome;
  Status valid = obs::LintDocument(kind, *text, options, &outcome);
  if (!valid.ok()) {
    return DiagError(path, valid.error());
  }
  for (const std::string& note : outcome.notes) {
    printf("note: %s: %s\n", path.c_str(), note.c_str());
  }
  printf("%s: valid %s\n", path.c_str(), outcome.summary.c_str());
  return 0;
}

// `report flame REPORT.json [--out=FILE]`: folded stacks
// (`root;child;leaf self_ns` lines) from a run report or aggregate, directly
// consumable by flamegraph.pl / speedscope.
int CmdReportFlame(const Args& args) {
  auto text = ReadTextFile(args.pos[0]);
  if (!text.ok()) {
    return DiagError(text.error());
  }
  auto folded = obs::FoldedStacksFromReportJson(*text);
  if (!folded.ok()) {
    return DiagError(args.pos[0], folded.error());
  }
  std::string out_path = args.Text("out");
  if (out_path.empty()) {
    printf("%s", folded->c_str());
    return 0;
  }
  Status written = WriteFile(out_path, *folded);
  if (!written.ok()) {
    return DiagError(written.error());
  }
  printf("wrote %s (%zu bytes)\n", out_path.c_str(), folded->size());
  return 0;
}

// Merges run reports (per-image documents from a study build, or prior
// aggregates) into one depsurf.run_report_agg.v1 file.
int CmdReportMerge(const Args& args) {
  const std::string& out_path = args.pos[0];
  std::vector<obs::LabeledReport> reports;
  for (size_t i = 1; i < args.pos.size(); ++i) {
    auto text = ReadTextFile(args.pos[i]);
    if (!text.ok()) {
      return DiagError(text.error());
    }
    reports.push_back(obs::LabeledReport{args.pos[i], text.TakeValue()});
  }
  auto merged = obs::MergeRunReports(reports);
  if (!merged.ok()) {
    return DiagError(merged.error());
  }
  Status written = WriteFile(out_path, *merged);
  if (!written.ok()) {
    return DiagError(written.error());
  }
  printf("wrote %s (%zu input reports, %zu bytes)\n", out_path.c_str(), reports.size(),
         merged->size());
  return 0;
}

// Loads an NDJSON history store from disk.
Result<std::vector<obs::HistoryRecord>> LoadHistory(const std::string& path) {
  auto text = ReadTextFile(path);
  if (!text.ok()) {
    return text.TakeError();
  }
  auto records = obs::ParseHistoryNdjson(*text);
  if (!records.ok()) {
    return Error(ErrorCode::kMalformedData, path + ": " + records.error().message());
  }
  return records;
}

// Loads the stage timings of a bench report or run report from disk.
Result<std::vector<obs::StageTiming>> LoadStageTimings(const std::string& path) {
  auto text = ReadTextFile(path);
  if (!text.ok()) {
    return text.TakeError();
  }
  auto json = obs::ParseJson(*text);
  if (!json.ok()) {
    return json.TakeError().Wrap(path);
  }
  auto timings = obs::LoadStageTimings(*json);
  if (!timings.ok()) {
    return timings.TakeError().Wrap(path);
  }
  return timings;
}

// The perf regression gate: exit 0 when no stage regressed beyond the
// threshold, 3 when one did (1 stays "could not compare at all"). With
// --history=FILE, per-stage adaptive noise floors from the run history
// replace the hardcoded default for every stage the history has seen.
int CmdPerfCompare(const Args& args) {
  obs::PerfGateOptions options;
  options.max_regress = args.Real("max-regress", 0.15);
  options.noise_floor_seconds = args.Real("noise-floor", 0.005);
  std::string history_path = args.Text("history");
  if (!history_path.empty()) {
    auto records = LoadHistory(history_path);
    if (!records.ok()) {
      return DiagError(records.error());
    }
    obs::TrendOptions trend_options;
    trend_options.min_floor_seconds = options.noise_floor_seconds;
    obs::TrendReport trend =
        obs::AnalyzeTrend(*records, obs::CurrentHostFingerprint(), trend_options);
    options.stage_delta_floors_seconds = obs::AdaptiveStageFloors(trend);
  }
  std::vector<std::vector<obs::StageTiming>> sides;
  for (const std::string& path : args.pos) {
    auto timings = LoadStageTimings(path);
    if (!timings.ok()) {
      return DiagError(timings.error());
    }
    sides.push_back(timings.TakeValue());
  }
  obs::PerfComparison comparison = obs::ComparePerf(sides[0], sides[1], options);
  if (args.Has("json")) {
    printf("%s", obs::PerfComparisonJson(comparison, options).c_str());
  } else {
    printf("%s", obs::PerfComparisonText(comparison).c_str());
  }
  return comparison.gate_failed() ? 3 : 0;
}

// Appends one depsurf.perf_history.v1 record (all stages across the given
// bench/run reports, the optional profile's critical-path summary, host
// fingerprint, label) to an NDJSON history store.
int CmdPerfRecord(const Args& args) {
  std::string history_path = args.Text("history");
  obs::HistoryRecord record;
  record.label = args.Text("label");
  if (record.label.empty()) {
    const char* env = getenv("DEPSURF_BUILD_LABEL");
    record.label = env != nullptr && env[0] != '\0' ? env : "unlabeled";
  }
  // Timestamps are injected here at the CLI edge; obs library code never
  // reads a wall clock, so its outputs stay deterministic.
  record.recorded_unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::system_clock::now().time_since_epoch())
                                .count();
  record.host = obs::CurrentHostFingerprint();
  for (const std::string& path : args.pos) {
    auto timings = LoadStageTimings(path);
    if (!timings.ok()) {
      return DiagError(timings.error());
    }
    obs::AddStageTimings(record, *timings);
  }
  std::string profile_path = args.Text("profile");
  if (!profile_path.empty()) {
    auto text = ReadTextFile(profile_path);
    if (!text.ok()) {
      return DiagError(text.error());
    }
    auto profile = obs::ParseProfileDoc(*text);
    if (!profile.ok()) {
      return DiagError(profile_path, profile.error());
    }
    obs::SetProfileSummary(record, *profile);
  }
  Status appended = obs::AppendHistoryRecord(history_path, record);
  if (!appended.ok()) {
    return DiagError(appended.error());
  }
  printf("recorded \"%s\" (%zu stages%s) into %s\n", record.label.c_str(),
         record.stages.size(), record.profile.present ? " + profile summary" : "",
         history_path.c_str());
  return 0;
}

// Robust per-stage baselines over the history store: median/MAD, the
// latest run's deviation, change-point flags, and the adaptive floor each
// stage would gate with.
int CmdPerfTrend(const Args& args) {
  obs::TrendOptions options;
  // A zero window would mean "baseline over no runs". Checked before the
  // history loads so the error names the flag.
  options.window = static_cast<size_t>(args.U64("window", options.window));
  if (options.window == 0) {
    return DiagError("--window: must be at least 1");
  }
  options.min_floor_seconds = args.Real("min-floor", options.min_floor_seconds);
  auto records = LoadHistory(args.Text("history"));
  if (!records.ok()) {
    return DiagError(records.error());
  }
  obs::TrendReport report =
      obs::AnalyzeTrend(*records, obs::CurrentHostFingerprint(), options);
  if (args.Has("json")) {
    printf("%s", obs::TrendReportJson(report).c_str());
  } else {
    printf("%s", obs::TrendReportText(report).c_str());
  }
  return 0;
}

// Differential profile attribution: which span names and which critical-
// path chain got slower between two depsurf.profile.v1 documents.
int CmdPerfDiff(const Args& args) {
  // Checked before the profiles load so the error names the flag.
  size_t top = static_cast<size_t>(args.U64("top", 10));
  if (top == 0) {
    return DiagError("--top: must be at least 1");
  }
  std::vector<obs::Profile> profiles;
  for (const std::string& path : args.pos) {
    auto text = ReadTextFile(path);
    if (!text.ok()) {
      return DiagError(text.error());
    }
    auto profile = obs::ParseProfileDoc(*text);
    if (!profile.ok()) {
      return DiagError(path, profile.error());
    }
    profiles.push_back(profile.TakeValue());
  }
  obs::ProfileDiff diff = obs::DiffProfiles(profiles[0], profiles[1], top);
  if (args.Has("json")) {
    printf("%s", obs::ProfileDiffJson(diff).c_str());
  } else {
    printf("%s", obs::ProfileDiffText(diff).c_str());
  }
  return 0;
}

// Shared by `study build` and `profile --live`: --versions/--arch/--flavor
// into a build corpus (no --versions means the bundled LTS set).
Result<std::vector<BuildSpec>> CorpusFromFlags(const Args& args) {
  Arch arch = Arch::kX86;
  Flavor flavor = Flavor::kGeneric;
  if (!ParseArchFlavor(args, &arch, &flavor)) {
    return Error(ErrorCode::kInvalidArgument, "unknown --arch or --flavor");
  }
  std::vector<BuildSpec> corpus;
  if (!args.Has("versions")) {
    for (KernelVersion version : kLtsVersions) {
      corpus.push_back(MakeBuild(version, arch, flavor));
    }
  }
  for (const std::string& text : SplitList(args.Text("versions"))) {
    auto version = KernelVersion::Parse(text);
    if (!version.ok()) {
      return version.TakeError();
    }
    corpus.push_back(MakeBuild(*version, arch, flavor));
  }
  if (corpus.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty corpus (check --versions)");
  }
  return corpus;
}

// Corpus builds from the CLI: generate + extract + distill a whole version
// corpus, optionally writing per-image run reports and their aggregate.
int CmdStudyBuild(const Args& args) {
  auto corpus_or = CorpusFromFlags(args);
  if (!corpus_or.ok()) {
    return DiagError("study build: " + corpus_or.error().message());
  }
  std::vector<BuildSpec> corpus = corpus_or.TakeValue();
  // Created before any image is built, so a bad path fails fast and the
  // error names the flag.
  std::string report_dir = args.Text("report-dir");
  if (!report_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(report_dir, ec);
    if (ec) {
      return DiagError(StrFormat("study build: --report-dir: cannot create %s: %s",
                                 report_dir.c_str(), ec.message().c_str()));
    }
  }
  Study study(StudyOptionsFrom(args, /*default_scale=*/1.0));
  // Failure policy: by default the build quarantines images whose
  // extraction dies outright; --strict aborts the whole build instead.
  BuildPolicy policy;
  policy.keep_going = !args.Has("strict");
  // --jobs=N: width of the concurrent generate+extract window (0 = auto).
  policy.jobs = static_cast<int>(args.U64("jobs", 0));
  // --poison=LABEL (testing aid): truncate the named image below the ELF
  // header before extraction, guaranteeing a fatal failure on exactly that
  // image so the quarantine path can be demonstrated end to end.
  std::string poison = args.Text("poison");
  if (!poison.empty()) {
    study.SetImageMutator([poison](const BuildSpec& build, std::vector<uint8_t>& bytes) {
      if (build.Label() == poison && bytes.size() > 16) {
        bytes.resize(16);
      }
    });
  }
  auto progress = [](const Study::ImageProgress& p) {
    printf("[%zu/%zu] %-28s %.2f s%s\n", p.index + 1, p.total, p.label.c_str(), p.seconds,
           p.quarantined ? "  (quarantined)" : "");
  };
  Study::DatasetReportFiles files;
  std::vector<QuarantinedImage> quarantined;
  auto dataset = report_dir.empty()
                     ? study.BuildDataset(corpus, progress, policy, &quarantined)
                     : study.BuildDatasetWithReports(corpus, report_dir, &files, progress,
                                                     policy, &quarantined);
  if (!dataset.ok()) {
    return DiagError(dataset.error());
  }
  for (const QuarantinedImage& image : quarantined) {
    printf("quarantined %s: %s\n", image.label.c_str(), image.error.ToString().c_str());
  }
  std::string out = args.Text("out");
  if (!out.empty()) {
    std::vector<uint8_t> bytes = SaveDataset(*dataset);
    Status written = WriteFile(out, bytes);
    if (!written.ok()) {
      return DiagError(written.ToString());
    }
    printf("wrote %s (%zu images, %zu bytes)\n", out.c_str(), dataset->num_images(),
           bytes.size());
  } else {
    printf("built %zu-image dataset (not saved; pass --out=FILE)\n", dataset->num_images());
  }
  if (!report_dir.empty()) {
    printf("wrote %zu per-image reports and %s\n", files.per_image.size(),
           files.aggregate.c_str());
  }
  // --profile-out=FILE: write a depsurf.profile.v1 self-profile of the
  // build that just ran (aggregate tables, critical path, executor stats).
  std::string profile_out = args.Text("profile-out");
  if (!profile_out.empty()) {
    obs::Profile profile;
    if (!report_dir.empty()) {
      // Report mode resets the root collectors between images; the
      // aggregate on disk is the authoritative span record.
      auto text = ReadTextFile(files.aggregate);
      if (!text.ok()) {
        return DiagError(text.error());
      }
      auto parsed = obs::ProfileFromReportJson(*text);
      if (!parsed.ok()) {
        return DiagError(files.aggregate, parsed.error());
      }
      profile = parsed.TakeValue();
    } else {
      profile = obs::BuildProfile(obs::SpanCollector::Global().Snapshot());
    }
    obs::FillExecutorStats(profile, obs::MetricsRegistry::Global());
    Status written = WriteFile(profile_out, obs::ProfileJson(profile));
    if (!written.ok()) {
      return DiagError(written.error());
    }
    printf("wrote %s (%s)\n", profile_out.c_str(), obs::kProfileSchema);
  }
  return 0;
}

// True when `text` is a depsurf.profile.v1 document.
bool IsProfileDoc(const std::string& text) {
  auto json = obs::ParseJson(text);
  const obs::JsonValue* schema = json.ok() ? json->Find("schema") : nullptr;
  return schema != nullptr && schema->string == obs::kProfileSchema;
}

// Self-profile of a run: per-name self-time/CPU/alloc aggregates, the
// critical path (the serial distill/serialize share of wall time), and
// executor stats. Input is a run report or aggregate from `study build
// --report-dir`, or a depsurf.profile.v1 document (`study build
// --profile-out`, `profile --out`); --live instead runs a corpus build
// in-process and profiles the spans it just recorded.
int CmdProfile(const Args& args) {
  obs::Profile profile;
  std::string folded;
  std::string folded_path = args.Text("folded-out");
  if (args.Has("live")) {
    auto corpus = CorpusFromFlags(args);
    if (!corpus.ok()) {
      return DiagError("profile --live: " + corpus.error().message());
    }
    // Small default scale: --live exists to profile the pipeline's shape,
    // not to build a production dataset.
    Study study(StudyOptionsFrom(args, /*default_scale=*/0.25));
    BuildPolicy policy;
    policy.jobs = static_cast<int>(args.U64("jobs", 0));
    auto dataset = study.BuildDataset(*corpus, {}, policy, nullptr);
    if (!dataset.ok()) {
      return DiagError(dataset.error());
    }
    std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
    profile = obs::BuildProfile(roots);
    obs::FillExecutorStats(profile, obs::MetricsRegistry::Global());
    folded = obs::FoldedStacks(roots);
  } else {
    if (args.pos.empty()) {
      return DiagError("profile requires a RUN_REPORT.json path or --live");
    }
    const std::string& path = args.pos[0];
    auto text = ReadTextFile(path);
    if (!text.ok()) {
      return DiagError(text.error());
    }
    const bool is_profile = IsProfileDoc(*text);
    if (is_profile && !folded_path.empty()) {
      return DiagError("profile: --folded-out needs a run report or --live; " + path +
                       " is a " + obs::kProfileSchema + " document, which has no stacks");
    }
    auto parsed =
        is_profile ? obs::ParseProfileDoc(*text) : obs::ProfileFromReportJson(*text);
    if (!parsed.ok()) {
      return DiagError(path, parsed.error());
    }
    profile = parsed.TakeValue();
    if (auto folded_or = obs::FoldedStacksFromReportJson(*text); folded_or.ok()) {
      folded = folded_or.TakeValue();
    }
  }
  std::string out_path = args.Text("out");
  if (!out_path.empty()) {
    Status written = WriteFile(out_path, obs::ProfileJson(profile));
    if (!written.ok()) {
      return DiagError(written.error());
    }
    printf("wrote %s (%s)\n", out_path.c_str(), obs::kProfileSchema);
  }
  if (!folded_path.empty()) {
    Status written = WriteFile(folded_path, folded);
    if (!written.ok()) {
      return DiagError(written.error());
    }
    printf("wrote %s (%zu bytes folded stacks)\n", folded_path.c_str(), folded.size());
  }
  if (args.Has("json")) {
    printf("%s", obs::ProfileJson(profile).c_str());
  } else if (out_path.empty() && folded_path.empty()) {
    printf("%s", obs::ProfileText(profile).c_str());
  }
  return 0;
}

int CmdDiff(const Args& args) {
  auto old_bytes = ReadFileBytes(args.pos[0]);
  auto new_bytes = ReadFileBytes(args.pos[1]);
  if (!old_bytes.ok() || !new_bytes.ok()) {
    return DiagError("cannot read images");
  }
  auto old_surface = DependencySurface::Extract(old_bytes.TakeValue());
  if (!old_surface.ok()) {
    return DiagError("old image: " + old_surface.error().ToString());
  }
  auto new_surface = DependencySurface::Extract(new_bytes.TakeValue());
  if (!new_surface.ok()) {
    return DiagError("new image: " + new_surface.error().ToString());
  }
  SurfaceDiff diff = DiffSurfaces(*old_surface, *new_surface);
  printf("functions:   +%zu -%zu changed %zu\n", diff.funcs.added.size(),
         diff.funcs.removed.size(), diff.funcs.changed.size());
  printf("structs:     +%zu -%zu changed %zu\n", diff.structs.added.size(),
         diff.structs.removed.size(), diff.structs.changed.size());
  printf("tracepoints: +%zu -%zu changed %zu\n", diff.tracepoints.added.size(),
         diff.tracepoints.removed.size(), diff.tracepoints.changed.size());
  printf("syscalls:    +%zu -%zu\n", diff.syscalls.added.size(), diff.syscalls.removed.size());
  if (args.Has("verbose")) {
    for (const auto& [name, kinds] : diff.funcs.changed) {
      printf("  func %s:", name.c_str());
      for (FuncChangeKind kind : kinds) {
        printf(" [%s]", FuncChangeKindName(kind));
      }
      printf("\n");
    }
    for (const auto& [name, kinds] : diff.structs.changed) {
      printf("  struct %s:", name.c_str());
      for (StructChangeKind kind : kinds) {
        printf(" [%s]", StructChangeKindName(kind));
      }
      printf("\n");
    }
  }
  return 0;
}

int CmdCheck(const Args& args) {
  const std::vector<std::string>& positional = args.pos;
  std::string dataset_path = args.Text("dataset");
  if (positional.size() < 2 && dataset_path.empty()) {
    return DiagError("check requires OBJECT and either IMAGE... or --dataset=FILE");
  }
  auto object_bytes = ReadFileBytes(positional[0]);
  if (!object_bytes.ok()) {
    return DiagError(object_bytes.error().ToString());
  }
  auto object = ParseBpfObject(object_bytes.TakeValue());
  if (!object.ok()) {
    return DiagError("object: " + object.error().ToString());
  }
  auto deps = ExtractDependencySet(*object);
  if (!deps.ok()) {
    return DiagError(deps.error().ToString());
  }
  Dataset dataset;
  if (!dataset_path.empty()) {
    auto bytes = ReadFileBytes(dataset_path);
    if (!bytes.ok()) {
      return DiagError(bytes.error().ToString());
    }
    auto loaded = LoadAnyDataset(*bytes);
    if (!loaded.ok()) {
      return DiagError(dataset_path + ": " + loaded.error().ToString());
    }
    dataset = loaded.TakeValue();
  }
  for (size_t i = 1; i < positional.size(); ++i) {
    auto bytes = ReadFileBytes(positional[i]);
    if (!bytes.ok()) {
      return DiagError(bytes.error().ToString());
    }
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    if (!surface.ok()) {
      return DiagError(positional[i] + ": " + surface.error().ToString());
    }
    // Full images carry kernel BTF, so beyond the dataset row check we can
    // replay the object's CO-RE relocations against each one.
    LoadResult load = SimulateLoad(*object, surface->btf());
    size_t resolved = 0;
    for (const RelocResult& r : load.relocs) {
      resolved += r.outcome == RelocOutcome::kResolved ? 1 : 0;
    }
    printf("load %-28s %s (%zu/%zu relocs resolved%s%s)\n", positional[i].c_str(),
           load.loaded ? "ok" : "FAILS", resolved, load.relocs.size(),
           load.loaded ? "" : ": ", load.failure.c_str());
    dataset.AddImage(positional[i], *surface);
  }
  ProgramReport report = AnalyzeProgram(dataset, *deps);
  printf("%s\n", report.RenderMatrix().c_str());
  printf("worst implication: %s\n", ImplicationName(report.WorstImplication()));
  return report.AnyMismatch() ? 2 : 0;  // like grep: 2 = mismatches found
}

// Static analysis of a compiled object's instruction streams (CFG,
// reachability, register provenance, guard dominance). Exit 0 when clean,
// 2 when the analyzer reports findings, 1 when the object is unreadable.
int CmdAnalyze(const Args& args) {
  const std::string& path = args.pos[0];
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes.TakeValue(), &ledger);
  if (!object.ok()) {
    return DiagError(path + ": " + object.error().ToString());
  }
  std::vector<Dataset> datasets;
  AnalyzeOptions opts;
  if (Status loaded = LoadAgainstDatasets(args, datasets, opts); !loaded.ok()) {
    return DiagError(loaded.error());
  }
  ObjectAnalysis analysis = AnalyzeObject(*object, opts);
  if (args.Has("json")) {
    printf("%s", AnalysisToJson(analysis).c_str());
  } else {
    printf("object %s: %zu programs, %zu relocs%s\n", analysis.object_name.c_str(),
           analysis.programs.size(), analysis.relocs.size(),
           analysis.against_dataset
               ? StrFormat(" (against %zu images)", analysis.against_images).c_str()
               : "");
    for (const ProgramAnalysis& program : analysis.programs) {
      printf("  %-28s %s: %zu insns, %zu blocks, %zu reachable, %zu helper calls\n",
             program.name.c_str(), program.section.c_str(), program.insn_count,
             program.block_count, program.reachable_insns, program.helper_calls);
    }
    for (const RelocVerdict& verdict : analysis.relocs) {
      printf("  reloc [%zu] %s %s%s%s %s%s%s\n", verdict.index,
             CoreRelocKindName(verdict.kind), verdict.struct_name.c_str(),
             verdict.field_name.empty() ? "" : "::",
             verdict.field_name.c_str(),
             verdict.bound
                 ? StrFormat("%s+%u", verdict.program.c_str(), verdict.insn_off).c_str()
                 : "(unbound)",
             verdict.unguarded ? "" : " [guarded]",
             verdict.consequence.empty() ? "" : (" -> " + verdict.consequence).c_str());
    }
    for (const Finding& finding : analysis.findings) {
      printf("  %s %s+%u: %s\n", FindingKindName(finding.kind),
             finding.program.c_str(), finding.insn_off, finding.detail.c_str());
      printf("      fix: %s\n", finding.remediation.c_str());
    }
    printf("%zu findings\n", analysis.findings.size());
  }
  // Salvage notes go to stderr so --json output stays machine-clean.
  for (const DiagnosticEntry& entry : ledger.entries()) {
    fprintf(stderr, "note: %s\n", entry.ToString().c_str());
  }
  return analysis.findings.empty() ? 0 : 2;
}

// Remediation: plan a field_exists guard for every fixable finding, splice
// the guards into the object, and self-verify by re-analyzing the result.
// Exit 0 when the fixed object is clean, 2 when unfixable findings remain,
// 1 on error or when verification fails (a targeted finding survived the
// rewrite, or the rewrite introduced a new one).
int CmdFix(const Args& args) {
  const std::string& path = args.pos[0];
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return DiagError(bytes.error());
  }
  DiagnosticLedger ledger;
  auto object = ParseBpfObject(bytes.TakeValue(), &ledger);
  if (!object.ok()) {
    return DiagError(path + ": " + object.error().ToString());
  }
  std::vector<Dataset> datasets;
  AnalyzeOptions opts;
  if (Status loaded = LoadAgainstDatasets(args, datasets, opts); !loaded.ok()) {
    return DiagError(loaded.error());
  }

  ObjectAnalysis before = AnalyzeObject(*object, opts);
  RemediationPlan plan = PlanRemediation(*object, before, opts);

  BpfObject fixed = *object;
  Status applied = InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger);
  if (!applied.ok()) {
    for (const DiagnosticEntry& entry : ledger.entries()) {
      fprintf(stderr, "note: %s\n", entry.ToString().c_str());
    }
    return DiagError(path + ": " + applied.error().ToString());
  }

  // The fixed object must round-trip through the salvaging decoder and
  // re-analyze with every targeted finding gone and nothing new.
  auto encoded = WriteBpfObject(fixed);
  if (!encoded.ok()) {
    return DiagError(path + ": fixed object does not encode: " +
                     encoded.error().ToString());
  }
  DiagnosticLedger reparse_ledger;
  auto reparsed = ParseBpfObject(*encoded, &reparse_ledger);
  if (!reparsed.ok()) {
    return DiagError(path + ": fixed object does not re-parse: " +
                     reparsed.error().ToString());
  }
  ledger.Merge(reparse_ledger);
  ObjectAnalysis after = AnalyzeObject(*reparsed, opts);
  RemediationVerification verification = VerifyRemediation(before, plan, after);

  std::string out_path = args.Text("out");
  if (!out_path.empty()) {
    Status written = WriteFile(out_path, *encoded);
    if (!written.ok()) {
      return DiagError(written.ToString());
    }
  }
  if (args.Has("json")) {
    printf("%s", RemediationToJson(before, plan, &verification).c_str());
  } else {
    printf("object %s: %zu findings, %zu fixable%s\n", before.object_name.c_str(),
           before.findings.size(), plan.FixableCount(),
           before.against_dataset
               ? StrFormat(" (against %zu images)", before.against_images).c_str()
               : "");
    for (size_t i = 0; i < plan.items.size(); ++i) {
      const Finding& finding = before.findings[i];
      printf("  %s %s+%u: %s\n", FindingKindName(finding.kind),
             finding.program.c_str(), finding.insn_off, plan.items[i].Text().c_str());
    }
    printf("after fix: %zu findings (%zu of %zu targeted eliminated, %zu new)\n",
           after.findings.size(), verification.targeted - verification.targeted_remaining,
           verification.targeted, verification.new_findings);
    if (!out_path.empty()) {
      printf("wrote %s (%zu bytes)\n", out_path.c_str(), encoded->size());
    }
  }
  for (const DiagnosticEntry& entry : ledger.entries()) {
    fprintf(stderr, "note: %s\n", entry.ToString().c_str());
  }
  if (!verification.ok) {
    fprintf(stderr,
            "error: fix verification failed: %zu targeted findings remain, "
            "%zu new findings\n",
            verification.targeted_remaining, verification.new_findings);
    return 1;
  }
  return after.findings.empty() ? 0 : 2;
}

int CmdDatasetBuild(const Args& args) {
  std::string out = args.Text("out");
  Dataset dataset;
  for (const std::string& path : args.pos) {
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      return DiagError(bytes.error().ToString());
    }
    auto surface = DependencySurface::Extract(bytes.TakeValue());
    if (!surface.ok()) {
      return DiagError(path + ": " + surface.error().ToString());
    }
    dataset.AddImage(path, *surface);
    printf("distilled %s\n", path.c_str());
  }
  std::vector<uint8_t> bytes = SaveDataset(dataset);
  Status written = WriteFile(out, bytes);
  if (!written.ok()) {
    return DiagError(written.ToString());
  }
  printf("wrote %s (%zu images, %zu bytes)\n", out.c_str(), dataset.num_images(),
         bytes.size());
  return 0;
}

// Reads a .dds of any format version; errors carry the path.
struct LoadedDataset {
  std::vector<uint8_t> bytes;
  int format = 0;
  Dataset dataset;
};

Result<LoadedDataset> LoadDatasetFile(const std::string& path) {
  LoadedDataset loaded;
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.TakeError();
  }
  loaded.bytes = bytes.TakeValue();
  auto format = DatasetFormatVersion(loaded.bytes);
  if (!format.ok()) {
    return format.TakeError().Wrap(path);
  }
  loaded.format = *format;
  auto dataset = LoadAnyDataset(loaded.bytes);
  if (!dataset.ok()) {
    return dataset.TakeError().Wrap(path);
  }
  loaded.dataset = dataset.TakeValue();
  return loaded;
}

// migrate IN OUT: rewrite any .dds (v1 or v2) as the v2 mmap layout.
// Byte-deterministic: the same input always produces the same output, and
// migrating a v2 file reproduces it exactly.
int CmdDatasetMigrate(const Args& args) {
  const std::string& in = args.pos[0];
  const std::string& out = args.pos[1];
  auto loaded = LoadDatasetFile(in);
  if (!loaded.ok()) {
    return DiagError(loaded.error().ToString());
  }
  std::vector<uint8_t> v2 = SaveDatasetV2(loaded->dataset);
  Status written = WriteFile(out, v2);
  if (!written.ok()) {
    return DiagError(written.ToString());
  }
  printf("migrated %s (v%d, %zu bytes) -> %s (v2, %zu images, %zu bytes)\n", in.c_str(),
         loaded->format, loaded->bytes.size(), out.c_str(), loaded->dataset.num_images(),
         v2.size());
  return 0;
}

int CmdDatasetInfo(const Args& args) {
  auto loaded = LoadDatasetFile(args.pos[0]);
  if (!loaded.ok()) {
    return DiagError(loaded.error().ToString());
  }
  const Dataset& dataset = loaded->dataset;
  printf("format v%d: %zu images, %zu interned strings\n", loaded->format,
         dataset.num_images(), dataset.pool_size());
  for (const ImageRecord& image : dataset.images()) {
    printf("  %-28s v%d.%d %s/%s gcc%d: %zu funcs, %zu structs, %zu tracepoints, %zu syscalls\n",
           image.label.c_str(), image.meta.version_major, image.meta.version_minor,
           image.meta.arch.c_str(), image.meta.flavor.c_str(), image.meta.gcc_major,
           image.funcs.size(), image.structs.size(), image.tracepoints.size(),
           image.syscalls.size());
  }
  return 0;
}

// Dataset-as-a-service: open every --against dataset once (v2 zero-copy
// mmap, v1 legacy parse), then answer batched NDJSON dependency-set
// queries. --oneshot reads one batch from stdin and writes one response
// line per request to stdout, in request order. --socket=PATH listens on a
// unix stream socket instead: each connection is one batch (client writes
// request lines then shuts down its write side; the server responds and
// closes). --report-out=FILE writes a depsurf.serve_report.v1 summary.
int CmdServe(const Args& args) {
  ServeOptions options;
  options.jobs = static_cast<int>(args.U64("jobs", 0));
  options.cache_capacity = static_cast<size_t>(args.U64("cache-capacity", 4096));
  const uint64_t max_conns = args.U64("max-connections", 0);
  std::string socket_path = args.Text("socket");
  const bool oneshot = args.Has("oneshot");
  if (oneshot == !socket_path.empty()) {
    return DiagError("serve requires exactly one of --oneshot or --socket=PATH");
  }

  auto engine = ServeEngine::Open(SplitList(args.Text("against")), options);
  if (!engine.ok()) {
    return DiagError(engine.error());
  }

  if (oneshot) {
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
    for (const std::string& response : engine->HandleBatch(lines)) {
      printf("%s\n", response.c_str());
    }
  } else {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      return DiagError("--socket: path longer than sockaddr_un allows");
    }
    memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    int listener = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
      return DiagError(StrFormat("socket: %s", strerror(errno)));
    }
    unlink(socket_path.c_str());
    if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(listener, 8) != 0) {
      int saved = errno;
      close(listener);
      return DiagError(StrFormat("cannot listen on %s: %s", socket_path.c_str(),
                                 strerror(saved)));
    }
    fprintf(stderr, "serving %zu dataset(s) on %s%s\n", engine->num_datasets(),
            socket_path.c_str(),
            max_conns > 0
                ? StrFormat(" (%llu connection(s))",
                            static_cast<unsigned long long>(max_conns))
                      .c_str()
                : "");
    for (uint64_t served = 0; max_conns == 0 || served < max_conns; ++served) {
      int conn = accept(listener, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR) {
          continue;
        }
        close(listener);
        return DiagError(StrFormat("accept: %s", strerror(errno)));
      }
      std::string incoming;
      char buffer[4096];
      ssize_t n;
      while ((n = read(conn, buffer, sizeof(buffer))) > 0) {
        incoming.append(buffer, static_cast<size_t>(n));
      }
      std::vector<std::string> lines;
      for (const std::string& request : SplitString(incoming, '\n')) {
        if (!request.empty()) {
          lines.push_back(request);
        }
      }
      std::string out;
      for (const std::string& response : engine->HandleBatch(lines)) {
        out += response;
        out += '\n';
      }
      size_t sent = 0;
      while (sent < out.size()) {
        ssize_t wrote = write(conn, out.data() + sent, out.size() - sent);
        if (wrote <= 0) {
          break;  // client hung up; drop the rest of this batch
        }
        sent += static_cast<size_t>(wrote);
      }
      close(conn);
    }
    close(listener);
    unlink(socket_path.c_str());
  }

  std::string report_out = args.Text("report-out");
  if (!report_out.empty()) {
    Status written = WriteFile(report_out, engine->ReportJson());
    if (!written.ok()) {
      return DiagError(written.error());
    }
    fprintf(stderr, "wrote %s (%s)\n", report_out.c_str(), kServeReportSchema);
  }
  fprintf(stderr,
          "served %llu request(s): %llu ok, %llu errors, cache %llu hit / %llu miss\n",
          static_cast<unsigned long long>(engine->requests()),
          static_cast<unsigned long long>(engine->ok_responses()),
          static_cast<unsigned long long>(engine->error_responses()),
          static_cast<unsigned long long>(engine->cache_hits()),
          static_cast<unsigned long long>(engine->cache_misses()));
  return 0;
}

int CmdProgs(const Args&) {
  for (const BpfObject& object : BuildProgramCorpus().objects) {
    printf("%s\n", object.name.c_str());
  }
  return 0;
}

int CmdEmit(const Args& args) {
  const std::string& name = args.pos[0];
  std::string out = args.Text("out");
  for (const BpfObject& object : BuildProgramCorpus().objects) {
    if (object.name == name) {
      auto bytes = WriteBpfObject(object);
      if (!bytes.ok()) {
        return DiagError(bytes.error().ToString());
      }
      Status written = WriteFile(out, *bytes);
      if (!written.ok()) {
        return DiagError(written.ToString());
      }
      printf("wrote %s (%zu bytes)\n", out.c_str(), bytes->size());
      return 0;
    }
  }
  return DiagError("no bundled program named " + name + " (see `depsurf progs`)");
}

// ---- The command table -----------------------------------------------------

struct FlagSpec {
  const char* name;
  Kind kind;
  const char* placeholder = "";  // usage text after '='; unused for kBool
  bool required = false;
};

struct Command {
  const char* path;  // "perf compare": a group name, then its subcommand
  // Positional names, in order; a trailing "NAME..." takes any number more.
  std::vector<const char*> pos;
  size_t min_pos;
  std::vector<FlagSpec> flags;
  const char* help;
  int (*run)(const Args&);
};

const FlagSpec kGlobalFlags[] = {
    {"metrics-out", Kind::kText, "FILE"},
    {"trace-out", Kind::kText, "FILE"},
    {"trace", Kind::kBool},
};

const Command kCommands[] = {
    {"gen", {}, 0,
     {{"version", Kind::kText, "5.4"}, {"arch", Kind::kText, "A"},
      {"flavor", Kind::kText, "F"}, {"scale", Kind::kScale, "S"}, {"seed", Kind::kSeed, "N"},
      {"out", Kind::kText, "IMG", true}},
     "generate a kernel image", CmdGen},
    {"surface", {"IMG"}, 1, {{"func", Kind::kText, "NAME"}, {"json", Kind::kBool}},
     "inspect a dependency surface", CmdSurface},
    {"stats", {"IMG"}, 1, {{"json", Kind::kBool}},
     "decode an image, report pipeline metrics", CmdStats},
    {"diff", {"OLD", "NEW"}, 2, {{"verbose", Kind::kBool}},
     "diff two images (Table 3/4 style)", CmdDiff},
    {"check", {"OBJ", "IMG..."}, 1, {{"dataset", Kind::kText, "FILE"}},
     "report mismatches for an eBPF object against images or a dataset "
     "(exit 2 when mismatches are found)",
     CmdCheck},
    {"analyze", {"OBJ"}, 1, {{"against", Kind::kText, "DS[,DS...]"}, {"json", Kind::kBool}},
     "static analysis of the insn stream (exit 2 on findings, 1 if unreadable; "
     "worst consequence across all datasets wins)",
     CmdAnalyze},
    {"fix", {"OBJ"}, 1,
     {{"against", Kind::kText, "DS[,DS...]"}, {"out", Kind::kText, "FILE"},
      {"json", Kind::kBool}},
     "synthesize field_exists guards for unguarded relocs, verify by re-analysis "
     "(exit 0 clean, 2 unfixable findings remain, 1 error)",
     CmdFix},
    {"dataset build", {"IMG..."}, 1, {{"out", Kind::kText, "FILE", true}},
     "distill images into a .dds dataset", CmdDatasetBuild},
    {"dataset info", {"FILE"}, 1, {}, "summarize a .dds dataset", CmdDatasetInfo},
    {"dataset migrate", {"IN", "OUT"}, 2, {},
     "rewrite any .dds as the v2 mmap layout (byte-deterministic)", CmdDatasetMigrate},
    {"serve", {}, 0,
     {{"against", Kind::kText, "DS[,DS...]", true}, {"oneshot", Kind::kBool},
      {"socket", Kind::kText, "PATH"}, {"jobs", Kind::kJobs, "N"},
      {"cache-capacity", Kind::kU64, "N"}, {"max-connections", Kind::kU64, "N"},
      {"report-out", Kind::kText, "FILE"}},
     "batched NDJSON dependency-set queries from stdin (--oneshot) or a unix socket; "
     "one response line per request, byte-identical at any --jobs",
     CmdServe},
    {"progs", {}, 0, {}, "list the bundled 53-program corpus", CmdProgs},
    {"emit", {"PROGRAM"}, 1, {{"out", Kind::kText, "OBJ", true}},
     "write a bundled program's .o", CmdEmit},
    {"doctor", {"IMG"}, 1,
     {{"sweep", Kind::kU64, "N"}, {"seed", Kind::kSeed, "S"},
      {"mutation-timeout", Kind::kSeconds, "SECS"}, {"json", Kind::kBool}},
     "triage a damaged image or sweep seeded faults (exit 2 when the image needed "
     "salvage, 1 when unreadable or a sweep mutation timed out)",
     CmdDoctor},
    {"fuzz", {"SEED..."}, 1,
     {{"rounds", Kind::kU64, "N"}, {"seed", Kind::kSeed, "S"},
      {"corpus-dir", Kind::kText, "DIR"}, {"mutation-timeout", Kind::kSeconds, "SECS"},
      {"max-ledger", Kind::kU64, "N"}, {"json", Kind::kBool}},
     "coverage-guided fault fuzzing over images or objects (exit 2 on oracle "
     "disagreements, 1 on hangs)",
     CmdFuzz},
    {"metrics lint", {"FILE"}, 1,
     {{"kind", Kind::kText, "KIND"}, {"min-spans", Kind::kU64, "N"},
      {"require", Kind::kText, "a,b,c"}, {"report", Kind::kText, "FILE"}},
     "validate an observability document; KIND is report (the default), agg, bench, "
     "perf, trace, diag, analysis, remediation, profile, history, trend, profile_diff, "
     "fuzz or serve",
     CmdMetricsLint},
    {"metrics canon", {"FILE"}, 1, {},
     "canonical JSON with timing fields masked", CmdMetricsCanon},
    {"report merge", {"OUT", "IN..."}, 2, {},
     "merge run reports into an aggregate", CmdReportMerge},
    {"report flame", {"REPORT.json"}, 1, {{"out", Kind::kText, "FILE"}},
     "folded stacks for flamegraph.pl", CmdReportFlame},
    {"perf compare", {"BASE.json", "HEAD.json"}, 2,
     {{"max-regress", Kind::kRatio, "15%"}, {"noise-floor", Kind::kSeconds, "S"},
      {"history", Kind::kText, "FILE"}, {"json", Kind::kBool}},
     "perf regression gate over stage timings (exit 3 when a stage regressed beyond "
     "the threshold; --history replaces the fixed floor with per-stage adaptive "
     "floors)",
     CmdPerfCompare},
    {"perf record", {"BENCH.json..."}, 1,
     {{"history", Kind::kText, "FILE", true}, {"label", Kind::kText, "L"},
      {"profile", Kind::kText, "P.json"}},
     "append a run to the history store", CmdPerfRecord},
    {"perf trend", {}, 0,
     {{"history", Kind::kText, "FILE", true}, {"window", Kind::kU64, "K"},
      {"min-floor", Kind::kSeconds, "S"}, {"json", Kind::kBool}},
     "robust per-stage baselines and change points", CmdPerfTrend},
    {"perf diff", {"BASE_PROFILE.json", "HEAD_PROFILE.json"}, 2,
     {{"top", Kind::kU64, "N"}, {"json", Kind::kBool}},
     "differential profile attribution", CmdPerfDiff},
    {"profile", {"REPORT.json"}, 0,
     {{"live", Kind::kBool}, {"versions", Kind::kText, "5.4,6.8"},
      {"arch", Kind::kText, "A"}, {"flavor", Kind::kText, "F"},
      {"scale", Kind::kScale, "S"}, {"seed", Kind::kSeed, "N"}, {"jobs", Kind::kJobs, "N"},
      {"json", Kind::kBool}, {"out", Kind::kText, "PROFILE.json"},
      {"folded-out", Kind::kText, "FLAME.folded"}},
     "self-profile (self time, critical path) of a run report, an aggregate, a "
     "depsurf.profile.v1 document, or (--live, taking the study build flags) a "
     "fresh build",
     CmdProfile},
    {"study build", {}, 0,
     {{"versions", Kind::kText, "5.4,6.8"}, {"arch", Kind::kText, "A"},
      {"flavor", Kind::kText, "F"}, {"scale", Kind::kScale, "S"}, {"seed", Kind::kSeed, "N"},
      {"out", Kind::kText, "DATASET"}, {"report-dir", Kind::kText, "DIR"},
      {"profile-out", Kind::kText, "FILE"}, {"jobs", Kind::kJobs, "N"},
      {"strict", Kind::kBool}, {"poison", Kind::kText, "LABEL"}},
     "build a dataset corpus (the LTS set by default), with reports; images that "
     "fail are quarantined unless --strict",
     CmdStudyBuild},
};

// ---- The one parser ------------------------------------------------------------

std::string FlagUsage(const FlagSpec& flag) {
  std::string text = std::string("--") + flag.name;
  if (flag.kind != Kind::kBool) {
    text += std::string("=") + flag.placeholder;
  }
  return flag.required ? text : "[" + text + "]";
}

// `line` then `words`, wrapped at 80 columns with a 10-column indent.
std::string Wrap(std::string line, const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (line.size() > 10 && line.size() + 1 + word.size() > 80) {
      out += line + "\n";
      line = std::string(9, ' ');
    }
    line += " " + word;
  }
  line.erase(line.find_last_not_of(' ') + 1);
  return out + line + "\n";
}

std::string CommandUsage(const Command& cmd) {
  std::vector<std::string> words;
  for (size_t i = 0; i < cmd.pos.size(); ++i) {
    words.push_back(i < cmd.min_pos ? cmd.pos[i] : "[" + std::string(cmd.pos[i]) + "]");
  }
  for (const FlagSpec& flag : cmd.flags) {
    words.push_back(FlagUsage(flag));
  }
  std::string lead = std::string("  ") + cmd.path;
  lead.resize(std::max<size_t>(lead.size(), 9), ' ');
  return Wrap(lead, words) + Wrap(std::string(9, ' '), SplitString(cmd.help, ' '));
}

std::string Usage() {
  std::string out = "usage: depsurf COMMAND [options]\n";
  for (const Command& cmd : kCommands) {
    out += CommandUsage(cmd);
  }
  std::vector<std::string> global;
  for (const FlagSpec& flag : kGlobalFlags) {
    global.push_back(FlagUsage(flag));
  }
  return out + Wrap("global options:", global);
}

const FlagSpec* FindFlag(const Command& cmd, const std::string& name) {
  auto named = [&](const FlagSpec& flag) { return name == flag.name; };
  auto own = std::find_if(cmd.flags.begin(), cmd.flags.end(), named);
  if (own != cmd.flags.end()) {
    return &*own;
  }
  auto global = std::find_if(std::begin(kGlobalFlags), std::end(kGlobalFlags), named);
  return global != std::end(kGlobalFlags) ? global : nullptr;
}

// Checks `words` (argv after the command path) against the command's entry:
// every flag known, given once and well-formed for its kind, the positional
// count in range, every required flag present.
Result<Args> ParseArgs(const Command& cmd, const std::vector<std::string>& words) {
  Args args;
  for (const std::string& word : words) {
    if (!StartsWith(word, "--")) {
      args.pos.push_back(word);
      continue;
    }
    const size_t eq = word.find('=');
    const std::string name = word.substr(2, eq == std::string::npos ? eq : eq - 2);
    const FlagSpec* flag = FindFlag(cmd, name);
    if (flag == nullptr) {
      return Invalid("unknown flag --" + name);
    }
    if (args.Has(name)) {
      return Invalid("--" + name + " given more than once");
    }
    if (flag->kind == Kind::kBool) {
      if (eq != std::string::npos) {
        return Invalid("--" + name + " takes no value");
      }
      args.flags[name] = Arg{};
      continue;
    }
    if (eq == std::string::npos || eq + 1 == word.size()) {
      return Invalid(StrFormat("--%s needs a value: --%s=%s", name.c_str(), name.c_str(),
                               flag->placeholder));
    }
    auto value = ParseValue(flag->kind, word.substr(eq + 1));
    if (!value.ok()) {
      return value.TakeError().Wrap("--" + name);
    }
    args.flags[name] = value.TakeValue();
  }
  const bool variadic = !cmd.pos.empty() && EndsWith(cmd.pos.back(), "...");
  if (args.pos.size() < cmd.min_pos) {
    return Invalid(StrFormat("needs %s", cmd.pos[args.pos.size()]));
  }
  if (!variadic && args.pos.size() > cmd.pos.size()) {
    return Invalid(StrFormat("unexpected argument \"%s\"", args.pos[cmd.pos.size()].c_str()));
  }
  for (const FlagSpec& flag : cmd.flags) {
    if (flag.required && !args.Has(flag.name)) {
      return Invalid(StrFormat("needs --%s=%s", flag.name, flag.placeholder));
    }
  }
  return args;
}

const Command* FindCommand(const std::string& path) {
  for (const Command& cmd : kCommands) {
    if (path == cmd.path) {
      return &cmd;
    }
  }
  return nullptr;
}

// The subcommands of a group such as `perf`, as "compare|record|...";
// empty when `group` is not one.
std::string Subcommands(const std::string& group) {
  std::string out;
  for (const Command& cmd : kCommands) {
    if (StartsWith(cmd.path, group + " ")) {
      out += (out.empty() ? "" : "|") + std::string(cmd.path + group.size() + 1);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  std::vector<std::string> words(argv + std::min(argc, 2), argv + argc);
  const Command* cmd = FindCommand(name);
  if (std::string subs = Subcommands(name); cmd == nullptr && !subs.empty()) {
    // The subcommand is the group's first positional.
    auto sub = std::find_if(words.begin(), words.end(),
                            [](const std::string& word) { return !StartsWith(word, "--"); });
    if (sub == words.end()) {
      return DiagError(name + " requires a subcommand: " + subs);
    }
    cmd = FindCommand(name + " " + *sub);
    if (cmd == nullptr) {
      return DiagError("unknown " + name + " subcommand " + *sub + " (" + subs + ")");
    }
    words.erase(sub);
  }
  if (cmd == nullptr) {
    fputs(Usage().c_str(), stderr);
    return 1;
  }
  auto args = ParseArgs(*cmd, words);
  if (!args.ok()) {
    DiagError(std::string(cmd->path) + ": " + args.error().message());
    fprintf(stderr, "usage:\n%s", CommandUsage(*cmd).c_str());
    return 1;
  }
  if (args->Has("trace")) {
    obs::SpanCollector::Global().SetLiveTrace(true);
  }
  int code = cmd->run(*args);
  std::string trace_out = args->Text("trace-out");
  if (!trace_out.empty()) {
    Status written = obs::WriteGlobalTrace(trace_out);
    if (!written.ok()) {
      obs::Diag(obs::Severity::kError, "trace not written", written.error());
      if (code == 0) {
        code = 1;
      }
    }
  }
  std::string metrics_out = args->Text("metrics-out");
  if (!metrics_out.empty()) {
    // Preserve the command's exit code (check uses 2 for "mismatches
    // found"); a report that cannot be written is its own failure.
    Status written = obs::WriteGlobalRunReport(metrics_out);
    if (!written.ok()) {
      obs::Diag(obs::Severity::kError, "metrics report not written", written.error());
      if (code == 0) {
        code = 1;
      }
    }
  }
  return code;
}
