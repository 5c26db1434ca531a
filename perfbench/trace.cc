// perfbench_trace: the in-process half of the benchmark's traced run.
//
// Each mode does one workload's work by calling the layers' public
// functions directly, wrapping each call in an obs::ScopedSpan named after
// the per-layer metric it feeds. The spans the program records on its own
// (surface.*, dataset.distill, study.build_dataset, serve.batch, ...) land in
// the same root collector, because this process never pushes a context.
// On exit the whole span forest (with start times and thread ids) and the
// root metrics registry are written to stdout as one JSON document;
// perfbench/run.py turns them into per-layer metrics.
//
//   perfbench_trace depsets OBJ...
//       one NDJSON dependency-set request per object (input generation)
//   perfbench_trace build [--versions=V,...] --scale=X --seed=S --jobs=N --name=NAME
//       one `study build` (default: the LTS corpus) + `dataset migrate`,
//       writing NAME.dds and NAME.v2.dds
//   perfbench_trace serve --against=DS --requests=FILE --batch=B --jobs=N
//       replays FILE in batches of B, then its first kSoloRequests requests
//       one at a time
//   perfbench_trace fix --against=DS OBJ...
//       the `depsurf fix --against` call chain once per object (run.py passes
//       one object per process, as the CLI is run)
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_object.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/core/dataset_io.h"
#include "src/core/dependency_set.h"
#include "src/core/report.h"
#include "src/kernelgen/rates.h"
#include "src/obs/json_lint.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"
#include "src/serve/serve.h"
#include "src/study/study.h"
#include "src/util/str_util.h"

using namespace depsurf;
using obs::ScopedSpan;

namespace {

// Requests `serve` replays one at a time, for the per-request latency.
constexpr size_t kSoloRequests = 2000;

std::string Flag(int argc, char** argv, const char* name, const char* fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

std::vector<std::string> Positional(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 2; i < argc; ++i) {
    if (strncmp(argv[i], "--", 2) != 0) {
      out.emplace_back(argv[i]);
    }
  }
  return out;
}

[[noreturn]] void Fail(const std::string& message) {
  fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  exit(1);
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Fail("cannot read " + path);
  }
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    Fail("cannot write " + path);
  }
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

std::string JsonStringArray(const std::set<std::string>& names) {
  std::string out = "[";
  for (const std::string& name : names) {
    out += (out.size() > 1 ? ", \"" : "\"") + obs::JsonEscape(name) + "\"";
  }
  return out + "]";
}

// The serve wire format of a dependency set (see src/serve/serve.h).
std::string RequestJson(const DependencySet& deps) {
  std::string fields = "{";
  for (const auto& [struct_name, field_map] : deps.fields) {
    fields += (fields.size() > 1 ? ", \"" : "\"") + obs::JsonEscape(struct_name) + "\": {";
    bool first = true;
    for (const auto& [field_name, dep] : field_map) {
      fields += (first ? "\"" : ", \"") + obs::JsonEscape(field_name) + "\": {\"type\": \"" +
                obs::JsonEscape(dep.expected_type) + "\", \"guarded\": " +
                (dep.guarded ? "true" : "false") + "}";
      first = false;
    }
    fields += "}";
  }
  fields += "}";
  return "{\"program\": \"" + obs::JsonEscape(deps.program) + "\", \"funcs\": " +
         JsonStringArray(deps.funcs) + ", \"fields\": " + fields +
         ", \"tracepoints\": " + JsonStringArray(deps.tracepoints) +
         ", \"syscalls\": " + JsonStringArray(deps.syscalls) +
         ", \"lsm_hooks\": " + JsonStringArray(deps.lsm_hooks) + "}";
}

// Inverse of RequestJson, for requests the generator wrote; nullopt for
// object requests, which name a file instead.
std::optional<DependencySet> RequestDeps(const std::string& line) {
  auto doc = obs::ParseJson(line);
  if (!doc.ok()) {
    Fail("bad request line: " + doc.error().message());
  }
  if (doc->Find("object") != nullptr) {
    return std::nullopt;
  }
  DependencySet deps;
  if (const obs::JsonValue* program = doc->Find("program")) {
    deps.program = program->string;
  }
  std::pair<const char*, std::set<std::string>*> lists[] = {
      {"funcs", &deps.funcs},
      {"tracepoints", &deps.tracepoints},
      {"syscalls", &deps.syscalls},
      {"lsm_hooks", &deps.lsm_hooks}};
  for (auto& [name, target] : lists) {
    if (const obs::JsonValue* value = doc->Find(name)) {
      for (const obs::JsonValue& element : value->array) {
        target->insert(element.string);
      }
    }
  }
  if (const obs::JsonValue* fields = doc->Find("fields")) {
    for (const auto& [struct_name, field_map] : fields->object) {
      auto& target = deps.fields[struct_name];
      for (const auto& [field_name, expectation] : field_map.object) {
        FieldDep dep;
        if (const obs::JsonValue* type = expectation.Find("type")) {
          dep.expected_type = type->string;
        }
        if (const obs::JsonValue* guarded = expectation.Find("guarded")) {
          dep.guarded = guarded->boolean;
        }
        target[field_name] = dep;
      }
    }
  }
  return deps;
}

void AppendSpan(std::string& out, const obs::SpanNode& span) {
  out += StrFormat("{\"name\": \"%s\", \"start_ns\": %llu, \"dur_ns\": %llu, \"cpu_ns\": %llu, "
                   "\"tid\": %u, \"children\": [",
                   obs::JsonEscape(span.name).c_str(), (unsigned long long)span.start_ns,
                   (unsigned long long)span.dur_ns, (unsigned long long)span.cpu_ns, span.tid);
  for (size_t i = 0; i < span.children.size(); ++i) {
    out += i != 0 ? ", " : "";
    AppendSpan(out, span.children[i]);
  }
  out += "]}";
}

// The span forest and root metrics, as one JSON document on stdout.
void Dump(const std::vector<std::pair<std::string, double>>& values) {
  std::string out = "{\"spans\": [";
  std::vector<obs::SpanNode> roots = obs::SpanCollector::Global().Snapshot();
  for (size_t i = 0; i < roots.size(); ++i) {
    out += i != 0 ? ",\n" : "\n";
    AppendSpan(out, roots[i]);
  }
  out += "],\n\"counters\": {";
  const obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (const auto& [name, value] : metrics.CounterSnapshot()) {
    out += StrFormat("%s\"%s\": %llu", out.back() == '{' ? "" : ", ", name.c_str(),
                     (unsigned long long)value);
  }
  out += "},\n\"gauges\": {";
  for (const auto& [name, value] : metrics.GaugeSnapshot()) {
    out += StrFormat("%s\"%s\": %lld", out.back() == '{' ? "" : ", ", name.c_str(),
                     (long long)value);
  }
  out += "},\n\"histograms\": {";
  for (const auto& [name, histogram] : metrics.HistogramSnapshot()) {
    out += StrFormat("%s\"%s\": {\"count\": %llu, \"sum\": %llu}",
                     out.back() == '{' ? "" : ", ", name.c_str(),
                     (unsigned long long)histogram->count(),
                     (unsigned long long)histogram->sum());
  }
  out += "},\n\"values\": {";
  for (const auto& [name, value] : values) {
    out += StrFormat("%s\"%s\": %.17g", out.back() == '{' ? "" : ", ", name.c_str(), value);
  }
  out += "}}\n";
  fwrite(out.data(), 1, out.size(), stdout);
}

int Depsets(int argc, char** argv) {
  for (const std::string& path : Positional(argc, argv)) {
    auto object = ParseBpfObject(ReadBytes(path));
    if (!object.ok()) {
      Fail(path + ": " + object.error().ToString());
    }
    auto deps = ExtractDependencySet(*object);
    if (!deps.ok()) {
      Fail(path + ": " + deps.error().ToString());
    }
    printf("%s\n", RequestJson(*deps).c_str());
  }
  return 0;
}

// `depsurf study build [--versions=V] --scale=X --seed=S --jobs=N --out=NAME.dds`
// followed by `depsurf dataset migrate NAME.dds NAME.v2.dds`.
int Build(int argc, char** argv) {
  const std::string name = Flag(argc, argv, "name", "dataset");
  BuildPolicy policy;
  policy.keep_going = false;  // as `study build --strict`: a lost image fails the run
  policy.jobs = atoi(Flag(argc, argv, "jobs", "0").c_str());
  StudyOptions options;
  options.scale = strtod(Flag(argc, argv, "scale", "1.0").c_str(), nullptr);
  options.seed = strtoull(Flag(argc, argv, "seed", "2025").c_str(), nullptr, 10);
  std::vector<BuildSpec> corpus;
  const std::string versions = Flag(argc, argv, "versions", "");
  if (versions.empty()) {
    for (KernelVersion version : kLtsVersions) {
      corpus.push_back(MakeBuild(version));
    }
  }
  for (const std::string& text : SplitString(versions, ',')) {
    if (text.empty()) {
      continue;
    }
    auto version = KernelVersion::Parse(text);
    if (!version.ok()) {
      Fail("bad --versions entry " + text);
    }
    corpus.push_back(MakeBuild(*version));
  }
  const uint64_t cpu_start = ProcessCpuNs();
  {
    ScopedSpan op("bench.op");
    std::unique_ptr<Study> study;
    {
      ScopedSpan span("study.init");
      study = std::make_unique<Study>(options);
    }
    std::optional<Result<Dataset>> dataset = study->BuildDataset(corpus, {}, policy);
    if (!dataset->ok()) {
      Fail(dataset->error().ToString());
    }
    {
      ScopedSpan span("dataset_io.save_v1");
      WriteBytes(name + ".dds", SaveDataset(dataset->value()));
    }
    std::optional<Result<Dataset>> loaded;
    {
      ScopedSpan span("dataset_io.migrate");
      loaded = LoadAnyDataset(ReadBytes(name + ".dds"));
      if (!loaded->ok()) {
        Fail(loaded->error().ToString());
      }
      WriteBytes(name + ".v2.dds", SaveDatasetV2(loaded->value()));
    }
    // Both CLI processes release their heap datasets before they exit.
    ScopedSpan span("dataset_io.free");
    dataset.reset();
    loaded.reset();
  }
  Dump({{"op_cpu_ns", static_cast<double>(ProcessCpuNs() - cpu_start)}});
  return 0;
}

int Serve(int argc, char** argv) {
  const std::string against = Flag(argc, argv, "against", "");
  const size_t batch = strtoull(Flag(argc, argv, "batch", "32").c_str(), nullptr, 10);
  ServeOptions options;
  options.jobs = atoi(Flag(argc, argv, "jobs", "0").c_str());
  std::vector<std::string> lines;
  {
    std::ifstream in(Flag(argc, argv, "requests", ""));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) {
        lines.push_back(line);
      }
    }
  }
  if (lines.empty() || batch == 0) {
    Fail("serve needs --requests=FILE with at least one line and --batch >= 1");
  }
  for (int i = 0; i < 16; ++i) {
    ScopedSpan span("dataset_io.mmap_open");
    if (!OpenDatasetView(against).ok()) {
      Fail("cannot open " + against);
    }
  }
  auto engine = ServeEngine::Open({against}, options);
  if (!engine.ok()) {
    Fail(engine.error().ToString());
  }
  for (size_t begin = 0; begin < lines.size(); begin += batch) {
    std::vector<std::string> chunk(lines.begin() + begin,
                                   lines.begin() + std::min(lines.size(), begin + batch));
    ScopedSpan span("bench.batch");
    engine->HandleBatch(chunk);
  }
  // Request latency: the same requests, each alone, on a fresh engine.
  auto solo = ServeEngine::Open({against}, options);
  if (!solo.ok()) {
    Fail(solo.error().ToString());
  }
  for (size_t i = 0; i < std::min(kSoloRequests, lines.size()); ++i) {
    ScopedSpan span("serve.request");
    solo->HandleBatch({lines[i]});
  }
  // Per-layer costs under a request: analysis over the mmap view for every
  // distinct dependency set, and object decoding for object requests.
  auto view = OpenDatasetView(against);
  if (!view.ok()) {
    Fail("cannot open " + against);
  }
  std::set<std::string> seen;
  for (const std::string& line : lines) {
    // Requests differ in their leading id only when they repeat a request.
    if (!seen.insert(line.substr(line.find(", ") + 2)).second) {
      continue;
    }
    std::optional<DependencySet> deps = RequestDeps(line);
    if (deps) {
      AnalyzeProgram(*view->view, *deps);
      continue;
    }
    auto doc = obs::ParseJson(line);
    std::vector<uint8_t> bytes = ReadBytes(doc->Find("object")->string);
    Result<BpfObject> object = Error(ErrorCode::kInvalidArgument, "unparsed");
    {
      ScopedSpan span("bpf.parse");
      object = ParseBpfObject(std::move(bytes));
    }
    if (!object.ok() || !ExtractDependencySet(*object).ok()) {
      Fail("bad object request " + line);
    }
  }
  Dump({{"cache_hits", static_cast<double>(engine->cache_hits())},
        {"cache_misses", static_cast<double>(engine->cache_misses())},
        {"requests", static_cast<double>(engine->requests())}});
  return 0;
}

// The call chain of `depsurf fix OBJ --against=DS --json --out=F`.
int Fix(int argc, char** argv) {
  const std::string against = Flag(argc, argv, "against", "");
  size_t findings = 0;
  size_t fixable = 0;
  for (const std::string& path : Positional(argc, argv)) {
    ScopedSpan op("bench.op");
    DiagnosticLedger ledger;
    Result<BpfObject> object = Error(ErrorCode::kInvalidArgument, "unparsed");
    {
      ScopedSpan span("bpf.parse");
      object = ParseBpfObject(ReadBytes(path), &ledger);
    }
    std::optional<Result<Dataset>> dataset;
    {
      ScopedSpan span("dataset_io.load");
      dataset = LoadAnyDataset(ReadBytes(against));
    }
    if (!object.ok() || !dataset->ok()) {
      Fail(path + ": cannot load the object or the dataset");
    }
    AnalyzeOptions opts;
    opts.against_all.push_back(&dataset->value());
    ObjectAnalysis before = AnalyzeObject(*object, opts);
    RemediationPlan plan = [&] {
      ScopedSpan span("remediation.plan");
      return PlanRemediation(*object, before, opts);
    }();
    BpfObject fixed = *object;
    {
      ScopedSpan span("bpf.rewrite");
      if (!InsertFieldExistsGuards(fixed, plan.Insertions(), &ledger).ok()) {
        Fail(path + ": rewrite refused");
      }
    }
    Result<std::vector<uint8_t>> encoded = [&] {
      ScopedSpan span("bpf.encode");
      return WriteBpfObject(fixed);
    }();
    if (!encoded.ok()) {
      Fail(path + ": fixed object does not encode");
    }
    Result<BpfObject> reparsed = Error(ErrorCode::kInvalidArgument, "unparsed");
    {
      ScopedSpan span("bpf.parse");
      reparsed = ParseBpfObject(*encoded, &ledger);
    }
    if (!reparsed.ok()) {
      Fail(path + ": fixed object does not re-parse");
    }
    ObjectAnalysis after = AnalyzeObject(*reparsed, opts);
    {
      ScopedSpan span("remediation.verify");
      VerifyRemediation(before, plan, after);
    }
    findings += before.findings.size();
    fixable += plan.FixableCount();
    // The CLI releases its heap dataset before it exits; that is a cost of
    // the load, not of the tool.
    ScopedSpan span("dataset_io.free");
    dataset.reset();
  }
  Dump({{"findings", static_cast<double>(findings)}, {"fixable", static_cast<double>(fixable)}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "depsets") {
    return Depsets(argc, argv);
  }
  if (mode == "build") {
    return Build(argc, argv);
  }
  if (mode == "serve") {
    return Serve(argc, argv);
  }
  if (mode == "fix") {
    return Fix(argc, argv);
  }
  Fail("usage: perfbench_trace depsets|build|serve|fix ... (see trace.cc)");
}
