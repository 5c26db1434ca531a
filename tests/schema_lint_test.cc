// Tamper oracle for `depsurf metrics lint`: every invariant a lint kind
// enforces, one mutation each. Each row starts from a valid document of its
// kind (built by the real serializer where obs has one, hand-written
// otherwise), deletes a member, gives it the wrong type, or breaks a
// cross-field rule, and expects the lint to reject the result. A second
// table lists legal variants each kind must keep accepting.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json_lint.h"
#include "src/obs/metrics.h"
#include "src/obs/perf_gate.h"
#include "src/obs/perf_history.h"
#include "src/obs/profile.h"
#include "src/obs/profile_diff.h"
#include "src/obs/report_merge.h"
#include "src/obs/run_report.h"
#include "src/obs/schema.h"
#include "src/obs/span.h"
#include "src/obs/trace_export.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace {

using obs::JsonValue;

// ---------------------------------------------------------------------------
// Valid documents, one per kind.
// ---------------------------------------------------------------------------

obs::SpanNode Span(const std::string& name, uint64_t start_ns, uint64_t dur_ns) {
  obs::SpanNode span;
  span.name = name;
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  span.cpu_ns = dur_ns / 2;
  span.tid = 1;
  return span;
}

std::vector<obs::SpanNode> SpanForest() {
  obs::SpanNode root = Span("root", 1000, 9000);
  root.attrs = {{"images", "2"}};
  obs::SpanNode child = Span("child", 2000, 3000);
  child.children.push_back(Span("leaf", 2500, 1000));
  root.children.push_back(child);
  return {root};
}

std::string RunReport() {
  obs::SpanCollector spans;
  for (const obs::SpanNode& root : SpanForest()) {
    spans.AddRoot(root);
  }
  obs::MetricsRegistry metrics;
  metrics.Incr("ops", 3);
  metrics.Set("depth", 2);
  metrics.Record("lat", 40);
  DiagnosticEntry entry;
  entry.severity = DiagSeverity::kDegraded;
  entry.subsystem = DiagSubsystem::kDwarf;
  entry.offset = 452;
  entry.has_offset = true;
  entry.message = "ran off the end";
  std::vector<DiagnosticEntry> diagnostics = {entry};
  return obs::RunReportJson(spans, metrics, {}, &diagnostics);
}

obs::Profile SampleProfile() {
  obs::Profile profile;
  profile.span_nodes = 3;
  profile.names = {{"child", 1, 3000, 2000, 1500, 0, 0}, {"root", 1, 9000, 6000, 4500, 0, 0}};
  profile.wall_ns = 9000;
  profile.serial_self_ns = 8000;
  profile.critical_path = {{"root", 9000, 6000}, {"child", 3000, 2000}};
  profile.executor.present = true;
  profile.executor.window = 4;
  profile.executor.wall_ms = 12;
  profile.executor.worker_busy_ms = {{1, 10}, {2, 9}};
  return profile;
}

std::string Document(const std::string& kind) {
  if (kind == "report") {
    return RunReport();
  }
  if (kind == "agg") {
    return *obs::MergeRunReports({{"a", RunReport()}, {"b", RunReport()}});
  }
  if (kind == "trace") {
    return obs::TraceEventJson(SpanForest());
  }
  if (kind == "profile") {
    return obs::ProfileJson(SampleProfile());
  }
  if (kind == "profile_diff") {
    // "child" only runs in base, so its row has in_head false.
    obs::Profile head = SampleProfile();
    head.names = {{"root", 1, 9000, 7000, 4500, 0, 0}};
    head.critical_path = {{"root", 9000, 7000}};
    return obs::ProfileDiffJson(obs::DiffProfiles(SampleProfile(), head));
  }
  if (kind == "perf") {
    obs::PerfComparison comparison;
    comparison.stages = {{"extract", obs::StageClass::kFlat, 1.0, 1.01, 1.0, 0},
                         {"distill", obs::StageClass::kAdded, 0, 0.5, 0, 0}};
    return obs::PerfComparisonJson(comparison, obs::PerfGateOptions());
  }
  if (kind == "history") {
    obs::HistoryRecord record;
    record.label = "head";
    record.recorded_unix_ms = 1700000000000;
    record.host = {"cpu", 4, 4096};
    record.stages = {{"extract", 1.5, 3}};
    obs::SetProfileSummary(record, SampleProfile());
    return obs::HistoryRecordJson(record) + "\n";
  }
  if (kind == "trend") {
    obs::TrendReport report;
    report.host_id = "cpu/4/4096";
    report.records = 5;
    report.comparable = 5;
    report.window = 5;
    obs::StageTrend trend;
    trend.name = "extract";
    trend.samples = 5;
    trend.median_seconds = 1.0;
    trend.mad_seconds = 0.01;
    trend.latest_seconds = 1.1;
    trend.floor_seconds = 0.05;
    trend.deviation_sigmas = 6.7;
    trend.change_point = true;
    report.stages = {trend};
    return obs::TrendReportJson(report);
  }
  if (kind == "bench") {
    return R"json({"schema": "depsurf.bench_report.v1", "bench": "table1", "notes": {"scale": "0.02"},
      "stages": [{"name": "extract", "seconds": 0.5, "items": 2, "items_per_sec": 4.0,
                  "bytes": 100, "bytes_per_sec": 200.0}]})json";
  }
  if (kind == "diag") {
    return R"json({"schema": "depsurf.diagnostics.v1", "image": "img54",
      "health": {"elf": "clean", "dwarf": "degraded", "btf": "clean", "tracepoint": "clean",
                 "syscall": "missing"},
      "fatal": false,
      "entries": [{"severity": "degraded", "subsystem": "dwarf", "code": "malformed_data",
                   "offset": 452, "message": "ran off the end"}]})json";
  }
  if (kind == "analysis") {
    return R"json({"schema": "depsurf.analysis.v1", "object": "biotop", "against": {"images": 2},
      "programs": [{"name": "tp_done", "section": "tracepoint/block/done", "insns": 8,
                    "blocks": 1, "reachable_insns": 8, "helper_calls": 0}],
      "relocs": [{"index": 0, "kind": "field_byte_offset", "struct": "request",
                  "field": "rq_disk", "program": "tp_done", "insn_off": 0, "reachable": true,
                  "unguarded": true, "consequence": "compilation error"}],
      "findings": [{"kind": "unguarded-reloc", "program": "tp_done", "insn_off": 0, "reloc": 0,
                    "detail": "field reloc request::rq_disk not dominated",
                    "remediation": "insert field_exists(request::rq_disk)"}],
      "summary": {"findings": 1, "raw_offset_deref": 0, "unguarded_reloc": 1,
                  "unknown_helper": 0, "unreachable_reloc": 0}})json";
  }
  if (kind == "remediation") {
    return R"json({"schema": "depsurf.remediation.v1", "object": "biotop", "against": {"images": 2},
      "remediations": [
        {"finding": {"kind": "unguarded-reloc", "program": "tp_done", "insn_off": 0,
                     "reloc": 0, "detail": "field reloc request::rq_disk"},
         "fixable": true, "insn_off": 0, "scratch_reg": 2, "struct": "request",
         "field": "rq_disk", "guard": "r2 = field_exists(request::rq_disk)"},
        {"finding": {"kind": "raw-offset-deref", "program": "tp_done", "insn_off": 8,
                     "detail": "raw offset +104"},
         "fixable": false, "reason": "no CO-RE relocation to guard"}],
      "verification": {"findings_before": 2, "targeted": 1, "findings_after": 1,
                       "targeted_remaining": 0, "new_findings": 0, "ok": true},
      "summary": {"findings": 2, "fixable": 1, "unfixable": 1}})json";
  }
  if (kind == "fuzz") {
    return R"json({"schema": "depsurf.fuzz_campaign.v1", "mode": "object",
      "config": {"rounds": 2, "seed": 2025, "time_budget_ms": 10000,
                 "max_ledger_entries": 10000},
      "seeds": ["biotop.o"], "candidates": 2,
      "coverage": {"tuples": 3, "keys": ["a", "b", "c"]},
      "growth": [{"round": 0, "tuples": 2}, {"round": 1, "tuples": 3}],
      "kinds": [{"kind": "byte_flip", "attempts": 2, "novel": 1}],
      "corpus": [
        {"index": 0, "name": "seed:biotop.o", "seed": true, "round": 0, "kind": "",
         "fault_seed": 0, "parent": 0, "description": "", "size": 2296, "tuple_count": 2,
         "new_tuples": ["a", "b"]},
        {"index": 1, "name": "round0000:byte_flip", "seed": false, "round": 0,
         "kind": "byte_flip", "fault_seed": 17, "parent": 0, "description": "5 flips",
         "size": 2296, "tuple_count": 3, "new_tuples": ["c"]}],
      "minimized": [1],
      "oracle": {"disagreements": [{"round": 1, "kind": "byte_flip", "fault_seed": 17,
                                    "violation": "strict parse succeeded"}]},
      "hangs": [],
      "exit_code": 2})json";
  }
  if (kind == "serve") {
    return R"json({"schema": "depsurf.serve_report.v1", "jobs": 2,
      "datasets": [{"path": "ds2.dds", "format": "v2", "images": 2}],
      "requests": 3, "ok": 2, "errors": 1,
      "cache": {"hits": 1, "misses": 1, "entries": 1, "capacity": 4096}})json";
  }
  ADD_FAILURE() << "no document for kind " << kind;
  return "";
}

const char* const kKinds[] = {"report", "agg",         "trace",   "profile", "profile_diff",
                              "perf",   "history",     "trend",   "bench",   "diag",
                              "analysis", "remediation", "fuzz",  "serve"};

// ---------------------------------------------------------------------------
// Mutation by JSON path ("relocs[0].consequence", "corpus[1]").
// ---------------------------------------------------------------------------

void Dump(std::string& out, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      // JSON has no infinity; 1e999 parses back to one.
      out += std::isinf(value.number) ? (value.number > 0 ? "1e999" : "-1e999")
                                      : StrFormat("%.17g", value.number);
      break;
    case JsonValue::Kind::kString:
      out += "\"" + obs::JsonEscape(value.string) + "\"";
      break;
    case JsonValue::Kind::kArray:
      out += "[";
      for (size_t i = 0; i < value.array.size(); ++i) {
        out += i != 0 ? ", " : "";
        Dump(out, value.array[i]);
      }
      out += "]";
      break;
    case JsonValue::Kind::kObject:
      out += "{";
      for (size_t i = 0; i < value.object.size(); ++i) {
        out += i != 0 ? ", " : "";
        out += "\"" + obs::JsonEscape(value.object[i].first) + "\": ";
        Dump(out, value.object[i].second);
      }
      out += "}";
      break;
  }
}

// The slot a path names: an object member (by key) or an array element.
struct Slot {
  JsonValue* parent = nullptr;
  std::string key;  // object member name; empty for an array element
  size_t index = 0;
};

Slot Resolve(JsonValue& root, const std::string& path) {
  Slot slot;
  JsonValue* at = &root;
  size_t pos = 0;
  while (pos < path.size()) {
    if (at == nullptr) {
      return {};
    }
    slot.parent = at;
    if (path[pos] == '[') {
      size_t close = path.find(']', pos);
      slot.key.clear();
      slot.index = std::stoul(path.substr(pos + 1, close - pos - 1));
      pos = close + 1;
      at = slot.index < at->array.size() ? &at->array[slot.index] : nullptr;
    } else {
      pos += path[pos] == '.' ? 1 : 0;
      size_t end = path.find_first_of(".[", pos);
      end = end == std::string::npos ? path.size() : end;
      slot.key = path.substr(pos, end - pos);
      pos = end;
      at = nullptr;
      for (auto& [key, member] : slot.parent->object) {
        if (key == slot.key) {
          at = &member;
        }
      }
    }
  }
  return at != nullptr ? slot : Slot{};
}

// `doc` with the value at `path` replaced by the JSON `replacement`, or
// deleted when `replacement` is nullptr. History documents are NDJSON: the
// mutation applies to their one line.
std::string Mutate(const std::string& kind, const std::string& doc, const std::string& path,
                   const char* replacement) {
  auto parsed = obs::ParseJson(doc);
  EXPECT_TRUE(parsed.ok()) << kind;
  JsonValue root = parsed.TakeValue();
  Slot slot = Resolve(root, path);
  EXPECT_NE(slot.parent, nullptr) << kind << ": no " << path << " in " << doc;
  if (slot.parent == nullptr) {
    return doc;
  }
  if (replacement == nullptr) {
    if (slot.key.empty()) {
      slot.parent->array.erase(slot.parent->array.begin() + static_cast<ptrdiff_t>(slot.index));
    } else {
      auto& members = slot.parent->object;
      for (auto it = members.begin(); it != members.end(); ++it) {
        if (it->first == slot.key) {
          members.erase(it);
          break;
        }
      }
    }
  } else {
    auto value = obs::ParseJson(replacement);
    EXPECT_TRUE(value.ok()) << replacement;
    if (slot.key.empty()) {
      slot.parent->array[slot.index] = value.TakeValue();
    } else {
      for (auto& [key, member] : slot.parent->object) {
        if (key == slot.key) {
          member = value.TakeValue();
          break;
        }
      }
    }
  }
  std::string out;
  Dump(out, root);
  return kind == "history" ? out + "\n" : out;
}

struct Tamper {
  const char* kind;
  const char* path;
  const char* replacement;  // JSON text; nullptr deletes the member
  // An optional second mutation, for rules only a pair of edits can break
  // without tripping another rule first.
  const char* then_path = nullptr;
  const char* then_replacement = nullptr;
};

std::string Apply(const Tamper& t) {
  std::string doc = Mutate(t.kind, Document(t.kind), t.path, t.replacement);
  return t.then_path != nullptr ? Mutate(t.kind, doc, t.then_path, t.then_replacement) : doc;
}

std::string Describe(const Tamper& t) {
  std::string out = std::string(t.kind) + ": " + t.path + " := " +
                    (t.replacement != nullptr ? t.replacement : "(deleted)");
  if (t.then_path != nullptr) {
    out += std::string(", ") + t.then_path + " := " +
           (t.then_replacement != nullptr ? t.then_replacement : "(deleted)");
  }
  return out;
}

constexpr const char* kDelete = nullptr;

// Invariants `metrics lint` enforced before the schema table; each must
// still reject.
const Tamper kExistingInvariants[] = {
    // report: marker, the five sections, the diagnostics entries.
    {"report", "schema", "\"depsurf.run_report.v9\""},
    {"report", "schema", kDelete},
    {"report", "spans", kDelete},
    {"report", "counters", kDelete},
    {"report", "gauges", kDelete},
    {"report", "histograms", kDelete},
    {"report", "diagnostics", kDelete},
    {"report", "diagnostics", "{}"},
    {"report", "diagnostics[0]", "5"},
    {"report", "diagnostics[0].severity", "\"severe\""},
    {"report", "diagnostics[0].severity", kDelete},
    {"report", "diagnostics[0].subsystem", "\"kernel\""},
    {"report", "diagnostics[0].subsystem", "3"},
    {"report", "diagnostics[0].code", "\"\""},
    {"report", "diagnostics[0].code", kDelete},
    {"report", "diagnostics[0].offset", "\"452\""},
    {"report", "diagnostics[0].message", kDelete},
    // agg: the report sections plus provenance and labeled diagnostics.
    {"agg", "schema", "\"depsurf.run_report.v1\""},
    {"agg", "reports", "0"},
    {"agg", "reports", kDelete},
    {"agg", "sources", "{}"},
    {"agg", "sources", kDelete},
    {"agg", "spans", kDelete},
    {"agg", "counters", kDelete},
    {"agg", "gauges", kDelete},
    {"agg", "histograms", kDelete},
    {"agg", "diagnostics", kDelete},
    {"agg", "diagnostics[0].label", kDelete},
    {"agg", "diagnostics[0].label", "7"},
    {"agg", "diagnostics[0].severity", "\"bad\""},
    // trace: X and M events.
    {"trace", "traceEvents", kDelete},
    {"trace", "traceEvents", "{}"},
    {"trace", "traceEvents[0].name", kDelete},
    {"trace", "traceEvents[0].ph", "\"B\""},
    {"trace", "traceEvents[0].pid", kDelete},
    {"trace", "traceEvents[0].tid", "-1"},
    {"trace", "traceEvents[0].args", kDelete},
    {"trace", "traceEvents[0].args.name", kDelete},
    {"trace", "traceEvents[1].name", "\"\""},
    {"trace", "traceEvents[1].ts", kDelete},
    {"trace", "traceEvents[1].dur", "-5"},
    {"trace", "traceEvents[1].pid", "\"1\""},
    {"trace", "traceEvents[1].tid", kDelete},
    {"trace", "traceEvents[1].ts", "5"},  // later events start earlier
    // profile: names table, critical path, executor.
    {"profile", "schema", "\"depsurf.profile.v9\""},
    {"profile", "span_nodes", kDelete},
    {"profile", "span_nodes", "-1"},
    {"profile", "names", kDelete},
    {"profile", "names[0].name", "\"\""},
    {"profile", "names[0].name", kDelete},
    {"profile", "names[0].count", kDelete},
    {"profile", "names[0].cpu_ns", "-1"},
    {"profile", "names[0].alloc_count", "\"0\""},
    {"profile", "names[0].alloc_bytes", kDelete},
    {"profile", "names[0].dur_ns", kDelete},
    {"profile", "names[0].self_ns", "-1"},
    {"profile", "names[0].self_ns", "4000"},
    {"profile", "critical_path", kDelete},
    {"profile", "critical_path.wall_ns", kDelete},
    {"profile", "critical_path.serial_self_ns", "-1"},
    {"profile", "critical_path.serial_share_pct", kDelete},
    {"profile", "critical_path.serial_self_ns", "9001"},
    {"profile", "critical_path.steps", kDelete},
    {"profile", "critical_path.steps[0].name", "\"\""},
    {"profile", "critical_path.steps[0].dur_ns", kDelete},
    {"profile", "critical_path.steps[0].self_ns", "-2"},
    {"profile", "critical_path.steps[1].self_ns", "3001"},
    {"profile", "executor", kDelete},
    {"profile", "executor.window", kDelete},
    {"profile", "executor.wall_ms", "-1"},
    {"profile", "executor.serialize_stall_us", kDelete},
    {"profile", "executor.queue_waits", "\"0\""},
    {"profile", "executor.workers", kDelete},
    {"profile", "executor.workers[0].lane", kDelete},
    {"profile", "executor.workers[1].busy_ms", "-3"},
    // profile_diff: rows on both sides, signed deltas, critical path.
    {"profile_diff", "schema", "\"depsurf.profile.v1\""},
    {"profile_diff", "base_span_nodes", kDelete},
    {"profile_diff", "head_span_nodes", "-1"},
    {"profile_diff", "names", kDelete},
    {"profile_diff", "names[0].name", kDelete},
    {"profile_diff", "names[0].in_base", "1"},
    {"profile_diff", "names[0].in_head", kDelete},
    {"profile_diff", "names[0].in_base", "false"},
    {"profile_diff", "names[0].base", kDelete},
    {"profile_diff", "names[0].head", "[]"},
    {"profile_diff", "names[0].base.count", "-1"},
    {"profile_diff", "names[0].head.cpu_ns", kDelete},
    {"profile_diff", "names[0].delta", kDelete},
    {"profile_diff", "names[0].delta.self_ns", "1e999"},
    {"profile_diff", "names[0].delta.alloc_bytes", kDelete},
    {"profile_diff", "top_movers", kDelete},
    {"profile_diff", "top_movers[0].name", "\"\""},
    {"profile_diff", "critical_path", kDelete},
    {"profile_diff", "critical_path.base", kDelete},
    {"profile_diff", "critical_path.head.wall_ns", "-1"},
    {"profile_diff", "critical_path.base.serial_share_pct", kDelete},
    {"profile_diff", "critical_path.head.steps", kDelete},
    {"profile_diff", "critical_path.base.steps[0].name", kDelete},
    {"profile_diff", "critical_path.delta", kDelete},
    {"profile_diff", "critical_path.delta.wall_ns", kDelete},
    {"profile_diff", "critical_path.delta.serial_self_ns", "\"0\""},
    // perf: counts and classified stages.
    {"perf", "schema", "\"depsurf.bench_report.v1\""},
    {"perf", "max_regress", kDelete},
    {"perf", "improved", "\"0\""},
    {"perf", "flat", kDelete},
    {"perf", "regressed", kDelete},
    {"perf", "added", kDelete},
    {"perf", "removed", kDelete},
    {"perf", "stages", kDelete},
    {"perf", "stages[0].name", "\"\""},
    {"perf", "stages[0].class", "\"slower\""},
    {"perf", "stages[1].class", kDelete},
    // history: one record per line, checked by its parser.
    {"history", "schema", "\"depsurf.perf_history.v9\""},
    {"history", "label", kDelete},
    {"history", "recorded_unix_ms", "-1"},
    {"history", "recorded_unix_ms", kDelete},
    {"history", "host", kDelete},
    {"history", "host.cpu_model", "4"},
    {"history", "host.cores", kDelete},
    {"history", "host.page_size", "-4096"},
    {"history", "stages", kDelete},
    {"history", "stages[0].name", "\"\""},
    {"history", "stages[0].wall_seconds", kDelete},
    {"history", "stages[0].items", "-1"},
    {"history", "profile", "5"},
    {"history", "profile.span_nodes", kDelete},
    {"history", "profile.serial_share_pct", "-1"},
    {"history", "profile.critical_path", kDelete},
    {"history", "profile.critical_path.wall_ns", kDelete},
    {"history", "profile.critical_path.serial_self_ns", "1e999"},
    {"history", "profile.critical_path.steps", kDelete},
    {"history", "profile.critical_path.steps[0].name", kDelete},
    {"history", "profile.critical_path.steps[0].dur_ns", "-1"},
    {"history", "profile.critical_path.steps[1].self_ns", kDelete},
    // trend: thresholds and per-stage baselines.
    {"trend", "schema", "\"depsurf.perf_history.v1\""},
    {"trend", "host", "\"\""},
    {"trend", "host", kDelete},
    {"trend", "records", kDelete},
    {"trend", "comparable", "-1"},
    {"trend", "window", kDelete},
    {"trend", "min_floor_seconds", "\"x\""},
    {"trend", "mad_sigmas", kDelete},
    {"trend", "floor_sigmas", kDelete},
    {"trend", "stages", kDelete},
    {"trend", "stages[0].name", "\"\""},
    {"trend", "stages[0].samples", kDelete},
    {"trend", "stages[0].median_seconds", "-1"},
    {"trend", "stages[0].mad_seconds", kDelete},
    {"trend", "stages[0].latest_seconds", kDelete},
    {"trend", "stages[0].floor_seconds", "1e999"},
    {"trend", "stages[0].deviation_sigmas", kDelete},
    {"trend", "stages[0].deviation_sigmas", "-1e999"},
    {"trend", "stages[0].change_point", "1"},
    // bench: named stages with nonnegative rates.
    {"bench", "schema", "\"depsurf.perf_compare.v1\""},
    {"bench", "bench", "\"\""},
    {"bench", "bench", kDelete},
    {"bench", "stages", kDelete},
    {"bench", "stages[0].name", kDelete},
    {"bench", "stages[0].seconds", "-0.5"},
    {"bench", "stages[0].items", kDelete},
    {"bench", "stages[0].items_per_sec", "\"4\""},
    {"bench", "stages[0].bytes", kDelete},
    {"bench", "stages[0].bytes_per_sec", "1e999"},
    // diag: doctor --json.
    {"diag", "schema", "\"depsurf.run_report.v1\""},
    {"diag", "image", kDelete},
    {"diag", "image", "5"},
    {"diag", "health", kDelete},
    {"diag", "health", "[]"},
    {"diag", "health.elf", "\"fine\""},
    {"diag", "health.syscall", kDelete},
    {"diag", "fatal", kDelete},
    {"diag", "fatal", "\"false\""},
    {"diag", "entries", kDelete},
    {"diag", "entries", "{}"},
    {"diag", "entries[0].subsystem", "\"net\""},
    {"diag", "entries[0].offset", kDelete},
    {"diag", "entries[0].message", kDelete},
    // analysis: analyze --json.
    {"analysis", "schema", "\"depsurf.analysis.v2\""},
    {"analysis", "object", kDelete},
    {"analysis", "against", kDelete},
    {"analysis", "against", "5"},
    {"analysis", "against.images", kDelete},
    {"analysis", "programs", kDelete},
    {"analysis", "programs[0].name", "1"},
    {"analysis", "programs[0].section", kDelete},
    {"analysis", "programs[0].insns", kDelete},
    {"analysis", "programs[0].blocks", "\"1\""},
    {"analysis", "programs[0].reachable_insns", kDelete},
    {"analysis", "programs[0].helper_calls", kDelete},
    {"analysis", "relocs", kDelete},
    {"analysis", "relocs[0].index", kDelete},
    {"analysis", "relocs[0].kind", "3"},
    {"analysis", "relocs[0].reachable", "1"},
    {"analysis", "relocs[0].unguarded", kDelete},
    {"analysis", "relocs[0].consequence", kDelete},
    {"analysis", "findings", kDelete},
    {"analysis", "findings[0].kind", "\"made-up\""},
    {"analysis", "findings[0].program", kDelete},
    {"analysis", "findings[0].insn_off", "\"0\""},
    {"analysis", "findings[0].detail", kDelete},
    {"analysis", "findings[0].remediation", kDelete},
    {"analysis", "summary", kDelete},
    {"analysis", "summary.findings", "\"1\""},
    {"analysis", "summary.raw_offset_deref", kDelete},
    {"analysis", "summary.unguarded_reloc", kDelete},
    {"analysis", "summary.unknown_helper", kDelete},
    {"analysis", "summary.unreachable_reloc", kDelete},
    {"analysis", "summary.unknown_helper", "1"},  // kinds no longer sum to findings
    {"analysis", "findings", "[]"},               // findings total != array length
    // remediation: fix --json.
    {"remediation", "schema", "\"depsurf.analysis.v1\""},
    {"remediation", "object", kDelete},
    {"remediation", "against", "\"x\""},
    {"remediation", "against.images", "\"2\""},
    {"remediation", "remediations", kDelete},
    {"remediation", "remediations[0].finding", kDelete},
    {"remediation", "remediations[0].finding", "\"f\""},
    {"remediation", "remediations[0].finding.kind", kDelete},
    {"remediation", "remediations[0].finding.program", "1"},
    {"remediation", "remediations[0].finding.detail", kDelete},
    {"remediation", "remediations[0].finding.insn_off", kDelete},
    {"remediation", "remediations[0].fixable", kDelete},
    {"remediation", "remediations[0].fixable", "1"},
    {"remediation", "remediations[0].insn_off", kDelete},
    {"remediation", "remediations[0].scratch_reg", "\"r2\""},
    {"remediation", "remediations[0].struct", kDelete},
    {"remediation", "remediations[0].field", kDelete},
    {"remediation", "remediations[0].guard", kDelete},
    {"remediation", "remediations[1].reason", kDelete},
    {"remediation", "remediations[1].fixable", "true"},  // a fix with no guard
    {"remediation", "verification", kDelete},
    {"remediation", "verification", "[]"},
    {"remediation", "verification.findings_before", kDelete},
    {"remediation", "verification.targeted", kDelete},
    {"remediation", "verification.findings_after", "\"1\""},
    {"remediation", "verification.targeted_remaining", kDelete},
    {"remediation", "verification.new_findings", kDelete},
    {"remediation", "verification.ok", "1"},
    {"remediation", "summary", kDelete},
    {"remediation", "summary.findings", kDelete},
    {"remediation", "summary.fixable", "\"1\""},
    {"remediation", "summary.unfixable", kDelete},
    {"remediation", "summary.unfixable", "2"},          // fixable + unfixable != findings
    {"remediation", "remediations[1]", kDelete},        // findings != array length
    {"remediation", "summary.fixable", "2", "summary.unfixable", "0"},  // != fixable entries
    // fuzz: fuzz --json.
    {"fuzz", "schema", "\"depsurf.fuzz_campaign.v2\""},
    {"fuzz", "mode", "\"kernel\""},
    {"fuzz", "mode", kDelete},
    {"fuzz", "config", kDelete},
    {"fuzz", "config.rounds", kDelete},
    {"fuzz", "config.seed", "\"2025\""},
    {"fuzz", "config.time_budget_ms", kDelete},
    {"fuzz", "config.max_ledger_entries", kDelete},
    {"fuzz", "seeds", kDelete},
    {"fuzz", "seeds", "[]"},
    {"fuzz", "seeds[0]", "1"},
    {"fuzz", "candidates", kDelete},
    {"fuzz", "coverage", kDelete},
    {"fuzz", "coverage.tuples", kDelete},
    {"fuzz", "coverage.keys", "3"},
    {"fuzz", "coverage.keys", "[\"a\"]"},  // key list shorter than its count
    {"fuzz", "growth", kDelete},
    {"fuzz", "growth", "[]"},
    {"fuzz", "growth[0].round", kDelete},
    {"fuzz", "growth[1].tuples", "\"3\""},
    {"fuzz", "growth[0].round", "5"},   // rounds go backwards
    {"fuzz", "growth[0].tuples", "4"},  // tuples shrink
    {"fuzz", "growth[1].tuples", "2"},  // curve ends below the coverage total
    {"fuzz", "kinds", kDelete},
    {"fuzz", "kinds[0].kind", kDelete},
    {"fuzz", "kinds[0].attempts", "\"2\""},
    {"fuzz", "kinds[0].novel", kDelete},
    {"fuzz", "kinds[0].novel", "3"},
    {"fuzz", "corpus", kDelete},
    {"fuzz", "corpus", "[]"},
    {"fuzz", "corpus[0].index", kDelete},
    {"fuzz", "corpus[0].round", kDelete},
    {"fuzz", "corpus[0].fault_seed", "\"0\""},
    {"fuzz", "corpus[0].parent", kDelete},
    {"fuzz", "corpus[0].size", kDelete},
    {"fuzz", "corpus[0].tuple_count", kDelete},
    {"fuzz", "corpus[0].name", kDelete},
    {"fuzz", "corpus[0].kind", "0"},
    {"fuzz", "corpus[0].description", kDelete},
    {"fuzz", "corpus[0].seed", "\"true\""},
    {"fuzz", "corpus[1].index", "0"},
    {"fuzz", "corpus[1].parent", "1"},
    {"fuzz", "corpus[0].new_tuples", kDelete},
    {"fuzz", "minimized", kDelete},
    {"fuzz", "minimized[0]", "2"},
    {"fuzz", "minimized[0]", "\"1\""},
    {"fuzz", "oracle", kDelete},
    {"fuzz", "oracle.disagreements", kDelete},
    {"fuzz", "oracle.disagreements[0].violation", kDelete},
    {"fuzz", "oracle.disagreements[0].fault_seed", "\"17\""},
    {"fuzz", "hangs", kDelete},
    {"fuzz", "exit_code", kDelete},
    {"fuzz", "exit_code", "3"},
    {"fuzz", "exit_code", "0"},  // disagreements demand 2
    {"fuzz", "hangs", "[{\"round\": 1}]"},  // a hang demands 1
    // serve: serve --report-out.
    {"serve", "schema", "\"depsurf.serve_report.v2\""},
    {"serve", "jobs", kDelete},
    {"serve", "jobs", "-1"},
    {"serve", "datasets", kDelete},
    {"serve", "datasets", "[]"},
    {"serve", "datasets[0].path", kDelete},
    {"serve", "datasets[0].format", "\"v3\""},
    {"serve", "datasets[0].images", "-1"},
    {"serve", "requests", kDelete},
    {"serve", "ok", "-1"},
    {"serve", "errors", "\"1\""},
    {"serve", "errors", "0"},  // ok + errors != requests
    {"serve", "cache", kDelete},
    {"serve", "cache.hits", kDelete},
    {"serve", "cache.misses", "-1"},
    {"serve", "cache.entries", kDelete},
    {"serve", "cache.capacity", kDelete},
    {"serve", "cache.hits", "0"},      // hits + misses != ok
    {"serve", "cache.capacity", "0"},  // entries exceed capacity
    {"serve", "cache.entries", "2", "cache.capacity", "4096"},  // entries exceed misses
};

// Section typing the schema table added: the run-report and aggregate
// sections are checked member by member, not only for presence.
const Tamper kNewStrictness[] = {
    {"report", "spans", "5"},
    {"report", "counters", "5"},
    {"report", "gauges", "5"},
    {"report", "histograms", "5"},
    {"report", "spans[0]", "\"root\""},
    {"report", "spans[0].name", kDelete},
    {"report", "spans[0].dur_ns", "\"9000\""},
    {"report", "spans[0].cpu_ns", kDelete},
    {"report", "spans[0].children", kDelete},
    {"report", "spans[0].children[0].children[0].name", "7"},
    {"report", "spans[0].children[0].alloc_bytes", "-1"},
    {"report", "spans[0].attrs", "[]"},
    {"report", "counters.ops", "\"3\""},
    {"report", "gauges.depth", "true"},
    {"report", "histograms.lat", "40"},
    {"report", "histograms.lat.count", kDelete},
    {"report", "histograms.lat.buckets", "{}"},
    {"agg", "spans", "5"},
    {"agg", "counters", "5"},
    {"agg", "gauges", "5"},
    {"agg", "histograms", "5"},
    {"agg", "spans[0].children[0].name", kDelete},
    {"agg", "counters.ops", "\"6\""},
    {"agg", "histograms.lat", "[]"},
};

// Legal variants each kind must keep accepting.
const Tamper kStillValid[] = {
    {"report", "diagnostics", "[]"},
    {"report", "spans", "[]"},
    {"report", "gauges.depth", "-2"},
    {"analysis", "against", "null"},
    {"remediation", "against", "null"},
    {"remediation", "verification", "null"},
    {"profile_diff", "names[0].delta.dur_ns", "-5"},
    {"trend", "stages[0].deviation_sigmas", "-6.7"},
    {"history", "profile", "null"},
    {"history", "profile", kDelete},
    {"fuzz", "oracle.disagreements", "[]", "exit_code", "0"},
    {"fuzz", "hangs", "[{\"round\": 1}]", "exit_code", "1"},
    {"serve", "jobs", "0"},
};

TEST(SchemaLintTest, EveryKindAcceptsItsDocument) {
  for (const char* kind : kKinds) {
    Status valid = obs::LintDocument(kind, Document(kind));
    EXPECT_TRUE(valid.ok()) << kind << ": " << valid.ToString() << "\n" << Document(kind);
  }
}

TEST(SchemaLintTest, EveryExistingInvariantStillRejects) {
  for (const Tamper& t : kExistingInvariants) {
    EXPECT_FALSE(obs::LintDocument(t.kind, Apply(t)).ok()) << "accepted " << Describe(t);
  }
}

TEST(SchemaLintTest, ReportSectionsAreTyped) {
  for (const Tamper& t : kNewStrictness) {
    EXPECT_FALSE(obs::LintDocument(t.kind, Apply(t)).ok()) << "accepted " << Describe(t);
  }
}

TEST(SchemaLintTest, LegalVariantsStillLint) {
  for (const Tamper& t : kStillValid) {
    Status valid = obs::LintDocument(t.kind, Apply(t));
    EXPECT_TRUE(valid.ok()) << "rejected " << Describe(t) << ": " << valid.ToString();
  }
}

}  // namespace
}  // namespace depsurf
