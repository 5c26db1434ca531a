// Cross-run perf intelligence: an append-only NDJSON store of bench runs
// plus trend analytics over it. `perf compare` is pairwise by construction;
// the history store gives the pipeline longitudinal memory, so the gate can
// judge a run against the *distribution* of prior runs on comparable
// hardware instead of a hardcoded noise floor.
//
// Record schema (depsurf.perf_history.v1, one compact JSON object per line):
//   {
//     "schema": "depsurf.perf_history.v1",
//     "label": "pr-123",                      // --label / $DEPSURF_BUILD_LABEL
//     "recorded_unix_ms": 1754700000000,      // injected by the CLI, never
//                                             //   read by library code
//     "host": {"cpu_model": "...", "cores": 8, "page_size": 4096},
//     "stages": [ {"name": "BM_ExtractSurface", "wall_seconds": 1.23,
//                  "items": 5}, ... ],        // sorted by name
//     "profile": {"span_nodes": N, "serial_share_pct": X.XX,
//                 "critical_path": {"wall_ns": N, "serial_self_ns": N,
//                                   "steps": [ {"name": "...", "dur_ns": N,
//                                               "self_ns": N}, ... ]}}
//                                             // or null without a profile
//   }
//
// Trend schema (depsurf.perf_trend.v1): per-stage robust baselines
// (median/MAD over the last K host-comparable records), change-point flags,
// and the adaptive per-stage noise floors `perf compare --history=FILE`
// consumes in place of the hardcoded 0.005 default.
//
// Masking: `recorded_unix_ms`, `wall_seconds`, `serial_share_pct`, and the
// whole `critical_path` section are timing-derived and zeroed by
// CanonicalMaskedJson; everything else (labels, host fingerprint, stage
// names, item counts, span_nodes) is deterministic, so masked records from
// builds at any --jobs width are byte-identical.
#ifndef DEPSURF_SRC_OBS_PERF_HISTORY_H_
#define DEPSURF_SRC_OBS_PERF_HISTORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/obs/perf_gate.h"
#include "src/obs/profile.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

inline constexpr char kPerfHistorySchema[] = "depsurf.perf_history.v1";
inline constexpr char kPerfTrendSchema[] = "depsurf.perf_trend.v1";

// Hardware identity of the recording host. Records are only comparable for
// trend purposes when their fingerprints match: a 2-core CI runner and a
// 64-core workstation do not share a noise distribution.
struct HostFingerprint {
  std::string cpu_model;  // first "model name" of /proc/cpuinfo, or "unknown"
  int64_t cores = 0;      // online processor count
  int64_t page_size = 0;  // bytes

  // Comparability key: "cpu_model/cores/page_size".
  std::string Id() const;
};

// Reads the current host's fingerprint (/proc/cpuinfo + sysconf). Degrades
// to cpu_model "unknown" where /proc is absent; never reads a wall clock.
HostFingerprint CurrentHostFingerprint();

struct HistoryStage {
  std::string name;
  double wall_seconds = 0;
  uint64_t items = 0;
};

// Critical-path summary lifted from the run's depsurf.profile.v1 document,
// so a later regression can be attributed without re-opening the profile.
struct HistoryProfileSummary {
  bool present = false;
  uint64_t span_nodes = 0;
  uint64_t wall_ns = 0;
  uint64_t serial_self_ns = 0;
  double serial_share_pct = 0;
  std::vector<CriticalPathStep> critical_path;
};

struct HistoryRecord {
  std::string label;
  // Milliseconds since the Unix epoch, injected by the caller (the CLI
  // reads the system clock; library code never does).
  int64_t recorded_unix_ms = 0;
  HostFingerprint host;
  std::vector<HistoryStage> stages;  // kept sorted by name
  HistoryProfileSummary profile;
};

// Folds stage timings (from LoadStageTimings over a bench or run report)
// into the record, summing seconds/items for duplicate names and keeping
// `stages` sorted by name.
void AddStageTimings(HistoryRecord& record, const std::vector<StageTiming>& timings);

// Copies a profile's attribution summary into the record.
void SetProfileSummary(HistoryRecord& record, const Profile& profile);

// One compact NDJSON line (no interior newlines), trailing "\n" included.
std::string HistoryRecordJson(const HistoryRecord& record);

// Parses one record object; errors name the first malformed member.
Result<HistoryRecord> ParseHistoryRecord(const JsonValue& doc);

// Parses a whole NDJSON store, in file order (blank lines skipped). Errors
// are prefixed with the 1-based line number.
Result<std::vector<HistoryRecord>> ParseHistoryNdjson(std::string_view text);

// Appends one record line to `path`, creating the file when absent.
Status AppendHistoryRecord(const std::string& path, const HistoryRecord& record);

struct TrendOptions {
  // Number of most-recent host-comparable records the baseline uses
  // (0 = all of them).
  size_t window = 8;
  // Adaptive floors never drop below this — the old hardcoded gate floor
  // becomes the backstop for stages with no usable spread estimate.
  double min_floor_seconds = 0.005;
  // A stage is flagged as a change point when its latest sample deviates
  // from the baseline median by more than this many robust sigmas.
  double mad_sigmas = 4.0;
  // The adaptive noise floor is floor_sigmas robust sigmas of the stage's
  // observed run-to-run spread.
  double floor_sigmas = 3.0;
};

struct StageTrend {
  std::string name;
  size_t samples = 0;        // records in the window carrying this stage
  double median_seconds = 0; // baseline median (latest excluded when >= 3)
  double mad_seconds = 0;    // baseline median absolute deviation
  double latest_seconds = 0;
  // max(min_floor, floor_sigmas * 1.4826 * MAD over the whole window):
  // deltas smaller than this are indistinguishable from observed noise.
  double floor_seconds = 0;
  double deviation_sigmas = 0;  // (latest - median) in robust sigmas
  bool change_point = false;    // |deviation| > mad_sigmas with >= 4 samples
};

struct TrendReport {
  std::string host_id;
  size_t records = 0;     // records parsed from the store
  size_t comparable = 0;  // records whose host fingerprint matches
  size_t window = 0;      // records the baselines actually used
  TrendOptions options;   // the thresholds the analysis ran with
  std::vector<StageTrend> stages;  // sorted by name
};

// Robust per-stage baselines over the last `options.window` records whose
// host fingerprint matches `host`. Records are taken in store order
// (append-only, so file order is chronological).
TrendReport AnalyzeTrend(const std::vector<HistoryRecord>& records,
                         const HostFingerprint& host, const TrendOptions& options = {});

// Stage name -> adaptive delta floor, ready for
// PerfGateOptions::stage_delta_floors_seconds.
std::map<std::string, double> AdaptiveStageFloors(const TrendReport& report);

// depsurf.perf_trend.v1 document / human table.
std::string TrendReportJson(const TrendReport& report);
std::string TrendReportText(const TrendReport& report);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_PERF_HISTORY_H_
