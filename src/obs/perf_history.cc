#include "src/obs/perf_history.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "src/obs/run_report.h"
#include "src/obs/schema.h"
#include "src/util/file_util.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

std::string U64(uint64_t v) { return StrFormat("%llu", (unsigned long long)v); }
std::string I64(int64_t v) { return StrFormat("%lld", (long long)v); }

// Shortest round-trippable form for seconds values ("1.5", not
// "1.500000000"), so history lines stay compact.
std::string Seconds(double v) { return StrFormat("%.9g", v); }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double MedianAbsDev(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  const double median = Median(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) {
    deviations.push_back(std::fabs(v - median));
  }
  return Median(std::move(deviations));
}

}  // namespace

std::string HostFingerprint::Id() const {
  return cpu_model + "/" + I64(cores) + "/" + I64(page_size);
}

HostFingerprint CurrentHostFingerprint() {
  HostFingerprint host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (cpuinfo && std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(" \t", colon + 1);
        if (start != std::string::npos) {
          host.cpu_model = line.substr(start);
        }
      }
      break;
    }
  }
  if (host.cpu_model.empty()) {
    host.cpu_model = "unknown";
  }
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  long page = sysconf(_SC_PAGESIZE);
  host.cores = cores > 0 ? cores : 0;
  host.page_size = page > 0 ? page : 0;
  return host;
}

void AddStageTimings(HistoryRecord& record, const std::vector<StageTiming>& timings) {
  for (const StageTiming& timing : timings) {
    auto it = std::find_if(record.stages.begin(), record.stages.end(),
                           [&](const HistoryStage& s) { return s.name == timing.name; });
    if (it == record.stages.end()) {
      record.stages.push_back(HistoryStage{timing.name, timing.seconds, timing.items});
    } else {
      it->wall_seconds += timing.seconds;
      it->items += timing.items;
    }
  }
  std::sort(record.stages.begin(), record.stages.end(),
            [](const HistoryStage& a, const HistoryStage& b) { return a.name < b.name; });
}

void SetProfileSummary(HistoryRecord& record, const Profile& profile) {
  record.profile.present = true;
  record.profile.span_nodes = profile.span_nodes;
  record.profile.wall_ns = profile.wall_ns;
  record.profile.serial_self_ns = profile.serial_self_ns;
  record.profile.serial_share_pct = SerialSharePct(profile);
  record.profile.critical_path = profile.critical_path;
}

std::string HistoryRecordJson(const HistoryRecord& record) {
  std::string out = "{\"schema\":\"";
  out += kPerfHistorySchema;
  out += "\",\"label\":\"" + JsonEscape(record.label) + "\"";
  out += ",\"recorded_unix_ms\":" + I64(record.recorded_unix_ms);
  out += ",\"host\":{\"cpu_model\":\"" + JsonEscape(record.host.cpu_model) + "\"";
  out += ",\"cores\":" + I64(record.host.cores);
  out += ",\"page_size\":" + I64(record.host.page_size) + "}";
  out += ",\"stages\":[";
  for (size_t i = 0; i < record.stages.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    const HistoryStage& stage = record.stages[i];
    out += "{\"name\":\"" + JsonEscape(stage.name) + "\"";
    out += ",\"wall_seconds\":" + Seconds(stage.wall_seconds);
    out += ",\"items\":" + U64(stage.items) + "}";
  }
  out += "]";
  if (record.profile.present) {
    out += ",\"profile\":{\"span_nodes\":" + U64(record.profile.span_nodes);
    out += StrFormat(",\"serial_share_pct\":%.2f", record.profile.serial_share_pct);
    out += ",\"critical_path\":{\"wall_ns\":" + U64(record.profile.wall_ns);
    out += ",\"serial_self_ns\":" + U64(record.profile.serial_self_ns);
    out += ",\"steps\":[";
    for (size_t i = 0; i < record.profile.critical_path.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      const CriticalPathStep& step = record.profile.critical_path[i];
      out += "{\"name\":\"" + JsonEscape(step.name) + "\"";
      out += ",\"dur_ns\":" + U64(step.dur_ns);
      out += ",\"self_ns\":" + U64(step.self_ns) + "}";
    }
    out += "]}}";
  } else {
    out += ",\"profile\":null";
  }
  out += "}\n";
  return out;
}

Result<HistoryRecord> ParseHistoryRecord(const JsonValue& doc) {
  DEPSURF_RETURN_IF_ERROR(CheckDocument("history", doc));
  // The schema row has proven every member below present and typed.
  auto number = [](const JsonValue& object, std::string_view key) {
    return object.Find(key)->number;
  };
  HistoryRecord record;
  record.label = doc.Find("label")->string;
  record.recorded_unix_ms = static_cast<int64_t>(number(doc, "recorded_unix_ms"));
  const JsonValue& host = *doc.Find("host");
  record.host.cpu_model = host.Find("cpu_model")->string;
  record.host.cores = static_cast<int64_t>(number(host, "cores"));
  record.host.page_size = static_cast<int64_t>(number(host, "page_size"));
  for (const JsonValue& entry : doc.Find("stages")->array) {
    record.stages.push_back(HistoryStage{entry.Find("name")->string,
                                         number(entry, "wall_seconds"),
                                         static_cast<uint64_t>(number(entry, "items"))});
  }
  const JsonValue* profile = doc.Find("profile");
  if (profile != nullptr && profile->kind == JsonValue::Kind::kObject) {
    record.profile.present = true;
    record.profile.span_nodes = static_cast<uint64_t>(number(*profile, "span_nodes"));
    record.profile.serial_share_pct = number(*profile, "serial_share_pct");
    const JsonValue& path = *profile->Find("critical_path");
    record.profile.wall_ns = static_cast<uint64_t>(number(path, "wall_ns"));
    record.profile.serial_self_ns = static_cast<uint64_t>(number(path, "serial_self_ns"));
    for (const JsonValue& step : path.Find("steps")->array) {
      record.profile.critical_path.push_back(
          CriticalPathStep{step.Find("name")->string, static_cast<uint64_t>(number(step, "dur_ns")),
                           static_cast<uint64_t>(number(step, "self_ns"))});
    }
  }
  return record;
}

Result<std::vector<HistoryRecord>> ParseHistoryNdjson(std::string_view text) {
  std::vector<HistoryRecord> records;
  DEPSURF_RETURN_IF_ERROR(ForEachJsonLine(text, [&](const JsonValue& doc) -> Status {
    DEPSURF_ASSIGN_OR_RETURN(record, ParseHistoryRecord(doc));
    records.push_back(std::move(record));
    return Status::Ok();
  }));
  return records;
}

Status AppendHistoryRecord(const std::string& path, const HistoryRecord& record) {
  return AppendFile(path, HistoryRecordJson(record));
}

TrendReport AnalyzeTrend(const std::vector<HistoryRecord>& records,
                         const HostFingerprint& host, const TrendOptions& options) {
  TrendReport report;
  report.host_id = host.Id();
  report.records = records.size();
  report.options = options;
  std::vector<const HistoryRecord*> comparable;
  for (const HistoryRecord& record : records) {
    if (record.host.Id() == report.host_id) {
      comparable.push_back(&record);
    }
  }
  report.comparable = comparable.size();
  const size_t window = options.window == 0
                            ? comparable.size()
                            : std::min(options.window, comparable.size());
  report.window = window;
  // Per-stage sample series in chronological (store) order, over the last
  // `window` comparable records only.
  std::map<std::string, std::vector<double>> series;
  for (size_t i = comparable.size() - window; i < comparable.size(); ++i) {
    for (const HistoryStage& stage : comparable[i]->stages) {
      series[stage.name].push_back(stage.wall_seconds);
    }
  }
  for (auto& [name, values] : series) {
    StageTrend trend;
    trend.name = name;
    trend.samples = values.size();
    trend.latest_seconds = values.back();
    // Judge the latest sample against its own past where the past is big
    // enough to have one; with only 1-2 samples the baseline is everything.
    std::vector<double> baseline = values;
    if (baseline.size() >= 3) {
      baseline.pop_back();
    }
    trend.median_seconds = Median(baseline);
    trend.mad_seconds = MedianAbsDev(baseline);
    // Robust sigma with a floor of 2% of the median: a baseline of exactly
    // repeated values has MAD 0 and would flag any nonzero delta.
    const double sigma = std::max({1.4826 * trend.mad_seconds,
                                   0.02 * trend.median_seconds, 1e-9});
    trend.deviation_sigmas = (trend.latest_seconds - trend.median_seconds) / sigma;
    trend.change_point = values.size() >= 4 &&
                         std::fabs(trend.deviation_sigmas) > options.mad_sigmas;
    // The floor uses the spread of the whole window (latest included): the
    // delta two back-to-back runs can show out of pure noise.
    trend.floor_seconds = std::max(options.min_floor_seconds,
                                   options.floor_sigmas * 1.4826 * MedianAbsDev(values));
    report.stages.push_back(std::move(trend));
  }
  return report;
}

std::map<std::string, double> AdaptiveStageFloors(const TrendReport& report) {
  std::map<std::string, double> floors;
  for (const StageTrend& trend : report.stages) {
    floors.emplace(trend.name, trend.floor_seconds);
  }
  return floors;
}

std::string TrendReportJson(const TrendReport& report) {
  std::string out = "{\n\"schema\": \"";
  out += kPerfTrendSchema;
  out += "\",\n";
  out += "\"host\": \"" + JsonEscape(report.host_id) + "\",\n";
  out += StrFormat("\"records\": %zu, \"comparable\": %zu, \"window\": %zu,\n",
                   report.records, report.comparable, report.window);
  out += StrFormat(
      "\"min_floor_seconds\": %.6f, \"mad_sigmas\": %.2f, \"floor_sigmas\": %.2f,\n",
      report.options.min_floor_seconds, report.options.mad_sigmas,
      report.options.floor_sigmas);
  out += "\"stages\": [";
  for (size_t i = 0; i < report.stages.size(); ++i) {
    const StageTrend& trend = report.stages[i];
    if (i != 0) {
      out += ",";
    }
    out += "\n  {\"name\": \"" + JsonEscape(trend.name) + "\"";
    out += StrFormat(", \"samples\": %zu", trend.samples);
    out += ", \"median_seconds\": " + Seconds(trend.median_seconds);
    out += ", \"mad_seconds\": " + Seconds(trend.mad_seconds);
    out += ", \"latest_seconds\": " + Seconds(trend.latest_seconds);
    out += ", \"floor_seconds\": " + Seconds(trend.floor_seconds);
    out += StrFormat(", \"deviation_sigmas\": %.3f", trend.deviation_sigmas);
    out += StrFormat(", \"change_point\": %s}", trend.change_point ? "true" : "false");
  }
  out += "\n]\n}\n";
  return out;
}

std::string TrendReportText(const TrendReport& report) {
  std::string out = StrFormat("perf trend: host %s\n", report.host_id.c_str());
  out += StrFormat("%zu records, %zu comparable, window %zu\n", report.records,
                   report.comparable, report.window);
  out += StrFormat("  %-36s %7s %12s %12s %12s %12s %8s  %s\n", "stage", "samples",
                   "median (s)", "mad (s)", "latest (s)", "floor (s)", "sigma", "flag");
  for (const StageTrend& trend : report.stages) {
    out += StrFormat("  %-36s %7zu %12.6f %12.6f %12.6f %12.6f %+8.2f  %s\n",
                     trend.name.c_str(), trend.samples, trend.median_seconds,
                     trend.mad_seconds, trend.latest_seconds, trend.floor_seconds,
                     trend.deviation_sigmas, trend.change_point ? "CHANGE-POINT" : "-");
  }
  return out;
}

}  // namespace obs
}  // namespace depsurf
