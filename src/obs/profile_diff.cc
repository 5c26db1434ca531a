#include "src/obs/profile_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "src/obs/json_lint.h"
#include "src/obs/run_report.h"
#include "src/obs/schema.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

std::string U64(uint64_t v) { return StrFormat("%llu", (unsigned long long)v); }
std::string I64(int64_t v) { return StrFormat("%lld", (long long)v); }

int64_t Delta(uint64_t head, uint64_t base) {
  return static_cast<int64_t>(head) - static_cast<int64_t>(base);
}

void AppendColumns(std::string& out, const ProfileNameRow& row) {
  out += "{\"count\": " + U64(row.count);
  out += ", \"dur_ns\": " + U64(row.dur_ns);
  out += ", \"self_ns\": " + U64(row.self_ns);
  out += ", \"cpu_ns\": " + U64(row.cpu_ns);
  out += ", \"alloc_count\": " + U64(row.alloc_count);
  out += ", \"alloc_bytes\": " + U64(row.alloc_bytes);
  out += "}";
}

void AppendSide(std::string& out, const char* key, uint64_t wall_ns,
                uint64_t serial_self_ns, double serial_share_pct,
                const std::vector<CriticalPathStep>& steps) {
  out += std::string("\"") + key + "\": {\"wall_ns\": " + U64(wall_ns);
  out += ", \"serial_self_ns\": " + U64(serial_self_ns);
  out += StrFormat(", \"serial_share_pct\": %.2f", serial_share_pct);
  out += ", \"steps\": [";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += "{\"name\": \"" + JsonEscape(steps[i].name) + "\"";
    out += ", \"dur_ns\": " + U64(steps[i].dur_ns);
    out += ", \"self_ns\": " + U64(steps[i].self_ns) + "}";
  }
  out += "]}";
}

std::string PathNames(const std::vector<CriticalPathStep>& steps) {
  std::string out;
  for (const CriticalPathStep& step : steps) {
    if (!out.empty()) {
      out += " > ";
    }
    out += step.name;
  }
  return out;
}

}  // namespace

ProfileDiff DiffProfiles(const Profile& base, const Profile& head, size_t top_n) {
  ProfileDiff diff;
  diff.base_span_nodes = base.span_nodes;
  diff.head_span_nodes = head.span_nodes;
  // Merge-walk the two sorted name tables into their sorted union.
  size_t bi = 0;
  size_t hi = 0;
  while (bi < base.names.size() || hi < head.names.size()) {
    ProfileDiffRow row;
    int order;
    if (bi >= base.names.size()) {
      order = 1;  // only head rows left
    } else if (hi >= head.names.size()) {
      order = -1;  // only base rows left
    } else {
      order = base.names[bi].name.compare(head.names[hi].name);
    }
    if (order <= 0) {
      row.in_base = true;
      row.base = base.names[bi++];
      row.name = row.base.name;
    }
    if (order >= 0) {
      row.in_head = true;
      row.head = head.names[hi++];
      row.name = row.head.name;
    }
    row.count_delta = Delta(row.head.count, row.base.count);
    row.dur_delta_ns = Delta(row.head.dur_ns, row.base.dur_ns);
    row.self_delta_ns = Delta(row.head.self_ns, row.base.self_ns);
    row.cpu_delta_ns = Delta(row.head.cpu_ns, row.base.cpu_ns);
    row.alloc_count_delta = Delta(row.head.alloc_count, row.base.alloc_count);
    row.alloc_bytes_delta = Delta(row.head.alloc_bytes, row.base.alloc_bytes);
    diff.names.push_back(std::move(row));
  }
  for (size_t i = 0; i < diff.names.size(); ++i) {
    if (diff.names[i].self_delta_ns != 0) {
      diff.top_movers.push_back(i);
    }
  }
  std::sort(diff.top_movers.begin(), diff.top_movers.end(), [&](size_t a, size_t b) {
    int64_t ma = std::llabs(diff.names[a].self_delta_ns);
    int64_t mb = std::llabs(diff.names[b].self_delta_ns);
    return ma != mb ? ma > mb : diff.names[a].name < diff.names[b].name;
  });
  if (diff.top_movers.size() > top_n) {
    diff.top_movers.resize(top_n);
  }
  diff.base_wall_ns = base.wall_ns;
  diff.head_wall_ns = head.wall_ns;
  diff.base_serial_self_ns = base.serial_self_ns;
  diff.head_serial_self_ns = head.serial_self_ns;
  diff.base_serial_share_pct = SerialSharePct(base);
  diff.head_serial_share_pct = SerialSharePct(head);
  diff.base_path = base.critical_path;
  diff.head_path = head.critical_path;
  return diff;
}

Result<Profile> ParseProfileDoc(std::string_view json) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) {
    return parsed.TakeError();
  }
  const JsonValue& doc = *parsed;
  DEPSURF_RETURN_IF_ERROR(CheckDocument("profile", doc));
  // The schema row has proven every member below present, typed and
  // nonnegative.
  auto u64 = [](const JsonValue& object, std::string_view key) {
    return static_cast<uint64_t>(object.Find(key)->number);
  };
  Profile profile;
  profile.span_nodes = u64(doc, "span_nodes");
  for (const JsonValue& entry : doc.Find("names")->array) {
    profile.names.push_back(ProfileNameRow{entry.Find("name")->string, u64(entry, "count"),
                                           u64(entry, "dur_ns"), u64(entry, "self_ns"),
                                           u64(entry, "cpu_ns"), u64(entry, "alloc_count"),
                                           u64(entry, "alloc_bytes")});
  }
  const JsonValue& path = *doc.Find("critical_path");
  profile.wall_ns = u64(path, "wall_ns");
  profile.serial_self_ns = u64(path, "serial_self_ns");
  for (const JsonValue& entry : path.Find("steps")->array) {
    profile.critical_path.push_back(
        CriticalPathStep{entry.Find("name")->string, u64(entry, "dur_ns"), u64(entry, "self_ns")});
  }
  const JsonValue& executor = *doc.Find("executor");
  ExecutorStats& stats = profile.executor;
  stats.window = static_cast<int64_t>(u64(executor, "window"));
  stats.wall_ms = static_cast<int64_t>(u64(executor, "wall_ms"));
  stats.serialize_stall_us = u64(executor, "serialize_stall_us");
  stats.queue_waits = u64(executor, "queue_waits");
  for (const JsonValue& worker : executor.Find("workers")->array) {
    stats.worker_busy_ms.emplace_back(static_cast<int64_t>(u64(worker, "lane")),
                                      static_cast<int64_t>(u64(worker, "busy_ms")));
  }
  stats.present = stats.window != 0 || !stats.worker_busy_ms.empty() ||
                  stats.serialize_stall_us != 0 || stats.queue_waits != 0;
  return profile;
}

std::string ProfileDiffJson(const ProfileDiff& diff) {
  std::string out = "{\n\"schema\": \"";
  out += kProfileDiffSchema;
  out += "\",\n";
  out += "\"base_span_nodes\": " + U64(diff.base_span_nodes);
  out += ", \"head_span_nodes\": " + U64(diff.head_span_nodes) + ",\n";
  out += "\"names\": [";
  auto append_row = [&](const ProfileDiffRow& row) {
    out += "\n  {\"name\": \"" + JsonEscape(row.name) + "\"";
    out += StrFormat(", \"in_base\": %s, \"in_head\": %s", row.in_base ? "true" : "false",
                     row.in_head ? "true" : "false");
    out += ", \"base\": ";
    AppendColumns(out, row.base);
    out += ", \"head\": ";
    AppendColumns(out, row.head);
    out += ", \"delta\": {\"count\": " + I64(row.count_delta);
    out += ", \"dur_ns\": " + I64(row.dur_delta_ns);
    out += ", \"self_ns\": " + I64(row.self_delta_ns);
    out += ", \"cpu_ns\": " + I64(row.cpu_delta_ns);
    out += ", \"alloc_count\": " + I64(row.alloc_count_delta);
    out += ", \"alloc_bytes\": " + I64(row.alloc_bytes_delta);
    out += "}}";
  };
  for (size_t i = 0; i < diff.names.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    append_row(diff.names[i]);
  }
  out += "\n],\n";
  out += "\"top_movers\": [";
  for (size_t i = 0; i < diff.top_movers.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    append_row(diff.names[diff.top_movers[i]]);
  }
  out += "\n],\n";
  out += "\"critical_path\": {\n  ";
  AppendSide(out, "base", diff.base_wall_ns, diff.base_serial_self_ns,
             diff.base_serial_share_pct, diff.base_path);
  out += ",\n  ";
  AppendSide(out, "head", diff.head_wall_ns, diff.head_serial_self_ns,
             diff.head_serial_share_pct, diff.head_path);
  out += ",\n  \"delta\": {\"wall_ns\": " + I64(diff.wall_delta_ns());
  out += ", \"serial_self_ns\": " + I64(diff.serial_self_delta_ns()) + "}\n}\n}\n";
  return out;
}

std::string ProfileDiffText(const ProfileDiff& diff) {
  std::string out = StrFormat("profile diff: %llu -> %llu span nodes, %zu names\n",
                              (unsigned long long)diff.base_span_nodes,
                              (unsigned long long)diff.head_span_nodes, diff.names.size());
  out += StrFormat("  %-40s %12s %12s %12s %12s %10s\n", "top mover", "base_self_ms",
                   "head_self_ms", "delta_ms", "delta_cpu_ms", "d_allocs");
  for (size_t index : diff.top_movers) {
    const ProfileDiffRow& row = diff.names[index];
    out += StrFormat("  %-40s %12.3f %12.3f %+12.3f %+12.3f %+10lld\n", row.name.c_str(),
                     static_cast<double>(row.base.self_ns) / 1e6,
                     static_cast<double>(row.head.self_ns) / 1e6,
                     static_cast<double>(row.self_delta_ns) / 1e6,
                     static_cast<double>(row.cpu_delta_ns) / 1e6,
                     (long long)row.alloc_count_delta);
  }
  if (diff.top_movers.empty()) {
    out += "  (no self-time movement)\n";
  }
  out += StrFormat(
      "critical path: wall %.3f -> %.3f ms (%+.3f), serial self %.3f -> %.3f ms (%+.3f)\n",
      static_cast<double>(diff.base_wall_ns) / 1e6,
      static_cast<double>(diff.head_wall_ns) / 1e6,
      static_cast<double>(diff.wall_delta_ns()) / 1e6,
      static_cast<double>(diff.base_serial_self_ns) / 1e6,
      static_cast<double>(diff.head_serial_self_ns) / 1e6,
      static_cast<double>(diff.serial_self_delta_ns()) / 1e6);
  out += "  base: " + PathNames(diff.base_path) + "\n";
  out += "  head: " + PathNames(diff.head_path) + "\n";
  return out;
}

}  // namespace obs
}  // namespace depsurf
