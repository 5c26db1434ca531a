#include "src/serve/serve.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <future>
#include <thread>
#include <utility>

#include "src/bpf/bpf_object.h"
#include "src/core/report.h"
#include "src/obs/context.h"
#include "src/obs/json_lint.h"
#include "src/obs/metrics.h"
#include "src/obs/run_report.h"
#include "src/obs/span.h"
#include "src/util/file_util.h"
#include "src/util/prng.h"
#include "src/util/str_util.h"

namespace depsurf {

namespace {

// Same auto-sizing rule as the study build executor: surfaces/queries are
// memory-heavy, so the default window is bounded even on wide machines.
size_t EffectiveWindow(int jobs) {
  if (jobs > 0) {
    return static_cast<size_t>(jobs);
  }
  size_t window = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::min(window, size_t{8});
}

// Renders a request's "id" member back to JSON. Ids are echoed, not
// interpreted; anything but a string/number/bool round-trips as null.
std::string RenderId(const obs::JsonValue* id) {
  if (id == nullptr) {
    return "null";
  }
  switch (id->kind) {
    case obs::JsonValue::Kind::kString:
      return "\"" + obs::JsonEscape(id->string) + "\"";
    case obs::JsonValue::Kind::kNumber: {
      long long integral = static_cast<long long>(id->number);
      if (static_cast<double>(integral) == id->number) {
        return StrFormat("%lld", integral);
      }
      return StrFormat("%g", id->number);
    }
    case obs::JsonValue::Kind::kBool:
      return id->boolean ? "true" : "false";
    default:
      return "null";
  }
}

Result<std::vector<std::string>> StringArray(const obs::JsonValue& value, const char* what) {
  if (value.kind != obs::JsonValue::Kind::kArray) {
    return Error(ErrorCode::kInvalidArgument, std::string(what) + " must be an array");
  }
  std::vector<std::string> out;
  out.reserve(value.array.size());
  for (const obs::JsonValue& element : value.array) {
    if (element.kind != obs::JsonValue::Kind::kString) {
      return Error(ErrorCode::kInvalidArgument,
                   std::string(what) + " must contain only strings");
    }
    out.push_back(element.string);
  }
  return out;
}

}  // namespace

Result<ServeEngine> ServeEngine::Open(const std::vector<std::string>& dataset_paths,
                                      const ServeOptions& options) {
  if (dataset_paths.empty()) {
    return Error(ErrorCode::kInvalidArgument, "serve needs at least one dataset");
  }
  ServeEngine engine;
  engine.options_ = options;
  for (const std::string& path : dataset_paths) {
    auto opened = OpenDatasetView(path);
    if (!opened.ok()) {
      return opened.TakeError().Wrap("opening " + path);
    }
    DatasetEntry entry;
    entry.path = path;
    entry.format = opened.value().format;
    entry.view = std::move(opened.value().view);
    engine.datasets_.push_back(std::move(entry));
  }
  return engine;
}

ServeEngine::ParsedRequest ServeEngine::ParseRequest(const std::string& line) const {
  ParsedRequest out;
  Result<obs::JsonValue> parsed = obs::ParseJson(line);
  if (!parsed.ok()) {
    out.error = "bad request JSON: " + parsed.error().message();
    return out;
  }
  const obs::JsonValue& doc = parsed.value();
  if (doc.kind != obs::JsonValue::Kind::kObject) {
    out.error = "request must be a JSON object";
    return out;
  }
  out.id_json = RenderId(doc.Find("id"));

  const obs::JsonValue* object = doc.Find("object");
  if (object != nullptr) {
    if (object->kind != obs::JsonValue::Kind::kString) {
      out.error = "object must be a file path string";
      return out;
    }
    Result<std::vector<uint8_t>> read = ReadFileBytes(object->string);
    if (!read.ok()) {
      out.error = "cannot read object file: " + object->string;
      return out;
    }
    std::vector<uint8_t> bytes = read.TakeValue();
    // Admission key: the object's content hash, not its path — re-uploads
    // of the same bytes hit regardless of filename.
    out.key = HashCombine(
        {HashString("serve.object"),
         HashString(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                     bytes.size()))});
    Result<BpfObject> obj = ParseBpfObject(std::move(bytes));
    if (!obj.ok()) {
      out.error = "bad eBPF object: " + obj.error().message();
      return out;
    }
    Result<DependencySet> deps = ExtractDependencySet(obj.value());
    if (!deps.ok()) {
      out.error = "cannot extract dependency set: " + deps.error().message();
      return out;
    }
    out.deps = deps.TakeValue();
    return out;
  }

  const obs::JsonValue* program = doc.Find("program");
  if (program != nullptr && program->kind != obs::JsonValue::Kind::kString) {
    out.error = "program must be a string";
    return out;
  }
  out.deps.program = program != nullptr ? program->string : "query";
  struct ListTarget {
    const char* name;
    std::set<std::string>* target;
  };
  ListTarget lists[] = {
      {"funcs", &out.deps.funcs},
      {"tracepoints", &out.deps.tracepoints},
      {"syscalls", &out.deps.syscalls},
      {"lsm_hooks", &out.deps.lsm_hooks},
  };
  for (const ListTarget& list : lists) {
    const obs::JsonValue* value = doc.Find(list.name);
    if (value == nullptr) {
      continue;
    }
    Result<std::vector<std::string>> names = StringArray(*value, list.name);
    if (!names.ok()) {
      out.error = names.error().message();
      return out;
    }
    list.target->insert(names.value().begin(), names.value().end());
  }
  const obs::JsonValue* fields = doc.Find("fields");
  if (fields != nullptr) {
    if (fields->kind != obs::JsonValue::Kind::kObject) {
      out.error = "fields must be an object of {struct: {field: expectation}}";
      return out;
    }
    for (const auto& [struct_name, field_map] : fields->object) {
      if (field_map.kind != obs::JsonValue::Kind::kObject) {
        out.error = "fields." + struct_name + " must be an object";
        return out;
      }
      auto& target = out.deps.fields[struct_name];  // empty map = struct-only dep
      for (const auto& [field_name, expectation] : field_map.object) {
        FieldDep dep;
        if (expectation.kind == obs::JsonValue::Kind::kString) {
          dep.expected_type = expectation.string;
        } else if (expectation.kind == obs::JsonValue::Kind::kObject) {
          const obs::JsonValue* type = expectation.Find("type");
          if (type != nullptr && type->kind == obs::JsonValue::Kind::kString) {
            dep.expected_type = type->string;
          }
          const obs::JsonValue* guarded = expectation.Find("guarded");
          if (guarded != nullptr && guarded->kind == obs::JsonValue::Kind::kBool) {
            dep.guarded = guarded->boolean;
          }
        } else if (expectation.kind != obs::JsonValue::Kind::kNull) {
          out.error = "fields." + struct_name + "." + field_name +
                      " must be a type string, an object, or null";
          return out;
        }
        target[field_name] = std::move(dep);
      }
    }
  }

  // Canonical form for the content hash: every container is sorted
  // (std::set/std::map), so equal dependency sets hash equal regardless of
  // the JSON spelling that produced them.
  std::string canonical = "p\x01" + out.deps.program;
  for (const std::string& name : out.deps.funcs) {
    canonical += "\x02f";
    canonical += name;
  }
  for (const std::string& name : out.deps.lsm_hooks) {
    canonical += "\x02l";
    canonical += name;
  }
  for (const std::string& name : out.deps.tracepoints) {
    canonical += "\x02t";
    canonical += name;
  }
  for (const std::string& name : out.deps.syscalls) {
    canonical += "\x02s";
    canonical += name;
  }
  for (const auto& [struct_name, field_map] : out.deps.fields) {
    canonical += "\x02S";
    canonical += struct_name;
    for (const auto& [field_name, dep] : field_map) {
      canonical += "\x03";
      canonical += field_name;
      canonical += "\x01";
      canonical += dep.expected_type;
      canonical += dep.guarded ? "\x01g" : "\x01u";
    }
  }
  out.key = HashCombine({HashString("serve.deps"), HashString(canonical)});
  return out;
}

ServeEngine::RequestOutcome ServeEngine::Answer(const DependencySet& deps) const {
  // Each request runs under a fresh isolated context: its spans/metrics
  // stay per-request instead of flooding the server's own collectors, and
  // worker threads never race on the global registries.
  obs::Context context;
  obs::ScopedContext scoped(context);
  RequestOutcome outcome;
  std::string results;
  {
    obs::ScopedSpan span("serve.request");
    span.AddAttr("program", deps.program);
    span.AddAttr("datasets", static_cast<uint64_t>(datasets_.size()));
    for (size_t d = 0; d < datasets_.size(); ++d) {
      const DatasetEntry& entry = datasets_[d];
      ProgramReport report = AnalyzeProgram(*entry.view, deps);
      if (!report.status.ok()) {
        RequestOutcome failed;
        failed.error = entry.path + ": " + report.status.error().message();
        return failed;
      }
      if (d != 0) {
        results += ",";
      }
      results += "{\"dataset\": \"" + obs::JsonEscape(entry.path) + "\", \"format\": \"v";
      results += entry.format == 2 ? "2" : "1";
      results += StrFormat("\", \"images\": %zu, \"any_mismatch\": %s", entry.view->num_images(),
                           report.AnyMismatch() ? "true" : "false");
      results += ", \"worst_implication\": \"";
      results += obs::JsonEscape(ImplicationName(report.WorstImplication()));
      results += "\", \"rows\": [";
      for (size_t r = 0; r < report.rows.size(); ++r) {
        const ReportRow& row = report.rows[r];
        if (r != 0) {
          results += ",";
        }
        results += "{\"kind\": \"";
        results += DepKindName(row.kind);
        results += "\", \"name\": \"" + obs::JsonEscape(row.name) + "\", \"cells\": [";
        for (size_t c = 0; c < row.cells.size(); ++c) {
          if (c != 0) {
            results += ",";
          }
          results += "\"" + MismatchCellString(row.cells[c]) + "\"";
        }
        results += "]}";
        outcome.rows += 1;
        outcome.mismatch_rows += row.AnyMismatch() ? 1 : 0;
      }
      results += "]}";
    }
    span.AddAttr("rows", outcome.rows);
    span.AddAttr("rows_mismatching", outcome.mismatch_rows);
  }
  outcome.body = "\"ok\": true, \"results\": [" + results + "]";
  return outcome;
}

std::vector<std::string> ServeEngine::HandleBatch(const std::vector<std::string>& lines) {
  obs::ScopedSpan batch_span("serve.batch");
  batch_span.AddAttr("requests", static_cast<uint64_t>(lines.size()));
  const size_t window = EffectiveWindow(options_.jobs);
  std::vector<std::string> responses(lines.size());

  using OutcomeFuture = std::shared_future<std::shared_ptr<RequestOutcome>>;
  struct Pending {
    size_t index = 0;
    bool error = false;
    bool hit = false;
    bool owner = false;  // first dispatch of this key: admits into the cache
    std::string id_json;
    std::string error_text;
    std::string cached_body;  // set when served from the persistent cache
    uint64_t key = 0;
    OutcomeFuture future;
  };
  std::deque<Pending> in_flight;
  // Dedup is decided at *dispatch* time (in request order), never at
  // completion time, so hit/miss markers and counters are identical no
  // matter how the window schedules the workers.
  std::unordered_map<uint64_t, OutcomeFuture> batch_futures;
  uint64_t batch_hits = 0;
  uint64_t batch_misses = 0;
  uint64_t batch_errors = 0;
  uint64_t batch_rows = 0;

  obs::MetricsRegistry& metrics = obs::Context::Current().metrics();
  auto consume = [&]() {
    Pending pending = std::move(in_flight.front());
    in_flight.pop_front();
    ++requests_;
    std::string body;
    if (!pending.cached_body.empty()) {
      body = std::move(pending.cached_body);
    } else if (!pending.error) {
      std::shared_ptr<RequestOutcome> outcome = pending.future.get();
      pending.error = !outcome->error.empty();
      pending.error_text = outcome->error;
      body = outcome->body;
      batch_rows += outcome->rows;
    }
    if (pending.error) {
      ++errors_;
      ++batch_errors;
      responses[pending.index] = "{\"id\": " + pending.id_json +
                                 ", \"ok\": false, \"error\": \"" +
                                 obs::JsonEscape(pending.error_text) + "\"}";
      return;
    }
    if (pending.hit) {
      ++hits_;
      ++batch_hits;
    } else {
      ++misses_;
      ++batch_misses;
      if (pending.owner && cache_.size() < options_.cache_capacity) {
        cache_.emplace(pending.key, body);
      }
    }
    ++ok_;
    responses[pending.index] = "{\"id\": " + pending.id_json + ", \"cache\": \"" +
                               (pending.hit ? "hit" : "miss") + "\", " + body + "}";
  };

  for (size_t i = 0; i < lines.size(); ++i) {
    ParsedRequest parsed = ParseRequest(lines[i]);
    Pending pending;
    pending.index = i;
    pending.id_json = std::move(parsed.id_json);
    pending.key = parsed.key;
    if (!parsed.error.empty()) {
      pending.error = true;
      pending.error_text = std::move(parsed.error);
    } else if (auto cached = cache_.find(parsed.key); cached != cache_.end()) {
      pending.hit = true;
      pending.cached_body = cached->second;
    } else if (auto shared = batch_futures.find(parsed.key); shared != batch_futures.end()) {
      // Same content dispatched earlier in this batch: share its result.
      pending.hit = true;
      pending.future = shared->second;
    } else {
      while (in_flight.size() >= window) {
        consume();
      }
      pending.owner = true;
      OutcomeFuture future =
          std::async(std::launch::async,
                     [this, deps = std::move(parsed.deps)]() {
                       return std::make_shared<RequestOutcome>(Answer(deps));
                     })
              .share();
      pending.future = future;
      batch_futures.emplace(parsed.key, std::move(future));
    }
    in_flight.push_back(std::move(pending));
  }
  while (!in_flight.empty()) {
    consume();
  }

  metrics.Incr("serve.requests", lines.size());
  metrics.Incr("serve.cache_hits", batch_hits);
  metrics.Incr("serve.cache_misses", batch_misses);
  metrics.Incr("serve.request_errors", batch_errors);
  metrics.Incr("serve.rows_checked", batch_rows);
  batch_span.AddAttr("cache_hits", batch_hits);
  batch_span.AddAttr("cache_misses", batch_misses);
  batch_span.AddAttr("errors", batch_errors);
  return responses;
}

std::string ServeEngine::ReportJson() const {
  std::string out = "{\n\"schema\": \"";
  out += kServeReportSchema;
  out += "\",\n";
  out += StrFormat("\"jobs\": %d,\n", options_.jobs);
  out += "\"datasets\": [";
  for (size_t i = 0; i < datasets_.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += "\n  {\"path\": \"" + obs::JsonEscape(datasets_[i].path) + "\", \"format\": \"v";
    out += datasets_[i].format == 2 ? "2" : "1";
    out += StrFormat("\", \"images\": %zu}", datasets_[i].view->num_images());
  }
  out += "\n],\n";
  out += StrFormat("\"requests\": %llu,\n\"ok\": %llu,\n\"errors\": %llu,\n",
                   static_cast<unsigned long long>(requests_),
                   static_cast<unsigned long long>(ok_),
                   static_cast<unsigned long long>(errors_));
  out += StrFormat(
      "\"cache\": {\"hits\": %llu, \"misses\": %llu, \"entries\": %zu, \"capacity\": %zu}\n",
      static_cast<unsigned long long>(hits_), static_cast<unsigned long long>(misses_),
      cache_.size(), options_.cache_capacity);
  out += "}\n";
  return out;
}

}  // namespace depsurf
