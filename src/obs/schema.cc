#include "src/obs/schema.h"

#include <algorithm>
#include <cmath>

#include "src/obs/bench_report.h"
#include "src/obs/diagnostics.h"
#include "src/obs/perf_gate.h"
#include "src/obs/perf_history.h"
#include "src/obs/profile.h"
#include "src/obs/profile_diff.h"
#include "src/obs/run_report.h"
#include "src/util/diagnostic_ledger.h"
#include "src/util/str_util.h"

namespace depsurf {
namespace obs {

namespace {

using Kind = JsonValue::Kind;

// The declared shape of one JSON value.
struct Shape {
  enum class Type : uint8_t { kAny, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kAny;
  bool optional = false;      // an object member that may be absent
  bool nullable = false;      // null is accepted as well
  bool non_empty = false;     // strings and arrays
  bool non_negative = false;  // numbers; implies finite
  bool finite = false;        // numbers
  std::vector<std::string> one_of;  // strings: the allowed values
  // Objects: required members, checked in order.
  std::vector<std::pair<std::string, Shape>> members;
  // Arrays: the shape of every element. Objects: the shape of every member
  // (a map such as "counters"). Empty or one shape.
  std::vector<Shape> element;
  // Objects: the member whose value ("true"/"false" for a bool) selects one
  // of `variants`, whose members are then required as well.
  std::string tag;
  std::vector<std::pair<std::string, Shape>> variants;
  const Shape* ref = nullptr;  // stands for another shape (the span tree)
};

using Members = std::vector<std::pair<std::string, Shape>>;

Shape Of(Shape::Type type) {
  Shape shape;
  shape.type = type;
  return shape;
}
Shape Any() { return Shape(); }
Shape Bool() { return Of(Shape::Type::kBool); }
Shape Num() { return Of(Shape::Type::kNumber); }
Shape Str() { return Of(Shape::Type::kString); }
Shape Finite() {
  Shape shape = Num();
  shape.finite = true;
  return shape;
}
Shape Count() {
  Shape shape = Num();
  shape.non_negative = true;
  return shape;
}
Shape NonEmpty(Shape shape) {
  shape.non_empty = true;
  return shape;
}
Shape Name() { return NonEmpty(Str()); }  // a non-empty string
Shape OneOf(std::vector<std::string> values) {
  Shape shape = Str();
  shape.one_of = std::move(values);
  return shape;
}
Shape Opt(Shape shape) {
  shape.optional = true;
  return shape;
}
Shape NullOr(Shape shape) {
  shape.nullable = true;
  return shape;
}
Shape Arr(Shape element) {
  Shape shape = Of(Shape::Type::kArray);
  shape.element.push_back(std::move(element));
  return shape;
}
Shape Obj(Members members) {
  Shape shape = Of(Shape::Type::kObject);
  shape.members = std::move(members);
  return shape;
}
Shape MapOf(Shape value) {
  Shape shape = Of(Shape::Type::kObject);
  shape.element.push_back(std::move(value));
  return shape;
}
Shape Tagged(Shape object, std::string tag, Members variants) {
  object.tag = std::move(tag);
  object.variants = std::move(variants);
  return object;
}
Shape Ref(const Shape* target) {
  Shape shape;
  shape.ref = target;
  return shape;
}

// Numbers of the same name as the six profile aggregate columns.
Members Columns(const Shape& number) {
  Members out;
  for (const char* key : {"count", "dur_ns", "self_ns", "cpu_ns", "alloc_count", "alloc_bytes"}) {
    out.emplace_back(key, number);
  }
  return out;
}

template <typename Enum, typename NameOf>
std::vector<std::string> EnumNames(Enum last, NameOf name_of) {
  std::vector<std::string> names;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    names.emplace_back(name_of(static_cast<Enum>(i)));
  }
  return names;
}

// Where a value sits in the document; rendered only for an error message.
struct Path {
  const Path* parent = nullptr;
  std::string_view key;  // member name; empty for an array element
  size_t index = 0;
};

std::string Render(const Path* path) {
  if (path == nullptr) {
    return "";
  }
  std::string out = Render(path->parent);
  if (path->key.empty()) {
    return out + StrFormat("[%zu]", path->index);
  }
  return out.empty() ? std::string(path->key) : out + "." + std::string(path->key);
}

Status Bad(const Path* path, const std::string& what) {
  std::string where = Render(path);
  return Status(ErrorCode::kMalformedData, (where.empty() ? "document" : where) + " " + what);
}

Status Fail(const std::string& what) { return Status(ErrorCode::kMalformedData, what); }

const char* TypeName(const Shape& shape) {
  static constexpr const char* kNames[] = {"value", "bool", "number", "string", "array", "object"};
  const Shape& target = shape.ref != nullptr ? *shape.ref : shape;
  return kNames[static_cast<int>(target.type)];
}

Status WrongType(const Path* path, const Shape& shape) {
  const char* name = TypeName(shape);
  const char* article = name[0] == 'a' || name[0] == 'o' ? "an" : "a";
  return Bad(path, StrFormat("is not %s%s %s", shape.nullable ? "null or " : "", article, name));
}

Status CheckValue(const JsonValue& value, const Shape& shape, const Path* path);

Status CheckMembers(const JsonValue& object, const Shape& shape, const Path* path) {
  for (const auto& [key, member] : shape.members) {
    Path at{path, key};
    const JsonValue* value = object.Find(key);
    if (value == nullptr) {
      if (member.optional) {
        continue;
      }
      return Fail(StrFormat("missing \"%s\" %s%s", Render(&at).c_str(), TypeName(member),
                            member.nullable ? " or null" : ""));
    }
    DEPSURF_RETURN_IF_ERROR(CheckValue(*value, member, &at));
  }
  if (!shape.element.empty()) {
    for (const auto& [key, value] : object.object) {
      Path at{path, key};
      DEPSURF_RETURN_IF_ERROR(CheckValue(value, shape.element[0], &at));
    }
  }
  if (shape.tag.empty()) {
    return Status::Ok();
  }
  // The tag is one of the members, so it is present and typed by now.
  const JsonValue& tag = *object.Find(shape.tag);
  std::string selector = tag.kind == Kind::kBool ? (tag.boolean ? "true" : "false") : tag.string;
  std::vector<std::string> names;
  for (const auto& [name, variant] : shape.variants) {
    if (name == selector) {
      return CheckMembers(object, variant, path);
    }
    names.push_back(name);
  }
  Path at{path, shape.tag};
  return Bad(&at, "is not one of " + JoinStrings(names, "|"));
}

Status CheckValue(const JsonValue& value, const Shape& shape, const Path* path) {
  if (value.kind == Kind::kNull && shape.nullable) {
    return Status::Ok();
  }
  if (shape.ref != nullptr) {
    return CheckValue(value, *shape.ref, path);
  }
  switch (shape.type) {
    case Shape::Type::kAny:
      return Status::Ok();
    case Shape::Type::kBool:
      return value.kind == Kind::kBool ? Status::Ok() : WrongType(path, shape);
    case Shape::Type::kNumber:
      if (value.kind != Kind::kNumber) {
        return WrongType(path, shape);
      }
      if ((shape.finite || shape.non_negative) && !std::isfinite(value.number)) {
        return Bad(path, "is not finite");
      }
      if (shape.non_negative && value.number < 0) {
        return Bad(path, "is negative");
      }
      return Status::Ok();
    case Shape::Type::kString:
      if (value.kind != Kind::kString) {
        return WrongType(path, shape);
      }
      if (shape.non_empty && value.string.empty()) {
        return Bad(path, "is empty");
      }
      if (!shape.one_of.empty() &&
          std::find(shape.one_of.begin(), shape.one_of.end(), value.string) ==
              shape.one_of.end()) {
        return Bad(path, "is not one of " + JoinStrings(shape.one_of, "|"));
      }
      return Status::Ok();
    case Shape::Type::kArray:
      if (value.kind != Kind::kArray) {
        return WrongType(path, shape);
      }
      if (shape.non_empty && value.array.empty()) {
        return Bad(path, "is empty");
      }
      for (size_t i = 0; i < value.array.size(); ++i) {
        Path at{path, {}, i};
        DEPSURF_RETURN_IF_ERROR(CheckValue(value.array[i], shape.element[0], &at));
      }
      return Status::Ok();
    case Shape::Type::kObject:
      return value.kind == Kind::kObject ? CheckMembers(value, shape, path)
                                         : WrongType(path, shape);
  }
  return Status::Ok();
}

// Members the shape check has already proven present (and typed).
const JsonValue& At(const JsonValue& object, std::string_view key) { return *object.Find(key); }
double Number(const JsonValue& object, std::string_view key) { return At(object, key).number; }

// A cross-field rule over a document that passed its shape check.
using Invariant = Status (*)(const JsonValue& doc, const LintOptions& options);

struct LintKind {
  const char* kind;
  // The "schema" member's value; nullptr for trace_event JSON, which has
  // no marker.
  const char* schema;
  Shape root;
  std::vector<Invariant> invariants = {};
  const char* counted = nullptr;  // the success line's "(N <counted>)"
  size_t (*count)(const JsonValue& doc) = nullptr;
  bool ndjson = false;  // one document per line, counted as records
  bool notes = false;   // RunReportLintNotes apply
};

Status SelfWithinDur(const JsonValue& rows, const char* where) {
  for (size_t i = 0; i < rows.array.size(); ++i) {
    if (Number(rows.array[i], "self_ns") > Number(rows.array[i], "dur_ns")) {
      return Fail(StrFormat("%s[%zu].self_ns exceeds dur_ns", where, i));
    }
  }
  return Status::Ok();
}

Status InBaseOrHead(const JsonValue& rows, const char* where) {
  for (size_t i = 0; i < rows.array.size(); ++i) {
    if (!At(rows.array[i], "in_base").boolean && !At(rows.array[i], "in_head").boolean) {
      return Fail(StrFormat("%s[%zu] is in neither base nor head", where, i));
    }
  }
  return Status::Ok();
}

const std::vector<LintKind>& Table() {
  static const std::vector<LintKind> table = [] {
    static const Shape span = Obj({{"name", Str()},
                                   {"dur_ns", Count()},
                                   {"cpu_ns", Count()},
                                   {"alloc_count", Count()},
                                   {"alloc_bytes", Count()},
                                   {"attrs", MapOf(Str())},
                                   {"children", Arr(Ref(&span))}});
    const Shape histogram =
        Obj({{"count", Count()}, {"sum", Count()}, {"buckets", Arr(Arr(Count()))}});
    Members diagnostic = {
        {"severity", OneOf(EnumNames(DiagSeverity::kFatal, DiagSeverityName))},
        {"subsystem", OneOf(EnumNames(DiagSubsystem::kBpf, DiagSubsystemName))},
        {"code", Name()},
        {"offset", Num()},
        {"message", Str()}};
    const Shape diagnostics = Arr(Obj(diagnostic));
    diagnostic.emplace_back("label", Str());
    const Members report_sections = {{"spans", Arr(Ref(&span))},
                                     {"counters", MapOf(Count())},
                                     {"gauges", MapOf(Finite())},
                                     {"histograms", MapOf(histogram)}};
    Members agg = {{"reports", Count()}, {"sources", Arr(Any())}};
    agg.insert(agg.end(), report_sections.begin(), report_sections.end());
    agg.emplace_back("diagnostics", Arr(Obj(diagnostic)));
    Members report = report_sections;
    report.emplace_back("diagnostics", diagnostics);

    const Shape step = Obj({{"name", Name()}, {"dur_ns", Count()}, {"self_ns", Count()}});
    const Shape critical_path = Obj({{"wall_ns", Count()},
                                     {"serial_self_ns", Count()},
                                     {"serial_share_pct", Count()},
                                     {"steps", Arr(step)}});
    Members name_row = Columns(Count());
    name_row.insert(name_row.begin(), {"name", Name()});
    const Shape diff_row = Obj({{"name", Name()},
                                {"in_base", Bool()},
                                {"in_head", Bool()},
                                {"base", Obj(Columns(Count()))},
                                {"head", Obj(Columns(Count()))},
                                {"delta", Obj(Columns(Finite()))}});
    const Shape against = NullOr(Obj({{"images", Count()}}));

    std::vector<LintKind> kinds;
    kinds.push_back(
        {.kind = "report",
         .schema = kRunReportSchema,
         .root = Obj(report),
         .invariants = {[](const JsonValue& doc, const LintOptions& options) -> Status {
           size_t names = CollectSpanNames(doc).size();
           if (names < options.min_distinct_spans) {
             return Fail(StrFormat("only %zu distinct span names, need %zu", names,
                                   options.min_distinct_spans));
           }
           for (const std::string& required : options.required_counters) {
             if (At(doc, "counters").Find(required) == nullptr) {
               return Fail("missing counter " + required);
             }
           }
           return Status::Ok();
         }},
         .counted = "distinct spans",
         .count = [](const JsonValue& doc) { return CollectSpanNames(doc).size(); },
         .notes = true});
    kinds.push_back({.kind = "history",
                     .schema = kPerfHistorySchema,
                     .root = Obj({{"label", Str()},
                                  {"recorded_unix_ms", Count()},
                                  {"host", Obj({{"cpu_model", Str()},
                                                {"cores", Count()},
                                                {"page_size", Count()}})},
                                  {"stages", Arr(Obj({{"name", Name()},
                                                      {"wall_seconds", Count()},
                                                      {"items", Count()}}))},
                                  {"profile", Opt(NullOr(Obj(
                                                  {{"span_nodes", Count()},
                                                   {"serial_share_pct", Count()},
                                                   {"critical_path",
                                                    Obj({{"wall_ns", Count()},
                                                         {"serial_self_ns", Count()},
                                                         {"steps", Arr(step)}})}})))}}),
                     .counted = "records",
                     .ndjson = true});
    kinds.push_back(
        {.kind = "trace",
         .schema = nullptr,
         .root = Obj({{"traceEvents",
                       Arr(Tagged(Obj({{"name", Name()}, {"ph", Str()}}), "ph",
                                  {{"X", Obj({{"ts", Count()},
                                              {"dur", Count()},
                                              {"pid", Count()},
                                              {"tid", Count()}})},
                                   // Metadata (thread_name) events carry no
                                   // timeline position, only a lane name.
                                   {"M", Obj({{"pid", Count()},
                                              {"tid", Count()},
                                              {"args", Obj({{"name", Any()}})}})}}))}}),
         .invariants = {[](const JsonValue& doc, const LintOptions& options) -> Status {
           const std::vector<JsonValue>& events = At(doc, "traceEvents").array;
           double prev_ts = -1;
           int64_t complete_events = 0;
           for (size_t i = 0; i < events.size(); ++i) {
             if (At(events[i], "ph").string != "X") {
               continue;
             }
             ++complete_events;
             double ts = Number(events[i], "ts");
             if (ts < prev_ts) {
               return Fail(StrFormat("traceEvents[%zu].ts not monotonic (%.3f after %.3f)", i,
                                     ts, prev_ts));
             }
             prev_ts = ts;
           }
           if (options.expect_events >= 0 && complete_events != options.expect_events) {
             return Fail(StrFormat("trace has %lld complete events, span tree has %lld nodes",
                                   (long long)complete_events,
                                   (long long)options.expect_events));
           }
           return Status::Ok();
         }},
         .counted = "events",
         .count = [](const JsonValue& doc) { return At(doc, "traceEvents").array.size(); }});
    kinds.push_back(
        {.kind = "agg",
         .schema = kRunReportAggSchema,
         .root = Obj(agg),
         .invariants = {[](const JsonValue& doc, const LintOptions&) -> Status {
           return Number(doc, "reports") >= 1 ? Status::Ok()
                                              : Fail("\"reports\" is 0; an aggregate merges "
                                                     "at least one report");
         }},
         .notes = true});
    kinds.push_back({.kind = "bench",
                     .schema = kBenchReportSchema,
                     .root = Obj({{"bench", Name()},
                                  {"stages", Arr(Obj({{"name", Name()},
                                                      {"seconds", Count()},
                                                      {"items", Count()},
                                                      {"items_per_sec", Count()},
                                                      {"bytes", Count()},
                                                      {"bytes_per_sec", Count()}}))}})});
    kinds.push_back(
        {.kind = "perf",
         .schema = kPerfCompareSchema,
         .root = Obj({{"max_regress", Count()},
                      {"improved", Count()},
                      {"flat", Count()},
                      {"regressed", Count()},
                      {"added", Count()},
                      {"removed", Count()},
                      {"stages", Arr(Obj({{"name", Name()},
                                          {"class", OneOf(EnumNames(StageClass::kRemoved,
                                                                    StageClassName))}}))}})});
    const Shape health = OneOf({"clean", "degraded", "missing"});
    kinds.push_back({.kind = "diag",
                     .schema = kDiagnosticsSchema,
                     .root = Obj({{"image", Str()},
                                  {"health", Obj({{"elf", health},
                                                  {"dwarf", health},
                                                  {"btf", health},
                                                  {"tracepoint", health},
                                                  {"syscall", health}})},
                                  {"fatal", Bool()},
                                  {"entries", diagnostics}})});
    kinds.push_back(
        {.kind = "analysis",
         .schema = kAnalysisSchema,
         .root = Obj({{"object", Str()},
                      {"against", against},
                      {"programs", Arr(Obj({{"name", Str()},
                                            {"section", Str()},
                                            {"insns", Count()},
                                            {"blocks", Count()},
                                            {"reachable_insns", Count()},
                                            {"helper_calls", Count()}}))},
                      {"relocs", Arr(Obj({{"index", Count()},
                                          {"kind", Str()},
                                          {"reachable", Bool()},
                                          {"unguarded", Bool()},
                                          {"consequence", Opt(Str())}}))},
                      {"findings", Arr(Obj({{"kind", OneOf({"raw-offset-deref", "unguarded-reloc",
                                                             "unknown-helper",
                                                             "unreachable-reloc"})},
                                            {"program", Str()},
                                            {"insn_off", Count()},
                                            {"detail", Str()},
                                            {"remediation", Str()}}))},
                      {"summary", Obj({{"findings", Count()},
                                       {"raw_offset_deref", Count()},
                                       {"unguarded_reloc", Count()},
                                       {"unknown_helper", Count()},
                                       {"unreachable_reloc", Count()}})}}),
         .invariants = {
             [](const JsonValue& doc, const LintOptions&) -> Status {
               if (At(doc, "against").kind != Kind::kObject) {
                 return Status::Ok();
               }
               const std::vector<JsonValue>& relocs = At(doc, "relocs").array;
               for (size_t i = 0; i < relocs.size(); ++i) {
                 if (relocs[i].Find("consequence") == nullptr) {
                   return Fail(StrFormat(
                       "missing \"relocs[%zu].consequence\" string (required with \"against\")",
                       i));
                 }
               }
               return Status::Ok();
             },
             [](const JsonValue& doc, const LintOptions&) -> Status {
               const JsonValue& summary = At(doc, "summary");
               double total = Number(summary, "findings");
               if (Number(summary, "raw_offset_deref") + Number(summary, "unguarded_reloc") +
                       Number(summary, "unknown_helper") +
                       Number(summary, "unreachable_reloc") !=
                   total) {
                 return Fail("summary per-kind counts do not sum to summary.findings");
               }
               if (total != static_cast<double>(At(doc, "findings").array.size())) {
                 return Fail("summary.findings does not match the findings array length");
               }
               return Status::Ok();
             }}});
    kinds.push_back(
        {.kind = "remediation",
         .schema = kRemediationSchema,
         .root = Obj(
             {{"object", Str()},
              {"against", against},
              {"remediations",
               Arr(Tagged(Obj({{"finding", Obj({{"kind", Str()},
                                                {"program", Str()},
                                                {"detail", Str()},
                                                {"insn_off", Count()}})},
                               {"fixable", Bool()}}),
                          "fixable",
                          {{"true", Obj({{"insn_off", Count()},
                                         {"scratch_reg", Count()},
                                         {"struct", Str()},
                                         {"field", Str()},
                                         {"guard", Str()}})},
                           {"false", Obj({{"reason", Str()}})}}))},
              {"verification", NullOr(Obj({{"findings_before", Count()},
                                           {"targeted", Count()},
                                           {"findings_after", Count()},
                                           {"targeted_remaining", Count()},
                                           {"new_findings", Count()},
                                           {"ok", Bool()}}))},
              {"summary",
               Obj({{"findings", Count()}, {"fixable", Count()}, {"unfixable", Count()}})}}),
         .invariants = {[](const JsonValue& doc, const LintOptions&) -> Status {
           const JsonValue& summary = At(doc, "summary");
           const std::vector<JsonValue>& items = At(doc, "remediations").array;
           double fixable = static_cast<double>(
               std::count_if(items.begin(), items.end(),
                             [](const JsonValue& item) { return At(item, "fixable").boolean; }));
           if (Number(summary, "fixable") + Number(summary, "unfixable") !=
               Number(summary, "findings")) {
             return Fail("summary.fixable + summary.unfixable does not equal summary.findings");
           }
           if (Number(summary, "findings") != static_cast<double>(items.size())) {
             return Fail("summary.findings does not match the remediations array length");
           }
           if (Number(summary, "fixable") != fixable) {
             return Fail("summary.fixable does not match the fixable remediations count");
           }
           return Status::Ok();
         }}});
    kinds.push_back({.kind = "profile",
                     .schema = kProfileSchema,
                     .root = Obj({{"span_nodes", Count()},
                                  {"names", Arr(Obj(name_row))},
                                  {"critical_path", critical_path},
                                  {"executor", Obj({{"window", Count()},
                                                    {"wall_ms", Count()},
                                                    {"serialize_stall_us", Count()},
                                                    {"queue_waits", Count()},
                                                    {"workers", Arr(Obj({{"lane", Count()},
                                                                         {"busy_ms", Count()}}))}})}}),
                     .invariants = {[](const JsonValue& doc, const LintOptions&) -> Status {
                       DEPSURF_RETURN_IF_ERROR(SelfWithinDur(At(doc, "names"), "names"));
                       const JsonValue& path = At(doc, "critical_path");
                       if (Number(path, "serial_self_ns") > Number(path, "wall_ns")) {
                         return Fail("critical_path.serial_self_ns exceeds wall_ns");
                       }
                       return SelfWithinDur(At(path, "steps"), "critical_path.steps");
                     }}});
    kinds.push_back({.kind = "trend",
                     .schema = kPerfTrendSchema,
                     .root = Obj({{"host", Name()},
                                  {"records", Count()},
                                  {"comparable", Count()},
                                  {"window", Count()},
                                  {"min_floor_seconds", Count()},
                                  {"mad_sigmas", Count()},
                                  {"floor_sigmas", Count()},
                                  {"stages", Arr(Obj({{"name", Name()},
                                                      {"samples", Count()},
                                                      {"median_seconds", Count()},
                                                      {"mad_seconds", Count()},
                                                      {"latest_seconds", Count()},
                                                      {"floor_seconds", Count()},
                                                      {"deviation_sigmas", Finite()},
                                                      {"change_point", Bool()}}))}})});
    kinds.push_back(
        {.kind = "profile_diff",
         .schema = kProfileDiffSchema,
         .root = Obj({{"base_span_nodes", Count()},
                      {"head_span_nodes", Count()},
                      {"names", Arr(diff_row)},
                      {"top_movers", Arr(diff_row)},
                      {"critical_path",
                       Obj({{"base", critical_path},
                            {"head", critical_path},
                            {"delta",
                             Obj({{"wall_ns", Finite()}, {"serial_self_ns", Finite()}})}})}}),
         .invariants = {[](const JsonValue& doc, const LintOptions&) -> Status {
           DEPSURF_RETURN_IF_ERROR(InBaseOrHead(At(doc, "names"), "names"));
           return InBaseOrHead(At(doc, "top_movers"), "top_movers");
         }}});
    kinds.push_back(
        {.kind = "fuzz",
         .schema = kFuzzCampaignSchema,
         .root = Obj({{"mode", OneOf({"image", "object"})},
                      {"config", Obj({{"rounds", Count()},
                                      {"seed", Count()},
                                      {"time_budget_ms", Count()},
                                      {"max_ledger_entries", Count()}})},
                      {"seeds", NonEmpty(Arr(Str()))},
                      {"candidates", Count()},
                      {"coverage", Obj({{"tuples", Count()}, {"keys", Arr(Str())}})},
                      {"growth", NonEmpty(Arr(Obj({{"round", Count()}, {"tuples", Count()}})))},
                      {"kinds", Arr(Obj({{"kind", Str()},
                                         {"attempts", Count()},
                                         {"novel", Count()}}))},
                      {"corpus", NonEmpty(Arr(Obj({{"index", Count()},
                                                   {"round", Count()},
                                                   {"fault_seed", Count()},
                                                   {"parent", Count()},
                                                   {"size", Count()},
                                                   {"tuple_count", Count()},
                                                   {"name", Str()},
                                                   {"kind", Str()},
                                                   {"description", Str()},
                                                   {"seed", Bool()},
                                                   {"new_tuples", Arr(Str())}})))},
                      {"minimized", Arr(Count())},
                      {"oracle", Obj({{"disagreements", Arr(Obj({{"violation", Str()},
                                                                 {"fault_seed", Count()}}))}})},
                      {"hangs", Arr(Any())},
                      {"exit_code", Count()}}),
         .invariants = {
             [](const JsonValue& doc, const LintOptions&) -> Status {
               const JsonValue& coverage = At(doc, "coverage");
               double tuples = Number(coverage, "tuples");
               if (tuples != static_cast<double>(At(coverage, "keys").array.size())) {
                 return Fail("coverage.tuples does not match coverage.keys length");
               }
               const std::vector<JsonValue>& growth = At(doc, "growth").array;
               for (size_t i = 1; i < growth.size(); ++i) {
                 if (Number(growth[i], "round") < Number(growth[i - 1], "round") ||
                     Number(growth[i], "tuples") < Number(growth[i - 1], "tuples")) {
                   return Fail(StrFormat("growth[%zu] is not monotonic", i));
                 }
               }
               if (Number(growth.back(), "tuples") != tuples) {
                 return Fail("growth curve does not end at the coverage total");
               }
               return Status::Ok();
             },
             [](const JsonValue& doc, const LintOptions&) -> Status {
               const std::vector<JsonValue>& stats = At(doc, "kinds").array;
               for (size_t i = 0; i < stats.size(); ++i) {
                 if (Number(stats[i], "novel") > Number(stats[i], "attempts")) {
                   return Fail(StrFormat("kinds[%zu].novel exceeds its attempts", i));
                 }
               }
               const std::vector<JsonValue>& corpus = At(doc, "corpus").array;
               for (size_t i = 0; i < corpus.size(); ++i) {
                 if (Number(corpus[i], "index") != static_cast<double>(i)) {
                   return Fail(StrFormat("corpus[%zu].index is out of order", i));
                 }
                 if (Number(corpus[i], "parent") >= static_cast<double>(i) &&
                     !At(corpus[i], "seed").boolean) {
                   return Fail(StrFormat("corpus[%zu].parent is not an earlier entry", i));
                 }
               }
               const std::vector<JsonValue>& minimized = At(doc, "minimized").array;
               for (size_t i = 0; i < minimized.size(); ++i) {
                 if (minimized[i].number >= static_cast<double>(corpus.size())) {
                   return Fail(StrFormat("minimized[%zu] is not a corpus index", i));
                 }
               }
               return Status::Ok();
             },
             [](const JsonValue& doc, const LintOptions&) -> Status {
               double want = !At(doc, "hangs").array.empty() ? 1
                             : !At(At(doc, "oracle"), "disagreements").array.empty() ? 2
                                                                                        : 0;
               if (Number(doc, "exit_code") != want) {
                 return Fail(StrFormat(
                     "exit_code %g disagrees with the hang/disagreement arrays (want %g)",
                     Number(doc, "exit_code"), want));
               }
               return Status::Ok();
             }}});
    kinds.push_back(
        {.kind = "serve",
         .schema = kServeReportSchema,
         .root = Obj({{"jobs", Count()},
                      {"datasets", NonEmpty(Arr(Obj({{"path", Str()},
                                                     {"format", OneOf({"v1", "v2"})},
                                                     {"images", Count()}})))},
                      {"requests", Count()},
                      {"ok", Count()},
                      {"errors", Count()},
                      {"cache", Obj({{"hits", Count()},
                                     {"misses", Count()},
                                     {"entries", Count()},
                                     {"capacity", Count()}})}}),
         .invariants = {[](const JsonValue& doc, const LintOptions&) -> Status {
           const JsonValue& cache = At(doc, "cache");
           if (Number(doc, "ok") + Number(doc, "errors") != Number(doc, "requests")) {
             return Fail("ok + errors != requests");
           }
           if (Number(cache, "hits") + Number(cache, "misses") != Number(doc, "ok")) {
             return Fail("cache hits + misses != ok responses");
           }
           if (Number(cache, "entries") > Number(cache, "misses")) {
             return Fail("cache entries exceed recorded misses");
           }
           if (Number(cache, "entries") > Number(cache, "capacity")) {
             return Fail("cache entries exceed the capacity");
           }
           return Status::Ok();
         }}});
    return kinds;
  }();
  return table;
}

Result<const LintKind*> FindKind(std::string_view kind) {
  for (const LintKind& row : Table()) {
    if (kind == row.kind) {
      return &row;
    }
  }
  std::vector<std::string> names;
  for (const LintKind& row : Table()) {
    names.push_back(row.kind);
  }
  return Error(ErrorCode::kInvalidArgument, "unknown lint kind " + std::string(kind) +
                                                " (valid kinds: " + JoinStrings(names, "|") + ")");
}

Status CheckRow(const LintKind& row, const JsonValue& doc, const LintOptions& options) {
  if (row.schema != nullptr) {
    const JsonValue* schema = doc.Find("schema");
    if (schema == nullptr || schema->kind != Kind::kString || schema->string != row.schema) {
      return Fail(StrFormat("missing or wrong schema marker (want %s)", row.schema));
    }
  }
  DEPSURF_RETURN_IF_ERROR(CheckValue(doc, row.root, nullptr));
  for (Invariant invariant : row.invariants) {
    DEPSURF_RETURN_IF_ERROR(invariant(doc, options));
  }
  return Status::Ok();
}

}  // namespace

Status CheckDocument(std::string_view kind, const JsonValue& doc, const LintOptions& options) {
  auto row = FindKind(kind);
  return row.ok() ? CheckRow(**row, doc, options) : Status(row.TakeError());
}

Status LintDocument(std::string_view kind, std::string_view text, const LintOptions& options,
                    LintOutcome* outcome) {
  auto found = FindKind(kind);
  if (!found.ok()) {
    return found.TakeError();
  }
  const LintKind* row = *found;
  size_t count = 0;
  std::vector<std::string> notes;
  if (row->ndjson) {
    DEPSURF_RETURN_IF_ERROR(ForEachJsonLine(text, [&](const JsonValue& doc) {
      ++count;
      return CheckRow(*row, doc, options);
    }));
    if (count == 0) {
      return Fail(StrFormat("%s store holds no records", row->kind));
    }
  } else {
    auto doc = ParseJson(text);
    if (!doc.ok()) {
      return doc.TakeError();
    }
    DEPSURF_RETURN_IF_ERROR(CheckRow(*row, *doc, options));
    count = row->count != nullptr ? row->count(*doc) : 0;
    if (row->notes) {
      notes = RunReportLintNotes(*doc);
    }
  }
  if (outcome != nullptr) {
    outcome->summary = row->schema != nullptr ? row->schema : "trace_event JSON";
    if (row->counted != nullptr) {
      outcome->summary += StrFormat(" (%zu %s)", count, row->counted);
    }
    outcome->notes = std::move(notes);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace depsurf
