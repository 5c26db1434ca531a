// Minimal JSON parser without external dependencies: full
// object/array/string/number/bool/null grammar, parsed into a small DOM that
// preserves object key order. Documents are checked against their schemas
// by schema.h (`depsurf metrics lint`); this header also holds the run-report
// helpers and the masked canonical form behind the determinism checks.
#ifndef DEPSURF_SRC_OBS_JSON_LINT_H_
#define DEPSURF_SRC_OBS_JSON_LINT_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.h"

namespace depsurf {
namespace obs {

struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered (objects keep the order keys appear in the document).
  std::vector<std::pair<std::string, JsonValue>> object;

  // First member with the given key; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Containers nested deeper than this are rejected. The deepest documents
// the repo emits are span trees, a few dozen levels at most; the bound
// keeps the recursive parser (and every walker over its DOM) off the end
// of the stack on hostile input.
inline constexpr size_t kMaxJsonDepth = 256;

Result<JsonValue> ParseJson(std::string_view text);

// Calls `each` with every non-blank line of an NDJSON text, parsed; a parse
// error or a failed call stops the walk with the 1-based line number.
Status ForEachJsonLine(std::string_view text,
                       const std::function<Status(const JsonValue&)>& each);

// Non-fatal lint notes for a parsed run report or aggregate. Currently
// flags deprecated gauge names (renamed in later schema revisions but
// still valid in old documents) with their modern replacement. Returns
// one human-readable note per hit; empty means nothing to report.
std::vector<std::string> RunReportLintNotes(const JsonValue& report);

// Distinct span names in a parsed report (empty if not a report).
std::set<std::string> CollectSpanNames(const JsonValue& report);

// Total span nodes (roots + all descendants) under a report's "spans"
// section; 0 if not a report. A trace export of the same run must carry
// exactly this many events (see trace_export.h).
size_t CountReportSpanNodes(const JsonValue& report);

// Total order over parsed span objects ignoring timing fields — the
// JsonValue mirror of CompareSpanNodesMasked (span.h). Canonicalization and
// report merging both sort roots with it so multi-threaded finish order
// never leaks into deterministic output.
int CompareReportSpans(const JsonValue& a, const JsonValue& b);

// Re-emits a parsed JSON document in canonical compact form with timing
// fields masked ("dur_ns" members and members/attr keys with timing
// suffixes zeroed, timing histograms emptied). Run-report documents
// (run_report.v1 / run_report_agg.v1) additionally get their root spans
// sorted into the deterministic masked order, since multi-threaded runs
// collect roots in racy finish order. Two runs over identical inputs
// canonicalize to identical bytes.
std::string CanonicalMaskedJson(const JsonValue& value);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_JSON_LINT_H_
