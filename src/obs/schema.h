// The JSON schemas of every self-report, declared once. Each `metrics lint`
// kind is one row of a table in schema.cc: its schema marker, the nested
// shape of its members (types, non-empty, non-negative, enums, optional and
// nullable members, tagged variants, a self-referencing span tree), and a
// few invariants over the parsed document for the cross-field rules. One
// walker checks a document against its row; every error names the JSON path
// it found wrong ("relocs[3].consequence is not a string",
// "missing \"summary\" object").
//
// Serializers stay hand-written in their layers; the markers of the layers
// above obs (analyzer, remediation, fuzz, serve) are defined here so the
// table and the writers share one constant.
#ifndef DEPSURF_SRC_OBS_SCHEMA_H_
#define DEPSURF_SRC_OBS_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

inline constexpr char kAnalysisSchema[] = "depsurf.analysis.v1";
inline constexpr char kRemediationSchema[] = "depsurf.remediation.v1";
inline constexpr char kFuzzCampaignSchema[] = "depsurf.fuzz_campaign.v1";
inline constexpr char kServeReportSchema[] = "depsurf.serve_report.v1";

// The per-kind arguments of `metrics lint`; kinds that do not use one
// ignore it.
struct LintOptions {
  size_t min_distinct_spans = 0;                    // report: --min-spans
  std::vector<std::string> required_counters = {};  // report: --require
  int64_t expect_events = -1;                       // trace: span nodes of --report
};

// What a valid document reports on the `metrics lint` success line.
struct LintOutcome {
  // After "valid ": the schema, plus a count for report ("(12 distinct
  // spans)"), trace ("(40 events)") and history ("(3 records)").
  std::string summary;
  std::vector<std::string> notes;  // RunReportLintNotes, for report and agg
};

// Parses `text` and checks it against the row of `kind` ("report",
// "analysis", ...). The history kind is NDJSON: every line is one record.
// An unknown kind fails with the list of valid kinds.
Status LintDocument(std::string_view kind, std::string_view text,
                    const LintOptions& options = {}, LintOutcome* outcome = nullptr);

// Checks an already parsed document against the row of `kind`.
Status CheckDocument(std::string_view kind, const JsonValue& doc,
                     const LintOptions& options = {});

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_SCHEMA_H_
