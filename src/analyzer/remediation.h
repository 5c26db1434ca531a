// Remediation planning: turning analyzer findings into verified patches.
//
// For every finding the planner attaches a machine-readable record: either
// a concrete guard insertion (where, which register, which relocation it
// protects) or "not fixable" with the reason. Only unguarded-reloc findings
// are patchable — the fix is the builder's own `field_exists` guard shape,
// placed so the inserted check dominates the access (the dominator-tree
// property the analyzer itself verifies on re-analysis). Scratch registers
// come from the liveness pass: the guard clobbers one register, so it must
// be dead at the insertion point.
//
// The pipeline is self-verifying: apply the plan's insertions with
// InsertFieldExistsGuards, re-run AnalyzeObject on the result, and
// VerifyRemediation checks that every targeted finding is gone and nothing
// new appeared.
#ifndef DEPSURF_SRC_ANALYZER_REMEDIATION_H_
#define DEPSURF_SRC_ANALYZER_REMEDIATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/bpf/bpf_object.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/obs/schema.h"

namespace depsurf {

using obs::kRemediationSchema;

// One per finding (parallel to ObjectAnalysis::findings).
struct Remediation {
  bool fixable = false;
  // When not fixable: why ("no dead register at the insertion point", ...).
  std::string reason;
  // When fixable: the guard insertion.
  uint32_t prog_index = 0;
  uint32_t insn_off = 0;  // byte offset of the access the guard protects
  int scratch_reg = -1;
  int32_t reloc_index = -1;  // relocation the guard covers
  std::string struct_name;
  std::string field_name;
  std::string guard;  // rendered guard shape, e.g. "r0 = field_exists(...)..."

  // One-line remediation text for reports and depsurf.analysis.v1
  // ("insert field_exists(...) guard before insn_off 16 (scratch r0)" or
  // "not fixable: <reason>").
  std::string Text() const;
};

struct RemediationPlan {
  std::vector<Remediation> items;  // items[i] remediates findings[i]

  size_t FixableCount() const;
  // The guard insertions for every fixable item, ready for
  // InsertFieldExistsGuards.
  std::vector<GuardInsertion> Insertions() const;
};

// Plans remediations for `analysis` (produced by AnalyzeObject over
// `object` with the same options). Never re-runs the analyzer.
RemediationPlan PlanRemediation(const BpfObject& object,
                                const ObjectAnalysis& analysis,
                                const AnalyzeOptions& opts = {});

// Outcome of re-analyzing the patched object.
struct RemediationVerification {
  size_t findings_before = 0;
  size_t targeted = 0;            // findings the plan claimed to fix
  size_t findings_after = 0;
  size_t targeted_remaining = 0;  // targeted findings still present after
  size_t new_findings = 0;        // findings the rewrite introduced
  bool ok = false;                // targeted_remaining == 0 && new_findings == 0
};

// Compares findings before/after the rewrite. Findings are matched by
// (kind, program, detail) — detail strings are stable across the slot
// shifts the rewrite introduces, byte offsets are not.
RemediationVerification VerifyRemediation(const ObjectAnalysis& before,
                                          const RemediationPlan& plan,
                                          const ObjectAnalysis& after);

// Deterministic depsurf.remediation.v1 JSON document. `verification` may be
// null (planning-only document).
std::string RemediationToJson(const ObjectAnalysis& analysis,
                              const RemediationPlan& plan,
                              const RemediationVerification* verification);

}  // namespace depsurf

#endif  // DEPSURF_SRC_ANALYZER_REMEDIATION_H_
