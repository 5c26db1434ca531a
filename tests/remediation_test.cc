// Remediation-engine tests: planning (guard synthesis, refusal reasons),
// the instruction-stream rewriter round-trip, the self-verification loop,
// byte-determinism over the 53-program corpus, the nested-guard and
// side-entry dominator regressions, and the depsurf.remediation.v1 golden
// the CLI contract is locked to.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analyzer/analyzer.h"
#include "src/analyzer/remediation.h"
#include "src/bpf/bpf_builder.h"
#include "src/bpf/bpf_insn.h"
#include "src/bpf/bpf_object.h"
#include "src/bpf/bpf_rewriter.h"
#include "src/bpfgen/program_corpus.h"
#include "src/obs/json_lint.h"
#include "src/obs/schema.h"
#include "src/util/diagnostic_ledger.h"

namespace depsurf {
namespace {

BpfObject BuildUnguardedProbe() {
  BpfObjectBuilder builder("unguarded_probe");
  builder.AttachKprobe("blk_account_io_start");
  EXPECT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  return builder.Build();
}

// Applies `plan` to a copy of `object` and round-trips the result through
// the codec, exactly like `depsurf fix` does. Returns the re-parsed object.
BpfObject ApplyAndRoundTrip(const BpfObject& object, const RemediationPlan& plan,
                            std::vector<uint8_t>* bytes_out = nullptr) {
  BpfObject fixed = object;
  Status applied = InsertFieldExistsGuards(fixed, plan.Insertions());
  EXPECT_TRUE(applied.ok()) << applied.ToString();
  auto encoded = WriteBpfObject(fixed);
  EXPECT_TRUE(encoded.ok()) << encoded.error().ToString();
  if (bytes_out != nullptr) {
    *bytes_out = encoded.value();
  }
  auto reparsed = ParseBpfObject(encoded.TakeValue());
  EXPECT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  return reparsed.TakeValue();
}

// ---- Planning ------------------------------------------------------------

TEST(RemediationPlanTest, PlansGuardForUnguardedReloc) {
  BpfObject object = BuildUnguardedProbe();
  ObjectAnalysis analysis = AnalyzeObject(object);
  ASSERT_EQ(analysis.findings.size(), 1u);
  ASSERT_EQ(analysis.findings[0].kind, FindingKind::kUnguardedReloc);

  RemediationPlan plan = PlanRemediation(object, analysis);
  ASSERT_EQ(plan.items.size(), 1u);
  const Remediation& item = plan.items[0];
  EXPECT_TRUE(item.fixable);
  EXPECT_EQ(plan.FixableCount(), 1u);
  EXPECT_GE(item.scratch_reg, 0);
  EXPECT_LE(item.scratch_reg, 9);
  EXPECT_EQ(item.struct_name, "request");
  EXPECT_EQ(item.field_name, "rq_disk");
  EXPECT_EQ(item.reloc_index, 0);
  EXPECT_NE(item.guard.find("field_exists(request::rq_disk)"), std::string::npos);
  EXPECT_NE(item.Text().find("insert field_exists"), std::string::npos);
  // The finding carries the same text (AnalyzeObject annotates in place).
  EXPECT_EQ(analysis.findings[0].remediation, item.Text());
}

TEST(RemediationPlanTest, RawOffsetAndHelperAreRefusedWithReasons) {
  ObjectAnalysis raw = AnalyzeObject(BuildRawOffsetProbe());
  RemediationPlan raw_plan = PlanRemediation(BuildRawOffsetProbe(), raw);
  ASSERT_EQ(raw_plan.items.size(), 1u);
  EXPECT_FALSE(raw_plan.items[0].fixable);
  EXPECT_NE(raw_plan.items[0].reason.find("no CO-RE relocation"), std::string::npos);

  BpfObjectBuilder builder("mystery");
  builder.AttachKprobe("vfs_fsync");
  builder.CallHelper(9999);
  BpfObject object = builder.Build();
  ObjectAnalysis analysis = AnalyzeObject(object);
  RemediationPlan plan = PlanRemediation(object, analysis);
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_FALSE(plan.items[0].fixable);
  EXPECT_NE(plan.items[0].reason.find("helper availability"), std::string::npos);
}

// ---- Rewriter round-trip and self-verification ---------------------------

TEST(RemediationFixTest, FixEliminatesUnguardedRelocFinding) {
  BpfObject object = BuildUnguardedProbe();
  ObjectAnalysis before = AnalyzeObject(object);
  RemediationPlan plan = PlanRemediation(object, before);
  ASSERT_EQ(plan.FixableCount(), 1u);

  BpfObject fixed = ApplyAndRoundTrip(object, plan);
  ObjectAnalysis after = AnalyzeObject(fixed);
  EXPECT_TRUE(after.findings.empty())
      << "first remaining: " << (after.findings.empty()
                                     ? ""
                                     : after.findings[0].detail);

  RemediationVerification v = VerifyRemediation(before, plan, after);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.findings_before, 1u);
  EXPECT_EQ(v.targeted, 1u);
  EXPECT_EQ(v.findings_after, 0u);
  EXPECT_EQ(v.targeted_remaining, 0u);
  EXPECT_EQ(v.new_findings, 0u);

  // The inserted guard is a real field_exists relocation on the same field.
  ASSERT_EQ(fixed.relocs.size(), 2u);
  EXPECT_EQ(fixed.relocs[1].kind, CoreRelocKind::kFieldExists);
  EXPECT_EQ(fixed.relocs[1].access_str, fixed.relocs[0].access_str);
}

TEST(RemediationFixTest, RewriterRejectsBadInsertions) {
  BpfObject object = BuildUnguardedProbe();
  DiagnosticLedger ledger;
  GuardInsertion bad;
  bad.prog_index = 99;
  bad.insn_off = 0;
  bad.scratch_reg = 0;
  bad.reloc_index = 0;
  BpfObject copy = object;
  Status status = InsertFieldExistsGuards(copy, {bad}, &ledger);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ledger.entries().size(), 1u);
  // All-or-nothing: the object is untouched on failure.
  EXPECT_EQ(copy.programs[0].insns.size(), object.programs[0].insns.size());
  EXPECT_EQ(copy.relocs.size(), object.relocs.size());
}

// ---- Dominator regressions ----------------------------------------------

TEST(RemediationFixTest, NestedGuardsStayClean) {
  // guard(rq_disk) { guard(start_time_ns) { read both } } — the dominator
  // walk must see both accesses dominated by both exists-edges.
  BpfObjectBuilder builder("nested");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.BeginGuard("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.BeginGuard("request", "start_time_ns", "u64").ok());
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "start_time_ns", "u64").ok());
  ASSERT_TRUE(builder.EndGuard().ok());
  ASSERT_TRUE(builder.EndGuard().ok());
  ObjectAnalysis analysis = AnalyzeObject(builder.Build());
  EXPECT_TRUE(analysis.findings.empty())
      << (analysis.findings.empty() ? "" : analysis.findings[0].detail);
}

TEST(RemediationFixTest, SideEntryDefeatsGuardDominance) {
  // A hand-built stream where a jump enters the guarded region without
  // passing the guard: the path-insensitive exists-edge is NOT a dominator
  // (pred_edges == 2), so the access must stay unguarded-reloc.
  //
  //   slot 0: jeq r1,0,+3      -> slot 4 (the access, bypassing the guard)
  //   slot 1: ld_imm64 r3,1    (exists-guard result, CO-RE patched)
  //   slot 3: jeq r3,0,+1      -> slot 5 (exit) / fall through to the access
  //   slot 4: ldx r2,[r1+0]    (the guarded access)
  //   slot 5: exit
  BpfObjectBuilder builder("side_entry");
  builder.AttachKprobe("blk_account_io_start");
  ASSERT_TRUE(builder.CheckFieldExists("request", "rq_disk", "struct gendisk *").ok());
  ASSERT_TRUE(builder.AccessField("request", "rq_disk", "struct gendisk *").ok());
  BpfObject object = builder.Build();
  ASSERT_EQ(object.programs.size(), 1u);
  ASSERT_EQ(object.relocs.size(), 2u);
  object.programs[0].insns = {JumpEqImm(1, 0, 3), LoadImm64(3, 1),
                              JumpEqImm(3, 0, 1), LoadField(2, 1, 0), ExitInsn()};
  object.relocs[0].insn_off = 8;   // exists record on the ld_imm64 (slot 1)
  object.relocs[1].insn_off = 32;  // byte-offset record on the load (slot 4)

  ObjectAnalysis analysis = AnalyzeObject(object);
  ASSERT_EQ(analysis.relocs.size(), 2u);
  EXPECT_TRUE(analysis.relocs[1].unguarded)
      << "side entry must defeat guard dominance";
  bool found = false;
  for (const Finding& finding : analysis.findings) {
    if (finding.kind == FindingKind::kUnguardedReloc && finding.reloc_index == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // And the planner can still fix it: the synthesized guard is inserted
  // immediately before the access, where it dominates regardless of the
  // side entry (inbound jumps are routed through it).
  RemediationPlan plan = PlanRemediation(object, analysis);
  ASSERT_EQ(plan.items.size(), analysis.findings.size());
  size_t fixable = plan.FixableCount();
  if (fixable > 0) {
    BpfObject fixed = ApplyAndRoundTrip(object, plan);
    ObjectAnalysis after = AnalyzeObject(fixed);
    RemediationVerification v = VerifyRemediation(analysis, plan, after);
    EXPECT_TRUE(v.ok);
  }
}

// ---- Corpus sweep: determinism and completeness --------------------------

TEST(RemediationCorpusTest, FixIsByteDeterministicAndEliminatesFindings) {
  std::vector<BpfObject> objects = BuildProgramCorpus().objects;
  objects.push_back(BuildGuardedProbe());
  objects.push_back(BuildRawOffsetProbe());

  for (const BpfObject& object : objects) {
    ObjectAnalysis before = AnalyzeObject(object);
    RemediationPlan plan = PlanRemediation(object, before);
    ASSERT_EQ(plan.items.size(), before.findings.size()) << object.name;
    if (plan.FixableCount() == 0) {
      continue;
    }

    std::vector<uint8_t> bytes1, bytes2;
    BpfObject fixed = ApplyAndRoundTrip(object, plan, &bytes1);
    ApplyAndRoundTrip(object, plan, &bytes2);
    EXPECT_EQ(bytes1, bytes2) << object.name << ": fixed bytes not deterministic";

    ObjectAnalysis after = AnalyzeObject(fixed);
    RemediationVerification v = VerifyRemediation(before, plan, after);
    EXPECT_TRUE(v.ok) << object.name << ": " << v.targeted_remaining
                      << " targeted remaining, " << v.new_findings << " new";
    EXPECT_EQ(after.CountKind(FindingKind::kUnguardedReloc), 0u) << object.name;

    std::string json1 = RemediationToJson(before, plan, &v);
    RemediationPlan plan2 = PlanRemediation(object, before);
    std::string json2 = RemediationToJson(before, plan2, &v);
    EXPECT_EQ(json1, json2) << object.name << ": remediation JSON not deterministic";
  }
}

// ---- depsurf.remediation.v1 golden and lint ------------------------------

TEST(RemediationJsonTest, UnguardedProbeGolden) {
  BpfObject object = BuildUnguardedProbe();
  ObjectAnalysis analysis = AnalyzeObject(object);
  RemediationPlan plan = PlanRemediation(object, analysis);
  BpfObject fixed = ApplyAndRoundTrip(object, plan);
  ObjectAnalysis after = AnalyzeObject(fixed);
  RemediationVerification v = VerifyRemediation(analysis, plan, after);
  std::string json = RemediationToJson(analysis, plan, &v);
  const std::string expected =
      "{\n"
      "  \"schema\": \"depsurf.remediation.v1\",\n"
      "  \"object\": \"unguarded_probe\",\n"
      "  \"against\": null,\n"
      "  \"remediations\": [\n"
      "    {\"finding\": {\"kind\": \"unguarded-reloc\", "
      "\"program\": \"kprobe_blk_account_io_start\", \"insn_off\": 0, \"reloc\": 0, "
      "\"detail\": \"field reloc request::rq_disk not dominated by a "
      "field_exists check\"}, \"fixable\": true, \"insn_off\": 0, "
      "\"scratch_reg\": 2, \"struct\": \"request\", \"field\": \"rq_disk\", "
      "\"guard\": \"r2 = field_exists(request::rq_disk); if r2 == 0 goto +1\"}\n"
      "  ],\n"
      "  \"verification\": {\"findings_before\": 1, \"targeted\": 1, "
      "\"findings_after\": 0, \"targeted_remaining\": 0, \"new_findings\": 0, "
      "\"ok\": true},\n"
      "  \"summary\": {\"findings\": 1, \"fixable\": 1, \"unfixable\": 0}\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(RemediationJsonTest, LintAcceptsDocAndRejectsTamper) {
  BpfObject object = BuildUnguardedProbe();
  ObjectAnalysis analysis = AnalyzeObject(object);
  RemediationPlan plan = PlanRemediation(object, analysis);
  std::string json = RemediationToJson(analysis, plan, nullptr);
  EXPECT_TRUE(obs::LintDocument("remediation", json).ok())
      << obs::LintDocument("remediation", json).ToString();

  // Summary inconsistent with the array: rejected.
  std::string tampered = json;
  size_t pos = tampered.find("\"fixable\": 1");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, std::string("\"fixable\": 1").size(), "\"fixable\": 2");
  EXPECT_FALSE(obs::LintDocument("remediation", tampered).ok());

  // An analysis doc is not a remediation doc.
  EXPECT_FALSE(obs::LintDocument("remediation", AnalysisToJson(analysis)).ok());
}

}  // namespace
}  // namespace depsurf
