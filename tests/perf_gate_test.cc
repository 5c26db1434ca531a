// Edge-case coverage for the perf gate comparison itself (ComparePerf was
// previously exercised only end-to-end through bench/perf_gate.sh):
// one-sided stages, zero-duration stages, exact noise-floor and threshold
// boundaries, and the adaptive per-stage delta floors fed from run history.
#include <gtest/gtest.h>

#include "src/obs/json_lint.h"
#include "src/obs/perf_gate.h"
#include "src/obs/schema.h"

namespace depsurf {
namespace {

obs::StageTiming Stage(const char* name, double seconds) {
  return obs::StageTiming{name, seconds, 1};
}

TEST(PerfGateEdgeTest, OneSidedStagesNeverTripTheGate) {
  // A stage present only in base is "removed", only in head is "added" —
  // neither counts as a regression (or an improvement).
  std::vector<obs::StageTiming> base = {Stage("only_base", 2.0), Stage("both", 1.0)};
  std::vector<obs::StageTiming> head = {Stage("both", 1.0), Stage("only_head", 9.0)};
  obs::PerfComparison cmp = obs::ComparePerf(base, head);
  ASSERT_EQ(cmp.stages.size(), 3u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRemoved);
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kFlat);
  EXPECT_EQ(cmp.stages[2].cls, obs::StageClass::kAdded);
  EXPECT_EQ(cmp.regressed, 0u);
  EXPECT_EQ(cmp.improved, 0u);
  EXPECT_FALSE(cmp.gate_failed());
  // Removed rows keep their base time, added rows their head time.
  EXPECT_DOUBLE_EQ(cmp.stages[0].base_seconds, 2.0);
  EXPECT_DOUBLE_EQ(cmp.stages[0].head_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cmp.stages[2].head_seconds, 9.0);
  EXPECT_DOUBLE_EQ(cmp.stages[2].delta_pct, 0.0);
}

TEST(PerfGateEdgeTest, ZeroDurationStages) {
  // base 0 -> head above the floor: a real regression (delta_pct pinned to
  // 0 because the ratio is undefined). base above the floor -> head 0: an
  // improvement. 0 -> 0: flat (both under the floor).
  std::vector<obs::StageTiming> base = {Stage("grew", 0.0), Stage("shrank", 1.0),
                                        Stage("still", 0.0)};
  std::vector<obs::StageTiming> head = {Stage("grew", 0.1), Stage("shrank", 0.0),
                                        Stage("still", 0.0)};
  obs::PerfComparison cmp = obs::ComparePerf(base, head);
  ASSERT_EQ(cmp.stages.size(), 3u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRegressed);
  EXPECT_DOUBLE_EQ(cmp.stages[0].delta_pct, 0.0);
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kImproved);
  EXPECT_DOUBLE_EQ(cmp.stages[1].delta_pct, -100.0);
  EXPECT_EQ(cmp.stages[2].cls, obs::StageClass::kFlat);
  EXPECT_TRUE(cmp.gate_failed());
}

TEST(PerfGateEdgeTest, ExactNoiseFloorBoundary) {
  obs::PerfGateOptions options;  // floor 0.005
  // The floor test is strict (<): a stage sitting exactly on the floor is
  // judged by ratio, one epsilon under it is not.
  std::vector<obs::StageTiming> base = {Stage("at_floor", 0.005), Stage("under", 0.004)};
  std::vector<obs::StageTiming> head = {Stage("at_floor", 0.010), Stage("under", 0.0049)};
  obs::PerfComparison cmp = obs::ComparePerf(base, head, options);
  ASSERT_EQ(cmp.stages.size(), 2u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kRegressed);  // +100%, on the floor
  EXPECT_EQ(cmp.stages[1].cls, obs::StageClass::kFlat);       // +22.5%, sub-floor
  // One side on/above the floor is enough to judge by ratio.
  std::vector<obs::StageTiming> base2 = {Stage("spike", 0.001)};
  std::vector<obs::StageTiming> head2 = {Stage("spike", 0.006)};
  EXPECT_TRUE(obs::ComparePerf(base2, head2, options).gate_failed());
}

TEST(PerfGateEdgeTest, ExactRegressThresholdBoundary) {
  obs::PerfGateOptions options;
  options.max_regress = 0.15;
  // head == base * 1.15 exactly: strict >, so not a regression.
  std::vector<obs::StageTiming> base = {Stage("s", 1.0)};
  EXPECT_FALSE(obs::ComparePerf(base, {Stage("s", 1.0 * 1.15)}, options).gate_failed());
  EXPECT_TRUE(obs::ComparePerf(base, {Stage("s", 1.16)}, options).gate_failed());
  // Symmetric on the improvement side.
  obs::PerfComparison at = obs::ComparePerf({Stage("s", 1.0 * 1.15)}, base, options);
  EXPECT_EQ(at.improved, 0u);
  obs::PerfComparison past = obs::ComparePerf({Stage("s", 1.16)}, base, options);
  EXPECT_EQ(past.improved, 1u);
}

TEST(PerfGateEdgeTest, AdaptiveDeltaFloorCoversNoisyStage) {
  obs::PerfGateOptions options;
  options.stage_delta_floors_seconds["noisy"] = 0.5;
  // +40% would trip the 15% gate, but the delta (0.4 s) is inside the
  // stage's learned noise floor, so it is flat — and the applied floor is
  // recorded on the row.
  obs::PerfComparison flat =
      obs::ComparePerf({Stage("noisy", 1.0)}, {Stage("noisy", 1.4)}, options);
  ASSERT_EQ(flat.stages.size(), 1u);
  EXPECT_EQ(flat.stages[0].cls, obs::StageClass::kFlat);
  EXPECT_DOUBLE_EQ(flat.stages[0].floor_seconds, 0.5);
  // The floor is a delta bound, not a blanket pass: a move beyond it still
  // regresses (and symmetric deltas inside it stay flat either way).
  obs::PerfComparison beyond =
      obs::ComparePerf({Stage("noisy", 1.0)}, {Stage("noisy", 1.6)}, options);
  EXPECT_TRUE(beyond.gate_failed());
  obs::PerfComparison down =
      obs::ComparePerf({Stage("noisy", 1.4)}, {Stage("noisy", 1.0)}, options);
  EXPECT_EQ(down.improved, 0u);
  // Stages without a learned floor keep the plain ratio rules.
  obs::PerfComparison other =
      obs::ComparePerf({Stage("other", 1.0)}, {Stage("other", 1.4)}, options);
  EXPECT_TRUE(other.gate_failed());
  EXPECT_DOUBLE_EQ(other.stages[0].floor_seconds, 0.0);
}

TEST(PerfGateEdgeTest, JsonCarriesFloorAndStillLints) {
  obs::PerfGateOptions options;
  options.stage_delta_floors_seconds["s"] = 0.25;
  obs::PerfComparison cmp =
      obs::ComparePerf({Stage("s", 1.0)}, {Stage("s", 1.2)}, options);
  std::string json = obs::PerfComparisonJson(cmp, options);
  EXPECT_NE(json.find("\"floor_seconds\": 0.250000"), std::string::npos) << json;
  EXPECT_TRUE(obs::LintDocument("perf", json).ok()) << json;
}

}  // namespace
}  // namespace depsurf
