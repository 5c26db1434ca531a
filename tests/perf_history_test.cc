// The cross-run perf history store and its trend analytics: NDJSON
// round-trips, robust baselines with change-point flags, host-fingerprint
// comparability, adaptive floors feeding the perf gate, and — the
// acceptance bar shared with the parallel-build suite — masked history
// records that are byte-identical across --jobs settings.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/obs/perf_gate.h"
#include "src/obs/perf_history.h"
#include "src/obs/profile.h"
#include "src/obs/schema.h"
#include "src/study/study.h"

namespace depsurf {
namespace {

obs::HostFingerprint TestHost() {
  obs::HostFingerprint host;
  host.cpu_model = "test-cpu";
  host.cores = 8;
  host.page_size = 4096;
  return host;
}

obs::HistoryRecord MakeRecord(const std::string& label, double extract_seconds) {
  obs::HistoryRecord record;
  record.label = label;
  record.recorded_unix_ms = 1754700000000;
  record.host = TestHost();
  obs::AddStageTimings(record, {{"extract", extract_seconds, 17}});
  return record;
}

std::string MakeHistoryPath() {
  char tmpl[] = "/tmp/depsurf_history_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return std::string(dir != nullptr ? dir : ".") + "/history.ndjson";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(PerfHistoryTest, RecordJsonIsOneLineAndRoundTrips) {
  obs::HistoryRecord record = MakeRecord("pr-123", 1.5);
  obs::AddStageTimings(record, {{"analyze", 0.25, 53}});
  record.profile.present = true;
  record.profile.span_nodes = 40;
  record.profile.wall_ns = 2000;
  record.profile.serial_self_ns = 1500;
  record.profile.serial_share_pct = 75.0;
  record.profile.critical_path.push_back({"build.dataset", 2000, 500});

  std::string line = obs::HistoryRecordJson(record);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "interior newline breaks NDJSON";

  auto parsed = obs::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  auto back = obs::ParseHistoryRecord(*parsed);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back->label, "pr-123");
  EXPECT_EQ(back->recorded_unix_ms, 1754700000000);
  EXPECT_EQ(back->host.Id(), "test-cpu/8/4096");
  ASSERT_EQ(back->stages.size(), 2u);
  EXPECT_EQ(back->stages[0].name, "analyze");  // sorted by name
  EXPECT_EQ(back->stages[1].name, "extract");
  EXPECT_DOUBLE_EQ(back->stages[1].wall_seconds, 1.5);
  EXPECT_EQ(back->stages[1].items, 17u);
  ASSERT_TRUE(back->profile.present);
  EXPECT_EQ(back->profile.span_nodes, 40u);
  EXPECT_EQ(back->profile.wall_ns, 2000u);
  ASSERT_EQ(back->profile.critical_path.size(), 1u);
  EXPECT_EQ(back->profile.critical_path[0].name, "build.dataset");

  // A record without a profile serializes "profile":null and parses back
  // as absent.
  obs::HistoryRecord bare = MakeRecord("bare", 1.0);
  std::string bare_line = obs::HistoryRecordJson(bare);
  EXPECT_NE(bare_line.find("\"profile\":null"), std::string::npos);
  auto bare_back = obs::ParseHistoryRecord(*obs::ParseJson(bare_line));
  ASSERT_TRUE(bare_back.ok());
  EXPECT_FALSE(bare_back->profile.present);
}

TEST(PerfHistoryTest, AddStageTimingsMergesDuplicatesAndSorts) {
  obs::HistoryRecord record;
  obs::AddStageTimings(record, {{"b", 1.0, 2}, {"a", 0.5, 1}, {"b", 2.0, 3}});
  ASSERT_EQ(record.stages.size(), 2u);
  EXPECT_EQ(record.stages[0].name, "a");
  EXPECT_EQ(record.stages[1].name, "b");
  EXPECT_DOUBLE_EQ(record.stages[1].wall_seconds, 3.0);
  EXPECT_EQ(record.stages[1].items, 5u);
}

TEST(PerfHistoryTest, AppendAndValidateNdjsonStore) {
  const std::string path = MakeHistoryPath();
  ASSERT_TRUE(obs::AppendHistoryRecord(path, MakeRecord("base", 1.0)).ok());
  ASSERT_TRUE(obs::AppendHistoryRecord(path, MakeRecord("head", 1.1)).ok());
  const std::string text = ReadFileOrEmpty(path);

  obs::LintOutcome outcome;
  ASSERT_TRUE(obs::LintDocument("history", text, {}, &outcome).ok());
  EXPECT_EQ(outcome.summary, std::string(obs::kPerfHistorySchema) + " (2 records)");
  auto records = obs::ParseHistoryNdjson(text);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].label, "base");  // store order is append order
  EXPECT_EQ((*records)[1].label, "head");

  // An empty store is invalid, and a malformed line is named by number.
  EXPECT_FALSE(obs::LintDocument("history", "").ok());
  Status bad = obs::LintDocument("history", text + "{\"schema\":\"nope\"}\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message().find("line 3"), std::string::npos)
      << bad.error().message();
}

TEST(PerfHistoryTest, TrendFlagsChangePointsAndFiltersByHost) {
  std::vector<obs::HistoryRecord> records;
  for (double seconds : {1.0, 1.01, 0.99, 1.02, 1.0}) {
    records.push_back(MakeRecord("run", seconds));
  }
  // A record from different hardware never pollutes the baseline.
  obs::HistoryRecord alien = MakeRecord("alien", 50.0);
  alien.host.cores = 2;
  records.push_back(alien);

  obs::TrendReport stable = obs::AnalyzeTrend(records, TestHost());
  EXPECT_EQ(stable.records, 6u);
  EXPECT_EQ(stable.comparable, 5u);
  ASSERT_EQ(stable.stages.size(), 1u);
  EXPECT_EQ(stable.stages[0].name, "extract");
  EXPECT_EQ(stable.stages[0].samples, 5u);
  EXPECT_FALSE(stable.stages[0].change_point);
  EXPECT_GE(stable.stages[0].floor_seconds, 0.005);  // never below the backstop

  // A 3x latest sample against that baseline is a change point.
  records.push_back(MakeRecord("run", 3.0));
  obs::TrendReport spiked = obs::AnalyzeTrend(records, TestHost());
  ASSERT_EQ(spiked.stages.size(), 1u);
  EXPECT_TRUE(spiked.stages[0].change_point);
  EXPECT_GT(spiked.stages[0].deviation_sigmas, 4.0);

  // The window bounds how far back the baseline looks.
  obs::TrendOptions narrow;
  narrow.window = 2;
  obs::TrendReport windowed = obs::AnalyzeTrend(records, TestHost(), narrow);
  EXPECT_EQ(windowed.window, 2u);
  EXPECT_EQ(windowed.stages[0].samples, 2u);
}

TEST(PerfHistoryTest, AdaptiveFloorsCoverBackToBackRuns) {
  // Two runs of the same build 30% apart: the learned floor must cover
  // that spread, so `perf compare --history` passes where the hardcoded
  // 15% gate would trip.
  std::vector<obs::HistoryRecord> records = {MakeRecord("base", 1.0),
                                             MakeRecord("head", 1.3)};
  obs::TrendReport report = obs::AnalyzeTrend(records, TestHost());
  std::map<std::string, double> floors = obs::AdaptiveStageFloors(report);
  ASSERT_EQ(floors.count("extract"), 1u);
  EXPECT_GE(floors["extract"], 0.3);

  obs::PerfGateOptions options;
  options.stage_delta_floors_seconds = floors;
  obs::PerfComparison cmp = obs::ComparePerf({{"extract", 1.0, 17}},
                                             {{"extract", 1.3, 17}}, options);
  EXPECT_FALSE(cmp.gate_failed());
  ASSERT_EQ(cmp.stages.size(), 1u);
  EXPECT_EQ(cmp.stages[0].cls, obs::StageClass::kFlat);
}

TEST(PerfHistoryTest, TrendReportJsonValidatesAndTextSummarizes) {
  std::vector<obs::HistoryRecord> records = {MakeRecord("a", 1.0), MakeRecord("b", 1.1)};
  obs::TrendReport report = obs::AnalyzeTrend(records, TestHost());

  std::string json = obs::TrendReportJson(report);
  EXPECT_TRUE(obs::LintDocument("trend", json).ok()) << json;
  // Negative deviations are legal; a wrong schema marker is not.
  std::string tampered = json;
  tampered.replace(tampered.find("perf_trend"), 10, "perf_wrong");
  EXPECT_FALSE(obs::LintDocument("trend", tampered).ok());

  std::string text = obs::TrendReportText(report);
  EXPECT_NE(text.find("comparable"), std::string::npos) << text;
  EXPECT_NE(text.find("extract"), std::string::npos) << text;
}

// History records built from real report-mode corpus builds: everything
// timing-derived (wall_seconds, recorded_unix_ms, serial_share_pct, the
// critical_path summary) masks away, so records from jobs=1 and jobs=8
// builds — stamped at different times — are byte-identical after masking.
TEST(PerfHistoryTest, MaskedRecordIsIdenticalAcrossJobs) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus;
  for (KernelVersion version : kLtsVersions) {
    corpus.push_back(MakeBuild(version));
  }

  std::vector<std::string> masked;
  int64_t fake_clock = 111;
  for (int jobs : {1, 8}) {
    char tmpl[] = "/tmp/depsurf_history_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    BuildPolicy policy;
    policy.jobs = jobs;
    Study::DatasetReportFiles files;
    auto dataset = study.BuildDatasetWithReports(corpus, dir, &files, {}, policy);
    ASSERT_TRUE(dataset.ok()) << dataset.error().ToString();

    const std::string aggregate = ReadFileOrEmpty(files.aggregate);
    auto doc = obs::ParseJson(aggregate);
    ASSERT_TRUE(doc.ok());
    auto timings = obs::LoadStageTimings(*doc);
    ASSERT_TRUE(timings.ok()) << timings.error().ToString();
    auto profile = obs::ProfileFromReportJson(aggregate);
    ASSERT_TRUE(profile.ok()) << profile.error().ToString();

    obs::HistoryRecord record;
    record.label = "ci";
    record.recorded_unix_ms = fake_clock;  // different stamp per side
    fake_clock += 111;
    record.host = TestHost();
    obs::AddStageTimings(record, *timings);
    obs::SetProfileSummary(record, *profile);

    auto line = obs::ParseJson(obs::HistoryRecordJson(record));
    ASSERT_TRUE(line.ok());
    masked.push_back(obs::CanonicalMaskedJson(*line));
  }
  ASSERT_EQ(masked.size(), 2u);
  EXPECT_FALSE(masked[0].empty());
  EXPECT_EQ(masked[0], masked[1]);
}

}  // namespace
}  // namespace depsurf
