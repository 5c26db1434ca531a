// Differential profile attribution: DiffProfiles over hand-built span
// forests (delta columns, mover ranking, one-sided names), the
// depsurf.profile_diff.v1 document round-trip through the linter,
// ParseProfileDoc as the inverse of ProfileJson, and the acceptance bar
// that masked diffs of real corpus builds are byte-identical across
// --jobs settings.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_lint.h"
#include "src/obs/profile.h"
#include "src/obs/profile_diff.h"
#include "src/obs/schema.h"
#include "src/study/study.h"

namespace depsurf {
namespace {

obs::SpanNode Span(const char* name, uint64_t dur_ns, uint64_t cpu_ns,
                   uint64_t alloc_count = 0, uint64_t alloc_bytes = 0) {
  obs::SpanNode span;
  span.name = name;
  span.dur_ns = dur_ns;
  span.cpu_ns = cpu_ns;
  span.alloc_count = alloc_count;
  span.alloc_bytes = alloc_bytes;
  return span;
}

// base: build(1000) -> { extract(600), diff(200) }; head: extract slowed
// to 800 under the same root, diff gone, a new stage "analyze" appeared.
obs::Profile BaseProfile() {
  obs::SpanNode root = Span("build", 1000, 900, 4, 256);
  root.children.push_back(Span("extract", 600, 550, 2, 128));
  root.children.push_back(Span("diff", 200, 180));
  return obs::BuildProfile({root});
}

obs::Profile HeadProfile() {
  obs::SpanNode root = Span("build", 1300, 1100, 4, 256);
  root.children.push_back(Span("extract", 800, 700, 2, 128));
  root.children.push_back(Span("analyze", 300, 250, 1, 64));
  return obs::BuildProfile({root});
}

const obs::ProfileDiffRow* FindRow(const obs::ProfileDiff& diff, const std::string& name) {
  for (const obs::ProfileDiffRow& row : diff.names) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

TEST(ProfileDiffTest, DiffsHandBuiltForests) {
  obs::ProfileDiff diff = obs::DiffProfiles(BaseProfile(), HeadProfile());
  EXPECT_EQ(diff.base_span_nodes, 3u);
  EXPECT_EQ(diff.head_span_nodes, 3u);
  // Sorted union of both name tables.
  ASSERT_EQ(diff.names.size(), 4u);
  EXPECT_EQ(diff.names[0].name, "analyze");
  EXPECT_EQ(diff.names[1].name, "build");
  EXPECT_EQ(diff.names[2].name, "diff");
  EXPECT_EQ(diff.names[3].name, "extract");

  const obs::ProfileDiffRow* extract = FindRow(diff, "extract");
  ASSERT_NE(extract, nullptr);
  EXPECT_TRUE(extract->in_base);
  EXPECT_TRUE(extract->in_head);
  EXPECT_EQ(extract->self_delta_ns, 200);  // 600 -> 800, leaf so self == dur
  EXPECT_EQ(extract->cpu_delta_ns, 150);
  EXPECT_EQ(extract->alloc_count_delta, 0);

  // One-sided rows zero the absent side and carry signed full-value deltas.
  const obs::ProfileDiffRow* removed = FindRow(diff, "diff");
  ASSERT_NE(removed, nullptr);
  EXPECT_TRUE(removed->in_base);
  EXPECT_FALSE(removed->in_head);
  EXPECT_EQ(removed->self_delta_ns, -200);
  const obs::ProfileDiffRow* added = FindRow(diff, "analyze");
  ASSERT_NE(added, nullptr);
  EXPECT_FALSE(added->in_base);
  EXPECT_TRUE(added->in_head);
  EXPECT_EQ(added->self_delta_ns, 300);

  // build's self time: base 1000 - 800 children = 200; head 1300 - 1100 =
  // 200, so it moved nowhere and is excluded from the movers.
  const obs::ProfileDiffRow* build = FindRow(diff, "build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->self_delta_ns, 0);

  // Movers ranked by |self delta| descending: analyze(300), then the
  // 200-tie broken by name (diff < extract).
  ASSERT_EQ(diff.top_movers.size(), 3u);
  EXPECT_EQ(diff.names[diff.top_movers[0]].name, "analyze");
  EXPECT_EQ(diff.names[diff.top_movers[1]].name, "diff");
  EXPECT_EQ(diff.names[diff.top_movers[2]].name, "extract");

  // top_n caps the list after ranking.
  obs::ProfileDiff capped = obs::DiffProfiles(BaseProfile(), HeadProfile(), 1);
  ASSERT_EQ(capped.top_movers.size(), 1u);
  EXPECT_EQ(capped.names[capped.top_movers[0]].name, "analyze");

  // Critical-path headline deltas.
  EXPECT_EQ(diff.base_wall_ns, 1000u);
  EXPECT_EQ(diff.head_wall_ns, 1300u);
  EXPECT_EQ(diff.wall_delta_ns(), 300);
  EXPECT_FALSE(diff.base_path.empty());
  EXPECT_FALSE(diff.head_path.empty());
}

TEST(ProfileDiffTest, JsonValidatesAndTamperIsRejected) {
  obs::ProfileDiff diff = obs::DiffProfiles(BaseProfile(), HeadProfile());
  std::string json = obs::ProfileDiffJson(diff);
  EXPECT_TRUE(obs::LintDocument("profile_diff", json).ok()) << json;

  // Wrong schema marker.
  std::string wrong = json;
  wrong.replace(wrong.find("profile_diff.v1"), 15, "profile_nope.v1");
  EXPECT_FALSE(obs::LintDocument("profile_diff", wrong).ok());
  // A base column must not be negative (deltas may be).
  std::string negative = json;
  const std::string needle = "\"base\": {\"count\": 1";
  size_t base_obj = negative.find(needle);
  ASSERT_NE(base_obj, std::string::npos);
  negative.replace(base_obj, needle.size(), "\"base\": {\"count\": -1");
  EXPECT_FALSE(obs::LintDocument("profile_diff", negative).ok());

  std::string text = obs::ProfileDiffText(diff);
  EXPECT_NE(text.find("critical path"), std::string::npos) << text;
  EXPECT_NE(text.find("analyze"), std::string::npos) << text;
}

TEST(ProfileDiffTest, ParseProfileDocInvertsProfileJson) {
  obs::Profile profile = HeadProfile();
  auto back = obs::ParseProfileDoc(obs::ProfileJson(profile));
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  EXPECT_EQ(back->span_nodes, profile.span_nodes);
  EXPECT_EQ(back->wall_ns, profile.wall_ns);
  EXPECT_EQ(back->serial_self_ns, profile.serial_self_ns);
  ASSERT_EQ(back->names.size(), profile.names.size());
  for (size_t i = 0; i < profile.names.size(); ++i) {
    EXPECT_EQ(back->names[i].name, profile.names[i].name);
    EXPECT_EQ(back->names[i].count, profile.names[i].count);
    EXPECT_EQ(back->names[i].self_ns, profile.names[i].self_ns);
    EXPECT_EQ(back->names[i].alloc_bytes, profile.names[i].alloc_bytes);
  }
  ASSERT_EQ(back->critical_path.size(), profile.critical_path.size());
  for (size_t i = 0; i < profile.critical_path.size(); ++i) {
    EXPECT_EQ(back->critical_path[i].name, profile.critical_path[i].name);
    EXPECT_EQ(back->critical_path[i].dur_ns, profile.critical_path[i].dur_ns);
  }
  // Diffing a profile against its own round-trip is all zeros.
  obs::ProfileDiff self_diff = obs::DiffProfiles(profile, *back);
  EXPECT_TRUE(self_diff.top_movers.empty());
  EXPECT_EQ(self_diff.wall_delta_ns(), 0);

  // Non-profile documents are rejected up front.
  EXPECT_FALSE(obs::ParseProfileDoc("{\"schema\": \"depsurf.bench_report.v1\"}").ok());
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Two report-mode corpus builds per --jobs width; the masked diff document
// (timing columns zeroed, top_movers and critical_path masked wholesale)
// must not depend on the window width that produced either side.
TEST(ProfileDiffTest, MaskedDiffIsIdenticalAcrossJobs) {
  Study study(StudyOptions{2025, 0.005});
  std::vector<BuildSpec> corpus;
  for (KernelVersion version : kLtsVersions) {
    corpus.push_back(MakeBuild(version));
  }

  auto build_profile = [&](int jobs) {
    char tmpl[] = "/tmp/depsurf_profile_diff_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    BuildPolicy policy;
    policy.jobs = jobs;
    Study::DatasetReportFiles files;
    auto dataset = study.BuildDatasetWithReports(corpus, dir, &files, {}, policy);
    EXPECT_TRUE(dataset.ok());
    auto profile = obs::ProfileFromReportJson(ReadFileOrEmpty(files.aggregate));
    EXPECT_TRUE(profile.ok());
    return profile.ok() ? *profile : obs::Profile{};
  };

  std::vector<std::string> masked;
  for (int jobs : {1, 8}) {
    obs::Profile base = build_profile(jobs);
    obs::Profile head = build_profile(jobs);
    std::string json = obs::ProfileDiffJson(obs::DiffProfiles(base, head));
    ASSERT_TRUE(obs::LintDocument("profile_diff", json).ok());
    auto parsed = obs::ParseJson(json);
    ASSERT_TRUE(parsed.ok());
    masked.push_back(obs::CanonicalMaskedJson(*parsed));
  }
  ASSERT_EQ(masked.size(), 2u);
  EXPECT_FALSE(masked[0].empty());
  EXPECT_EQ(masked[0], masked[1]);
}

}  // namespace
}  // namespace depsurf
