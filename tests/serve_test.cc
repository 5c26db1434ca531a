// Dataset-as-a-service tests: batched NDJSON queries against v1 and v2
// datasets, response determinism across --jobs values, cache accounting,
// and the depsurf.serve_report.v1 contract.
#include "src/serve/serve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/bpf/bpf_object.h"
#include "src/bpfgen/program_corpus.h"
#include "src/core/dataset_io.h"
#include "src/core/depsurf.h"
#include "src/kernelgen/compiler.h"
#include "src/kernelgen/configurator.h"
#include "src/kernelgen/corpus.h"
#include "src/kernelgen/image_builder.h"
#include "src/obs/json_lint.h"
#include "src/obs/schema.h"

namespace depsurf {
namespace {

struct ServeFixture {
  std::string dir;
  std::string v1_path;
  std::string v2_path;
  std::string object_path;
};

const ServeFixture& Fixture() {
  static const ServeFixture fixture = [] {
    ServeFixture out;
    char tmpl[] = "/tmp/depsurf_serve_test_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    out.dir = dir != nullptr ? dir : ".";

    Dataset dataset;
    KernelModel model(2025, 0.01, BuildCuratedCatalog());
    for (KernelVersion version : {KernelVersion(5, 4), KernelVersion(6, 2)}) {
      auto kernel = model.Configure(MakeBuild(version));
      EXPECT_TRUE(kernel.ok());
      auto bytes = BuildKernelImage(CompileKernel(2025, kernel.TakeValue()));
      EXPECT_TRUE(bytes.ok());
      auto surface = DependencySurface::Extract(bytes.TakeValue());
      EXPECT_TRUE(surface.ok());
      dataset.AddImage(version.Tag(), *surface);
    }
    out.v1_path = out.dir + "/ds_v1.dds";
    out.v2_path = out.dir + "/ds_v2.dds";
    for (const auto& [path, bytes] :
         {std::pair<std::string, std::vector<uint8_t>>{out.v1_path, SaveDataset(dataset)},
          {out.v2_path, SaveDatasetV2(dataset)}}) {
      std::ofstream file(path, std::ios::binary);
      file.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }

    out.object_path = out.dir + "/biotop.o";
    for (const BpfObject& object : BuildProgramCorpus().objects) {
      if (object.name == "biotop") {
        auto object_bytes = WriteBpfObject(object);
        EXPECT_TRUE(object_bytes.ok());
        std::ofstream file(out.object_path, std::ios::binary);
        file.write(reinterpret_cast<const char*>(object_bytes->data()),
                   static_cast<std::streamsize>(object_bytes->size()));
      }
    }
    return out;
  }();
  return fixture;
}

std::vector<std::string> RequestBatch() {
  const std::string inline_query =
      "{\"id\": 1, \"program\": \"biotop\", \"funcs\": [\"vfs_read\"],"
      " \"fields\": {\"request\": {\"rq_disk\": {\"type\": \"struct gendisk *\","
      " \"guarded\": false}}}, \"tracepoints\": [\"block_rq_issue\"],"
      " \"syscalls\": [\"openat\"]}";
  return {
      inline_query,
      // Same dependency set, different id: in-batch duplicate, must share.
      "{\"id\": 2, \"program\": \"biotop\", \"funcs\": [\"vfs_read\"],"
      " \"fields\": {\"request\": {\"rq_disk\": {\"type\": \"struct gendisk *\","
      " \"guarded\": false}}}, \"tracepoints\": [\"block_rq_issue\"],"
      " \"syscalls\": [\"openat\"]}",
      "{\"id\": 3, \"program\": \"q3\", \"funcs\": [\"vfs_fsync\", \"get_order\"]}",
      "{\"id\": 4, \"object\": \"" + Fixture().object_path + "\"}",
      "{\"id\": 5, \"syscalls\": [\"openat2\"], \"tracepoints\": [\"no_such_event\"]}",
      "{\"id\": \"bad-1\", \"object\": \"" + Fixture().dir + "/missing.o\"}",
      "{\"id\": 6, not json",
      "[1, 2, 3]",
  };
}

TEST(ServeTest, AnswersBatchAgainstV2Dataset) {
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  EXPECT_EQ(engine->num_datasets(), 1u);

  std::vector<std::string> responses = engine->HandleBatch(RequestBatch());
  ASSERT_EQ(responses.size(), 8u);
  // First dispatch computes; the in-batch duplicate is a hit with the same
  // body but its own id.
  EXPECT_NE(responses[0].find("\"id\": 1, \"cache\": \"miss\""), std::string::npos)
      << responses[0];
  EXPECT_NE(responses[1].find("\"id\": 2, \"cache\": \"hit\""), std::string::npos)
      << responses[1];
  EXPECT_EQ(responses[0].substr(responses[0].find("\"ok\"")),
            responses[1].substr(responses[1].find("\"ok\"")));
  EXPECT_NE(responses[0].find("\"any_mismatch\": true"), std::string::npos);
  EXPECT_NE(responses[0].find("\"format\": \"v2\""), std::string::npos);
  EXPECT_NE(responses[3].find("\"ok\": true"), std::string::npos) << responses[3];
  // Malformed requests answer with errors, in position, and never cache.
  for (size_t bad : {5u, 6u, 7u}) {
    EXPECT_NE(responses[bad].find("\"ok\": false"), std::string::npos) << responses[bad];
  }
  EXPECT_NE(responses[5].find("\"id\": \"bad-1\""), std::string::npos);

  EXPECT_EQ(engine->requests(), 8u);
  EXPECT_EQ(engine->ok_responses(), 5u);
  EXPECT_EQ(engine->error_responses(), 3u);
  EXPECT_EQ(engine->cache_hits(), 1u);
  EXPECT_EQ(engine->cache_misses(), 4u);
  EXPECT_EQ(engine->cache_entries(), 4u);

  // A second batch of the same lines is all persistent-cache hits.
  std::vector<std::string> again = engine->HandleBatch(RequestBatch());
  EXPECT_EQ(again[0].substr(again[0].find("\"ok\"")),
            responses[0].substr(responses[0].find("\"ok\"")));
  EXPECT_NE(again[0].find("\"cache\": \"hit\""), std::string::npos);
  EXPECT_EQ(engine->cache_hits(), 6u);
  EXPECT_EQ(engine->cache_misses(), 4u);
  EXPECT_EQ(engine->cache_entries(), 4u);
}

// A request line nested far deeper than any real query is a typed error for
// that line alone; the valid requests around it answer as before.
TEST(ServeTest, DeeplyNestedRequestIsABadRequestNotACrash) {
  auto engine = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(engine.ok()) << engine.error().ToString();
  const std::vector<std::string> batch = RequestBatch();
  std::vector<std::string> alone = engine->HandleBatch({batch[0], batch[2]});
  std::string deep = std::string(300000, '[') + std::string(300000, ']');
  std::vector<std::string> responses = engine->HandleBatch({batch[0], deep, batch[2]});
  ASSERT_EQ(responses.size(), 3u);
  const std::string want_prefix = "{\"id\": null, \"ok\": false, \"error\": \"bad request JSON: ";
  EXPECT_EQ(responses[1].rfind(want_prefix, 0), 0u) << responses[1];
  EXPECT_NE(responses[1].find("nested deeper than"), std::string::npos) << responses[1];
  // Same answers as without the deep line (both now served from the cache).
  for (size_t i : {0u, 2u}) {
    const std::string& want = alone[i == 0 ? 0 : 1];
    EXPECT_EQ(responses[i].substr(responses[i].find("\"ok\"")),
              want.substr(want.find("\"ok\"")));
  }
}

// RequestBatch() followed by more distinct queries than any window has
// lanes: query q is asked again (a new id, the same set) three queries
// later, with malformed lines and object requests in between.
std::vector<std::string> LongBatch() {
  const char* funcs[] = {"vfs_read", "vfs_write", "vfs_fsync", "get_order"};
  std::vector<std::string> lines = RequestBatch();
  auto query = [&](const std::string& id, size_t q) {
    return "{\"id\": \"" + id + "\", \"program\": \"p" + std::to_string(q) +
           "\", \"funcs\": [\"" + funcs[q % 4] + "\"]}";
  };
  for (size_t q = 0; q < 12; ++q) {
    lines.push_back(query("q" + std::to_string(q), q));
    if (q >= 3) {
      lines.push_back(query("dup" + std::to_string(q - 3), q - 3));
    }
    if (q % 4 == 1) {
      lines.push_back("{\"id\": \"bad" + std::to_string(q) + "\", not json");
    }
    if (q % 5 == 2) {
      lines.push_back("{\"id\": \"obj" + std::to_string(q) + "\", \"object\": \"" +
                      Fixture().object_path + "\"}");
    }
  }
  return lines;
}

size_t LineWithId(const std::vector<std::string>& lines, const std::string& id) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"id\": \"" + id + "\"") != std::string::npos) {
      return i;
    }
  }
  ADD_FAILURE() << "no line with id " << id;
  return 0;
}

TEST(ServeTest, ResponsesAreByteIdenticalAcrossJobs) {
  const std::vector<std::string> batch = LongBatch();
  std::vector<std::vector<std::string>> all_responses;
  std::vector<std::string> all_reports;
  for (int jobs : {1, 2, 8}) {
    ServeOptions options;
    options.jobs = jobs;
    // Fewer slots than distinct results: which ones the cache keeps depends
    // on admission order, which must be request order at every width.
    options.cache_capacity = 5;
    auto engine = ServeEngine::Open({Fixture().v1_path, Fixture().v2_path}, options);
    ASSERT_TRUE(engine.ok()) << engine.error().ToString();
    std::vector<std::string> responses = engine->HandleBatch(batch);
    std::vector<std::string> again = engine->HandleBatch(batch);
    responses.insert(responses.end(), again.begin(), again.end());
    all_responses.push_back(std::move(responses));
    std::string report = engine->ReportJson();
    // Reports differ only in the jobs field; mask it for comparison.
    size_t jobs_pos = report.find("\"jobs\": ");
    ASSERT_NE(jobs_pos, std::string::npos);
    report.erase(jobs_pos, report.find('\n', jobs_pos) - jobs_pos);
    all_reports.push_back(report);
  }
  for (size_t run = 1; run < all_responses.size(); ++run) {
    EXPECT_EQ(all_responses[0], all_responses[run]) << "run " << run;
    EXPECT_EQ(all_reports[0], all_reports[run]) << "run " << run;
  }
  EXPECT_NE(all_reports[0].find("\"entries\": 5, \"capacity\": 5"), std::string::npos)
      << all_reports[0];

  // RequestBatch() has four distinct results, so q0's is the fifth and last
  // one admitted: the second pass hits it and misses q1, whose in-batch
  // duplicate then hits.
  const std::vector<std::string>& responses = all_responses[0];
  const size_t second = batch.size();
  EXPECT_NE(responses[second + LineWithId(batch, "q0")].find("\"cache\": \"hit\""),
            std::string::npos);
  EXPECT_NE(responses[second + LineWithId(batch, "q1")].find("\"cache\": \"miss\""),
            std::string::npos);
  EXPECT_NE(responses[second + LineWithId(batch, "dup1")].find("\"cache\": \"hit\""),
            std::string::npos);
  EXPECT_NE(responses[LineWithId(batch, "bad1")].find("\"ok\": false"), std::string::npos);
  EXPECT_NE(responses[LineWithId(batch, "obj2")].find("\"ok\": true"), std::string::npos);
}

TEST(ServeTest, V1AndV2DatasetsAnswerIdenticalRows) {
  auto v1 = ServeEngine::Open({Fixture().v1_path}, ServeOptions{});
  auto v2 = ServeEngine::Open({Fixture().v2_path}, ServeOptions{});
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  std::vector<std::string> a = v1->HandleBatch(RequestBatch());
  std::vector<std::string> b = v2->HandleBatch(RequestBatch());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // The payloads differ only in the dataset path/format markers; the
    // analysis rows must match cell for cell.
    size_t rows_a = a[i].find("\"rows\"");
    size_t rows_b = b[i].find("\"rows\"");
    EXPECT_EQ(rows_a == std::string::npos, rows_b == std::string::npos) << a[i];
    if (rows_a != std::string::npos) {
      EXPECT_EQ(a[i].substr(rows_a), b[i].substr(rows_b)) << i;
    }
  }
}

TEST(ServeTest, ReportJsonIsValidAndAccountsForEverything) {
  ServeOptions options;
  options.cache_capacity = 2;  // force the admission bound to bind
  auto engine = ServeEngine::Open({Fixture().v2_path}, options);
  ASSERT_TRUE(engine.ok());
  engine->HandleBatch(RequestBatch());
  std::string report = engine->ReportJson();
  Status valid = obs::LintDocument("serve", report);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << report;
  // 4 distinct computed results, capacity 2: admission stops at the cap.
  EXPECT_EQ(engine->cache_entries(), 2u);
  EXPECT_NE(report.find("\"entries\": 2, \"capacity\": 2"), std::string::npos) << report;

  // The validator rejects documents whose counters do not reconcile.
  std::string broken = report;
  size_t pos = broken.find("\"requests\": 8");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, 13, "\"requests\": 9");
  EXPECT_FALSE(obs::LintDocument("serve", broken).ok());
  EXPECT_FALSE(obs::LintDocument("serve", "{}").ok());
  EXPECT_FALSE(obs::LintDocument("serve", "not json").ok());
}

TEST(ServeTest, OpenFailsLoudly) {
  EXPECT_FALSE(ServeEngine::Open({}, ServeOptions{}).ok());
  auto missing = ServeEngine::Open({Fixture().dir + "/nope.dds"}, ServeOptions{});
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().message().find("nope.dds"), std::string::npos);
}

}  // namespace
}  // namespace depsurf
