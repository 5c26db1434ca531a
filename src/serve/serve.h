// Dataset-as-a-service: a long-lived query engine over N opened datasets.
//
// `depsurf serve` is the shape the ROADMAP north star asks for: datasets are
// opened once (v2 via zero-copy mmap, v1 via one legacy parse) and batched
// dependency-set queries stream through a bounded-window executor — the same
// dispatch/consume-in-order pattern the parallel report builds use — so
// responses are byte-identical at any --jobs value. A content-hash
// admission/result cache answers repeated queries without re-analysis.
//
// Wire format: newline-delimited JSON. One request per line:
//   {"id": 1, "program": "biotop", "funcs": ["vfs_read"],
//    "fields": {"request": {"rq_disk": {"type": "struct gendisk *",
//                                        "guarded": false}}},
//    "tracepoints": ["block_rq_issue"], "syscalls": ["openat2"],
//    "lsm_hooks": []}
// or, to analyze an on-disk eBPF object instead of inline lists:
//   {"id": "obj-1", "object": "prog.o"}
// One response per line, in request order:
//   {"id": 1, "cache": "miss", "ok": true, "results": [...]}
//   {"id": 2, "ok": false, "error": "..."}
#ifndef DEPSURF_SRC_SERVE_SERVE_H_
#define DEPSURF_SRC_SERVE_SERVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/dataset_io.h"
#include "src/core/dependency_set.h"

namespace depsurf {

inline constexpr char kServeReportSchema[] = "depsurf.serve_report.v1";

struct ServeOptions {
  // Width of the concurrent request window. 0 auto-sizes like study builds:
  // min(hardware_concurrency, 8). Responses and cache counters are
  // byte-identical for any value.
  int jobs = 0;
  // Result-cache admission bound: once this many distinct results are
  // cached, later misses are computed but not admitted.
  size_t cache_capacity = 4096;
};

class ServeEngine {
 public:
  // Opens every dataset up front; any failure aborts the whole open.
  static Result<ServeEngine> Open(const std::vector<std::string>& dataset_paths,
                                  const ServeOptions& options);

  ServeEngine(ServeEngine&&) = default;
  ServeEngine& operator=(ServeEngine&&) = default;
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Answers one batch of request lines. The returned vector is parallel to
  // `lines`. Workers run under per-request obs::Contexts; summary counters
  // and a "serve.batch" span land in the caller's context. Not re-entrant:
  // call from one thread at a time (workers are managed internally).
  std::vector<std::string> HandleBatch(const std::vector<std::string>& lines);

  // Deterministic depsurf.serve_report.v1 summary of everything served so
  // far (no timing fields; see docs/FORMATS.md §7).
  std::string ReportJson() const;

  uint64_t requests() const { return requests_; }
  uint64_t ok_responses() const { return ok_; }
  uint64_t error_responses() const { return errors_; }
  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }
  size_t cache_entries() const { return cache_.size(); }
  size_t num_datasets() const { return datasets_.size(); }

 private:
  struct DatasetEntry {
    std::string path;
    int format = 1;
    std::unique_ptr<DatasetView> view;
  };
  struct RequestOutcome {
    std::string body;   // response fragment after the cache marker
    std::string error;  // non-empty: a dataset failed its checks (never cached)
    uint64_t rows = 0;
    uint64_t mismatch_rows = 0;
  };
  struct ParsedRequest {
    std::string id_json = "null";
    std::string error;  // non-empty: malformed request (bypasses the cache)
    uint64_t key = 0;
    DependencySet deps;
  };

  ServeEngine() = default;
  ParsedRequest ParseRequest(const std::string& line) const;
  RequestOutcome Answer(const DependencySet& deps) const;

  ServeOptions options_;
  std::vector<DatasetEntry> datasets_;
  std::unordered_map<uint64_t, std::string> cache_;
  uint64_t requests_ = 0;
  uint64_t ok_ = 0;
  uint64_t errors_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_SERVE_SERVE_H_
