// Differential profile attribution: diffs two depsurf.profile.v1 documents
// so a tripped perf gate names not just the stage that regressed but the
// span names and critical-path chain behind it.
//
// Schema (depsurf.profile_diff.v1):
//   {
//     "schema": "depsurf.profile_diff.v1",
//     "base_span_nodes": N, "head_span_nodes": N,
//     "names": [ {"name": "...", "in_base": true, "in_head": true,
//                 "base":  {"count": N, "dur_ns": N, "self_ns": N,
//                           "cpu_ns": N, "alloc_count": N, "alloc_bytes": N},
//                 "head":  {...same keys...},
//                 "delta": {...same keys, signed head-minus-base...}}, ... ],
//     "top_movers": [ ...the <= N rows with the largest |self_ns| delta,
//                     largest first... ],
//     "critical_path": {
//       "base":  {"wall_ns": N, "serial_self_ns": N, "serial_share_pct": X,
//                 "steps": [ {"name", "dur_ns", "self_ns"}, ... ]},
//       "head":  {...},
//       "delta": {"wall_ns": D, "serial_self_ns": D}}
//   }
//
// Determinism: "names" is the sorted union of both profiles' name tables,
// so row order never depends on timing. The delta *values* do, as does the
// order of "top_movers" — CanonicalMaskedJson zeroes every base/head/delta
// column (they reuse the masked dur_ns/self_ns/cpu_ns/alloc_* keys) and
// masks "top_movers" and "critical_path" wholesale, so masked diffs of
// structurally identical runs are byte-identical across --jobs settings.
#ifndef DEPSURF_SRC_OBS_PROFILE_DIFF_H_
#define DEPSURF_SRC_OBS_PROFILE_DIFF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/profile.h"
#include "src/util/error.h"

namespace depsurf {
namespace obs {

inline constexpr char kProfileDiffSchema[] = "depsurf.profile_diff.v1";

struct ProfileDiffRow {
  std::string name;
  bool in_base = false;
  bool in_head = false;
  ProfileNameRow base;  // zeroed when !in_base
  ProfileNameRow head;  // zeroed when !in_head
  // Signed head-minus-base deltas for every aggregate column.
  int64_t count_delta = 0;
  int64_t dur_delta_ns = 0;
  int64_t self_delta_ns = 0;
  int64_t cpu_delta_ns = 0;
  int64_t alloc_count_delta = 0;
  int64_t alloc_bytes_delta = 0;
};

struct ProfileDiff {
  uint64_t base_span_nodes = 0;
  uint64_t head_span_nodes = 0;
  std::vector<ProfileDiffRow> names;  // sorted union of both name tables
  // Indices into `names`, ranked by |self_delta_ns| descending (ties by
  // name), rows with a zero self delta excluded, capped at the top_n passed
  // to DiffProfiles.
  std::vector<size_t> top_movers;
  // Critical-path summary of each side plus the headline deltas.
  uint64_t base_wall_ns = 0;
  uint64_t head_wall_ns = 0;
  uint64_t base_serial_self_ns = 0;
  uint64_t head_serial_self_ns = 0;
  double base_serial_share_pct = 0;
  double head_serial_share_pct = 0;
  std::vector<CriticalPathStep> base_path;
  std::vector<CriticalPathStep> head_path;

  int64_t wall_delta_ns() const {
    return static_cast<int64_t>(head_wall_ns) - static_cast<int64_t>(base_wall_ns);
  }
  int64_t serial_self_delta_ns() const {
    return static_cast<int64_t>(head_serial_self_ns) -
           static_cast<int64_t>(base_serial_self_ns);
  }
};

// Diffs two profiles (base -> head). top_n caps the top_movers list.
ProfileDiff DiffProfiles(const Profile& base, const Profile& head, size_t top_n = 10);

// Parses a depsurf.profile.v1 document back into a Profile (the inverse of
// ProfileJson), so `perf diff` and history summaries can consume the files
// `study build --profile-out` / bench_perf already emit.
Result<Profile> ParseProfileDoc(std::string_view json);

// Deterministic JSON (see schema above) / human-readable movers table.
std::string ProfileDiffJson(const ProfileDiff& diff);
std::string ProfileDiffText(const ProfileDiff& diff);

}  // namespace obs
}  // namespace depsurf

#endif  // DEPSURF_SRC_OBS_PROFILE_DIFF_H_
