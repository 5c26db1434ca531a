// One ordered lane executor. Independent tasks run in parallel on lane
// threads; their results are consumed on the calling thread in index order.
// Study builds run one task per kernel image through it (extract in the
// lanes, distill in corpus order); serve batches run one task per distinct
// query (answer in the lanes, respond in request order).
#ifndef DEPSURF_SRC_UTIL_ORDERED_EXECUTOR_H_
#define DEPSURF_SRC_UTIL_ORDERED_EXECUTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

namespace depsurf {

// The lane count for a `--jobs` value, defined here once for every caller:
// jobs > 0 is taken as given; 0 (the default) auto-sizes to
// min(hardware_concurrency, 8), because each unconsumed result may be large
// (a whole image surface), so memory stays bounded on wide machines.
size_t LaneCount(int jobs);

// What one RunOrdered call measured. Per-task entries are indexed by task;
// a task that never started (after a consume returned false) reads 0.
struct OrderedRunStats {
  // From the moment task i was allowed to start (the call's entry for the
  // first `lanes` tasks, else the consume of task i - lanes) until a lane
  // began it.
  std::vector<uint64_t> queue_wait_ns;
  // Wall time inside produce(i).
  std::vector<uint64_t> busy_ns;
  // busy_ns summed per lane thread. Always `lanes` entries; a lane that
  // was not started (lanes > n) reads 0.
  std::vector<uint64_t> lane_busy_ns;
  // Wall time the calling thread waited for the next result in order.
  uint64_t consume_stall_ns = 0;
};

namespace internal {

// The scheduler behind RunOrdered, over type-erased result slots:
// `run(i)` stores task i's result, `take(i)` consumes it.
OrderedRunStats RunOrderedSlots(size_t n, size_t lanes, const std::function<void(size_t)>& run,
                                const std::function<bool(size_t)>& take);

}  // namespace internal

// Runs produce(i) for every i in [0, n) on min(lanes, n) threads started
// for this call and joined before it returns, and calls consume(i, result)
// on the calling thread in index order (result is a T& that consume may
// move from). Task i starts only after task i - lanes has been consumed, so
// at most `lanes` results are alive at once. When consume(i) returns false
// no further task is let in (none at or past i + lanes ever starts), and
// every task already started finishes before the call returns. An exception
// thrown by produce(i) is rethrown here when task i's turn to be consumed
// comes, after the lanes are joined.
template <typename Produce, typename Consume>
OrderedRunStats RunOrdered(size_t n, size_t lanes, Produce&& produce, Consume&& consume) {
  using T = std::invoke_result_t<Produce&, size_t>;
  lanes = std::max<size_t>(lanes, 1);
  // Task i lives in slot i % lanes: task i - lanes has left it by then.
  std::vector<std::optional<T>> slots(std::min(lanes, n));
  return internal::RunOrderedSlots(
      n, lanes, [&](size_t i) { slots[i % slots.size()].emplace(produce(i)); },
      [&](size_t i) {
        std::optional<T>& slot = slots[i % slots.size()];
        const bool more = consume(i, *slot);
        slot.reset();
        return more;
      });
}

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_ORDERED_EXECUTOR_H_
