// The ordered lane executor: consume order, the lanes bound, stopping on a
// false from consume, and the edge cases n = 0, lanes > n and lanes = 1.
// Runs under the robustness label so the TSAN configuration
// (DEPSURF_SANITIZE=thread) covers the handoff between lanes and caller.
#include "src/util/ordered_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace depsurf {
namespace {

// A few microseconds of work whose length varies with the task, so later
// tasks often finish before earlier ones.
void Work(size_t i) { std::this_thread::sleep_for(std::chrono::microseconds((i * 7) % 5 * 150)); }

TEST(OrderedExecutorTest, ConsumesInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> seen;
  std::mutex mu;
  std::set<std::thread::id> lane_threads;
  OrderedRunStats stats = RunOrdered(
      40, 4,
      [&](size_t i) {
        {
          std::lock_guard<std::mutex> lock(mu);
          lane_threads.insert(std::this_thread::get_id());
        }
        Work(i);
        return std::make_unique<size_t>(i * i);  // move-only results work
      },
      [&](size_t i, std::unique_ptr<size_t>& result) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(*result, i * i);
        seen.push_back(i);
        return true;
      });
  std::vector<size_t> want(40);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(seen, want);
  // Lanes are real threads, reused across tasks.
  EXPECT_LE(lane_threads.size(), 4u);
  EXPECT_EQ(lane_threads.count(caller), 0u);
  ASSERT_EQ(stats.busy_ns.size(), 40u);
  ASSERT_EQ(stats.queue_wait_ns.size(), 40u);
  ASSERT_EQ(stats.lane_busy_ns.size(), 4u);
  EXPECT_EQ(std::accumulate(stats.lane_busy_ns.begin(), stats.lane_busy_ns.end(), uint64_t{0}),
            std::accumulate(stats.busy_ns.begin(), stats.busy_ns.end(), uint64_t{0}));
}

TEST(OrderedExecutorTest, NeverMoreThanLanesStartedButUnconsumed) {
  for (size_t lanes : {1u, 3u, 8u}) {
    std::atomic<size_t> consumed{0};
    std::atomic<size_t> started{0};
    std::atomic<size_t> worst{0};
    RunOrdered(
        30, lanes,
        [&](size_t i) {
          const size_t open = started.fetch_add(1) + 1 - consumed.load();
          size_t seen = worst.load();
          while (open > seen && !worst.compare_exchange_weak(seen, open)) {
          }
          // Task i may start only once task i - lanes has been consumed.
          EXPECT_LT(i, consumed.load() + lanes) << "lanes=" << lanes;
          Work(i);
          return i;
        },
        [&](size_t, size_t&) {
          consumed.fetch_add(1);
          return true;
        });
    EXPECT_EQ(started.load(), 30u);
    EXPECT_LE(worst.load(), lanes) << "lanes=" << lanes;
    EXPECT_GE(worst.load(), 1u);
  }
}

TEST(OrderedExecutorTest, FalseFromConsumeStartsNoFurtherTask) {
  constexpr size_t kLanes = 4;
  constexpr size_t kStopAt = 10;
  std::mutex mu;
  std::set<size_t> started;
  std::atomic<size_t> running{0};
  std::atomic<size_t> finished{0};
  std::vector<size_t> consumed;
  OrderedRunStats stats = RunOrdered(
      100, kLanes,
      [&](size_t i) {
        {
          std::lock_guard<std::mutex> lock(mu);
          started.insert(i);
        }
        running.fetch_add(1);
        // Slow tasks, so some are still running when consume says stop.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        running.fetch_sub(1);
        finished.fetch_add(1);
        return i;
      },
      [&](size_t i, size_t&) {
        consumed.push_back(i);
        return i != kStopAt;
      });
  // Every started task finished before the call returned.
  EXPECT_EQ(running.load(), 0u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(finished.load(), started.size());
  // Consume stopped at kStopAt, and nothing past the window that was open
  // then ever started.
  ASSERT_EQ(consumed.size(), kStopAt + 1);
  EXPECT_EQ(consumed.back(), kStopAt);
  ASSERT_FALSE(started.empty());
  EXPECT_LT(*started.rbegin(), kStopAt + kLanes);
  for (size_t i = 0; i <= kStopAt; ++i) {
    EXPECT_EQ(started.count(i), 1u) << i;
  }
  // Tasks that never started read zero.
  for (size_t i = kStopAt + kLanes; i < 100; ++i) {
    EXPECT_EQ(stats.busy_ns[i], 0u) << i;
  }
}

TEST(OrderedExecutorTest, NoTasksStartsNoLane) {
  bool called = false;
  OrderedRunStats stats = RunOrdered(
      0, 4,
      [&](size_t) {
        called = true;
        return 0;
      },
      [&](size_t, int&) {
        called = true;
        return true;
      });
  EXPECT_FALSE(called);
  EXPECT_TRUE(stats.busy_ns.empty());
  EXPECT_TRUE(stats.queue_wait_ns.empty());
  EXPECT_EQ(stats.lane_busy_ns, std::vector<uint64_t>(4, 0));
  EXPECT_EQ(stats.consume_stall_ns, 0u);
}

TEST(OrderedExecutorTest, MoreLanesThanTasksStartsOneThreadPerTask) {
  std::mutex mu;
  std::set<std::thread::id> lane_threads;
  std::vector<size_t> seen;
  OrderedRunStats stats = RunOrdered(
      3, 8,
      [&](size_t i) {
        std::lock_guard<std::mutex> lock(mu);
        lane_threads.insert(std::this_thread::get_id());
        return i + 100;
      },
      [&](size_t i, size_t& result) {
        EXPECT_EQ(result, i + 100);
        seen.push_back(i);
        return true;
      });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2}));
  EXPECT_LE(lane_threads.size(), 3u);
  // One entry per requested lane; lanes never started read zero.
  ASSERT_EQ(stats.lane_busy_ns.size(), 8u);
  for (size_t lane = 3; lane < 8; ++lane) {
    EXPECT_EQ(stats.lane_busy_ns[lane], 0u) << lane;
  }
}

TEST(OrderedExecutorTest, OneLaneRunsTasksOneAtATimeOnOneThread) {
  std::atomic<size_t> consumed{0};
  std::set<std::thread::id> lane_threads;  // one lane: no concurrent insert
  RunOrdered(
      12, 1,
      [&](size_t i) {
        lane_threads.insert(std::this_thread::get_id());
        EXPECT_EQ(consumed.load(), i);  // task i - 1 was already consumed
        return i;
      },
      [&](size_t i, size_t& result) {
        EXPECT_EQ(result, i);
        consumed.fetch_add(1);
        return true;
      });
  EXPECT_EQ(consumed.load(), 12u);
  EXPECT_EQ(lane_threads.size(), 1u);
  EXPECT_EQ(lane_threads.count(std::this_thread::get_id()), 0u);
}

TEST(OrderedExecutorTest, ProduceExceptionReachesTheCallerInOrder) {
  std::vector<size_t> consumed;
  EXPECT_THROW(RunOrdered(
                   20, 4,
                   [](size_t i) {
                     if (i == 5) {
                       throw std::runtime_error("task 5");
                     }
                     return i;
                   },
                   [&](size_t i, size_t&) {
                     consumed.push_back(i);
                     return true;
                   }),
               std::runtime_error);
  EXPECT_EQ(consumed, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(OrderedExecutorTest, LaneCountAutoSizesOnlyForZero) {
  EXPECT_EQ(LaneCount(1), 1u);
  EXPECT_EQ(LaneCount(3), 3u);
  EXPECT_EQ(LaneCount(16), 16u);
  EXPECT_GE(LaneCount(0), 1u);
  EXPECT_LE(LaneCount(0), 8u);
}

}  // namespace
}  // namespace depsurf
