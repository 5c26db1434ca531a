#include "src/util/ordered_executor.h"

#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

namespace depsurf {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

size_t LaneCount(int jobs) {
  if (jobs > 0) {
    return static_cast<size_t>(jobs);
  }
  return std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()), 8);
}

namespace internal {

OrderedRunStats RunOrderedSlots(size_t n, size_t lanes, const std::function<void(size_t)>& run,
                                const std::function<bool(size_t)>& take) {
  OrderedRunStats stats;
  stats.queue_wait_ns.assign(n, 0);
  stats.busy_ns.assign(n, 0);
  stats.lane_busy_ns.assign(lanes, 0);
  if (n == 0) {
    return stats;
  }
  const size_t threads = std::min(lanes, n);

  // Everything below is guarded by `mu`; a slot's contents are handed
  // between threads by the `done` flag set and read under it.
  std::mutex mu;
  std::condition_variable task_allowed;  // lanes wait for start_limit to grow
  std::condition_variable task_done;     // the caller waits for done[next]
  size_t next_start = 0;                 // the next task a lane takes
  size_t start_limit = threads;          // tasks below this may start
  bool stop = false;
  std::vector<char> done(n, 0);
  std::vector<std::exception_ptr> failure(n);
  std::vector<Clock::time_point> allowed_at(n);
  std::fill(allowed_at.begin(), allowed_at.begin() + threads, Clock::now());

  auto lane = [&](size_t lane_index) {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      task_allowed.wait(lock, [&] { return stop || next_start < start_limit || next_start == n; });
      if (stop || next_start == n) {
        return;
      }
      const size_t i = next_start++;
      const Clock::time_point start = Clock::now();
      stats.queue_wait_ns[i] = NsBetween(allowed_at[i], start);
      lock.unlock();
      std::exception_ptr error;
      try {
        run(i);
      } catch (...) {
        error = std::current_exception();
      }
      const uint64_t busy = NsBetween(start, Clock::now());
      lock.lock();
      stats.busy_ns[i] = busy;
      stats.lane_busy_ns[lane_index] += busy;
      failure[i] = error;
      done[i] = 1;
      task_done.notify_one();
    }
  };

  std::vector<std::thread> pool;
  auto stop_and_join = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    task_allowed.notify_all();
    for (std::thread& thread : pool) {
      thread.join();
    }
  };
  try {
    pool.reserve(threads);
    for (size_t l = 0; l < threads; ++l) {
      pool.emplace_back(lane, l);
    }
    for (size_t i = 0; i < n; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      if (!done[i]) {
        const Clock::time_point wait_start = Clock::now();
        task_done.wait(lock, [&] { return done[i] != 0; });
        stats.consume_stall_ns += NsBetween(wait_start, Clock::now());
      }
      if (failure[i]) {
        std::rethrow_exception(failure[i]);
      }
      lock.unlock();
      if (!take(i)) {
        break;
      }
      if (i + lanes < n) {
        lock.lock();
        allowed_at[i + lanes] = Clock::now();
        start_limit = i + lanes + 1;
        lock.unlock();
        task_allowed.notify_one();
      }
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
  stop_and_join();
  return stats;
}

}  // namespace internal

}  // namespace depsurf
