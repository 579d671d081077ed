// Unit tests for the FIFO thread pool (src/nal/scheduler.h).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "nal/scheduler.h"

namespace nalq::nal {
namespace {

/// Waits until `n` tasks have signalled completion.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  int remaining;

  explicit Latch(int n) : remaining(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
  }
};

TEST(SchedulerTest, RunsEverySubmittedTask) {
  Scheduler& pool = Scheduler::Global();
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  Latch latch(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      done.fetch_add(1, std::memory_order_relaxed);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(SchedulerTest, EnsureThreadsGrowsAndNeverShrinks) {
  Scheduler& pool = Scheduler::Global();
  unsigned before = pool.thread_count();
  EXPECT_GE(before, 1u);
  pool.EnsureThreads(before + 3);
  EXPECT_GE(pool.thread_count(), before + 3);
  pool.EnsureThreads(1);  // no shrink
  EXPECT_GE(pool.thread_count(), before + 3);

  // The grown pool still runs everything, including tasks submitted from a
  // pool thread itself.
  Latch latch(20);
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] {
      Scheduler::Global().Submit([&] { latch.CountDown(); });
      latch.CountDown();
    });
  }
  latch.Wait();
}

TEST(SchedulerTest, ClampsToMaxThreads) {
  Scheduler& pool = Scheduler::Global();
  pool.EnsureThreads(Scheduler::kMaxThreads + 100);
  EXPECT_LE(pool.thread_count(), Scheduler::kMaxThreads);
}

TEST(SchedulerTest, CountersAreMonotone) {
  Scheduler& pool = Scheduler::Global();
  uint64_t executed_before = pool.task_count();
  Latch latch(50);
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { latch.CountDown(); });
  }
  latch.Wait();
  // task_count is incremented after the task body runs; give the last
  // worker a moment to pass the counter line.
  for (int spin = 0;
       pool.task_count() < executed_before + 50 && spin < 1000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.task_count(), executed_before + 50);
}

TEST(SchedulerTest, OneThreadStartsTasksInSubmissionOrder) {
  // An exchange consumer waits for its oldest ticket first, so queued
  // tasks must start oldest first.
  std::vector<int> started;
  std::mutex mu;
  Latch blocker_started(1);
  Latch release(1);
  Latch done(6);
  {
    Scheduler pool(1);
    pool.Submit([&] {
      blocker_started.CountDown();
      release.Wait();
    });
    blocker_started.Wait();
    for (int i = 0; i < 6; ++i) {
      pool.Submit([&, i] {
        {
          std::lock_guard<std::mutex> lock(mu);
          started.push_back(i);
        }
        done.CountDown();
      });
    }
    release.CountDown();
    done.Wait();
  }
  EXPECT_EQ(started, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace nalq::nal
