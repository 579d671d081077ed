// Thread pool for the parallel executor (exchange.h).
//
// A small, process-wide pool of worker threads that take tasks from one
// FIFO queue, in submission order. Only exchange consumers submit, and a
// consumer waits for its oldest ticket first, so the oldest task is the one
// to start.
//
// Tasks must be self-contained units of work: they may take mutexes and
// signal condition variables, but must never block waiting on another
// *task* (the pool makes no guarantee that any other task is running
// concurrently, so task-on-task waits can deadlock a small pool). The
// exchange operator obeys this by design — chunk tasks only compute and
// publish; all cross-task waiting happens on the consumer thread, which is
// never a pool thread.
#ifndef NALQ_NAL_SCHEDULER_H_
#define NALQ_NAL_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nalq::nal {

class Scheduler {
 public:
  /// The process-wide pool, created on first use with one thread per
  /// hardware core. Never destroyed before process exit.
  static Scheduler& Global();

  /// Grows the pool to at least `n` threads (never shrinks; capped at
  /// kMaxThreads). Called by the exchange with the requested degree of
  /// parallelism before submitting work.
  void EnsureThreads(unsigned n);

  /// Enqueues `task` at the back of the queue.
  void Submit(std::function<void()> task);

  unsigned thread_count() const;
  /// Tasks executed in total.
  uint64_t task_count() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Growing past this many threads is clamped.
  static constexpr unsigned kMaxThreads = 256;

  explicit Scheduler(unsigned initial_threads);
  /// Runs every queued task, then joins the threads.
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;  ///< guards tasks_, stop_ and threads_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::atomic<uint64_t> executed_{0};
  std::vector<std::thread> threads_;  ///< after what the threads use
};

}  // namespace nalq::nal

#endif  // NALQ_NAL_SCHEDULER_H_
