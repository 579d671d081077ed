#include "nal/scheduler.h"

#include <algorithm>
#include <system_error>

#include "engine/error.h"
#include "nal/fault_injection.h"

namespace nalq::nal {

Scheduler& Scheduler::Global() {
  // Leaked intentionally: worker threads may still be parked in the pool
  // when static destructors run; tearing the pool down underneath them is
  // a shutdown crash for no benefit.
  static Scheduler* pool = []() {
    unsigned hw = std::thread::hardware_concurrency();
    return new Scheduler(hw == 0 ? 1 : hw);
  }();
  return *pool;
}

Scheduler::Scheduler(unsigned initial_threads) {
  EnsureThreads(initial_threads == 0 ? 1 : initial_threads);
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Scheduler::EnsureThreads(unsigned n) {
  n = std::min(n, kMaxThreads);
  std::lock_guard<std::mutex> lock(mu_);
  while (threads_.size() < n) {
    if (int injected = FaultInjector::Current().MaybeFail(
            FaultSite::kSchedulerWorkerStart)) {
      throw engine::Error(engine::ErrorCode::kBudgetExhausted,
                          "scheduler: cannot start worker thread", injected,
                          {}, "scheduler.worker_start");
    }
    try {
      threads_.emplace_back([this] { WorkerLoop(); });
    } catch (const std::system_error& e) {
      // The pool stops growing; the threads already running keep serving
      // the queue. The caller sees a structured resource error.
      throw engine::Error(engine::ErrorCode::kBudgetExhausted,
                          "scheduler: cannot start worker thread",
                          e.code().value(), {}, "scheduler.worker_start");
    }
  }
}

unsigned Scheduler::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(threads_.size());
}

void Scheduler::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void Scheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stopping, and the queue is drained
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    task();
    task = nullptr;  // release the task's captures outside the lock
    executed_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
}

}  // namespace nalq::nal
