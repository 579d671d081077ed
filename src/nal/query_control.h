// Cooperative cancellation and deadline token for one query run.
//
// The paper's NAL evaluator assumes an embedding system (Natix) that owns
// the query lifecycle; QueryControl is that lifecycle seam for our three
// executors. One token is shared — by plain pointer, the owner outlives the
// run — between the caller, the consumer thread and every exchange worker:
//
//   * the caller flips RequestCancel() (thread-safe, idempotent) or arms a
//     monotonic deadline (steady_clock, immune to wall-clock steps);
//   * every executor loop calls Poll() at bounded intervals — per operator
//     evaluation, per produced tuple, per spool-file record — and Poll()
//     throws engine::Error{kCancelled | kDeadlineExceeded} once the token
//     trips, unwinding through the RAII cleanup (spool files, budget
//     charges, worker packets) the cursors already guarantee.
//
// Poll() is built to sit on hot paths: the common case is one relaxed
// atomic load. The deadline clock is only consulted every
// kDeadlineCheckInterval polls (and on the very first poll, so an
// already-expired deadline trips before any work happens); once either
// condition fires the token latches the corresponding state, so every
// thread of the run reports the same code — the first trip wins, not the
// fastest thread.
#ifndef NALQ_NAL_QUERY_CONTROL_H_
#define NALQ_NAL_QUERY_CONTROL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace nalq::nal {

class QueryControl {
 public:
  using Clock = std::chrono::steady_clock;

  QueryControl() = default;
  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Asks the run to stop; the next Poll() on any participating thread
  /// throws engine::Error(kCancelled). Safe from any thread, any time.
  void RequestCancel() { Trip(State::kCancelled); }

  /// Arms (or re-arms) the deadline at now + `ms`. 0 means "already
  /// expired": the first deadline check trips. Not thread-safe against
  /// concurrent Poll()s — arm before the run starts.
  void SetDeadlineMs(uint64_t ms) {
    SetDeadline(Clock::now() + std::chrono::milliseconds(ms));
  }
  void SetDeadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }

  bool cancel_requested() const {
    return state_.load(std::memory_order_relaxed) != State::kRunning;
  }
  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_relaxed);
  }
  /// The armed deadline instant. Meaningful only when has_deadline(); used
  /// by the query service to bound its admission-queue wait with the same
  /// deadline that bounds the run (service/query_service.h).
  Clock::time_point deadline() const {
    return Clock::time_point(
        Clock::duration(deadline_ns_.load(std::memory_order_relaxed)));
  }

  /// Deadline clock reads happen every this-many polls (plus the first).
  static constexpr uint64_t kDeadlineCheckInterval = 256;

  /// The cancellation point. Throws engine::Error(kCancelled) or
  /// engine::Error(kDeadlineExceeded); otherwise a near-free check.
  void Poll() {
    State s = state_.load(std::memory_order_relaxed);
    if (s != State::kRunning) ThrowTripped(s);
    if (has_deadline_.load(std::memory_order_relaxed) &&
        polls_.fetch_add(1, std::memory_order_relaxed) %
                kDeadlineCheckInterval ==
            0) {
      CheckDeadline();
    }
  }

 private:
  /// Latched trip state. Tripping is first-wins: once set, later trips
  /// (including the other kind) are ignored, so every thread reports the
  /// same error code for one run.
  enum class State : int { kRunning = 0, kCancelled, kDeadline };

  void Trip(State s) {
    State expected = State::kRunning;
    state_.compare_exchange_strong(expected, s, std::memory_order_relaxed);
  }
  void CheckDeadline();
  [[noreturn]] static void ThrowTripped(State s);

  std::atomic<State> state_{State::kRunning};
  std::atomic<bool> has_deadline_{false};
  std::atomic<int64_t> deadline_ns_{0};  ///< Clock duration since its epoch
  std::atomic<uint64_t> polls_{0};
};

}  // namespace nalq::nal

#endif  // NALQ_NAL_QUERY_CONTROL_H_
