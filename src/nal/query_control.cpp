#include "nal/query_control.h"

#include <string>

#include "engine/error.h"

namespace nalq::nal {

void QueryControl::CheckDeadline() {
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  int64_t now = Clock::now().time_since_epoch().count();
  if (now < deadline) return;
  Trip(State::kDeadline);
  // Re-read: a concurrent RequestCancel may have won the latch.
  ThrowTripped(state_.load(std::memory_order_relaxed));
}

void QueryControl::ThrowTripped(State s) {
  if (s == State::kDeadline) {
    throw engine::Error(engine::ErrorCode::kDeadlineExceeded,
                        "query deadline exceeded", 0, {}, "QueryControl");
  }
  throw engine::Error(engine::ErrorCode::kCancelled, "query cancelled", 0, {},
                      "QueryControl");
}

}  // namespace nalq::nal
