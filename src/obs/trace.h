// Query lifecycle tracing: per-query span logs exportable as Chrome
// trace_event JSON, plus the slow-query log sink.
//
// A TraceLog collects closed spans — {name, thread, start, duration} on the
// monotonic clock — from any thread (one mutex around a vector append; a
// span closes once, so contention is per-span, not per-tuple). The service
// opens one log per query when a trace directory is configured and records
// the submit→admit→compile/cache→execute lifecycle; the engine adds an
// execute span and the exchange adds one span per worker chunk task.
// Export is the Chrome trace_event "X" (complete event)
// format — load the file in chrome://tracing or Perfetto.
//
// When tracing is off no TraceLog exists and every recording site is a
// null-pointer check (TraceLog::Span on a null log reads no clock).
//
// This header depends on the standard library only.
#ifndef NALQ_OBS_TRACE_H_
#define NALQ_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nalq::obs {

class TraceLog {
 public:
  using Clock = std::chrono::steady_clock;

  TraceLog() : epoch_(Clock::now()) {}

  /// Records one closed span. Thread-safe. `name` is copied.
  void AddSpan(const char* name, Clock::time_point begin,
               Clock::time_point end);

  /// RAII span: records [construction, destruction) on `log`, or nothing
  /// when `log` is null — the recording sites stay branch-cheap when
  /// tracing is off.
  class Span {
   public:
    Span(TraceLog* log, const char* name) : log_(log), name_(name) {
      if (log_ != nullptr) begin_ = Clock::now();
    }
    ~Span() {
      if (log_ != nullptr) log_->AddSpan(name_, begin_, Clock::now());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TraceLog* log_;
    const char* name_;
    Clock::time_point begin_;
  };

  size_t span_count() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}; ph:"X" complete
  /// events, timestamps in microseconds since the log's epoch).
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `dir`/`prefix`-<pid>-<seq>.json and returns
  /// the path, or an empty string on I/O failure — tracing must never fail
  /// a query.
  std::string WriteFile(const std::string& dir, const char* prefix) const;

 private:
  struct Rec {
    std::string name;
    uint64_t tid = 0;
    int64_t ts_us = 0;
    int64_t dur_us = 0;
  };

  mutable std::mutex mu_;
  Clock::time_point epoch_;
  std::vector<Rec> spans_;
};

/// Append-only JSONL sink for the service's slow-query log. Thread-safe;
/// each Append opens, writes one line, and closes (slow queries are rare by
/// definition — simplicity over a held descriptor).
class SlowQueryLog {
 public:
  explicit SlowQueryLog(std::string path) : path_(std::move(path)) {}
  /// Appends one line (the caller passes a complete JSON object). Silently
  /// drops the record on I/O failure — observability never fails a query.
  void Append(const std::string& json_line);
  const std::string& path() const { return path_; }

 private:
  std::mutex mu_;
  std::string path_;
};

}  // namespace nalq::obs

#endif  // NALQ_OBS_TRACE_H_
