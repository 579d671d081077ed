// Measurement helpers of the end-to-end benchmark: order statistics,
// seeded streams, response digests, process counters, the host reference
// probe and the in-memory span recorder of the traced run.
#ifndef NALQ_PERFBENCH_MEASURE_H_
#define NALQ_PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to);

/// The q-quantile (0 <= q <= 1) of `values`, linearly interpolated between
/// the two nearest order statistics; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Geometric mean of positive values; 0 for an empty sample.
double GeoMean(const std::vector<double>& values);
/// num / den, or 0 when den is 0 (a counter that never ran).
double Ratio(double num, double den);
/// max(est/act, act/est) with both clamped to at least 1 row.
double QError(double estimated, double actual);

/// splitmix64: every stream of the benchmark derives from the --seed value
/// through this generator, so one seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n);
  double Unit();  ///< uniform in [0, 1)
  /// An independent stream for `purpose`.
  Rng Fork(uint64_t purpose) const;

 private:
  uint64_t state_;
};

/// A uniformly random permutation of 0..n-1 (Fisher-Yates).
std::vector<int> Permutation(int n, Rng* rng);

/// Zipf(s) ranks 0..n-1 by inversion of the cumulative distribution.
class Zipf {
 public:
  Zipf(int n, double s);
  int Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// 64-bit FNV-1a digest of a response; with the length it identifies the
/// response bytes for the output check.
uint64_t Digest(std::string_view bytes);

/// Process CPU time, minor page faults and peak RSS (getrusage).
struct ProcUsage {
  double cpu_ms = 0;
  double minor_faults = 0;
  double peak_rss_mb = 0;
};
ProcUsage ReadProcUsage();

/// Milliseconds of a fixed CPU-only loop. No change to the engine can move
/// it; a run whose value is high was taken while the host was slow.
double HostReferenceMs();

/// One timed call into a layer. Times are nanoseconds since the recorder's
/// epoch; `parent` is the index of the enclosing span or -1. `name` and
/// `layer` point to strings with static storage duration.
struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;
};

/// In-memory span log of the traced run. Not thread-safe: set-up and the
/// client thread write to it one after the other. Spans stay in memory
/// until WriteJson at exit.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, const char* layer, int64_t request);
  void End(int index);
  /// Records a finished span with explicit bounds (for intervals a call
  /// reports about itself, such as a service's queue and run time).
  void Add(const char* name, const char* layer, int64_t request,
           int64_t start_ns, int64_t end_ns, int parent);
  int64_t Now() const;
  int64_t Duration(int index) const {
    return spans_[index].end_ns - spans_[index].start_ns;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Self time per span: its duration minus the time its children cover.
  std::vector<int64_t> SelfTimes() const;
  /// Writes every span as one row of a JSON table (README.md, "Traced
  /// run"); names and layers are stored once and referenced by index.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span on a SpanLog; a null log records nothing.
class Span {
 public:
  Span(SpanLog* log, const char* name, const char* layer, int64_t request)
      : log_(log), index_(log ? log->Begin(name, layer, request) : -1) {}
  ~Span() {
    if (log_) log_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

/// Shortest text that reads back as exactly `v` (all digits kept).
std::string NumberText(double v);

}  // namespace perfbench

#endif  // NALQ_PERFBENCH_MEASURE_H_
