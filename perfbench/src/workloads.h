// The three workloads of the end-to-end benchmark (README.md has why each
// exists and which layer it exercises) and the pieces the self-test
// checks: the seeded request streams and the output check.
#ifndef NALQ_PERFBENCH_WORKLOADS_H_
#define NALQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span JSON and layer table into.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics on an untraced run, per-layer metrics on a traced
  /// one.
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Sets up the workload, runs its timed window(s), checks every response
/// and returns the metrics. Human-readable detail goes to stdout.
Report RunWorkload(const RunOptions& options);

/// What a workload sends: which shapes, which of them twice, over how many
/// tenants, and whether every request is a new text.
struct StreamSpec {
  std::vector<std::string> shapes;
  /// Shapes sent a second time each round with the defaults.
  std::vector<std::string> repeated_shapes;
  /// Shapes sent a second time each round, under ExecMode::kParallel.
  std::vector<std::string> parallel_shapes;
  int tenants = 0;    ///< 0 = the one shared corpus
  bool vary = false;  ///< rename variables, vary constants, Zipf tenants
};
StreamSpec SpecFor(const std::string& workload);

/// One request of a stream: the query text and what it computes.
struct Request {
  int shape = 0;    ///< index into AllShapes()
  int tenant = -1;  ///< -1 = the shared corpus
  int constant = 0;
  bool parallel = false;  ///< ExecMode::kParallel instead of the default
  std::string text;
};

/// The requests of the client, round by round. Each round is a seeded
/// permutation of the spec's whole mix, so every run has the same mix.
class RequestStream {
 public:
  RequestStream(const StreamSpec& spec, uint64_t seed);
  std::vector<Request> NextRound();

 private:
  const StreamSpec spec_;
  std::vector<std::pair<int, bool>> mix_;  ///< (shape, parallel) per slot
  Rng order_;
  Rng tenants_;
  Rng constants_;
  Zipf zipf_;
  uint64_t sequence_ = 0;
};

/// What a response computed, for the output check: (shape, tenant,
/// constant). Variable names and the executor do not change the result.
using OutputKey = std::tuple<int, int, int>;
/// Digest and length of a response.
using OutputId = std::pair<uint64_t, uint64_t>;

/// Compares every response with the reference output of its key, which
/// `reference` computes once per key. Returns the number of mismatches and
/// names each one on stderr.
uint64_t CountMismatches(
    const std::vector<std::pair<OutputKey, OutputId>>& responses,
    const std::function<OutputId(const OutputKey&)>& reference);

/// The self-checks of the benchmark's own code; returns the failures.
int RunSelfTest();

}  // namespace perfbench

#endif  // NALQ_PERFBENCH_WORKLOADS_H_
