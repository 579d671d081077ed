// Shared benchmark harness: engine setup per use case, adaptive timing and
// paper-style table printing.
//
// Each bench binary regenerates one table of the paper's Sec. 5. Absolute
// times differ from the 2003 testbed (Natix on a 2.4 GHz P4); the reported
// *shape* — nested plans scale quadratically, unnested plans linearly, who
// wins by what factor — is the reproduction target (see EXPERIMENTS.md).
#ifndef NALQ_BENCH_BENCH_COMMON_H_
#define NALQ_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"

namespace nalq::bench {

/// Wall-clock seconds for one evaluation of `plan` (median of `repeats`
/// runs; repeats shrink automatically for slow plans).
double TimePlan(const engine::Engine& engine, const nal::AlgebraPtr& plan,
                int repeats = 3,
                engine::ExecMode mode = engine::ExecMode::kStreaming,
                engine::PathMode path_mode = engine::PathMode::kIndexed);

/// One machine-readable measurement: a plan's wall-clock seconds plus the
/// EvalStats counters, under one executor × path-mode × memory-budget
/// combination.
struct BenchRecord {
  std::string bench;      ///< experiment id, e.g. "E1"
  std::string plan;       ///< plan label, e.g. "grouping"
  std::string parameter;  ///< table parameter, e.g. authors/book; may be empty
  std::string size;       ///< problem size, e.g. books
  std::string mode;       ///< "streaming" | "materializing" | "parallel"
                          ///< | "estimate" (optimizer record, not a timing)
  std::string path;       ///< "indexed" | "scan"
  unsigned threads = 1;   ///< degree of parallelism (1 for the serial modes)
  uint64_t budget = 0;    ///< memory_budget_bytes (0 = unlimited)
  double seconds = 0;
  nal::EvalStats stats;   ///< stats.spill reports the budgeted runs' spilling
  /// Executor-private streaming counters from one run (nal/cursor.h).
  /// exchange_dop lands in BENCH_results.json so CI can assert that some
  /// parallel run actually went wide.
  nal::StreamStats exec;

  // Optimizer fields, set on mode == "estimate" records (-1 otherwise):
  // the cost model's view of the plan named by `plan` (here the rewrite
  // rule), plus which policy picked it, so estimated-vs-measured accuracy
  // is computable from BENCH_results.json alone.
  double est_cost = -1;        ///< total estimated cost units
  double est_rows = -1;        ///< estimated output rows
  int chosen_by_cost = -1;     ///< 1 = PlanChoice::kCost picked this plan
  int chosen_by_priority = -1; ///< 1 = rule-priority ranking would pick it
  /// Measured root tuples for the plan the estimate record describes
  /// (RecordPlanEstimates runs the chosen alternative once when handed the
  /// engine), so estimate-vs-actual row accuracy — the drift signal the
  /// calibration workflow watches — is computable from the JSON alone.
  double actual_rows = -1;

  // Service fields, set on mode == "service" records (-1 otherwise): one
  // record summarizes a sustained open-loop run against the concurrent
  // query service (bench/bench_service.cpp), so throughput, tail latency
  // and the overload behavior (sheds, degradations) land in
  // BENCH_results.json next to the single-query timings.
  double qps = -1;             ///< completed queries per second
  double p50_ms = -1;          ///< median end-to-end latency (queue + run)
  double p99_ms = -1;          ///< 99th-percentile end-to-end latency
  int64_t svc_submitted = -1;
  int64_t svc_completed = -1;
  int64_t svc_rejected = -1;   ///< shed at submission (queue full)
  int64_t svc_shed = -1;       ///< all admission sheds (full + queue deadline)
  int64_t svc_degraded = -1;   ///< admissions with a shrunken budget grant

  // Profile fields, set on mode == "profile" records (RecordPlanEstimates
  // emits one per experiment × size when handed the engine): the cost-chosen
  // plan run once with per-operator profiling on (src/obs/profile.h).
  // `seconds` is the profiling-OFF median and `profiled_seconds` the
  // profiling-ON median of the same plan, so the profiling overhead is a
  // number in BENCH_results.json, not an assumption.
  double profiled_seconds = -1;

  // Storage fields, set on mode == "storage" records (-1 otherwise): one
  // record per corpus compares a cold start (parse the XML text) against a
  // warm attach of the persisted store (bench/bench_q1_dblp.cpp), and
  // reports what lazy page-in actually materialized after one query.
  double cold_open_s = -1;       ///< parse-from-text wall clock
  double warm_open_s = -1;       ///< PersistentStore attach wall clock
  int64_t persisted_bytes = -1;  ///< on-disk store size
  int64_t resident_bytes = -1;   ///< store residency charge after one query
  int64_t rss_delta_bytes = -1;  ///< process RSS growth across attach + query
  /// One row per plan operator (preorder): the optimizer's estimated rows
  /// next to the measured rows — the per-operator drift table
  /// tools/compare_estimates.py renders.
  struct OpRow {
    std::string op;          ///< operator headline (nal/printer.h)
    double est_rows = -1;    ///< optimizer estimate (-1 = unavailable)
    double actual_rows = -1; ///< measured rows (obs::OpMetrics::rows)
  };
  std::vector<OpRow> operators;
};

/// Queues `record` for WriteBenchResults().
void RecordBench(BenchRecord record);

/// Writes every record of this process to `path` (default
/// BENCH_results.json, next to the paper-style stdout tables), merging with
/// records other bench binaries already wrote there: existing entries are
/// kept unless this process re-measured the same experiment id.
void WriteBenchResults(const char* path = "BENCH_results.json");

/// Times `plan` under BOTH executors × BOTH path modes plus the parallel
/// executor (indexed path) across threads ∈ {1, 2, 4, hw}, records every
/// measurement (with EvalStats from one run each) under experiment `bench`,
/// and returns the streaming+indexed seconds (the engine default) — a
/// drop-in replacement for TimePlan in the table loops.
///
/// Additionally sweeps memory_budget_bytes ∈ {64 MB, 8 MB, 1 MB} over the
/// budget-aware executors (streaming, and parallel at threads {1, 4}),
/// recording the budget and the SpillStats counters with each record so
/// the spill activity of the memory-bounded runs lands in
/// BENCH_results.json next to their timings.
double TimePlanRecorded(const engine::Engine& engine,
                        const nal::AlgebraPtr& plan, const std::string& bench,
                        const std::string& plan_label,
                        const std::string& parameter, const std::string& size,
                        int repeats = 3);

/// Measures cancellation latency: starts the plan under a shared
/// QueryControl token, requests cancellation from another thread after
/// `fuse_ms`, and records one mode="cancel" BenchRecord whose `seconds` is
/// the cancel-request → return latency (the query-lifecycle bound the
/// robustness tests assert; see src/nal/README.md). Returns that latency,
/// or a negative value when the plan finished before the fuse — in which
/// case nothing is recorded (the measurement would be meaningless).
double TimeCancelRecorded(const engine::Engine& engine,
                          const nal::AlgebraPtr& plan,
                          const std::string& bench,
                          const std::string& plan_label,
                          const std::string& size, unsigned fuse_ms = 10);

/// Records the optimizer's view of one compiled query under experiment
/// `bench`: one mode="estimate" record per alternative, carrying the rule
/// name as the plan label, est_cost/est_rows from CompiledQuery::estimates
/// and the two choice flags — so BENCH_results.json reports
/// estimated-vs-measured accuracy and whether cost-based choice picks the
/// empirically fastest alternative (see EXPERIMENTS.md PR 5 notes).
///
/// When `engine` is non-null the cost-chosen alternative is additionally
/// run once (streaming) and its record carries the measured root-tuple
/// count in `actual_rows`, the estimate-vs-actual drift signal of the
/// calibration workflow (src/opt/README.md).
void RecordPlanEstimates(const engine::CompiledQuery& q,
                         const std::string& bench, const std::string& size,
                         const engine::Engine* engine = nullptr);

/// Formats seconds the way the paper's tables do ("0.08 s", "7.04 s").
std::string FormatSeconds(double s);

/// One row of a result table.
struct Row {
  std::string plan;
  std::string parameter;  // e.g. authors per book; may be empty
  std::vector<std::string> cells;
};

/// Prints a paper-style table.
void PrintTable(const std::string& title, const std::string& parameter_name,
                const std::vector<std::string>& column_headers,
                const std::vector<Row>& rows);

/// Quadratic extrapolation marker for cells too slow to measure directly
/// (the paper itself stops measuring the nested plan on DBLP, Sec. 5.1).
std::string Extrapolated(double seconds);

/// True if the full (slow) nested measurements were requested via
/// --full on the command line.
bool FullRuns(int argc, char** argv);

/// Loads bib.xml (+DTD) into a fresh engine.
void LoadBib(engine::Engine* engine, size_t books, int authors_per_book);
/// Loads prices.xml.
void LoadPrices(engine::Engine* engine, size_t entries);
/// Loads bib.xml and reviews.xml.
void LoadBibAndReviews(engine::Engine* engine, size_t n);
/// Loads bids.xml (items = bids/5).
void LoadBids(engine::Engine* engine, size_t bids);

}  // namespace nalq::bench

#endif  // NALQ_BENCH_BENCH_COMMON_H_
