// Concurrent query service: admission control, graceful overload
// degradation, and plan caching over the single-query Engine façade.
//
// The paper's experiments run one query at a time inside Natix; a real
// embedding serves many clients against one store and one memory budget.
// QueryService is that front-end. It owns nothing the Engine doesn't
// already have — it partitions the global MemoryBudget across in-flight
// queries, shares the process-wide scheduler pool, and composes the
// lifecycle primitives (QueryControl deadlines/cancellation, spool-backed
// spilling, structured engine::Error) into a thread-safe Execute() that
// never OOMs and never crashes under overload. Overload degrades in a
// fixed ladder (see "Admission" below): first new queries lose budget
// headroom (forcing them to spill) and parallelism, then they queue, and
// only then are they shed with ErrorCode::kAdmissionRejected.
//
// Threading model. Execute() is safe from any number of threads. A query
// runs on its caller's thread after admission — the service adds no runner
// pool of its own; parallelism inside a run still comes from the one
// process-wide FIFO scheduler (nal/scheduler.h), bounded per query by the
// granted worker cap. Admission state (the reservation
// ledger, the FIFO queue, the plan cache) lives behind one mutex; waits
// tick every ~10ms so a queued query observes RequestCancel and deadline
// expiry promptly.
//
// Admission. Each submission is compiled first (a cache hit makes this
// free) and its cost-model footprint — CompiledQuery::best_estimate.
// peak_breaker_bytes, the estimate of the plan that will run — asks the
// ledger for a budget grant:
//
//   min_grant = min(64 KiB, max(B / max_concurrent, 1))      B = budget
//   desired   = clamp(2 × footprint, min_grant, max(B/2, min_grant))
//
//   free >= desired     -> admit with the full grant
//   free >= min_grant   -> admit with `free` (degraded: the shrunken
//                          grant forces the run to spill instead of
//                          keeping its breakers resident — shrink before
//                          shed)
//   otherwise           -> queue, FIFO, up to queue_depth deep
//
// The ledger invariant Σ grants ≤ B holds at every instant, so the
// aggregate resident memory of all admitted queries never exceeds the
// global budget (each run gets a private accountant of exactly its grant).
// B = 0 means unlimited memory: admission bounds concurrency only.
// Queued submissions are admitted in FIFO order (no overtaking); a
// submission that would exceed queue_depth, or that waits past its queue
// deadline, is shed with kAdmissionRejected — a structured result, never
// an exception, never an OOM. Degraded admissions also drop to one worker
// thread, as do admissions made while anyone queues behind them.
//
// Deadlines compose with queue time: QueryOptions::deadline_ms is armed on
// the run's QueryControl token at submission, so one budget of
// milliseconds covers wait + run (Engine::Run is given no deadline of its
// own and leaves the token as armed). A caller deadline that expires while
// queued returns kDeadlineExceeded; the queue deadline (a service policy,
// default 1 s) returns kAdmissionRejected; RequestCancel while queued
// returns kCancelled.
//
// Plan cache. Keyed on (query text, plan choice) and validated against
// Store::version() — every AddDocument / RegisterDtd bumps the version
// through the single-writer contract, so a hit is provably compiled
// against the current documents and statistics. Entries hold the full
// CompiledQuery by shared_ptr (concurrent hits share it; Engine::Run only
// reads the plan). 64 entries, least-recently-used eviction.
// Compilation uses the service-wide budget (not the per-query grant) so
// cost-based plan choice is deterministic across admissions and the cache
// key stays budget-free.
//
// Store writes. Loading documents is NOT serialized by the service: the
// store's single-writer contract stands. Load through engine().AddDocument
// before serving, or Drain() first; Debug builds assert on violation
// exactly as before.
//
// Accounting. The metrics registry is the service's only account of query
// outcomes: every instrument is looked up once at construction, and every
// way Execute() can end is counted through one error-code -> counter
// mapping. Ledger state (in_flight, reserved and peak reserved bytes) is
// read through accessors.
#ifndef NALQ_SERVICE_QUERY_SERVICE_H_
#define NALQ_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "engine/engine.h"
#include "engine/error.h"
#include "nal/query_control.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nalq::service {

/// Service-wide policy. Fields left at 0 resolve to the named default
/// once, in the constructor (QueryService::options() reads them back).
struct ServiceOptions {
  /// Global memory budget partitioned across in-flight queries.
  /// 0 -> NALQ_MEMORY_BUDGET_BYTES (malformed text throws
  /// engine::Error(kPlanError), see nal/env_knobs.h) -> unlimited.
  uint64_t memory_budget_bytes = 0;
  /// Maximum queries running at once. 0 -> hardware_concurrency.
  unsigned max_concurrent = 0;
  /// Maximum queued (admitted-pending) submissions beyond the running set;
  /// a submission past this depth is shed immediately. 0 -> 16.
  unsigned queue_depth = 0;
  /// How long a submission may wait in the queue before it is shed with
  /// kAdmissionRejected. 0 -> 1000.
  uint64_t queue_deadline_ms = 0;
  /// Persisted store directory to warm-attach at construction
  /// (Engine::AttachStore: documents page in lazily instead of being
  /// re-parsed from text; see src/storage/README.md). Only applied when
  /// the engine's store is still empty — an engine already holding
  /// documents keeps them. Empty -> no attach. A missing, corrupt or
  /// foreign-version store fails construction with the structured store
  /// error (kStoreIo / kStoreCorrupt / kStoreVersionMismatch) — fail
  /// closed at startup, not at first query.
  std::string store_dir;

  // ---- observability (src/obs/) ------------------------------------------
  /// Queries whose end-to-end latency (queue wait + run) reaches this many
  /// milliseconds are appended — with their full per-operator profile — to
  /// the slow-query log. Arming this implies profiling for every query, so
  /// the profile is there when the threshold trips. 0 -> off.
  uint64_t slow_query_ms = 0;
  /// Directory for per-query Chrome trace_event JSON files (one file per
  /// query, covering submit -> compile -> admit -> execute plus per-worker
  /// exchange spans). Must exist. Empty -> tracing off.
  std::string trace_dir;
  /// Slow-query log file (JSON lines). Empty -> `<trace_dir>/
  /// nalq_slow_queries.jsonl`, or `./nalq_slow_queries.jsonl` when tracing
  /// is off. Only used when slow_query_ms is armed.
  std::string slow_query_log_path;
};

/// Per-submission options.
struct QueryOptions {
  engine::ExecMode mode = engine::ExecMode::kStreaming;
  engine::PathMode path_mode = engine::PathMode::kIndexed;
  engine::PlanChoice choice = engine::PlanChoice::kCost;
  /// Requested worker threads (parallel mode); degraded and contended
  /// admissions run with one.
  unsigned threads = 0;
  /// Deadline covering queue wait + run; 0 = none.
  uint64_t deadline_ms = 0;
  /// Caller-owned cancellation token, honored while queued and while
  /// running; must outlive Execute(). Null = the service uses its own.
  nal::QueryControl* control = nullptr;
  /// Collect a per-operator profile for this query (QueryResult::
  /// profile_json). Never changes the output bytes; also switched on
  /// for every query by arming ServiceOptions::slow_query_ms.
  bool profile = false;
};

/// Structured outcome. Failures are results, not exceptions: every error
/// raised while compiling, admitting or running a query comes back here.
struct QueryResult {
  bool ok = false;
  std::string output;       ///< byte-identical to a serial Engine run
  nal::EvalStats stats;     ///< meaningful when ok

  /// Failure taxonomy (meaningful when !ok).
  engine::ErrorCode error_code = engine::ErrorCode::kPlanError;
  std::string error_what;   ///< full engine::Error::what() text

  // Admission diagnostics (always filled).
  bool cache_hit = false;   ///< plan came from the cache
  bool queued = false;      ///< waited in the admission queue
  bool degraded = false;    ///< shrunken budget grant and/or forced serial
  unsigned threads_granted = 0;   ///< 0 = engine default
  uint64_t budget_granted = 0;    ///< private accountant limit; 0 = unlimited
  double queue_seconds = 0.0;
  double run_seconds = 0.0;

  /// Per-operator profile tree as JSON (obs::QueryProfile::ToJson); empty
  /// unless profiling was on for this query (QueryOptions::profile or an
  /// armed slow-query threshold) and the run started.
  std::string profile_json;
};

class QueryService {
 public:
  /// `engine` must outlive the service. Resolves every 0-valued option to
  /// its default. Throws engine::Error(kPlanError) on a trace_dir that is
  /// not a directory or a malformed NALQ_MEMORY_BUDGET_BYTES, and the
  /// structured store error on a store_dir that cannot be attached.
  explicit QueryService(engine::Engine& engine, ServiceOptions options = {});
  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Compiles (or cache-hits), admits, runs, and returns a structured
  /// result. Blocking; safe from any number of threads concurrently.
  QueryResult Execute(const std::string& query_text, QueryOptions q = {});

  /// Blocks until no query is running or queued. With the ledger invariant
  /// this is the quiescent point where reserved_bytes() == 0 and the spool
  /// layer has deleted every temp file (asserted by tests/service_test.cpp).
  void Drain();

  engine::Engine& engine() { return engine_; }
  const ServiceOptions& options() const { return options_; }

  /// The service's metrics registry, its only account of query outcomes
  /// (live; updated by every Execute).
  /// Families: nalq_queue_seconds / nalq_run_seconds / nalq_query_seconds /
  /// nalq_grant_bytes histograms, nalq_queries_*_total outcome counters,
  /// nalq_plan_cache_{hits,misses}_total + nalq_plan_cache_hit_ratio, and
  /// nalq_spill_bytes_total (see src/obs/README.md).
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Prometheus text exposition of every registered metric.
  std::string MetricsText() const { return metrics_.PrometheusText(); }
  /// The same data as one JSON object.
  std::string MetricsJson() const { return metrics_.Json(); }
  /// Currently admitted (running) queries.
  unsigned in_flight() const;
  /// Sum of outstanding budget grants (≤ options().memory_budget_bytes).
  uint64_t reserved_bytes() const;
  /// High-water mark of reserved_bytes() since construction.
  uint64_t peak_reserved_bytes() const;

 private:
  struct CacheEntry {
    std::shared_ptr<const engine::CompiledQuery> compiled;
    uint64_t store_version = 0;
    uint64_t last_used = 0;  ///< LRU tick
  };
  struct Admission {
    bool admitted = false;
    bool degraded = false;
    bool queued = false;
    uint64_t grant = 0;
    unsigned threads = 0;
    engine::ErrorCode reject_code = engine::ErrorCode::kAdmissionRejected;
    std::string reject_what;
  };

  std::shared_ptr<const engine::CompiledQuery> CompileCached(
      const std::string& query_text, engine::PlanChoice choice,
      bool* cache_hit);
  Admission Admit(uint64_t footprint, unsigned requested_threads,
                  nal::QueryControl* control,
                  nal::QueryControl::Clock::time_point queue_deadline);
  void Release(uint64_t grant);

  /// The outcome counter of a finished query: completed, or its error code
  /// mapped to cancelled / deadline_expired / shed / failed.
  obs::Counter& Outcome(const QueryResult& r);

  engine::Engine& engine_;
  ServiceOptions options_;  ///< fully resolved (no zeros with defaults)

  mutable std::mutex mu_;
  std::condition_variable cv_;
  unsigned active_ = 0;
  uint64_t reserved_ = 0;
  uint64_t peak_reserved_ = 0;
  uint64_t next_ticket_ = 0;
  std::deque<uint64_t> queue_;  ///< FIFO of waiting tickets

  std::unordered_map<std::string, CacheEntry> cache_;
  uint64_t cache_tick_ = 0;

  /// Internally thread-safe (atomic instruments); not guarded by mu_.
  mutable obs::MetricsRegistry metrics_;
  // Its instruments, looked up once at construction (declared after
  // metrics_, which initializes them).
  obs::Counter& submitted_;
  obs::Counter& admitted_;
  obs::Counter& completed_;
  obs::Counter& failed_;
  obs::Counter& shed_;
  obs::Counter& degraded_;
  obs::Counter& cancelled_;
  obs::Counter& deadline_expired_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& spill_bytes_;
  obs::Gauge& cache_hit_ratio_;
  obs::Histogram& queue_seconds_;
  obs::Histogram& run_seconds_;
  obs::Histogram& query_seconds_;
  obs::Histogram& grant_bytes_;
  /// Non-null iff slow_query_ms is armed; internally mutex-guarded.
  std::unique_ptr<obs::SlowQueryLog> slow_log_;
};

}  // namespace nalq::service

#endif  // NALQ_SERVICE_QUERY_SERVICE_H_
