// Engine façade: document store + DTD registry + the full pipeline
// parse → normalize → translate → unnest → evaluate.
#ifndef NALQ_ENGINE_ENGINE_H_
#define NALQ_ENGINE_ENGINE_H_

#include <string>
#include <string_view>
#include <vector>

#include "engine/error.h"
#include "nal/cursor.h"
#include "nal/eval.h"
#include "nal/query_control.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "rewrite/unnester.h"
#include "xml/dtd.h"
#include "xml/store.h"
#include "xml/xpath.h"
#include "xquery/ast.h"

namespace nalq::engine {

/// How Compile picks CompiledQuery::best among the unnesting alternatives.
enum class PlanChoice {
  /// Cost-based: every alternative is estimated against the store's
  /// document statistics (opt/chooser.h) under the active memory budget and
  /// the cheapest wins; ties fall back to the rule-priority ranking. The
  /// default — the paper's "the most efficient plan should be chosen".
  kCost,
  /// The pre-optimizer static policy: the most restrictive applicable
  /// equivalence by rule name (rewrite::RulePriority), iterated over all
  /// nested blocks. Kept as the differential reference and for stores
  /// without representative statistics.
  kRulePriority,
  /// No choice: best = the original nested plan; callers pick from
  /// `alternatives` themselves (benchmarks, plan exploration).
  kManual,
};

/// Compilation artifact: every stage's output plus all plan alternatives.
struct CompiledQuery {
  xquery::AstPtr ast;
  xquery::AstPtr normalized;
  nal::AlgebraPtr nested_plan;
  /// All alternatives — the closure over every rewrite site
  /// (Unnester::AllAlternatives), [0] = {"nested", nested_plan}.
  std::vector<rewrite::Alternative> alternatives;
  /// The plan Run/RunQuery would execute, per the requested PlanChoice.
  rewrite::Alternative best;

  /// Optimizer estimate per alternative (same order as `alternatives`),
  /// computed against the store statistics and the budget Compile saw.
  std::vector<opt::PlanEstimate> estimates;
  /// Index into `alternatives` of the cost-based winner (even when `best`
  /// was selected by another policy — benchmarks compare the two).
  size_t cost_choice = 0;
  /// The estimate of `best.plan` under the same statistics and budget:
  /// estimates[cost_choice] under kCost, estimates[0] under kManual, and
  /// its own estimate under kRulePriority (Unnester::Best builds a fresh
  /// plan that is no element of `alternatives`). The query service sizes
  /// admission grants from its peak_breaker_bytes.
  opt::PlanEstimate best_estimate;
  /// The policy that selected `best`.
  PlanChoice choice = PlanChoice::kCost;

  /// Alternative whose rule name contains `rule_substring`, or nullptr.
  const rewrite::Alternative* Find(std::string_view rule_substring) const;
};

/// Opt-in observability for one run (src/obs/). Both members default to
/// "off".
struct RunInstrumentation {
  /// Collect a per-operator QueryProfile (RunResult::profile). Never
  /// changes the run's output or EvalStats.
  bool profile = false;
  /// Caller-owned span sink for lifecycle tracing, or null. Run records its
  /// execute span (and the exchange its per-worker spans) into it and never
  /// writes it out: the caller — e.g. the query service, which owns spans
  /// for the whole submit→merge lifecycle — decides where it goes
  /// (obs::TraceLog::WriteFile).
  obs::TraceLog* trace = nullptr;
};

/// One query execution's outcome.
struct RunResult {
  std::string output;
  nal::EvalStats stats;
  /// Executor-private streaming bookkeeping (nal/cursor.h): breaker
  /// buffering plus the exchange's chunk count and widest dop. Unlike
  /// `stats`, NOT part of the byte-identical cross-executor contract; all
  /// zero under kMaterializing.
  nal::StreamStats exec;
  /// Root tuples the run produced — the "actual rows" the benchmark
  /// harness compares against the optimizer's row estimate.
  uint64_t root_tuples = 0;
  /// Per-operator profile (enabled == false unless the run asked for one
  /// via RunInstrumentation::profile). Per-operator
  /// `rows` partition stats.tuples_produced and are identical across
  /// executors and thread counts; est_rows carries the optimizer's
  /// node-level row estimates for drift analysis
  /// (tools/compare_estimates.py).
  obs::QueryProfile profile;
};

/// Which executor evaluates a plan. All three produce byte-identical output
/// and identical EvalStats (asserted by tests/streaming_exec_test.cpp and
/// tests/exchange_exec_test.cpp); the streaming executor pipelines tuples
/// and only materializes at true pipeline breakers (see src/nal/cursor.h),
/// and the parallel executor additionally runs the plan's per-tuple operator
/// segment across worker threads via an order-preserving exchange
/// (src/nal/exchange.h), falling back to serial streaming on plans without
/// a partitionable segment.
enum class ExecMode {
  kStreaming,      ///< Volcano-style pull executor (default)
  kMaterializing,  ///< operator-at-a-time Evaluator::Eval
  kParallel,       ///< exchange-parallel streaming (threads knob on Run)
};

/// Which XPath evaluation strategy the evaluators use (xml/xpath.h). Both
/// produce identical results on every path and plan (asserted by
/// tests/xpath_index_test.cpp); only the XPathStats counters differ.
using PathMode = xml::PathEvalMode;

class Engine {
 public:
  Engine() = default;

  xml::Store& store() { return store_; }
  const xml::Store& store() const { return store_; }
  const xml::DtdRegistry& dtds() const { return dtds_; }

  /// Parses and stores a document. If the text carries a DOCTYPE internal
  /// subset, its DTD is registered automatically.
  void AddDocument(const std::string& name, std::string_view xml_text);

  /// Registers (or overrides) the DTD for `name`.
  void RegisterDtd(const std::string& name, std::string_view dtd_text);

  /// Warm-attach: opens the persisted store at `dir`
  /// (storage::PersistentStore) and attaches it to this engine's store as
  /// a lazy document source — documents page in on first access instead of
  /// being re-parsed from text, each index is built from its paged-in
  /// document, statistics come from the manifest without a page-in, and
  /// persisted DTDs are registered up front so translation works before
  /// any document is resident. The residency cache limit comes from
  /// NALQ_STORE_CACHE_BYTES (0/unset = keep everything resident once
  /// faulted). Throws engine::Error with a structured store code
  /// (kStoreIo / kStoreCorrupt / kStoreVersionMismatch) on a missing,
  /// corrupt or foreign-version store.
  void AttachStore(const std::string& dir);

  /// Serializes the store's documents into `dir`, one page file each, and
  /// their statistics into the manifest, with an atomic manifest commit
  /// (storage::Persist): a crash or I/O failure mid-persist leaves the
  /// directory's previous contents openable. Indexes are not persisted.
  void PersistStore(const std::string& dir) const;

  /// Full compilation pipeline. Throws on parse/translate errors.
  ///
  /// Estimation reads the store's index and statistics, so Compile counts
  /// as a reader under the single-writer contract (xml/store.h): do not
  /// load documents concurrently with a compile.
  ///
  /// `choice` selects how CompiledQuery::best is picked (see PlanChoice);
  /// `memory_budget_bytes` feeds the cost model so plan choice is
  /// budget-aware — a plan whose hash build side would spill under the
  /// budget is charged that I/O (0 = unlimited; the NALQ_MEMORY_BUDGET_BYTES
  /// environment default is applied by RunQuery, not here). Estimates for
  /// every alternative are recorded regardless of the policy.
  CompiledQuery Compile(std::string_view query_text,
                        PlanChoice choice = PlanChoice::kCost,
                        uint64_t memory_budget_bytes = 0) const;

  /// Evaluates a plan, returning the constructed result and statistics.
  /// `threads` is the degree of parallelism under ExecMode::kParallel
  /// (0 = one worker per hardware core) and ignored by the serial modes;
  /// output and stats are independent of the worker count. Every mode runs
  /// one plan shape, the one compilation produces (nal::CheckPlanShape): a
  /// hand-built plan with a Ξ below its root or in a subscript, or a cse_id
  /// in a subscript, throws engine::Error(kPlanError) before any work.
  ///
  /// `memory_budget_bytes` bounds what the executor's pipeline breakers
  /// keep resident (nal/spool.h): hash build sides grace-partition to temp
  /// files and Sort/Γ fall back to external merge sort once the budget is
  /// exhausted, with byte-identical output and identical non-spill stats at
  /// any budget (EvalStats::spill reports the spilling itself). 0 means
  /// unlimited unless the NALQ_MEMORY_BUDGET_BYTES environment variable
  /// supplies a default. The budget applies to the streaming and parallel
  /// executors; the materializing evaluator (a differential reference)
  /// ignores it, as do the RAM-resident exceptions documented in
  /// src/nal/README.md (CSE caches, XiGroup group construction and ΠD's
  /// distinct-key set).
  /// Under kParallel one shared accountant bounds the consumer and all
  /// workers, and the worker count is clamped so uncharged per-worker state
  /// cannot over-commit it (nal/exchange.h).
  ///
  /// Lifecycle knobs (src/nal/README.md, "Query lifecycle & failure
  /// semantics"): `deadline_ms` bounds the run on the monotonic clock — on
  /// expiry the run unwinds with engine::Error(kDeadlineExceeded), all temp
  /// files deleted and every budget byte released. 0 means no deadline.
  /// `control` shares a caller-owned cancellation token with the run
  /// (RequestCancel from any thread aborts it with kCancelled); when null
  /// but a deadline is given, Run wires an internal token. The token must
  /// outlive the call; a non-zero deadline_ms is armed on whichever token
  /// is used, and with 0 a caller's token keeps the deadline it carries.
  ///
  /// `instr` opts into per-operator profiling and lifecycle tracing (see
  /// RunInstrumentation); null means neither. Neither ever changes the
  /// run's output bytes or EvalStats.
  RunResult Run(const nal::AlgebraPtr& plan,
                ExecMode mode = ExecMode::kStreaming,
                PathMode path_mode = PathMode::kIndexed,
                unsigned threads = 0,
                uint64_t memory_budget_bytes = 0,
                uint64_t deadline_ms = 0,
                nal::QueryControl* control = nullptr,
                const RunInstrumentation* instr = nullptr) const;

  /// Convenience: compile with unnesting and run the best plan. Plan choice
  /// is cost-based (see PlanChoice::kCost) and budget-aware: the effective
  /// budget — the argument, or the NALQ_MEMORY_BUDGET_BYTES environment
  /// default when 0 — feeds the cost model before it gates the executor.
  /// `deadline_ms`/`control` govern the execution phase exactly as on Run
  /// (compilation is not deadline-bounded; it does no I/O and is orders of
  /// magnitude shorter than any run worth cancelling).
  RunResult RunQuery(std::string_view query_text,
                     ExecMode mode = ExecMode::kStreaming,
                     PathMode path_mode = PathMode::kIndexed,
                     unsigned threads = 0,
                     uint64_t memory_budget_bytes = 0,
                     PlanChoice choice = PlanChoice::kCost,
                     uint64_t deadline_ms = 0,
                     nal::QueryControl* control = nullptr,
                     const RunInstrumentation* instr = nullptr) const;

 private:
  xml::Store store_;
  xml::DtdRegistry dtds_;
};

}  // namespace nalq::engine

#endif  // NALQ_ENGINE_ENGINE_H_
