// Parallel partitioned execution for the NAL streaming executor — classical
// exchange-operator parallelism over the Volcano cursors of cursor.h.
//
// The plan is cut at a *partition point*: a maximal run of per-tuple
// streaming operators (σ, χ, Υ, μ, Π-keep/drop — see IsPartitionableOp)
// sitting above an expanding producer. The producer subtree runs serially on
// the consumer thread and its tuple stream is split into chunks ("morsels");
// each chunk becomes a task on the scheduler's FIFO queue (scheduler.h)
// that runs the chunk through a per-worker clone of the operator run — its
// own cursor chain over the shared plan, driven by its own Evaluator — and
// publishes the resulting packet under the chunk's ticket. The MergeCursor
// re-emits packets in strict ticket order, so the merged stream is
// tuple-for-tuple the serial streaming stream.
//
// Determinism guarantees, at any worker count and chunk size:
//   * output bytes — the worker segment never writes to the Ξ output stream
//     (the run checked CheckPlanShape, so the only Ξ is the root, which no
//     segment contains), everything above the exchange runs on the consumer
//     thread in merge order, and the producer subtree runs serially on the
//     consumer thread too, so every output write happens in the serial
//     order;
//   * merged EvalStats — every per-worker counter counts per-tuple events
//     exactly once, so the fold of worker stats into the main evaluator at
//     Close (EvalStats::operator+=) reproduces the serial totals.
// tests/exchange_exec_test.cpp asserts both differentially.
//
// Pipeline breakers never join a segment: they stay above the exchange on
// the consumer thread, where the spool layer bounds them at any budget.
// Workers therefore carry no SpoolContext, and only the consumer thread
// submits tasks.
//
// Shared read paths that make this safe: the store's build-once index latch
// (xml/store.h), the node atom table (xml/node.h: a hit is one acquire
// load, only a fill takes its mutex) and the per-thread scratch buffers in
// xpath.cpp/physical.cpp.
#ifndef NALQ_NAL_EXCHANGE_H_
#define NALQ_NAL_EXCHANGE_H_

#include <optional>
#include <vector>

#include "nal/cursor.h"

namespace nalq::nal {

/// A chosen cut of the plan: `segment` (top-down, segment.front() == top)
/// is the run of per-tuple operators every worker clones; `source` is the
/// producer subtree below it, evaluated serially.
struct PartitionPoint {
  const AlgebraOp* top = nullptr;
  std::vector<const AlgebraOp*> segment;
  const AlgebraOp* source = nullptr;
};

struct ParallelOptions {
  /// Degree of parallelism (worker pipelines / concurrent chunk tasks).
  /// 0 = one worker per hardware core (ResolveParallelThreads).
  unsigned threads = 0;
  /// Morsel size: the producer streams fixed-size chunks, dispatched
  /// round-robin — bounded memory, overlap of production and processing.
  uint32_t chunk_tuples = 64;
};

/// Per-worker footprint the budget accountant cannot see — the dispatch-
/// window chunk and result packet in flight on each worker. The effective
/// worker count is clamped to budget / this (minimum one), keeping that
/// uncharged memory proportional to the budget.
inline constexpr uint64_t kMinWorkerBudgetBytes = 256 * 1024;

/// The effective degree of parallelism for a `threads` request: the request
/// itself when non-zero, else one worker per hardware core. `budget_bytes`
/// != 0 additionally applies the kMinWorkerBudgetBytes clamp. Exposed so
/// the cost-driven placement chooser (opt/parallel.h) prices exactly the
/// worker count the exchange would run.
unsigned ResolveParallelThreads(unsigned threads, uint64_t budget_bytes);

/// Finds the deepest maximal run of partitionable operators on the plan's
/// child(0) spine whose producer is an expanding operator (Υ/μ), demoting
/// non-expanding spine tail ops into the source so the chunked stream has
/// real cardinality. nullopt if the plan has no such cut — the caller falls
/// back to serial streaming.
std::optional<PartitionPoint> FindPartitionPoint(const AlgebraOp& root);

/// The exchange cursor spanning `cut`, run with `*ctx.parallel`: what
/// MakeCursor builds at the cut's top (ExecContext::cut).
CursorPtr MakeExchangeCursor(const PartitionPoint& cut, ExecContext& ctx);

/// Pull-runs `op` with the partitionable segment executed in parallel,
/// discarding root tuples — the parallel counterpart of DrainStreaming, and
/// the same run loop (cursor.cpp). Byte-identical output and identical
/// (merged) EvalStats at any `threads` and any memory budget. Falls back to
/// serial streaming when no partition point exists.
///
/// `spool` carries the run's memory budget and grace row hints exactly as
/// for DrainStreaming (null: a local context from
/// SpoolContext::ResolveBudgetBytes(0)). Every pipeline breaker runs on the
/// consumer thread and charges its one MemoryBudget accountant, so the
/// breakers see the whole limit. Workers buffer nothing the accountant
/// sees; under a finite budget the effective degree of parallelism is
/// clamped (see kMinWorkerBudgetBytes) so a high thread count cannot
/// over-commit it through per-worker in-flight chunks.
uint64_t DrainParallel(Evaluator& ev, const AlgebraOp& op,
                       const ParallelOptions& options = {},
                       StreamStats* stream = nullptr,
                       SpoolContext* spool = nullptr);

/// Pull-runs `op` in parallel and collects the root output — the parallel
/// counterpart of ExecuteStreaming, used by the differential tests. The
/// returned values may borrow atoms: see xml/store.h, borrowed atoms.
Sequence ExecuteParallel(Evaluator& ev, const AlgebraOp& op,
                         const ParallelOptions& options = {},
                         StreamStats* stream = nullptr,
                         SpoolContext* spool = nullptr);

}  // namespace nalq::nal

#endif  // NALQ_NAL_EXCHANGE_H_
