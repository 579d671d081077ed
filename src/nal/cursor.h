// Streaming, Volcano-style pull executor for the NAL algebra.
//
// One cursor per operator with the classic Open/Next/Close protocol.
// Tuples flow one at a time from the leaves to the root; a full intermediate
// Sequence is buffered only at the true pipeline breakers:
//
//   * Sort            — needs its whole input before the first output tuple,
//   * hash build sides — the right operand of ⋈/⋉/▷/outer-join/binary-Γ,
//   * Γ group construction — unary Γ and the group-detecting Ξ bucket their
//                       whole input by key,
//   * CSE nodes       — a shared subtree is computed once and its result
//                       re-read, which requires the result to exist.
//
// Everything else (σ, Π, χ, Υ, μ, the probe side of every join, Ξ) streams.
// Sort, the join family and unary Γ have one implementation each, the
// hybrid cursors of nal/spool.h: they buffer in RAM while the run's memory
// budget allows and spill once it binds.
//
// Plan shape: a run starts with CheckPlanShape (analysis.h), so the only Ξ
// is the root's and no subscript algebra writes output or carries a cse_id.
// Every write to the output stream therefore happens at the root, in root
// order, whatever order the breakers below pull their inputs in.
//
// Order preservation: probes run in left-input order and hash buckets keep
// positions in right-input order (physical.h), exactly like the materializing
// evaluator — so the streamed output is tuple-for-tuple identical to
// Evaluator::Eval, and the EvalStats counters (nested_alg_evals, doc_scans,
// tuples_produced, predicate_evals, xpath) count identically. The
// differential suite in tests/streaming_exec_test.cpp asserts both.
//
// Path nodes: the cursors that evaluate path expressions (χ/Υ via
// Evaluator::EvalExpr) inherit the evaluator's PathEvalMode, so one
// set_path_mode() call governs indexed-vs-scan path resolution for a whole
// streaming run exactly as it does for a materializing run — the executors
// stay stat-identical under either mode.
#ifndef NALQ_NAL_CURSOR_H_
#define NALQ_NAL_CURSOR_H_

#include <cstdint>
#include <memory>

#include "nal/algebra.h"
#include "nal/eval.h"

namespace nalq::nal {

class SpoolContext;     // memory-bounded execution (nal/spool.h)
struct PartitionPoint;  // the parallel executor (nal/exchange.h)
struct ParallelOptions;

/// Streaming-executor bookkeeping, independent of EvalStats (which must stay
/// byte-identical across executors). Tracks how much the pipeline buffers so
/// tests can assert that pipelineable plans never materialize an
/// intermediate.
struct StreamStats {
  uint64_t buffered_tuples = 0;   ///< currently live in breaker buffers
  uint64_t peak_buffered = 0;     ///< high-water mark of the above
  uint64_t materialized_nodes = 0;  ///< breaker nodes that actually buffered
  uint64_t exchange_chunks = 0;   ///< morsels dispatched by an exchange
  uint64_t exchange_dop = 0;      ///< widest exchange degree of parallelism

  // Never incremented: no breaker runs on an exchange worker. Kept only
  // because perfbench reads them (perfbench/src/workloads.cpp); they go
  // when the benchmark drops its nal.shared_probe_breakers and
  // nal.gamma_partitions metrics.
  uint64_t shared_probe_breakers = 0;
  uint64_t gamma_partitions = 0;

  void OnBuffer(uint64_t n) {
    buffered_tuples += n;
    if (buffered_tuples > peak_buffered) peak_buffered = buffered_tuples;
    ++materialized_nodes;
  }
  void OnRelease(uint64_t n) { buffered_tuples -= n; }
  /// Exchange in-flight accounting: a chunk is buffered between dispatch and
  /// consumption of its result packet, but the exchange is not a breaker
  /// node, so materialized_nodes stays untouched.
  void OnChunkDispatch(uint64_t n) {
    buffered_tuples += n;
    if (buffered_tuples > peak_buffered) peak_buffered = buffered_tuples;
    ++exchange_chunks;
  }
};

/// The Volcano iterator protocol. Cursors are single-use: Open once, Next
/// until false, Close. Each cursor owns its children.
class Cursor {
 public:
  virtual ~Cursor() = default;
  virtual void Open() = 0;
  /// Produces the next tuple into `*out`; false at end of stream.
  virtual bool Next(Tuple* out) = 0;
  virtual void Close() = 0;
};

using CursorPtr = std::unique_ptr<Cursor>;

/// Shared state of one streaming execution: the evaluator supplies
/// expression evaluation, statistics, the Ξ output stream and the CSE cache;
/// `env` is the (top-level, empty) outer binding every operator sees.
///
/// The plan/state split that makes operators per-worker clonable: a cursor
/// holds only a `const AlgebraOp&` into the shared plan plus its own mutable
/// iteration state, and every expression evaluation goes through `ev`. The
/// parallel exchange (exchange.h) instantiates one cursor chain — with its
/// own ExecContext and Evaluator — per worker over the one shared plan.
struct ExecContext {
  Evaluator* ev = nullptr;
  const Tuple* env = nullptr;
  StreamStats* stream = nullptr;  ///< optional

  /// The run's memory budget and temp-file directory (nal/spool.h). Every
  /// streaming and parallel run carries exactly one context, on the
  /// consumer thread. The breakers buffer in RAM while the budget allows;
  /// once it binds they grace-partition hash builds and Γ and external-sort
  /// Sort. A limit of 0 means unlimited, and then nothing spills. Null on an
  /// exchange worker: a worker runs only per-tuple operators
  /// (IsPartitionableOp) and evaluates nested subscripts through
  /// Evaluator::EvalOp, so nothing there buffers or spills.
  SpoolContext* spool = nullptr;

  /// The exchange cut of a parallel run (exchange.h): when MakeCursor
  /// reaches `cut->top`, it returns the exchange cursor spanning the cut
  /// (MakeExchangeCursor, run with `parallel`) instead of the serial
  /// operator cursor. Null in plain streaming execution and on workers.
  const PartitionPoint* cut = nullptr;
  const ParallelOptions* parallel = nullptr;
};

/// Counts one emitted tuple for the operator that owns `ctx` — the streaming
/// equivalent of the materializing evaluator's per-node
/// `stats_.tuples_produced += out.size()`. Every cursor funnels its
/// emissions through it (Evaluator::CountProduced also attributes the tuple
/// to the profiled operator in scope), which makes it the universal
/// per-tuple cancellation point.
inline void CountProducedTuple(ExecContext& ctx) {
  ctx.ev->CountProduced(1);
  ctx.ev->CheckInterrupt();
}

/// Builds the cursor tree for `op`. `ctx` must outlive the cursor.
CursorPtr MakeCursor(const AlgebraOp& op, ExecContext& ctx);

/// True if `op`'s cursor processes input tuples one at a time with no state
/// spanning tuples and no CSE caching: σ, χ, Υ, μ/μD and Π in
/// keep/drop/rename form, without a cse_id. In a plan that passed
/// CheckPlanShape their subscripts write no Ξ output and share nothing, so
/// exactly these operators may be instantiated once per worker over a
/// partition of their input without changing output bytes or merged
/// EvalStats (exchange.h).
bool IsPartitionableOp(const AlgebraOp& op);

/// Builds the operator cursor for the unary, partitionable `op` reading
/// from `input` instead of building `op.child(0)` — the per-worker clone
/// path of the exchange. Precondition: IsPartitionableOp(op).
CursorPtr MakeCursorOver(const AlgebraOp& op, ExecContext& ctx,
                         CursorPtr input);

/// Pull-runs `op` to exhaustion, discarding root tuples (Ξ side effects
/// accumulate on the evaluator's output stream). Checks the plan's shape
/// (CheckPlanShape) and clears the CSE cache first, mirroring
/// Evaluator::Eval. Returns the number of root tuples. A thrown error closes
/// the root cursor before it propagates.
///
/// `spool` carries the run's memory budget (nal/spool.h). When null, the
/// run uses a local context with SpoolContext::ResolveBudgetBytes(0) — the
/// NALQ_MEMORY_BUDGET_BYTES environment variable, else unlimited — so the
/// differential suites can be re-run with spilling active without code
/// changes.
uint64_t DrainStreaming(Evaluator& ev, const AlgebraOp& op,
                        StreamStats* stream = nullptr,
                        SpoolContext* spool = nullptr);

/// Pull-runs `op` and collects the root output — the streaming counterpart
/// of Evaluator::Eval, used by the differential tests. The returned values
/// may borrow atoms: see xml/store.h, borrowed atoms.
Sequence ExecuteStreaming(Evaluator& ev, const AlgebraOp& op,
                          StreamStats* stream = nullptr,
                          SpoolContext* spool = nullptr);

}  // namespace nalq::nal

#endif  // NALQ_NAL_CURSOR_H_
