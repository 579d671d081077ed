// Memory-bounded execution: the spool/buffer layer under the streaming
// executor's pipeline breakers.
//
// The paper evaluates the unnested NAL plans inside Natix under real memory
// constraints and notes that its hash joins are Grace hash joins with order
// restoration (Sec. 2, "One word on implementation"). This layer supplies
// the machinery our cursors need to honor a memory budget the same way:
//
//   * MemoryBudget — a process-wide, thread-safe accountant every pipeline
//     breaker charges for what it keeps resident and releases when it
//     spills or closes (per-breaker reservations against one global limit);
//   * SpoolContext — per-run spool configuration: the budget plus lazy
//     creation and RAII cleanup of a private temp-file directory. Only the
//     run's consumer thread uses it: every breaker runs there, and exchange
//     workers carry none;
//   * a Tuple/Value codec — length-prefixed binary encoding of every Value
//     kind (nested sequences included) over the process-stable Symbol ids
//     and NodeRefs, so runs of tuples round-trip through temp files;
//   * ExternalSorter — run formation under the budget plus multi-pass
//     k-way merge with a bounded fan-in; backs the Sort breaker, and doubles
//     as the order-restoration sort of the grace joins and the grouped-Γ
//     output (records carry a (key, seq) pair the merge orders by);
//   * the hybrid breaker cursors — the only implementation of Sort, the
//     join family (×/⋈/⋉/▷/outer join/binary Γ) and unary Γ. Each buffers
//     in RAM while the budget allows and grace-partitions / external-sorts
//     once it binds, with the same output bytes and EvalStats either way —
//     asserted differentially against Evaluator::Eval by
//     tests/spool_test.cpp. Under an unlimited budget nothing can spill, so
//     the breakers do not even size their tuples.
//
// Order preservation under spilling: grace hash builds partition both sides
// by join-key hash, join each partition pair (recursively re-partitioning a
// build partition that still exceeds its load limit), and tag every match
// with (left position, right position); an external sort on that pair
// restores exactly the order the in-memory probe produces (probe in
// left-input order, bucket positions ascending), with duplicate pairs from
// multi-valued keys dropped at the merge — mirroring LookupInto's
// sort+unique. Residual predicates are evaluated after the restoration
// merge, in final output order, so predicate counts match the in-memory
// run (no subscript writes Ξ output: the run checked CheckPlanShape). Γ
// tags each group with the sequence number of its first member (its
// first-occurrence rank) and restores the group output order the same way.
#ifndef NALQ_NAL_SPOOL_H_
#define NALQ_NAL_SPOOL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nal/cursor.h"
#include "nal/eval.h"

namespace nalq::nal {

class FaultInjector;  // deterministic fault injection (nal/fault_injection.h)

/// Thread-safe memory accountant. One instance bounds everything the
/// breakers of one execution keep resident; breakers TryCharge before
/// buffering and Release what they charged when they spill or close.
/// A limit of 0 means unlimited (every TryCharge succeeds).
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t limit_bytes) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  bool limited() const { return limit_ != 0; }
  uint64_t limit_bytes() const { return limit_; }
  uint64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }

  /// Reserves `bytes` if it fits under the limit; false (and no charge)
  /// otherwise.
  bool TryCharge(uint64_t bytes) {
    if (!limited()) return true;
    uint64_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      if (used + bytes > limit_) return false;
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Progress guarantee: charges unconditionally, over-committing the limit.
  /// Used for the single record a breaker must hold to keep moving when the
  /// budget is exhausted (the degenerate 1–2 tuple sort runs of a tiny
  /// budget come from exactly this).
  void ChargeUnchecked(uint64_t bytes) {
    if (limited()) used_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void Release(uint64_t bytes) {
    if (limited()) used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> used_{0};
};

/// Per-run spool configuration: the budget plus the temp-file directory.
/// The directory is created lazily on the first spill and removed (with
/// anything left in it) by the destructor; every spool file additionally
/// removes itself when its owner dies, so both the success and the
/// thrown-error path leave no files behind (asserted by
/// tests/spool_test.cpp). A SpoolContext is used by the one thread that
/// runs a run's breakers — the consumer thread; exchange workers carry
/// none (ExecContext::spool).
class SpoolContext {
 public:
  /// `budget_bytes` of 0 means unlimited: nothing spills, and the temp
  /// directory is never created. `dir` overrides the automatic temp
  /// directory (tests).
  explicit SpoolContext(uint64_t budget_bytes, std::string dir = {});
  ~SpoolContext();
  SpoolContext(const SpoolContext&) = delete;
  SpoolContext& operator=(const SpoolContext&) = delete;

  MemoryBudget& budget() { return budget_; }
  bool enabled() const { return budget_.limited(); }

  /// Fresh file path inside the spool directory (created on first call).
  std::string NewFilePath();

  /// The spool directory; empty for an automatic one not yet created.
  const std::string& dir() const { return dir_; }
  bool dir_created() const { return created_; }

  /// Cancellation token for the run (nal/query_control.h), or null. The
  /// spool layer polls it per temp-file record (SpoolFile append/read), so
  /// external-sort merge passes and grace partition processing — loops that
  /// can run long without producing a root tuple — stay interruptible. The
  /// streaming/parallel entry points wire the evaluator's token in here;
  /// the token must outlive the context's use.
  void set_control(QueryControl* control) { control_ = control; }
  QueryControl* control() const { return control_; }
  /// Cancellation point (see QueryControl::Poll).
  void Poll() {
    if (control_ != nullptr) control_->Poll();
  }

  /// Estimated build-side rows per breaker node (opt/parallel.h fills this
  /// from the cardinality model). The grace cursors consult it when the
  /// budget overflows to size their level-0 partition count from the
  /// *expected* build volume instead of the static budget/32KB rule — see
  /// GracePartitionCount. Borrowed; must outlive the context's use. Null =
  /// no hints.
  void set_row_hints(const std::map<const AlgebraOp*, double>* hints) {
    row_hints_ = hints;
  }
  /// Estimated input rows for `op`, or 0 when unknown.
  double RowHint(const AlgebraOp* op) const {
    if (row_hints_ == nullptr) return 0.0;
    auto it = row_hints_->find(op);
    return it == row_hints_->end() ? 0.0 : it->second;
  }

  /// Fault injector for this run's spool sites (nal/fault_injection.h).
  /// Captured as FaultInjector::Current() at construction, so a
  /// ScopedFaultInjector alive on the constructing thread scopes faults to
  /// exactly this run. Never null.
  FaultInjector* injector() const { return injector_; }

  /// The budget a run executes under: `explicit_bytes` when non-zero, else
  /// the NALQ_MEMORY_BUDGET_BYTES environment variable (read once per
  /// process; malformed values throw — see nal/env_knobs.h), else 0 —
  /// unlimited. Engine::Run and the streaming/parallel entry points resolve
  /// through it, so every differential suite can run with spilling active
  /// under one environment setting (see .github/workflows/ci.yml).
  static uint64_t ResolveBudgetBytes(uint64_t explicit_bytes);

 private:
  MemoryBudget budget_;
  const std::map<const AlgebraOp*, double>* row_hints_ = nullptr;
  QueryControl* control_ = nullptr;
  FaultInjector* const injector_;
  std::string dir_;
  bool created_ = false;
  bool owns_dir_ = true;
  uint64_t next_file_ = 0;
};

/// The one SpoolContext of a streaming or parallel run: `spool` when the
/// caller passed one, else `*local`, emplaced with ResolveBudgetBytes(0).
/// Wires `ev`'s cancellation token in unless the caller set its own.
SpoolContext& RunSpool(SpoolContext* spool, std::optional<SpoolContext>* local,
                       const Evaluator& ev);

// ---------------------------------------------------------------------------
// Tuple/Value codec (spool temp files are process-private: Symbol ids and
// NodeRefs are stable for exactly that lifetime)
// ---------------------------------------------------------------------------

void EncodeValue(const Value& v, std::string* out);
void EncodeTuple(const Tuple& t, std::string* out);

/// Bounds-checked decoding; false on a truncated/corrupt buffer (the spool
/// readers turn that into a std::runtime_error).
bool DecodeValue(const uint8_t** p, const uint8_t* end, Value* out);
bool DecodeTuple(const uint8_t** p, const uint8_t* end, Tuple* out);

/// Approximate resident size of a tuple (codec size plus container
/// overhead) — the unit the breakers charge against the budget.
uint64_t ApproximateTupleBytes(const Tuple& t);

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// Sorts records of (key values, sequence number, tuple) by the key —
/// per-component Value::Compare with optional per-component descending
/// flags — with ties broken by the sequence number, which callers make
/// unique to keep the order deterministic (and equal to a stable in-memory
/// sort). Records accumulate in RAM while the budget allows; overflow sorts
/// and spills the buffer as a run. Finish() merges the spilled runs (and
/// the resident remainder) with a budget-derived fan-in, running extra
/// merge passes — counted in SpillStats::merge_passes — when there are more
/// runs than the fan-in allows.
class ExternalSorter {
 public:
  struct Record {
    std::vector<Value> key;
    uint64_t seq = 0;
    Tuple tuple;
  };

  ExternalSorter(SpoolContext* spool, SpillStats* stats,
                 std::vector<uint8_t> desc = {});
  ~ExternalSorter();
  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void Add(std::vector<Value> key, uint64_t seq, Tuple tuple);
  /// No more Add()s; prepares the merge.
  void Finish();
  /// Records in (key, seq) order. Finish() must have been called.
  bool Next(Record* out);

  bool spilled() const { return spilled_runs_ != 0; }
  uint64_t size() const { return added_; }
  /// Records still resident (the in-memory run) after Finish().
  uint64_t memory_records() const;

 private:
  class Impl;
  friend class Impl;
  void Flush();

  SpoolContext* spool_;
  SpillStats* stats_;
  std::vector<uint8_t> desc_;
  uint64_t added_ = 0;
  uint64_t spilled_runs_ = 0;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Hybrid breaker cursors (built by cursor.cpp). Each charges the run's one
// accountant, SpoolContext::budget().
// ---------------------------------------------------------------------------

/// Grace admission policy: the level-0 partition count a spilling breaker
/// opens. With no estimate (`est_build_bytes` <= 0, or larger than what a
/// double can usefully say) the static rule applies — budget/32KB clamped to
/// [4, 64]. With an estimate (optimizer row hint × observed average tuple
/// bytes at switch time) the count is sized so each partition is expected to
/// fit its load limit in one pass: ceil(est / (budget/2)) clamped to
/// [4, min(budget/16KB, 256)] — fewer open files for small overflows, no
/// recursive re-partitioning cascade for builds far beyond the budget.
size_t GracePartitionCount(uint64_t budget_limit_bytes,
                           double est_build_bytes);

/// Sort: a stable in-RAM sort while the budget allows, an external merge
/// sort once it binds.
CursorPtr MakeSpillSortCursor(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr input);

/// Unary Γ: in-RAM first-occurrence bucketing while the budget allows,
/// grace partitions with first-occurrence order restoration once it binds
/// (θ-grouping buffers its input once and rescans it per key instead).
CursorPtr MakeSpillGroupUnaryCursor(const AlgebraOp& op, ExecContext& ctx,
                                    CursorPtr input);

/// ⋈/⋉/▷/outer-join/binary-Γ (and ×): an in-RAM hash build (or nested
/// loop) while the budget allows; once it binds, a grace hash build with
/// recursive re-partitioning and (left, right) position order restoration,
/// or a block nested loop over the spooled build side for predicates
/// without an equality conjunct.
CursorPtr MakeSpillJoinCursor(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr left, CursorPtr right);

}  // namespace nalq::nal

#endif  // NALQ_NAL_SPOOL_H_
