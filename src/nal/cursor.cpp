#include "nal/cursor.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nal/analysis.h"
#include "nal/exchange.h"
#include "nal/physical.h"
#include "nal/spool.h"

namespace nalq::nal {

namespace {

/// Builds the operator cursor for `op`, ignoring its cse_id (the CSE wrapper
/// is applied by MakeCursor).
CursorPtr MakeOpCursor(const AlgebraOp& op, ExecContext& ctx);

/// Fully drains `c` into a Sequence (the CSE cache; charged to StreamStats
/// by the caller).
Sequence Materialize(Cursor& c) {
  Sequence out;
  Tuple t;
  c.Open();
  while (c.Next(&t)) out.Append(std::move(t));
  c.Close();
  return out;
}

// ---------------------------------------------------------------------------
// Pipelining cursors
// ---------------------------------------------------------------------------

class SingletonCursor final : public Cursor {
 public:
  explicit SingletonCursor(ExecContext& ctx) : ctx_(ctx) {}
  void Open() override { done_ = false; }
  bool Next(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    *out = Tuple();
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override {}

 private:
  ExecContext& ctx_;
  bool done_ = false;
};

class SelectCursor final : public Cursor {
 public:
  SelectCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override { input_->Open(); }
  bool Next(Tuple* out) override {
    Tuple t;
    while (input_->Next(&t)) {
      if (ctx_.ev->EvalPred(*op_.pred, t, *ctx_.env)) {
        *out = std::move(t);
        CountProducedTuple(ctx_);
        return true;
      }
    }
    return false;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
};

class ProjectCursor final : public Cursor {
 public:
  ProjectCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_->Open();
    seen_.clear();
  }
  bool Next(Tuple* out) override {
    Tuple t;
    while (input_->Next(&t)) {
      for (const auto& [to, from] : op_.renames) {
        t = std::move(t).Rename(from, to);
      }
      switch (op_.pmode) {
        case ProjectMode::kKeep:
          if (!op_.attrs.empty()) t = t.Project(op_.attrs);
          break;
        case ProjectMode::kDrop:
          t = std::move(t).Drop(op_.attrs);
          break;
        case ProjectMode::kDistinct: {
          if (!op_.attrs.empty()) t = t.Project(op_.attrs);
          Tuple atomized;
          for (const auto& [a, v] : t.slots()) {
            atomized.Set(a, v.Atomize(ctx_.ev->store()));
          }
          Key key;
          for (const auto& [a, v] : atomized.slots()) key.values.push_back(v);
          if (!seen_.insert(std::move(key)).second) continue;
          t = std::move(atomized);
          break;
        }
      }
      *out = std::move(t);
      CountProducedTuple(ctx_);
      return true;
    }
    return false;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  std::unordered_set<Key, KeyHash> seen_;
};

class MapCursor final : public Cursor {
 public:
  MapCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override { input_->Open(); }
  bool Next(Tuple* out) override {
    Tuple t;
    if (!input_->Next(&t)) return false;
    Value v = ctx_.ev->EvalExpr(*op_.expr, t, *ctx_.env);
    t.Set(op_.attr, std::move(v));
    *out = std::move(t);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
};

class UnnestMapCursor final : public Cursor {
 public:
  UnnestMapCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_->Open();
    items_.clear();
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    while (true) {
      if (pos_ < items_.size()) {
        if (pos_ + 1 == items_.size()) {
          // Last expansion of this input tuple: hand over our copy.
          current_.Set(op_.attr, std::move(items_[pos_]));
          *out = std::move(current_);
        } else {
          Tuple extended = current_;
          extended.Set(op_.attr, items_[pos_]);
          *out = std::move(extended);
        }
        ++pos_;
        CountProducedTuple(ctx_);
        return true;
      }
      if (!input_->Next(&current_)) return false;
      Value v = ctx_.ev->EvalExpr(*op_.expr, current_, *ctx_.env);
      items_.clear();
      pos_ = 0;
      FlattenToItems(v, &items_);
      if (items_.empty()) {
        if (!op_.outer) continue;
        current_.Set(op_.attr, Value::Null());
        *out = std::move(current_);
        CountProducedTuple(ctx_);
        return true;
      }
    }
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  Tuple current_;
  ItemSeq items_;
  size_t pos_ = 0;
};

class UnnestCursor final : public Cursor {
 public:
  UnnestCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)), drop_{op.attr} {
    AttrInfo info = OutputAttrs(*op_.child(0));
    auto it = info.nested.find(op_.attr);
    if (it != info.nested.end()) {
      bot_attrs_.assign(it->second.begin(), it->second.end());
    }
  }
  void Open() override {
    input_->Open();
    nested_ = nullptr;
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    while (true) {
      if (nested_ != nullptr && pos_ < nested_->size()) {
        *out = base_.Concat((*nested_)[pos_]);
        ++pos_;
        CountProducedTuple(ctx_);
        return true;
      }
      nested_ = nullptr;
      Tuple t;
      if (!input_->Next(&t)) return false;
      Value v = t.Get(op_.attr);
      base_ = std::move(t).Drop(drop_);
      if (v.kind() == ValueKind::kTupleSeq) {
        // Keep the nested sequence alive without copying it.
        held_ = v.SharedTuples();
        nested_ = held_.get();
      } else {
        ItemSeq items;
        FlattenToItems(v, &items);
        owned_ = TuplesFromItems(op_.attr, items);
        nested_ = &owned_;
      }
      if (op_.distinct) {
        // μD: value-based dedup of the nested sequence (paper: ΠD(g)).
        Sequence deduped;
        std::unordered_set<Key, KeyHash> seen;
        for (const Tuple& u : *nested_) {
          Key key;
          for (const auto& [a, value] : u.slots()) {
            key.values.push_back(value.Atomize(ctx_.ev->store()));
          }
          if (seen.insert(std::move(key)).second) deduped.Append(u);
        }
        owned_ = std::move(deduped);
        nested_ = &owned_;
        held_.reset();
      }
      pos_ = 0;
      if (nested_->empty()) {
        nested_ = nullptr;
        if (op_.outer) {
          // Paper μ: emit ⊥_{A(e.g)}.
          *out = base_.Concat(Tuple::Nulls(bot_attrs_));
          CountProducedTuple(ctx_);
          return true;
        }
      }
    }
  }
  void Close() override {
    input_->Close();
    nested_ = nullptr;
    held_.reset();
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  const std::vector<Symbol> drop_;
  std::vector<Symbol> bot_attrs_;
  Tuple base_;
  std::shared_ptr<const Sequence> held_;
  Sequence owned_;
  const Sequence* nested_ = nullptr;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Result construction
// ---------------------------------------------------------------------------

class XiSimpleCursor final : public Cursor {
 public:
  XiSimpleCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override { input_->Open(); }
  bool Next(Tuple* out) override {
    Tuple t;
    if (!input_->Next(&t)) return false;
    ctx_.ev->RunXiProgram(op_.s1, t, *ctx_.env);
    *out = std::move(t);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
};

class XiGroupCursor final : public Cursor {
 public:
  XiGroupCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_seq_ = Materialize(*input_);
    if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(input_seq_.size());
    std::vector<Key> keys;
    for (uint32_t i = 0; i < input_seq_.size(); ++i) {
      MakeKeysInto(input_seq_[i], op_.attrs, ctx_.ev->store(), &keys);
      for (Key& k : keys) {
        auto [it, inserted] = buckets_.try_emplace(k);
        if (inserted) order_.push_back(k);
        it->second.push_back(i);
      }
    }
    next_key_ = 0;
  }
  bool Next(Tuple* out) override {
    if (next_key_ >= order_.size()) return false;
    const Key& key = order_[next_key_++];
    const std::vector<uint32_t>& members = buckets_[key];
    Tuple rep;
    for (size_t j = 0; j < op_.attrs.size(); ++j) {
      rep.Set(op_.attrs[j], key.values[j]);
    }
    // The group attributes carry the atomized key (ΠD semantics); they win
    // over the inner tuple's original values in s1/s3.
    ctx_.ev->RunXiProgram(op_.s1, input_seq_[members.front()].Concat(rep),
                          *ctx_.env);
    for (uint32_t pos : members) {
      ctx_.ev->RunXiProgram(op_.s2, input_seq_[pos], *ctx_.env);
    }
    ctx_.ev->RunXiProgram(op_.s3, input_seq_[members.back()].Concat(rep),
                          *ctx_.env);
    *out = std::move(rep);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(input_seq_.size());
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  Sequence input_seq_;
  std::vector<Key> order_;
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> buckets_;
  size_t next_key_ = 0;
};

// ---------------------------------------------------------------------------
// Common-subexpression sharing
// ---------------------------------------------------------------------------

/// Wraps the operator cursor of a node with cse_id >= 0: on first Open the
/// node is computed once (through its own counting cursor tree) and stored in
/// the evaluator's CSE cache; every other consumer then streams from the
/// cached sequence without re-computing or re-counting, exactly like the
/// materializing evaluator's cache-hit path.
class CseCursor final : public Cursor {
 public:
  CseCursor(const AlgebraOp& op, ExecContext& ctx)
      : op_(op), ctx_(ctx) {}
  void Open() override {
    const Sequence* cached = ctx_.ev->CseFind(op_.cse_id);
    if (cached == nullptr) {
      CursorPtr inner = MakeOpCursor(op_, ctx_);
      cached = &ctx_.ev->CseStore(op_.cse_id, Materialize(*inner));
      // The cache retains the sequence for the rest of the run; charge it as
      // buffered without release.
      if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(cached->size());
    }
    cached_ = cached;
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    if (pos_ >= cached_->size()) return false;
    *out = (*cached_)[pos_++];
    return true;  // cache hits are not re-counted (parity with EvalOp)
  }
  void Close() override {}

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  const Sequence* cached_ = nullptr;
  size_t pos_ = 0;
};

CursorPtr MakeOpCursor(const AlgebraOp& op, ExecContext& ctx) {
  switch (op.kind) {
    case OpKind::kSingleton:
      return std::make_unique<SingletonCursor>(ctx);
    case OpKind::kSelect:
      return std::make_unique<SelectCursor>(op, ctx,
                                            MakeCursor(*op.child(0), ctx));
    case OpKind::kProject:
      return std::make_unique<ProjectCursor>(op, ctx,
                                             MakeCursor(*op.child(0), ctx));
    case OpKind::kMap:
      return std::make_unique<MapCursor>(op, ctx,
                                         MakeCursor(*op.child(0), ctx));
    case OpKind::kUnnestMap:
      return std::make_unique<UnnestMapCursor>(op, ctx,
                                               MakeCursor(*op.child(0), ctx));
    case OpKind::kUnnest:
      return std::make_unique<UnnestCursor>(op, ctx,
                                            MakeCursor(*op.child(0), ctx));
    case OpKind::kCross:
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kOuterJoin:
    case OpKind::kGroupBinary:
      return MakeSpillJoinCursor(op, ctx, MakeCursor(*op.child(0), ctx),
                                 MakeCursor(*op.child(1), ctx));
    case OpKind::kGroupUnary:
      return MakeSpillGroupUnaryCursor(op, ctx, MakeCursor(*op.child(0), ctx));
    case OpKind::kSort:
      return MakeSpillSortCursor(op, ctx, MakeCursor(*op.child(0), ctx));
    case OpKind::kXiSimple:
      return std::make_unique<XiSimpleCursor>(op, ctx,
                                              MakeCursor(*op.child(0), ctx));
    case OpKind::kXiGroup:
      return std::make_unique<XiGroupCursor>(op, ctx,
                                             MakeCursor(*op.child(0), ctx));
  }
  throw std::logic_error("unknown operator kind");
}

/// Per-operator profiling decorator (obs/profile.h) — the OpContextCursor
/// pattern from the spool layer: created only when the run's evaluator
/// carries a ProfileCollector, so profiling off costs nothing here. Counts
/// Open/Next/Close calls, accrues wall time and spill-byte deltas inclusive
/// of the subtree, and holds the collector's attribution scope around every
/// inner call so the universal count site (Evaluator::CountProduced) books
/// this operator's emissions — including those of algebra nested in its
/// subscripts — against it.
class ProfileCursor final : public Cursor {
 public:
  ProfileCursor(ExecContext& ctx, obs::ProfileCollector* collector,
                obs::OpMetrics* metrics, CursorPtr inner)
      : ctx_(ctx),
        collector_(collector),
        metrics_(metrics),
        inner_(std::move(inner)) {}

  void Open() override {
    ++metrics_->open_calls;
    Measured scope(this);
    inner_->Open();
  }
  bool Next(Tuple* out) override {
    ++metrics_->next_calls;
    Measured scope(this);
    return inner_->Next(out);
  }
  void Close() override {
    ++metrics_->close_calls;
    Measured scope(this);
    inner_->Close();
  }

 private:
  /// Scope guard: swaps the attribution scope to this operator and accrues
  /// wall/spill on exit — exception-safe, so an unwinding cancellation
  /// still restores the enclosing operator's scope.
  struct Measured {
    explicit Measured(ProfileCursor* c)
        : cursor(c),
          saved(c->collector_->current()),
          spill_before(c->ctx_.ev->stats().spill.spilled_bytes),
          begin(std::chrono::steady_clock::now()) {
      c->collector_->set_current(c->metrics_);
    }
    ~Measured() {
      cursor->metrics_->wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - begin)
              .count());
      cursor->metrics_->spill_bytes +=
          cursor->ctx_.ev->stats().spill.spilled_bytes - spill_before;
      cursor->collector_->set_current(saved);
    }
    ProfileCursor* cursor;
    obs::OpMetrics* saved;
    uint64_t spill_before;
    std::chrono::steady_clock::time_point begin;
  };

  ExecContext& ctx_;
  obs::ProfileCollector* collector_;
  obs::OpMetrics* metrics_;
  CursorPtr inner_;
};

/// Wraps `inner` in a ProfileCursor when profiling is on AND `op` is a
/// tracked plan node (untracked shapes — e.g. cursors over subscript
/// algebra — keep their enclosing operator's scope).
CursorPtr MaybeProfileCursor(const AlgebraOp& op, ExecContext& ctx,
                             CursorPtr inner) {
  obs::ProfileCollector* collector = ctx.ev->profile();
  if (collector == nullptr) return inner;
  obs::OpMetrics* metrics = collector->Find(&op);
  if (metrics == nullptr) return inner;
  return std::make_unique<ProfileCursor>(ctx, collector, metrics,
                                         std::move(inner));
}

}  // namespace

CursorPtr MakeCursor(const AlgebraOp& op, ExecContext& ctx) {
  if (ctx.cut != nullptr && &op == ctx.cut->top) {
    // The exchange builds its source cursor through this same context; the
    // source lies below the cut's top, so this cannot recurse. The
    // decorator wraps the exchange cursor itself, so the top node's profile
    // covers source drain + worker wait + merge (its workers' own
    // processing is folded in from the worker collectors at Close).
    return MaybeProfileCursor(op, ctx, MakeExchangeCursor(*ctx.cut, ctx));
  }
  if (op.cse_id >= 0) {
    return MaybeProfileCursor(op, ctx,
                              std::make_unique<CseCursor>(op, ctx));
  }
  return MaybeProfileCursor(op, ctx, MakeOpCursor(op, ctx));
}

bool IsPartitionableOp(const AlgebraOp& op) {
  switch (op.kind) {
    case OpKind::kSelect:
    case OpKind::kMap:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
      break;
    case OpKind::kProject:
      // ΠD deduplicates across the whole input — state spans tuples.
      if (op.pmode == ProjectMode::kDistinct) return false;
      break;
    default:
      return false;
  }
  // The node itself must not be shared: CSE computes once per run. Its
  // subscripts hold neither Ξ nor a cse_id (CheckPlanShape).
  return op.cse_id < 0;
}

CursorPtr MakeCursorOver(const AlgebraOp& op, ExecContext& ctx,
                         CursorPtr input) {
  CursorPtr c;
  switch (op.kind) {
    case OpKind::kSelect:
      c = std::make_unique<SelectCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kProject:
      c = std::make_unique<ProjectCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kMap:
      c = std::make_unique<MapCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kUnnestMap:
      c = std::make_unique<UnnestMapCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kUnnest:
      c = std::make_unique<UnnestCursor>(op, ctx, std::move(input));
      break;
    default:
      throw std::logic_error("MakeCursorOver: operator is not partitionable");
  }
  return MaybeProfileCursor(op, ctx, std::move(c));
}

namespace {

/// The one run loop of both cursor executors: every root tuple goes to
/// `out` when it is not null. With `parallel`, the plan is cut at
/// FindPartitionPoint(op), if it has a cut, and the exchange runs the
/// segment on the scheduler's workers. The root cursor is closed on the
/// thrown-error path too, so every cursor's Close-time release runs.
uint64_t RunCursors(Evaluator& ev, const AlgebraOp& op,
                    const ParallelOptions* parallel, StreamStats* stream,
                    SpoolContext* spool, Sequence* out) {
  CheckPlanShape(op);
  xml::StoreReadLease lease(ev.store());
  ev.ClearCse();
  std::optional<SpoolContext> local_spool;
  Tuple env;
  ExecContext ctx{&ev, &env, stream, &RunSpool(spool, &local_spool, ev)};
  std::optional<PartitionPoint> cut;
  if (parallel != nullptr) cut = FindPartitionPoint(op);
  if (cut.has_value()) {
    ctx.cut = &*cut;
    ctx.parallel = parallel;
  }
  CursorPtr root = MakeCursor(op, ctx);
  uint64_t count = 0;
  Tuple t;
  try {
    root->Open();
    while (root->Next(&t)) {
      if (out != nullptr) out->Append(std::move(t));
      ++count;
    }
  } catch (...) {
    root->Close();
    throw;
  }
  root->Close();
  return count;
}

}  // namespace

uint64_t DrainStreaming(Evaluator& ev, const AlgebraOp& op,
                        StreamStats* stream, SpoolContext* spool) {
  return RunCursors(ev, op, nullptr, stream, spool, nullptr);
}

Sequence ExecuteStreaming(Evaluator& ev, const AlgebraOp& op,
                          StreamStats* stream, SpoolContext* spool) {
  Sequence out;
  RunCursors(ev, op, nullptr, stream, spool, &out);
  return out;
}

// The parallel entry points (exchange.h) share the run loop.
uint64_t DrainParallel(Evaluator& ev, const AlgebraOp& op,
                       const ParallelOptions& options, StreamStats* stream,
                       SpoolContext* spool) {
  return RunCursors(ev, op, &options, stream, spool, nullptr);
}

Sequence ExecuteParallel(Evaluator& ev, const AlgebraOp& op,
                         const ParallelOptions& options, StreamStats* stream,
                         SpoolContext* spool) {
  Sequence out;
  RunCursors(ev, op, &options, stream, spool, &out);
  return out;
}

}  // namespace nalq::nal
