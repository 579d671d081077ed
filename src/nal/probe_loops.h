// Shared join/Γ building blocks: the probe loops of the hybrid join
// (spool.cpp) and of the exchange's shared-build probe (cursor.cpp), the
// in-RAM join build side both of them probe, and the per-partition Γ
// aggregation of the spilled Γ (spool.cpp) and the exchange's Γ workers
// (exchange.cpp). One implementation each, so every executor and budget
// runs the same code (asserted differentially by tests/spool_test.cpp and
// tests/parallel_breakers_test.cpp).
//
// Access policy of the probe loops — the cursor itself, exposing:
//
//   ExecContext& ctx();
//   const AlgebraOp& op() const;
//   bool LeftNext(Tuple* out);             // next probe-side tuple
//   bool use_index() const;                // hash path over build() active
//   const JoinBuild& build() const;        // in-RAM build side
//   void ScanRestart();                    // nested-loop scan of the build
//   bool ScanNext(const Tuple** r);        // side (in RAM or spooled)
//
// The loops own the per-probe iteration state (current left tuple, lookup
// positions, key scratch), so a cursor embeds one JoinProbeLoops and
// forwards its Next() to JoinProbeLoops::Next.
#ifndef NALQ_NAL_PROBE_LOOPS_H_
#define NALQ_NAL_PROBE_LOOPS_H_

#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "engine/error.h"
#include "nal/algebra.h"
#include "nal/analysis.h"
#include "nal/cursor.h"
#include "nal/physical.h"

namespace nalq::nal::probe {

inline void CountProducedTuple(ExecContext& ctx) {
  // Every operator of every executor funnels its emissions through this
  // counter (Evaluator::CountProduced also attributes the tuple to the
  // profiled operator in scope), which makes it the universal per-tuple
  // cancellation point.
  ctx.ev->CountProduced(1);
  ctx.ev->CheckInterrupt();
}

/// In-RAM build side of a join-family breaker (⋈/×/⋉/▷/outer join/binary
/// Γ): the buffered right input, the equality conjuncts the hash path
/// probes — a '='-nest-join's attribute lists, with no residual — the index
/// over them, and the outer join's ⊥ padding and default. One setup, shared
/// by the hybrid join (spool.cpp) and the exchange's consumer-built shared
/// build (BuildSharedJoin, cursor.cpp).
struct JoinBuild {
  explicit JoinBuild(const AlgebraOp& op) {
    switch (op.kind) {
      case OpKind::kJoin:
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
      case OpKind::kOuterJoin:
        equi = ExtractEquiPredicate(op.pred, OutputAttrs(*op.child(0)).attrs,
                                    OutputAttrs(*op.child(1)).attrs);
        break;
      case OpKind::kGroupBinary:
        if (op.theta == CmpOp::kEq) {
          equi = EquiPredicate{op.left_attrs, op.right_attrs, nullptr};
        }
        break;
      default:  // ×: no predicate, nested loop by definition
        break;
    }
    if (op.kind == OpKind::kOuterJoin) {
      for (Symbol a : OutputAttrs(*op.child(1)).attrs) {
        if (a != op.attr) null_attrs.push_back(a);
      }
    }
  }

  /// Indexes the complete `right` on the equality conjuncts' attributes.
  void IndexRight(const xml::Store& store) {
    if (equi.has_value()) index.Build(right, equi->right_attrs, store);
  }

  /// Post-build checks and constants, in the serial Open order: a θ
  /// nest-join needs a single attribute, and the outer join's default is
  /// evaluated on the empty binding.
  void Finish(const AlgebraOp& op, ExecContext& ctx) {
    if (op.kind == OpKind::kGroupBinary && op.theta != CmpOp::kEq &&
        op.left_attrs.size() != 1) {
      throw engine::Error(engine::ErrorCode::kPlanError,
                          "theta nest-join requires a single attribute", 0, {},
                          "GroupBinary");
    }
    if (op.kind == OpKind::kOuterJoin) {
      dflt = op.expr != nullptr ? ctx.ev->EvalExpr(*op.expr, Tuple(), *ctx.env)
                                : Value::Null();
    }
  }

  Sequence right;
  std::optional<EquiPredicate> equi;
  HashIndex index;
  std::vector<Symbol> null_attrs;  ///< outer join
  Value dflt;                      ///< outer join
};

template <class Access>
class JoinProbeLoops {
 public:
  /// Forgets any in-flight probe state (call from Open).
  void Reset() {
    have_left_ = false;
    matched_ = false;
    lookup_.clear();
    lookup_pos_ = 0;
  }

  /// The loop of `a.op()`'s kind.
  bool Next(Access& a, Tuple* out) {
    switch (a.op().kind) {
      case OpKind::kCross:
      case OpKind::kJoin:
        return NextCrossJoin(a, out);
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        return NextSemiAnti(a, out);
      case OpKind::kOuterJoin:
        return NextOuter(a, out);
      case OpKind::kGroupBinary:
        return NextGroupBinary(a, out);
      default:
        throw std::logic_error("JoinProbeLoops: not a join-family operator");
    }
  }

  /// × and ⋈: emit every (residual-satisfying) combination.
  bool NextCrossJoin(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    while (true) {
      if (have_left_) {
        if (a.use_index()) {
          const Expr* residual = a.build().equi->residual.get();
          while (lookup_pos_ < lookup_.size()) {
            uint32_t rpos = lookup_[lookup_pos_++];
            Tuple combined = cur_left_.Concat(a.build().right[rpos]);
            if (residual == nullptr ||
                ctx.ev->EvalPred(*residual, combined, *ctx.env)) {
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        } else {
          const Tuple* r = nullptr;
          while (a.ScanNext(&r)) {
            Tuple combined = cur_left_.Concat(*r);
            if (op.kind == OpKind::kCross ||
                ctx.ev->EvalPred(*op.pred, combined, *ctx.env)) {
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        }
        have_left_ = false;
      }
      if (!a.LeftNext(&cur_left_)) return false;
      have_left_ = true;
      lookup_pos_ = 0;
      a.ScanRestart();
      if (a.use_index()) {
        a.build().index.LookupInto(cur_left_, a.build().equi->left_attrs,
                                   ctx.ev->store(), &key_scratch_, &lookup_);
      }
    }
  }

  /// ⋉ and ▷: emit the left tuple on (mis)match, short-circuiting the
  /// residual after the first match.
  bool NextSemiAnti(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    const bool anti = op.kind == OpKind::kAntiJoin;
    Tuple l;
    while (a.LeftNext(&l)) {
      bool matched = false;
      if (a.use_index()) {
        const EquiPredicate& equi = *a.build().equi;
        a.build().index.LookupInto(l, equi.left_attrs, ctx.ev->store(),
                                   &key_scratch_, &lookup_);
        for (uint32_t pos : lookup_) {
          if (equi.residual == nullptr ||
              ctx.ev->EvalPred(*equi.residual, l.Concat(a.build().right[pos]),
                               *ctx.env)) {
            matched = true;
            break;
          }
        }
      } else {
        a.ScanRestart();
        const Tuple* r = nullptr;
        while (a.ScanNext(&r)) {
          if (ctx.ev->EvalPred(*op.pred, l.Concat(*r), *ctx.env)) {
            matched = true;
            break;
          }
        }
      }
      if (matched != anti) {
        *out = std::move(l);
        CountProducedTuple(ctx);
        return true;
      }
    }
    return false;
  }

  /// Left outer join: matches first, then the ⊥-padded tuple for an
  /// unmatched left.
  bool NextOuter(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    while (true) {
      if (have_left_) {
        if (a.use_index()) {
          const Expr* residual = a.build().equi->residual.get();
          while (lookup_pos_ < lookup_.size()) {
            uint32_t rpos = lookup_[lookup_pos_++];
            Tuple combined = cur_left_.Concat(a.build().right[rpos]);
            if (residual == nullptr ||
                ctx.ev->EvalPred(*residual, combined, *ctx.env)) {
              matched_ = true;
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        } else {
          const Tuple* r = nullptr;
          while (a.ScanNext(&r)) {
            Tuple combined = cur_left_.Concat(*r);
            if (ctx.ev->EvalPred(*op.pred, combined, *ctx.env)) {
              matched_ = true;
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        }
        have_left_ = false;
        if (!matched_) {
          Tuple t = cur_left_.Concat(Tuple::Nulls(a.build().null_attrs));
          t.Set(op.attr, a.build().dflt);
          *out = std::move(t);
          CountProducedTuple(ctx);
          return true;
        }
      }
      if (!a.LeftNext(&cur_left_)) return false;
      have_left_ = true;
      matched_ = false;
      lookup_pos_ = 0;
      a.ScanRestart();
      if (a.use_index()) {
        a.build().index.LookupInto(cur_left_, a.build().equi->left_attrs,
                                   ctx.ev->store(), &key_scratch_, &lookup_);
      }
    }
  }

  /// Binary Γ (nest-join): one output tuple per left tuple, carrying the
  /// aggregated group of matching right tuples.
  bool NextGroupBinary(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    Tuple l;
    if (!a.LeftNext(&l)) return false;
    Sequence group;
    if (a.use_index()) {
      a.build().index.LookupInto(l, a.build().equi->left_attrs,
                                 ctx.ev->store(), &key_scratch_, &lookup_);
      for (uint32_t pos : lookup_) group.Append(a.build().right[pos]);
    } else {
      a.ScanRestart();
      const Tuple* r = nullptr;
      while (a.ScanNext(&r)) {
        if (ctx.ev->GeneralCompare(op.theta, l.Get(op.left_attrs[0]),
                                   r->Get(op.right_attrs[0]))) {
          group.Append(*r);
        }
      }
    }
    Value agg = ctx.ev->ApplyAgg(op.agg, std::move(group), *ctx.env);
    l.Set(op.attr, std::move(agg));
    *out = std::move(l);
    CountProducedTuple(ctx);
    return true;
  }

 private:
  Tuple cur_left_;
  bool have_left_ = false;
  bool matched_ = false;
  std::vector<Key> key_scratch_;
  std::vector<uint32_t> lookup_;
  size_t lookup_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Unary Γ — group emission of the hybrid Γ (spool.cpp) and the
// per-partition aggregation it shares with the exchange's Γ workers
// (exchange.cpp).
// ---------------------------------------------------------------------------

/// One Γ output tuple: the group key's attributes plus g = f(group).
inline Tuple GammaResult(const AlgebraOp& op, const Key& key, Sequence group,
                         ExecContext& ctx) {
  Tuple result;
  for (size_t j = 0; j < op.left_attrs.size(); ++j) {
    result.Set(op.left_attrs[j], key.values[j]);
  }
  result.Set(op.attr, ctx.ev->ApplyAgg(op.agg, std::move(group), *ctx.env));
  return result;
}

/// '='-bucketing of an in-RAM Γ input in first-occurrence key order (ΠD).
struct GammaBuckets {
  std::vector<Key> order;  ///< distinct keys, first-occurrence order (ΠD)
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> buckets;
  /// A sequence-valued key put some tuple into several buckets, so group
  /// members must be copied, not moved.
  bool multi_key = false;
  size_t next_key = 0;

  void Build(const Sequence& input, std::span<const Symbol> attrs,
             const xml::Store& store) {
    std::vector<Key> keys;
    for (uint32_t i = 0; i < input.size(); ++i) {
      MakeKeysInto(input[i], attrs, store, &keys);
      if (keys.size() > 1) multi_key = true;
      for (Key& k : keys) {
        auto [it, inserted] = buckets.try_emplace(k);
        if (inserted) order.push_back(k);
        it->second.push_back(i);
      }
    }
    next_key = 0;
  }
};

/// Emits the next '='-group: unless a sequence-valued key fanned a tuple
/// into several buckets, each input tuple belongs to exactly one group and
/// is handed over by move.
inline bool NextEqGammaGroup(GammaBuckets& b, Sequence& input,
                             const AlgebraOp& op, ExecContext& ctx,
                             Tuple* out) {
  if (b.next_key >= b.order.size()) return false;
  const Key& key = b.order[b.next_key++];
  Sequence group;
  for (uint32_t pos : b.buckets[key]) {
    if (b.multi_key) {
      group.Append(input[pos]);
    } else {
      group.Append(std::move(input[pos]));
    }
  }
  *out = GammaResult(op, key, std::move(group), ctx);
  CountProducedTuple(ctx);
  return true;
}

/// Emits the next θ-group (group for key v = σ_{v θ A}(e)): `for_each_input`
/// re-presents every input tuple — by reference from RAM (matches are
/// copied), or as fresh rvalues decoded from a spool rescan (matches are
/// moved).
template <class ForEachInput>
bool NextThetaGammaGroup(const std::vector<Key>& order, size_t* next_key,
                         const AlgebraOp& op, ExecContext& ctx,
                         ForEachInput&& for_each_input, Tuple* out) {
  if (*next_key >= order.size()) return false;
  const Key& key = order[(*next_key)++];
  if (op.left_attrs.size() != 1) {
    throw engine::Error(engine::ErrorCode::kPlanError,
                        "theta-grouping requires a single attribute", 0, {},
                        "GroupUnary");
  }
  Sequence group;
  for_each_input([&](auto&& u) {
    if (ctx.ev->GeneralCompare(op.theta, key.values[0],
                               u.Get(op.left_attrs[0]))) {
      group.Append(std::forward<decltype(u)>(u));
    }
  });
  *out = GammaResult(op, key, std::move(group), ctx);
  CountProducedTuple(ctx);
  return true;
}

/// One routed '='-Γ input record: the tuple, the group key it was routed
/// by, and its global position — `seq` over input tuples, `ordinal` over
/// that tuple's keys (a sequence-valued key fans one tuple into several
/// groups). The (seq, ordinal) of a group's first member is the group's
/// serial first-occurrence rank.
struct GammaRecord {
  uint64_t seq = 0;
  uint32_t ordinal = 0;
  Key key;
  Tuple tuple;
};

/// Aggregates one Γ partition whose `records` arrive in global
/// (seq, ordinal) order: buckets them by their routed key — never a
/// recomputed one, which would resurrect other partitions' groups — in
/// first-occurrence order, and calls emit(first_seq, first_ordinal, result)
/// once per group. Group members are moved out of `records`.
template <class Emit>
void AggregateGammaPartition(std::vector<GammaRecord>& records,
                             const AlgebraOp& op, ExecContext& ctx,
                             Emit&& emit) {
  struct Group {
    const GammaRecord* first;
    Sequence members;
  };
  std::unordered_map<Key, size_t, KeyHash> index;
  std::vector<Group> groups;
  for (GammaRecord& r : records) {
    auto [it, inserted] = index.try_emplace(r.key, groups.size());
    if (inserted) groups.push_back(Group{&r, {}});
    groups[it->second].members.Append(std::move(r.tuple));
  }
  for (Group& g : groups) {
    emit(g.first->seq, g.first->ordinal,
         GammaResult(op, g.first->key, std::move(g.members), ctx));
  }
}

}  // namespace nalq::nal::probe

#endif  // NALQ_NAL_PROBE_LOOPS_H_
