#include "nal/eval.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "engine/error.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace nalq::nal {

void FlattenToItems(const Value& v, ItemSeq* out) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return;
    case ValueKind::kItemSeq:
      for (const Value& item : v.AsItems()) FlattenToItems(item, out);
      return;
    case ValueKind::kTupleSeq:
      for (const Tuple& t : v.AsTuples()) {
        if (t.size() == 1) {
          FlattenToItems(t.slots()[0].second, out);
        } else {
          // Multi-attribute nested tuples do not flatten to items; keep the
          // tuple's values in attribute order.
          for (const auto& [a, value] : t.slots()) {
            FlattenToItems(value, out);
          }
        }
      }
      return;
    default:
      out->push_back(v);
  }
}

bool EffectiveBooleanValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kBool:
      return v.AsBool();
    case ValueKind::kInt:
      return v.AsInt() != 0;
    case ValueKind::kDouble:
      return v.AsDouble() != 0;
    case ValueKind::kString:
      return !v.AsString().empty();
    case ValueKind::kNode:
      return true;
    case ValueKind::kItemSeq:
      return !v.AsItems().empty();
    case ValueKind::kTupleSeq:
      return !v.AsTuples().empty();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value Evaluator::EvalExpr(const Expr& e, const Tuple& local,
                          const Tuple& env) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.literal;
    case ExprKind::kAttrRef:
      if (const Value* v = local.Find(e.attr)) return *v;
      return env.Get(e.attr);
    case ExprKind::kCmp: {
      Value lhs = EvalExpr(*e.children[0], local, env);
      Value rhs = EvalExpr(*e.children[1], local, env);
      return Value(GeneralCompare(e.cmp, lhs, rhs));
    }
    case ExprKind::kAnd:
      return Value(EvalPred(*e.children[0], local, env) &&
                   EvalPred(*e.children[1], local, env));
    case ExprKind::kOr:
      return Value(EvalPred(*e.children[0], local, env) ||
                   EvalPred(*e.children[1], local, env));
    case ExprKind::kNot:
      return Value(!EvalPred(*e.children[0], local, env));
    case ExprKind::kFnCall:
      return EvalFnCall(e, local, env);
    case ExprKind::kPath:
      return EvalPathExpr(e, local, env);
    case ExprKind::kNestedAlg: {
      ++stats_.nested_alg_evals;
      Tuple inner_env = env.Concat(local);
      Sequence s = EvalOp(*e.alg, inner_env);
      return Value::FromTuples(std::move(s));
    }
    case ExprKind::kBindTuples: {
      Value v = EvalExpr(*e.children[0], local, env);
      ItemSeq items;
      FlattenToItems(v, &items);
      return Value::FromTuples(TuplesFromItems(e.attr, items));
    }
    case ExprKind::kArith: {
      std::optional<double> lhs =
          EvalExpr(*e.children[0], local, env).ToNumber(store_);
      std::optional<double> rhs =
          EvalExpr(*e.children[1], local, env).ToNumber(store_);
      if (!lhs.has_value() || !rhs.has_value()) return Value::Null();
      switch (e.arith) {
        case ArithOp::kAdd:
          return Value(*lhs + *rhs);
        case ArithOp::kSub:
          return Value(*lhs - *rhs);
        case ArithOp::kMul:
          return Value(*lhs * *rhs);
        case ArithOp::kDiv:
          if (*rhs == 0) return Value::Null();
          return Value(*lhs / *rhs);
        case ArithOp::kMod:
          if (*rhs == 0) return Value::Null();
          return Value(std::fmod(*lhs, *rhs));
      }
      return Value::Null();
    }
    case ExprKind::kCond:
      return EvalPred(*e.children[0], local, env)
                 ? EvalExpr(*e.children[1], local, env)
                 : EvalExpr(*e.children[2], local, env);
    case ExprKind::kAgg: {
      Value v = EvalExpr(*e.children[0], local, env);
      if (v.kind() == ValueKind::kTupleSeq) {
        return ApplyAgg(e.agg, v.AsTuples(), env.Concat(local));
      }
      // Non-tuple input: wrap items as single-attribute tuples named by the
      // spec's project attribute.
      ItemSeq items;
      FlattenToItems(v, &items);
      return ApplyAgg(e.agg, TuplesFromItems(e.agg.project, items),
                      env.Concat(local));
    }
    case ExprKind::kQuant: {
      ++stats_.nested_alg_evals;
      Tuple inner_env = env.Concat(local);
      Sequence range = EvalOp(*e.alg, inner_env);
      const Expr& pred = *e.children[0];
      for (const Tuple& u : range) {
        Tuple binding = u;
        if (u.size() == 1 && !u.Has(e.quant_var)) {
          binding.Set(e.quant_var, u.slots()[0].second);
        }
        bool holds = EvalPred(pred, binding, inner_env);
        if (e.quant == QuantKind::kSome && holds) return Value(true);
        if (e.quant == QuantKind::kEvery && !holds) return Value(false);
      }
      return Value(e.quant == QuantKind::kEvery);
    }
  }
  return Value::Null();
}

bool Evaluator::EvalPred(const Expr& e, const Tuple& local, const Tuple& env) {
  ++stats_.predicate_evals;
  // Cancellation point: selections over wide inputs evaluate predicates far
  // more often than they produce tuples, so the bounded-interval guarantee
  // needs a check here too.
  CheckInterrupt();
  return EffectiveBooleanValue(EvalExpr(e, local, env));
}

bool Evaluator::AtomicCompare(CmpOp op, const Value& lhs, const Value& rhs) {
  Value a = lhs.Atomize(store_);
  Value b = rhs.Atomize(store_);
  // Numeric comparison when at least one side is genuinely numeric and the
  // other converts; otherwise fall back to string/typed comparison. Typed
  // values of the same kind compare directly.
  bool numeric = false;
  double x = 0;
  double y = 0;
  if (a.is_numeric() || b.is_numeric()) {
    std::optional<double> na = a.ToNumber(store_);
    std::optional<double> nb = b.ToNumber(store_);
    if (na.has_value() && nb.has_value()) {
      numeric = true;
      x = *na;
      y = *nb;
    }
  }
  if (numeric) {
    switch (op) {
      case CmpOp::kEq:
        return x == y;
      case CmpOp::kNe:
        return x != y;
      case CmpOp::kLt:
        return x < y;
      case CmpOp::kLe:
        return x <= y;
      case CmpOp::kGt:
        return x > y;
      case CmpOp::kGe:
        return x >= y;
    }
  }
  if (op == CmpOp::kEq) return a.Equals(b);
  if (op == CmpOp::kNe) return !a.Equals(b);
  // Ordered comparison: numeric if both convert, else lexicographic.
  std::optional<double> na = a.ToNumber(store_);
  std::optional<double> nb = b.ToNumber(store_);
  if (na.has_value() && nb.has_value()) {
    switch (op) {
      case CmpOp::kLt:
        return *na < *nb;
      case CmpOp::kLe:
        return *na <= *nb;
      case CmpOp::kGt:
        return *na > *nb;
      case CmpOp::kGe:
        return *na >= *nb;
      default:
        break;
    }
  }
  std::string sa = a.ToString(store_);
  std::string sb = b.ToString(store_);
  switch (op) {
    case CmpOp::kLt:
      return sa < sb;
    case CmpOp::kLe:
      return sa <= sb;
    case CmpOp::kGt:
      return sa > sb;
    case CmpOp::kGe:
      return sa >= sb;
    default:
      return false;
  }
}

bool Evaluator::GeneralCompare(CmpOp op, const Value& lhs, const Value& rhs) {
  // XQuery general comparison: existential over both operand sequences.
  ItemSeq left;
  ItemSeq right;
  FlattenToItems(lhs, &left);
  FlattenToItems(rhs, &right);
  for (const Value& a : left) {
    for (const Value& b : right) {
      if (AtomicCompare(op, a, b)) return true;
    }
  }
  return false;
}

namespace {

/// Aggregates a flat list of atomized values.
Value AggregateItems(AggSpec::Kind kind, const std::vector<Value>& items,
                     const xml::Store& store) {
  if (items.empty()) {
    return kind == AggSpec::Kind::kCount ? Value(static_cast<int64_t>(0))
                                         : Value::Null();
  }
  switch (kind) {
    case AggSpec::Kind::kCount:
      return Value(static_cast<int64_t>(items.size()));
    case AggSpec::Kind::kMin:
    case AggSpec::Kind::kMax: {
      bool all_numeric = true;
      for (const Value& v : items) {
        if (!v.ToNumber(store).has_value()) {
          all_numeric = false;
          break;
        }
      }
      if (all_numeric) {
        double best = *items[0].ToNumber(store);
        for (const Value& v : items) {
          double d = *v.ToNumber(store);
          if (kind == AggSpec::Kind::kMin ? d < best : d > best) best = d;
        }
        return Value(best);
      }
      std::string best = items[0].ToString(store);
      for (const Value& v : items) {
        std::string s = v.ToString(store);
        if (kind == AggSpec::Kind::kMin ? s < best : s > best) {
          best = std::move(s);
        }
      }
      return Value(best);
    }
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg: {
      double sum = 0;
      size_t n = 0;
      for (const Value& v : items) {
        std::optional<double> d = v.ToNumber(store);
        if (d.has_value()) {
          sum += *d;
          ++n;
        }
      }
      if (n == 0) return Value::Null();
      return Value(kind == AggSpec::Kind::kSum ? sum
                                               : sum / static_cast<double>(n));
    }
    default:
      return Value::Null();
  }
}

}  // namespace

Value Evaluator::ApplyAgg(const AggSpec& agg, const Sequence& group,
                          const Tuple& env) {
  const Sequence* source = &group;
  Sequence filtered;
  if (agg.has_filter()) {
    for (const Tuple& t : group) {
      if (EvalPred(*agg.filter, t, env)) filtered.Append(t);
    }
    source = &filtered;
  }
  switch (agg.kind) {
    case AggSpec::Kind::kId:
      return Value::FromTuples(*source);
    case AggSpec::Kind::kCount:
      if (agg.project.empty()) {
        // count over the group itself (count(FLWR) counts returned tuples).
        return Value(static_cast<int64_t>(source->size()));
      }
      break;  // item-wise counting of a projected attribute, below
    case AggSpec::Kind::kProjectItems: {
      ItemSeq items;
      for (const Tuple& t : *source) {
        FlattenToItems(t.Get(agg.project), &items);
      }
      return Value::FromItems(std::move(items));
    }
    default:
      break;
  }
  std::vector<Value> items;
  for (const Tuple& t : *source) {
    ItemSeq flat;
    FlattenToItems(t.Get(agg.project), &flat);
    for (const Value& v : flat) items.push_back(v.Atomize(store_));
  }
  return AggregateItems(agg.kind, items, store_);
}

Value Evaluator::AggEmptyValue(const AggSpec& agg) {
  switch (agg.kind) {
    case AggSpec::Kind::kId:
      return Value::FromTuples(Sequence());
    case AggSpec::Kind::kProjectItems:
      return Value::FromItems(ItemSeq());
    case AggSpec::Kind::kCount:
      return Value(static_cast<int64_t>(0));
    default:
      return Value::Null();
  }
}

void ThrowThetaArityError(const AlgebraOp& op) {
  engine::Error error(engine::ErrorCode::kPlanError,
                      op.kind == OpKind::kGroupUnary
                          ? "theta-grouping requires a single attribute"
                          : "theta nest-join requires a single attribute");
  error.set_op_if_empty(std::string(OpKindName(op.kind)));
  throw error;
}

// Keep in step with EvalFnCall below: every built-in it implements except
// distinct-values.
bool ReturnsAtMostOneItem(const std::string& fn) {
  static const char* const kSingle[] = {
      "doc",    "document", "count",       "min",    "max",
      "sum",    "avg",      "decimal",     "number", "contains",
      "empty",  "exists",   "starts-with", "not",    "true",
      "false",  "string",   "string-length",         "concat"};
  for (const char* name : kSingle) {
    if (fn == name) return true;
  }
  return false;
}

Value Evaluator::EvalFnCall(const Expr& e, const Tuple& local,
                            const Tuple& env) {
  const std::string& fn = e.fn;
  // The parser accepts any argument count, so a built-in called with too
  // few arguments fails here, with the unknown-function error.
  auto arg = [&](size_t i) {
    if (i >= e.children.size()) {
      throw engine::Error(engine::ErrorCode::kPlanError,
                          "too few arguments to function: " + fn, 0, {},
                          "eval.fn");
    }
    return EvalExpr(*e.children[i], local, env);
  };
  if (fn == "doc" || fn == "document") {
    std::string name = arg(0).ToString(store_);
    std::optional<xml::DocId> id = store_.Find(name);
    if (!id.has_value()) {
      throw engine::Error(engine::ErrorCode::kPlanError,
                          "document not found in store: " + name, 0, {},
                          "eval.doc");
    }
    return Value(xml::NodeRef{*id, store_.document(*id).root()});
  }
  if (fn == "count") {
    ItemSeq items;
    FlattenToItems(arg(0), &items);
    return Value(static_cast<int64_t>(items.size()));
  }
  if (fn == "min" || fn == "max" || fn == "sum" || fn == "avg") {
    ItemSeq items;
    FlattenToItems(arg(0), &items);
    std::vector<Value> atomized;
    atomized.reserve(items.size());
    for (const Value& v : items) atomized.push_back(v.Atomize(store_));
    AggSpec::Kind kind = fn == "min"   ? AggSpec::Kind::kMin
                         : fn == "max" ? AggSpec::Kind::kMax
                         : fn == "sum" ? AggSpec::Kind::kSum
                                       : AggSpec::Kind::kAvg;
    return AggregateItems(kind, atomized, store_);
  }
  if (fn == "decimal" || fn == "number") {
    std::optional<double> d = arg(0).ToNumber(store_);
    return d.has_value() ? Value(*d) : Value::Null();
  }
  if (fn == "contains" || fn == "starts-with") {
    // The operands stay alive while their string views are read: most are
    // a node's atom or a string, compared without a copy.
    Value a = arg(0);
    Value b = arg(1);
    std::string scratch_a;
    std::string scratch_b;
    std::string_view s = a.ToStringView(store_, &scratch_a);
    std::string_view t = b.ToStringView(store_, &scratch_b);
    return Value(fn == "contains" ? s.find(t) != std::string_view::npos
                                  : s.starts_with(t));
  }
  if (fn == "empty") {
    ItemSeq items;
    FlattenToItems(arg(0), &items);
    return Value(items.empty());
  }
  if (fn == "exists") {
    ItemSeq items;
    FlattenToItems(arg(0), &items);
    return Value(!items.empty());
  }
  if (fn == "not") {
    return Value(!EffectiveBooleanValue(arg(0)));
  }
  if (fn == "true") return Value(true);
  if (fn == "false") return Value(false);
  if (fn == "string") return Value(arg(0).ToString(store_));
  if (fn == "string-length") {
    return Value(static_cast<int64_t>(arg(0).ToString(store_).size()));
  }
  if (fn == "distinct-values") {
    ItemSeq items;
    FlattenToItems(arg(0), &items);
    ItemSeq out;
    std::unordered_set<Value, ValueHash, ValueEq> seen;
    for (const Value& v : items) {
      Value atom = v.Atomize(store_);
      if (seen.insert(atom).second) out.push_back(std::move(atom));
    }
    return Value::FromItems(std::move(out));
  }
  if (fn == "concat") {
    std::string out;
    for (size_t i = 0; i < e.children.size(); ++i) out += arg(i).ToString(store_);
    return Value(out);
  }
  throw engine::Error(engine::ErrorCode::kPlanError, "unknown function: " + fn,
                      0, {}, "eval.fn");
}

Value Evaluator::EvalPathExpr(const Expr& e, const Tuple& local,
                              const Tuple& env) {
  Value base = EvalExpr(*e.children[0], local, env);
  std::vector<xml::NodeRef> contexts;
  if (base.kind() == ValueKind::kNode) {
    // Single-node context — the per-tuple hot path; skip the flatten.
    contexts.push_back(base.AsNode());
  } else {
    ItemSeq items;
    FlattenToItems(base, &items);
    for (const Value& v : items) {
      if (v.kind() == ValueKind::kNode) contexts.push_back(v.AsNode());
    }
  }
  // Count document scans: a descendant-axis step evaluated from a document
  // root visits (a superset of) the whole document.
  for (const xml::NodeRef& ref : contexts) {
    if (ref.id == 0) {
      for (const xml::Step& step : e.path.steps()) {
        if (step.axis == xml::Axis::kDescendant) {
          ++stats_.doc_scans;
          break;
        }
      }
    }
  }
  static thread_local std::vector<xml::NodeRef> result;
  if (contexts.size() == 1) {
    xml::EvalPathInto(store_, e.path, contexts[0], &stats_.xpath, &result,
                      path_mode_);
  } else {
    result = xml::EvalPath(store_, e.path,
                           std::span<const xml::NodeRef>(contexts),
                           &stats_.xpath, path_mode_);
  }
  ItemSeq out;
  out.reserve(result.size());
  for (const xml::NodeRef& ref : result) out.push_back(Value(ref));
  return Value::FromItems(std::move(out));
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

Sequence Evaluator::EvalOp(const AlgebraOp& op, const Tuple& env) {
  // Cancellation point: nested subscripts re-enter EvalOp once per outer
  // tuple, so a runaway nested-loop plan in the materializing evaluator
  // polls here even when its operators produce nothing.
  CheckInterrupt();
  if (op.cse_id >= 0) {
    if (const Sequence* cached = CseFind(op.cse_id)) return *cached;
  }
  // Profile scope (obs/profile.h): a tracked plan node attributes its
  // emissions — and those of any untracked subscript algebra it evaluates —
  // to itself; untracked nested algebra inherits the enclosing scope. This
  // mirrors the streaming ProfileCursor's stack discipline, which is what
  // makes per-operator rows identical across executors. Wall time here is
  // inclusive of children, like the decorator's; one EvalOp counts as one
  // "open". The guard restores the scope even when an operator throws
  // (cancellation, deadline) so a caller that catches and continues never
  // sees a dangling scope.
  struct ProfileScope {
    obs::ProfileCollector* collector = nullptr;
    obs::OpMetrics* mine = nullptr;
    obs::OpMetrics* saved = nullptr;
    std::chrono::steady_clock::time_point begin;
    ~ProfileScope() {
      if (mine != nullptr) {
        mine->wall_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - begin)
                .count());
        collector->set_current(saved);
      }
    }
  } scope;
  if (profile_ != nullptr) {
    scope.mine = profile_->Find(&op);
    if (scope.mine != nullptr) {
      scope.collector = profile_;
      scope.saved = profile_->current();
      profile_->set_current(scope.mine);
      ++scope.mine->open_calls;
      scope.begin = std::chrono::steady_clock::now();
    }
  }
  Sequence out;
  switch (op.kind) {
    case OpKind::kSingleton:
      out.Append(Tuple());
      break;
    case OpKind::kSelect:
      out = EvalSelect(op, env);
      break;
    case OpKind::kProject:
      out = EvalProject(op, env);
      break;
    case OpKind::kMap:
      out = EvalMap(op, env);
      break;
    case OpKind::kUnnestMap:
      out = EvalUnnestMap(op, env);
      break;
    case OpKind::kUnnest:
      out = EvalUnnest(op, env);
      break;
    case OpKind::kCross:
    case OpKind::kJoin:
      out = EvalCrossJoin(op, env);
      break;
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
      out = EvalSemiAntiJoin(op, env);
      break;
    case OpKind::kOuterJoin:
      out = EvalOuterJoin(op, env);
      break;
    case OpKind::kGroupUnary:
      out = EvalGroupUnary(op, env);
      break;
    case OpKind::kGroupBinary:
      out = EvalGroupBinary(op, env);
      break;
    case OpKind::kSort:
      out = EvalSort(op, env);
      break;
    case OpKind::kXiSimple:
      out = EvalXi(op, env);
      break;
    case OpKind::kXiGroup:
      out = EvalXiGroup(op, env);
      break;
  }
  CountProduced(out.size());
  if (op.cse_id >= 0) {
    // Move into the cache, hand the caller a copy: one copy on the cold
    // path instead of two.
    return CseStore(op.cse_id, std::move(out));
  }
  return out;
}

Sequence Evaluator::EvalSelect(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  Sequence out;
  for (Tuple& t : input) {
    if (EvalPred(*op.pred, t, env)) out.Append(std::move(t));
  }
  return out;
}

Sequence Evaluator::EvalProject(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  Sequence out;
  std::unordered_set<Key, KeyHash> seen;
  for (Tuple& t : input) {
    Tuple t2 = std::move(t);
    for (const auto& [to, from] : op.renames) {
      t2 = std::move(t2).Rename(from, to);
    }
    switch (op.pmode) {
      case ProjectMode::kKeep:
        if (!op.attrs.empty()) t2 = t2.Project(op.attrs);
        out.Append(std::move(t2));
        break;
      case ProjectMode::kDrop:
        out.Append(std::move(t2).Drop(op.attrs));
        break;
      case ProjectMode::kDistinct: {
        if (!op.attrs.empty()) t2 = t2.Project(op.attrs);
        // ΠD has distinct-values semantics (paper Sec. 2): deterministic,
        // idempotent, values atomized; we emit first occurrences in input
        // order, which is deterministic.
        Tuple atomized;
        for (const auto& [a, v] : t2.slots()) {
          atomized.Set(a, v.Atomize(store_));
        }
        Key key;
        for (const auto& [a, v] : atomized.slots()) key.values.push_back(v);
        if (seen.insert(std::move(key)).second) {
          out.Append(std::move(atomized));
        }
        break;
      }
    }
  }
  return out;
}

Sequence Evaluator::EvalMap(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  Sequence out;
  out.Reserve(input.size());
  for (Tuple& t : input) {
    Value v = EvalExpr(*op.expr, t, env);
    t.Set(op.attr, std::move(v));
    out.Append(std::move(t));
  }
  return out;
}

Sequence Evaluator::EvalUnnestMap(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  Sequence out;
  for (Tuple& t : input) {
    Value v = EvalExpr(*op.expr, t, env);
    ItemSeq items;
    FlattenToItems(v, &items);
    if (items.empty() && op.outer) {
      t.Set(op.attr, Value::Null());
      out.Append(std::move(t));
      continue;
    }
    for (size_t i = 0; i < items.size(); ++i) {
      if (i + 1 == items.size()) {
        // Last expansion: the input tuple is ours to reuse.
        t.Set(op.attr, std::move(items[i]));
        out.Append(std::move(t));
      } else {
        Tuple extended = t;
        extended.Set(op.attr, items[i]);
        out.Append(std::move(extended));
      }
    }
  }
  return out;
}

Sequence Evaluator::EvalUnnest(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  // ⊥-shape for the outer variant: the nested attributes, if statically
  // known.
  std::vector<Symbol> bot_attrs;
  {
    AttrInfo info = OutputAttrs(*op.child(0));
    auto it = info.nested.find(op.attr);
    if (it != info.nested.end()) {
      bot_attrs.assign(it->second.begin(), it->second.end());
    }
  }
  std::vector<Symbol> drop = {op.attr};
  Sequence out;
  for (Tuple& t : input) {
    Value v = t.Get(op.attr);
    Tuple base = std::move(t).Drop(drop);
    // Read the nested sequence in place (no copy) when it is already
    // tuple-shaped and needs no dedup.
    std::shared_ptr<const Sequence> held;
    Sequence owned;
    const Sequence* nested = nullptr;
    if (v.kind() == ValueKind::kTupleSeq) {
      held = v.SharedTuples();
      nested = held.get();
    } else {
      ItemSeq items;
      FlattenToItems(v, &items);
      owned = TuplesFromItems(op.attr, items);
      nested = &owned;
    }
    if (op.distinct) {
      // μD: value-based dedup of the nested sequence (paper: ΠD(g)).
      Sequence deduped;
      std::unordered_set<Key, KeyHash> seen;
      for (const Tuple& u : *nested) {
        Key key;
        for (const auto& [a, value] : u.slots()) {
          key.values.push_back(value.Atomize(store_));
        }
        if (seen.insert(std::move(key)).second) deduped.Append(u);
      }
      owned = std::move(deduped);
      nested = &owned;
    }
    if (nested->empty()) {
      if (op.outer) {
        // Paper μ: emit ⊥_{A(e.g)}.
        out.Append(base.Concat(Tuple::Nulls(bot_attrs)));
      }
      continue;
    }
    for (const Tuple& u : *nested) out.Append(base.Concat(u));
  }
  return out;
}

Sequence Evaluator::EvalCrossJoin(const AlgebraOp& op, const Tuple& env) {
  Sequence left = EvalOp(*op.child(0), env);
  Sequence right = EvalOp(*op.child(1), env);
  Sequence out;
  if (op.kind == OpKind::kJoin) {
    SymbolSet lattrs = OutputAttrs(*op.child(0)).attrs;
    SymbolSet rattrs = OutputAttrs(*op.child(1)).attrs;
    std::optional<EquiPredicate> equi =
        ExtractEquiPredicate(op.pred, lattrs, rattrs);
    if (equi.has_value()) {
      HashIndex index;
      index.Build(right, equi->right_attrs, store_);
      std::vector<Key> keys;
      std::vector<uint32_t> lookup;
      for (const Tuple& l : left) {
        index.LookupInto(l, equi->left_attrs, store_, &keys, &lookup);
        for (uint32_t pos : lookup) {
          Tuple combined = l.Concat(right[pos]);
          if (equi->residual == nullptr ||
              EvalPred(*equi->residual, combined, env)) {
            out.Append(std::move(combined));
          }
        }
      }
      return out;
    }
  }
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      Tuple combined = l.Concat(r);
      if (op.kind == OpKind::kCross ||
          EvalPred(*op.pred, combined, env)) {
        out.Append(std::move(combined));
      }
    }
  }
  return out;
}

Sequence Evaluator::EvalSemiAntiJoin(const AlgebraOp& op, const Tuple& env) {
  Sequence left = EvalOp(*op.child(0), env);
  Sequence right = EvalOp(*op.child(1), env);
  bool anti = op.kind == OpKind::kAntiJoin;
  Sequence out;
  SymbolSet lattrs = OutputAttrs(*op.child(0)).attrs;
  SymbolSet rattrs = OutputAttrs(*op.child(1)).attrs;
  std::optional<EquiPredicate> equi =
      ExtractEquiPredicate(op.pred, lattrs, rattrs);
  if (equi.has_value()) {
    HashIndex index;
    index.Build(right, equi->right_attrs, store_);
    std::vector<Key> keys;
    std::vector<uint32_t> lookup;
    for (Tuple& l : left) {
      bool matched = false;
      index.LookupInto(l, equi->left_attrs, store_, &keys, &lookup);
      for (uint32_t pos : lookup) {
        if (equi->residual == nullptr ||
            EvalPred(*equi->residual, l.Concat(right[pos]), env)) {
          matched = true;
          break;
        }
      }
      if (matched != anti) out.Append(std::move(l));
    }
    return out;
  }
  for (Tuple& l : left) {
    bool matched = false;
    for (const Tuple& r : right) {
      if (EvalPred(*op.pred, l.Concat(r), env)) {
        matched = true;
        break;
      }
    }
    if (matched != anti) out.Append(std::move(l));
  }
  return out;
}

Sequence Evaluator::EvalOuterJoin(const AlgebraOp& op, const Tuple& env) {
  Sequence left = EvalOp(*op.child(0), env);
  Sequence right = EvalOp(*op.child(1), env);
  Sequence out;
  // ⊥ shape: A(e2) \ {g}.
  std::vector<Symbol> null_attrs;
  {
    AttrInfo info = OutputAttrs(*op.child(1));
    for (Symbol a : info.attrs) {
      if (a != op.attr) null_attrs.push_back(a);
    }
  }
  Value dflt = op.expr != nullptr ? EvalExpr(*op.expr, Tuple(), env)
                                  : Value::Null();
  auto emit_unmatched = [&](const Tuple& l) {
    Tuple t = l.Concat(Tuple::Nulls(null_attrs));
    t.Set(op.attr, dflt);
    out.Append(std::move(t));
  };
  SymbolSet lattrs = OutputAttrs(*op.child(0)).attrs;
  SymbolSet rattrs = OutputAttrs(*op.child(1)).attrs;
  std::optional<EquiPredicate> equi =
      ExtractEquiPredicate(op.pred, lattrs, rattrs);
  if (equi.has_value()) {
    HashIndex index;
    index.Build(right, equi->right_attrs, store_);
    std::vector<Key> keys;
    std::vector<uint32_t> lookup;
    for (const Tuple& l : left) {
      bool matched = false;
      index.LookupInto(l, equi->left_attrs, store_, &keys, &lookup);
      for (uint32_t pos : lookup) {
        Tuple combined = l.Concat(right[pos]);
        if (equi->residual == nullptr ||
            EvalPred(*equi->residual, combined, env)) {
          matched = true;
          out.Append(std::move(combined));
        }
      }
      if (!matched) emit_unmatched(l);
    }
    return out;
  }
  for (const Tuple& l : left) {
    bool matched = false;
    for (const Tuple& r : right) {
      Tuple combined = l.Concat(r);
      if (EvalPred(*op.pred, combined, env)) {
        matched = true;
        out.Append(std::move(combined));
      }
    }
    if (!matched) emit_unmatched(l);
  }
  return out;
}

Sequence Evaluator::EvalGroupUnary(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  Sequence out;
  // Distinct keys in first-occurrence order (ΠD semantics: deterministic).
  std::vector<Key> order;
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> buckets;
  std::vector<Key> keys;
  bool multi_key = false;
  for (uint32_t i = 0; i < input.size(); ++i) {
    MakeKeysInto(input[i], op.left_attrs, store_, &keys);
    if (keys.size() > 1) multi_key = true;
    for (Key& k : keys) {
      auto [it, inserted] = buckets.try_emplace(k);
      if (inserted) order.push_back(k);
      it->second.push_back(i);
    }
  }
  for (const Key& key : order) {
    Sequence group;
    if (op.theta == CmpOp::kEq) {
      // Unless a sequence-valued key put a tuple into several buckets, each
      // input tuple belongs to exactly one group: hand it over.
      for (uint32_t pos : buckets[key]) {
        if (multi_key) {
          group.Append(input[pos]);
        } else {
          group.Append(std::move(input[pos]));
        }
      }
    } else {
      // θ-grouping: group for key v = σ_{v θ A}(e).
      if (op.left_attrs.size() != 1) ThrowThetaArityError(op);
      for (const Tuple& u : input) {
        if (GeneralCompare(op.theta, key.values[0], u.Get(op.left_attrs[0]))) {
          group.Append(u);
        }
      }
    }
    Tuple result;
    for (size_t j = 0; j < op.left_attrs.size(); ++j) {
      result.Set(op.left_attrs[j], key.values[j]);
    }
    result.Set(op.attr, ApplyAgg(op.agg, std::move(group), env));
    out.Append(std::move(result));
  }
  return out;
}

Sequence Evaluator::EvalGroupBinary(const AlgebraOp& op, const Tuple& env) {
  Sequence left = EvalOp(*op.child(0), env);
  Sequence right = EvalOp(*op.child(1), env);
  Sequence out;
  out.Reserve(left.size());
  if (op.theta == CmpOp::kEq) {
    HashIndex index;
    index.Build(right, op.right_attrs, store_);
    std::vector<Key> keys;
    std::vector<uint32_t> lookup;
    for (Tuple& l : left) {
      Sequence group;
      index.LookupInto(l, op.left_attrs, store_, &keys, &lookup);
      for (uint32_t pos : lookup) {
        group.Append(right[pos]);
      }
      l.Set(op.attr, ApplyAgg(op.agg, std::move(group), env));
      out.Append(std::move(l));
    }
    return out;
  }
  if (op.left_attrs.size() != 1) ThrowThetaArityError(op);
  for (Tuple& l : left) {
    Sequence group;
    for (const Tuple& r : right) {
      if (GeneralCompare(op.theta, l.Get(op.left_attrs[0]),
                         r.Get(op.right_attrs[0]))) {
        group.Append(r);
      }
    }
    l.Set(op.attr, ApplyAgg(op.agg, std::move(group), env));
    out.Append(std::move(l));
  }
  return out;
}

Sequence Evaluator::EvalSort(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  std::vector<uint32_t> idx(input.size());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<std::vector<Value>> keys(input.size());
  for (uint32_t i = 0; i < input.size(); ++i) {
    for (Symbol a : op.attrs) {
      keys[i].push_back(input[i].Get(a).Atomize(store_));
    }
  }
  std::stable_sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    for (size_t j = 0; j < op.attrs.size(); ++j) {
      auto c = Value::Compare(keys[a][j], keys[b][j]);
      if (c != std::strong_ordering::equal) {
        bool descending = j < op.sort_desc.size() && op.sort_desc[j] != 0;
        return descending ? c == std::strong_ordering::greater
                          : c == std::strong_ordering::less;
      }
    }
    return false;
  });
  Sequence out;
  out.Reserve(input.size());
  for (uint32_t i : idx) out.Append(std::move(input[i]));
  return out;
}

const std::string& Evaluator::RenderedNode(xml::NodeRef ref) const {
  auto [it, inserted] = render_cache_.try_emplace(ref);
  if (inserted) {
    const xml::Document& doc = store_.doc_of(ref);
    if (doc.kind(ref.id) == xml::NodeKind::kElement) {
      xml::SerializeTo(doc, ref.id, &it->second);
    } else {
      it->second = xml::EncodeEntities(doc.AtomOf(ref.id).bytes);
    }
  }
  return it->second;
}

void Evaluator::RenderValue(const Value& v, std::string* out) const {
  switch (v.kind()) {
    case ValueKind::kNull:
      return;
    case ValueKind::kNode: {
      *out += RenderedNode(v.AsNode());
      return;
    }
    case ValueKind::kString:
      *out += xml::EncodeEntities(v.AsString());
      return;
    case ValueKind::kItemSeq: {
      bool prev_atomic = false;
      for (const Value& item : v.AsItems()) {
        bool atomic = item.kind() != ValueKind::kNode &&
                      !item.is_sequence() && !item.is_null();
        if (atomic && prev_atomic) *out += ' ';
        RenderValue(item, out);
        prev_atomic = atomic;
      }
      return;
    }
    case ValueKind::kTupleSeq: {
      for (const Tuple& t : v.AsTuples()) {
        for (const auto& [a, value] : t.slots()) RenderValue(value, out);
      }
      return;
    }
    default:
      *out += v.ToString(store_);
  }
}

void Evaluator::RunXiProgram(const XiProgram& program, const Tuple& t,
                             const Tuple& env) {
  for (const XiCommand& c : program) {
    if (c.is_literal) {
      output_ += c.text;
    } else {
      Value v = EvalExpr(*c.expr, t, env);
      RenderValue(v, &output_);
    }
  }
}

Sequence Evaluator::EvalXi(const AlgebraOp& op, const Tuple& env) {
  Sequence input = EvalOp(*op.child(0), env);
  for (const Tuple& t : input) RunXiProgram(op.s1, t, env);
  return input;
}

Sequence Evaluator::EvalXiGroup(const AlgebraOp& op, const Tuple& env) {
  // Defined as Ξ(s1;Ξs2;s3)(Γ_{g;=A;id}(e)) with an order-preserving
  // duplicate operation: evaluate directly with first-occurrence grouping.
  Sequence input = EvalOp(*op.child(0), env);
  std::vector<Key> order;
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> buckets;
  std::vector<Key> keys;
  for (uint32_t i = 0; i < input.size(); ++i) {
    MakeKeysInto(input[i], op.attrs, store_, &keys);
    for (Key& k : keys) {
      auto [it, inserted] = buckets.try_emplace(k);
      if (inserted) order.push_back(k);
      it->second.push_back(i);
    }
  }
  Sequence out;
  for (const Key& key : order) {
    const std::vector<uint32_t>& members = buckets[key];
    Tuple rep;
    for (size_t j = 0; j < op.attrs.size(); ++j) {
      rep.Set(op.attrs[j], key.values[j]);
    }
    // The group attributes carry the atomized key (ΠD semantics); they win
    // over the inner tuple's original values in s1/s3.
    RunXiProgram(op.s1, input[members.front()].Concat(rep), env);
    for (uint32_t pos : members) RunXiProgram(op.s2, input[pos], env);
    RunXiProgram(op.s3, input[members.back()].Concat(rep), env);
    out.Append(std::move(rep));
  }
  return out;
}

}  // namespace nalq::nal
