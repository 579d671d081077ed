#include "rewrite/equivalences.h"

#include <algorithm>

namespace nalq::rewrite {

namespace {

using nal::AggSpec;
using nal::AlgebraOp;
using nal::AlgebraPtr;
using nal::CmpOp;
using nal::Expr;
using nal::ExprKind;
using nal::ExprPtr;
using nal::OpKind;
using nal::Symbol;
using nal::SymbolSet;

void FlattenAnd(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kAnd) {
    FlattenAnd(e->children[0], out);
    FlattenAnd(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

ExprPtr JoinAnd(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr out;
  for (const ExprPtr& c : conjuncts) {
    out = out == nullptr ? c : nal::MakeAnd(out, c);
  }
  return out;
}

/// f(ε): the value an aggregate assigns to the empty group — the outer-join
/// default of Eqv. 2/4.
nal::Value AggEmpty(const AggSpec& agg) {
  switch (agg.kind) {
    case AggSpec::Kind::kId:
      return nal::Value::FromTuples(nal::Sequence());
    case AggSpec::Kind::kProjectItems:
      return nal::Value::FromItems(nal::ItemSeq());
    case AggSpec::Kind::kCount:
      return nal::Value(static_cast<int64_t>(0));
    default:
      return nal::Value::Null();
  }
}

/// Result of pulling correlated conjuncts out of a nested χ/Υ/σ chain.
struct Extraction {
  std::vector<ExprPtr> moved;  ///< conjuncts referencing outer attributes
  AlgebraPtr rebuilt;          ///< the chain without those conjuncts
};

/// Removes every conjunct that references attributes of `outer` from the σ
/// operators of the chain under `op`. Selections commute with the χ/Υ
/// operators above them (which only add attributes), so pulling a conjunct
/// out of the chain is sound as long as its non-outer references are
/// produced *below* its position — which is checked per conjunct. Returns
/// nullopt when a correlated conjunct cannot be extracted safely.
std::optional<Extraction> ExtractOuterConjuncts(const AlgebraPtr& op,
                                                const SymbolSet& outer) {
  switch (op->kind) {
    case OpKind::kSelect: {
      SymbolSet below = nal::OutputAttrs(*op->child(0)).attrs;
      std::vector<ExprPtr> conjuncts;
      FlattenAnd(op->pred, &conjuncts);
      std::vector<ExprPtr> moved;
      std::vector<ExprPtr> kept;
      for (const ExprPtr& c : conjuncts) {
        std::vector<Symbol> refs;
        nal::CollectFreeAttrs(*c, &refs);
        bool mentions_outer = false;
        bool inner_ok = true;
        for (Symbol s : refs) {
          if (outer.count(s) != 0) {
            mentions_outer = true;
          } else if (below.count(s) == 0) {
            inner_ok = false;
          }
        }
        if (mentions_outer) {
          if (!inner_ok) return std::nullopt;
          moved.push_back(c);
        } else {
          kept.push_back(c);
        }
      }
      std::optional<Extraction> sub = ExtractOuterConjuncts(op->child(0), outer);
      if (!sub.has_value()) return std::nullopt;
      Extraction out;
      out.moved = std::move(sub->moved);
      out.moved.insert(out.moved.end(), moved.begin(), moved.end());
      out.rebuilt = kept.empty() ? sub->rebuilt
                                 : nal::Select(JoinAnd(kept), sub->rebuilt);
      return out;
    }
    case OpKind::kMap:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
    case OpKind::kProject: {
      std::optional<Extraction> sub = ExtractOuterConjuncts(op->child(0), outer);
      if (!sub.has_value()) return std::nullopt;
      Extraction out;
      out.moved = std::move(sub->moved);
      out.rebuilt = sub->rebuilt == op->child(0)
                        ? op
                        : nal::ReplaceChild(*op, 0, std::move(sub->rebuilt));
      return out;
    }
    default: {
      Extraction out;
      out.rebuilt = op;
      return out;
    }
  }
}

/// A correlation conjunct A1 θ A2 with A1 from the outer and A2 from the
/// inner expression.
struct Correlation {
  Symbol a1;
  Symbol a2;
  CmpOp theta = CmpOp::kEq;
};

CmpOp FlipCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

std::optional<Correlation> AsCorrelation(const Expr& c,
                                         const SymbolSet& outer_attrs,
                                         const SymbolSet& inner_attrs) {
  if (c.kind != ExprKind::kCmp) return std::nullopt;
  if (c.children[0]->kind != ExprKind::kAttrRef ||
      c.children[1]->kind != ExprKind::kAttrRef) {
    return std::nullopt;
  }
  Symbol x = c.children[0]->attr;
  Symbol y = c.children[1]->attr;
  Correlation corr;
  if (outer_attrs.count(x) != 0 && inner_attrs.count(x) == 0 &&
      inner_attrs.count(y) != 0) {
    corr.a1 = x;
    corr.a2 = y;
    corr.theta = c.cmp;
    return corr;
  }
  if (outer_attrs.count(y) != 0 && inner_attrs.count(y) == 0 &&
      inner_attrs.count(x) != 0) {
    corr.a1 = y;
    corr.a2 = x;
    corr.theta = FlipCmp(c.cmp);
    return corr;
  }
  return std::nullopt;
}

}  // namespace

std::vector<Alternative> UnnestMapNode(const AlgebraOp& map_op,
                                       const SymbolSet& required_above,
                                       const ConditionChecker& checker) {
  std::vector<Alternative> out;
  if (map_op.kind != OpKind::kMap || map_op.expr == nullptr) return out;
  // χ-subscript shape f(...): aggregate spec over a nested algebra chain.
  AggSpec f;
  AlgebraPtr chain;
  const Expr& expr = *map_op.expr;
  if (expr.kind == ExprKind::kAgg &&
      expr.children[0]->kind == ExprKind::kNestedAlg) {
    f = expr.agg;
    chain = expr.children[0]->alg;
  } else if (expr.kind == ExprKind::kNestedAlg) {
    f = nal::AggId();
    chain = expr.alg;
  } else {
    return out;
  }
  const AlgebraPtr& e1 = map_op.child(0);
  Symbol g = map_op.attr;
  nal::AttrInfo e1_info = nal::OutputAttrs(*e1);

  std::optional<Extraction> ext = ExtractOuterConjuncts(chain, e1_info.attrs);
  if (!ext.has_value() || ext->moved.size() != 1) return out;
  AlgebraPtr e2 = ext->rebuilt;
  nal::AttrInfo e2_info = nal::OutputAttrs(*e2);
  // Condition g ∉ A(e1) ∪ A(e2).
  if (e1_info.Has(g) || e2_info.Has(g)) return out;
  std::optional<Correlation> corr =
      AsCorrelation(*ext->moved[0], e1_info.attrs, e2_info.attrs);
  if (!corr.has_value()) return out;
  // Condition F(e2) ∩ A(e1) = ∅.
  if (!ConditionChecker::FreeOfOuter(*e2, *e1)) return out;

  ExprPtr f_empty = nal::MakeConst(AggEmpty(f));
  AttrProvenance a1_prov =
      ProvenanceOf(DeriveProvenance(*e1, checker.dtds()), corr->a1);
  AttrProvenance a2_prov = ProvenanceOf(DeriveProvenance(*e2), corr->a2);
  bool nested = a2_prov.is_nested;
  Symbol item_attr = a2_prov.nested_item;
  if (!nested) {
    auto nit = e2_info.nested.find(corr->a2);
    if (nit != e2_info.nested.end() && nit->second.size() == 1) {
      nested = true;
      item_attr = *nit->second.begin();
    }
  }

  auto required_ok = [&](const AlgebraOp& plan) {
    nal::SymbolSet provided = nal::OutputAttrs(plan).attrs;
    for (Symbol s : required_above) {
      if (provided.count(s) == 0) return false;
    }
    return true;
  };

  if (nested && corr->theta == CmpOp::kEq) {
    // A1 ∈ a2 (the value of a2 is an e[a'] sequence). Condition for 4/5:
    // f may not depend on a2 or its items.
    if (!f.DependsOn(corr->a2) && !f.DependsOn(item_attr)) {
      AlgebraPtr mu = nal::Unnest(corr->a2, e2, /*distinct=*/true,
                                  /*outer=*/false);
      // Eqv. 5 (condition: e1 = ΠD_{A1:A2}(Π_{A2}(μ_{a2}(e2)))).
      if (checker.DistinctSourceMatchesNested(a1_prov, a2_prov)) {
        AlgebraPtr plan = nal::ProjectRename(
            {{corr->a1, item_attr}},
            nal::GroupUnary(g, CmpOp::kEq, {item_attr}, f, mu));
        if (required_ok(*plan)) {
          out.push_back({"eqv5-grouping", std::move(plan)});
        }
      }
      // Eqv. 4 (condition: A1 holds at most one item per e1 tuple).
      if (ConditionChecker::IsSingleValued(a1_prov)) {
        AlgebraPtr grouped =
            nal::GroupUnary(g, CmpOp::kEq, {item_attr}, f, mu);
        AlgebraPtr oj = nal::OuterJoin(
            nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(corr->a1),
                         nal::MakeAttrRef(item_attr)),
            g, f_empty, e1, std::move(grouped));
        AlgebraPtr plan = nal::ProjectDrop({item_attr}, std::move(oj));
        if (required_ok(*plan)) {
          out.push_back({"eqv4-outerjoin", std::move(plan)});
        }
      }
    }
    // Nest-join over the membership predicate (Eqv. 1 generalized to ∈; the
    // hash grouping expands sequence-valued keys).
    {
      AlgebraPtr plan = nal::GroupBinary(g, {corr->a1}, CmpOp::kEq,
                                         {corr->a2}, f, e1, e2);
      if (required_ok(*plan)) {
        out.push_back({"eqv1-nestjoin", std::move(plan)});
      }
    }
    return out;
  }

  // Atomic A1 θ A2.
  // Eqv. 3 (condition: e1 = ΠD_{A1:A2}(Π_{A2}(e2))).
  if (checker.DistinctSourceMatches(a1_prov, a2_prov)) {
    AlgebraPtr plan = nal::ProjectRename(
        {{corr->a1, corr->a2}},
        nal::GroupUnary(g, corr->theta, {corr->a2}, f, e2));
    if (required_ok(*plan)) {
      out.push_back({"eqv3-grouping", std::move(plan)});
    }
  }
  // Eqv. 2 (θ must be '=', and A1 hold at most one item per e1 tuple).
  if (corr->theta == CmpOp::kEq &&
      ConditionChecker::IsSingleValued(a1_prov)) {
    AlgebraPtr grouped = nal::GroupUnary(g, CmpOp::kEq, {corr->a2}, f, e2);
    AlgebraPtr oj = nal::OuterJoin(
        nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(corr->a1),
                     nal::MakeAttrRef(corr->a2)),
        g, f_empty, e1, std::move(grouped));
    AlgebraPtr plan = nal::ProjectDrop({corr->a2}, std::move(oj));
    if (required_ok(*plan)) {
      out.push_back({"eqv2-outerjoin", std::move(plan)});
    }
  }
  // Eqv. 1 (any θ).
  {
    AlgebraPtr plan =
        nal::GroupBinary(g, {corr->a1}, corr->theta, {corr->a2}, f, e1, e2);
    if (required_ok(*plan)) {
      out.push_back({"eqv1-nestjoin", std::move(plan)});
    }
  }
  return out;
}

std::vector<Alternative> UnnestQuantNode(const AlgebraOp& select_op,
                                         const SymbolSet& required_above,
                                         const ConditionChecker& checker) {
  (void)required_above;  // semi/antijoins keep A(e1): nothing can go missing
  (void)checker;
  std::vector<Alternative> out;
  if (select_op.kind != OpKind::kSelect ||
      select_op.pred->kind != ExprKind::kQuant) {
    return out;
  }
  const Expr& quant = *select_op.pred;
  const AlgebraPtr& e1 = select_op.child(0);
  nal::AttrInfo e1_info = nal::OutputAttrs(*e1);

  // Peel the range: Π_{x'}(...).
  AlgebraPtr range = quant.alg;
  Symbol x_prime;
  if (range->kind == OpKind::kProject &&
      range->pmode == nal::ProjectMode::kKeep && range->attrs.size() == 1 &&
      range->renames.empty()) {
    x_prime = range->attrs[0];
    range = range->child(0);
  } else {
    return out;
  }
  std::optional<Extraction> ext = ExtractOuterConjuncts(range, e1_info.attrs);
  if (!ext.has_value() || ext->moved.empty()) return out;
  AlgebraPtr e2 = ext->rebuilt;
  if (!ConditionChecker::FreeOfOuter(*e2, *e1)) return out;

  // p' = p with the quantifier variable replaced by x'.
  ExprPtr p = quant.children[0];
  bool p_trivial =
      p->kind == ExprKind::kConst && p->literal.kind() == nal::ValueKind::kBool;
  bool p_true = p_trivial && p->literal.AsBool();
  std::vector<ExprPtr> pred_parts = ext->moved;
  if (quant.quant == nal::QuantKind::kSome) {
    if (!p_true) {
      pred_parts.push_back(nal::SubstituteAttr(p, quant.quant_var, x_prime));
    }
    ExprPtr pred = JoinAnd(pred_parts);
    out.push_back(
        {"eqv6-semijoin", nal::SemiJoin(pred, e1, e2)});
  } else {
    ExprPtr p_sub = nal::SubstituteAttr(p, quant.quant_var, x_prime);
    ExprPtr negated = p_sub->kind == ExprKind::kCmp
                          ? nal::MakeCmp(nal::NegateCmp(p_sub->cmp),
                                         p_sub->children[0], p_sub->children[1])
                          : nal::MakeNot(p_sub);
    pred_parts.push_back(std::move(negated));
    ExprPtr pred = JoinAnd(pred_parts);
    out.push_back(
        {"eqv7-antijoin", nal::AntiJoin(pred, e1, e2)});
  }
  return out;
}

std::optional<Alternative> CountingRewrite(const AlgebraOp& join_op,
                                           const SymbolSet& required_above,
                                           const ConditionChecker& checker) {
  if (join_op.kind != OpKind::kSemiJoin && join_op.kind != OpKind::kAntiJoin) {
    return std::nullopt;
  }
  const AlgebraPtr& e1 = join_op.child(0);
  const AlgebraPtr& e2 = join_op.child(1);
  nal::AttrInfo e1_info = nal::OutputAttrs(*e1);
  nal::AttrInfo e2_info = nal::OutputAttrs(*e2);
  std::vector<ExprPtr> conjuncts;
  FlattenAnd(join_op.pred, &conjuncts);
  std::optional<Correlation> corr;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    std::optional<Correlation> candidate =
        AsCorrelation(*c, e1_info.attrs, e2_info.attrs);
    if (candidate.has_value() && !corr.has_value() &&
        candidate->theta == CmpOp::kEq) {
      corr = candidate;
      continue;
    }
    // Residual conjuncts must be local to e2.
    std::vector<Symbol> refs;
    nal::CollectFreeAttrs(*c, &refs);
    for (Symbol s : refs) {
      if (e2_info.attrs.count(s) == 0) return std::nullopt;
    }
    residual.push_back(c);
  }
  if (!corr.has_value()) return std::nullopt;
  // Ancestors may reference only A1 — the counting plan drops everything
  // else of e1.
  for (Symbol s : required_above) {
    if (s != corr->a1 && e1_info.attrs.count(s) != 0) return std::nullopt;
  }
  // ΠD(e1) = e1 and ΠD(e1) = ΠD_{A1:A2}(Π_{A2}(e2)).
  AttrProvenance a1_prov =
      ProvenanceOf(DeriveProvenance(*e1, checker.dtds()), corr->a1);
  if (!ConditionChecker::IsDuplicateFree(a1_prov)) return std::nullopt;
  if (!checker.DistinctSourceMatches(
          a1_prov, ProvenanceOf(DeriveProvenance(*e2), corr->a2))) {
    return std::nullopt;
  }
  AggSpec count = nal::AggCount();
  if (!residual.empty()) count.filter = JoinAnd(residual);
  Symbol c = Symbol::Fresh("c");
  AlgebraPtr grouped =
      nal::GroupUnary(c, CmpOp::kEq, {corr->a2}, std::move(count), e2);
  AlgebraPtr renamed =
      nal::ProjectRename({{corr->a1, corr->a2}}, std::move(grouped));
  bool anti = join_op.kind == OpKind::kAntiJoin;
  ExprPtr pred = nal::MakeCmp(anti ? CmpOp::kEq : CmpOp::kGt,
                              nal::MakeAttrRef(c),
                              nal::MakeConst(nal::Value(int64_t{0})));
  return Alternative{anti ? "eqv9-counting" : "eqv8-counting",
                     nal::Select(std::move(pred), std::move(renamed))};
}

std::optional<Alternative> GroupXiRewrite(const AlgebraOp& xi_op) {
  if (xi_op.kind != OpKind::kXiSimple) return std::nullopt;
  const AlgebraPtr& below = xi_op.child(0);
  // Expect Π_{A1:A2} (rename-only) over Γ_{g;=A2;Π_t}.
  Symbol a1;
  Symbol a2;
  AlgebraPtr gamma = below;
  if (below->kind == OpKind::kProject &&
      below->pmode == nal::ProjectMode::kKeep && below->attrs.empty() &&
      below->renames.size() == 1) {
    a1 = below->renames[0].first;
    a2 = below->renames[0].second;
    gamma = below->child(0);
  }
  if (gamma->kind != OpKind::kGroupUnary || gamma->theta != CmpOp::kEq ||
      gamma->left_attrs.size() != 1 ||
      gamma->agg.kind != AggSpec::Kind::kProjectItems) {
    return std::nullopt;
  }
  if (a2.empty()) {
    a1 = a2 = gamma->left_attrs[0];
  } else if (gamma->left_attrs[0] != a2) {
    return std::nullopt;
  }
  Symbol g = gamma->attr;
  Symbol t = gamma->agg.project;
  // Split the command list around the single reference to g.
  nal::XiProgram s1;
  nal::XiProgram s3;
  bool seen_g = false;
  for (const nal::XiCommand& cmd : xi_op.s1) {
    if (!cmd.is_literal && cmd.expr->kind == ExprKind::kAttrRef &&
        cmd.expr->attr == g) {
      if (seen_g) return std::nullopt;
      seen_g = true;
      continue;
    }
    nal::XiCommand rewritten = cmd;
    if (!cmd.is_literal) {
      std::vector<Symbol> refs;
      nal::CollectFreeAttrs(*cmd.expr, &refs);
      for (Symbol s : refs) {
        if (s == g) return std::nullopt;  // complex use of g: bail out
      }
      rewritten.expr = nal::SubstituteAttr(cmd.expr, a1, a2);
    }
    (seen_g ? s3 : s1).push_back(std::move(rewritten));
  }
  if (!seen_g) return std::nullopt;
  nal::XiProgram s2 = {nal::XiCommand::Var(t)};
  return Alternative{"group-xi",
                     nal::XiGroup(std::move(s1), {a2}, std::move(s2),
                                  std::move(s3), gamma->child(0))};
}

}  // namespace nalq::rewrite
