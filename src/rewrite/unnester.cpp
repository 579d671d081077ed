#include "rewrite/unnester.h"

#include <unordered_set>

namespace nalq::rewrite {

namespace {

using nal::AlgebraOp;
using nal::AlgebraPtr;
using nal::ExprKind;
using nal::OpKind;
using nal::Symbol;
using nal::SymbolSet;

/// Attributes referenced by an operator's own subscripts (predicates, map
/// expressions, aggregate filters, Ξ programs).
SymbolSet SubscriptRefs(const AlgebraOp& op) {
  SymbolSet out;
  nal::ForEachSubscript(op, [&](const nal::Expr& e) {
    std::vector<Symbol> refs;
    nal::CollectFreeAttrs(e, &refs);
    out.insert(refs.begin(), refs.end());
  });
  for (Symbol s : op.attrs) out.insert(s);
  for (const auto& [to, from] : op.renames) out.insert(from);
  for (Symbol s : op.left_attrs) out.insert(s);
  for (Symbol s : op.right_attrs) out.insert(s);
  if (!op.agg.project.empty()) out.insert(op.agg.project);
  return out;
}

/// DFS for a semi/antijoin where the counting rewrite (Eqv. 8/9) fires.
std::optional<Alternative> ApplyCountingRec(const AlgebraPtr& op,
                                            const SymbolSet& required,
                                            const ConditionChecker& checker) {
  std::optional<Alternative> here = CountingRewrite(*op, required, checker);
  if (here.has_value()) return here;
  SymbolSet child_required = nal::Union(required, SubscriptRefs(*op));
  for (size_t i = 0; i < op->children.size(); ++i) {
    std::optional<Alternative> sub =
        ApplyCountingRec(op->children[i], child_required, checker);
    if (sub.has_value()) {
      return Alternative{sub->rule, nal::ReplaceChild(*op, i, sub->plan)};
    }
  }
  return std::nullopt;
}

}  // namespace

nal::AlgebraPtr Unnester::SplitSelects(const nal::AlgebraPtr& plan) {
  // Bottom-up; only the spine above a split selection is rebuilt.
  AlgebraPtr node = plan;
  for (size_t i = 0; i < plan->children.size(); ++i) {
    AlgebraPtr child = SplitSelects(plan->children[i]);
    if (child != plan->children[i]) {
      if (node == plan) node = std::make_shared<AlgebraOp>(*plan);
      node->children[i] = std::move(child);
    }
  }
  while (node->kind == OpKind::kSelect && node->pred->kind == ExprKind::kAnd) {
    nal::ExprPtr p = node->pred->children[0];
    nal::ExprPtr q = node->pred->children[1];
    node = nal::Select(p, nal::Select(q, node->child(0)));
  }
  return node;
}

std::vector<Alternative> Unnester::RewriteSubtree(const AlgebraPtr& op,
                                                  const SymbolSet& required) {
  // Site rewrites at this node.
  if (op->kind == OpKind::kMap) {
    std::vector<Alternative> alts = UnnestMapNode(*op, required, checker_);
    if (!alts.empty()) return alts;
  }
  if (op->kind == OpKind::kSelect && op->pred->kind == ExprKind::kQuant) {
    std::vector<Alternative> alts = UnnestQuantNode(*op, required, checker_);
    if (!alts.empty()) return alts;
  }
  // Recurse: first child with alternatives wins (translated plans contain
  // one unnesting site per query block; deeper blocks are reached after the
  // outer site was rewritten and Alternatives() is called again).
  // Attributes this operator *defines* (rather than reads from its child)
  // are not required from below.
  SymbolSet child_required = nal::Union(required, SubscriptRefs(*op));
  switch (op->kind) {
    case OpKind::kMap:
    case OpKind::kUnnestMap:
    case OpKind::kOuterJoin:
    case OpKind::kGroupUnary:
    case OpKind::kGroupBinary:
      child_required.erase(op->attr);
      break;
    default:
      break;
  }
  for (size_t i = 0; i < op->children.size(); ++i) {
    // Attributes provided by sibling subtrees are not required from this
    // child (e.g. the grouped side of an outer join supplies the join
    // attribute, not the probe side).
    SymbolSet this_child_required = child_required;
    for (size_t j = 0; j < op->children.size(); ++j) {
      if (j == i) continue;
      for (Symbol a : nal::OutputAttrs(*op->children[j]).attrs) {
        this_child_required.erase(a);
      }
    }
    std::vector<Alternative> sub =
        RewriteSubtree(op->children[i], this_child_required);
    if (!sub.empty()) {
      std::vector<Alternative> out;
      out.reserve(sub.size());
      for (Alternative& alt : sub) {
        out.push_back({alt.rule, nal::ReplaceChild(*op, i, alt.plan)});
      }
      return out;
    }
  }
  return {};
}

std::vector<Alternative> Unnester::Alternatives(const nal::AlgebraPtr& plan) {
  std::vector<Alternative> out;
  out.push_back({"nested", plan});
  AlgebraPtr prepared = SplitSelects(plan);
  std::vector<Alternative> base = RewriteSubtree(prepared, {});
  for (Alternative& alt : base) {
    // Chained rewrites on top of each base alternative.
    std::optional<Alternative> counting =
        ApplyCountingRec(alt.plan, {}, checker_);
    std::optional<Alternative> group_xi = GroupXiRewrite(*alt.plan);
    out.push_back(alt);
    if (counting.has_value()) {
      out.push_back({alt.rule + "+" + counting->rule, counting->plan});
    }
    if (group_xi.has_value()) {
      out.push_back({alt.rule + "+" + group_xi->rule, group_xi->plan});
    }
  }
  return out;
}

std::vector<Alternative> Unnester::AllAlternatives(const nal::AlgebraPtr& plan,
                                                   size_t max_plans) {
  std::vector<Alternative> out;
  out.push_back({"nested", plan});
  // Keys point into the plans `out` holds.
  std::unordered_set<const AlgebraOp*, nal::StructuralOpHash,
                     nal::StructuralOpEqual>
      seen = {plan.get()};
  // Breadth-first worklist of indexes into `out` still to expand.
  for (size_t next = 0; next < out.size() && out.size() < max_plans; ++next) {
    const Alternative current = out[next];  // copy: out grows below
    std::vector<Alternative> alts = Alternatives(current.plan);
    for (size_t i = 1; i < alts.size() && out.size() < max_plans; ++i) {
      if (!seen.insert(alts[i].plan.get()).second) continue;
      std::string rule = current.rule == "nested"
                             ? alts[i].rule
                             : current.rule + "," + alts[i].rule;
      out.push_back({std::move(rule), alts[i].plan});
    }
  }
  return out;
}

int RulePriority(const std::string& rule) {
  auto contains = [&](const char* s) {
    return rule.find(s) != std::string::npos;
  };
  if (contains("group-xi")) return 0;
  if (contains("eqv5") || contains("eqv3")) return 1;
  if (contains("eqv8") || contains("eqv9")) return 2;
  if (contains("eqv4") || contains("eqv2")) return 3;
  if (contains("eqv1")) return 4;
  if (contains("eqv6") || contains("eqv7")) return 5;
  return 9;  // nested
}

Alternative Unnester::Best(const nal::AlgebraPtr& plan) {
  // Iterate: each round enumerates alternatives for the current plan, picks
  // the best-ranked one, and repeats — so a query with several nested
  // blocks unnests them all (each rewrite consumes its site).
  Alternative current{"nested", plan};
  for (int round = 0; round < 8; ++round) {
    std::vector<Alternative> alts = Alternatives(current.plan);
    Alternative best = alts.front();
    int best_priority = RulePriority(best.rule);
    for (const Alternative& alt : alts) {
      int priority = RulePriority(alt.rule);
      if (priority < best_priority) {
        best = alt;
        best_priority = priority;
      }
    }
    if (best_priority >= RulePriority("nested")) break;  // nothing applied
    current.plan = best.plan;
    current.rule = current.rule == "nested" ? best.rule
                                            : current.rule + "," + best.rule;
  }
  return current;
}

}  // namespace nalq::rewrite
