// Static analyses over algebra trees:
//   A(e) — the attributes an expression produces (paper notation A(e)),
//          including the inner attributes of nested sequence-valued ones,
//   F(e) — free variables (paper notation F(e)),
// both required to verify the side conditions of the unnesting equivalences
// (e.g. Ai ⊆ A(ei), F(e2) ∩ A(e1) = ∅).
#ifndef NALQ_NAL_ANALYSIS_H_
#define NALQ_NAL_ANALYSIS_H_

#include <map>
#include <set>
#include <vector>

#include "nal/algebra.h"

namespace nalq::nal {

using SymbolSet = std::set<Symbol>;

/// A(e) plus, for tuple-sequence-valued attributes whose shape is statically
/// known (Γ with f = id, χ of a nested algebra or e[a] binding), the inner
/// attribute sets.
struct AttrInfo {
  SymbolSet attrs;
  std::map<Symbol, SymbolSet> nested;

  bool Has(Symbol a) const { return attrs.count(a) != 0; }
};

/// Computes A(op).
AttrInfo OutputAttrs(const AlgebraOp& op);

/// Computes F(op): attributes referenced anywhere in `op`'s subscripts that
/// no child of the referencing operator provides.
SymbolSet FreeVars(const AlgebraOp& op);

/// Free attributes of an expression given the attributes `bound` available
/// from the operator's input.
SymbolSet FreeVarsExpr(const Expr& e, const SymbolSet& bound);

/// The plan shape every executor runs: at most one Ξ (XiSimple or XiGroup),
/// at the root, and no Ξ and no cse_id >= 0 in algebra nested inside a
/// subscript. The translator emits only this shape. Anything else throws
/// engine::Error(kPlanError) with context "plan.shape"; the executors call
/// this before any work.
void CheckPlanShape(const AlgebraOp& root);

/// Convenience set helpers.
bool Disjoint(const SymbolSet& a, const SymbolSet& b);
bool Subset(const SymbolSet& a, const SymbolSet& b);
SymbolSet Union(const SymbolSet& a, const SymbolSet& b);
SymbolSet Minus(const SymbolSet& a, const SymbolSet& b);

}  // namespace nalq::nal

#endif  // NALQ_NAL_ANALYSIS_H_
