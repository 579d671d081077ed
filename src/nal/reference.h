// Definitional reference evaluator.
//
// Implements every operator by the *literal recursive equation* of paper
// Sec. 2 (α/τ head-tail recursion, × via the auxiliary ×̂, Υ as μ(χ_{g:e[a]}),
// unary Γ via ΠD and binary Γ, ...). It is asymptotically naive (quadratic
// copies) and exists purely as an executable specification: the production
// evaluator (eval.h) with its hash-based physical algorithms is
// property-tested against it on randomized inputs.
#ifndef NALQ_NAL_REFERENCE_H_
#define NALQ_NAL_REFERENCE_H_

#include "nal/eval.h"

namespace nalq::nal::reference {

/// Evaluates `op` by the textbook equations. Expression/aggregate semantics
/// are shared with the production evaluator (`eval` supplies EvalExpr /
/// ApplyAgg), so any divergence found by the comparison tests isolates a
/// physical-algorithm bug. It holds no StoreReadLease; the returned values
/// may borrow atoms: see xml/store.h, borrowed atoms.
Sequence Eval(Evaluator& eval, const AlgebraOp& op, const Tuple& env);

inline Sequence Eval(Evaluator& eval, const AlgebraOp& op) {
  return Eval(eval, op, Tuple());
}

}  // namespace nalq::nal::reference

#endif  // NALQ_NAL_REFERENCE_H_
