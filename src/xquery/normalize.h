// Source-level normalization (paper Sec. 3).
//
// Before translation the query is normalized so that every nested query
// block sits in its own `let` clause and correlation predicates live in
// `where` clauses:
//
//   1. trailing XPath predicates of for-ranges move into where clauses
//      (step 4 of the paper's list),
//   2. quantifier range expressions are embedded into new FLWR expressions
//      and the range variable is changed so the range returns the values the
//      satisfies clause actually tests (steps 1/2; the Q5 rewrite),
//   3. aggregate / exists / empty calls in where clauses are hoisted into
//      new `let` variables (step 2; the Q6 rewrite),
//   4. path operands of where comparisons are bound by `let`s; one rooted at
//      an enclosing FLWR's variable is bound in that FLWR, so the nested
//      block is free of the outer expression (BindWherePaths),
//   5. nested FLWRs (and aggregates over them) in return clauses are hoisted
//      into new `let` variables (step 2; the Q1/Q2 rewrite),
//   6. `let $v := FLWR ... agg($v)` with a single use folds to
//      `let $v := agg(FLWR)` so translation yields χ_{v:agg(σ...)} directly.
//
// All rewrites are pure AST→AST functions that share every subtree they do
// not change with their input (the AST is immutable); `Normalize` composes
// them.
#ifndef NALQ_XQUERY_NORMALIZE_H_
#define NALQ_XQUERY_NORMALIZE_H_

#include "xquery/ast.h"

namespace nalq::xquery {

/// Full normalization pipeline. The input AST is not modified.
AstPtr Normalize(const AstPtr& query);

// Individual passes (exposed for testing).
AstPtr InlineDocLets(const AstPtr& query);
AstPtr BindWherePaths(const AstPtr& query);
AstPtr HoistPathPredicates(const AstPtr& query);
AstPtr NormalizeQuantifiers(const AstPtr& query);
AstPtr NormalizeAggregateArgs(const AstPtr& query);
AstPtr HoistWhereAggregates(const AstPtr& query);
AstPtr HoistFromReturn(const AstPtr& query);
AstPtr FoldLetAggregates(const AstPtr& query);
AstPtr NormalizeFlwrReturns(const AstPtr& query);

/// Replaces the context item (kContextRef) with a reference to `var`.
AstPtr RebaseContext(const AstPtr& e, const std::string& var);

/// Generates a fresh variable name `<prefix>#n<counter>`, unique within this
/// process. No query text can spell it ('#' is not an XQuery name
/// character), so a binding the normalizer introduces never captures or
/// shadows one of the user's, and it differs from every
/// nal::Symbol::Fresh name (`<base>#<digits>`).
std::string FreshVar(const std::string& prefix);

}  // namespace nalq::xquery

#endif  // NALQ_XQUERY_NORMALIZE_H_
