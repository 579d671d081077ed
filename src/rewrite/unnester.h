// Orchestrates the unnesting rewrites over whole plans: locates χ-subscript
// and quantifier sites, fires the applicable equivalences ("whenever there
// are alternative applications, the most efficient plan should be chosen —
// this plan typically results from the equivalences with the most
// restrictive conditions attached", Sec. 4), chains the scan-saving Eqv. 8/9
// rewrites and the group-detecting Ξ introduction, and can enumerate every
// alternative for the benchmarks.
#ifndef NALQ_REWRITE_UNNESTER_H_
#define NALQ_REWRITE_UNNESTER_H_

#include <string>
#include <vector>

#include "rewrite/equivalences.h"

namespace nalq::rewrite {

class Unnester {
 public:
  explicit Unnester(const xml::DtdRegistry* dtds) : checker_(dtds) {}

  /// All alternative plans for `plan`, the original ("nested") first.
  /// Derived alternatives (counting/group-Ξ) carry chained rule names like
  /// "eqv7-antijoin+eqv9-counting".
  std::vector<Alternative> Alternatives(const nal::AlgebraPtr& plan);

  /// The preferred plan under the paper's policy (most restrictive
  /// applicable equivalence). Iterates until no site remains, so queries
  /// with several nested blocks get every block unnested; the rule name
  /// chains the applied equivalences. Falls back to the original plan.
  Alternative Best(const nal::AlgebraPtr& plan);

  /// Transitive closure of Alternatives(): every plan reachable by
  /// repeatedly rewriting remaining sites (queries with several nested
  /// blocks get their fully unnested combinations, rule names chained with
  /// ","). Deduplicated structurally; breadth-first, so single-rewrite
  /// alternatives precede chained ones and [0] stays the original nested
  /// plan. `max_plans` bounds the enumeration on pathological inputs. This
  /// is the search space of the cost-based chooser (opt/chooser.h).
  std::vector<Alternative> AllAlternatives(const nal::AlgebraPtr& plan,
                                           size_t max_plans = 48);

  /// Splits conjunctive selections σ_{p∧q} into σ_p(σ_q) so quantifier
  /// conjuncts become rewrite sites. Pure function, exposed for tests.
  static nal::AlgebraPtr SplitSelects(const nal::AlgebraPtr& plan);

 private:
  std::vector<Alternative> RewriteSubtree(const nal::AlgebraPtr& op,
                                          const nal::SymbolSet& required);

  ConditionChecker checker_;
};

/// Rule-name ranking used by Unnester::Best (smaller = better).
int RulePriority(const std::string& rule);

}  // namespace nalq::rewrite

#endif  // NALQ_REWRITE_UNNESTER_H_
