// Side-condition verification for the unnesting equivalences (paper Sec. 4).
//
// "Too often, incorrect unnesting procedures have appeared" — the paper's
// central criticism of prior work is missing side conditions (the condition
// e1 = ΠD_{A1:A2}(Π_{A2}(e2)) that escaped the authors of [31]). This module
// makes every condition an explicit, testable check.
#ifndef NALQ_REWRITE_CONDITIONS_H_
#define NALQ_REWRITE_CONDITIONS_H_

#include "nal/analysis.h"
#include "rewrite/provenance.h"
#include "xml/dtd.h"

namespace nalq::rewrite {

class ConditionChecker {
 public:
  /// `dtds` may be null; then every DTD-dependent condition fails (the
  /// conservative outcome: fewer rewrites, never a wrong one).
  explicit ConditionChecker(const xml::DtdRegistry* dtds) : dtds_(dtds) {}

  /// F(e2) ∩ A(e1) = ∅ — the inner expression must not reference the outer
  /// one once the correlation predicate has been removed.
  static bool FreeOfOuter(const nal::AlgebraOp& e2, const nal::AlgebraOp& e1);

  /// The checks below read attribute provenance (rewrite/provenance.h):
  /// `a1` is the entry of A1 in DeriveProvenance(e1, dtds()), `a2` the
  /// entry of A2 in DeriveProvenance(e2). A caller derives each map once
  /// per rewrite site and looks the entries up with ProvenanceOf.

  /// A1 holds at most one item per e1 tuple (AttrProvenance::single): A1
  /// is bound by Υ, by χ over an atomic-valued expression, or by χ over a
  /// path the DTD proves yields at most one node from a single-valued
  /// context. Eqv. 2 and 4 join e1 to the groups of e2 on A1 = A2, so a
  /// multi-valued A1 matches one group per item and the outer join emits
  /// one row per matching group, not one per e1 tuple. Reproducer, no DTD:
  ///   for $b1 in $d//book let $p1 := $b1/publisher
  ///   return <x>{ count(for $b2 in $d//book where $b2/publisher = $p1
  ///                     return $b2) }</x>
  /// over 4 books, two of them with two publishers, returned 6 <x>
  /// elements under eqv4-outerjoin where the nested plan returns 4. The
  /// grouping plans of Eqv. 3/5 and 8/9 replace e1 by one tuple per
  /// distinct value, so DistinctSourceMatches* require it as well (a
  /// χ-bound `let $a1 := distinct-values(...)` is distinct but one tuple).
  static bool IsSingleValued(const AttrProvenance& a1) { return a1.single; }

  /// The paper's e1 = ΠD_{A1:A2}(Π_{A2}(e2)) check (Eqv. 3, and Eqv. 8/9's
  /// ΠD(e1) = ΠD_{A1:A2}(Π_{A2}(e2)) once IsDuplicateFree holds): A1 must
  /// hold one of the distinct atomized values of some absolute path P1 per
  /// e1 tuple, A2 must enumerate all nodes of a path P2 in document order,
  /// and the DTD must prove both paths select the same node set.
  bool DistinctSourceMatches(const AttrProvenance& a1,
                             const AttrProvenance& a2) const;

  /// Same for the nested case of Eqv. 5: A2 is an e[a'] attribute of e2
  /// and the comparison is against its *items*
  /// (e1 = ΠD_{A1:A2}(Π_{A2}(μ_{a2}(e2)))).
  bool DistinctSourceMatchesNested(const AttrProvenance& a1,
                                   const AttrProvenance& a2) const;

  /// Eqv. 8/9 prerequisite ΠD(e1) = e1: A1 is duplicate-free by
  /// construction, the output of distinct-values, ΠD or unary Γ. A complete
  /// node-path scan yields unique nodes but possibly duplicate *values*, so
  /// it does not qualify.
  static bool IsDuplicateFree(const AttrProvenance& a1) {
    return a1.known && a1.distinct;
  }

  const xml::DtdRegistry* dtds() const { return dtds_; }

 private:
  const xml::DtdRegistry* dtds_;
};

}  // namespace nalq::rewrite

#endif  // NALQ_REWRITE_CONDITIONS_H_
