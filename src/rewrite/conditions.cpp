#include "rewrite/conditions.h"

namespace nalq::rewrite {

bool ConditionChecker::FreeOfOuter(const nal::AlgebraOp& e2,
                                   const nal::AlgebraOp& e1) {
  nal::SymbolSet free = nal::FreeVars(e2);
  nal::SymbolSet outer = nal::OutputAttrs(e1).attrs;
  return nal::Disjoint(free, outer);
}

namespace {

/// The checks shared by Eqv. 3/5/8/9: both sources known and complete, in
/// one document, A1 one value per e1 tuple, and the DTD proves P1 and P2
/// select the same nodes.
bool SameSourceNodes(const xml::DtdRegistry* dtds, const AttrProvenance& a1,
                     const AttrProvenance& a2) {
  if (dtds == nullptr || !a1.known || !a2.known || !a1.single) return false;
  if (!a1.complete || !a2.complete || a1.doc != a2.doc) return false;
  const xml::Dtd* dtd = dtds->Find(a1.doc);
  return dtd != nullptr && dtd->PathsSelectSameNodes(a1.path, a2.path);
}

}  // namespace

bool ConditionChecker::DistinctSourceMatches(const AttrProvenance& a1,
                                             const AttrProvenance& a2) const {
  // The nested case is DistinctSourceMatchesNested.
  return a1.distinct && !a2.is_nested && SameSourceNodes(dtds_, a1, a2);
}

bool ConditionChecker::DistinctSourceMatchesNested(
    const AttrProvenance& a1, const AttrProvenance& a2) const {
  return a1.distinct && a2.is_nested && SameSourceNodes(dtds_, a1, a2);
}

}  // namespace nalq::rewrite
