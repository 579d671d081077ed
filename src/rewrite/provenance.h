// Attribute provenance: which document/path an attribute's values range
// over, derived from the plan itself.
//
// The unnesting conditions of Eqv. 3/5/8/9 ("e1 = ΠD_{A1:A2}(Π_{A2}(e2))")
// cannot be checked by structural tree equality — the paper verifies them
// *semantically* against the DTD ("this condition holds if there are no
// author elements other than those directly under book elements"). This
// module reconstructs, for every attribute of a plan, the document and
// absolute path its values enumerate, whether the enumeration is complete
// (unfiltered, in document order) and whether the values are the atomized,
// duplicate-free output of distinct-values().
#ifndef NALQ_REWRITE_PROVENANCE_H_
#define NALQ_REWRITE_PROVENANCE_H_

#include <map>
#include <string>

#include "nal/algebra.h"
#include "xml/dtd.h"
#include "xml/xpath.h"

namespace nalq::rewrite {

struct AttrProvenance {
  bool known = false;
  std::string doc;       ///< document name ("bib.xml")
  xml::Path path;        ///< absolute path of the attribute's values
  bool distinct = false; ///< values are distinct-values() output (atomized,
                         ///< duplicate-free, first-occurrence order)
  bool complete = true;  ///< enumerates ALL nodes selected by `path`, in
                         ///< document order (no filter in between)
  bool is_nested = false;      ///< e[a'] binding: value is a tuple sequence
  nal::Symbol nested_item;     ///< the inner attribute a'
  /// The attribute holds at most one item per tuple: bound by Υ (or μ), by
  /// χ over an atomic-valued expression, or by χ over a path the DTD proves
  /// yields at most one node from a single-valued context. Set whether or
  /// not the source is `known`.
  bool single = false;
};

using ProvenanceMap = std::map<nal::Symbol, AttrProvenance>;

/// Derives provenance for every output attribute of `op`. `dtds` (may be
/// null) only feeds the `single` flag of χ over a child path.
ProvenanceMap DeriveProvenance(const nal::AlgebraOp& op,
                               const xml::DtdRegistry* dtds = nullptr);

/// The entry of `attr` in `map`; an unknown, multi-valued one if absent.
AttrProvenance ProvenanceOf(const ProvenanceMap& map, nal::Symbol attr);

}  // namespace nalq::rewrite

#endif  // NALQ_REWRITE_PROVENANCE_H_
