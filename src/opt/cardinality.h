// Cardinality estimation over NAL algebra plans.
//
// Propagates row estimates bottom-up through every operator of the algebra
// (Ξ, Γ, joins/semijoins/antijoins, Sort, σ/χ/Υ/μ/Π) and charges the cost
// model (opt/cost.h) along the way, so one walk yields a PlanEstimate for a
// whole plan. Sources of truth, in order of preference:
//
//   * exact counts from the per-document statistics (xml/stats.h) for
//     index-resolvable path steps — //name from a document root is the
//     name's occurrence count, child/attribute/descendant steps from a
//     known element name use the fan-out edge counts, and distinct-values()
//     over a path uses the collected distinct-value counts;
//   * per-attribute profiles threaded through the operators: which element
//     name an attribute's nodes carry, the distinct-value count of its
//     domain, and the expected size of nested sequence values (Γ groups,
//     let-bound sequences);
//   * selectivity defaults for everything else (equality 1/distinct or 0.1,
//     ordered comparisons 1/3, quantifiers 0.5).
//
// Nested algebraic expressions in subscripts are estimated once and charged
// per evaluation — input rows × subscript cost — which is exactly the
// quadratic term that makes the paper's nested plans lose, so the chooser
// (opt/chooser.h) needs no special casing to prefer unnested alternatives.
#ifndef NALQ_OPT_CARDINALITY_H_
#define NALQ_OPT_CARDINALITY_H_

#include <map>

#include "nal/algebra.h"
#include "opt/cost.h"
#include "xml/store.h"

namespace nalq::opt {

/// What the estimator knows about one attribute of the tuples flowing
/// through an operator.
struct AttrProfile {
  /// Node provenance: the document and element/attribute name the values
  /// point at, when statically known (path results, doc() roots).
  bool is_node = false;
  bool is_doc_root = false;
  bool name_is_attribute = false;  ///< nodes are attribute nodes
  xml::DocId doc = 0;
  uint32_t name_id = UINT32_MAX;  ///< interned in `doc`'s name table

  /// Distinct atomized values in the attribute's domain (0 = unknown).
  double distinct = 0;
  /// Expected length of sequence values bound here (0 = scalar/node).
  double seq_rows = 0;
};

using Scope = std::map<nal::Symbol, AttrProfile>;

/// One subtree's estimate: output rows, that subtree's cumulative cost and
/// the output attribute profiles.
struct OpEstimate {
  double rows = 1;
  double cpu = 0;
  double io = 0;
  double peak_breaker_bytes = 0;
  Scope scope;
};

/// One expression's estimate, per evaluation.
struct ExprEstimate {
  double cost = 0;     ///< CPU units for one evaluation
  double fanout = 1;   ///< expected items when the result is flattened
  AttrProfile profile; ///< profile of one result item
};

class CardinalityEstimator {
 public:
  CardinalityEstimator(const xml::Store& store, const CostModel& model)
      : store_(store), model_(model) {}

  /// Full-plan estimate: rows + cost of `root` evaluated with no outer
  /// bindings. Safe on any plan; unknown shapes fall back to defaults.
  PlanEstimate EstimatePlan(const nal::AlgebraOp& root);

  /// Subtree estimate under outer bindings `outer` (exposed for tests).
  OpEstimate EstimateOp(const nal::AlgebraOp& op, const Scope& outer);

  /// Optional per-node recording: every EstimateOp return is mirrored into
  /// `*rec` keyed by plan node, so callers that need intermediate
  /// cardinalities — the parallel placement chooser's breaker pricing and
  /// the spool layer's grace-admission row hints (opt/parallel.h) — get
  /// them from the same walk that prices the plan. A node estimated more
  /// than once (subscript re-entry) keeps the last estimate. Borrowed; must
  /// outlive the estimation calls.
  void set_node_recorder(std::map<const nal::AlgebraOp*, OpEstimate>* rec) {
    recorder_ = rec;
  }

  // ---- defaults (documented knobs, exposed for tests) --------------------
  static constexpr double kDefaultRows = 10;        ///< unknown leaf fan-out
  static constexpr double kDefaultEqSelectivity = 0.1;
  static constexpr double kDefaultCmpSelectivity = 1.0 / 3;
  static constexpr double kDefaultQuantSelectivity = 0.5;
  static constexpr double kDefaultStepFanout = 3;   ///< unknown path step

 private:
  ExprEstimate EstimateExpr(const nal::Expr& e, const Scope& scope);
  /// Probability that `pred` holds for one tuple of `scope`.
  double Selectivity(const nal::Expr& pred, const Scope& scope);
  /// Estimated distinct combinations of `attrs` over `rows` input rows.
  double DistinctRows(const std::vector<nal::Symbol>& attrs,
                      const Scope& scope, double rows) const;
  /// Expected resident bytes of one tuple shaped like `scope`.
  static double TupleBytes(const Scope& scope);
  /// Per-context fan-out and result profile of one path step from nodes
  /// profiled as `from`.
  double StepFanout(const AttrProfile& from, const xml::Step& step,
                    AttrProfile* result) const;

  const AttrProfile* Find(const Scope& scope, nal::Symbol a) const {
    auto it = scope.find(a);
    return it == scope.end() ? nullptr : &it->second;
  }

  const xml::Store& store_;
  const CostModel& model_;
  /// Nodes sharing a cse_id are evaluated once per run; later occurrences
  /// cost only a re-read.
  std::map<int, OpEstimate> cse_cache_;
  /// e[a'] inner-item profiles keyed by the BindTuples expression node,
  /// carried from EstimateExpr to the enclosing χ.
  std::map<const nal::Expr*, AttrProfile> bind_inner_;
  /// χ-bound nested attributes: attribute → (inner attribute, its profile),
  /// restored into scope when μ unnests the attribute.
  std::map<nal::Symbol, std::pair<nal::Symbol, AttrProfile>> bound_inner_;
  std::map<const nal::AlgebraOp*, OpEstimate>* recorder_ = nullptr;
};

}  // namespace nalq::opt

#endif  // NALQ_OPT_CARDINALITY_H_
