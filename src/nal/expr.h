// Scalar / predicate expression trees.
//
// NAL allows algebraic expressions in operator subscripts ("a join within a
// selection predicate is possible", paper Sec. 2). Expressions therefore may
// contain whole algebra subtrees (kNestedAlg) and quantifiers over algebra
// subtrees (kQuant) — these are exactly what the unnesting equivalences
// eliminate.
#ifndef NALQ_NAL_EXPR_H_
#define NALQ_NAL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "nal/symbol.h"
#include "nal/value.h"
#include "xml/xpath.h"

namespace nalq::nal {

class AlgebraOp;
using AlgebraPtr = std::shared_ptr<AlgebraOp>;

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class ExprKind : uint8_t {
  kConst,      ///< literal value
  kAttrRef,    ///< attribute / variable reference
  kCmp,        ///< comparison with XQuery general-comparison semantics
  kAnd,
  kOr,
  kNot,
  kFnCall,     ///< built-in function call (doc, count, min, contains, ...)
  kPath,       ///< XPath evaluation: children[0] = context, `path` = steps
  kNestedAlg,  ///< nested algebraic expression producing a tuple sequence
  kBindTuples, ///< the paper's e[a]: item sequence -> tuple sequence
  kQuant,      ///< ∃x∈range p / ∀x∈range p with an algebraic range
  kAgg,        ///< f(e): aggregate spec applied to a tuple sequence
  kArith,      ///< numeric arithmetic (+ - * div mod)
  kCond,       ///< if (c) then e1 else e2
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };
std::string_view ArithOpName(ArithOp op);

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class QuantKind : uint8_t { kSome, kEvery };

CmpOp NegateCmp(CmpOp op);
std::string_view CmpOpName(CmpOp op);

/// Aggregate/accessor function `f` used by χ-subscripts (as kAgg), Γ and the
/// outer join default (paper: "function f assigns a meaningful value to
/// empty groups"). Composition f = agg ∘ σ_filter ∘ Π_project, matching the
/// shapes the paper uses (min ∘ Πc2, count ∘ σp, id, Πt2).
struct AggSpec {
  enum class Kind : uint8_t {
    kId,            ///< whole group as a nested tuple sequence
    kProjectItems,  ///< Π_a flattened to an item sequence (XQuery semantics)
    kCount,
    kMin,
    kMax,
    kSum,
    kAvg,
  };
  Kind kind = Kind::kId;
  Symbol project;   ///< attribute for kProjectItems / input of numeric aggs
  ExprPtr filter;   ///< optional σ applied to the group before aggregating

  bool has_filter() const { return filter != nullptr; }

  /// f may not depend on renamed/nested attributes it does not read — the
  /// paper's condition f(s) = f(Π_a2(s)) = f(Π_A2(s)) holds for every spec
  /// whose `project`/filter do not mention those attributes.
  bool DependsOn(Symbol a) const;

  AggSpec CloneSpec() const;
  std::string DebugString() const;
};

AggSpec AggId();
AggSpec AggProjectItems(Symbol a);
AggSpec AggCount();
AggSpec AggOf(AggSpec::Kind kind, Symbol input);

/// One expression node. A tagged struct (rather than a class hierarchy)
/// keeps structural hashing and comparison (StructuralHash and
/// StructurallyEqual in algebra.h, which the rewriter deduplicates plans
/// with) simple and in one place. Immutable once built, like AlgebraOp:
/// rewrites share unchanged subexpressions between plans, so no code may
/// write to an expression another plan can reach.
struct Expr {
  ExprKind kind = ExprKind::kConst;

  Value literal;                  // kConst
  Symbol attr;                    // kAttrRef; kBindTuples target attribute
  CmpOp cmp = CmpOp::kEq;         // kCmp
  std::string fn;                 // kFnCall
  xml::Path path;                 // kPath
  AlgebraPtr alg;                 // kNestedAlg, kQuant range
  QuantKind quant = QuantKind::kSome;  // kQuant
  Symbol quant_var;               // kQuant bound variable
  AggSpec agg;                    // kAgg: f applied to children[0]
  ArithOp arith = ArithOp::kAdd;  // kArith
  std::vector<ExprPtr> children;  // operands / arguments / quant predicate

  /// Deep copy (algebra subtrees cloned too), for code that writes to its
  /// copy.
  ExprPtr Clone() const;

  std::string DebugString() const;
};

// ---- constructors -----------------------------------------------------

ExprPtr MakeConst(Value v);
ExprPtr MakeAttrRef(Symbol a);
ExprPtr MakeCmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeNot(ExprPtr e);
ExprPtr MakeFnCall(std::string fn, std::vector<ExprPtr> args);
ExprPtr MakePath(ExprPtr context, xml::Path path);
ExprPtr MakeNestedAlg(AlgebraPtr alg);
ExprPtr MakeBindTuples(ExprPtr items, Symbol attr);
ExprPtr MakeQuant(QuantKind kind, Symbol var, AlgebraPtr range, ExprPtr pred);
ExprPtr MakeAgg(AggSpec spec, ExprPtr input);
ExprPtr MakeArith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeCond(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);

/// Substitutes every reference to attribute `from` with a reference to `to`
/// (the paper's "p′ results from p by replacing x by x′"). Returns a new
/// tree; does not descend into nested algebra subtrees' *definitions* of
/// `from` (none exist in translated plans).
ExprPtr SubstituteAttr(const ExprPtr& e, Symbol from, Symbol to);

/// Collects attribute references in `e` that are not locally bound.
void CollectFreeAttrs(const Expr& e, std::vector<Symbol>* out);

}  // namespace nalq::nal

#endif  // NALQ_NAL_EXPR_H_
