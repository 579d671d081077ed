// Abstract syntax for the XQuery subset of the paper:
// FLWR expressions (for/let/where/return), quantifiers (some/every),
// path expressions with predicates, comparisons, boolean connectives,
// function calls and direct element constructors with enclosed expressions.
#ifndef NALQ_XQUERY_AST_H_
#define NALQ_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "nal/expr.h"
#include "xml/xpath.h"

namespace nalq::xquery {

struct Ast;
using AstPtr = std::shared_ptr<Ast>;

enum class AstKind : uint8_t {
  kFlwr,        ///< clauses + return expression
  kVarRef,      ///< $x
  kLiteral,     ///< string or numeric literal
  kPathExpr,    ///< base expression + steps (each step may carry a predicate)
  kContextRef,  ///< the implicit context item inside a path predicate
  kCmp,
  kAnd,
  kOr,
  kArith,       ///< + - * div mod (operator text in `name`)
  kCond,        ///< if (c) then e1 else e2
  kFnCall,
  kQuantified,  ///< some/every $v in range satisfies pred
  kElementCtor,
};

/// One path step; `predicate` (if any) is an expression whose relative paths
/// are rooted at kContextRef nodes (e.g. book[author = $a1]).
struct PathStepAst {
  xml::Axis axis = xml::Axis::kChild;
  std::string name;
  AstPtr predicate;
};

/// A fragment of element-constructor content: literal text or an enclosed
/// expression { e }.
struct CtorPart {
  bool is_literal = true;
  std::string text;
  AstPtr expr;
};

/// One FLWR clause.
struct Clause {
  enum class Kind : uint8_t { kFor, kLet, kWhere } kind = Kind::kFor;
  std::string var;  // without '$'; empty for where
  AstPtr expr;
};

/// One query-tree node. Immutable once built: a rewrite copies only the
/// nodes between the root and the rewritten site and shares every other
/// subtree with its input (the normalizer's MapChildren/Transform), so
/// the parsed query and its normalized form share unchanged subtrees, and
/// no code may write to a node that another tree can reach.
struct Ast {
  AstKind kind = AstKind::kLiteral;

  // kLiteral
  nal::Value literal;
  // kVarRef / kFnCall name
  std::string name;
  // kCmp
  nal::CmpOp cmp = nal::CmpOp::kEq;
  // kPathExpr: children[0] = base (kVarRef/kFnCall/kContextRef)
  std::vector<PathStepAst> steps;
  // kFlwr
  std::vector<Clause> clauses;
  AstPtr ret;
  /// order by keys (expression, descending?) — evaluated after the where
  /// clauses, before return (an extension beyond the paper, which "does not
  /// treat the order by clause"; it compiles to the Sort operator).
  std::vector<std::pair<AstPtr, bool>> order_by;
  // kQuantified
  nal::QuantKind quant = nal::QuantKind::kSome;
  std::string qvar;
  AstPtr range;
  AstPtr satisfies;
  // kElementCtor
  std::string tag;
  std::vector<std::pair<std::string, std::vector<CtorPart>>> attributes;
  std::vector<CtorPart> content;

  // kCmp/kAnd/kOr operands, kFnCall arguments, kPathExpr base.
  std::vector<AstPtr> children;

  /// Source-like rendering (used in tests and error messages).
  std::string ToString() const;
};

AstPtr MakeVarRef(std::string name);
AstPtr MakeLiteral(nal::Value v);
AstPtr MakeContextRef();
AstPtr MakeCmpAst(nal::CmpOp op, AstPtr lhs, AstPtr rhs);
AstPtr MakeAndAst(AstPtr lhs, AstPtr rhs);
AstPtr MakeOrAst(AstPtr lhs, AstPtr rhs);
AstPtr MakeFnCallAst(std::string name, std::vector<AstPtr> args);
AstPtr MakePathAst(AstPtr base, std::vector<PathStepAst> steps);

}  // namespace nalq::xquery

#endif  // NALQ_XQUERY_AST_H_
