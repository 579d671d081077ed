// Recursive-descent parser for the XQuery subset used in the paper's
// evaluation (Sec. 5): FLWR expressions, quantifiers, path expressions with
// predicates, comparisons, boolean connectives, function calls and direct
// element constructors with enclosed expressions.
#ifndef NALQ_XQUERY_PARSER_H_
#define NALQ_XQUERY_PARSER_H_

#include <stdexcept>
#include <string_view>

#include "xquery/ast.h"

namespace nalq::xquery {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How deeply a query's expressions may nest. The query is level 1, and
/// each parenthesized or enclosed expression, function argument, clause
/// operand, path predicate, unary minus and element constructor opens one
/// more. Deeper text fails with ParseError before the recursive descent can
/// exhaust the stack; 256 is also libxml2's default element-depth limit.
inline constexpr int kMaxQueryNesting = 256;

/// Parses a complete query expression. Throws ParseError / LexError.
AstPtr ParseQuery(std::string_view text);

}  // namespace nalq::xquery

#endif  // NALQ_XQUERY_PARSER_H_
