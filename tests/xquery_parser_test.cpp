// Lexer and parser tests for the XQuery subset.
#include <gtest/gtest.h>

#include <string>

#include "xquery/lexer.h"
#include "xquery/parser.h"

namespace nalq::xquery {
namespace {

TEST(LexerTest, BasicTokens) {
  Lexer lex("let $x := doc(\"a.xml\") //book[3.5] >= != . *");
  EXPECT_EQ(lex.Next().text, "let");
  Token var = lex.Next();
  EXPECT_EQ(var.kind, TokKind::kVar);
  EXPECT_EQ(var.text, "x");
  EXPECT_EQ(lex.Next().kind, TokKind::kAssign);
  EXPECT_EQ(lex.Next().text, "doc");
  EXPECT_EQ(lex.Next().kind, TokKind::kLParen);
  Token s = lex.Next();
  EXPECT_EQ(s.kind, TokKind::kString);
  EXPECT_EQ(s.text, "a.xml");
  EXPECT_EQ(lex.Next().kind, TokKind::kRParen);
  EXPECT_EQ(lex.Next().kind, TokKind::kSlashSlash);
  EXPECT_EQ(lex.Next().text, "book");
  EXPECT_EQ(lex.Next().kind, TokKind::kLBracket);
  Token n = lex.Next();
  EXPECT_EQ(n.kind, TokKind::kNumber);
  EXPECT_EQ(n.number, 3.5);
  EXPECT_FALSE(n.is_integer);
  EXPECT_EQ(lex.Next().kind, TokKind::kRBracket);
  EXPECT_EQ(lex.Next().kind, TokKind::kGe);
  EXPECT_EQ(lex.Next().kind, TokKind::kNe);
  EXPECT_EQ(lex.Next().kind, TokKind::kDot);
  EXPECT_EQ(lex.Next().kind, TokKind::kStar);
  EXPECT_EQ(lex.Next().kind, TokKind::kEof);
}

TEST(LexerTest, CommentsAndHyphenatedNames) {
  Lexer lex("(: a comment :) distinct-values");
  Token t = lex.Next();
  EXPECT_EQ(t.kind, TokKind::kName);
  EXPECT_EQ(t.text, "distinct-values");
}

TEST(LexerTest, Errors) {
  EXPECT_THROW(Lexer("$").Next(), LexError);
  EXPECT_THROW(Lexer("\"abc").Next(), LexError);
  EXPECT_THROW(Lexer("!x").Next(), LexError);
  EXPECT_THROW(Lexer("(: unterminated").Next(), LexError);
}

TEST(ParserTest, SimpleFlwr) {
  AstPtr q = ParseQuery(
      "for $b in doc(\"bib.xml\")//book where $b/@year > 1993 return $b");
  ASSERT_EQ(q->kind, AstKind::kFlwr);
  ASSERT_EQ(q->clauses.size(), 2u);
  EXPECT_EQ(q->clauses[0].kind, Clause::Kind::kFor);
  EXPECT_EQ(q->clauses[0].var, "b");
  EXPECT_EQ(q->clauses[1].kind, Clause::Kind::kWhere);
  ASSERT_NE(q->ret, nullptr);
  EXPECT_EQ(q->ret->kind, AstKind::kVarRef);
}

TEST(ParserTest, MultipleBindingsPerClause) {
  AstPtr q = ParseQuery(
      "for $a in doc(\"x\")//a, $b in $a/b let $c := $b/c, $d := $b/d "
      "return $c");
  ASSERT_EQ(q->clauses.size(), 4u);
  EXPECT_EQ(q->clauses[1].var, "b");
  EXPECT_EQ(q->clauses[2].kind, Clause::Kind::kLet);
  EXPECT_EQ(q->clauses[3].var, "d");
}

TEST(ParserTest, PathWithPredicateAndAttribute) {
  AstPtr q = ParseQuery("for $b in $d//book[author = $a1] return $b/@year");
  const Clause& c = q->clauses[0];
  ASSERT_EQ(c.expr->kind, AstKind::kPathExpr);
  ASSERT_EQ(c.expr->steps.size(), 1u);
  EXPECT_EQ(c.expr->steps[0].axis, xml::Axis::kDescendant);
  ASSERT_NE(c.expr->steps[0].predicate, nullptr);
  // Predicate: relative path `author` = $a1.
  const Ast& pred = *c.expr->steps[0].predicate;
  ASSERT_EQ(pred.kind, AstKind::kCmp);
  EXPECT_EQ(pred.children[0]->kind, AstKind::kPathExpr);
  EXPECT_EQ(pred.children[0]->children[0]->kind, AstKind::kContextRef);
  // Return: attribute step.
  EXPECT_EQ(q->ret->steps.back().axis, xml::Axis::kAttribute);
  EXPECT_EQ(q->ret->steps.back().name, "year");
  // `@*` is a context-relative step in a predicate as after a `/`.
  AstPtr any = ParseQuery("for $b in $d//book[@* = $v] return $b/@*");
  const Ast& any_pred = *any->clauses[0].expr->steps[0].predicate;
  ASSERT_EQ(any_pred.children[0]->kind, AstKind::kPathExpr);
  EXPECT_EQ(any_pred.children[0]->steps[0].axis, xml::Axis::kAttribute);
  EXPECT_EQ(any_pred.children[0]->steps[0].name, "*");
  EXPECT_EQ(any->ret->steps.back().name, "*");
}

TEST(ParserTest, Quantifiers) {
  AstPtr q = ParseQuery(
      "for $t in $d//title where some $t2 in $e//title satisfies $t = $t2 "
      "return $t");
  const Clause& where = q->clauses[1];
  ASSERT_EQ(where.expr->kind, AstKind::kQuantified);
  EXPECT_EQ(where.expr->quant, nal::QuantKind::kSome);
  EXPECT_EQ(where.expr->qvar, "t2");
  AstPtr q2 = ParseQuery(
      "for $t in $d//title where every $y in $t/@a satisfies $y > 1 "
      "return $t");
  EXPECT_EQ(q2->clauses[1].expr->quant, nal::QuantKind::kEvery);
}

TEST(ParserTest, BooleanPrecedence) {
  AstPtr q = ParseQuery("for $x in $d//a where $x = 1 and $x = 2 or $x = 3 "
                        "return $x");
  // or binds weakest: (and) or (=).
  const Ast& pred = *q->clauses[1].expr;
  ASSERT_EQ(pred.kind, AstKind::kOr);
  EXPECT_EQ(pred.children[0]->kind, AstKind::kAnd);
  EXPECT_EQ(pred.children[1]->kind, AstKind::kCmp);
}

TEST(ParserTest, WordComparisonOperators) {
  AstPtr q = ParseQuery("for $x in $d//a where $x ge 3 return $x");
  EXPECT_EQ(q->clauses[1].expr->cmp, nal::CmpOp::kGe);
}

TEST(ParserTest, ElementConstructorWithEnclosedExprs) {
  AstPtr q = ParseQuery(R"(
    for $a in $d//author
    return <author><name>{ $a }</name><tag>static</tag></author>)");
  const Ast& ctor = *q->ret;
  ASSERT_EQ(ctor.kind, AstKind::kElementCtor);
  EXPECT_EQ(ctor.tag, "author");
  // Content: nested <name> ctor part + nested <tag> ctor part.
  ASSERT_EQ(ctor.content.size(), 2u);
  ASSERT_FALSE(ctor.content[0].is_literal);
  const Ast& name = *ctor.content[0].expr;
  EXPECT_EQ(name.kind, AstKind::kElementCtor);
  ASSERT_EQ(name.content.size(), 1u);
  EXPECT_EQ(name.content[0].expr->kind, AstKind::kVarRef);
}

TEST(ParserTest, ConstructorAttributesWithEnclosedExprs) {
  AstPtr q = ParseQuery(
      R"(for $t in $d//title return <minprice title="{ $t }" fixed="x"/>)");
  const Ast& ctor = *q->ret;
  ASSERT_EQ(ctor.attributes.size(), 2u);
  EXPECT_EQ(ctor.attributes[0].first, "title");
  ASSERT_EQ(ctor.attributes[0].second.size(), 1u);
  EXPECT_FALSE(ctor.attributes[0].second[0].is_literal);
  EXPECT_TRUE(ctor.attributes[1].second[0].is_literal);
  EXPECT_EQ(ctor.attributes[1].second[0].text, "x");
}

TEST(ParserTest, NestedFlwrInsideConstructor) {
  AstPtr q = ParseQuery(R"(
    for $a in $d//author
    return <author>{ for $b in $d//book return $b/title }</author>)");
  const Ast& ctor = *q->ret;
  ASSERT_EQ(ctor.content.size(), 1u);
  EXPECT_EQ(ctor.content[0].expr->kind, AstKind::kFlwr);
}

TEST(ParserTest, ParenthesizedFlwrAsExpression) {
  AstPtr q = ParseQuery(
      "let $x := (for $b in $d//book return $b) return <r>{ $x }</r>");
  EXPECT_EQ(q->clauses[0].expr->kind, AstKind::kFlwr);
}

TEST(ParserTest, EmptySequenceLiteral) {
  AstPtr q = ParseQuery("let $x := () return <r>{ $x }</r>");
  EXPECT_EQ(q->clauses[0].expr->kind, AstKind::kLiteral);
  EXPECT_EQ(q->clauses[0].expr->literal.SequenceLength(), 0u);
}

TEST(ParserTest, Errors) {
  EXPECT_THROW(ParseQuery("for $x return $x"), ParseError);
  EXPECT_THROW(ParseQuery("for $x in $d//a"), ParseError);      // no return
  EXPECT_THROW(ParseQuery("let $x = 1 return $x"), ParseError); // = not :=
  EXPECT_THROW(ParseQuery("for $x in $d//a return <a></b>"), ParseError);
  EXPECT_THROW(ParseQuery("for $x in $d//a return $x extra"), ParseError);
  EXPECT_THROW(ParseQuery("some $x in $d//a"), ParseError);  // no satisfies
}

// Nesting is bounded (kMaxQueryNesting): at the bound the text parses; one
// level more, or far more, fails with ParseError instead of overflowing the
// stack. The query itself is level 1.
std::string NestedParens(int levels) {
  return std::string(levels - 1, '(') + "1" + std::string(levels - 1, ')');
}
std::string NestedCtors(int levels) {
  std::string out;
  for (int i = 1; i < levels; ++i) out += "<a>";
  for (int i = 1; i < levels; ++i) out += "</a>";
  return out;
}

TEST(ParserTest, NestingBound) {
  EXPECT_NO_THROW(ParseQuery(NestedParens(kMaxQueryNesting)));
  EXPECT_NO_THROW(ParseQuery(NestedCtors(kMaxQueryNesting)));
  EXPECT_NO_THROW(
      ParseQuery(std::string(kMaxQueryNesting - 1, '-') + "1"));
  for (int levels : {kMaxQueryNesting + 1, 100'000}) {
    EXPECT_THROW(ParseQuery(NestedParens(levels)), ParseError) << levels;
    EXPECT_THROW(ParseQuery(NestedCtors(levels)), ParseError) << levels;
    EXPECT_THROW(ParseQuery(std::string(levels - 1, '-') + "1"), ParseError)
        << levels;
  }
  // An enclosed expression continues its constructor's count: k pairs of
  // <a>{ ... }</a> around (1) reach level 2k + 2.
  auto enclosed = [](int pairs, const std::string& inner) {
    std::string out;
    for (int i = 0; i < pairs; ++i) out += "<a>{";
    out += inner;
    for (int i = 0; i < pairs; ++i) out += "}</a>";
    return out;
  };
  static_assert(kMaxQueryNesting % 2 == 0);
  const int pairs = (kMaxQueryNesting - 2) / 2;
  EXPECT_NO_THROW(ParseQuery(enclosed(pairs, "(1)")));
  EXPECT_THROW(ParseQuery(enclosed(pairs, "((1))")), ParseError);
}

TEST(ParserTest, ToStringRoundTripsThroughParser) {
  const char* queries[] = {
      "for $b in doc(\"bib.xml\")//book where $b/@year > 1993 return $b",
      "let $x := count(for $b in $d//book return $b) return <r>{ $x }</r>",
      "for $t in $d//title where some $u in $e//title satisfies $t = $u "
      "return <m>{ $t }</m>",
  };
  for (const char* text : queries) {
    AstPtr first = ParseQuery(text);
    AstPtr second = ParseQuery(first->ToString());
    EXPECT_EQ(first->ToString(), second->ToString()) << text;
  }
}

}  // namespace
}  // namespace nalq::xquery
