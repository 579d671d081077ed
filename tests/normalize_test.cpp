// Tests for the source-level normalization passes (paper Sec. 3).
#include <gtest/gtest.h>

#include <cctype>

#include "engine/engine.h"
#include "xquery/lexer.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace nalq::xquery {
namespace {

/// True iff the FLWR has a clause of `kind` whose expression's textual form
/// contains `needle`.
bool HasClause(const AstPtr& flwr, Clause::Kind kind,
               const std::string& needle) {
  for (const Clause& c : flwr->clauses) {
    if (c.kind == kind && c.expr != nullptr &&
        c.expr->ToString().find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(InlineDocLetsTest, SubstitutesAndRemovesLet) {
  AstPtr q = ParseQuery(
      R"(let $d := doc("bib.xml") for $b in $d//book return <r>{ $b }</r>)");
  AstPtr out = InlineDocLets(q);
  ASSERT_EQ(out->clauses.size(), 1u);
  EXPECT_EQ(out->clauses[0].kind, Clause::Kind::kFor);
  EXPECT_NE(out->clauses[0].expr->ToString().find("doc(\"bib.xml\")"),
            std::string::npos);
}

TEST(InlineDocLetsTest, ReachesNestedBlocks) {
  AstPtr q = ParseQuery(R"(
    let $d := doc("bib.xml")
    for $a in distinct-values($d//author)
    return <r>{ let $t := (for $b in $d//book return $b/title)
                return $t }</r>)");
  AstPtr out = InlineDocLets(q);
  // The nested FLWR (inside the return) must reference doc(...) directly.
  std::string text = out->ToString();
  EXPECT_EQ(text.find("$d/"), std::string::npos) << text;
}

TEST(HoistPathPredicatesTest, MovesFinalStepPredicateToWhere) {
  AstPtr q = ParseQuery(
      R"(for $b in doc("b.xml")//book[author = $a1] return <r>{ $b }</r>)");
  AstPtr out = HoistPathPredicates(q);
  ASSERT_EQ(out->clauses.size(), 2u);
  EXPECT_EQ(out->clauses[1].kind, Clause::Kind::kWhere);
  // The context-relative path is rebased onto $b.
  EXPECT_NE(out->clauses[1].expr->ToString().find("$b/author"),
            std::string::npos);
  // The for range lost its predicate.
  EXPECT_EQ(out->clauses[0].expr->steps.back().predicate, nullptr);
}

TEST(BindWherePathsTest, IntroducesLetForPathOperand) {
  AstPtr q = ParseQuery(
      R"(for $b in doc("b.xml")//book where $a1 = $b/author
         return <r>{ $b }</r>)");
  AstPtr out = BindWherePaths(q);
  // A let for $b/author appears before the where.
  bool found_let = false;
  for (size_t i = 0; i < out->clauses.size(); ++i) {
    if (out->clauses[i].kind == Clause::Kind::kLet &&
        out->clauses[i].expr->ToString() == "$b/author") {
      found_let = true;
      // The following where references the fresh variable.
      ASSERT_LT(i + 1, out->clauses.size());
      EXPECT_EQ(out->clauses[i + 1].kind, Clause::Kind::kWhere);
      EXPECT_EQ(out->clauses[i + 1].expr->ToString().find("$b/author"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(found_let);
}

/// Index of the let clause of `flwr` that binds `path` (by its text), or -1.
int LetIndex(const AstPtr& flwr, const std::string& path) {
  for (size_t i = 0; i < flwr->clauses.size(); ++i) {
    const Clause& c = flwr->clauses[i];
    if (c.kind == Clause::Kind::kLet && c.expr->ToString() == path) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Number of let clauses of `flwr` that bind `path`.
int LetCount(const AstPtr& flwr, const std::string& path) {
  int n = 0;
  for (const Clause& c : flwr->clauses) {
    if (c.kind == Clause::Kind::kLet && c.expr->ToString() == path) ++n;
  }
  return n;
}

/// The FLWR inside `e`: e itself, the argument of a function call over it,
/// or the first FLWR of an element constructor's content.
AstPtr InnerFlwr(const AstPtr& e) {
  if (e->kind == AstKind::kFlwr) return e;
  if (e->kind == AstKind::kFnCall) return InnerFlwr(e->children[0]);
  for (const CtorPart& p : e->content) {
    if (p.expr != nullptr) return InnerFlwr(p.expr);
  }
  return nullptr;
}

// A where operand rooted at an enclosing FLWR's variable is bound in that
// FLWR just before the clause that contains the block — here the return —
// so the block compares two variables and no longer mentions $b1.
TEST(BindWherePathsTest, OuterOperandOfBlockInReturnIsBoundInOuterBlock) {
  AstPtr q = ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    return <b>{ count(for $b2 in doc("c.xml")//book
                      where $b2/@year < $b1/@year return $b2) }</b>)");
  AstPtr out = BindWherePaths(q);
  ASSERT_EQ(out->clauses.size(), 2u);
  EXPECT_EQ(LetIndex(out, "$b1/@year"), 1);
  AstPtr inner = InnerFlwr(out->ret);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(LetIndex(inner, "$b2/@year"), 1);  // the block's own path
  EXPECT_EQ(inner->ToString().find("$b1"), std::string::npos)
      << inner->ToString();
}

TEST(BindWherePathsTest, OuterOperandOfBlockInLetIsBoundBeforeThatLet) {
  AstPtr q = ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    where $b1/@year > 1990
    let $n := count(for $b2 in doc("c.xml")//book
                    where $b2/publisher = $b1/publisher return $b2)
    return <p>{ $n }</p>)");
  AstPtr out = BindWherePaths(q);
  // for, where, let $p := $b1/publisher, let $n (the where's own operand
  // is bound locally, before the where).
  int bound = LetIndex(out, "$b1/publisher");
  ASSERT_GE(bound, 0);
  ASSERT_EQ(static_cast<size_t>(bound + 1), out->clauses.size() - 1);
  EXPECT_EQ(out->clauses[bound + 1].var, "n");
  EXPECT_EQ(out->clauses[bound - 1].kind, Clause::Kind::kWhere);
  EXPECT_EQ(LetIndex(out, "$b1/@year"), 1);
}

TEST(BindWherePathsTest, OuterOperandOfBlockInWhereIsBoundBeforeTheWhere) {
  AstPtr q = ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    where exists(for $b2 in doc("c.xml")//book
                 where $b2/publisher = $b1/publisher and
                       $b2/@year > $b1/@year
                 return $b2)
    return <p>{ $b1 }</p>)");
  AstPtr out = BindWherePaths(q);
  ASSERT_EQ(out->clauses.size(), 4u);
  EXPECT_EQ(LetIndex(out, "$b1/publisher"), 1);
  EXPECT_EQ(LetIndex(out, "$b1/@year"), 2);
  EXPECT_EQ(out->clauses[3].kind, Clause::Kind::kWhere);
  EXPECT_EQ(out->clauses[3].expr->ToString().find("$b1"), std::string::npos);
}

// Three levels: each outer path goes to the FLWR that binds its root.
TEST(BindWherePathsTest, ThreeLevelsBindEachPathWhereItsRootIsBound) {
  AstPtr q = ParseQuery(R"(
    for $a in doc("c.xml")//book
    let $m := count(
      for $b in doc("c.xml")//book
      where exists(for $c in doc("c.xml")//book
                   where $c/title = $a/title and $c/publisher = $b/publisher
                   return $c)
      return $b)
    return <p>{ $m }</p>)");
  AstPtr out = BindWherePaths(q);
  EXPECT_EQ(LetIndex(out, "$a/title"), 1);
  EXPECT_EQ(LetIndex(out, "$b/publisher"), -1);
  AstPtr middle = InnerFlwr(out->clauses[2].expr);
  ASSERT_NE(middle, nullptr);
  EXPECT_EQ(LetIndex(middle, "$b/publisher"), 1);
  EXPECT_EQ(LetIndex(middle, "$a/title"), -1);
  AstPtr inner = InnerFlwr(middle->clauses[2].expr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(LetIndex(inner, "$c/title"), 1);
  EXPECT_EQ(LetIndex(inner, "$c/publisher"), 2);
}

// A block that rebinds the outer variable's name compares its own binding:
// the path stays local.
TEST(BindWherePathsTest, ShadowedRootStaysLocal) {
  AstPtr q = ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    return <b>{ count(for $b1 in doc("c.xml")//book
                      where $b1/publisher = "P1" return $b1) }</b>)");
  AstPtr out = BindWherePaths(q);
  EXPECT_EQ(out->clauses.size(), 1u);
  AstPtr inner = InnerFlwr(out->ret);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(LetIndex(inner, "$b1/publisher"), 1);
}

// A root bound by a quantifier between the blocks is the quantifier's
// variable, not the outer FLWR's: the path stays local.
TEST(BindWherePathsTest, QuantifierBoundRootStaysLocal) {
  AstPtr q = ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    where some $b1 in doc("c.xml")//book satisfies
          exists(for $b2 in doc("c.xml")//book
                 where $b2/title = $b1/title return $b2)
    return <b>{ $b1 }</b>)");
  AstPtr out = BindWherePaths(q);
  EXPECT_EQ(LetIndex(out, "$b1/title"), -1);
  const Ast& quant = *out->clauses[1].expr;
  ASSERT_EQ(quant.kind, AstKind::kQuantified);
  AstPtr inner = InnerFlwr(quant.satisfies);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(LetCount(inner, "$b1/title"), 1);
}

// One outer path used by two blocks (and twice in one) is bound once.
TEST(BindWherePathsTest, PathUsedTwiceIsBoundOnce) {
  AstPtr q = ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    let $x := count(for $b2 in doc("c.xml")//book
                    where $b2/@year < $b1/@year and $b2/price > $b1/@year
                    return $b2)
    let $y := count(for $b3 in doc("c.xml")//book
                    where $b3/@year >= $b1/@year return $b3)
    return <b>{ $x }{ $y }</b>)");
  AstPtr out = BindWherePaths(q);
  EXPECT_EQ(LetCount(out, "$b1/@year"), 1);
  EXPECT_EQ(LetIndex(out, "$b1/@year"), 1);
  EXPECT_EQ(out->ToString().find("$b1/@year <"), std::string::npos);
}

// In quantifier ranges and predicated aggregate arguments, the outer path
// stays a path (no unnest over $b1/publisher inside the block) and is then
// bound in the outer block; the block's own path keeps its unnest.
TEST(NormalizeTest, OuterPathsOfRangesAndAggregateArgumentsMoveOut) {
  AstPtr q = Normalize(ParseQuery(R"(
    for $b1 in doc("c.xml")//book
    where every $b2 in doc("c.xml")//book[publisher = $b1/publisher]
          satisfies $b2/@year > 1990
    return <b>{ count(doc("c.xml")//book[author = $b1/author]) }</b>)"));
  EXPECT_EQ(LetIndex(q, "$b1/publisher"), 1);
  EXPECT_GE(LetIndex(q, "$b1/author"), 2);
  std::string text = q->ToString();
  EXPECT_EQ(text.find("in $b1/"), std::string::npos) << text;
  EXPECT_NE(text.find("in $b2/publisher"), std::string::npos) << text;
}

TEST(NormalizeQuantifiersTest, EmbedsRangeIntoFlwr) {
  AstPtr q = ParseQuery(R"(
    for $t in doc("b.xml")//title
    where some $t2 in doc("r.xml")//entry/title satisfies $t = $t2
    return <r>{ $t }</r>)");
  AstPtr out = NormalizeQuantifiers(q);
  const Ast& quant = *out->clauses[1].expr;
  ASSERT_EQ(quant.kind, AstKind::kQuantified);
  ASSERT_EQ(quant.range->kind, AstKind::kFlwr);
  EXPECT_EQ(quant.range->ret->kind, AstKind::kVarRef);
  EXPECT_EQ(quant.range->ret->name, "t2");
}

TEST(NormalizeQuantifiersTest, ChangesRangeVariableForSatisfiesPath) {
  // The Q5 rewrite: the range must return the @year values and the
  // satisfies clause must test the bound variable directly.
  AstPtr q = ParseQuery(R"(
    for $a in distinct-values(doc("b.xml")//author)
    where every $b in doc("b.xml")//book[author = $a]
          satisfies $b/@year > 1993
    return <r>{ $a }</r>)");
  AstPtr out = NormalizeQuantifiers(q);
  const Ast& quant = *out->clauses[1].expr;
  // satisfies references $b directly now (no path).
  EXPECT_EQ(quant.satisfies->ToString().find("@year"), std::string::npos);
  // The range FLWR gained a for over @year and returns its variable.
  std::string range_text = quant.range->ToString();
  EXPECT_NE(range_text.find("@year"), std::string::npos);
  // The correlation was unnested into a for over authors.
  EXPECT_NE(range_text.find("author"), std::string::npos);
}

TEST(HoistWhereAggregatesTest, TheQ6Rewrite) {
  AstPtr q = ParseQuery(R"(
    for $i in distinct-values(doc("bids.xml")//itemno)
    where count(doc("bids.xml")//bidtuple[itemno = $i]) >= 3
    return <r>{ $i }</r>)");
  AstPtr out = HoistWhereAggregates(q);
  // A let $agg_n := count(FLWR) clause appears...
  bool found = false;
  for (const Clause& c : out->clauses) {
    if (c.kind == Clause::Kind::kLet && c.expr->kind == AstKind::kFnCall &&
        c.expr->name == "count" &&
        c.expr->children[0]->kind == AstKind::kFlwr) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // ... and the where now compares a variable.
  const Clause& where = out->clauses.back();
  ASSERT_EQ(where.kind, Clause::Kind::kWhere);
  EXPECT_EQ(where.expr->children[0]->kind, AstKind::kVarRef);
}

TEST(HoistFromReturnTest, NestedFlwrBecomesLet) {
  AstPtr q = ParseQuery(R"(
    for $a in distinct-values(doc("b.xml")//author)
    return <author>{ for $b in doc("b.xml")//book return $b/title }</author>)");
  AstPtr out = HoistFromReturn(q);
  EXPECT_TRUE(HasClause(out, Clause::Kind::kLet, "for $b"));
  // The constructor content now references a variable.
  const Ast& ctor = *out->ret;
  ASSERT_FALSE(ctor.content.empty());
  EXPECT_EQ(ctor.content[0].expr->kind, AstKind::kVarRef);
}

TEST(FoldLetAggregatesTest, SingleAggregateUseFolds) {
  AstPtr q = ParseQuery(R"(
    for $t in distinct-values(doc("p.xml")//title)
    let $p := (for $b in doc("p.xml")//book return $b/price)
    return <m>{ min($p) }</m>)");
  AstPtr out = FoldLetAggregates(q);
  // let now binds min(FLWR)...
  bool folded = false;
  for (const Clause& c : out->clauses) {
    if (c.kind == Clause::Kind::kLet && c.expr->kind == AstKind::kFnCall &&
        c.expr->name == "min") {
      folded = true;
    }
  }
  EXPECT_TRUE(folded);
  // ... and the return references the bare variable.
  EXPECT_EQ(out->ret->ToString().find("min("), std::string::npos);
}

TEST(FoldLetAggregatesTest, MultipleUsesDoNotFold) {
  AstPtr q = ParseQuery(R"(
    for $t in distinct-values(doc("p.xml")//title)
    let $p := (for $b in doc("p.xml")//book return $b/price)
    return <m a="{ count($p) }">{ min($p) }</m>)");
  AstPtr out = FoldLetAggregates(q);
  for (const Clause& c : out->clauses) {
    if (c.kind == Clause::Kind::kLet) {
      EXPECT_EQ(c.expr->kind, AstKind::kFlwr);  // unchanged
    }
  }
}

// An order by key is a use too: folding the let would make the key
// aggregate the aggregate.
TEST(FoldLetAggregatesTest, OrderByUseIsCounted) {
  const char* query = R"(
    for $b in doc("b.xml")//book
    let $v := (for $a in $b/author return $a)
    order by count($v)
    return <r>{ count($v) }</r>)";
  AstPtr out = FoldLetAggregates(ParseQuery(query));
  EXPECT_EQ(out->clauses[1].expr->kind, AstKind::kFlwr) << out->ToString();
  engine::Engine engine;
  engine.AddDocument("b.xml",
                     "<bib><book><author>a</author><author>b</author>"
                     "<author>c</author></book><book><author>d</author></book>"
                     "<book><author>e</author><author>f</author></book></bib>");
  EXPECT_EQ(engine.RunQuery(query).output, "<r>1</r><r>2</r><r>3</r>");
}

TEST(FoldLetAggregatesTest, OrderByAloneFolds) {
  AstPtr out = FoldLetAggregates(ParseQuery(R"(
    for $b in doc("b.xml")//book
    let $v := (for $a in $b/author return $a)
    order by count($v)
    return <r>{ $b }</r>)"));
  EXPECT_EQ(out->clauses[1].expr->kind, AstKind::kFnCall);
  EXPECT_EQ(out->order_by[0].first->ToString(), "$v");
}

// Normalization copies only the path to a rewritten node: subtrees no pass
// changes are the parsed query's own nodes, and an already-normal query
// comes back as is.
TEST(NormalizeTest, SharesWhatItDoesNotRewrite) {
  AstPtr q = ParseQuery(R"(
    for $b in doc("b.xml")//book[price > 10]
    return <r><t>{ $b }</t>{ count(for $a in $b/author return $a) }</r>)");
  AstPtr out = Normalize(q);
  EXPECT_NE(out, q);
  // The for range's document call is the parsed node.
  EXPECT_EQ(out->clauses[0].expr->children[0], q->clauses[0].expr->children[0]);
  // The untouched constructor part is shared; the hoisted one is replaced.
  ASSERT_EQ(out->ret->kind, AstKind::kElementCtor);
  EXPECT_EQ(out->ret->content[0].expr, q->ret->content[0].expr);
  EXPECT_NE(out->ret->content[1].expr, q->ret->content[1].expr);
  EXPECT_EQ(Normalize(out), out);
}

TEST(NormalizeFlwrReturnsTest, PathReturnGetsLet) {
  AstPtr q = ParseQuery("for $b in doc(\"b.xml\")//book return $b/title");
  AstPtr out = NormalizeFlwrReturns(q);
  EXPECT_EQ(out->ret->kind, AstKind::kVarRef);
  EXPECT_TRUE(HasClause(out, Clause::Kind::kLet, "$b/title"));
}

TEST(RebaseContextTest, SubstitutesContextItem) {
  AstPtr pred = ParseQuery("for $x in $d//a where itemno = $i return $x")
                    ->clauses[1]
                    .expr;
  AstPtr rebased = RebaseContext(pred, "f");
  EXPECT_EQ(rebased->ToString(), "$f/itemno = $i");
}

TEST(NormalizeTest, FullPipelineIsStableOnSimpleQueries) {
  AstPtr q = ParseQuery(
      "for $b in doc(\"b.xml\")//book return <r>{ $b }</r>");
  AstPtr once = Normalize(q);
  // The pipeline must be idempotent on already-normalized queries.
  AstPtr twice = Normalize(once);
  EXPECT_EQ(once->ToString(), twice->ToString());
}

TEST(FreshVarTest, NamesAreUnique) {
  std::string a = FreshVar("x");
  std::string b = FreshVar("x");
  EXPECT_NE(a, b);
}

TEST(FreshVarTest, NoFreshNameLexesAsAVariable) {
  for (const char* prefix : {"x", "p", "publisher", "year", "t", "agg", "r"}) {
    const std::string name = FreshVar(prefix);
    const std::string text = "$" + name;
    Lexer lexer(text);
    const Token& token = lexer.Peek();
    EXPECT_FALSE(token.kind == TokKind::kVar && token.text == name) << name;
  }
}

/// The counter value FreshVar hands out next, read off one probe name.
uint64_t NextFreshCounter() {
  const std::string probe = FreshVar("probe");
  size_t digits = probe.size();
  while (digits > 0 && std::isdigit(static_cast<unsigned char>(
                           probe[digits - 1])) != 0) {
    --digits;
  }
  return std::stoull(probe.substr(digits)) + 1;
}

// The where-path binder hoists `let <fresh> := $b1/publisher` into the outer
// block. A user variable spelled like a fresh name must not be shadowed by
// it, whichever counter value the hoisted binding gets.
TEST(FreshVarTest, UserVariablesAreNeverCaptured) {
  engine::Engine engine;
  engine.AddDocument("bib.xml",
                     "<bib><book><publisher>A</publisher></book>"
                     "<book><publisher>B</publisher></book></bib>");
  for (uint64_t ahead = 0; ahead < 8; ++ahead) {
    const std::string var =
        "$publisher_n" + std::to_string(NextFreshCounter() + ahead);
    const std::string query =
        "for $b1 in doc(\"bib.xml\")//book let " + var +
        " := \"zzz\" return <x>{ count(for $b2 in doc(\"bib.xml\")//book "
        "where $b2/publisher = $b1/publisher return $b2) }{ " + var +
        " }</x>";
    EXPECT_EQ(engine.RunQuery(query).output, "<x>1zzz</x><x>1zzz</x>")
        << query;
  }
}

}  // namespace
}  // namespace nalq::xquery
