// Plan printer tests: every operator renders, nested subscripts are shown,
// and the output is stable enough to use in failure messages.
#include <gtest/gtest.h>

#include "nal/printer.h"
#include "test_util.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::T;
using testutil::Table;

TEST(PrinterTest, HeadlinesForEveryOperator) {
  Sequence rows;
  rows.Append(T({{"a", I(1)}}));
  AlgebraPtr t = Table(rows);
  EXPECT_EQ(OpHeadline(*Singleton()), "Singleton");
  EXPECT_NE(OpHeadline(*Select(MakeConst(Value(true)), t->Clone()))
                .find("Select"),
            std::string::npos);
  EXPECT_NE(OpHeadline(*ProjectKeep({Symbol("a")}, t->Clone())).find("a"),
            std::string::npos);
  EXPECT_NE(OpHeadline(*ProjectDistinct({Symbol("a")}, t->Clone()))
                .find("Distinct"),
            std::string::npos);
  EXPECT_NE(OpHeadline(*Map(Symbol("m"), MakeConst(I(1)), t->Clone()))
                .find("m := 1"),
            std::string::npos);
  EXPECT_NE(OpHeadline(*Unnest(Symbol("g"), t->Clone(), true)).find("UnnestD"),
            std::string::npos);
  EXPECT_EQ(OpHeadline(*Cross(t->Clone(), t->Clone())), "Cross");
  EXPECT_NE(OpHeadline(*GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("a")},
                                   AggCount(), t->Clone()))
                .find("count"),
            std::string::npos);
  EXPECT_NE(OpHeadline(*SortBy({Symbol("a")}, t->Clone())).find("Sort"),
            std::string::npos);
  AlgebraPtr xi = XiSimple({XiCommand::Literal("<x>"),
                            XiCommand::Var(Symbol("a"))},
                           t->Clone());
  EXPECT_NE(OpHeadline(*xi).find("\"<x>\""), std::string::npos);
}

TEST(PrinterTest, TreeShowsChildrenIndented) {
  Sequence rows;
  rows.Append(T({{"a", I(1)}}));
  AlgebraPtr plan = Select(MakeConst(Value(true)),
                           ProjectKeep({Symbol("a")}, Table(rows)));
  std::string out = PrintPlan(*plan);
  EXPECT_NE(out.find("Select"), std::string::npos);
  EXPECT_NE(out.find("\n  Project"), std::string::npos);
}

TEST(PrinterTest, NestedSubscriptAlgebraIsRendered) {
  Sequence rows;
  rows.Append(T({{"a", I(1)}}));
  AlgebraPtr inner = Select(
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("a")), MakeConst(I(1))),
      Table(rows));
  AlgebraPtr plan = Map(Symbol("g"), MakeNestedAlg(inner), Table(rows));
  std::string out = PrintPlan(*plan);
  EXPECT_NE(out.find("(nested in subscript)"), std::string::npos);
  EXPECT_NE(out.find("a = 1"), std::string::npos);
}

TEST(PrinterTest, UnusualUnnestFlagsAndDescendingKeysAreVisible) {
  // Plans that differ only in these fields are different plans
  // (StructurallyEqual), so they must print differently.
  Sequence rows;
  rows.Append(T({{"a", I(1)}}));
  AlgebraPtr t = Table(rows);
  EXPECT_EQ(OpHeadline(*Unnest(Symbol("g"), t->Clone())), "Unnest[g]");
  EXPECT_EQ(OpHeadline(*Unnest(Symbol("g"), t->Clone(), true, false)),
            "UnnestD[g; inner]");
  AlgebraPtr upsilon = UnnestMap(Symbol("m"), MakeAttrRef(Symbol("a")),
                                 t->Clone());
  EXPECT_EQ(OpHeadline(*upsilon), "UnnestMap[m := a]");
  upsilon->outer = true;
  EXPECT_EQ(OpHeadline(*upsilon), "UnnestMap[m := a; outer]");
  EXPECT_EQ(OpHeadline(*SortBy({Symbol("a"), Symbol("b")}, t->Clone())),
            "Sort[a,b]");
  EXPECT_EQ(OpHeadline(*SortByDir({Symbol("a"), Symbol("b")}, {0, 1},
                                  t->Clone())),
            "Sort[a,b desc]");
}

TEST(PrinterTest, NestedAlgebraInAggregateFilterAndXiIsRendered) {
  Sequence rows;
  rows.Append(T({{"a", I(1)}}));
  auto nested = [&](int64_t v) {
    return MakeNestedAlg(Select(
        MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("a")), MakeConst(I(v))),
        Table(rows)));
  };
  AggSpec agg = AggCount();
  agg.filter = MakeFnCall("exists", {nested(7)});
  AlgebraPtr gamma = GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("a")},
                                std::move(agg), Table(rows));
  std::string out = PrintPlan(*gamma);
  EXPECT_NE(out.find("(nested in subscript)"), std::string::npos) << out;
  EXPECT_NE(out.find("a = 7"), std::string::npos) << out;

  XiCommand command;
  command.is_literal = false;
  command.expr = nested(8);
  AlgebraPtr xi = XiSimple({command}, Table(rows));
  out = PrintPlan(*xi);
  EXPECT_NE(out.find("(nested in subscript)"), std::string::npos) << out;
  EXPECT_NE(out.find("a = 8"), std::string::npos) << out;
}

TEST(PrinterTest, CseIdIsVisible) {
  Sequence rows;
  rows.Append(T({{"a", I(1)}}));
  AlgebraPtr t = Table(rows);
  t->cse_id = 3;
  EXPECT_NE(OpHeadline(*t).find("cse#3"), std::string::npos);
}

TEST(PrinterTest, ExprDebugStringsCoverNewKinds) {
  ExprPtr arith = MakeArith(ArithOp::kMul, MakeConst(I(2)), MakeConst(I(3)));
  EXPECT_EQ(arith->DebugString(), "(2 * 3)");
  ExprPtr cond = MakeCond(MakeConst(Value(true)), MakeConst(I(1)),
                          MakeConst(I(2)));
  EXPECT_EQ(cond->DebugString(), "if (true) then 1 else 2");
  EXPECT_EQ(std::string(ArithOpName(ArithOp::kDiv)), "div");
}

}  // namespace
}  // namespace nalq::nal
