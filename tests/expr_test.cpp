// Expression evaluation tests: general comparisons (existential semantics),
// built-in functions, quantifier expressions, aggregates, effective boolean
// values — plus Clone/SubstituteAttr used by the rewriter.
#include <gtest/gtest.h>

#include "nal/eval.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::S;
using testutil::T;
using testutil::Table;

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : eval_(store_) {
    store_.AddDocumentText("bib.xml", R"(
      <bib>
        <book year="1994"><title>T1</title><price>39.95</price></book>
        <book year="2000"><title>T2</title><price>12.50</price></book>
      </bib>)");
  }

  Value E(const ExprPtr& e, const Tuple& local = Tuple()) {
    return eval_.EvalExpr(*e, local, Tuple());
  }

  xml::Store store_;
  Evaluator eval_;
};

TEST_F(ExprTest, ConstAndAttrRef) {
  EXPECT_EQ(E(MakeConst(I(5))).AsInt(), 5);
  Tuple t = T({{"a", S("hello")}});
  EXPECT_EQ(E(MakeAttrRef(Symbol("a")), t).AsString(), "hello");
  EXPECT_TRUE(E(MakeAttrRef(Symbol("zz")), t).is_null());
}

TEST_F(ExprTest, LocalShadowsEnv) {
  Tuple local = T({{"a", I(1)}});
  Tuple env = T({{"a", I(2)}, {"b", I(3)}});
  EXPECT_EQ(eval_.EvalExpr(*MakeAttrRef(Symbol("a")), local, env).AsInt(), 1);
  EXPECT_EQ(eval_.EvalExpr(*MakeAttrRef(Symbol("b")), local, env).AsInt(), 3);
}

TEST_F(ExprTest, AtomicComparisons) {
  auto cmp = [&](CmpOp op, Value l, Value r) {
    return E(MakeCmp(op, MakeConst(l), MakeConst(r))).AsBool();
  };
  EXPECT_TRUE(cmp(CmpOp::kEq, I(3), Value(3.0)));
  EXPECT_TRUE(cmp(CmpOp::kLt, I(3), Value(3.5)));
  EXPECT_TRUE(cmp(CmpOp::kEq, S("x"), S("x")));
  EXPECT_FALSE(cmp(CmpOp::kEq, S("x"), S("y")));
  EXPECT_TRUE(cmp(CmpOp::kNe, S("x"), S("y")));
  // Untyped text against a numeric literal compares numerically.
  EXPECT_TRUE(cmp(CmpOp::kGt, S("1995"), I(1993)));
  EXPECT_TRUE(cmp(CmpOp::kLe, S("1992"), I(1993)));
  // Lexicographic fallback for non-numeric ordered comparison.
  EXPECT_TRUE(cmp(CmpOp::kLt, S("abc"), S("abd")));
}

TEST_F(ExprTest, GeneralComparisonIsExistential) {
  Value seq = Value::FromItems({I(1), I(5), I(9)});
  EXPECT_TRUE(E(MakeCmp(CmpOp::kEq, MakeConst(seq), MakeConst(I(5)))).AsBool());
  EXPECT_FALSE(
      E(MakeCmp(CmpOp::kEq, MakeConst(seq), MakeConst(I(4)))).AsBool());
  // Both sides sequences: any pair.
  Value seq2 = Value::FromItems({I(4), I(9)});
  EXPECT_TRUE(
      E(MakeCmp(CmpOp::kEq, MakeConst(seq), MakeConst(seq2))).AsBool());
  // Empty sequence never compares true (even with !=).
  Value empty = Value::FromItems({});
  EXPECT_FALSE(
      E(MakeCmp(CmpOp::kNe, MakeConst(empty), MakeConst(I(1)))).AsBool());
}

TEST_F(ExprTest, BooleanConnectives) {
  ExprPtr t = MakeConst(Value(true));
  ExprPtr f = MakeConst(Value(false));
  EXPECT_TRUE(E(MakeAnd(t->Clone(), t->Clone())).AsBool());
  EXPECT_FALSE(E(MakeAnd(t->Clone(), f->Clone())).AsBool());
  EXPECT_TRUE(E(MakeOr(f->Clone(), t->Clone())).AsBool());
  EXPECT_TRUE(E(MakeNot(f->Clone())).AsBool());
}

TEST_F(ExprTest, EffectiveBooleanValue) {
  EXPECT_FALSE(EffectiveBooleanValue(Value()));
  EXPECT_TRUE(EffectiveBooleanValue(Value(int64_t{1})));
  EXPECT_FALSE(EffectiveBooleanValue(Value(int64_t{0})));
  EXPECT_TRUE(EffectiveBooleanValue(Value("x")));
  EXPECT_FALSE(EffectiveBooleanValue(Value("")));
  EXPECT_FALSE(EffectiveBooleanValue(Value::FromItems({})));
  EXPECT_TRUE(EffectiveBooleanValue(Value::FromItems({I(0)})));
}

TEST_F(ExprTest, DocAndPathFunctions) {
  ExprPtr doc = MakeFnCall("doc", {MakeConst(S("bib.xml"))});
  Value root = E(doc);
  ASSERT_EQ(root.kind(), ValueKind::kNode);
  ExprPtr titles = MakePath(doc->Clone(), xml::Path::Parse("//book/title"));
  Value items = E(titles);
  ASSERT_EQ(items.kind(), ValueKind::kItemSeq);
  EXPECT_EQ(items.AsItems().size(), 2u);
  EXPECT_EQ(items.AsItems()[0].ToString(store_), "T1");
  EXPECT_THROW(E(MakeFnCall("doc", {MakeConst(S("missing.xml"))})),
               std::runtime_error);
}

TEST_F(ExprTest, AggregateFunctions) {
  Value prices = Value::FromItems({S("39.95"), S("12.50")});
  EXPECT_EQ(E(MakeFnCall("count", {MakeConst(prices)})).AsInt(), 2);
  EXPECT_EQ(E(MakeFnCall("min", {MakeConst(prices)})).AsDouble(), 12.50);
  EXPECT_EQ(E(MakeFnCall("max", {MakeConst(prices)})).AsDouble(), 39.95);
  EXPECT_DOUBLE_EQ(E(MakeFnCall("sum", {MakeConst(prices)})).AsDouble(),
                   52.45);
  EXPECT_DOUBLE_EQ(E(MakeFnCall("avg", {MakeConst(prices)})).AsDouble(),
                   26.225);
  // Aggregates over the empty sequence.
  Value empty = Value::FromItems({});
  EXPECT_EQ(E(MakeFnCall("count", {MakeConst(empty)})).AsInt(), 0);
  EXPECT_TRUE(E(MakeFnCall("min", {MakeConst(empty)})).is_null());
  // min over non-numeric strings is lexicographic.
  Value words = Value::FromItems({S("pear"), S("apple")});
  EXPECT_EQ(E(MakeFnCall("min", {MakeConst(words)})).AsString(), "apple");
  // So is a mixed sequence, with its numbers rendered: "10" < "20" < "5".
  Value mixed = Value::FromItems({I(20), S("b"), I(10), I(5)});
  EXPECT_EQ(E(MakeFnCall("min", {MakeConst(mixed)})).AsString(), "10");
  EXPECT_EQ(E(MakeFnCall("max", {MakeConst(mixed)})).AsString(), "b");
}

TEST_F(ExprTest, StringAndTestFunctions) {
  EXPECT_TRUE(E(MakeFnCall("contains", {MakeConst(S("Dan Suciu")),
                                        MakeConst(S("Suciu"))}))
                  .AsBool());
  EXPECT_FALSE(E(MakeFnCall("contains",
                            {MakeConst(S("nobody")), MakeConst(S("Suciu"))}))
                   .AsBool());
  EXPECT_TRUE(E(MakeFnCall("starts-with", {MakeConst(S("abcdef")),
                                           MakeConst(S("abc"))}))
                  .AsBool());
  EXPECT_TRUE(
      E(MakeFnCall("empty", {MakeConst(Value::FromItems({}))})).AsBool());
  EXPECT_TRUE(
      E(MakeFnCall("exists", {MakeConst(Value::FromItems({I(1)}))})).AsBool());
  EXPECT_EQ(E(MakeFnCall("decimal", {MakeConst(S(" 39.95 "))})).AsDouble(),
            39.95);
  EXPECT_TRUE(E(MakeFnCall("decimal", {MakeConst(S("n/a"))})).is_null());
  EXPECT_EQ(E(MakeFnCall("string-length", {MakeConst(S("abc"))})).AsInt(), 3);
  EXPECT_EQ(E(MakeFnCall("string-length", {MakeConst(I(12345))})).AsInt(), 5);
  EXPECT_TRUE(E(MakeFnCall("contains", {MakeConst(I(12345)),
                                        MakeConst(I(234))}))
                  .AsBool());
  EXPECT_EQ(E(MakeFnCall("concat", {MakeConst(S("a")), MakeConst(S("b")),
                                    MakeConst(I(1))}))
                .AsString(),
            "ab1");
  EXPECT_THROW(E(MakeFnCall("no-such-fn", {})), std::runtime_error);
}

TEST_F(ExprTest, DistinctValuesAtomizesAndDeduplicates) {
  Value seq = Value::FromItems({S("a"), S("b"), S("a"), I(2), Value(2.0)});
  Value out = E(MakeFnCall("distinct-values", {MakeConst(seq)}));
  ASSERT_EQ(out.kind(), ValueKind::kItemSeq);
  // "a", "b", 2 — first occurrences, deterministic.
  ASSERT_EQ(out.AsItems().size(), 3u);
  EXPECT_EQ(out.AsItems()[0].AsString(), "a");
  EXPECT_EQ(out.AsItems()[1].AsString(), "b");
}

TEST_F(ExprTest, BindTuplesBuildsNamedTupleSequence) {
  Value seq = Value::FromItems({I(1), I(2)});
  Value out = E(MakeBindTuples(MakeConst(seq), Symbol("a'")));
  ASSERT_EQ(out.kind(), ValueKind::kTupleSeq);
  ASSERT_EQ(out.AsTuples().size(), 2u);
  EXPECT_EQ(out.AsTuples()[1].Get(Symbol("a'")).AsInt(), 2);
}

TEST_F(ExprTest, QuantifierExpressions) {
  Sequence range;
  range.Append(T({{"v", I(1)}}));
  range.Append(T({{"v", I(5)}}));
  auto some = MakeQuant(
      QuantKind::kSome, Symbol("x"), Table(range),
      MakeCmp(CmpOp::kGt, MakeAttrRef(Symbol("x")), MakeConst(I(3))));
  EXPECT_TRUE(E(some).AsBool());
  auto every = MakeQuant(
      QuantKind::kEvery, Symbol("x"), Table(range),
      MakeCmp(CmpOp::kGt, MakeAttrRef(Symbol("x")), MakeConst(I(3))));
  EXPECT_FALSE(E(every).AsBool());
  // Quantifiers over the empty range: ∃ false, ∀ true.
  auto some_empty = MakeQuant(
      QuantKind::kSome, Symbol("x"), Table(Sequence()),
      MakeConst(Value(true)));
  EXPECT_FALSE(E(some_empty).AsBool());
  auto every_empty = MakeQuant(
      QuantKind::kEvery, Symbol("x"), Table(Sequence()),
      MakeConst(Value(false)));
  EXPECT_TRUE(E(every_empty).AsBool());
}

TEST_F(ExprTest, AggExprAppliesSpecToNestedAlgebra) {
  Sequence rows;
  rows.Append(T({{"b", I(3)}}));
  rows.Append(T({{"b", I(7)}}));
  auto agg = MakeAgg(AggOf(AggSpec::Kind::kSum, Symbol("b")),
                     MakeNestedAlg(Table(rows)));
  EXPECT_DOUBLE_EQ(E(agg).AsDouble(), 10.0);
  auto count = MakeAgg(AggCount(), MakeNestedAlg(Table(rows)));
  EXPECT_EQ(E(count).AsInt(), 2);
  auto items = MakeAgg(AggProjectItems(Symbol("b")), MakeNestedAlg(Table(rows)));
  EXPECT_EQ(E(items).AsItems().size(), 2u);
}

TEST_F(ExprTest, SubstituteAttrReplacesReferences) {
  ExprPtr pred = MakeAnd(
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("x")), MakeAttrRef(Symbol("y"))),
      MakeFnCall("contains", {MakeAttrRef(Symbol("x")), MakeConst(S("s"))}));
  ExprPtr sub = SubstituteAttr(pred, Symbol("x"), Symbol("z"));
  std::vector<Symbol> refs;
  CollectFreeAttrs(*sub, &refs);
  for (Symbol s : refs) EXPECT_NE(s, Symbol("x"));
  // Original untouched.
  refs.clear();
  CollectFreeAttrs(*pred, &refs);
  EXPECT_NE(std::find(refs.begin(), refs.end(), Symbol("x")), refs.end());
}

TEST_F(ExprTest, CloneIsDeep) {
  ExprPtr original = MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("a")),
                             MakeConst(I(1)));
  ExprPtr copy = original->Clone();
  copy->children[0]->attr = Symbol("changed");
  EXPECT_EQ(original->children[0]->attr, Symbol("a"));
}

TEST_F(ExprTest, NegateCmpRoundTrip) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    EXPECT_EQ(NegateCmp(NegateCmp(op)), op);
  }
  EXPECT_EQ(NegateCmp(CmpOp::kGt), CmpOp::kLe);
}

}  // namespace
}  // namespace nalq::nal
