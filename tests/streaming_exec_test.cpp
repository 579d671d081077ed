// Differential suite for the streaming pull executor (src/nal/cursor.h):
// every plan must produce, under streaming, the byte-identical Ξ output, the
// identical tuple sequence and the identical EvalStats of the materializing
// evaluator — on operator-level plans over random relations and on every
// plan alternative of the paper's Sec. 5 queries and the use-case queries.
// Plus a regression test that pipelineable plans never buffer a full
// intermediate.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/cursor.h"
#include "nal/eval.h"
#include "nal/spool.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::S;
using testutil::SeqEq;
using testutil::T;
using testutil::Table;

::testing::AssertionResult StatsEq(const EvalStats& expected,
                                   const EvalStats& actual) {
  if (expected.nested_alg_evals == actual.nested_alg_evals &&
      expected.doc_scans == actual.doc_scans &&
      expected.tuples_produced == actual.tuples_produced &&
      expected.predicate_evals == actual.predicate_evals &&
      expected.xpath.steps_evaluated == actual.xpath.steps_evaluated &&
      expected.xpath.nodes_visited == actual.xpath.nodes_visited) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "EvalStats differ:\n"
         << "  nested_alg_evals " << expected.nested_alg_evals << " vs "
         << actual.nested_alg_evals << "\n  doc_scans " << expected.doc_scans
         << " vs " << actual.doc_scans << "\n  tuples_produced "
         << expected.tuples_produced << " vs " << actual.tuples_produced
         << "\n  predicate_evals " << expected.predicate_evals << " vs "
         << actual.predicate_evals << "\n  xpath.steps "
         << expected.xpath.steps_evaluated << " vs "
         << actual.xpath.steps_evaluated << "\n  xpath.nodes "
         << expected.xpath.nodes_visited << " vs "
         << actual.xpath.nodes_visited;
}

/// Runs `plan` through both executors against `store` and asserts identical
/// tuple sequence, Ξ output and EvalStats.
void ExpectExecutorsAgree(const xml::Store& store, const AlgebraPtr& plan) {
  Evaluator materializing(store);
  Sequence expected = materializing.Eval(*plan);

  Evaluator streaming(store);
  Sequence actual = ExecuteStreaming(streaming, *plan);

  EXPECT_TRUE(SeqEq(expected, actual));
  EXPECT_EQ(materializing.output(), streaming.output());
  EXPECT_TRUE(StatsEq(materializing.stats(), streaming.stats()));
}

// ---------------------------------------------------------------------------
// Operator-level differential tests over random relations
// ---------------------------------------------------------------------------

class StreamingOperatorTest : public ::testing::Test {
 protected:
  xml::Store store_;
  testutil::RandomRelation rng_{20240731};
};

TEST_F(StreamingOperatorTest, Singleton) {
  ExpectExecutorsAgree(store_, Singleton());
}

TEST_F(StreamingOperatorTest, SelectOverRandomRelation) {
  Sequence rows = rng_.Make({"A", "B"}, 64, 4);
  AlgebraPtr plan =
      Select(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")), MakeConst(I(1))),
             Table(std::move(rows)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, ProjectKeepDropDistinct) {
  for (int variant = 0; variant < 3; ++variant) {
    Sequence rows = rng_.Make({"A", "B", "C"}, 48, 3);
    AlgebraPtr input = Table(std::move(rows));
    AlgebraPtr plan;
    switch (variant) {
      case 0:
        plan = ProjectKeep({Symbol("A"), Symbol("B")}, std::move(input));
        break;
      case 1:
        plan = ProjectDrop({Symbol("C")}, std::move(input));
        break;
      default:
        plan = ProjectDistinct({Symbol("A")}, std::move(input));
        break;
    }
    ExpectExecutorsAgree(store_, plan);
  }
}

TEST_F(StreamingOperatorTest, ProjectRename) {
  Sequence rows = rng_.Make({"A", "B"}, 32, 3);
  AlgebraPtr plan = ProjectRename({{Symbol("A2"), Symbol("A")}},
                                  Table(std::move(rows)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, MapWithNestedAlgebra) {
  // χ with a nested algebraic subscript: re-evaluated per tuple, so
  // nested_alg_evals must match across executors.
  Sequence outer = rng_.Make({"A"}, 16, 3);
  Sequence inner = rng_.Make({"X", "Y"}, 8, 3);
  AlgebraPtr nested =
      Select(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                     MakeAttrRef(Symbol("X"))),
             Table(std::move(inner)));
  AlgebraPtr plan = Map(Symbol("G"), MakeNestedAlg(std::move(nested)),
                        Table(std::move(outer)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, UnnestInnerAndOuter) {
  for (bool outer : {false, true}) {
    Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 24, 3, 3);
    AlgebraPtr plan = Unnest(Symbol("G"), Table(std::move(rows)),
                             /*distinct=*/false, outer);
    ExpectExecutorsAgree(store_, plan);
  }
}

TEST_F(StreamingOperatorTest, UnnestDistinct) {
  Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 24, 2, 4);
  AlgebraPtr plan = Unnest(Symbol("G"), Table(std::move(rows)),
                           /*distinct=*/true, /*outer=*/true);
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, CrossAndJoins) {
  for (int kind = 0; kind < 4; ++kind) {
    Sequence lhs = rng_.Make({"A", "B"}, 20, 3);
    Sequence rhs = rng_.Make({"C", "D"}, 15, 3);
    ExprPtr pred = MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                           MakeAttrRef(Symbol("C")));
    AlgebraPtr plan;
    switch (kind) {
      case 0:
        plan = Cross(Table(std::move(lhs)), Table(std::move(rhs)));
        break;
      case 1:
        plan = Join(std::move(pred), Table(std::move(lhs)),
                    Table(std::move(rhs)));
        break;
      case 2:
        plan = SemiJoin(std::move(pred), Table(std::move(lhs)),
                        Table(std::move(rhs)));
        break;
      default:
        plan = AntiJoin(std::move(pred), Table(std::move(lhs)),
                        Table(std::move(rhs)));
        break;
    }
    ExpectExecutorsAgree(store_, plan);
  }
}

TEST_F(StreamingOperatorTest, NonEquiJoinFallsBackToNestedLoop) {
  Sequence lhs = rng_.Make({"A"}, 18, 4);
  Sequence rhs = rng_.Make({"C"}, 12, 4);
  AlgebraPtr plan = Join(MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("A")),
                                 MakeAttrRef(Symbol("C"))),
                         Table(std::move(lhs)), Table(std::move(rhs)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, OuterJoinWithDefault) {
  Sequence lhs = rng_.Make({"A"}, 20, 4);
  Sequence rhs = rng_.Make({"C", "D"}, 14, 4);
  AlgebraPtr plan = OuterJoin(
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")), MakeAttrRef(Symbol("C"))),
      Symbol("D"), MakeConst(I(0)), Table(std::move(lhs)),
      Table(std::move(rhs)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, GroupUnaryCountAndId) {
  for (auto kind : {AggSpec::Kind::kCount, AggSpec::Kind::kId}) {
    Sequence rows = rng_.Make({"A", "B"}, 40, 3);
    AggSpec agg;
    agg.kind = kind;
    if (kind == AggSpec::Kind::kCount) agg.project = Symbol("B");
    AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")},
                                 std::move(agg), Table(std::move(rows)));
    ExpectExecutorsAgree(store_, plan);
  }
}

TEST_F(StreamingOperatorTest, GroupUnaryTheta) {
  Sequence rows = rng_.Make({"A"}, 16, 4);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kCount;
  agg.project = Symbol("A");
  AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kLe, {Symbol("A")},
                               std::move(agg), Table(std::move(rows)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, GroupBinaryEqAndTheta) {
  for (auto theta : {CmpOp::kEq, CmpOp::kLt}) {
    Sequence lhs = rng_.Make({"A"}, 18, 3);
    Sequence rhs = rng_.Make({"C", "D"}, 22, 3);
    AggSpec agg;
    agg.kind = AggSpec::Kind::kCount;
    agg.project = Symbol("D");
    AlgebraPtr plan =
        GroupBinary(Symbol("G"), {Symbol("A")}, theta, {Symbol("C")},
                    std::move(agg), Table(std::move(lhs)),
                    Table(std::move(rhs)));
    ExpectExecutorsAgree(store_, plan);
  }
}

TEST_F(StreamingOperatorTest, SortStableMultiKey) {
  Sequence rows = rng_.Make({"A", "B", "C"}, 50, 3);
  AlgebraPtr plan = SortByDir({Symbol("A"), Symbol("B")}, {0, 1},
                              Table(std::move(rows)));
  ExpectExecutorsAgree(store_, plan);
}

TEST_F(StreamingOperatorTest, PipelineOfManyOperators) {
  // σ(χ(μ(Π(...)))) — a deep pipeline where every stage streams.
  Sequence rows = rng_.MakeWithNested({"A", "B"}, "G", Symbol("V"), 40, 3, 3);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Map(Symbol("M"), MakeConst(S("x")),
          Unnest(Symbol("G"),
                 ProjectDrop({Symbol("B")},
                             Table(std::move(rows))))));
  ExpectExecutorsAgree(store_, plan);
}

// ---------------------------------------------------------------------------
// Full-query differential tests (every plan alternative, both executors)
// ---------------------------------------------------------------------------

class StreamingQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    size_t n = 25;
    datagen::BibOptions bib;
    bib.books = n;
    bib.authors_per_book = 3;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
    engine_.AddDocument("reviews.xml", datagen::GenerateReviews(n));
    engine_.RegisterDtd("reviews.xml", datagen::kReviewsDtd);
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(n));
    engine_.RegisterDtd("prices.xml", datagen::kPricesDtd);
    datagen::AuctionOptions auction;
    auction.bids = n + n / 2;
    engine_.AddDocument("bids.xml", datagen::GenerateBids(auction));
    engine_.RegisterDtd("bids.xml", datagen::kBidsDtd);
  }

  /// Every alternative of `query` must agree across executors: byte-identical
  /// Ξ output, identical root tuple sequence, identical EvalStats.
  void CheckQuery(const std::string& query) {
    engine::CompiledQuery q = engine_.Compile(query);
    ASSERT_FALSE(q.alternatives.empty());
    for (const rewrite::Alternative& alt : q.alternatives) {
      SCOPED_TRACE("plan: " + alt.rule);
      ExpectExecutorsAgree(engine_.store(), alt.plan);
    }
  }

  engine::Engine engine_;
};

TEST_F(StreamingQueryTest, Q1Grouping) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author>
        <name>{ $a1 }</name>
        {
          let $d2 := doc("bib.xml")
          for $b2 in $d2//book[$a1 = author]
          return $b2/title
        }
      </author>
  )");
}

TEST_F(StreamingQueryTest, Q2Aggregation) {
  CheckQuery(R"(
    let $d1 := doc("prices.xml")
    for $t1 in distinct-values($d1//book/title)
    let $p1 := let $d2 := doc("prices.xml")
               for $b2 in $d2//book
               let $t2 := $b2/title
               let $p2 := $b2/price
               let $c2 := decimal($p2)
               where $t1 = $t2
               return $c2
    return
      <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>
  )");
}

TEST_F(StreamingQueryTest, Q3Exists) {
  CheckQuery(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )");
}

TEST_F(StreamingQueryTest, Q4ExistsCount) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $b1 in $d1//book,
        $a1 in $b1/author
    where exists(
      for $b2 in $d1//book
      for $a2 in $b2/author
      where contains($a2, "Suciu") and $b1 = $b2
      return $b2)
    return
      <book>{ $a1 }</book>
  )");
}

TEST_F(StreamingQueryTest, Q5Universal) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )");
}

TEST_F(StreamingQueryTest, Q6Having) {
  CheckQuery(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )");
}

TEST_F(StreamingQueryTest, UseCaseJoinAndSort) {
  CheckQuery(R"(
    for $b in doc("bib.xml")//book
    for $e in doc("reviews.xml")//entry
    where $b/title = $e/title
    return <both>{ $b/title }</both>
  )");
}

TEST_F(StreamingQueryTest, UseCaseNestedFlwor) {
  CheckQuery(R"(
    for $b in doc("bib.xml")//book
    where count($b/author) >= 2
    return <multi>{ $b/title }</multi>
  )");
}

TEST_F(StreamingQueryTest, EngineRunModesAgree) {
  const char kQuery[] = R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ $a1 }</a>
  )";
  engine::RunResult s = engine_.RunQuery(kQuery, engine::ExecMode::kStreaming);
  engine::RunResult m =
      engine_.RunQuery(kQuery, engine::ExecMode::kMaterializing);
  EXPECT_EQ(s.output, m.output);
  EXPECT_TRUE(StatsEq(m.stats, s.stats));
}

// ---------------------------------------------------------------------------
// Peak-materialization regression tests
// ---------------------------------------------------------------------------

TEST(StreamingPeakTest, PipelineablePlanBuffersNothing) {
  xml::Store store;
  testutil::RandomRelation rng(7);
  const size_t kRows = 5000;
  Sequence rows = rng.MakeWithNested({"A", "B"}, "G", Symbol("V"), kRows, 4, 2);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(99))),
      Map(Symbol("M"), MakeConst(I(1)),
          Unnest(Symbol("G"), ProjectDrop({Symbol("B")}, Table(std::move(rows))))));

  Evaluator ev(store);
  StreamStats stream;
  uint64_t produced = DrainStreaming(ev, *plan, &stream);
  EXPECT_GT(produced, kRows / 2);
  EXPECT_GT(ev.stats().tuples_produced, produced);
  // The whole σ∘χ∘μ∘Π pipeline streams: no cursor ever materializes an
  // intermediate sequence.
  EXPECT_EQ(stream.peak_buffered, 0u);
  EXPECT_EQ(stream.materialized_nodes, 0u);
}

TEST(StreamingPeakTest, SortIsAPipelineBreaker) {
  xml::Store store;
  testutil::RandomRelation rng(11);
  const size_t kRows = 1000;
  Sequence rows = rng.Make({"A"}, kRows, 5);
  AlgebraPtr plan = SortBy({Symbol("A")}, Table(std::move(rows)));

  Evaluator ev(store);
  StreamStats stream;
  // The peak numbers below are the *unlimited* in-memory breaker contract;
  // pin an unlimited spool so an NALQ_MEMORY_BUDGET_BYTES run (CI's
  // tiny-budget job) doesn't legitimately spill them to disk.
  SpoolContext unlimited(0);
  uint64_t produced = DrainStreaming(ev, *plan, &stream, &unlimited);
  EXPECT_EQ(produced, kRows);
  // Sort buffers exactly its input, and releases it on Close.
  EXPECT_EQ(stream.peak_buffered, kRows);
  EXPECT_EQ(stream.buffered_tuples, 0u);
}

TEST(StreamingPeakTest, JoinBuffersOnlyBuildSide) {
  xml::Store store;
  testutil::RandomRelation rng(13);
  const size_t kLeft = 2000;
  const size_t kRight = 50;
  Sequence lhs = rng.Make({"A"}, kLeft, 8);
  Sequence rhs = rng.Make({"C"}, kRight, 8);
  AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                 MakeAttrRef(Symbol("C"))),
                         Table(std::move(lhs)), Table(std::move(rhs)));

  Evaluator ev(store);
  StreamStats stream;
  SpoolContext unlimited(0);  // see SortIsAPipelineBreaker
  DrainStreaming(ev, *plan, &stream, &unlimited);
  // Only the hash build side (right input) is ever resident; the probe side
  // streams through no matter how large it is.
  EXPECT_EQ(stream.peak_buffered, kRight);
  EXPECT_EQ(stream.buffered_tuples, 0u);
}

}  // namespace
}  // namespace nalq::nal
