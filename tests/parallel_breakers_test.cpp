// Differential and unit suite for parallel runs over plans with pipeline
// breakers: the cost-driven placement chooser, the row-hint grace-admission
// policy, and worker-count resolution. The breakers stay on the consumer
// thread, above the exchange's per-tuple cut. The differential half re-runs
// every plan alternative of the paper's Q1–Q6 at threads {1, 2, 4, hw} ×
// budgets {unlimited, 1 MB} and asserts byte-identical Ξ output, identical
// root tuples and identical merged (non-spill) EvalStats against serial
// streaming — the cross-executor contract of src/nal/README.md.
#include <gtest/gtest.h>

#include <thread>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/cursor.h"
#include "nal/eval.h"
#include "nal/exchange.h"
#include "nal/spool.h"
#include "opt/parallel.h"
#include "test_util.h"

namespace nalq::nal {
namespace {

using testutil::SeqEq;

unsigned Hardware() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<unsigned> ThreadSweep() {
  std::vector<unsigned> sweep = {1, 2, 4};
  unsigned hw = Hardware();
  if (hw != 1 && hw != 2 && hw != 4) sweep.push_back(hw);
  return sweep;
}

::testing::AssertionResult StatsEq(const EvalStats& expected,
                                   const EvalStats& actual) {
  if (expected.nested_alg_evals == actual.nested_alg_evals &&
      expected.doc_scans == actual.doc_scans &&
      expected.tuples_produced == actual.tuples_produced &&
      expected.predicate_evals == actual.predicate_evals &&
      expected.xpath.steps_evaluated == actual.xpath.steps_evaluated &&
      expected.xpath.nodes_visited == actual.xpath.nodes_visited &&
      expected.xpath.index_lookups == actual.xpath.index_lookups &&
      expected.xpath.index_hits == actual.xpath.index_hits &&
      expected.xpath.index_nodes_skipped ==
          actual.xpath.index_nodes_skipped) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "EvalStats differ: tuples " << expected.tuples_produced << " vs "
         << actual.tuples_produced << ", predicates "
         << expected.predicate_evals << " vs " << actual.predicate_evals
         << ", xpath steps " << expected.xpath.steps_evaluated << " vs "
         << actual.xpath.steps_evaluated;
}

// ---------------------------------------------------------------------------
// Grace-admission policy (nal/spool.h)
// ---------------------------------------------------------------------------

TEST(GracePartitionCountTest, NoEstimateFallsBackToStaticRule) {
  // budget/32KB clamped to [4, 64].
  EXPECT_EQ(GracePartitionCount(2u << 20, 0.0), 64u);
  EXPECT_EQ(GracePartitionCount(64u << 10, 0.0), 4u);
  EXPECT_EQ(GracePartitionCount(1u << 30, 0.0), 64u);
  EXPECT_EQ(GracePartitionCount(1u << 20, -1.0), 32u);
  // An absurd estimate (overflowed multiply) is treated as no estimate.
  EXPECT_EQ(GracePartitionCount(2u << 20, 9.5e18), 64u);
}

TEST(GracePartitionCountTest, EstimateSizesPartitionsToTheLoadLimit) {
  const uint64_t budget = 1u << 20;  // load limit = budget/2 = 512 KB
  // Small overflow: minimum partition fan-out, not 32.
  EXPECT_EQ(GracePartitionCount(budget, 100.0 * 1024), 4u);
  // 5 MB build over a 512 KB per-partition load: 5M/512K + 1 = 11.
  EXPECT_EQ(GracePartitionCount(budget, 5.0 * 1024 * 1024), 11u);
  // Far beyond the budget: capped at budget/16KB = 64 open partitions.
  EXPECT_EQ(GracePartitionCount(budget, 1.0e9), 64u);
}

// ---------------------------------------------------------------------------
// Worker-count resolution (ResolveParallelThreads)
// ---------------------------------------------------------------------------

TEST(ResolveThreadsTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveParallelThreads(3, 0), 3u);
}

TEST(ResolveThreadsTest, ZeroMeansOnePerHardwareCore) {
  EXPECT_EQ(ResolveParallelThreads(0, 0), Hardware());
}

// ---------------------------------------------------------------------------
// Cost-driven placement chooser (opt/parallel.h)
// ---------------------------------------------------------------------------

class PlacementChooserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::BibOptions bib;
    bib.books = 30;
    bib.authors_per_book = 3;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
  }
  engine::Engine engine_;
};

TEST_F(PlacementChooserTest, SerialCapYieldsSerialPlacement) {
  engine::CompiledQuery q = engine_.Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ $a1 }</a>)");
  opt::ParallelPlacement place = opt::ChooseParallelPlacement(
      engine_.store(), *q.best.plan, /*max_threads=*/1,
      /*memory_budget_bytes=*/0);
  EXPECT_EQ(place.dop, 1u);
  EXPECT_EQ(place.est_parallel_cost, place.est_serial_cost);
}

TEST_F(PlacementChooserTest, ParallelNeverPricedAboveSerial) {
  engine::CompiledQuery q = engine_.Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author><name>{ $a1 }</name>
      { let $d2 := doc("bib.xml")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title }
      </author>)");
  for (const rewrite::Alternative& alt : q.alternatives) {
    SCOPED_TRACE("plan: " + alt.rule);
    opt::ParallelPlacement place = opt::ChooseParallelPlacement(
        engine_.store(), *alt.plan, /*max_threads=*/4, 0);
    EXPECT_LE(place.est_parallel_cost, place.est_serial_cost);
    EXPECT_GE(place.dop, 1u);
    EXPECT_LE(place.dop, 4u);
    if (place.dop >= 2) {
      EXPECT_TRUE(FindPartitionPoint(*alt.plan).has_value());
    }
  }
}

TEST_F(PlacementChooserTest, RecordsBreakerBuildRowHints) {
  // The unnested Q1 alternatives carry join/Γ breakers; the chooser's
  // estimation walk must surface their build-side row estimates for the
  // grace-admission policy.
  engine::CompiledQuery q = engine_.Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author><name>{ $a1 }</name>
      { let $d2 := doc("bib.xml")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title }
      </author>)");
  bool any_hints = false;
  for (const rewrite::Alternative& alt : q.alternatives) {
    opt::ParallelPlacement place =
        opt::ChooseParallelPlacement(engine_.store(), *alt.plan, 1, 0);
    for (const auto& [op, rows] : place.breaker_build_rows) {
      EXPECT_GT(rows, 0.0);
      any_hints = true;
    }
  }
  EXPECT_TRUE(any_hints) << "no alternative produced a breaker row hint";
}

TEST_F(PlacementChooserTest, ChoiceIsDeterministic) {
  engine::CompiledQuery q = engine_.Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ $a1 }</a>)");
  opt::ParallelPlacement a =
      opt::ChooseParallelPlacement(engine_.store(), *q.best.plan, 4, 0);
  opt::ParallelPlacement b =
      opt::ChooseParallelPlacement(engine_.store(), *q.best.plan, 4, 0);
  EXPECT_EQ(a.dop, b.dop);
  EXPECT_EQ(a.est_parallel_cost, b.est_parallel_cost);
}

// ---------------------------------------------------------------------------
// Differential suite: Q1–Q6 × every alternative × threads × budgets
// ---------------------------------------------------------------------------

class ParallelBreakersQueryTest : public ::testing::Test {
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

  /// Serial-streaming reference vs parallel run under `options` and
  /// `budget`: identical root tuples, byte-identical Ξ output, identical
  /// merged non-spill stats.
  void ExpectAgrees(const AlgebraPtr& plan, const ParallelOptions& options,
                    uint64_t budget) {
    Evaluator streaming(engine_.store());
    Sequence expected = ExecuteStreaming(streaming, *plan);
    Evaluator parallel(engine_.store());
    SpoolContext spool(budget);
    Sequence actual =
        ExecuteParallel(parallel, *plan, options, nullptr, &spool);
    EXPECT_TRUE(SeqEq(expected, actual));
    EXPECT_EQ(streaming.output(), parallel.output());
    EXPECT_TRUE(StatsEq(streaming.stats(), parallel.stats()));
  }

  void CheckQuery(const std::string& query) {
    engine::CompiledQuery q = engine_.Compile(query);
    ASSERT_FALSE(q.alternatives.empty());
    for (const rewrite::Alternative& alt : q.alternatives) {
      SCOPED_TRACE("plan: " + alt.rule);
      for (unsigned threads : ThreadSweep()) {
        for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20}) {
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " budget=" + std::to_string(budget));
          ParallelOptions options;
          options.threads = threads;
          options.chunk_tuples = 8;  // many tickets even at n=25
          ExpectAgrees(alt.plan, options, budget);
        }
      }
    }
  }

  engine::Engine engine_;
};

TEST_F(ParallelBreakersQueryTest, Q1Grouping) {
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

TEST_F(ParallelBreakersQueryTest, Q2Aggregation) {
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

TEST_F(ParallelBreakersQueryTest, Q3Exists) {
  CheckQuery(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )");
}

TEST_F(ParallelBreakersQueryTest, Q4ExistsCount) {
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

TEST_F(ParallelBreakersQueryTest, Q5Universal) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )");
}

TEST_F(ParallelBreakersQueryTest, Q6Having) {
  CheckQuery(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )");
}

// The engine path: cost-chosen placement + dop (kParallel) must match
// streaming byte-for-byte at every thread cap and budget.
TEST_F(ParallelBreakersQueryTest, EnginePlacementMatchesStreaming) {
  const char kQuery[] = R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author><name>{ $a1 }</name>
      { let $d2 := doc("bib.xml")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title }
      </author>
  )";
  engine::RunResult s = engine_.RunQuery(kQuery, engine::ExecMode::kStreaming);
  for (unsigned threads : ThreadSweep()) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      engine::RunResult p =
          engine_.RunQuery(kQuery, engine::ExecMode::kParallel,
                           engine::PathMode::kIndexed, threads, budget);
      EXPECT_EQ(s.output, p.output);
      EXPECT_TRUE(StatsEq(s.stats, p.stats));
      EXPECT_EQ(s.root_tuples, p.root_tuples);
    }
  }
}

}  // namespace
}  // namespace nalq::nal
