// Per-operator profiling tests (src/obs/profile.h + the engine/executor
// integration): the differential contract — profiling never changes output
// bytes or EvalStats, and per-operator rows are byte-identical across the
// streaming, materializing and parallel executors at any thread count —
// plus the saturating merge units and the caller-owned trace log.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/algebra.h"
#include "nal/expr.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace nalq {
namespace {

using engine::ExecMode;
using engine::PathMode;
using engine::RunInstrumentation;
using engine::RunResult;

// The paper's six queries (Sec. 5), verbatim from tests/e2e_queries_test.cpp.
const char* kQ1 = R"(
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
  )";
const char* kQ2 = R"(
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
  )";
const char* kQ3 = R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )";
const char* kQ4 = R"(
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
  )";
const char* kQ5 = R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )";
const char* kQ6 = R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )";

const char* kAllQueries[] = {kQ1, kQ2, kQ3, kQ4, kQ5, kQ6};

void LoadDocuments(engine::Engine* engine, size_t n) {
  datagen::BibOptions bib;
  bib.books = n;
  bib.authors_per_book = 3;
  engine->AddDocument("bib.xml", datagen::GenerateBib(bib));
  engine->RegisterDtd("bib.xml", datagen::kBibDtd);
  engine->AddDocument("reviews.xml", datagen::GenerateReviews(n));
  engine->RegisterDtd("reviews.xml", datagen::kReviewsDtd);
  engine->AddDocument("prices.xml", datagen::GeneratePrices(n));
  engine->RegisterDtd("prices.xml", datagen::kPricesDtd);
  datagen::AuctionOptions auction;
  auction.bids = n + n / 2;
  engine->AddDocument("bids.xml", datagen::GenerateBids(auction));
  engine->RegisterDtd("bids.xml", datagen::kBidsDtd);
}

/// Preorder (headline, rows) flatten — the cross-executor identity unit.
void FlattenRows(const obs::ProfileNode& node,
                 std::vector<std::pair<std::string, uint64_t>>* out) {
  out->push_back({node.headline, node.metrics.rows});
  for (const obs::ProfileNode& c : node.children) FlattenRows(c, out);
}

uint64_t SumRows(const obs::ProfileNode& node) {
  uint64_t total = node.metrics.rows;
  for (const obs::ProfileNode& c : node.children) total += SumRows(c);
  return total;
}

TEST(ObsProfileTest, RowsIdenticalAcrossExecutorsAndThreads) {
  engine::Engine engine;
  LoadDocuments(&engine, 30);
  RunInstrumentation instr;
  instr.profile = true;
  for (const char* query : kAllQueries) {
    engine::CompiledQuery q = engine.Compile(query);
    // Baseline: profiling OFF must equal profiling ON, byte for byte and
    // stat for stat (the profile is pure observation).
    RunResult plain = engine.Run(q.best.plan);
    RunResult reference = engine.Run(q.best.plan, ExecMode::kStreaming,
                                     PathMode::kIndexed, 0, 0, 0, nullptr,
                                     &instr);
    ASSERT_TRUE(reference.profile.enabled) << query;
    EXPECT_EQ(plain.output, reference.output) << query;
    EXPECT_EQ(plain.stats.tuples_produced, reference.stats.tuples_produced);
    EXPECT_EQ(plain.stats.nested_alg_evals, reference.stats.nested_alg_evals);
    EXPECT_EQ(plain.stats.predicate_evals, reference.stats.predicate_evals);
    // Per-operator rows partition the run's total.
    EXPECT_EQ(SumRows(reference.profile.root),
              reference.stats.tuples_produced)
        << query;
    EXPECT_EQ(reference.profile.total_rows,
              reference.stats.tuples_produced);
    std::vector<std::pair<std::string, uint64_t>> expected_rows;
    FlattenRows(reference.profile.root, &expected_rows);
    // The profile's root estimate is the chooser's estimate for this plan.
    ASSERT_LT(q.cost_choice, q.estimates.size());
    EXPECT_NEAR(reference.profile.root.est_rows,
                q.estimates[q.cost_choice].rows, 1e-9)
        << query;

    struct Config {
      ExecMode mode;
      unsigned threads;
    };
    const Config configs[] = {{ExecMode::kMaterializing, 0},
                              {ExecMode::kParallel, 1},
                              {ExecMode::kParallel, 2},
                              {ExecMode::kParallel, 4}};
    for (const Config& c : configs) {
      RunResult r = engine.Run(q.best.plan, c.mode, PathMode::kIndexed,
                               c.threads, 0, 0, nullptr, &instr);
      EXPECT_EQ(r.output, reference.output) << query;
      std::vector<std::pair<std::string, uint64_t>> rows;
      FlattenRows(r.profile.root, &rows);
      EXPECT_EQ(rows, expected_rows)
          << query << " mode=" << static_cast<int>(c.mode)
          << " threads=" << c.threads;
      EXPECT_EQ(SumRows(r.profile.root), r.stats.tuples_produced);
    }
  }
}

TEST(ObsProfileTest, ProfileJsonShape) {
  engine::Engine engine;
  LoadDocuments(&engine, 10);
  engine::CompiledQuery q = engine.Compile(kQ1);
  RunInstrumentation instr;
  instr.profile = true;
  RunResult r = engine.Run(q.best.plan, ExecMode::kStreaming,
                           PathMode::kIndexed, 0, 0, 0, nullptr, &instr);
  const std::string json = r.profile.ToJson();
  EXPECT_NE(json.find("\"total_rows\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"root\":{"), std::string::npos);
  EXPECT_NE(json.find("\"op\":"), std::string::npos);
  EXPECT_NE(json.find("\"est_rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(ObsProfileTest, ProfilingOffByDefault) {
  engine::Engine engine;
  LoadDocuments(&engine, 5);
  RunResult r = engine.RunQuery(kQ3);
  EXPECT_FALSE(r.profile.enabled);
  EXPECT_TRUE(r.profile.ToJson().empty());
}

// The caller owns the trace log: Run records its execute span (and the
// exchange its worker spans) into it and leaves writing it to the caller.
TEST(ObsProfileTest, CallerTraceLogRecordsExecuteSpan) {
  engine::Engine engine;
  LoadDocuments(&engine, 5);
  engine::CompiledQuery q = engine.Compile(kQ3);
  obs::TraceLog log;
  RunInstrumentation instr;
  instr.trace = &log;
  RunResult traced = engine.Run(q.best.plan, ExecMode::kParallel,
                                PathMode::kIndexed, 2, 0, 0, nullptr, &instr);
  EXPECT_EQ(traced.output, engine.Run(q.best.plan).output);
  EXPECT_GE(log.span_count(), 1u);
  const std::string json = log.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos) << json;
}

TEST(ObsProfileTest, OpMetricsMergeSaturates) {
  obs::OpMetrics a;
  a.rows = UINT64_MAX - 1;
  a.wall_ns = UINT64_MAX;
  obs::OpMetrics b;
  b.rows = 10;
  b.wall_ns = 10;
  b.open_calls = 3;
  a += b;
  EXPECT_EQ(a.rows, UINT64_MAX);      // saturates, never wraps
  EXPECT_EQ(a.wall_ns, UINT64_MAX);
  EXPECT_EQ(a.open_calls, 3u);
}

TEST(ObsProfileTest, CollectorCloneAndMerge) {
  // A tiny plan tree to key the collector; structure is irrelevant here.
  nal::AlgebraPtr leaf = nal::Singleton();
  const nal::AlgebraOp* leaf_ptr = leaf.get();
  nal::AlgebraPtr root =
      nal::Select(nal::MakeConst(nal::Value(true)), std::move(leaf));
  obs::ProfileCollector main_collector(*root);
  ASSERT_NE(main_collector.Find(root.get()), nullptr);
  ASSERT_NE(main_collector.Find(leaf_ptr), nullptr);

  obs::ProfileCollector worker = main_collector.CloneEmpty();
  worker.Find(root.get())->rows = 7;
  worker.Find(leaf_ptr)->rows = 3;
  main_collector.Find(root.get())->rows = 5;
  main_collector.MergeFrom(worker);
  EXPECT_EQ(main_collector.Find(root.get())->rows, 12u);
  EXPECT_EQ(main_collector.Find(leaf_ptr)->rows, 3u);
  EXPECT_EQ(main_collector.TotalRows(), 15u);
}

}  // namespace
}  // namespace nalq
