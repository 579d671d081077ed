// Multi-site unnesting and common-subexpression sharing.
#include <gtest/gtest.h>

#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/cursor.h"
#include "nal/exchange.h"
#include "nal/spool.h"

namespace nalq {
namespace {

class MultiSiteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::BibOptions bib;
    bib.books = 25;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(25));
    engine_.RegisterDtd("prices.xml", datagen::kPricesDtd);
  }
  engine::Engine engine_;
};

TEST_F(MultiSiteTest, TwoNestedBlocksBothUnnest) {
  // Two independent nested aggregates per outer tuple: the count of a
  // title's price entries and the count of its review-shaped duplicates in
  // bib itself. Best() must chain two grouping/outer-join rewrites.
  engine::CompiledQuery q = engine_.Compile(R"(
    let $d1 := doc("bib.xml")
    for $t1 in distinct-values($d1//book/title)
    let $p1 := count(for $b2 in doc("prices.xml")//book
                     for $t2 in $b2/title
                     where $t1 = $t2
                     return $b2)
    let $c1 := count(for $b3 in doc("bib.xml")//book
                     for $t3 in $b3/title
                     where $t1 = $t3
                     return $b3)
    return <t title="{ $t1 }" prices="{ $p1 }" copies="{ $c1 }"/>)");
  // Both sites rewritten: the chained rule name mentions two equivalences.
  EXPECT_NE(q.best.rule.find(","), std::string::npos) << q.best.rule;
  // And the outputs agree.
  std::string nested = engine_.Run(q.nested_plan).output;
  std::string best = engine_.Run(q.best.plan).output;
  EXPECT_EQ(nested, best);
  EXPECT_FALSE(nested.empty());
  // The fully unnested plan evaluates no nested subscripts at all.
  EXPECT_EQ(engine_.Run(q.best.plan).stats.nested_alg_evals, 0u);
  EXPECT_GT(engine_.Run(q.nested_plan).stats.nested_alg_evals, 0u);
}

/// Bench E4's single-scan plan (bench/bench_q4_exists_count.cpp): the
/// books × authors scan feeds both the probe side of a semijoin and a
/// counting Γ below its build side. With `shared`, one scan node with a
/// cse_id feeds both sides; without, each side has its own copy.
nal::AlgebraPtr SingleScanPlan(bool shared) {
  using nal::Symbol;
  Symbol b1("b1");
  Symbol a1("a1");
  Symbol b2("b2");
  Symbol a2("a2");
  auto make_scan = [&] {
    return nal::UnnestMap(
        a1, nal::MakePath(nal::MakeAttrRef(b1), xml::Path::Parse("author")),
        nal::UnnestMap(
            b1,
            nal::MakePath(
                nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
                xml::Path::Parse("//book")),
            nal::Singleton()));
  };
  nal::AlgebraPtr scan = make_scan();
  if (shared) scan->cse_id = 1;
  nal::AggSpec count = nal::AggCount();
  count.filter = nal::MakeFnCall(
      "contains", {nal::MakeAttrRef(a2), nal::MakeConst(nal::Value("Suciu"))});
  auto marked = nal::Select(
      nal::MakeCmp(nal::CmpOp::kGt, nal::MakeAttrRef(Symbol("c")),
                   nal::MakeConst(nal::Value(int64_t{0}))),
      nal::GroupUnary(Symbol("c"), nal::CmpOp::kEq, {b2}, std::move(count),
                      nal::ProjectRename({{b2, b1}, {a2, a1}},
                                         shared ? scan : make_scan())));
  auto semi = nal::SemiJoin(
      nal::MakeCmp(nal::CmpOp::kEq, nal::MakeAttrRef(b1), nal::MakeAttrRef(b2)),
      scan, marked);
  return nal::XiSimple({nal::XiCommand::Literal("<book>"),
                        nal::XiCommand::Var(a1),
                        nal::XiCommand::Literal("</book>")},
                       std::move(semi));
}

struct PlanRun {
  std::string output;
  nal::EvalStats stats;
};

bool SameNonSpillStats(const nal::EvalStats& a, const nal::EvalStats& b) {
  return a.nested_alg_evals == b.nested_alg_evals &&
         a.doc_scans == b.doc_scans &&
         a.tuples_produced == b.tuples_produced &&
         a.predicate_evals == b.predicate_evals &&
         a.xpath.steps_evaluated == b.xpath.steps_evaluated &&
         a.xpath.nodes_visited == b.xpath.nodes_visited;
}

TEST_F(MultiSiteTest, SharedScanRunsOnceOnEveryExecutor) {
  const nal::AlgebraPtr shared = SingleScanPlan(true);
  const nal::AlgebraPtr unshared = SingleScanPlan(false);
  nal::Evaluator reference_ev(engine_.store());
  reference_ev.Eval(*unshared);
  const PlanRun reference{reference_ev.output(), reference_ev.stats()};
  ASSERT_FALSE(reference.output.empty());
  ASSERT_GT(reference.stats.doc_scans, 0u);

  std::vector<PlanRun> runs;
  for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20}) {
    for (int executor = 0; executor < 3; ++executor) {
      nal::Evaluator ev(engine_.store());
      nal::SpoolContext spool(budget);
      if (executor == 0) {
        nal::DrainStreaming(ev, *shared, nullptr, &spool);
      } else if (executor == 1) {
        nal::ParallelOptions options;
        options.threads = 4;
        nal::DrainParallel(ev, *shared, options, nullptr, &spool);
      } else {
        ev.Eval(*shared);
      }
      runs.push_back({ev.output(), ev.stats()});
    }
  }
  for (const PlanRun& run : runs) {
    EXPECT_EQ(run.output, reference.output);
    EXPECT_TRUE(SameNonSpillStats(run.stats, runs.front().stats));
    EXPECT_EQ(run.stats.doc_scans * 2, reference.stats.doc_scans);
  }
}

}  // namespace
}  // namespace nalq
