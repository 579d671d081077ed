// Differential suite for the memory-bounded execution layer (nal/spool.h).
//
// The contract under test: for ANY memory budget, the streaming executor
// produces the byte-identical Ξ output, the identical root tuple sequence
// and the identical non-spill EvalStats of the materializing evaluator
// (Evaluator::Eval, the independent oracle) — while EvalStats::spill
// reports that spilling actually happened. Covered: every hybrid breaker
// (external sort, grace hash joins with recursive re-partitioning and
// order restoration, spilled Γ, spooled nested loops), breakers whose
// subscripts write Ξ output (never spill), budgets down to a few hundred
// bytes (1–2 tuple
// sort runs, forced merge passes and re-partitions), multi-valued join
// keys whose duplicate matches cross partitions, the parallel executor's
// shared budget, the Q1–Q6 plan alternatives, and temp-file cleanup on both
// the success and the thrown-error path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <random>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/cursor.h"
#include "nal/eval.h"
#include "nal/exchange.h"
#include "nal/fault_injection.h"
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

::testing::AssertionResult NonSpillStatsEq(const EvalStats& expected,
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
         << "non-spill EvalStats differ:\n  nested_alg_evals "
         << expected.nested_alg_evals << " vs " << actual.nested_alg_evals
         << "\n  doc_scans " << expected.doc_scans << " vs "
         << actual.doc_scans << "\n  tuples_produced "
         << expected.tuples_produced << " vs " << actual.tuples_produced
         << "\n  predicate_evals " << expected.predicate_evals << " vs "
         << actual.predicate_evals << "\n  xpath.steps "
         << expected.xpath.steps_evaluated << " vs "
         << actual.xpath.steps_evaluated << "\n  xpath.nodes "
         << expected.xpath.nodes_visited << " vs "
         << actual.xpath.nodes_visited;
}

struct BudgetedRun {
  Sequence result;
  std::string output;
  EvalStats stats;
};

BudgetedRun RunStreaming(const xml::Store& store, const AlgebraPtr& plan,
                         uint64_t budget) {
  Evaluator ev(store);
  BudgetedRun run;
  if (budget == 0) {
    SpoolContext unlimited(0);  // pin: ignore any env default
    run.result = ExecuteStreaming(ev, *plan, nullptr, &unlimited);
  } else {
    SpoolContext spool(budget);
    run.result = ExecuteStreaming(ev, *plan, nullptr, &spool);
  }
  run.output = ev.output();
  run.stats = ev.stats();
  return run;
}

/// The independent oracle: the materializing evaluator, which shares no
/// breaker code with the streaming cursors.
BudgetedRun RunOracle(const xml::Store& store, const AlgebraPtr& plan) {
  Evaluator ev(store);
  BudgetedRun run;
  run.result = ev.Eval(*plan);
  run.output = ev.output();
  run.stats = ev.stats();
  return run;
}

void ExpectMatchesOracle(const BudgetedRun& oracle, const BudgetedRun& run) {
  EXPECT_TRUE(SeqEq(oracle.result, run.result));
  EXPECT_EQ(oracle.output, run.output);
  EXPECT_TRUE(NonSpillStatsEq(oracle.stats, run.stats));
}

/// Asserts the unlimited and the budgeted streaming run — the same hybrid
/// cursors — both match Evaluator::Eval (root sequence, output bytes,
/// non-spill stats); returns the budgeted run's SpillStats so callers can
/// additionally assert that spilling occurred.
SpillStats ExpectBudgetedAgrees(const xml::Store& store,
                                const AlgebraPtr& plan, uint64_t budget) {
  BudgetedRun oracle = RunOracle(store, plan);
  BudgetedRun unlimited = RunStreaming(store, plan, 0);
  EXPECT_FALSE(unlimited.stats.spill.any());
  ExpectMatchesOracle(oracle, unlimited);
  BudgetedRun budgeted = RunStreaming(store, plan, budget);
  ExpectMatchesOracle(oracle, budgeted);
  return budgeted.stats.spill;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(SpoolCodecTest, RoundTripsEveryValueKind) {
  Sequence nested;
  nested.Append(T({{"x", I(1)}, {"y", S("inner")}}));
  nested.Append(T({{"x", Value::Null()}}));
  ItemSeq items;
  items.push_back(I(7));
  items.push_back(Value(true));
  items.push_back(S("item"));
  Tuple t = T({{"a", I(-42)},
               {"b", Value(2.5)},
               {"c", S("hello \"quoted\" \n bytes")},
               {"d", Value::Null()},
               {"e", Value(false)},
               {"f", Value(xml::NodeRef{3, 17})},
               {"g", Value::FromItems(std::move(items))},
               {"h", Value::FromTuples(std::move(nested))}});

  std::string buf;
  EncodeTuple(t, &buf);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  Tuple back;
  ASSERT_TRUE(DecodeTuple(&p, p + buf.size(), &back));
  EXPECT_EQ(p, reinterpret_cast<const uint8_t*>(buf.data()) + buf.size());
  ASSERT_EQ(back.size(), t.size());
  for (const auto& [a, v] : t.slots()) {
    ASSERT_TRUE(back.Has(a)) << a.str();
    EXPECT_EQ(back.Get(a).kind(), v.kind()) << a.str();
  }
  // Node refs round-trip exactly (doc + id), not just structurally.
  EXPECT_EQ(back.Get(Symbol("f")).AsNode(), (xml::NodeRef{3, 17}));
  EXPECT_TRUE(back.Get(Symbol("h")).AsTuples()[0].Equals(
      t.Get(Symbol("h")).AsTuples()[0]));
}

TEST(SpoolCodecTest, DecodeRejectsTruncatedBuffers) {
  Tuple t = T({{"a", S("some string payload")}, {"b", I(5)}});
  std::string buf;
  EncodeTuple(t, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    Tuple back;
    EXPECT_FALSE(DecodeTuple(&p, p + cut, &back)) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

TEST(MemoryBudgetTest, ChargesReleasesAndRefuses) {
  MemoryBudget b(100);
  EXPECT_TRUE(b.limited());
  EXPECT_TRUE(b.TryCharge(60));
  EXPECT_TRUE(b.TryCharge(40));
  EXPECT_FALSE(b.TryCharge(1));
  b.Release(50);
  EXPECT_TRUE(b.TryCharge(30));
  EXPECT_EQ(b.used_bytes(), 80u);
  b.ChargeUnchecked(1000);  // progress guarantee may over-commit
  EXPECT_EQ(b.used_bytes(), 1080u);
  EXPECT_FALSE(b.TryCharge(1));
}

TEST(MemoryBudgetTest, UnlimitedBudgetAlwaysCharges) {
  MemoryBudget b(0);
  EXPECT_FALSE(b.limited());
  EXPECT_TRUE(b.TryCharge(UINT64_MAX));
  EXPECT_EQ(b.used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// ExternalSorter
// ---------------------------------------------------------------------------

TEST(ExternalSorterTest, TinyBudgetSpillsRunsAndMergesInOrder) {
  SpoolContext spool(512);  // a couple of tuples per run at most
  SpillStats stats;
  ExternalSorter sorter(&spool, &stats);
  std::mt19937 rng(7);
  const int kN = 500;
  std::vector<int64_t> expect;
  for (int i = 0; i < kN; ++i) {
    int64_t v = std::uniform_int_distribution<int64_t>(0, 50)(rng);
    expect.push_back(v);
    sorter.Add({Value(v)}, static_cast<uint64_t>(i),
               T({{"v", I(v)}, {"i", I(i)}}));
  }
  sorter.Finish();
  std::stable_sort(expect.begin(), expect.end());
  EXPECT_TRUE(sorter.spilled());
  EXPECT_GT(stats.spill_runs, 2u);
  EXPECT_GT(stats.spilled_bytes, 0u);
  // 512 bytes → minimum fan-in of 2, so hundreds of runs need extra passes.
  EXPECT_GT(stats.merge_passes, 0u);
  ExternalSorter::Record rec;
  int64_t last_seq = -1;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(sorter.Next(&rec)) << i;
    EXPECT_EQ(rec.key[0].AsInt(), expect[static_cast<size_t>(i)]);
    EXPECT_EQ(rec.tuple.Get(Symbol("v")).AsInt(), rec.key[0].AsInt());
    // Stability: within equal keys, records come back in Add (seq) order.
    if (i > 0 && rec.key[0].AsInt() == expect[static_cast<size_t>(i) - 1]) {
      EXPECT_GT(static_cast<int64_t>(rec.seq), last_seq);
    }
    last_seq = static_cast<int64_t>(rec.seq);
  }
  EXPECT_FALSE(sorter.Next(&rec));
}

TEST(ExternalSorterTest, DescendingFlagsRespected) {
  SpoolContext spool(400);
  SpillStats stats;
  ExternalSorter sorter(&spool, &stats, {1});
  for (int i = 0; i < 100; ++i) {
    sorter.Add({Value(static_cast<int64_t>(i % 10))},
               static_cast<uint64_t>(i), T({{"i", I(i)}}));
  }
  sorter.Finish();
  ExternalSorter::Record rec;
  int64_t prev = 10;
  while (sorter.Next(&rec)) {
    EXPECT_LE(rec.key[0].AsInt(), prev);
    prev = rec.key[0].AsInt();
  }
}

// ---------------------------------------------------------------------------
// Randomized operator-level differential
// ---------------------------------------------------------------------------

class SpoolOperatorTest : public ::testing::Test {
 protected:
  xml::Store store_;
  testutil::RandomRelation rng_{20260730};

  /// Relation whose `key` attribute is an item sequence of 0..3 values —
  /// the multi-valued join-key shape whose matches can reach a grace
  /// partition through several keys at once (dedup at the merge).
  Sequence MakeItemKeyed(const char* key, size_t rows, int domain) {
    Sequence out;
    std::uniform_int_distribution<int> len(0, 3);
    for (size_t i = 0; i < rows; ++i) {
      Tuple t;
      t.Set(Symbol("id"), I(static_cast<int64_t>(i)));
      ItemSeq items;
      int n = len(rng_.rng());
      for (int j = 0; j < n; ++j) items.push_back(rng_.RandomValue(domain));
      t.Set(Symbol(key), Value::FromItems(std::move(items)));
      out.Append(std::move(t));
    }
    return out;
  }
};

TEST_F(SpoolOperatorTest, SortAcrossBudgets) {
  for (uint64_t budget : {400u, 4096u, 1u << 20}) {
    Sequence rows = rng_.Make({"A", "B", "C"}, 400, 4);
    AlgebraPtr plan = SortByDir({Symbol("A"), Symbol("B")}, {0, 1},
                                Table(std::move(rows)));
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, budget);
    if (budget <= 4096) {
      EXPECT_GT(spill.spill_runs, 0u) << "budget=" << budget;
    }
  }
}

TEST_F(SpoolOperatorTest, SortDegeneratesToTinyRunsUnderStarvedBudget) {
  // Budget far below a single tuple: the progress guarantee holds one
  // record at a time, so nearly every tuple becomes its own run and the
  // bounded fan-in forces multiple merge passes.
  const size_t kRows = 300;
  Sequence rows = rng_.Make({"A"}, kRows, 6);
  AlgebraPtr plan = SortBy({Symbol("A")}, Table(std::move(rows)));
  BudgetedRun reference = RunStreaming(store_, plan, 0);
  BudgetedRun budgeted = RunStreaming(store_, plan, 16);
  EXPECT_TRUE(SeqEq(reference.result, budgeted.result));
  EXPECT_TRUE(NonSpillStatsEq(reference.stats, budgeted.stats));
  EXPECT_GE(budgeted.stats.spill.spill_runs, kRows / 2);
  EXPECT_GT(budgeted.stats.spill.merge_passes, 0u);
}

TEST_F(SpoolOperatorTest, EquiJoinAcrossBudgets) {
  for (uint64_t budget : {700u, 8192u, 1u << 20}) {
    Sequence lhs = rng_.Make({"A", "B"}, 150, 5);
    Sequence rhs = rng_.Make({"C", "D"}, 140, 5);
    AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                   MakeAttrRef(Symbol("C"))),
                           Table(std::move(lhs)), Table(std::move(rhs)));
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, budget);
    if (budget <= 8192) {
      EXPECT_GT(spill.spill_runs, 0u);
    }
  }
}

TEST_F(SpoolOperatorTest, EquiJoinWithResidualPredicate) {
  // A = C ∧ B != D: hash on the equality, residual evaluated per match —
  // under spilling the residual runs after the restoration merge, and the
  // predicate_evals count must still match exactly. ⋉ and ▷ stop at the
  // first match, so the merge must drop the rest of that left tuple's
  // candidates unevaluated.
  for (int kind = 0; kind < 4; ++kind) {
    // ⋈ keeps its original size; the other kinds use smaller relations.
    const size_t rows = kind == 0 ? 150 : 60;
    Sequence lhs = rng_.Make({"A", "B"}, rows, 4);
    Sequence rhs = rng_.Make({"C", "D"}, rows, 4);
    ExprPtr pred = MakeAnd(
        MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                MakeAttrRef(Symbol("C"))),
        MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("B")),
                MakeAttrRef(Symbol("D"))));
    AlgebraPtr plan;
    switch (kind) {
      case 0:
        plan = Join(std::move(pred), Table(std::move(lhs)),
                    Table(std::move(rhs)));
        break;
      case 1:
        plan = SemiJoin(std::move(pred), Table(std::move(lhs)),
                        Table(std::move(rhs)));
        break;
      case 2:
        plan = AntiJoin(std::move(pred), Table(std::move(lhs)),
                        Table(std::move(rhs)));
        break;
      default:
        plan = OuterJoin(std::move(pred), Symbol("D"), MakeConst(I(0)),
                         Table(std::move(lhs)), Table(std::move(rhs)));
        break;
    }
    SCOPED_TRACE("kind=" + std::to_string(kind));
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, 2048);
    EXPECT_GT(spill.spill_runs, 0u);
  }
}

TEST_F(SpoolOperatorTest, MultiValuedKeysJoinSemiAntiOuter) {
  // Item-sequence keys on both sides: a match pair can surface in several
  // partitions; the restoration merge must drop the duplicates exactly
  // like LookupInto's sort+unique does in memory.
  for (int kind = 0; kind < 4; ++kind) {
    Sequence lhs = MakeItemKeyed("A", 80, 3);
    Sequence rhs = MakeItemKeyed("C", 70, 3);
    // Rename rhs id to keep attribute sets disjoint.
    AlgebraPtr right = ProjectRename({{Symbol("rid"), Symbol("id")}},
                                     Table(std::move(rhs)));
    ExprPtr pred = MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                           MakeAttrRef(Symbol("C")));
    AlgebraPtr plan;
    switch (kind) {
      case 0:
        plan = Join(std::move(pred), Table(std::move(lhs)), std::move(right));
        break;
      case 1:
        plan = SemiJoin(std::move(pred), Table(std::move(lhs)),
                        std::move(right));
        break;
      case 2:
        plan = AntiJoin(std::move(pred), Table(std::move(lhs)),
                        std::move(right));
        break;
      default:
        plan = OuterJoin(std::move(pred), Symbol("C"), MakeConst(I(0)),
                         Table(std::move(lhs)), std::move(right));
        break;
    }
    SCOPED_TRACE("kind=" + std::to_string(kind));
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, 1500);
    EXPECT_GT(spill.spill_runs, 0u);
  }
}

TEST_F(SpoolOperatorTest, NonEquiJoinsUseSpooledNestedLoop) {
  for (int kind = 0; kind < 5; ++kind) {
    Sequence lhs = rng_.Make({"A"}, 50, 6);
    Sequence rhs = rng_.Make({"C"}, 45, 6);
    ExprPtr pred = MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("A")),
                           MakeAttrRef(Symbol("C")));
    AlgebraPtr plan;
    switch (kind) {
      case 0:
        plan = Join(std::move(pred), Table(std::move(lhs)),
                    Table(std::move(rhs)));
        break;
      case 1:
        plan = SemiJoin(std::move(pred), Table(std::move(lhs)),
                        Table(std::move(rhs)));
        break;
      case 2:
        plan = Cross(Table(std::move(lhs)), Table(std::move(rhs)));
        break;
      case 3:
        plan = AntiJoin(std::move(pred), Table(std::move(lhs)),
                        Table(std::move(rhs)));
        break;
      default:
        plan = OuterJoin(std::move(pred), Symbol("C"), MakeConst(I(0)),
                         Table(std::move(lhs)), Table(std::move(rhs)));
        break;
    }
    SCOPED_TRACE("kind=" + std::to_string(kind));
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, 600);
    EXPECT_GT(spill.spill_runs, 0u);
  }
}

TEST_F(SpoolOperatorTest, GroupUnaryEqAcrossBudgets) {
  for (auto agg_kind : {AggSpec::Kind::kCount, AggSpec::Kind::kId}) {
    for (uint64_t budget : {700u, 8192u, 1u << 20}) {
      Sequence rows = rng_.Make({"A", "B"}, 300, 5);
      AggSpec agg;
      agg.kind = agg_kind;
      if (agg_kind == AggSpec::Kind::kCount) agg.project = Symbol("B");
      AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")},
                                   std::move(agg), Table(std::move(rows)));
      SpillStats spill = ExpectBudgetedAgrees(store_, plan, budget);
      if (budget <= 8192) {
        EXPECT_GT(spill.spill_runs, 0u);
      }
    }
  }
}

TEST_F(SpoolOperatorTest, GroupUnaryMultiValuedKeysRestoreFirstOccurrence) {
  // A tuple with several key items joins several groups; two groups can
  // first occur at the SAME tuple, whose key ordinal then breaks the tie in
  // the restored first-occurrence order.
  Sequence rows = MakeItemKeyed("A", 250, 3);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kCount;
  agg.project = Symbol("id");
  AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")},
                               std::move(agg), Table(std::move(rows)));
  SpillStats spill = ExpectBudgetedAgrees(store_, plan, 1200);
  EXPECT_GT(spill.spill_runs, 0u);
}

TEST_F(SpoolOperatorTest, GroupUnaryThetaRescansSpooledInput) {
  Sequence rows = rng_.Make({"A"}, 120, 5);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kCount;
  agg.project = Symbol("A");
  AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kLe, {Symbol("A")},
                               std::move(agg), Table(std::move(rows)));
  SpillStats spill = ExpectBudgetedAgrees(store_, plan, 700);
  EXPECT_GT(spill.spill_runs, 0u);
}

TEST_F(SpoolOperatorTest, GroupBinaryEqAndTheta) {
  for (auto theta : {CmpOp::kEq, CmpOp::kLt}) {
    Sequence lhs = rng_.Make({"A"}, 90, 4);
    Sequence rhs = rng_.Make({"C", "D"}, 110, 4);
    AggSpec agg;
    agg.kind = AggSpec::Kind::kCount;
    agg.project = Symbol("D");
    AlgebraPtr plan =
        GroupBinary(Symbol("G"), {Symbol("A")}, theta, {Symbol("C")},
                    std::move(agg), Table(std::move(lhs)),
                    Table(std::move(rhs)));
    SCOPED_TRACE(theta == CmpOp::kEq ? "eq" : "theta");
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, 900);
    EXPECT_GT(spill.spill_runs, 0u);
  }
}

TEST_F(SpoolOperatorTest, SkewedKeysForceRecursiveRepartition) {
  // Every build tuple shares ONE key: no hash can split the partition, so
  // the recursion re-partitions down to its depth cap and then processes
  // the partition regardless (bounded over-commit).
  Sequence lhs;
  Sequence rhs;
  const std::string pad(96, 'x');  // keep the one partition above its
                                   // load limit at any reasonable floor
  for (int i = 0; i < 60; ++i) {
    lhs.Append(T({{"A", S("skew")}, {"B", I(i)}}));
    rhs.Append(
        T({{"C", S("skew")}, {"D", I(i)}, {"P", Value(pad)}}));
  }
  AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                 MakeAttrRef(Symbol("C"))),
                         Table(std::move(lhs)), Table(std::move(rhs)));
  SpillStats spill = ExpectBudgetedAgrees(store_, plan, 1024);
  EXPECT_GT(spill.repartitions, 0u);
}

TEST_F(SpoolOperatorTest, DiverseKeysBelowPartitionSizeRepartition) {
  // Budget small enough that even a level-0 partition of distinct keys
  // exceeds its load limit: the recursion must actually split it (and the
  // output must not change).
  Sequence lhs = rng_.Make({"A"}, 500, 40);
  Sequence rhs;
  for (int i = 0; i < 600; ++i) {
    rhs.Append(T({{"C", I(i % 40)},
                  {"D", S(("padpadpadpadpadpadpadpad" +
                           std::to_string(i))
                              .c_str())}}));
  }
  AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                 MakeAttrRef(Symbol("C"))),
                         Table(std::move(lhs)), Table(std::move(rhs)));
  SpillStats spill = ExpectBudgetedAgrees(store_, plan, 2048);
  EXPECT_GT(spill.repartitions, 0u);
}

TEST_F(SpoolOperatorTest, DeepPipelineWithMultipleBreakers) {
  // Sort over Γ over an equi join: three breakers sharing one accountant.
  for (uint64_t budget : {1500u, 1u << 20}) {
    Sequence lhs = rng_.Make({"A", "B"}, 160, 4);
    Sequence rhs = rng_.Make({"C", "D"}, 150, 4);
    AggSpec agg;
    agg.kind = AggSpec::Kind::kCount;
    agg.project = Symbol("D");
    AlgebraPtr plan = SortBy(
        {Symbol("G")},
        GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")}, std::move(agg),
                   Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                MakeAttrRef(Symbol("C"))),
                        Table(std::move(lhs)), Table(std::move(rhs)))));
    SpillStats spill = ExpectBudgetedAgrees(store_, plan, budget);
    if (budget <= 1500) {
      EXPECT_GT(spill.spill_runs, 0u);
    }
  }
}

TEST_F(SpoolOperatorTest, RandomizedPlansTimesBudgets) {
  std::mt19937 pick(99);
  for (int round = 0; round < 12; ++round) {
    uint64_t budget =
        std::uniform_int_distribution<uint64_t>(300, 20000)(pick);
    size_t rows = std::uniform_int_distribution<size_t>(50, 250)(pick);
    int domain = std::uniform_int_distribution<int>(2, 8)(pick);
    int shape = std::uniform_int_distribution<int>(0, 3)(pick);
    AlgebraPtr plan;
    switch (shape) {
      case 0: {
        Sequence rows_a = rng_.Make({"A", "B"}, rows, domain);
        plan = SortBy({Symbol("B"), Symbol("A")}, Table(std::move(rows_a)));
        break;
      }
      case 1: {
        Sequence lhs = rng_.Make({"A"}, rows, domain);
        Sequence rhs = rng_.Make({"C", "D"}, rows, domain);
        plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                            MakeAttrRef(Symbol("C"))),
                    Table(std::move(lhs)), Table(std::move(rhs)));
        break;
      }
      case 2: {
        Sequence rows_a = rng_.Make({"A", "B"}, rows, domain);
        AggSpec agg;
        agg.kind = AggSpec::Kind::kId;
        plan = GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A"), Symbol("B")},
                          std::move(agg), Table(std::move(rows_a)));
        break;
      }
      default: {
        Sequence lhs = rng_.Make({"A"}, rows / 2, domain);
        Sequence rhs = rng_.Make({"C"}, rows / 2, domain);
        plan = SemiJoin(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                MakeAttrRef(Symbol("C"))),
                        Table(std::move(lhs)), Table(std::move(rhs)));
        break;
      }
    }
    SCOPED_TRACE("round=" + std::to_string(round) +
                 " budget=" + std::to_string(budget) +
                 " shape=" + std::to_string(shape));
    ExpectBudgetedAgrees(store_, plan, budget);
  }
}

// ---------------------------------------------------------------------------
// Temp-file cleanup
// ---------------------------------------------------------------------------

/// A spool directory under the shared temp root that no other process
/// uses: concurrent test runs on one host must not delete each other's
/// files.
std::string OwnTempDir(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          (tag + "-" + std::to_string(getpid())))
      .string();
}

size_t FilesIn(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return 0;
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(SpoolCleanupTest, SuccessPathRemovesEveryTempFile) {
  std::string dir = OwnTempDir("nalq-spool-test-ok");
  std::filesystem::remove_all(dir);
  {
    xml::Store store;
    testutil::RandomRelation rng(5);
    Sequence lhs = rng.Make({"A"}, 120, 4);
    Sequence rhs = rng.Make({"C"}, 120, 4);
    AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                   MakeAttrRef(Symbol("C"))),
                           Table(std::move(lhs)), Table(std::move(rhs)));
    SpoolContext spool(1024, dir);
    Evaluator ev(store);
    ExecuteStreaming(ev, *plan, nullptr, &spool);
    EXPECT_GT(ev.stats().spill.spill_runs, 0u);  // spilling happened...
    EXPECT_TRUE(spool.dir_created());
    EXPECT_EQ(FilesIn(dir), 0u);  // ...and every file is already gone
  }
  std::filesystem::remove_all(dir);
}

TEST(SpoolCleanupTest, ThrownErrorPathRemovesEveryTempFile) {
  std::string dir = OwnTempDir("nalq-spool-test-err");
  std::filesystem::remove_all(dir);
  {
    xml::Store store;
    testutil::RandomRelation rng(6);
    Sequence lhs = rng.Make({"A", "B"}, 50, 3);
    Sequence rhs = rng.Make({"C", "D"}, 400, 3);
    // θ nest-join with two left attributes throws AFTER the build side was
    // consumed — i.e. after the spool already wrote temp files.
    AggSpec agg;
    agg.kind = AggSpec::Kind::kCount;
    agg.project = Symbol("D");
    AlgebraPtr plan = GroupBinary(
        Symbol("G"), {Symbol("A"), Symbol("B")}, CmpOp::kLt,
        {Symbol("C"), Symbol("D")}, std::move(agg), Table(std::move(lhs)),
        Table(std::move(rhs)));
    SpoolContext spool(600, dir);
    Evaluator ev(store);
    EXPECT_THROW(ExecuteStreaming(ev, *plan, nullptr, &spool),
                 std::runtime_error);
    EXPECT_TRUE(spool.dir_created());  // the build side did spill
    EXPECT_EQ(FilesIn(dir), 0u);       // unwinding removed the files
  }
  std::filesystem::remove_all(dir);
}

TEST(SpoolCleanupTest, InjectedFaultAtEverySpoolSiteLeavesNoTempFiles) {
  // Satellite of the fault-injection harness (tests/fault_injection_test
  // .cpp has the full sweep): for EVERY instrumented spool site, an
  // injected persistent fault must unwind with zero temp files left and
  // the budget accountant back at zero — with the RAII spool directory
  // removed once the context dies (auto dirs are context-owned).
  struct InjectorReset {
    ~InjectorReset() { FaultInjector::Global().Reset(); }
  };
  for (FaultSite site :
       {FaultSite::kSpoolOpenWrite, FaultSite::kSpoolWrite,
        FaultSite::kSpoolClose, FaultSite::kSpoolOpenRead,
        FaultSite::kSpoolRead}) {
    SCOPED_TRACE(FaultSiteName(site));
    InjectorReset guard;
    FaultInjector::Global().Reset();
    FaultInjector::Global().FailAlways(site, EIO);
    xml::Store store;
    testutil::RandomRelation rng(5);
    Sequence lhs = rng.Make({"A"}, 120, 4);
    Sequence rhs = rng.Make({"C"}, 120, 4);
    AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                   MakeAttrRef(Symbol("C"))),
                           Table(std::move(lhs)), Table(std::move(rhs)));
    std::string dir;
    {
      SpoolContext spool(1024);  // auto temp dir: removed by the dtor
      Evaluator ev(store);
      EXPECT_THROW(ExecuteStreaming(ev, *plan, nullptr, &spool),
                   std::runtime_error);
      EXPECT_TRUE(spool.dir_created());  // the fault fired after a spill
      EXPECT_EQ(FilesIn(spool.dir()), 0u);
      EXPECT_EQ(spool.budget().used_bytes(), 0u);
      dir = spool.dir();
    }
    EXPECT_FALSE(std::filesystem::exists(dir))
        << "RAII spool directory survived its context";
  }
}

TEST(SpoolCleanupTest, NoSpillMeansNoDirectory) {
  xml::Store store;
  testutil::RandomRelation rng(8);
  Sequence rows = rng.Make({"A"}, 20, 3);
  AlgebraPtr plan = SortBy({Symbol("A")}, Table(std::move(rows)));
  SpoolContext spool(1u << 20);  // plenty: nothing spills
  Evaluator ev(store);
  ExecuteStreaming(ev, *plan, nullptr, &spool);
  EXPECT_FALSE(spool.dir_created());
  EXPECT_FALSE(ev.stats().spill.any());
}

// ---------------------------------------------------------------------------
// Full queries: Q1–Q6 plan alternatives × executors × budgets
// ---------------------------------------------------------------------------

class SpoolQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    size_t n = 30;
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

  /// Runs every plan alternative of `query` under a tiny budget — serial
  /// streaming plus the parallel executor at 1 and 4 workers — and asserts
  /// each run is indistinguishable from Evaluator::Eval. Returns true if
  /// any alternative spilled.
  bool CheckQuery(const std::string& query) {
    constexpr uint64_t kBudget = 2 * 1024;
    bool any_spill = false;
    engine::CompiledQuery q = engine_.Compile(query);
    EXPECT_FALSE(q.alternatives.empty());
    for (const rewrite::Alternative& alt : q.alternatives) {
      SCOPED_TRACE("plan: " + alt.rule);
      BudgetedRun reference = RunOracle(engine_.store(), alt.plan);
      {
        BudgetedRun budgeted =
            RunStreaming(engine_.store(), alt.plan, kBudget);
        ExpectMatchesOracle(reference, budgeted);
        any_spill |= budgeted.stats.spill.any();
      }
      for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Evaluator ev(engine_.store());
        ParallelOptions options;
        options.threads = threads;
        SpoolContext spool(kBudget);
        Sequence result =
            ExecuteParallel(ev, *alt.plan, options, nullptr, &spool);
        EXPECT_TRUE(SeqEq(reference.result, result));
        EXPECT_EQ(reference.output, ev.output());
        EXPECT_TRUE(NonSpillStatsEq(reference.stats, ev.stats()));
        any_spill |= ev.stats().spill.any();
      }
    }
    return any_spill;
  }

  engine::Engine engine_;
};

TEST_F(SpoolQueryTest, Q1Grouping) {
  EXPECT_TRUE(CheckQuery(R"(
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
  )"));
}

TEST_F(SpoolQueryTest, Q2Aggregation) {
  EXPECT_TRUE(CheckQuery(R"(
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
  )"));
}

TEST_F(SpoolQueryTest, Q3Exists) {
  CheckQuery(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )");
}

TEST_F(SpoolQueryTest, Q4ExistsCount) {
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

TEST_F(SpoolQueryTest, Q5Universal) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )");
}

TEST_F(SpoolQueryTest, Q6Having) {
  EXPECT_TRUE(CheckQuery(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )"));
}

TEST_F(SpoolQueryTest, EngineBudgetKnobMatchesUnlimited) {
  // Q3's best plan (eqv6-semijoin) carries a real hash build side — the
  // nested use-case plans evaluate their joins inside subscripts, where no
  // cursor breaker exists to spill.
  const char kQuery[] = R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return <book-with-review>{ $t1 }</book-with-review>
  )";
  engine::RunResult unlimited =
      engine_.RunQuery(kQuery, engine::ExecMode::kStreaming);
  for (engine::ExecMode mode :
       {engine::ExecMode::kStreaming, engine::ExecMode::kParallel}) {
    engine::RunResult budgeted = engine_.RunQuery(
        kQuery, mode, engine::PathMode::kIndexed, /*threads=*/2,
        /*memory_budget_bytes=*/1024);
    EXPECT_EQ(unlimited.output, budgeted.output);
    EXPECT_TRUE(NonSpillStatsEq(unlimited.stats, budgeted.stats));
    EXPECT_GT(budgeted.stats.spill.spill_runs, 0u);
  }
}

}  // namespace
}  // namespace nalq::nal
