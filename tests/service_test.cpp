// Concurrent query service tests (src/service/query_service.h): admission
// control, overload shedding, budget partitioning, deadline/cancellation
// composition with queue time, plan-cache versioning, per-run fault
// scoping, and the mixed-workload soak the PR's acceptance criteria name.
//
// Byte-identity discipline: every expected output is computed once by a
// serial, unlimited-budget engine run before the service is exercised;
// concurrent completions must match those bytes exactly, whatever the
// grant, degradation, executor mode, or neighboring faults.
//
// Environment tolerance: the CI sanitize lane re-runs the whole suite with
// NALQ_MEMORY_BUDGET_BYTES=1 MiB and the fault lane with a standing
// transient NALQ_FAULT_SPEC (first spool open-write fails once, then the
// retry succeeds) — so these tests always pass explicit service budgets
// and program scoped injectors explicitly instead of assuming a clean
// environment.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "nal/fault_injection.h"
#include "nal/query_control.h"
#include "service/query_service.h"
#include "xquery/parser.h"

namespace nalq {
namespace {

using engine::ErrorCode;
using service::QueryOptions;
using service::QueryResult;
using service::QueryService;
using service::ServiceOptions;

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

// E1b (paper Sec. 5.1): Q1's grouping query over a DBLP-like document.
const char* kE1b = R"(
    let $d1 := doc("dblp.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author>
        <name>{ $a1 }</name>
        {
          let $d2 := doc("dblp.xml")
          for $b2 in $d2//book[$a1 = author]
          return $b2/title
        }
      </author>
  )";

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

/// Spool directories of THIS process currently under the system temp dir
/// (same probe as tests/fault_injection_test.cpp) — the soak asserts no new
/// ones survive a drain.
std::set<std::string> SpoolDirsInTemp() {
  std::set<std::string> dirs;
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) return dirs;
  std::string prefix = "nalq-spool-" + std::to_string(getpid()) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      dirs.insert(entry.path().string());
    }
  }
  return dirs;
}

/// A counter of the service's metrics registry, its one account.
uint64_t Count(QueryService& svc, const char* name) {
  return svc.metrics().GetCounter(name).value();
}

/// Every outcome a submission can end in; their sum is the submissions.
uint64_t Outcomes(QueryService& svc) {
  return Count(svc, "nalq_queries_completed_total") +
         Count(svc, "nalq_queries_failed_total") +
         Count(svc, "nalq_queries_cancelled_total") +
         Count(svc, "nalq_queries_deadline_expired_total") +
         Count(svc, "nalq_queries_shed_total");
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUpEngine(size_t n) {
    LoadDocuments(&engine_, n);
    for (const char* q : kAllQueries) {
      reference_.push_back(engine_.RunQuery(q).output);
      ASSERT_FALSE(reference_.back().empty());
    }
  }

  engine::Engine engine_;
  std::vector<std::string> reference_;  ///< serial unlimited-budget outputs
};

// Concurrent callers over one service: every completion is byte-identical
// to the serial reference and the ledger drains to zero.
TEST_F(ServiceTest, ConcurrentQueriesMatchSerialOutput) {
  SetUpEngine(25);
  ServiceOptions opt;
  opt.memory_budget_bytes = 64ull << 20;
  opt.max_concurrent = 4;
  opt.queue_depth = 64;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 6;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        size_t q = (t + i) % 6;
        QueryOptions qo;
        if (i % 2 == 1) {
          qo.mode = engine::ExecMode::kParallel;
          qo.threads = 2;
        }
        QueryResult r = svc.Execute(kAllQueries[q], qo);
        if (!r.ok || r.output != reference_[q]) ++mismatches;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  EXPECT_EQ(svc.in_flight(), 0u);
  const uint64_t submitted = Count(svc, "nalq_queries_submitted_total");
  EXPECT_EQ(submitted, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(Count(svc, "nalq_queries_completed_total"), submitted);
  // Six texts, forty-eight submissions.
  EXPECT_GT(Count(svc, "nalq_plan_cache_hits_total"), 0u);
}

// Acceptance criterion: at 4x capacity the service sheds the excess with
// kAdmissionRejected (or the caller's deadline) while every admitted query
// completes byte-identical. Capacity = max_concurrent + queue_depth = 4;
// 16 concurrent submissions is 4x. PlanChoice::kManual runs the nested
// (quadratic) plan — tens of milliseconds at this size, so the flood
// genuinely overlaps — and the paper's equivalences make its bytes
// identical to the unnested reference.
TEST_F(ServiceTest, OverloadShedsWithStructuredErrors) {
  SetUpEngine(150);
  ServiceOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  opt.max_concurrent = 2;
  opt.queue_depth = 2;
  opt.queue_deadline_ms = 30'000;  // queue never sheds by time here
  QueryService svc(engine_, opt);
  QueryOptions nested;
  nested.choice = engine::PlanChoice::kManual;  // best = the nested plan
  // Warm the plan cache so the flood below hits admission near-simultaneously
  // instead of being staggered by sixteen compiles.
  ASSERT_TRUE(svc.Execute(kQ1, nested).ok);

  constexpr int kSubmissions = 16;
  std::vector<QueryResult> results(kSubmissions);
  std::vector<std::thread> callers;
  for (int i = 0; i < kSubmissions; ++i) {
    callers.emplace_back(
        [&, i] { results[i] = svc.Execute(kQ1, nested); });
  }
  for (auto& c : callers) c.join();

  int ok = 0, rejected = 0;
  for (const QueryResult& r : results) {
    if (r.ok) {
      ++ok;
      EXPECT_EQ(r.output, reference_[0]);
    } else {
      EXPECT_TRUE(r.error_code == ErrorCode::kAdmissionRejected ||
                  r.error_code == ErrorCode::kDeadlineExceeded)
          << r.error_what;
      EXPECT_FALSE(r.error_what.empty());
      if (r.error_code == ErrorCode::kAdmissionRejected) ++rejected;
    }
  }
  // The four capacity slots always complete; with 16 simultaneous callers
  // at least one must have found both the slots and the queue taken.
  EXPECT_GE(ok, 4);
  EXPECT_GE(rejected, 1);
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  EXPECT_EQ(Outcomes(svc), Count(svc, "nalq_queries_submitted_total"));
}

// The aggregate of outstanding grants never exceeds the global budget, and
// no single grant exceeds half of it.
TEST_F(ServiceTest, AggregateReservationNeverExceedsBudget) {
  SetUpEngine(60);
  const uint64_t kBudget = 1 << 20;
  ServiceOptions opt;
  opt.memory_budget_bytes = kBudget;
  opt.max_concurrent = 4;
  opt.queue_depth = 16;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> peak_seen{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t now = svc.reserved_bytes();
      uint64_t peak = peak_seen.load(std::memory_order_relaxed);
      while (now > peak &&
             !peak_seen.compare_exchange_weak(peak, now,
                                              std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> callers;
  std::vector<QueryResult> results(8);
  for (int i = 0; i < 8; ++i) {
    callers.emplace_back([&, i] {
      results[i] = svc.Execute(kAllQueries[i % 6], QueryOptions{});
    });
  }
  for (auto& c : callers) c.join();
  done.store(true, std::memory_order_relaxed);
  sampler.join();

  EXPECT_LE(peak_seen.load(), kBudget);
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error_what;
    EXPECT_LE(r.budget_granted, kBudget / 2);
    EXPECT_GT(r.budget_granted, 0u);
  }
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  EXPECT_LE(svc.peak_reserved_bytes(), kBudget);
}

// Shrink before shed: when the ledger can't fund a full grant but can fund
// the minimum, the next admission proceeds degraded (smaller budget, one
// worker) instead of queueing — and still produces identical bytes.
TEST_F(ServiceTest, DegradedAdmissionStillCorrect) {
  SetUpEngine(60);
  // Adaptive sizing: pick the budget from the cost model's own footprint
  // so the third concurrent admission lands in [min_grant, desired).
  engine::CompiledQuery probe = engine_.Compile(kQ1);
  auto fp = static_cast<uint64_t>(probe.best_estimate.peak_breaker_bytes);
  if (fp < (128 << 10)) fp = 128 << 10;  // keep grants comfortably > min
  const uint64_t desired = 2 * fp;       // what a full grant would be
  ServiceOptions opt;
  opt.memory_budget_bytes = desired * 2 + (desired * 3) / 4;
  opt.max_concurrent = 8;  // min_grant = budget/8 < 3/4 * desired
  opt.queue_depth = 8;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);
  // Warm the cache so the concurrent submissions go straight to admission.
  ASSERT_TRUE(svc.Execute(kQ1, QueryOptions{}).ok);

  std::vector<QueryResult> results(3);
  std::vector<std::thread> callers;
  for (int i = 0; i < 3; ++i) {
    callers.emplace_back(
        [&, i] { results[i] = svc.Execute(kQ1, QueryOptions{}); });
  }
  for (auto& c : callers) c.join();

  int degraded = 0;
  for (const QueryResult& r : results) {
    ASSERT_TRUE(r.ok) << r.error_what;
    EXPECT_EQ(r.output, reference_[0]);
    if (r.degraded) {
      ++degraded;
      EXPECT_EQ(r.threads_granted, 1u);
      EXPECT_LT(r.budget_granted, desired);
    }
  }
  EXPECT_EQ(Count(svc, "nalq_queries_degraded_total"),
            static_cast<uint64_t>(degraded));
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
}

// Admission sizes the grant from the estimate of the plan that runs. On
// DBLP, rule priority (Eqv. 4's outer join) and the cost model (the
// nest-join) pick different plans with different breaker footprints; a
// kRulePriority submission must be granted from its own plan's estimate,
// not the cost winner's.
TEST_F(ServiceTest, RulePriorityGrantUsesItsOwnPlanEstimate) {
  datagen::DblpOptions dblp;
  dblp.publications = 2000;
  engine_.AddDocument("dblp.xml", datagen::GenerateDblp(dblp));
  engine_.RegisterDtd("dblp.xml", datagen::kDblpDtd);
  const uint64_t kBudget = 4 << 20;
  const engine::CompiledQuery prio =
      engine_.Compile(kE1b, engine::PlanChoice::kRulePriority, kBudget);
  const engine::CompiledQuery cost =
      engine_.Compile(kE1b, engine::PlanChoice::kCost, kBudget);
  // The premise: the two policies disagree on the plan and its footprint.
  ASSERT_NE(prio.best.rule, cost.best.rule);
  ASSERT_NE(prio.best_estimate.peak_breaker_bytes,
            cost.best_estimate.peak_breaker_bytes);

  ServiceOptions opt;
  opt.memory_budget_bytes = kBudget;
  opt.max_concurrent = 4;
  QueryService svc(engine_, opt);
  QueryOptions qo;
  qo.choice = engine::PlanChoice::kRulePriority;
  QueryResult r = svc.Execute(kE1b, qo);
  ASSERT_TRUE(r.ok) << r.error_what;
  EXPECT_EQ(r.output, engine_.RunQuery(kE1b).output);
  EXPECT_FALSE(r.degraded);  // an idle ledger grants in full
  const uint64_t min_grant =
      std::min<uint64_t>(64 << 10, kBudget / opt.max_concurrent);
  const uint64_t footprint =
      static_cast<uint64_t>(prio.best_estimate.peak_breaker_bytes);
  EXPECT_EQ(r.budget_granted,
            std::clamp<uint64_t>(2 * footprint, min_grant,
                                 std::max(kBudget / 2, min_grant)));
}

// One deadline budget covers queue wait plus run: a query whose deadline
// expires while it waits behind a long-running neighbor fails with
// kDeadlineExceeded without ever executing.
TEST_F(ServiceTest, DeadlineCoversQueueTime) {
  SetUpEngine(300);
  ServiceOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  opt.max_concurrent = 1;
  opt.queue_depth = 4;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);
  // The holder runs the nested (quadratic) plan — >100 ms at this size —
  // so the slot stays taken while the waiter's deadline burns down. Warm
  // its cache entry so the holder's admission is immediate.
  QueryOptions nested;
  nested.choice = engine::PlanChoice::kManual;
  ASSERT_TRUE(svc.Execute(kQ1, nested).ok);

  std::thread holder([&] {
    QueryResult r = svc.Execute(kQ1, nested);
    EXPECT_TRUE(r.ok) << r.error_what;
    EXPECT_EQ(r.output, reference_[0]);
  });
  // Give the holder the slot, then submit with a deadline far shorter than
  // the holder's runtime.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  QueryOptions qo;
  qo.deadline_ms = 1;
  QueryResult r = svc.Execute(kQ1, qo);
  holder.join();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, ErrorCode::kDeadlineExceeded) << r.error_what;
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
}

// The deadline is armed once, at submission, on the query's token: the
// run does not re-arm it when the query leaves the queue, so the queue
// wait is not refunded.
TEST_F(ServiceTest, DeadlineIsArmedOnceAtSubmission) {
  SetUpEngine(300);
  ServiceOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  opt.max_concurrent = 1;
  opt.queue_depth = 4;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);
  QueryOptions nested;
  nested.choice = engine::PlanChoice::kManual;
  ASSERT_TRUE(svc.Execute(kQ1, nested).ok);
  ASSERT_TRUE(svc.Execute(kQ3).ok);  // warm the waiter's cache entry too

  std::atomic<bool> holder_done{false};
  std::thread holder([&] {
    EXPECT_TRUE(svc.Execute(kQ1, nested).ok);
    holder_done = true;
  });
  while (svc.in_flight() == 0 && !holder_done) std::this_thread::yield();
  nal::QueryControl control;
  QueryOptions qo;
  qo.control = &control;
  qo.deadline_ms = 60'000;
  const auto before = nal::QueryControl::Clock::now();
  QueryResult r = svc.Execute(kQ3, qo);
  holder.join();
  ASSERT_TRUE(r.ok) << r.error_what;
  EXPECT_EQ(r.output, reference_[2]);
  ASSERT_TRUE(r.queued);
  ASSERT_TRUE(control.has_deadline());
  // Re-armed at run start, the deadline would lie a whole queue wait
  // later than submission + deadline_ms.
  const auto queue_wait =
      std::chrono::duration_cast<nal::QueryControl::Clock::duration>(
          std::chrono::duration<double>(r.queue_seconds));
  EXPECT_LT(control.deadline(),
            before + std::chrono::milliseconds(qo.deadline_ms) + queue_wait);
}

// RequestCancel reaches a query that is still queued for admission.
TEST_F(ServiceTest, CancelWhileQueued) {
  SetUpEngine(300);
  ServiceOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  opt.max_concurrent = 1;
  opt.queue_depth = 4;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);
  QueryOptions nested;
  nested.choice = engine::PlanChoice::kManual;  // slow holder, same bytes
  ASSERT_TRUE(svc.Execute(kQ1, nested).ok);

  std::thread holder([&] {
    QueryResult r = svc.Execute(kQ1, nested);
    EXPECT_TRUE(r.ok) << r.error_what;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  nal::QueryControl control;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    control.RequestCancel();
  });
  QueryOptions qo;
  qo.control = &control;
  QueryResult r = svc.Execute(kQ1, qo);
  canceller.join();
  holder.join();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, ErrorCode::kCancelled) << r.error_what;
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
}

// Plan-cache versioning: hits while the store is unchanged, self-invalidates
// on AddDocument and RegisterDtd (both bump Store::version()), and the
// recompiled plan reflects the new documents.
TEST_F(ServiceTest, PlanCacheInvalidatesOnStoreVersion) {
  SetUpEngine(25);
  ServiceOptions opt;
  opt.memory_budget_bytes = 64ull << 20;
  QueryService svc(engine_, opt);

  QueryResult r1 = svc.Execute(kQ1, QueryOptions{});
  ASSERT_TRUE(r1.ok);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.output, reference_[0]);
  QueryResult r2 = svc.Execute(kQ1, QueryOptions{});
  ASSERT_TRUE(r2.ok);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.output, reference_[0]);

  // Reload bib.xml with different contents (store writes require
  // quiescence — Drain() is that point).
  svc.Drain();
  uint64_t version_before = engine_.store().version();
  datagen::BibOptions bib;
  bib.books = 40;
  bib.authors_per_book = 2;
  engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
  EXPECT_GT(engine_.store().version(), version_before);
  std::string fresh_reference = engine_.RunQuery(kQ1).output;

  QueryResult r3 = svc.Execute(kQ1, QueryOptions{});
  ASSERT_TRUE(r3.ok);
  EXPECT_FALSE(r3.cache_hit);  // version mismatch forced a recompile
  EXPECT_EQ(r3.output, fresh_reference);
  EXPECT_NE(r3.output, reference_[0]);

  // DTD registration also invalidates (DTDs feed translation).
  svc.Drain();
  version_before = engine_.store().version();
  engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
  EXPECT_GT(engine_.store().version(), version_before);
  QueryResult r4 = svc.Execute(kQ1, QueryOptions{});
  ASSERT_TRUE(r4.ok);
  EXPECT_FALSE(r4.cache_hit);
}

// Parse errors come back as structured results, not exceptions.
TEST_F(ServiceTest, MalformedQueryReturnsStructuredError) {
  SetUpEngine(25);
  QueryService svc(engine_, ServiceOptions{});
  QueryResult r = svc.Execute("for $x in ((( nonsense", QueryOptions{});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error_what.empty());
}

// Query text naming a missing document or an unknown function, or calling
// a built-in with one argument too few, fails with kPlanError and its
// raising site on every executor, through the engine and through the
// service; the service counts it as failed, and no spool directory is left
// behind.
TEST_F(ServiceTest, MissingDocumentAndBadFunctionCallsFailClosed) {
  SetUpEngine(25);
  std::set<std::string> dirs_before = SpoolDirsInTemp();
  ServiceOptions opt;
  opt.memory_budget_bytes = 1 << 20;
  QueryService svc(engine_, opt);
  std::vector<std::pair<std::string, const char*>> cases = {
      {R"(for $b in doc("nope.xml")//book return <b>{ $b/title }</b>)",
       "eval.doc"},
      {R"(for $b in doc("bib.xml")//book return <b>{ frobnicate($b) }</b>)",
       "eval.fn"},
  };
  for (const char* call :
       {"doc()", "document()", "count()", "min()", "max()", "sum()", "avg()",
        "decimal()", "number()", "contains($b/title)",
        "starts-with($b/title)", "empty()", "exists()", "not()", "string()",
        "string-length()", "distinct-values()"}) {
    cases.emplace_back(
        std::string(R"(for $b in doc("bib.xml")//book return <b>{ )") + call +
            " }</b>",
        "eval.fn");
  }
  uint64_t failed = 0;
  for (const auto& [text, context] : cases) {
    for (engine::ExecMode mode :
         {engine::ExecMode::kMaterializing, engine::ExecMode::kStreaming,
          engine::ExecMode::kParallel}) {
      try {
        engine_.RunQuery(text, mode, engine::PathMode::kIndexed, 2);
        ADD_FAILURE() << text << " ran";
      } catch (const engine::Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kPlanError) << e.what();
        EXPECT_NE(std::string(e.what()).find(context), std::string::npos)
            << e.what();
      }
      QueryOptions qo;
      qo.mode = mode;
      qo.threads = 2;
      QueryResult r = svc.Execute(text, qo);
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error_code, ErrorCode::kPlanError) << r.error_what;
      EXPECT_NE(r.error_what.find(context), std::string::npos)
          << r.error_what;
      ++failed;
    }
  }
  svc.Drain();
  EXPECT_EQ(Count(svc, "nalq_queries_failed_total"), failed);
  EXPECT_EQ(Outcomes(svc), failed);
  EXPECT_EQ(SpoolDirsInTemp(), dirs_before);
}

// Query text nested past the parser's bound (xquery::kMaxQueryNesting)
// fails with kPlanError instead of overflowing the stack; at the bound the
// whole pipeline runs it.
TEST_F(ServiceTest, DeeplyNestedQueryTextFailsClosed) {
  SetUpEngine(25);
  QueryService svc(engine_, ServiceOptions{});
  // The query, the return clause, the constructor and its enclosed
  // expression are four levels; each string() call adds one.
  auto nested_calls = [](int calls) {
    std::string arg = "$b/title";
    for (int i = 0; i < calls; ++i) arg = "string(" + arg + ")";
    return R"(for $b in doc("bib.xml")//book return <b>{ )" + arg + " }</b>";
  };
  QueryResult at_bound =
      svc.Execute(nested_calls(xquery::kMaxQueryNesting - 4));
  ASSERT_TRUE(at_bound.ok) << at_bound.error_what;
  EXPECT_EQ(at_bound.output, svc.Execute(nested_calls(1)).output);
  QueryResult past = svc.Execute(nested_calls(xquery::kMaxQueryNesting - 3));
  EXPECT_FALSE(past.ok);
  EXPECT_EQ(past.error_code, ErrorCode::kPlanError) << past.error_what;
  for (int levels : {xquery::kMaxQueryNesting + 1, 100'000}) {
    const std::string parens =
        std::string(levels - 1, '(') + "1" + std::string(levels - 1, ')');
    QueryResult r = svc.Execute(parens);
    EXPECT_FALSE(r.ok) << levels;
    EXPECT_EQ(r.error_code, ErrorCode::kPlanError) << r.error_what;
    EXPECT_NE(r.error_what.find("nested deeper"), std::string::npos)
        << r.error_what;
  }
}

// Satellite: a ScopedFaultInjector faults exactly one query's spool sites.
// The faulted query fails with a structured kSpoolIo; a concurrent
// neighbor on another thread — same service, same spilling pressure —
// completes byte-identical, and no temp files survive.
TEST_F(ServiceTest, ScopedFaultHitsOnlyItsOwnQuery) {
  SetUpEngine(150);
  std::set<std::string> dirs_before = SpoolDirsInTemp();
  ServiceOptions opt;
  // Grants bottom out at budget/max_concurrent = 8 KiB — far below Q2's
  // breaker state at this size, so both queries must spill (calibrated:
  // Q2 at n=150 spills from 16 KiB down).
  opt.memory_budget_bytes = 16 << 10;
  opt.max_concurrent = 2;
  opt.queue_depth = 8;
  opt.queue_deadline_ms = 60'000;
  QueryService svc(engine_, opt);
  ASSERT_TRUE(svc.Execute(kQ2, QueryOptions{}).ok);

  for (int round = 0; round < 3; ++round) {
    QueryResult faulted, neighbor;
    std::thread victim([&] {
      nal::ScopedFaultInjector scoped;
      scoped.injector().FailAlways(nal::FaultSite::kSpoolWrite, ENOSPC);
      faulted = svc.Execute(kQ2, QueryOptions{});
    });
    std::thread bystander([&] { neighbor = svc.Execute(kQ2, QueryOptions{}); });
    victim.join();
    bystander.join();
    ASSERT_FALSE(faulted.ok);
    EXPECT_EQ(faulted.error_code, ErrorCode::kSpoolIo) << faulted.error_what;
    EXPECT_FALSE(faulted.error_what.empty());
    ASSERT_TRUE(neighbor.ok) << neighbor.error_what;
    EXPECT_EQ(neighbor.output, reference_[1]);
  }
  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  EXPECT_EQ(SpoolDirsInTemp(), dirs_before);
}

// Satellite: the TSan/ASan soak. Eight threads, mixed Q1-Q6, randomized
// budgets (via mode mix), deadlines, mid-run cancels and scoped spool
// faults. Every completion is byte-identical to serial; every failure
// carries a structured code; the drain point has zero reserved bytes and
// zero surviving temp files.
TEST_F(ServiceTest, MixedWorkloadSoak) {
  SetUpEngine(150);
  std::set<std::string> dirs_before = SpoolDirsInTemp();
  ServiceOptions opt;
  // Grants land in [8 KiB, 16 KiB]: Q2/Q3/Q6 spill at this size (so the
  // injected spool faults actually reach their sites) while Q1/Q4/Q5 stay
  // resident — a genuinely mixed workload.
  opt.memory_budget_bytes = 32 << 10;
  opt.max_concurrent = 4;
  opt.queue_depth = 8;
  opt.queue_deadline_ms = 10'000;
  QueryService svc(engine_, opt);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 12;
  std::atomic<int> bad_outputs{0};
  std::atomic<int> bad_errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(1234 + t);  // deterministic per thread
      for (int i = 0; i < kItersPerThread; ++i) {
        size_t q = rng() % 6;
        QueryOptions qo;
        if (rng() % 3 == 0) {
          qo.mode = engine::ExecMode::kParallel;
          qo.threads = 1 + rng() % 3;
        }
        // Occasionally run the nested (quadratic) plan: slow runs keep the
        // service genuinely concurrent, so cancels and deadlines land
        // mid-run, not just mid-queue. Same bytes by the paper's
        // equivalences.
        if (rng() % 6 == 0) qo.choice = engine::PlanChoice::kManual;
        bool with_deadline = rng() % 5 == 0;
        if (with_deadline) qo.deadline_ms = 1 + rng() % 20;
        bool with_cancel = rng() % 5 == 1;
        nal::QueryControl control;
        std::thread canceller;
        if (with_cancel) {
          qo.control = &control;
          canceller = std::thread([&control, delay = rng() % 8] {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
            control.RequestCancel();
          });
        }
        bool with_fault = rng() % 4 == 0;
        QueryResult r;
        if (with_fault) {
          nal::ScopedFaultInjector scoped;
          scoped.injector().FailNth(nal::FaultSite::kSpoolWrite,
                                    1 + rng() % 50, ENOSPC,
                                    /*every=*/rng() % 2 == 0);
          r = svc.Execute(kAllQueries[q], qo);
        } else {
          r = svc.Execute(kAllQueries[q], qo);
        }
        if (canceller.joinable()) canceller.join();
        if (r.ok) {
          if (r.output != reference_[q]) ++bad_outputs;
        } else {
          bool structured = r.error_code == ErrorCode::kSpoolIo ||
                            r.error_code == ErrorCode::kCancelled ||
                            r.error_code == ErrorCode::kDeadlineExceeded ||
                            r.error_code == ErrorCode::kAdmissionRejected ||
                            r.error_code == ErrorCode::kBudgetExhausted;
          if (!structured || r.error_what.empty()) ++bad_errors;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad_outputs.load(), 0);
  EXPECT_EQ(bad_errors.load(), 0);

  svc.Drain();
  EXPECT_EQ(svc.reserved_bytes(), 0u);
  EXPECT_EQ(svc.in_flight(), 0u);
  EXPECT_EQ(SpoolDirsInTemp(), dirs_before);
  const uint64_t submitted = Count(svc, "nalq_queries_submitted_total");
  EXPECT_EQ(submitted, static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_EQ(Outcomes(svc), submitted);
  EXPECT_GT(Count(svc, "nalq_queries_completed_total"), 0u);
}

// ServiceOptions fields left at 0 resolve to their documented defaults;
// explicit values win.
TEST(ServiceOptionsTest, ZeroFieldsResolveToDefaults) {
  engine::Engine engine;
  ServiceOptions zeros;
  zeros.memory_budget_bytes = 1 << 20;  // explicit: independent of the env
  QueryService svc(engine, zeros);
  EXPECT_EQ(svc.options().max_concurrent,
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(svc.options().queue_depth, 16u);
  EXPECT_EQ(svc.options().queue_deadline_ms, 1000u);
  EXPECT_EQ(svc.options().slow_query_ms, 0u);
  EXPECT_TRUE(svc.options().trace_dir.empty());

  ServiceOptions explicit_opt;
  explicit_opt.memory_budget_bytes = 1 << 20;
  explicit_opt.max_concurrent = 2;
  explicit_opt.queue_depth = 3;
  explicit_opt.queue_deadline_ms = 250;
  QueryService svc2(engine, explicit_opt);
  EXPECT_EQ(svc2.options().memory_budget_bytes, 1u << 20);
  EXPECT_EQ(svc2.options().max_concurrent, 2u);
  EXPECT_EQ(svc2.options().queue_depth, 3u);
  EXPECT_EQ(svc2.options().queue_deadline_ms, 250u);
}

}  // namespace
}  // namespace nalq
