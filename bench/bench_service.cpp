// Experiment E8 — the concurrent query service under sustained load
// (src/service/query_service.h).
//
// An open-loop arrival process offers a mixed Q1-Q6 workload at a fixed
// rate, first at roughly the service's capacity and then at ~4x capacity
// (the overload point the robustness tests assert). Because arrivals do
// not wait for completions, overload pressure is real: the admission
// queue fills, the queue deadline sheds, and new admissions degrade —
// exactly the ladder src/service/README.md documents. Each phase emits one
// mode="service" BenchRecord with throughput (qps), end-to-end latency
// percentiles (queue + run, p50/p99) and the admission outcomes its clients
// saw, so BENCH_results.json carries the overload behavior next to the
// single-query timings.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datagen/datagen.h"
#include "service/query_service.h"

namespace {

using Clock = std::chrono::steady_clock;

const char* kQueries[] = {
    R"(
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
  )",
    R"(
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
  )",
    R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )",
    R"(
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
  )",
    R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )",
    R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )",
};

/// Outcomes tallied from the QueryResults the phase's clients received.
struct Tally {
  uint64_t completed = 0;
  uint64_t rejected = 0;  ///< shed at submission: the queue was full
  uint64_t shed = 0;      ///< every kAdmissionRejected (full or timed out)
  uint64_t degraded = 0;

  void Add(const nalq::service::QueryResult& r) {
    completed += r.ok ? 1 : 0;
    degraded += r.degraded ? 1 : 0;
    if (!r.ok &&
        r.error_code == nalq::engine::ErrorCode::kAdmissionRejected) {
      ++shed;
      rejected += r.queued ? 0 : 1;
    }
  }
  void Add(const Tally& t) {
    completed += t.completed;
    rejected += t.rejected;
    shed += t.shed;
    degraded += t.degraded;
  }
};

struct PhaseResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  Tally tally;
  uint64_t offered = 0;  ///< every offered slot submits once
};

/// Runs one open-loop phase: `clients` threads drain a global arrival
/// schedule of `offered` submissions spaced `interval` apart; a client
/// whose turn has not arrived yet sleeps until it has, so the offered rate
/// is independent of completion times (an overloaded service falls behind
/// and sheds instead of slowing the generator down).
PhaseResult RunPhase(nalq::service::QueryService& svc, unsigned clients,
                     uint64_t offered, std::chrono::microseconds interval) {
  using nalq::service::QueryOptions;
  using nalq::service::QueryResult;
  const auto t0 = Clock::now();
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  std::vector<double> latencies_ms;
  std::vector<std::thread> workers;
  PhaseResult out;
  for (unsigned c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      std::vector<double> local;
      Tally tally;
      while (true) {
        uint64_t slot = next.fetch_add(1);
        if (slot >= offered) break;
        std::this_thread::sleep_until(t0 + slot * interval);
        const auto submit = Clock::now();
        QueryResult r = svc.Execute(kQueries[slot % 6], QueryOptions{});
        tally.Add(r);
        if (r.ok) {
          local.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - submit)
                              .count());
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      out.tally.Add(tally);
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  out.offered = offered;
  out.qps = latencies_ms.size() / elapsed;
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    out.p50_ms = latencies_ms[latencies_ms.size() / 2];
    out.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  }
  return out;
}

void Record(const char* phase, const PhaseResult& p, uint64_t budget,
            unsigned clients) {
  nalq::bench::BenchRecord r;
  r.bench = "E8";
  r.plan = phase;
  r.size = std::to_string(p.offered);
  r.mode = "service";
  r.path = "indexed";
  r.threads = clients;
  r.budget = budget;
  r.seconds = p.p50_ms / 1000.0;
  r.qps = p.qps;
  r.p50_ms = p.p50_ms;
  r.p99_ms = p.p99_ms;
  r.svc_submitted = static_cast<int64_t>(p.offered);
  r.svc_completed = static_cast<int64_t>(p.tally.completed);
  r.svc_rejected = static_cast<int64_t>(p.tally.rejected);
  r.svc_shed = static_cast<int64_t>(p.tally.shed);
  r.svc_degraded = static_cast<int64_t>(p.tally.degraded);
  nalq::bench::RecordBench(std::move(r));
}

}  // namespace

int main() {
  using namespace nalq;
  engine::Engine engine;
  bench::LoadBib(&engine, 60, 3);
  engine.AddDocument("reviews.xml", datagen::GenerateReviews(60));
  engine.RegisterDtd("reviews.xml", datagen::kReviewsDtd);
  engine.AddDocument("prices.xml", datagen::GeneratePrices(60));
  engine.RegisterDtd("prices.xml", datagen::kPricesDtd);
  datagen::AuctionOptions auction;
  auction.bids = 90;
  engine.AddDocument("bids.xml", datagen::GenerateBids(auction));
  engine.RegisterDtd("bids.xml", datagen::kBidsDtd);

  const uint64_t kBudget = 1 << 20;
  service::ServiceOptions opt;
  opt.memory_budget_bytes = kBudget;
  opt.max_concurrent = 4;
  opt.queue_depth = 8;
  opt.queue_deadline_ms = 50;
  service::QueryService svc(engine, opt);

  // Calibrate: mean serial latency under the service's per-query grants
  // sets the capacity-rate arrival interval.
  const auto cal0 = Clock::now();
  constexpr int kCalibration = 12;
  for (int i = 0; i < kCalibration; ++i) {
    service::QueryResult r =
        svc.Execute(kQueries[i % 6], service::QueryOptions{});
    if (!r.ok) {
      std::fprintf(stderr, "calibration query failed: %s\n",
                   r.error_what.c_str());
      return 1;
    }
  }
  const double mean_s =
      std::chrono::duration<double>(Clock::now() - cal0).count() /
      kCalibration;
  // Offered rate ~= capacity: max_concurrent queries in flight, each
  // taking mean_s. The overload phase offers 4x that.
  const auto capacity_interval = std::chrono::microseconds(
      std::max<int64_t>(1, static_cast<int64_t>(mean_s * 1e6 /
                                                opt.max_concurrent)));
  const auto overload_interval = capacity_interval / 4;
  const uint64_t kOffered = 200;

  std::printf(
      "E8: concurrent query service, mixed Q1-Q6 open-loop workload\n"
      "budget %llu bytes, %u slots, queue depth %u, queue deadline %llu ms\n"
      "calibrated mean serial latency: %.2f ms\n",
      static_cast<unsigned long long>(kBudget), opt.max_concurrent,
      opt.queue_depth,
      static_cast<unsigned long long>(opt.queue_deadline_ms),
      mean_s * 1e3);

  PhaseResult at_capacity = RunPhase(svc, 8, kOffered, capacity_interval);
  Record("at-capacity", at_capacity, kBudget, 8);
  PhaseResult overload = RunPhase(svc, 16, kOffered, overload_interval);
  Record("overload-4x", overload, kBudget, 16);
  svc.Drain();

  auto print_phase = [](const char* name, const PhaseResult& p) {
    std::printf(
        "%-12s offered %llu  qps %.1f  p50 %.2f ms  p99 %.2f ms  "
        "completed %llu  rejected %llu  shed %llu  degraded %llu\n",
        name, static_cast<unsigned long long>(p.offered), p.qps, p.p50_ms,
        p.p99_ms, static_cast<unsigned long long>(p.tally.completed),
        static_cast<unsigned long long>(p.tally.rejected),
        static_cast<unsigned long long>(p.tally.shed),
        static_cast<unsigned long long>(p.tally.degraded));
  };
  print_phase("at-capacity", at_capacity);
  print_phase("overload-4x", overload);

  // The smoke contract: both phases completed work, and the overload phase
  // saw real admission pressure (sheds) without losing correctness.
  if (at_capacity.tally.completed == 0 || overload.tally.completed == 0) {
    std::fprintf(stderr, "a phase completed no queries\n");
    return 1;
  }

  // Metrics round-trip: the exposition must count exactly the completions
  // the clients saw (calibration included) after the full workload (CI
  // greps this file; see .github/workflows/ci.yml bench-smoke).
  {
    const std::string text = svc.MetricsText();
    const std::string expect =
        "nalq_queries_completed_total " +
        std::to_string(kCalibration + at_capacity.tally.completed +
                       overload.tally.completed);
    if (text.find(expect) == std::string::npos ||
        text.find("nalq_query_seconds_bucket{le=\"+Inf\"}") ==
            std::string::npos ||
        svc.MetricsJson().find("\"nalq_query_seconds\":{\"count\":") ==
            std::string::npos) {
      std::fprintf(stderr,
                   "metrics exposition disagrees with the clients:\n%s\n",
                   text.c_str());
      return 1;
    }
    std::ofstream("nalq_metrics.prom") << text;
  }
  bench::WriteBenchResults();
  return 0;
}
