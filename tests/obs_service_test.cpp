// Service-level observability tests: the metrics registry the QueryService
// publishes (Prometheus text + JSON under concurrent Execute load), the
// per-query profile surfaced on QueryResult, the slow-query log, and the
// per-query Chrome trace files. Complements tests/service_test.cpp (which
// owns admission/overload behavior) and tests/obs_metrics_test.cpp (which
// owns the registry's own semantics).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "service/query_service.h"

namespace nalq {
namespace {

namespace fs = std::filesystem;

const char* kGroupingQuery = R"(
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

void LoadBib(engine::Engine* engine, size_t books) {
  datagen::BibOptions bib;
  bib.books = books;
  bib.authors_per_book = 3;
  engine->AddDocument("bib.xml", datagen::GenerateBib(bib));
  engine->RegisterDtd("bib.xml", datagen::kBibDtd);
}

fs::path FreshTempDir(const char* tag) {
  fs::path dir = fs::temp_directory_path() /
                 (std::string("nalq-obs-svc-") + tag + "-" +
                  std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

uint64_t CounterValue(const std::string& text, const std::string& name) {
  // Parses `name <value>` out of a Prometheus exposition.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  return UINT64_MAX;  // absent
}

TEST(ObsServiceTest, ProfileOnRequestOnly) {
  engine::Engine engine;
  LoadBib(&engine, 20);
  service::QueryService svc(engine);

  service::QueryResult off = svc.Execute(kGroupingQuery);
  ASSERT_TRUE(off.ok) << off.error_what;
  EXPECT_TRUE(off.profile_json.empty());

  service::QueryOptions q;
  q.profile = true;
  service::QueryResult on = svc.Execute(kGroupingQuery, q);
  ASSERT_TRUE(on.ok) << on.error_what;
  EXPECT_EQ(on.output, off.output);  // observation, not behavior
  EXPECT_NE(on.profile_json.find("\"total_rows\":"), std::string::npos)
      << on.profile_json;
  EXPECT_NE(on.profile_json.find("\"rows\":"), std::string::npos);
}

TEST(ObsServiceTest, MetricsUnderConcurrentLoad) {
  engine::Engine engine;
  LoadBib(&engine, 15);
  service::QueryService svc(engine);

  // Warm the plan cache first: concurrent cold misses may compile twice
  // (by design — see CompileCached), which would make the miss count racy.
  ASSERT_TRUE(svc.Execute(kGroupingQuery).ok);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kPerThread + 1;  // + the warm-up
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, &ok_count] {
      for (int i = 0; i < kPerThread; ++i) {
        service::QueryResult r = svc.Execute(kGroupingQuery);
        if (r.ok) ok_count.fetch_add(1);
        // Exposition must be safe concurrent with Execute on other threads.
        (void)svc.MetricsText();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(ok_count.load(), kThreads * kPerThread);

  const std::string text = svc.MetricsText();
  EXPECT_EQ(CounterValue(text, "nalq_queries_submitted_total"), kTotal)
      << text;
  EXPECT_EQ(CounterValue(text, "nalq_queries_completed_total"), kTotal);
  EXPECT_EQ(CounterValue(text, "nalq_queries_failed_total"), 0u);
  // The warm-up compile missed; every later submission hits the cache.
  EXPECT_EQ(CounterValue(text, "nalq_plan_cache_misses_total"), 1u);
  EXPECT_EQ(CounterValue(text, "nalq_plan_cache_hits_total"), kTotal - 1);
  // Latency histograms observed once per query.
  EXPECT_EQ(CounterValue(text, "nalq_query_seconds_count"), kTotal);
  EXPECT_EQ(CounterValue(text, "nalq_run_seconds_count"), kTotal);
  EXPECT_NE(text.find("nalq_query_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_EQ(CounterValue(text, "nalq_queries_admitted_total"), kTotal);

  const std::string json = svc.MetricsJson();
  EXPECT_NE(json.find("\"counters\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nalq_query_seconds\":{\"count\":"),
            std::string::npos)
      << json;
}

TEST(ObsServiceTest, SlowQueryLogCapturesProfile) {
  engine::Engine engine;
  LoadBib(&engine, 150);
  fs::path dir = FreshTempDir("slowlog");
  service::ServiceOptions opts;
  opts.slow_query_ms = 1;
  opts.slow_query_log_path = (dir / "slow.jsonl").string();
  service::QueryService svc(engine, opts);

  // The nested (kManual) plan is quadratic in the book count — at 150
  // books it reliably clears the 1 ms threshold on any hardware.
  service::QueryOptions q;
  q.choice = engine::PlanChoice::kManual;
  // Arming slow_query_ms implies profiling even when the caller didn't ask.
  service::QueryResult r = svc.Execute(kGroupingQuery, q);
  ASSERT_TRUE(r.ok) << r.error_what;
  EXPECT_FALSE(r.profile_json.empty());

  std::ifstream in(opts.slow_query_log_path);
  ASSERT_TRUE(in.good()) << opts.slow_query_log_path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"query\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(line.find("\"profile\":{"), std::string::npos)
      << "slow-query entries must embed the full profile: " << line;
  fs::remove_all(dir);
}

TEST(ObsServiceTest, SlowQueryLogStaysQuietUnderThreshold) {
  engine::Engine engine;
  LoadBib(&engine, 5);
  fs::path dir = FreshTempDir("quiet");
  service::ServiceOptions opts;
  opts.slow_query_ms = 60000;  // nothing here takes a minute
  opts.slow_query_log_path = (dir / "slow.jsonl").string();
  service::QueryService svc(engine, opts);
  ASSERT_TRUE(svc.Execute(kGroupingQuery).ok);
  std::ifstream in(opts.slow_query_log_path);
  std::string line;
  EXPECT_FALSE(std::getline(in, line)) << line;
  fs::remove_all(dir);
}

TEST(ObsServiceTest, TraceDirWritesPerQueryFiles) {
  engine::Engine engine;
  LoadBib(&engine, 10);
  fs::path dir = FreshTempDir("trace");
  service::ServiceOptions opts;
  opts.trace_dir = dir.string();
  service::QueryService svc(engine, opts);

  service::QueryOptions q;
  q.mode = engine::ExecMode::kParallel;
  q.threads = 2;
  ASSERT_TRUE(svc.Execute(kGroupingQuery, q).ok);
  ASSERT_TRUE(svc.Execute(kGroupingQuery, q).ok);

  int traces = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos)
        << entry.path();
    // The lifecycle spans: compile -> admit -> execute.
    EXPECT_NE(text.find("\"name\":\"compile\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"admit\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"execute\""), std::string::npos);
    ++traces;
  }
  EXPECT_EQ(traces, 2) << "one trace file per query in " << dir;
  fs::remove_all(dir);
}

TEST(ObsServiceTest, TraceDirMustExist) {
  engine::Engine engine;
  LoadBib(&engine, 3);
  service::ServiceOptions opts;
  opts.trace_dir = "/nonexistent/nalq-no-such-dir";
  try {
    service::QueryService svc(engine, opts);
    FAIL() << "non-directory trace_dir must throw at construction";
  } catch (const engine::Error& e) {
    EXPECT_EQ(e.code(), engine::ErrorCode::kPlanError);
    EXPECT_NE(std::string(e.what()).find("trace_dir"), std::string::npos)
        << e.what();
  }
}

TEST(ObsServiceTest, FailureCountersTagTheOutcome) {
  engine::Engine engine;
  LoadBib(&engine, 10);
  service::QueryService svc(engine);
  nal::QueryControl control;
  control.RequestCancel();  // cancelled before it ever runs
  service::QueryOptions q;
  q.control = &control;
  service::QueryResult r = svc.Execute(kGroupingQuery, q);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, engine::ErrorCode::kCancelled);
  const std::string text = svc.MetricsText();
  EXPECT_EQ(CounterValue(text, "nalq_queries_cancelled_total"), 1u) << text;
  EXPECT_EQ(CounterValue(text, "nalq_queries_completed_total"), 0u);
}

}  // namespace
}  // namespace nalq
