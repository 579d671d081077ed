#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "opt/chooser.h"
#include "rewrite/unnester.h"
#include "service/query_service.h"
#include "shapes.h"
#include "storage/persistent_store.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using nalq::engine::Engine;
using nalq::engine::ExecMode;
using nalq::engine::PathMode;
using nalq::engine::PlanChoice;
using nalq::service::QueryOptions;
using nalq::service::QueryResult;
using nalq::service::QueryService;
using nalq::service::ServiceOptions;

// Sizes (README.md, "Workloads"). The shared corpus: bib, reviews, prices
// and bids at kElements each, DBLP at kDblpPublications, and the small
// bib-shaped catalog the nested N-shapes run over.
constexpr size_t kElements = 10000;
constexpr size_t kDblpPublications = 50000;
constexpr size_t kCatalogBooks = 300;
// adhoc-tenants: kTenants tenants x {bib, reviews, prices, bids} at
// kTenantElements each. All resident they take about 17 MB; the store
// cache holds an eighth of that, so cold tenants page in.
constexpr int kTenants = 64;
constexpr size_t kTenantElements = 100;
constexpr uint64_t kTenantCacheBytes = 2u << 20;
// service-spill: a 4 MiB global budget caps every grant at 2 MiB, so a
// grant always fits and no request queues or degrades.
constexpr uint64_t kServiceBudget = 4u << 20;
constexpr unsigned kParallelWorkers = 2;
// Set-up runs this many times per run; setup_s is their median.
constexpr int kSetups = 5;
// peak_rss_mb is read once the client has sent this many requests (or at
// the end of the window, if sooner). Every new query text grows the process
// a little (adhoc-tenants: about 0.6 KB a request), so reading it at the
// end would charge a faster engine for sending more requests.
constexpr int64_t kRssRequests = 10000;

enum class Kind { kAnalyticMix, kServiceSpill, kAdhocTenants };

Kind KindOf(const std::string& name) {
  if (name == "analytic-mix") return Kind::kAnalyticMix;
  if (name == "service-spill") return Kind::kServiceSpill;
  if (name == "adhoc-tenants") return Kind::kAdhocTenants;
  throw std::invalid_argument("unknown workload " + name);
}

std::string TenantPrefix(int tenant) {
  if (tenant < 0) return "";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%02d-", tenant);
  return buf;
}

std::string RequestText(const Request& r, const std::string& var_prefix) {
  return Instantiate(AllShapes()[r.shape], TenantPrefix(r.tenant), r.constant,
                     var_prefix);
}

/// A request of `shape` at its default constant, for runs outside the
/// timed windows.
Request PlainRequest(int shape, int tenant) {
  Request r;
  r.shape = shape;
  r.tenant = tenant;
  r.constant = AllShapes()[shape].constant;
  r.text = RequestText(r, "");
  return r;
}

QueryOptions ServiceOptionsFor(const Request& r) {
  QueryOptions q;
  if (r.parallel) {
    q.mode = ExecMode::kParallel;
    q.threads = kParallelWorkers;
  }
  return q;
}

// ---- documents ----------------------------------------------------------

struct DocText {
  std::string name;
  std::string text;
  const char* dtd;
};

void AddCorpus(uint64_t seed, const std::string& prefix, size_t n,
               bool with_dblp, bool with_catalog, std::vector<DocText>* out) {
  Rng rng(seed);
  auto next_seed = [&rng] { return static_cast<unsigned>(rng.Next()); };
  nalq::datagen::BibOptions bib;
  bib.books = n;
  bib.authors_per_book = 2;
  bib.seed = next_seed();
  out->push_back({prefix + "bib.xml", nalq::datagen::GenerateBib(bib),
                  nalq::datagen::kBibDtd});
  out->push_back({prefix + "reviews.xml",
                  nalq::datagen::GenerateReviews(n, next_seed()),
                  nalq::datagen::kReviewsDtd});
  out->push_back({prefix + "prices.xml",
                  nalq::datagen::GeneratePrices(n, next_seed()),
                  nalq::datagen::kPricesDtd});
  nalq::datagen::AuctionOptions bids;
  bids.bids = n;
  bids.seed = next_seed();
  out->push_back({prefix + "bids.xml", nalq::datagen::GenerateBids(bids),
                  nalq::datagen::kBidsDtd});
  if (with_dblp) {
    nalq::datagen::DblpOptions dblp;
    dblp.publications = kDblpPublications;
    dblp.seed = next_seed();
    out->push_back({prefix + "dblp.xml", nalq::datagen::GenerateDblp(dblp),
                    nalq::datagen::kDblpDtd});
  }
  if (with_catalog) {
    nalq::datagen::BibOptions catalog;
    catalog.books = kCatalogBooks;
    catalog.authors_per_book = 2;
    catalog.seed = next_seed();
    out->push_back({prefix + "catalog.xml",
                    nalq::datagen::GenerateBib(catalog),
                    nalq::datagen::kBibDtd});
  }
}

std::vector<DocText> Documents(Kind kind, uint64_t seed) {
  std::vector<DocText> docs;
  Rng rng = Rng(seed).Fork(1);
  switch (kind) {
    case Kind::kAnalyticMix:
      AddCorpus(rng.Next(), "", kElements, true, true, &docs);
      break;
    case Kind::kServiceSpill:
      AddCorpus(rng.Next(), "", kElements, true, false, &docs);
      break;
    case Kind::kAdhocTenants:
      for (int t = 0; t < kTenants; ++t) {
        AddCorpus(rng.Next(), TenantPrefix(t), kTenantElements, false, false,
                  &docs);
      }
      break;
  }
  return docs;
}

// ---- responses ----------------------------------------------------------

/// What the traced window measures beyond every request's core fields.
struct Detail {
  nalq::nal::EvalStats stats;
  nalq::nal::StreamStats exec;
  double execute_ms = 0;
  // The split path (Compile's stages, then Engine::Run).
  bool split = false;
  double parse_us = 0;
  double normalize_us = 0;
  double translate_us = 0;
  double enumerate_us = 0;
  double choose_us = 0;
  double alternatives = 0;
  double est_rows = 0;
  double root_tuples = 0;
  // Residency of the store around the request.
  int faults = 0;
  int hits = 0;
  int evictions = 0;
  double resident_mb = 0;
};

/// One completed request. Kept small: the untraced window stores one per
/// request while peak RSS is measured.
struct Response {
  int shape = 0;
  int tenant = -1;
  int constant = 0;
  bool parallel = false;
  bool ok = false;
  // QueryService diagnostics (service workloads).
  bool via_service = false;
  bool cache_hit = false;
  bool queued = false;
  bool degraded = false;
  unsigned threads = 0;
  double queue_ms = 0;
  double run_ms = 0;
  double grant_mb = 0;
  double latency_ms = 0;
  uint64_t digest = 0;
  uint64_t bytes = 0;
  std::unique_ptr<Detail> detail;  ///< traced window only
};

struct Window {
  std::vector<Response> responses;
  double seconds = 0;
  double host_ref_ms = 0;
  double peak_rss_mb = 0;  ///< see kRssRequests
  ProcUsage before;
  ProcUsage after;  ///< read before the responses are gathered
};

void Finish(const std::string& output, Response* r) {
  r->ok = true;
  r->digest = Digest(output);
  r->bytes = output.size();
}

void ReportFailure(const Response& r, const char* what) {
  std::fprintf(stderr, "request failed: %s: %s\n", AllShapes()[r.shape].id,
               what);
}

// ---- set-up -------------------------------------------------------------

struct SetupTimes {
  double total_s = 0;
  double parse_ms = 0;
  double index_ms = 0;
  double stats_ms = 0;
  double persist_s = 0;
  double attach_ms = 0;
  double persisted_mb = 0;
};

/// The engine (and service) a run's requests go to.
struct Live {
  Live() = default;
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
  std::string store_dir;

  ~Live() {
    service.reset();
    engine.reset();
    if (!store_dir.empty()) {
      std::error_code ec;
      fs::remove_all(store_dir, ec);
    }
  }
};

double TimedMs(SpanLog* log, const char* name, const char* layer,
               int64_t request, const std::function<void()>& fn) {
  const auto start = Clock::now();
  {
    Span span(log, name, layer, request);
    fn();
  }
  return Seconds(start, Clock::now()) * 1e3;
}

/// Builds every document's index and statistics, the lazy work the first
/// requests would otherwise pay for.
void BuildIndexes(const Engine& engine, SpanLog* log, SetupTimes* t) {
  const nalq::xml::Store& store = engine.store();
  for (nalq::xml::DocId id = 0; id < store.size(); ++id) {
    t->index_ms += TimedMs(log, "xml::Store::index", "xml", -1,
                           [&] { store.index(id); });
    t->stats_ms += TimedMs(log, "xml::Store::stats", "xml", -1,
                           [&] { store.stats(id); });
  }
}

/// One set-up, on the calling thread: load (and persist and attach), build
/// indexes and statistics, and run every shape once through the call path
/// the timed requests use.
std::unique_ptr<Live> SetUp(Kind kind, const StreamSpec& spec,
                            const std::vector<DocText>& docs, int attempt,
                            SpanLog* log, SetupTimes* t) {
  const auto start = Clock::now();
  auto live = std::make_unique<Live>();
  auto loaded = std::make_unique<Engine>();
  for (const DocText& d : docs) {
    t->parse_ms += TimedMs(log, "engine::Engine::AddDocument", "xml", -1, [&] {
      loaded->AddDocument(d.name, d.text);
      loaded->RegisterDtd(d.name, d.dtd);
    });
  }
  BuildIndexes(*loaded, log, t);
  if (kind == Kind::kAnalyticMix) {
    live->engine = std::move(loaded);
  } else {
    live->store_dir = (fs::temp_directory_path() /
                       ("perfbench-store-" + std::to_string(attempt)))
                          .string();
    t->persist_s = TimedMs(log, "engine::Engine::PersistStore", "storage", -1,
                           [&] { loaded->PersistStore(live->store_dir); }) /
                   1e3;
    loaded.reset();
    live->engine = std::make_unique<Engine>();
    if (kind == Kind::kAdhocTenants) {
      setenv("NALQ_STORE_CACHE_BYTES",
             std::to_string(kTenantCacheBytes).c_str(), 1);
    }
    t->attach_ms = TimedMs(log, "engine::Engine::AttachStore", "storage", -1,
                           [&] { live->engine->AttachStore(live->store_dir); });
    unsetenv("NALQ_STORE_CACHE_BYTES");
    const auto* source = dynamic_cast<const nalq::storage::PersistentStore*>(
        live->engine->store().source());
    if (source != nullptr) t->persisted_mb = source->persisted_bytes() / 1e6;
    SetupTimes reload;  // page-in of persisted indexes, part of setup_s only
    BuildIndexes(*live->engine, log, &reload);
    if (attempt == 0 && source != nullptr) {
      // Everything is resident until the first lease boundary evicts.
      std::printf("store: %.2f MB persisted, %.2f MB all resident, cache "
                  "limit %.2f MB\n",
                  t->persisted_mb, source->resident_bytes() / 1e6,
                  source->cache_limit_bytes() / 1e6);
    }
    ServiceOptions options;
    if (kind == Kind::kServiceSpill) options.memory_budget_bytes = kServiceBudget;
    live->service = std::make_unique<QueryService>(*live->engine, options);
  }
  {
    Span warm(log, "warm-up", "engine", -1);
    for (size_t s = 0; s < spec.shapes.size(); ++s) {
      Request r = PlainRequest(
          ShapeIndex(spec.shapes[s]),
          spec.tenants > 0 ? static_cast<int>(s) % spec.tenants : -1);
      if (live->service == nullptr) {
        live->engine->RunQuery(r.text);
        continue;
      }
      // Alternating executors starts the parallel workers too.
      r.parallel = !spec.parallel_shapes.empty() && s % 2 == 1;
      const QueryResult q = live->service->Execute(r.text, ServiceOptionsFor(r));
      if (!q.ok) throw std::runtime_error("warm-up failed: " + q.error_what);
    }
  }
  t->total_s = Seconds(start, Clock::now());
  return live;
}

// ---- requests -----------------------------------------------------------

/// The untraced call: Engine::RunQuery, or QueryService::Execute.
void Send(Live& live, const Request& req, Response* r) {
  const auto start = Clock::now();
  try {
    if (live.service == nullptr) {
      nalq::engine::RunResult result = live.engine->RunQuery(req.text);
      r->latency_ms = Seconds(start, Clock::now()) * 1e3;
      if (r->detail) r->detail->stats = result.stats;
      Finish(result.output, r);
      return;
    }
    QueryResult q = live.service->Execute(req.text, ServiceOptionsFor(req));
    r->latency_ms = Seconds(start, Clock::now()) * 1e3;
    r->via_service = true;
    r->queue_ms = q.queue_seconds * 1e3;
    r->run_ms = q.run_seconds * 1e3;
    r->grant_mb = q.budget_granted / 1048576.0;
    r->threads = q.threads_granted;
    r->cache_hit = q.cache_hit;
    r->queued = q.queued;
    r->degraded = q.degraded;
    if (r->detail) {
      r->detail->stats = q.stats;
      r->detail->execute_ms = r->run_ms;
    }
    if (q.ok) {
      Finish(q.output, r);
    } else {
      ReportFailure(*r, q.error_what.c_str());
    }
  } catch (const std::exception& e) {
    r->latency_ms = Seconds(start, Clock::now()) * 1e3;
    ReportFailure(*r, e.what());
  }
}

/// The traced call on the split path: the five stages Engine::Compile
/// runs, one span each, then Engine::Run. The request span ends once the
/// compile artifacts and the run's bookkeeping are freed; the response
/// bytes are digested outside it.
void SendSplit(const Engine& engine, const Request& req, SpanLog* log,
                int64_t id, Response* r) {
  Detail& d = *r->detail;
  const int request_span = log->Begin(AllShapes()[req.shape].id, "engine", id);
  std::string output;
  try {
    nalq::xquery::AstPtr ast;
    nalq::xquery::AstPtr normalized;
    nalq::nal::AlgebraPtr nested;
    std::vector<nalq::rewrite::Alternative> alternatives;
    nalq::opt::Choice choice;
    nalq::engine::RunResult result;
    d.parse_us = TimedMs(log, "xquery::ParseQuery", "xquery", id, [&] {
      ast = nalq::xquery::ParseQuery(req.text);
    }) * 1e3;
    d.normalize_us = TimedMs(log, "xquery::Normalize", "xquery", id, [&] {
      normalized = nalq::xquery::Normalize(ast);
    }) * 1e3;
    d.translate_us = TimedMs(log, "xquery::Translate", "xquery", id, [&] {
      nested = nalq::xquery::Translate(normalized, &engine.dtds());
    }) * 1e3;
    d.enumerate_us =
        TimedMs(log, "rewrite::Unnester::AllAlternatives", "rewrite", id, [&] {
          nalq::rewrite::Unnester unnester(&engine.dtds());
          alternatives = unnester.AllAlternatives(nested);
        }) * 1e3;
    {
      // The lease boundary is where the store evicts: storage work.
      std::optional<nalq::xml::StoreReadLease> lease;
      TimedMs(log, "xml::StoreReadLease", "storage", id,
              [&] { lease.emplace(engine.store()); });
      d.choose_us = TimedMs(log, "opt::ChoosePlan", "opt", id, [&] {
        choice = nalq::opt::ChoosePlan(engine.store(), alternatives);
      }) * 1e3;
    }
    d.alternatives = static_cast<double>(alternatives.size());
    d.est_rows = choice.estimates[choice.index].rows;
    d.execute_ms = TimedMs(log, "engine::Engine::Run", "nal", id, [&] {
      result = engine.Run(alternatives[choice.index].plan);
    });
    d.split = true;
    d.stats = result.stats;
    d.exec = result.exec;
    d.root_tuples = static_cast<double>(result.root_tuples);
    output = std::move(result.output);
    r->ok = true;
  } catch (const std::exception& e) {
    ReportFailure(*r, e.what());
  }
  log->End(request_span);
  r->latency_ms = log->Duration(request_span) / 1e6;
  if (r->ok) Finish(output, r);
}

/// The traced service call: one Execute span, with the admission and run
/// intervals QueryResult reports as its children.
void SendTracedService(Live& live, const Request& req, SpanLog* log,
                        int64_t id, Response* r) {
  const int span = log->Begin("service::QueryService::Execute", "service", id);
  Send(live, req, r);
  log->End(span);
  const int64_t start = log->spans()[span].start_ns;
  const int64_t admitted = start + static_cast<int64_t>(r->queue_ms * 1e6);
  log->Add("admission", "service", id, start, admitted, span);
  log->Add("engine::Engine::Run", "nal", id, admitted,
           admitted + static_cast<int64_t>(r->run_ms * 1e6), span);
}

/// Residency of the request's documents before it and of the whole store
/// around it, read through Store::resident(), which never faults or pins.
class ResidencyProbe {
 public:
  explicit ResidencyProbe(const Engine& engine) : store_(engine.store()) {}

  void Before(const Request& r) {
    resident_.assign(store_.size(), false);
    for (nalq::xml::DocId id = 0; id < store_.size(); ++id) {
      resident_[id] = store_.resident(id);
    }
    docs_.clear();
    for (Role role : AllShapes()[r.shape].reads) {
      if (auto id = store_.Find(TenantPrefix(r.tenant) + RoleFile(role))) {
        docs_.push_back(*id);
      }
    }
  }

  void After(Detail* d) const {
    for (nalq::xml::DocId id : docs_) (resident_[id] ? d->hits : d->faults)++;
    for (nalq::xml::DocId id = 0; id < store_.size(); ++id) {
      if (resident_[id] && !store_.resident(id)) ++d->evictions;
    }
    if (store_.source() != nullptr) {
      d->resident_mb = store_.source()->resident_bytes() / 1e6;
    }
  }

 private:
  const nalq::xml::Store& store_;
  std::vector<bool> resident_;
  std::vector<nalq::xml::DocId> docs_;
};

double HostReference() {
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(HostReferenceMs());
  return Median(probes);
}

/// Runs whole rounds on a fresh client thread until `seconds` have passed
/// at a round boundary. `send(request, request_id, response)` makes one
/// request.
template <typename SendFn>
Window RunWindow(const StreamSpec& spec, uint64_t seed, double seconds,
                 bool detailed, SendFn send) {
  Window w;
  const double ref_before = HostReference();
  std::deque<Response> responses;  // grows without copying
  w.before = ReadProcUsage();
  const auto start = Clock::now();
  std::thread client([&] {
    RequestStream stream(spec, seed);
    int64_t id = 0;
    do {
      for (const Request& req : stream.NextRound()) {
        Response& r = responses.emplace_back();
        r.shape = req.shape;
        r.tenant = req.tenant;
        r.constant = req.constant;
        r.parallel = req.parallel;
        if (detailed) r.detail = std::make_unique<Detail>();
        send(req, id++, &r);
        if (id == kRssRequests) w.peak_rss_mb = ReadProcUsage().peak_rss_mb;
      }
    } while (Seconds(start, Clock::now()) < seconds);
    w.seconds = Seconds(start, Clock::now());
  });
  client.join();
  w.after = ReadProcUsage();
  if (w.peak_rss_mb == 0) w.peak_rss_mb = w.after.peak_rss_mb;
  w.host_ref_ms = (ref_before + HostReference()) / 2;
  w.responses.reserve(responses.size());
  for (Response& r : responses) w.responses.push_back(std::move(r));
  return w;
}

// ---- reports ------------------------------------------------------------

template <typename Fn>
std::vector<double> Collect(const std::vector<Response>& rs, Fn value) {
  std::vector<double> out;
  for (const Response& r : rs) {
    if (r.ok) out.push_back(value(r));
  }
  return out;
}

double ShapeMedian(const std::vector<Response>& rs, int shape) {
  std::vector<double> v;
  for (const Response& r : rs) {
    if (r.ok && r.shape == shape) v.push_back(r.latency_ms);
  }
  return Median(v);
}

double FaultPenaltyMs(const std::vector<Response>& rs) {
  std::vector<double> penalties;
  for (size_t s = 0; s < AllShapes().size(); ++s) {
    std::vector<double> faulting;
    std::vector<double> resident;
    for (const Response& r : rs) {
      if (!r.ok || !r.detail || r.shape != static_cast<int>(s)) continue;
      (r.detail->faults > 0 ? faulting : resident).push_back(r.latency_ms);
    }
    if (!faulting.empty() && !resident.empty()) {
      penalties.push_back(Median(faulting) - Median(resident));
    }
  }
  return Median(penalties);
}

struct Replays {
  double exchange_dop = 0;
  double exchange_chunks = 0;
  double shared_probe_breakers = 0;
  double gamma_partitions = 0;
};

/// QueryResult carries no StreamStats, so each (shape, executor, grant)
/// the traced service run saw is replayed once through Engine::Run.
Replays ReplayExchange(const Engine& engine, const Window& traced) {
  Replays out;
  std::set<std::tuple<int, bool, uint64_t, unsigned>> seen;
  for (const Response& r : traced.responses) {
    if (!r.ok) continue;
    seen.insert({r.shape, r.parallel,
                 static_cast<uint64_t>(r.grant_mb * 1048576.0 + 0.5),
                 r.threads});
  }
  for (const auto& [shape, parallel, grant, threads] : seen) {
    Request req = PlainRequest(shape, -1);
    req.parallel = parallel;
    const nalq::engine::CompiledQuery q =
        engine.Compile(req.text, PlanChoice::kCost, kServiceBudget);
    const nalq::engine::RunResult run =
        engine.Run(q.best.plan, ServiceOptionsFor(req).mode,
                   PathMode::kIndexed, threads, grant);
    out.exchange_dop =
        std::max(out.exchange_dop, static_cast<double>(run.exec.exchange_dop));
    if (parallel) {
      out.exchange_chunks += run.exec.exchange_chunks;
      out.shared_probe_breakers += run.exec.shared_probe_breakers;
      out.gamma_partitions += run.exec.gamma_partitions;
    }
    std::printf("replay %-4s %-9s grant %.2f MiB: dop %llu, chunks %llu\n",
                AllShapes()[shape].id, parallel ? "parallel" : "streaming",
                grant / 1048576.0,
                static_cast<unsigned long long>(run.exec.exchange_dop),
                static_cast<unsigned long long>(run.exec.exchange_chunks));
  }
  return out;
}

/// Chosen alternative's Engine::Run time over the fastest unnested
/// alternative's, geometric mean over the shapes that have one.
double ChosenVsFastest(const Engine& engine, const StreamSpec& spec) {
  auto best_of_3 = [&](const nalq::nal::AlgebraPtr& plan, uint64_t deadline) {
    double best = -1;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      try {
        engine.Run(plan, ExecMode::kStreaming, PathMode::kIndexed, 0, 0,
                   deadline);
      } catch (const nalq::engine::Error&) {
        return -1.0;  // over the deadline: not the fastest
      }
      const double s = Seconds(start, Clock::now());
      if (best < 0 || s < best) best = s;
    }
    return best;
  };
  std::vector<double> ratios;
  for (const std::string& id : spec.shapes) {
    const nalq::engine::CompiledQuery q = engine.Compile(
        PlainRequest(ShapeIndex(id), -1).text, PlanChoice::kCost, 0);
    const double chosen = best_of_3(q.best.plan, 0);
    const uint64_t deadline =
        std::max<uint64_t>(2000, static_cast<uint64_t>(chosen * 20e3));
    double fastest = -1;
    // alternatives[0] is the nested plan.
    for (size_t a = 1; a < q.alternatives.size(); ++a) {
      const double t = a == q.cost_choice
                           ? chosen
                           : best_of_3(q.alternatives[a].plan, deadline);
      if (t > 0 && (fastest < 0 || t < fastest)) fastest = t;
    }
    if (fastest <= 0 || chosen <= 0) continue;
    ratios.push_back(chosen / fastest);
    std::printf("chosen/fastest %-4s %.3f (%zu alternatives)\n", id.c_str(),
                chosen / fastest, q.alternatives.size());
  }
  return GeoMean(ratios);
}

struct LayerInputs {
  std::vector<SetupTimes> setups;
  const Window* untraced = nullptr;
  const Window* traced = nullptr;
  Replays replays;
  double chosen_vs_fastest = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

template <typename Field>
double SetupMedian(const std::vector<SetupTimes>& setups, Field field) {
  std::vector<double> v;
  for (const SetupTimes& t : setups) v.push_back(t.*field);
  return Median(v);
}

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  const auto& u = in.untraced->responses;
  const auto& t = in.traced->responses;
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  // Detail values of the traced window, over requests that succeeded (and,
  // with split_only, took the split path).
  auto values = [&t](bool split_only, auto field) {
    std::vector<double> v;
    for (const Response& r : t) {
      if (r.ok && (!split_only || r.detail->split)) v.push_back(field(*r.detail));
    }
    return v;
  };
  auto split = [&](auto field) { return Median(values(true, field)); };
  auto median = [&](auto field) { return Median(values(false, field)); };
  auto mean = [&](auto field) { return Mean(values(false, field)); };
  auto count = [](uint64_t v) { return static_cast<double>(v); };

  add("xquery.parse_us", split([](const Detail& d) { return d.parse_us; }), "us");
  add("xquery.normalize_us", split([](const Detail& d) { return d.normalize_us; }), "us");
  add("xquery.translate_us", split([](const Detail& d) { return d.translate_us; }), "us");
  add("rewrite.enumerate_us", split([](const Detail& d) { return d.enumerate_us; }), "us");
  add("rewrite.alternatives", split([](const Detail& d) { return d.alternatives; }), "count");
  add("opt.choose_us", split([](const Detail& d) { return d.choose_us; }), "us");
  add("opt.root_q_error",
      split([](const Detail& d) { return QError(d.est_rows, d.root_tuples); }), "1");
  add("opt.chosen_vs_fastest", in.chosen_vs_fastest, "1");

  add("nal.execute_ms", median([](const Detail& d) { return d.execute_ms; }), "ms");
  add("nal.ns_per_tuple", median([&](const Detail& d) {
        return Ratio(d.execute_ms * 1e6, count(d.stats.tuples_produced));
      }), "ns");
  add("nal.tuples", median([&](const Detail& d) {
        return count(d.stats.tuples_produced); }), "count");
  add("nal.predicate_evals", median([&](const Detail& d) {
        return count(d.stats.predicate_evals); }), "count");
  {
    std::vector<double> nested;
    for (const Response& r : t) {
      if (r.ok && AllShapes()[r.shape].id[0] == 'N') {
        nested.push_back(count(r.detail->stats.nested_alg_evals));
      }
    }
    add("nal.nested_evals", Median(nested), "count");
  }
  add("nal.peak_buffered_tuples", split([&](const Detail& d) {
        return count(d.exec.peak_buffered); }), "count");
  add("nal.spill_mb", mean([](const Detail& d) {
        return d.stats.spill.spilled_bytes / 1e6; }), "MB");
  add("nal.spill_runs", mean([&](const Detail& d) {
        return count(d.stats.spill.spill_runs); }), "count");
  add("nal.repartitions", mean([&](const Detail& d) {
        return count(d.stats.spill.repartitions); }), "count");
  add("nal.merge_passes", mean([&](const Detail& d) {
        return count(d.stats.spill.merge_passes); }), "count");
  add("nal.exchange_dop", in.replays.exchange_dop, "count");
  add("nal.exchange_chunks", in.replays.exchange_chunks, "count");
  add("nal.shared_probe_breakers", in.replays.shared_probe_breakers, "count");
  add("nal.gamma_partitions", in.replays.gamma_partitions, "count");

  add("xml.parse_ms", SetupMedian(in.setups, &SetupTimes::parse_ms), "ms");
  add("xml.index_build_ms", SetupMedian(in.setups, &SetupTimes::index_ms), "ms");
  add("xml.stats_build_ms", SetupMedian(in.setups, &SetupTimes::stats_ms), "ms");
  add("xml.nodes_visited", median([&](const Detail& d) {
        return count(d.stats.xpath.nodes_visited); }), "count");
  {
    double hits = 0;
    double lookups = 0;
    for (const Response& r : t) {
      hits += r.detail->stats.xpath.index_hits;
      lookups += r.detail->stats.xpath.index_lookups;
    }
    add("xml.index_hit_ratio", Ratio(hits, lookups), "1");
  }
  add("xml.output_kb", Median(Collect(t, [](const Response& r) {
        return r.bytes / 1024.0; })), "KB");

  add("storage.persist_s", SetupMedian(in.setups, &SetupTimes::persist_s), "s");
  add("storage.attach_ms", SetupMedian(in.setups, &SetupTimes::attach_ms), "ms");
  add("storage.persisted_mb", SetupMedian(in.setups, &SetupTimes::persisted_mb), "MB");
  {
    double faults = 0;
    double hits = 0;
    double evictions = 0;
    double resident = 0;
    for (const Response& r : t) {
      faults += r.detail->faults;
      hits += r.detail->hits;
      evictions += r.detail->evictions;
      resident = std::max(resident, r.detail->resident_mb);
    }
    const double requests = static_cast<double>(t.size());
    add("storage.faults_per_request", Ratio(faults, requests), "count");
    add("storage.evictions_per_request", Ratio(evictions, requests), "count");
    add("storage.hit_ratio", Ratio(hits, hits + faults), "1");
    add("storage.fault_penalty_ms", FaultPenaltyMs(t), "ms");
    add("storage.resident_mb", resident, "MB");
  }

  // The service's own view comes from the untraced run: the traced run of
  // adhoc-tenants bypasses it on the split path.
  std::vector<double> admit;
  std::vector<double> run;
  std::vector<double> overhead;
  std::vector<double> grant;
  double service = 0;
  double hits = 0;
  double queued = 0;
  double degraded = 0;
  for (const Response& r : u) {
    if (!r.via_service) continue;
    ++service;
    hits += r.cache_hit ? 1 : 0;
    queued += r.queued ? 1 : 0;
    degraded += r.degraded ? 1 : 0;
    if (!r.ok) continue;
    admit.push_back(r.queue_ms);
    run.push_back(r.run_ms);
    overhead.push_back((r.latency_ms - r.queue_ms - r.run_ms) * 1e3);
    grant.push_back(r.grant_mb);
  }
  add("service.admit_ms", Median(admit), "ms");
  add("service.run_ms", Median(run), "ms");
  add("service.overhead_us", Median(overhead), "us");
  add("service.plan_cache_hit_ratio", Ratio(hits, service), "1");
  add("service.grant_mb", Median(grant), "MB");
  add("service.queued_ratio", Ratio(queued, service), "1");
  add("service.degraded_ratio", Ratio(degraded, service), "1");

  for (size_t s = 0; s < AllShapes().size(); ++s) {
    add(std::string("engine.") + AllShapes()[s].id + ".p50_ms",
        ShapeMedian(u, static_cast<int>(s)), "ms");
  }
  const double requests = static_cast<double>(u.size());
  add("proc.cpu_ms_per_query",
      Ratio(in.untraced->after.cpu_ms - in.untraced->before.cpu_ms, requests), "ms");
  add("proc.minor_faults_per_query",
      Ratio(in.untraced->after.minor_faults - in.untraced->before.minor_faults,
            requests), "count");
  add("trace.overhead_ratio",
      Ratio(requests / in.untraced->seconds,
            static_cast<double>(t.size()) / in.traced->seconds), "1");
  add("host.ref_ms", in.untraced->host_ref_ms, "ms");
  add("error_ratio",
      Ratio(static_cast<double>(in.failed), static_cast<double>(in.attempted)),
      "1");
  return m;
}

/// Per-shape view of the traced window, so the layer split (which shapes
/// nest, spill or fault) is visible.
void PrintShapeSummary(const std::vector<Response>& traced,
                       const StreamSpec& spec) {
  for (const std::string& id : spec.shapes) {
    const int shape = ShapeIndex(id);
    std::vector<double> nested;
    std::vector<double> spill;
    std::vector<double> faults;
    for (const Response& r : traced) {
      if (!r.ok || r.shape != shape) continue;
      nested.push_back(static_cast<double>(r.detail->stats.nested_alg_evals));
      spill.push_back(r.detail->stats.spill.spilled_bytes / 1e6);
      faults.push_back(r.detail->faults);
    }
    std::printf("traced %-4s %4zu requests, p50 %8.3f ms, nested_alg_evals "
                "%6.0f, spill %6.3f MB, faults %.2f per request\n",
                id.c_str(), nested.size(), ShapeMedian(traced, shape),
                Median(nested), Mean(spill), Mean(faults));
  }
}

/// Self time per layer, split into set-up and per-request spans.
std::string LayerTable(const SpanLog& log, double traced_requests) {
  const std::vector<int64_t> self = log.SelfTimes();
  std::map<std::string, std::pair<int64_t, int64_t>> setup;    // count, ns
  std::map<std::string, std::pair<int64_t, int64_t>> request;  // count, ns
  int64_t request_total = 0;
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const SpanRecord& s = log.spans()[i];
    auto& slot = (s.request < 0 ? setup : request)[s.layer];
    ++slot.first;
    slot.second += self[i];
    if (s.request >= 0) request_total += self[i];
  }
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %8s %12s %14s %7s\n", "layer",
                "spans", "self_ms", "us_per_request", "share");
  out += "per request (traced window)\n";
  out += line;
  for (const auto& [layer, v] : request) {
    std::snprintf(line, sizeof(line), "%-10s %8lld %12.3f %14.3f %6.1f%%\n",
                  layer.c_str(), static_cast<long long>(v.first),
                  v.second / 1e6, Ratio(v.second / 1e3, traced_requests),
                  100.0 * Ratio(static_cast<double>(v.second),
                                static_cast<double>(request_total)));
    out += line;
  }
  out += "set-up (all set-ups of the run)\n";
  std::snprintf(line, sizeof(line), "%-10s %8s %12s\n", "layer", "spans",
                "self_ms");
  out += line;
  for (const auto& [layer, v] : setup) {
    std::snprintf(line, sizeof(line), "%-10s %8lld %12.3f\n", layer.c_str(),
                  static_cast<long long>(v.first), v.second / 1e6);
    out += line;
  }
  return out;
}

/// Entries left in the private TMPDIR: leaked spool or store files.
size_t TempLeftovers() {
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || *tmp == '\0') return 0;
  std::error_code ec;
  size_t n = 0;
  for (auto it = fs::directory_iterator(tmp, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    std::fprintf(stderr, "leaked temp entry: %s\n",
                 it->path().string().c_str());
    ++n;
  }
  return n;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "analytic-mix", "service-spill", "adhoc-tenants"};
  return names;
}

StreamSpec SpecFor(const std::string& workload) {
  StreamSpec spec;
  switch (KindOf(workload)) {
    case Kind::kAnalyticMix:
      // Q1, the paper's grouping query, goes twice: a round of 11 puts the
      // median inside one shape's latency band, where a round of 10 put it
      // in the gap between two.
      spec.shapes = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "E1b", "N1", "N2", "N3"};
      spec.repeated_shapes = {"Q1"};
      break;
    case Kind::kServiceSpill:
      // E1b, the longest request, goes with the defaults only, for an odd
      // round of 13 (see analytic-mix).
      spec.shapes = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "E1b"};
      spec.parallel_shapes = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"};
      break;
    case Kind::kAdhocTenants:
      spec.shapes = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"};
      spec.tenants = kTenants;
      spec.vary = true;
      break;
  }
  return spec;
}

RequestStream::RequestStream(const StreamSpec& spec, uint64_t seed)
    : spec_(spec),
      order_(Rng(seed).Fork(100)),
      tenants_(Rng(seed).Fork(200)),
      constants_(Rng(seed).Fork(300)),
      zipf_(std::max(spec.tenants, 1), 1.0) {
  for (const std::string& id : spec.shapes) mix_.push_back({ShapeIndex(id), false});
  for (const std::string& id : spec.repeated_shapes) {
    mix_.push_back({ShapeIndex(id), false});
  }
  for (const std::string& id : spec.parallel_shapes) {
    mix_.push_back({ShapeIndex(id), true});
  }
}

std::vector<Request> RequestStream::NextRound() {
  std::vector<Request> round;
  for (int slot : Permutation(static_cast<int>(mix_.size()), &order_)) {
    Request r;
    r.shape = mix_[slot].first;
    r.parallel = mix_[slot].second;
    const Shape& shape = AllShapes()[r.shape];
    r.constant = shape.constant;
    std::string var_prefix;
    if (spec_.vary) {
      r.tenant = zipf_.Draw(&tenants_);
      if (!shape.constant_choices.empty()) {
        r.constant = shape.constant_choices[constants_.Below(
            shape.constant_choices.size())];
      }
      var_prefix = "r" + std::to_string(sequence_) + "_";
    }
    ++sequence_;
    r.text = RequestText(r, var_prefix);
    round.push_back(std::move(r));
  }
  return round;
}

uint64_t CountMismatches(
    const std::vector<std::pair<OutputKey, OutputId>>& responses,
    const std::function<OutputId(const OutputKey&)>& reference) {
  std::map<OutputKey, OutputId> cache;
  uint64_t mismatches = 0;
  for (const auto& [key, got] : responses) {
    auto it = cache.find(key);
    if (it == cache.end()) it = cache.emplace(key, reference(key)).first;
    if (it->second != got) {
      ++mismatches;
      std::fprintf(stderr,
                   "output mismatch: shape %s tenant %d constant %d "
                   "(%llu bytes, want %llu)\n",
                   AllShapes()[std::get<0>(key)].id, std::get<1>(key),
                   std::get<2>(key),
                   static_cast<unsigned long long>(got.second),
                   static_cast<unsigned long long>(it->second.second));
    }
  }
  return mismatches;
}

Report RunWorkload(const RunOptions& options) {
  const Kind kind = KindOf(options.workload);
  const StreamSpec spec = SpecFor(options.workload);
  const std::vector<DocText> docs = Documents(kind, options.seed);
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>();

  LayerInputs in;
  std::unique_ptr<Live> live;
  for (int k = 0; k < kSetups; ++k) {
    live.reset();  // the previous set-up's engine, service and store
    SetupTimes t;
    live = SetUp(kind, spec, docs, k, log.get(), &t);
    in.setups.push_back(t);
  }
  std::printf("workload %s seed %llu: %zu documents, set-up %.3f s (median "
              "of",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), docs.size(),
              SetupMedian(in.setups, &SetupTimes::total_s));
  for (const SetupTimes& t : in.setups) std::printf(" %.3f", t.total_s);
  std::printf(")\n");

  // A traced run splits --seconds between its untraced and traced windows.
  const double window_s = options.trace ? options.seconds / 2 : options.seconds;
  Window untraced = RunWindow(
      spec, options.seed, window_s, false,
      [&](const Request& req, int64_t, Response* r) { Send(*live, req, r); });

  std::optional<Window> traced;
  if (options.trace) {
    traced = RunWindow(
        spec, options.seed, window_s, true,
        [&](const Request& req, int64_t id, Response* r) {
          ResidencyProbe probe(*live->engine);
          probe.Before(req);
          if (kind == Kind::kServiceSpill) {
            SendTracedService(*live, req, log.get(), id, r);
          } else {
            SendSplit(*live->engine, req, log.get(), id, r);
          }
          probe.After(r->detail.get());
        });
  }

  // Output check, outside the timed windows.
  std::vector<std::pair<OutputKey, OutputId>> outputs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Window* w : {&untraced, traced ? &*traced : nullptr}) {
    if (w == nullptr) continue;
    for (const Response& r : w->responses) {
      ++attempted;
      if (!r.ok) {
        ++failed;
        continue;
      }
      outputs.push_back({{r.shape, r.tenant, r.constant}, {r.digest, r.bytes}});
    }
  }
  const uint64_t mismatches =
      CountMismatches(outputs, [&](const OutputKey& key) -> OutputId {
        Request req;
        req.shape = std::get<0>(key);
        req.tenant = std::get<1>(key);
        req.constant = std::get<2>(key);
        try {
          const nalq::engine::RunResult ref = live->engine->RunQuery(
              RequestText(req, ""), ExecMode::kMaterializing,
              PathMode::kIndexed, 0, 0, PlanChoice::kRulePriority);
          return {Digest(ref.output), ref.output.size()};
        } catch (const std::exception& e) {
          std::fprintf(stderr, "reference failed: %s\n", e.what());
          return {0, 0};
        }
      });
  failed += mismatches;

  // The cost-chosen rule per shape, so a plan flip is visible.
  for (const std::string& id : spec.shapes) {
    const Request req =
        PlainRequest(ShapeIndex(id), spec.tenants > 0 ? 0 : -1);
    const nalq::engine::CompiledQuery q = live->engine->Compile(
        req.text, PlanChoice::kCost,
        kind == Kind::kServiceSpill ? kServiceBudget : 0);
    std::printf("plan %-4s %-40s p50 %.3f ms", id.c_str(),
                q.best.rule.c_str(), ShapeMedian(untraced.responses, req.shape));
    if (std::count(spec.parallel_shapes.begin(), spec.parallel_shapes.end(),
                   id) > 0) {
      std::vector<double> parallel;
      for (const Response& r : untraced.responses) {
        if (r.ok && r.shape == req.shape && r.parallel) {
          parallel.push_back(r.latency_ms);
        }
      }
      std::printf(" (parallel %.3f ms)", Median(parallel));
    }
    std::printf("\n");
  }

  if (options.trace) {
    if (kind == Kind::kServiceSpill) {
      in.replays = ReplayExchange(*live->engine, *traced);
    }
    if (kind == Kind::kAnalyticMix) {
      in.chosen_vs_fastest = ChosenVsFastest(*live->engine, spec);
    }
  }
  live.reset();
  const size_t leaks = TempLeftovers();
  failed += leaks;

  std::printf("untraced: %zu requests in %.3f s, host.ref_ms %.3f, "
              "%llu mismatches, %zu leaked temp entries\n",
              untraced.responses.size(), untraced.seconds,
              untraced.host_ref_ms,
              static_cast<unsigned long long>(mismatches), leaks);
  Report report;
  report.attempted = attempted;
  report.failed = failed;
  if (!options.trace) {
    const std::vector<double> latencies = Collect(
        untraced.responses, [](const Response& r) { return r.latency_ms; });
    report.metrics = {
        {"throughput_qps",
         static_cast<double>(untraced.responses.size()) / untraced.seconds,
         "1/s"},
        {"latency_p50_ms", Percentile(latencies, 0.50), "ms"},
        {"latency_p95_ms", Percentile(latencies, 0.95), "ms"},
        {"setup_s", SetupMedian(in.setups, &SetupTimes::total_s), "s"},
        {"peak_rss_mb", untraced.peak_rss_mb, "MB"},
    };
    std::printf("error_ratio %s 1\n",
                NumberText(Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)))
                    .c_str());
    return report;
  }

  in.untraced = &untraced;
  in.traced = &*traced;
  in.attempted = attempted;
  in.failed = failed;
  report.metrics = LayerMetrics(in);
  PrintShapeSummary(traced->responses, spec);
  const std::string table =
      LayerTable(*log, static_cast<double>(traced->responses.size()));
  std::printf("%s", table.c_str());
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  std::ofstream(stem + ".layers.txt") << table;
  if (!log->WriteJson(stem + ".spans.json")) {
    std::fprintf(stderr, "cannot write %s.spans.json\n", stem.c_str());
  }
  std::printf("traced: %zu requests in %.3f s; spans in %s.spans.json\n",
              traced->responses.size(), traced->seconds, stem.c_str());
  return report;
}

}  // namespace perfbench
