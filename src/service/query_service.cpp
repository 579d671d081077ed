#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "nal/spool.h"
#include "obs/profile.h"

namespace nalq::service {

namespace {

using Clock = nal::QueryControl::Clock;

/// Queued waiters re-check cancellation/deadlines at this tick, so a
/// RequestCancel with no admission event still lands promptly.
constexpr auto kQueueTick = std::chrono::milliseconds(10);

/// Ceiling on the minimum admission grant: even a huge budget split across
/// few slots never demands more than this to admit (the spool layer makes
/// real progress at 64 KiB — it just spills a lot).
constexpr uint64_t kMinGrantCeilingBytes = 64 * 1024;

/// Headroom multiplier over the cost model's peak-resident estimate; the
/// estimate is a model, not a bound, and under-granting merely forces
/// spilling, so 2× keeps well-estimated queries resident without
/// reserving the whole budget for one of them.
constexpr uint64_t kFootprintHeadroom = 2;

/// Plan-cache capacity in entries (least-recently-used eviction).
constexpr size_t kPlanCacheCapacity = 64;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Folds an exception escaping compile or run into the result: an
/// engine::Error keeps its code; anything else (parse and translate errors
/// surface as std::runtime_error) is a plan error — the service contract is
/// structured results, never an exception thrown at a concurrent caller.
void SetError(const std::exception& e, QueryResult* r) {
  const auto* error = dynamic_cast<const engine::Error*>(&e);
  r->error_code =
      error != nullptr ? error->code() : engine::ErrorCode::kPlanError;
  r->error_what = e.what();
}

}  // namespace

// Every instrument the service publishes is registered here, once, so the
// exposition is complete (all zeros) from the first scrape — a counter that
// only appears once its event fires is indistinguishable from a counter
// that doesn't exist.
QueryService::QueryService(engine::Engine& engine, ServiceOptions options)
    : engine_(engine),
      options_(options),
      submitted_(metrics_.GetCounter("nalq_queries_submitted_total")),
      admitted_(metrics_.GetCounter("nalq_queries_admitted_total")),
      completed_(metrics_.GetCounter("nalq_queries_completed_total")),
      failed_(metrics_.GetCounter("nalq_queries_failed_total")),
      shed_(metrics_.GetCounter("nalq_queries_shed_total")),
      degraded_(metrics_.GetCounter("nalq_queries_degraded_total")),
      cancelled_(metrics_.GetCounter("nalq_queries_cancelled_total")),
      deadline_expired_(
          metrics_.GetCounter("nalq_queries_deadline_expired_total")),
      cache_hits_(metrics_.GetCounter("nalq_plan_cache_hits_total")),
      cache_misses_(metrics_.GetCounter("nalq_plan_cache_misses_total")),
      spill_bytes_(metrics_.GetCounter("nalq_spill_bytes_total")),
      cache_hit_ratio_(metrics_.GetGauge("nalq_plan_cache_hit_ratio")),
      queue_seconds_(metrics_.GetHistogram("nalq_queue_seconds")),
      run_seconds_(metrics_.GetHistogram("nalq_run_seconds")),
      query_seconds_(metrics_.GetHistogram("nalq_query_seconds")),
      grant_bytes_(metrics_.GetHistogram("nalq_grant_bytes")) {
  options_.memory_budget_bytes =
      nal::SpoolContext::ResolveBudgetBytes(options_.memory_budget_bytes);
  if (options_.max_concurrent == 0) {
    options_.max_concurrent = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.queue_depth == 0) options_.queue_depth = 16;
  if (options_.queue_deadline_ms == 0) options_.queue_deadline_ms = 1000;
  if (!options_.trace_dir.empty() &&
      !std::filesystem::is_directory(options_.trace_dir)) {
    throw engine::Error(engine::ErrorCode::kPlanError,
                        "ServiceOptions::trace_dir \"" + options_.trace_dir +
                            "\" is not a usable directory",
                        0, options_.trace_dir, "query_service");
  }
  if (!options_.store_dir.empty() && engine_.store().size() == 0) {
    // Warm attach (cold start = the caller loading documents itself): the
    // persisted store backs the engine's store lazily, so the service is
    // queryable without re-parsing or materializing the corpus. Fails
    // closed here — a service configured against an unusable store should
    // not come up.
    engine_.AttachStore(options_.store_dir);
  }
  if (options_.slow_query_ms != 0) {
    if (options_.slow_query_log_path.empty()) {
      options_.slow_query_log_path =
          options_.trace_dir.empty()
              ? "nalq_slow_queries.jsonl"
              : options_.trace_dir + "/nalq_slow_queries.jsonl";
    }
    slow_log_ =
        std::make_unique<obs::SlowQueryLog>(options_.slow_query_log_path);
  }
}

QueryService::~QueryService() { Drain(); }

std::shared_ptr<const engine::CompiledQuery> QueryService::CompileCached(
    const std::string& query_text, engine::PlanChoice choice,
    bool* cache_hit) {
  *cache_hit = false;
  const uint64_t version = engine_.store().version();
  // \x1f (unit separator) cannot appear in the enum digit, so the key is
  // collision-free.
  const std::string key =
      std::to_string(static_cast<int>(choice)) + '\x1f' + query_text;
  std::shared_ptr<const engine::CompiledQuery> compiled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.store_version == version) {
      it->second.last_used = ++cache_tick_;
      *cache_hit = true;
      compiled = it->second.compiled;
    }
  }
  (*cache_hit ? cache_hits_ : cache_misses_).Add();
  const double hits = static_cast<double>(cache_hits_.value());
  cache_hit_ratio_.Set(hits / (hits + cache_misses_.value()));
  if (compiled != nullptr) return compiled;
  // Compile outside the lock: compilation reads the store (a reader under
  // the single-writer contract) and can be slow; concurrent misses on the
  // same text just compile twice and the second insert wins.
  compiled = std::make_shared<const engine::CompiledQuery>(
      engine_.Compile(query_text, choice, options_.memory_budget_bytes));
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_.size() >= kPlanCacheCapacity &&
      cache_.find(key) == cache_.end()) {
    auto oldest = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.last_used < oldest->second.last_used) oldest = it;
    }
    cache_.erase(oldest);
  }
  cache_[key] = CacheEntry{compiled, version, ++cache_tick_};
  return compiled;
}

QueryService::Admission QueryService::Admit(
    uint64_t footprint, unsigned requested_threads, nal::QueryControl* control,
    Clock::time_point queue_deadline) {
  Admission adm;
  const uint64_t budget = options_.memory_budget_bytes;

  // Grant size under the current ledger, or nullopt when inadmissible now.
  // Called with mu_ held.
  auto try_grant = [&](bool* degraded) -> bool {
    if (active_ >= options_.max_concurrent) return false;
    if (budget == 0) {
      adm.grant = 0;  // unlimited memory: concurrency cap only
      return true;
    }
    const uint64_t min_grant =
        std::min(kMinGrantCeilingBytes,
                 std::max<uint64_t>(budget / options_.max_concurrent, 1));
    const uint64_t cap = std::max(budget / 2, min_grant);
    const uint64_t scaled =
        footprint > cap / kFootprintHeadroom ? cap
                                             : footprint * kFootprintHeadroom;
    const uint64_t desired = std::clamp(scaled, min_grant, cap);
    const uint64_t free = budget - reserved_;
    if (free >= desired) {
      adm.grant = desired;
      return true;
    }
    if (free >= min_grant) {
      adm.grant = free;  // shrink before shed: admit with what's left
      *degraded = true;
      return true;
    }
    return false;
  };
  auto finish_admit = [&](std::unique_lock<std::mutex>& lock) {
    ++active_;
    reserved_ += adm.grant;
    peak_reserved_ = std::max(peak_reserved_, reserved_);
    adm.admitted = true;
    // Degraded admissions, and those made while anyone queues, run serial.
    adm.threads = (adm.degraded || !queue_.empty()) ? 1 : requested_threads;
    lock.unlock();
    cv_.notify_all();
  };

  std::unique_lock<std::mutex> lock(mu_);
  // Fast path: nothing ahead of us and a grant is available.
  if (queue_.empty() && try_grant(&adm.degraded)) {
    finish_admit(lock);
    return adm;
  }
  // Bounded queue: past the depth we shed instead of building an unbounded
  // convoy of blocked callers.
  if (queue_.size() >= options_.queue_depth) {
    adm.reject_what = "admission queue full (depth " +
                      std::to_string(options_.queue_depth) + ")";
    return adm;
  }
  const uint64_t ticket = next_ticket_++;
  queue_.push_back(ticket);
  adm.queued = true;
  auto leave_queue = [&] {
    queue_.erase(std::find(queue_.begin(), queue_.end(), ticket));
    lock.unlock();
    cv_.notify_all();  // the next head may now be admissible
  };
  while (true) {
    // FIFO: only the head may take a grant — no overtaking, so a large
    // query at the head degrades (or times out) instead of starving.
    if (queue_.front() == ticket && try_grant(&adm.degraded)) {
      queue_.pop_front();
      finish_admit(lock);
      return adm;
    }
    const auto now = Clock::now();
    if (control != nullptr && control->cancel_requested()) {
      adm.reject_code = engine::ErrorCode::kCancelled;
      adm.reject_what = "cancelled while queued for admission";
      leave_queue();
      return adm;
    }
    if (control != nullptr && control->has_deadline() &&
        now >= control->deadline()) {
      adm.reject_code = engine::ErrorCode::kDeadlineExceeded;
      adm.reject_what = "deadline expired while queued for admission";
      leave_queue();
      return adm;
    }
    if (now >= queue_deadline) {
      adm.reject_what = "admission queue deadline (" +
                        std::to_string(options_.queue_deadline_ms) +
                        " ms) expired";
      leave_queue();
      return adm;
    }
    cv_.wait_until(lock, now + kQueueTick);
  }
}

void QueryService::Release(uint64_t grant) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    reserved_ -= grant;
  }
  cv_.notify_all();
}

obs::Counter& QueryService::Outcome(const QueryResult& r) {
  if (r.ok) return completed_;
  switch (r.error_code) {
    case engine::ErrorCode::kCancelled:
      return cancelled_;
    case engine::ErrorCode::kDeadlineExceeded:
      return deadline_expired_;
    case engine::ErrorCode::kAdmissionRejected:
      return shed_;
    default:
      return failed_;
  }
}

QueryResult QueryService::Execute(const std::string& query_text,
                                  QueryOptions q) {
  submitted_.Add();
  const auto submit_time = Clock::now();
  QueryResult r;
  // One trace log per query when tracing is on: its spans cover the whole
  // lifecycle — compile, admission wait, the engine's execute span and the
  // exchange's per-worker spans — and it is written as one Chrome
  // trace_event file per query at the end (including shed/failed queries:
  // those traces are the interesting ones).
  std::optional<obs::TraceLog> trace;
  if (!options_.trace_dir.empty()) trace.emplace();
  obs::TraceLog* trace_ptr = trace.has_value() ? &*trace : nullptr;
  // Every exit: count the outcome through the one mapping, write the trace.
  auto finish = [&] {
    Outcome(r).Add();
    if (trace.has_value()) trace->WriteFile(options_.trace_dir, "nalq-query");
    return std::move(r);
  };

  std::shared_ptr<const engine::CompiledQuery> compiled;
  try {
    obs::TraceLog::Span span(trace_ptr, "compile");
    compiled = CompileCached(query_text, q.choice, &r.cache_hit);
  } catch (const std::exception& e) {
    SetError(e, &r);
    return finish();
  }

  // One deadline spans queue wait + run: arm the token now, before
  // admission can block. Engine::Run gets no deadline of its own, so it
  // leaves the armed token alone.
  nal::QueryControl local_control;
  nal::QueryControl* control = q.control != nullptr ? q.control
                                                    : &local_control;
  if (q.deadline_ms != 0) control->SetDeadlineMs(q.deadline_ms);

  const auto queue_deadline =
      submit_time + std::chrono::milliseconds(options_.queue_deadline_ms);
  Admission adm;
  {
    obs::TraceLog::Span span(trace_ptr, "admit");
    const auto footprint =
        static_cast<uint64_t>(compiled->best_estimate.peak_breaker_bytes);
    adm = Admit(footprint, q.threads, control, queue_deadline);
  }
  const auto admit_time = Clock::now();
  r.queued = adm.queued;
  r.degraded = adm.degraded;
  r.queue_seconds = Seconds(submit_time, admit_time);
  queue_seconds_.Observe(r.queue_seconds);
  if (!adm.admitted) {
    r.error_code = adm.reject_code;
    r.error_what = std::move(adm.reject_what);
    return finish();
  }
  r.threads_granted = adm.threads;
  r.budget_granted = adm.grant;
  admitted_.Add();
  if (adm.degraded) degraded_.Add();
  grant_bytes_.Observe(static_cast<double>(adm.grant));

  // Profiling is on when the caller asked or when a slow-query threshold
  // is armed — the profile must already exist by the time the threshold
  // trips.
  engine::RunInstrumentation instr;
  instr.profile = q.profile || options_.slow_query_ms != 0;
  instr.trace = trace_ptr;
  try {
    engine::RunResult run = engine_.Run(compiled->best.plan, q.mode,
                                        q.path_mode, adm.threads, adm.grant,
                                        /*deadline_ms=*/0, control, &instr);
    r.ok = true;
    r.output = std::move(run.output);
    r.stats = run.stats;
    r.profile_json = run.profile.ToJson();
    spill_bytes_.Add(run.stats.spill.spilled_bytes);
  } catch (const std::exception& e) {
    SetError(e, &r);
  }
  Release(adm.grant);
  const auto end_time = Clock::now();
  r.run_seconds = Seconds(admit_time, end_time);
  const double total_seconds = Seconds(submit_time, end_time);
  run_seconds_.Observe(r.run_seconds);
  query_seconds_.Observe(total_seconds);
  if (slow_log_ != nullptr &&
      total_seconds * 1000.0 >= static_cast<double>(options_.slow_query_ms)) {
    // One JSON line per slow query, profile embedded verbatim (it is
    // already a JSON object; "null" when the run never started or
    // profiling was somehow off).
    std::string line = "{\"query\":" + obs::JsonQuote(query_text) +
                       ",\"ok\":" + (r.ok ? "true" : "false") +
                       ",\"total_seconds\":" + std::to_string(total_seconds) +
                       ",\"queue_seconds\":" + std::to_string(r.queue_seconds) +
                       ",\"run_seconds\":" + std::to_string(r.run_seconds) +
                       ",\"profile\":" +
                       (r.profile_json.empty() ? "null" : r.profile_json) + "}";
    slow_log_->Append(line);
  }
  return finish();
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return active_ == 0 && queue_.empty(); });
}

unsigned QueryService::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

uint64_t QueryService::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

uint64_t QueryService::peak_reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_reserved_;
}

}  // namespace nalq::service
