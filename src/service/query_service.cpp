#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "nal/env_knobs.h"
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

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

QueryService::QueryService(engine::Engine& engine, ServiceOptions options)
    : engine_(engine), options_(options) {
  using nal::EnvKnobU64;
  options_.memory_budget_bytes =
      nal::SpoolContext::ResolveBudgetBytes(options_.memory_budget_bytes);
  if (options_.max_concurrent == 0) {
    options_.max_concurrent = static_cast<unsigned>(
        EnvKnobU64("NALQ_MAX_CONCURRENT", 0));
  }
  if (options_.max_concurrent == 0) {
    options_.max_concurrent = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options_.queue_depth == 0) {
    options_.queue_depth =
        static_cast<unsigned>(EnvKnobU64("NALQ_QUEUE_DEPTH", 16));
  }
  if (options_.queue_deadline_ms == 0) {
    options_.queue_deadline_ms = EnvKnobU64("NALQ_QUEUE_DEADLINE_MS", 1000);
  }
  if (options_.default_deadline_ms == 0) {
    options_.default_deadline_ms = nal::QueryControl::EnvDeadlineMs();
  }
  if (options_.slow_query_ms == 0) {
    options_.slow_query_ms = EnvKnobU64("NALQ_SLOW_QUERY_MS", 0);
  }
  if (options_.trace_dir.empty()) {
    options_.trace_dir = nal::EnvKnobString("NALQ_TRACE_DIR");
  }
  if (!options_.trace_dir.empty() &&
      !std::filesystem::is_directory(options_.trace_dir)) {
    throw engine::Error(engine::ErrorCode::kPlanError,
                        "malformed environment knob NALQ_TRACE_DIR=\"" +
                            options_.trace_dir + "\" (not a usable directory)",
                        0, options_.trace_dir, "query_service");
  }
  if (options_.store_dir.empty()) {
    options_.store_dir = engine::Engine::EnvStoreDir();
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
  // Pre-register every metric family the service publishes so the
  // exposition is complete (all zeros) from the first scrape — a counter
  // that only appears once its event fires is indistinguishable from a
  // counter that doesn't exist.
  for (const char* name :
       {"nalq_queries_submitted_total", "nalq_queries_admitted_total",
        "nalq_queries_completed_total", "nalq_queries_failed_total",
        "nalq_queries_shed_total", "nalq_queries_degraded_total",
        "nalq_queries_cancelled_total", "nalq_queries_deadline_expired_total",
        "nalq_plan_cache_hits_total", "nalq_plan_cache_misses_total",
        "nalq_spill_bytes_total"}) {
    metrics_.GetCounter(name);
  }
  metrics_.GetGauge("nalq_plan_cache_hit_ratio");
  for (const char* name : {"nalq_queue_seconds", "nalq_run_seconds",
                           "nalq_query_seconds", "nalq_grant_bytes"}) {
    metrics_.GetHistogram(name);
  }
}

QueryService::~QueryService() { Drain(); }

uint64_t QueryService::Footprint(const engine::CompiledQuery& compiled) {
  if (compiled.estimates.empty()) return 0;
  // `best` is a copy of one alternative; the AlgebraPtr is shared, so
  // pointer identity recovers its index (estimates are parallel to
  // alternatives). Fall back to the cost winner.
  for (size_t i = 0; i < compiled.alternatives.size(); ++i) {
    if (compiled.alternatives[i].plan == compiled.best.plan &&
        i < compiled.estimates.size()) {
      return compiled.estimates[i].peak_breaker_bytes;
    }
  }
  if (compiled.cost_choice < compiled.estimates.size()) {
    return compiled.estimates[compiled.cost_choice].peak_breaker_bytes;
  }
  return 0;
}

std::shared_ptr<const engine::CompiledQuery> QueryService::CompileCached(
    const std::string& query_text, engine::PlanChoice choice,
    bool* cache_hit) {
  *cache_hit = false;
  const uint64_t version = engine_.store().version();
  // \x1f (unit separator) cannot appear in the enum digit, so the key is
  // collision-free.
  const std::string key =
      std::to_string(static_cast<int>(choice)) + '\x1f' + query_text;
  if (options_.plan_cache_capacity != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.store_version == version) {
      ++stats_.cache_hits;
      it->second.last_used = ++cache_tick_;
      *cache_hit = true;
      return it->second.compiled;
    }
    ++stats_.cache_misses;
  }
  // Compile outside the lock: compilation reads the store (a reader under
  // the single-writer contract) and can be slow; concurrent misses on the
  // same text just compile twice and the second insert wins.
  auto compiled = std::make_shared<const engine::CompiledQuery>(
      engine_.Compile(query_text, choice, options_.memory_budget_bytes));
  if (options_.plan_cache_capacity != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_.size() >= options_.plan_cache_capacity &&
        cache_.find(key) == cache_.end()) {
      auto oldest = cache_.begin();
      for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->second.last_used < oldest->second.last_used) oldest = it;
      }
      cache_.erase(oldest);
    }
    cache_[key] = CacheEntry{compiled, version, ++cache_tick_};
  }
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
  auto clamp_threads = [&](bool contended) -> unsigned {
    if (adm.degraded || contended) return 1;
    if (options_.max_threads_per_query == 0) return requested_threads;
    return requested_threads == 0
               ? options_.max_threads_per_query
               : std::min(requested_threads, options_.max_threads_per_query);
  };
  auto finish_admit = [&](std::unique_lock<std::mutex>& lock) {
    ++active_;
    reserved_ += adm.grant;
    adm.admitted = true;
    adm.threads = clamp_threads(!queue_.empty());
    ++stats_.admitted;
    if (adm.degraded) ++stats_.degraded;
    if (adm.queued) ++stats_.queued;
    stats_.peak_in_flight = std::max<uint64_t>(stats_.peak_in_flight, active_);
    stats_.peak_reserved_bytes =
        std::max(stats_.peak_reserved_bytes, reserved_);
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
    ++stats_.rejected_queue_full;
    adm.reject_code = engine::ErrorCode::kAdmissionRejected;
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
      ++stats_.cancelled;
      adm.reject_code = engine::ErrorCode::kCancelled;
      adm.reject_what = "cancelled while queued for admission";
      leave_queue();
      return adm;
    }
    if (control != nullptr && control->has_deadline() &&
        now >= control->deadline()) {
      ++stats_.deadline_expired;
      adm.reject_code = engine::ErrorCode::kDeadlineExceeded;
      adm.reject_what = "deadline expired while queued for admission";
      leave_queue();
      return adm;
    }
    if (now >= queue_deadline) {
      ++stats_.rejected_queue_deadline;
      adm.reject_code = engine::ErrorCode::kAdmissionRejected;
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

QueryResult QueryService::Execute(const std::string& query_text,
                                  QueryOptions q) {
  QueryResult r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
  }
  metrics_.GetCounter("nalq_queries_submitted_total").Add();
  const auto submit_time = Clock::now();
  // One trace log per query when tracing is on: its spans cover the whole
  // lifecycle — compile, admission wait, the engine's execute span and the
  // exchange's per-worker spans — and it is written as one Chrome
  // trace_event file per query at the end (including shed/failed queries:
  // those traces are the interesting ones).
  std::optional<obs::TraceLog> trace;
  if (!options_.trace_dir.empty()) trace.emplace();
  obs::TraceLog* trace_ptr = trace.has_value() ? &*trace : nullptr;
  auto write_trace = [&] {
    if (trace.has_value()) {
      trace->WriteFile(options_.trace_dir, "nalq-query");
    }
  };

  std::shared_ptr<const engine::CompiledQuery> compiled;
  try {
    obs::TraceLog::Span span(trace_ptr, "compile");
    compiled = CompileCached(query_text, q.choice, &r.cache_hit);
  } catch (const engine::Error& e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failed;
    }
    metrics_.GetCounter("nalq_queries_failed_total").Add();
    r.error_code = e.code();
    r.error_what = e.what();
    write_trace();
    return r;
  } catch (const std::exception& e) {
    // Parse/translate errors surface as std::runtime_error; the service
    // contract is structured results, so fold them into the plan-error
    // bucket rather than throwing at a concurrent caller.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failed;
    }
    metrics_.GetCounter("nalq_queries_failed_total").Add();
    r.error_code = engine::ErrorCode::kPlanError;
    r.error_what = e.what();
    write_trace();
    return r;
  }
  metrics_
      .GetCounter(r.cache_hit ? "nalq_plan_cache_hits_total"
                              : "nalq_plan_cache_misses_total")
      .Add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const double lookups =
        static_cast<double>(stats_.cache_hits + stats_.cache_misses);
    if (lookups > 0) {
      metrics_.GetGauge("nalq_plan_cache_hit_ratio")
          .Set(static_cast<double>(stats_.cache_hits) / lookups);
    }
  }

  // One deadline spans queue wait + run: arm the token now, before
  // admission can block. Engine::Run sees the armed token and leaves it
  // alone (it only applies the environment default to bare tokens).
  nal::QueryControl local_control;
  nal::QueryControl* control = q.control != nullptr ? q.control
                                                    : &local_control;
  const uint64_t deadline_ms =
      q.deadline_ms != 0 ? q.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms != 0) control->SetDeadlineMs(deadline_ms);

  const auto queue_deadline =
      submit_time + std::chrono::milliseconds(options_.queue_deadline_ms);
  Admission adm;
  {
    obs::TraceLog::Span span(trace_ptr, "admit");
    adm = Admit(Footprint(*compiled), q.threads, control, queue_deadline);
  }
  const auto admit_time = Clock::now();
  r.queued = adm.queued;
  r.degraded = adm.degraded;
  r.queue_seconds = Seconds(submit_time, admit_time);
  metrics_.GetHistogram("nalq_queue_seconds").Observe(r.queue_seconds);
  if (!adm.admitted) {
    switch (adm.reject_code) {
      case engine::ErrorCode::kCancelled:
        metrics_.GetCounter("nalq_queries_cancelled_total").Add();
        break;
      case engine::ErrorCode::kDeadlineExceeded:
        metrics_.GetCounter("nalq_queries_deadline_expired_total").Add();
        break;
      default:
        metrics_.GetCounter("nalq_queries_shed_total").Add();
        break;
    }
    r.error_code = adm.reject_code;
    r.error_what = std::move(adm.reject_what);
    write_trace();
    return r;
  }
  r.threads_granted = adm.threads;
  r.budget_granted = adm.grant;
  metrics_.GetCounter("nalq_queries_admitted_total").Add();
  if (adm.degraded) metrics_.GetCounter("nalq_queries_degraded_total").Add();
  metrics_.GetHistogram("nalq_grant_bytes")
      .Observe(static_cast<double>(adm.grant));

  // Profiling is on when the caller asked, when NALQ_PROFILE=1 (the engine
  // ORs that in), or when a slow-query threshold is armed — the profile
  // must already exist by the time the threshold trips.
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
    metrics_.GetCounter("nalq_queries_completed_total").Add();
    metrics_.GetCounter("nalq_spill_bytes_total")
        .Add(run.stats.spill.spilled_bytes);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
  } catch (const engine::Error& e) {
    r.error_code = e.code();
    r.error_what = e.what();
    switch (e.code()) {
      case engine::ErrorCode::kCancelled:
        metrics_.GetCounter("nalq_queries_cancelled_total").Add();
        break;
      case engine::ErrorCode::kDeadlineExceeded:
        metrics_.GetCounter("nalq_queries_deadline_expired_total").Add();
        break;
      default:
        metrics_.GetCounter("nalq_queries_failed_total").Add();
        break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    switch (e.code()) {
      case engine::ErrorCode::kCancelled:
        ++stats_.cancelled;
        break;
      case engine::ErrorCode::kDeadlineExceeded:
        ++stats_.deadline_expired;
        break;
      default:
        ++stats_.failed;
        break;
    }
  } catch (const std::exception& e) {
    r.error_code = engine::ErrorCode::kPlanError;
    r.error_what = e.what();
    metrics_.GetCounter("nalq_queries_failed_total").Add();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failed;
  }
  Release(adm.grant);
  const auto end_time = Clock::now();
  r.run_seconds = Seconds(admit_time, end_time);
  const double total_seconds = Seconds(submit_time, end_time);
  metrics_.GetHistogram("nalq_run_seconds").Observe(r.run_seconds);
  metrics_.GetHistogram("nalq_query_seconds").Observe(total_seconds);
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
  write_trace();
  return r;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return active_ == 0 && queue_.empty(); });
}

void QueryService::InvalidateCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

unsigned QueryService::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

uint64_t QueryService::reserved_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reserved_;
}

}  // namespace nalq::service
