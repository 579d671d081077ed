#include "engine/engine.h"

#include <filesystem>
#include <map>
#include <optional>

#include "nal/cursor.h"
#include "nal/env_knobs.h"
#include "nal/exchange.h"
#include "nal/spool.h"
#include "storage/persistent_store.h"
#include "opt/cardinality.h"
#include "opt/chooser.h"
#include "opt/parallel.h"
#include "xml/parser.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace nalq::engine {

const rewrite::Alternative* CompiledQuery::Find(
    std::string_view rule_substring) const {
  for (const rewrite::Alternative& alt : alternatives) {
    if (alt.rule.find(rule_substring) != std::string::npos) return &alt;
  }
  return nullptr;
}

void Engine::AddDocument(const std::string& name, std::string_view xml_text) {
  xml::Document doc = xml::ParseDocument(name, xml_text);
  if (!doc.dtd_text().empty()) {
    dtds_.Register(name, xml::Dtd::Parse(doc.dtd_text()));
  }
  store_.AddDocument(std::move(doc));
}

void Engine::RegisterDtd(const std::string& name, std::string_view dtd_text) {
  dtds_.Register(name, xml::Dtd::Parse(dtd_text));
  // A persisted store carries each document's DTD as internal-subset text
  // (storage::ManifestDoc::dtd) — an out-of-band registration must land in
  // the store too, or Persist would silently drop it and a warm attach
  // would translate without it.
  if (std::optional<xml::DocId> id = store_.Find(name)) {
    store_.SetDtdText(*id, std::string(dtd_text));
  }
  // DTDs feed translation (attribute typing), so compiled plans keyed on
  // the store version (the service's plan cache) must go stale too.
  store_.BumpVersion();
}

void Engine::AttachStore(const std::string& dir) {
  storage::PersistentStore::Options opts;
  opts.cache_limit_bytes = nal::EnvKnobU64("NALQ_STORE_CACHE_BYTES");
  std::unique_ptr<storage::PersistentStore> source =
      storage::PersistentStore::Open(dir, opts);
  // Register persisted DTDs before attaching: translation needs them and
  // must not fault whole documents in just to find their internal subsets.
  for (size_t i = 0; i < source->document_count(); ++i) {
    const std::string& dtd = source->document_dtd(i);
    if (!dtd.empty()) {
      dtds_.Register(source->document_name(i), xml::Dtd::Parse(dtd));
    }
  }
  store_.AttachSource(std::move(source));  // bumps the store version
}

void Engine::PersistStore(const std::string& dir) const {
  storage::Persist(store_, dir);
}

std::string Engine::EnvStoreDir() {
  return nal::EnvKnobString("NALQ_STORE_DIR");
}

CompiledQuery Engine::Compile(std::string_view query_text, PlanChoice choice,
                              uint64_t memory_budget_bytes) const {
  CompiledQuery out;
  out.choice = choice;
  out.ast = xquery::ParseQuery(query_text);
  out.normalized = xquery::Normalize(out.ast);
  out.nested_plan = xquery::Translate(out.normalized, &dtds_);
  rewrite::Unnester unnester(&dtds_);
  out.alternatives = unnester.AllAlternatives(out.nested_plan);
  opt::ChooseOptions copts;
  copts.memory_budget_bytes = memory_budget_bytes;
  // Estimation reads (and lazily builds) the store's index and statistics,
  // so Compile participates in the single-writer contract exactly like an
  // evaluation: loading documents concurrently with a compile is a misuse
  // the lease makes detectable (xml/store.h).
  xml::StoreReadLease lease(store_);
  opt::Choice chosen = opt::ChoosePlan(store_, out.alternatives, copts);
  out.estimates = std::move(chosen.estimates);
  out.cost_choice = chosen.index;
  switch (choice) {
    case PlanChoice::kCost:
      out.best = out.alternatives[out.cost_choice];
      out.best_estimate = out.estimates[out.cost_choice];
      break;
    case PlanChoice::kRulePriority: {
      // A fresh plan, not an element of `alternatives`: estimate it alone.
      out.best = unnester.Best(out.nested_plan);
      opt::CostModel model(memory_budget_bytes);
      out.best_estimate =
          opt::CardinalityEstimator(store_, model).EstimatePlan(*out.best.plan);
      break;
    }
    case PlanChoice::kManual:
      out.best = out.alternatives.front();
      out.best_estimate = out.estimates.front();
      break;
  }
  return out;
}

RunResult Engine::Run(const nal::AlgebraPtr& plan, ExecMode mode,
                      PathMode path_mode, unsigned threads,
                      uint64_t memory_budget_bytes, uint64_t deadline_ms,
                      nal::QueryControl* control,
                      const RunInstrumentation* instr) const {
  nal::Evaluator evaluator(store_);
  evaluator.set_path_mode(path_mode == PathMode::kIndexed
                              ? xml::PathEvalMode::kIndexed
                              : xml::PathEvalMode::kScan);
  // Observability wiring (src/obs/): an explicit instrumentation request
  // wins; the environment knobs fill in what the caller left off, so
  // NALQ_PROFILE=1 / NALQ_TRACE_DIR work on any existing call site. Both
  // paths are validated before the run starts — a malformed knob is a
  // kPlanError, never a silently un-profiled run.
  const bool profiling = (instr != nullptr && instr->profile) ||
                         nal::EnvKnobBool("NALQ_PROFILE");
  obs::TraceLog* trace = instr != nullptr ? instr->trace : nullptr;
  std::optional<obs::TraceLog> own_trace;
  std::string trace_dir;
  if (trace == nullptr) {
    trace_dir = nal::EnvKnobString("NALQ_TRACE_DIR");
    if (!trace_dir.empty()) {
      if (!std::filesystem::is_directory(trace_dir)) {
        throw Error(ErrorCode::kPlanError,
                    "malformed environment knob NALQ_TRACE_DIR=\"" +
                        trace_dir + "\" (not a usable directory)",
                    0, trace_dir, "engine");
      }
      own_trace.emplace();
      trace = &*own_trace;
    }
  }
  evaluator.set_trace(trace);
  std::optional<obs::ProfileCollector> collector;
  std::map<const nal::AlgebraOp*, opt::OpEstimate> node_estimates;
  if (profiling) {
    collector.emplace(*plan);
    evaluator.set_profile(&*collector);
    // Per-node optimizer row estimates from the same estimator the plan
    // chooser ran — rows are budget-independent, so the root estimate
    // equals the chosen alternative's PlanEstimate::rows. The walk is
    // plan-sized (cheap) and reads store statistics, hence the lease.
    xml::StoreReadLease lease(store_);
    opt::CostModel model(memory_budget_bytes);
    opt::CardinalityEstimator estimator(store_, model);
    estimator.set_node_recorder(&node_estimates);
    estimator.EstimatePlan(*plan);
  }
  // Lifecycle wiring: an explicit deadline wins, the NALQ_DEADLINE_MS
  // environment default applies otherwise (mirroring the budget knob) — but
  // never to a caller token that already carries a deadline: the query
  // service arms its tokens at submission so one deadline spans queue wait
  // plus run, and re-arming here would silently refund the queue time. A
  // deadline without a caller token gets a run-local one; the token is
  // shared by pointer with every executor thread (see nal/query_control.h).
  nal::QueryControl local_control;
  uint64_t effective_deadline = deadline_ms;
  if (effective_deadline == 0 &&
      (control == nullptr || !control->has_deadline())) {
    effective_deadline = nal::QueryControl::EnvDeadlineMs();
  }
  if (control == nullptr && effective_deadline != 0) {
    control = &local_control;
  }
  if (control != nullptr && effective_deadline != 0) {
    control->SetDeadlineMs(effective_deadline);
  }
  evaluator.set_control(control);
  RunResult result;
  {
    obs::TraceLog::Span execute_span(trace, "execute");
    switch (mode) {
    case ExecMode::kStreaming:
    case ExecMode::kParallel: {
      // One spool context carries the run's budget for either executor.
      nal::SpoolContext spool(
          nal::SpoolContext::ResolveBudgetBytes(memory_budget_bytes));
      // Cost-driven placement (opt/parallel.h) prices the exchange's width;
      // dop 1 runs serial streaming in either mode. The same estimation
      // walk yields the per-breaker grace admission row hints, which size
      // partition counts from expected build volume instead of the static
      // budget/32KB rule — all a budgeted streaming run needs
      // (max_threads=1 skips the width search). An unlimited streaming run
      // needs neither.
      std::optional<xml::StoreReadLease> lease;
      opt::ParallelPlacement place;
      if (mode == ExecMode::kParallel || spool.enabled()) {
        lease.emplace(store_);
        place = opt::ChooseParallelPlacement(
            store_, *plan, mode == ExecMode::kParallel ? threads : 1,
            spool.budget().limit_bytes());
        spool.set_row_hints(&place.breaker_build_rows);
      }
      if (place.dop == 1) {
        result.root_tuples =
            nal::DrainStreaming(evaluator, *plan, &result.exec, &spool);
      } else {
        nal::ParallelOptions options;
        options.threads = place.dop;
        result.root_tuples = nal::DrainParallel(evaluator, *plan, options,
                                                &result.exec, &spool);
      }
      break;
    }
    case ExecMode::kMaterializing:
      result.root_tuples = evaluator.Eval(*plan).size();
      break;
    }
  }
  result.output = evaluator.output();
  result.stats = evaluator.stats();
  if (profiling) {
    std::map<const nal::AlgebraOp*, double> est_rows;
    for (const auto& [op, e] : node_estimates) est_rows[op] = e.rows;
    result.profile = obs::BuildQueryProfile(*plan, *collector, &est_rows);
  }
  if (own_trace.has_value()) {
    // Engine-owned trace: write it out here (the directory was validated
    // above; a write failure is reported as an empty path by WriteFile and
    // deliberately does not fail the query).
    own_trace->WriteFile(trace_dir, "nalq-trace");
  }
  return result;
}

RunResult Engine::RunQuery(std::string_view query_text, ExecMode mode,
                           PathMode path_mode, unsigned threads,
                           uint64_t memory_budget_bytes, PlanChoice choice,
                           uint64_t deadline_ms, nal::QueryControl* control,
                           const RunInstrumentation* instr) const {
  // Resolve the budget the executors will actually run under so the plan
  // choice sees it too (a build side that spills at run time should be
  // charged for it at choice time).
  CompiledQuery q = Compile(
      query_text, choice,
      nal::SpoolContext::ResolveBudgetBytes(memory_budget_bytes));
  return Run(q.best.plan, mode, path_mode, threads, memory_budget_bytes,
             deadline_ms, control, instr);
}

}  // namespace nalq::engine
