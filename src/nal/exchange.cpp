#include "nal/exchange.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "nal/scheduler.h"
#include "nal/spool.h"

namespace nalq::nal {

// Budget-aware degree of parallelism. Workers buffer nothing the run's
// accountant sees, but each carries in-flight state — its dispatch-window
// chunk and result packet. Clamping the worker count to budget /
// kMinWorkerBudgetBytes keeps that uncharged per-worker footprint
// proportional to the budget, so a high `threads` request cannot
// over-commit it.
unsigned ResolveParallelThreads(unsigned threads, uint64_t budget_bytes) {
  unsigned dop = threads != 0
                     ? threads
                     : std::max(1u, std::thread::hardware_concurrency());
  if (budget_bytes != 0) {
    uint64_t cap = budget_bytes / kMinWorkerBudgetBytes;
    if (cap == 0) cap = 1;
    if (dop > cap) dop = static_cast<unsigned>(cap);
  }
  return dop;
}

namespace {

bool IsExpanding(const AlgebraOp& op) {
  return op.kind == OpKind::kUnnestMap || op.kind == OpKind::kUnnest;
}

/// The leaf of a worker's cursor chain: replays the tuples of the chunk
/// currently assigned to the pipeline. It re-emits already-counted tuples
/// (the producer's operator counted them), so Next never touches
/// tuples_produced.
class PartitionCursor final : public Cursor {
 public:
  void Reset(std::vector<Tuple> tuples) {
    tuples_ = std::move(tuples);
    pos_ = 0;
  }
  void Open() override { pos_ = 0; }
  bool Next(Tuple* out) override {
    if (pos_ >= tuples_.size()) return false;
    *out = std::move(tuples_[pos_++]);
    return true;
  }
  void Close() override {
    tuples_.clear();
    pos_ = 0;
  }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// One worker's clone of the partitionable segment: a private Evaluator
/// (own EvalStats, own scratch caches, same store and path mode) driving a
/// private cursor chain over the shared plan nodes. Its ExecContext carries
/// no SpoolContext (see ExecContext::spool). Heap-allocated and never
/// moved, because ctx points into the object.
struct WorkerPipeline {
  std::unique_ptr<Evaluator> ev;
  Tuple env;  ///< the top-level empty outer binding
  ExecContext ctx;
  PartitionCursor* leaf = nullptr;  ///< borrowed from `pipeline`
  CursorPtr pipeline;
  /// Worker-private profile clone (merged by MergeCursor::Close alongside
  /// the stats fold); null when the run is not profiling.
  std::unique_ptr<obs::ProfileCollector> profile;
};

/// State shared between the consumer thread and the chunk tasks. Owned by a
/// shared_ptr so in-flight tasks stay valid even if the cursor is destroyed
/// early (the destructor additionally waits for them, protecting the
/// store/plan references inside the pipelines).
struct ExchangeState {
  std::mutex mu;
  std::condition_variable cv;

  /// Result packets by ticket; consumed strictly in ticket order.
  std::map<uint64_t, std::vector<Tuple>> completed;
  uint64_t dispatched = 0;
  uint64_t finished = 0;
  /// Per-ticket worker exceptions. The consumer rethrows the error of the
  /// LOWEST ticket it reaches — ticket order, not wall-clock arrival order —
  /// so which of several concurrent worker failures surfaces is
  /// deterministic (stable under TSan/any interleaving).
  std::map<uint64_t, std::exception_ptr> errors;
  /// Latched on the first worker failure: stops chunk dispatch, and tasks
  /// that have not started yet skip their work (they still publish an empty
  /// packet so the ticket/finished accounting closes and nothing hangs).
  std::atomic<bool> abort{false};

  /// Pipeline pool. The dispatch window (dispatched - finished < dop)
  /// guarantees a starting task always finds an idle pipeline.
  std::vector<std::unique_ptr<WorkerPipeline>> pipelines;
  std::vector<WorkerPipeline*> idle;
};

void RunChunkTask(const std::shared_ptr<ExchangeState>& state, uint64_t ticket,
                  std::vector<Tuple> tuples) {
  WorkerPipeline* wp = nullptr;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    wp = state->idle.back();
    state->idle.pop_back();
  }
  std::vector<Tuple> packet;
  std::exception_ptr error;
  if (!state->abort.load(std::memory_order_acquire)) {
    obs::TraceLog::Span span(wp->ev->trace(), "exchange.chunk");
    try {
      wp->leaf->Reset(std::move(tuples));
      // Re-opening per chunk is sound precisely because segment operators
      // are per-tuple: their Open only resets within-tuple iteration state,
      // so the concatenation of per-chunk runs equals one run over the
      // whole stream.
      wp->pipeline->Open();
      Tuple t;
      while (wp->pipeline->Next(&t)) packet.push_back(std::move(t));
      wp->pipeline->Close();
    } catch (...) {
      // A failed chunk still runs the full cleanup path: the exception
      // unwound through the cursor chain's RAII, and the packet/idle
      // bookkeeping below closes normally.
      error = std::current_exception();
      packet.clear();
      state->abort.store(true, std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->idle.push_back(wp);
    if (error != nullptr) state->errors.emplace(ticket, error);
    state->completed.emplace(ticket, std::move(packet));
    ++state->finished;
  }
  state->cv.notify_all();
}

/// The order-preserving merge side of the exchange, and the cursor the rest
/// of the (serial) plan sees in place of the segment. Next() interleaves
/// three roles on the consumer thread: pull the producer and dispatch
/// chunks, wait for workers, and re-emit completed packets in ticket order.
/// All main-Evaluator use (producer subtree, operators above the exchange)
/// therefore stays on one thread; workers only ever touch their own
/// evaluators.
class MergeCursor final : public Cursor {
 public:
  MergeCursor(const PartitionPoint& point, ExecContext& ctx,
              const ParallelOptions& options)
      : point_(point), ctx_(ctx), options_(options) {}

  ~MergeCursor() override { WaitForTasks(); }

  void Open() override {
    dop_ = ResolveParallelThreads(options_.threads,
                                  ctx_.spool->budget().limit_bytes());
    Scheduler::Global().EnsureThreads(dop_);
    state_ = std::make_shared<ExchangeState>();
    source_ = MakeCursor(*point_.source, ctx_);
    source_->Open();
    source_open_ = true;
    source_done_ = false;
    if (ctx_.stream != nullptr && dop_ > ctx_.stream->exchange_dop) {
      ctx_.stream->exchange_dop = dop_;
    }
    for (unsigned w = 0; w < dop_; ++w) {
      auto wp = std::make_unique<WorkerPipeline>();
      wp->ev = std::make_unique<Evaluator>(ctx_.ev->store());
      wp->ev->set_path_mode(ctx_.ev->path_mode());
      // Workers share the run's cancellation token: one RequestCancel (or
      // the deadline tripping on any thread) stops every chunk task at its
      // next poll.
      wp->ev->set_control(ctx_.ev->control());
      // Each worker profiles into a private clone of the run's collector
      // (folded at Close, like the stats), so workers never contend on the
      // profile. The trace log is one shared thread-safe sink.
      if (ctx_.ev->profile() != nullptr) {
        wp->profile = std::make_unique<obs::ProfileCollector>(
            ctx_.ev->profile()->CloneEmpty());
        wp->ev->set_profile(wp->profile.get());
      }
      wp->ev->set_trace(ctx_.ev->trace());
      wp->ctx = ExecContext{wp->ev.get(), &wp->env};
      auto leaf = std::make_unique<PartitionCursor>();
      wp->leaf = leaf.get();
      CursorPtr chain = std::move(leaf);
      for (size_t i = point_.segment.size(); i-- > 0;) {
        chain = MakeCursorOver(*point_.segment[i], wp->ctx, std::move(chain));
      }
      wp->pipeline = std::move(chain);
      state_->idle.push_back(wp.get());
      state_->pipelines.push_back(std::move(wp));
    }
    next_ticket_ = 0;
    total_dispatched_ = 0;
    current_.clear();
    cpos_ = 0;
  }

  bool Next(Tuple* out) override {
    while (true) {
      if (cpos_ < current_.size()) {
        *out = std::move(current_[cpos_++]);
        return true;
      }
      if (!FetchNextPacket()) return false;
    }
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    WaitForTasks();
    CloseSource();
    if (ctx_.stream != nullptr) {
      for (const auto& [ticket, n] : chunk_input_sizes_) {
        ctx_.stream->OnRelease(n);
      }
    }
    chunk_input_sizes_.clear();
    if (state_ != nullptr) {
      // Fold every worker's counters into the main evaluator — the merged
      // stats are what makes a parallel run report exactly like a serial
      // one.
      for (const auto& wp : state_->pipelines) {
        ctx_.ev->stats() += wp->ev->stats();
        if (wp->profile != nullptr && ctx_.ev->profile() != nullptr) {
          ctx_.ev->profile()->MergeFrom(*wp->profile);
        }
      }
    }
  }

 private:
  void WaitForTasks() {
    if (state_ == nullptr) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock,
                    [&] { return state_->finished == state_->dispatched; });
  }

  void CloseSource() {
    if (source_open_) {
      source_->Close();
      source_open_ = false;
    }
  }

  /// Pulls the next chunk from the producer and submits it to the
  /// scheduler. False if the source just ran dry.
  bool DispatchOne() {
    std::vector<Tuple> tuples;
    Tuple t;
    uint32_t chunk = options_.chunk_tuples == 0 ? 1 : options_.chunk_tuples;
    bool more = true;
    while (tuples.size() < chunk && (more = source_->Next(&t))) {
      tuples.push_back(std::move(t));
    }
    if (!more) {
      // Record exhaustion the moment Next returns false — cursors are
      // single-use (cursor.h) and must not be pulled past their end on a
      // later DispatchOne.
      source_done_ = true;
      CloseSource();
    }
    if (tuples.empty()) return false;
    if (ctx_.stream != nullptr) ctx_.stream->OnChunkDispatch(tuples.size());
    uint64_t ticket = total_dispatched_++;
    chunk_input_sizes_[ticket] = tuples.size();
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      ++state_->dispatched;
    }
    std::shared_ptr<ExchangeState> state = state_;
    Scheduler::Global().Submit(
        [state, ticket, chunk = std::move(tuples)]() mutable {
          RunChunkTask(state, ticket, std::move(chunk));
        });
    return true;
  }

  /// Advances to the packet of next_ticket_, producing/dispatching or
  /// waiting as needed. False when every ticket has been consumed.
  bool FetchNextPacket() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(state_->mu);
        // The error check precedes the packet check, and both go strictly
        // by next_ticket_: packets before the first failing ticket are
        // emitted normally, then that ticket's error is rethrown —
        // regardless of which worker failed first on the wall clock.
        auto eit = state_->errors.find(next_ticket_);
        if (eit != state_->errors.end()) {
          std::exception_ptr error = eit->second;
          lock.unlock();
          std::rethrow_exception(error);
        }
        auto it = state_->completed.find(next_ticket_);
        if (it != state_->completed.end()) {
          current_ = std::move(it->second);
          state_->completed.erase(it);
          lock.unlock();
          cpos_ = 0;
          auto size_it = chunk_input_sizes_.find(next_ticket_);
          if (size_it != chunk_input_sizes_.end()) {
            if (ctx_.stream != nullptr) ctx_.stream->OnRelease(size_it->second);
            chunk_input_sizes_.erase(size_it);
          }
          ++next_ticket_;
          return true;
        }
      }
      // A latched abort stops dispatch: the failing ticket is already in
      // flight and the consumer only needs to drain up to it.
      bool aborted = state_->abort.load(std::memory_order_acquire);
      if (!aborted && !source_done_) {
        bool room;
        {
          std::lock_guard<std::mutex> lock(state_->mu);
          room = state_->dispatched - state_->finished < dop_;
        }
        if (room) {
          DispatchOne();
          continue;
        }
      } else if (next_ticket_ >= total_dispatched_) {
        return false;
      }
      // Workers are busy on every pipeline (or hold the ticket we need):
      // wait for a completion, which frees a pipeline and may be ours.
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [&] {
        return state_->completed.count(next_ticket_) != 0 ||
               (!state_->abort.load(std::memory_order_relaxed) &&
                !source_done_ &&
                state_->dispatched - state_->finished < dop_);
      });
    }
  }

  const PartitionPoint point_;
  ExecContext& ctx_;
  const ParallelOptions options_;
  unsigned dop_ = 1;

  std::shared_ptr<ExchangeState> state_;
  CursorPtr source_;
  bool source_open_ = false;
  bool source_done_ = false;
  bool closed_ = false;

  // Consumer-thread bookkeeping (never touched by tasks).
  uint64_t total_dispatched_ = 0;
  uint64_t next_ticket_ = 0;
  std::map<uint64_t, uint64_t> chunk_input_sizes_;
  std::vector<Tuple> current_;
  size_t cpos_ = 0;
};

}  // namespace

std::optional<PartitionPoint> FindPartitionPoint(const AlgebraOp& root) {
  std::vector<const AlgebraOp*> spine;
  for (const AlgebraOp* op = &root; op != nullptr;
       op = op->children.empty() ? nullptr : op->child(0).get()) {
    spine.push_back(op);
  }
  // Deepest partitionable operator, extended upward to a maximal run —
  // deepest because that is where the tuple stream is widest (right above
  // the unnest that expands the document scan).
  int bottom = static_cast<int>(spine.size()) - 1;
  while (bottom >= 0 && !IsPartitionableOp(*spine[bottom])) --bottom;
  if (bottom < 0) return std::nullopt;
  int top = bottom;
  while (top > 0 && IsPartitionableOp(*spine[top - 1])) --top;
  // Segment operators are unary, so the spine continues below `bottom`.
  // Demote non-expanding tail operators (□, the doc() binding χ, σ...)
  // into the source until it is Υ/μ-rooted: chunking only pays on a
  // producer that actually fans out into many tuples.
  int src = bottom + 1;
  while (!IsExpanding(*spine[src])) {
    if (bottom < top) return std::nullopt;
    src = bottom--;
  }
  if (bottom < top) return std::nullopt;
  PartitionPoint point;
  point.top = spine[top];
  point.segment.assign(spine.begin() + top, spine.begin() + bottom + 1);
  point.source = spine[src];
  return point;
}

CursorPtr MakeExchangeCursor(const PartitionPoint& cut, ExecContext& ctx) {
  return std::make_unique<MergeCursor>(cut, ctx, *ctx.parallel);
}

}  // namespace nalq::nal
