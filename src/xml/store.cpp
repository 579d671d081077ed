#include "xml/store.h"

#include <cassert>
#include <utility>

#include "xml/parser.h"

namespace nalq::xml {

DocId Store::UpsertSlot(const std::string& name) {
  DocId id;
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    id = it->second;
  } else {
    id = static_cast<DocId>(docs_.size());
    docs_.push_back(std::make_unique<DocSlot>());
    docs_[id]->name = name;
    by_name_.emplace(name, id);
  }
  // Invalidate the structural index: the slot either belongs to the replaced
  // document or is fresh. Rebuilt lazily by index().
  if (indexes_.size() <= id) {
    indexes_.reserve(docs_.size());
    while (indexes_.size() <= id) {
      indexes_.push_back(std::make_unique<IndexSlot>());
    }
  }
  indexes_[id]->ready.store(nullptr, std::memory_order_release);
  indexes_[id]->index.reset();
  indexes_[id]->retired.clear();  // writer-exclusive: no reader holds them
  // Statistics (xml/stats.h) share the index's lifecycle.
  if (stats_.size() <= id) {
    stats_.reserve(docs_.size());
    while (stats_.size() <= id) {
      stats_.push_back(std::make_unique<StatsSlot>());
    }
  }
  stats_[id]->ready.store(nullptr, std::memory_order_release);
  stats_[id]->stats.reset();
  stats_[id]->retired.clear();
  return id;
}

DocId Store::AddDocument(Document doc) {
  // Single-writer contract: replacing a document resets its index slot, so
  // a concurrently open cursor could keep scanning a freed index. Catch the
  // misuse in Debug builds; the contract itself is documented in store.h.
  assert(open_readers() == 0 &&
         "Store::AddDocument while cursors are open: loading and evaluation "
         "must not overlap (see single-writer contract in xml/store.h)");
  DocId id = UpsertSlot(doc.name());
  DocSlot& slot = *docs_[id];
  // An eagerly added document detaches the slot from any lazy source: the
  // in-memory content wins and must never be evicted back to disk state.
  slot.ready.store(nullptr, std::memory_order_release);
  slot.doc = std::make_unique<Document>(std::move(doc));
  slot.lazy = false;
  slot.pinned = true;
  // Pre-size the string-value memo while we are still writer-exclusive, so
  // parallel readers never race a lazy grow (xml/node.h).
  slot.doc->PrepareSharedReads();
  slot.ready.store(slot.doc.get(), std::memory_order_release);
  BumpVersion();
  return id;
}

void Store::AttachSource(std::unique_ptr<DocumentSource> source) {
  assert(open_readers() == 0 &&
         "Store::AttachSource while cursors are open: loading and evaluation "
         "must not overlap (see single-writer contract in xml/store.h)");
  assert(source_ == nullptr && "a Store holds at most one DocumentSource");
  source_ = std::move(source);
  for (size_t i = 0; i < source_->document_count(); ++i) {
    DocId id = UpsertSlot(source_->document_name(i));
    DocSlot& slot = *docs_[id];
    slot.ready.store(nullptr, std::memory_order_release);
    slot.doc.reset();
    slot.lazy = true;
    slot.pinned = false;
    slot.source_index = i;
  }
  BumpVersion();
}

const Document& Store::FaultIn(DocId id) const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  DocSlot& slot = *docs_[id];
  const Document* doc = slot.ready.load(std::memory_order_acquire);
  if (doc != nullptr) return *doc;  // lost the race: already resident
  assert(slot.lazy && source_ != nullptr &&
         "non-resident document without a source to fault it in from");
  auto loaded =
      std::make_unique<Document>(source_->LoadDocument(slot.source_index));
  // Pre-size the string-value memo before publication so concurrent
  // readers of the freshly faulted document never race a lazy grow.
  loaded->PrepareSharedReads();
  slot.doc = std::move(loaded);
  slot.last_fault = ++fault_clock_;
  slot.ready.store(slot.doc.get(), std::memory_order_release);
  return *slot.doc;
}

void Store::EvictOverLimit() const {
  const uint64_t limit = source_->cache_limit_bytes();
  if (limit == 0) return;
  // Excluding reader registration for the duration makes the reader-free
  // check authoritative: the caller's unlocked open_readers() probe is only
  // a fast path, because a concurrent StoreReadLease could complete
  // BeginRead between that probe and the frees below and start
  // dereferencing a document this loop is about to destroy. Under the
  // lock, a racing lease either registered first (the re-check sees it and
  // skips eviction) or blocks in BeginRead until eviction finishes and
  // faults evicted documents back in. A concurrent PrepareForRead reads
  // resident documents in its stale-repair loops BEFORE its lease
  // registers, so the reader count cannot protect it; those loops run
  // under index_build_mu_, taken here first. Lock order: index_build_mu_,
  // reader_reg_mu_, fault_mu_ (FaultIn takes fault_mu_ alone, BeginRead
  // reader_reg_mu_ alone, index() index_build_mu_ alone — no cycle).
  std::lock_guard<std::mutex> build_lock(index_build_mu_);
  std::lock_guard<std::mutex> reg_lock(reader_reg_mu_);
  if (open_readers() != 0) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  while (source_->resident_bytes() > limit) {
    DocSlot* victim = nullptr;
    for (const auto& slot : docs_) {
      if (!slot->lazy || slot->pinned) continue;
      if (slot->ready.load(std::memory_order_acquire) == nullptr) continue;
      if (victim == nullptr || slot->last_fault < victim->last_fault) {
        victim = slot.get();
      }
    }
    if (victim == nullptr) break;  // everything left is pinned or gone
    // Reader-free (re-verified under reader_reg_mu_ above, which BeginRead
    // also takes), so the document can be freed outright — no retirement
    // needed. The index and statistics
    // slots stay published: reconstruction determinism (document_source.h)
    // keeps them valid for the refaulted incarnation, and version() is
    // deliberately not bumped (content unchanged, cached plans stay good).
    victim->ready.store(nullptr, std::memory_order_release);
    victim->doc.reset();
    source_->UnloadDocument(victim->source_index);
  }
}

void Store::PrepareForRead() const {
  // Lease-boundary stale repair (see the file comment in store.h). Other
  // evaluations may already be running; for them every document is
  // unchanged since their own lease (mutation asserts reader-free), so
  // everything below is a no-op for their state — sizes already match,
  // no slot tests stale, nothing to reclaim — and never disturbs their
  // lock-free read paths. Non-resident documents are skipped throughout:
  // they cannot be stale (eviction requires an unmutated, unpinned slot)
  // and faulting them in just to check would defeat lazy residency.
  {
    std::lock_guard<std::mutex> lock(index_build_mu_);
    for (DocId id = 0; id < docs_.size(); ++id) {
      const Document* doc = docs_[id]->ready.load(std::memory_order_acquire);
      if (doc != nullptr) doc->PrepareSharedReads();
      if (id >= indexes_.size()) continue;
      IndexSlot& slot = *indexes_[id];
      const DocumentIndex* ready = slot.ready.load(std::memory_order_acquire);
      if (doc != nullptr && ready != nullptr &&
          ready->built_node_count() != doc->node_count()) {
        // Mutated since the build: drop the stale index now, while no new
        // reader has started, so index() below only ever performs
        // null → build-once transitions during evaluation.
        slot.ready.store(nullptr, std::memory_order_release);
        slot.retired.push_back(std::move(slot.index));
      }
      if (open_readers() == 0) slot.retired.clear();
    }
    std::lock_guard<std::mutex> stats_lock(stats_build_mu_);
    for (DocId id = 0; id < docs_.size() && id < stats_.size(); ++id) {
      const Document* doc = docs_[id]->ready.load(std::memory_order_acquire);
      StatsSlot& slot = *stats_[id];
      const DocumentStats* ready = slot.ready.load(std::memory_order_acquire);
      if (doc != nullptr && ready != nullptr &&
          ready->built_node_count() != doc->node_count()) {
        slot.ready.store(nullptr, std::memory_order_release);
        slot.retired.push_back(std::move(slot.stats));
      }
      if (open_readers() == 0) slot.retired.clear();
    }
  }
  // The open_readers() probe is only a fast path — EvictOverLimit
  // re-verifies it under reader_reg_mu_, which BeginRead also takes, so a
  // lease completing registration concurrently can never lose a resident
  // document it is about to read.
  if (source_ != nullptr && open_readers() == 0) EvictOverLimit();
}

const DocumentIndex& Store::index(DocId id) const {
  assert(id < indexes_.size());
  IndexSlot& slot = *indexes_[id];
  const Document& doc = document(id);  // faults in if lazily attached
  // Hot path: one acquire-load. The node-count check catches a document
  // mutated in place after the build (grown via the non-const accessor);
  // under the single-writer contract every reader of the mutated document
  // sees the mismatch and funnels into the rebuild below.
  const DocumentIndex* ready = slot.ready.load(std::memory_order_acquire);
  if (ready != nullptr && ready->built_node_count() == doc.node_count()) {
    return *ready;
  }
  std::lock_guard<std::mutex> lock(index_build_mu_);
  ready = slot.ready.load(std::memory_order_acquire);
  if (ready == nullptr || ready->built_node_count() != doc.node_count()) {
    // Retire (don't free) a stale index: a concurrent reader may have
    // loaded the old pointer just before we got here. Under the lease
    // discipline this branch only sees `ready == nullptr` during an
    // evaluation (PrepareForRead dropped stale slots at the boundary), so
    // retirement is a safety net for leaseless single-threaded use.
    if (slot.index != nullptr) slot.retired.push_back(std::move(slot.index));
    // A persisted index beats an O(n) build. Only unpinned lazy slots
    // qualify — a pinned slot may have been mutated since persist.
    std::unique_ptr<DocumentIndex> loaded;
    const DocSlot& dslot = *docs_[id];
    if (source_ != nullptr && dslot.lazy && !dslot.pinned) {
      loaded = source_->LoadIndex(dslot.source_index, doc);
    }
    slot.index = loaded != nullptr ? std::move(loaded)
                                   : std::make_unique<DocumentIndex>(doc);
    ready = slot.index.get();
    slot.ready.store(ready, std::memory_order_release);
  }
  return *ready;
}

const DocumentStats& Store::stats(DocId id) const {
  assert(id < stats_.size());
  StatsSlot& slot = *stats_[id];
  const Document& doc = document(id);  // faults in if lazily attached
  const DocumentStats* ready = slot.ready.load(std::memory_order_acquire);
  if (ready != nullptr && ready->built_node_count() == doc.node_count()) {
    return *ready;
  }
  // Force the index build before taking the stats mutex (index() takes its
  // own build mutex; nesting the two would order them arbitrarily across
  // call sites).
  const DocumentIndex& idx = index(id);
  std::lock_guard<std::mutex> lock(stats_build_mu_);
  ready = slot.ready.load(std::memory_order_acquire);
  if (ready == nullptr || ready->built_node_count() != doc.node_count()) {
    if (slot.stats != nullptr) slot.retired.push_back(std::move(slot.stats));
    std::unique_ptr<DocumentStats> loaded;
    const DocSlot& dslot = *docs_[id];
    if (source_ != nullptr && dslot.lazy && !dslot.pinned) {
      loaded = source_->LoadStats(dslot.source_index, doc);
    }
    slot.stats = loaded != nullptr ? std::move(loaded)
                                   : std::make_unique<DocumentStats>(doc, idx);
    ready = slot.stats.get();
    slot.ready.store(ready, std::memory_order_release);
  }
  return *ready;
}

DocId Store::AddDocumentText(std::string name, std::string_view xml_text) {
  return AddDocument(ParseDocument(std::move(name), xml_text));
}

std::optional<DocId> Store::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? std::nullopt
                              : std::optional<DocId>(it->second);
}

}  // namespace nalq::xml
