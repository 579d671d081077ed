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
  // Statistics (xml/stats.h) share the index's lifecycle.
  if (stats_.size() <= id) {
    stats_.reserve(docs_.size());
    while (stats_.size() <= id) {
      stats_.push_back(std::make_unique<StatsSlot>());
    }
  }
  stats_[id]->ready.store(nullptr, std::memory_order_release);
  stats_[id]->stats.reset();
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
  // in-memory content wins and must never be evicted back to disk state. A
  // replaced resident attached document gives its residency charge back;
  // its fault_order_ entry stays and is skipped once the slot is eager.
  slot.ready.store(nullptr, std::memory_order_release);
  if (slot.lazy && slot.doc != nullptr) {
    std::lock_guard<std::mutex> lock(fault_mu_);
    source_->UnloadDocument(slot.source_index);
  }
  slot.dtd_text = doc.dtd_text();
  slot.doc = std::make_unique<Document>(std::move(doc));
  slot.lazy = false;
  // Trim the arrays and size the atom table before publication: AtomOf
  // requires it, atoms view the arena, and parallel readers then never race
  // a resize (xml/node.h).
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
    slot.dtd_text = source_->document_dtd(i);
    slot.lazy = true;
    slot.source_index = i;
  }
  BumpVersion();
}

void Store::SetDtdText(DocId id, std::string dtd_text) {
  assert(open_readers() == 0 &&
         "Store::SetDtdText while cursors are open: loading and evaluation "
         "must not overlap (see single-writer contract in xml/store.h)");
  docs_[id]->dtd_text = std::move(dtd_text);
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
  // Trim and size before publication, as AddDocument does.
  loaded->PrepareSharedReads();
  slot.doc = std::move(loaded);
  fault_order_.push_back(id);
  slot.ready.store(slot.doc.get(), std::memory_order_release);
  return *slot.doc;
}

void Store::BeginRead() const {
  std::lock_guard<std::mutex> lock(reader_reg_mu_);
  if (source_ != nullptr && open_readers() == 0) EvictOverLimit();
  open_readers_.fetch_add(1, std::memory_order_relaxed);
}

void Store::EvictOverLimit() const {
  const uint64_t limit = source_->cache_limit_bytes();
  if (limit == 0) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  while (source_->resident_bytes() > limit && !fault_order_.empty()) {
    DocSlot& victim = *docs_[fault_order_.front()];
    fault_order_.pop_front();
    if (!victim.lazy) continue;  // made eager by AddDocument since its fault
    // Reader-free (BeginRead holds reader_reg_mu_), so the document can be
    // freed outright. The index and statistics slots stay published: a
    // refault reads the same bytes (document_source.h), so they stay valid
    // for the refaulted incarnation, and version() is deliberately not
    // bumped (content unchanged, cached plans stay good).
    victim.ready.store(nullptr, std::memory_order_release);
    victim.doc.reset();
    source_->UnloadDocument(victim.source_index);
  }
}

const DocumentIndex& Store::index(DocId id) const {
  assert(id < indexes_.size());
  IndexSlot& slot = *indexes_[id];
  // Hot path: one acquire-load. Stored documents never change, so a
  // published index stays valid until AddDocument resets the slot.
  const DocumentIndex* ready = slot.ready.load(std::memory_order_acquire);
  if (ready != nullptr) return *ready;
  const Document& doc = document(id);  // faults in if lazily attached
  std::lock_guard<std::mutex> lock(index_build_mu_);
  ready = slot.ready.load(std::memory_order_acquire);
  if (ready == nullptr) {
    slot.index = std::make_unique<DocumentIndex>(doc);
    ready = slot.index.get();
    slot.ready.store(ready, std::memory_order_release);
  }
  return *ready;
}

const DocumentStats& Store::stats(DocId id) const {
  assert(id < stats_.size());
  StatsSlot& slot = *stats_[id];
  const DocumentStats* ready = slot.ready.load(std::memory_order_acquire);
  if (ready != nullptr) return *ready;
  // An attached document's statistics come from its source without paging
  // the document in. An eager document's are built, which needs the index:
  // build it before taking the stats mutex (index() takes its own build
  // mutex; nesting the two would order them arbitrarily across call sites).
  const DocSlot& dslot = *docs_[id];
  const Document* doc = nullptr;
  const DocumentIndex* idx = nullptr;
  if (!dslot.lazy) {
    doc = &document(id);
    idx = &index(id);
  }
  std::lock_guard<std::mutex> lock(stats_build_mu_);
  ready = slot.ready.load(std::memory_order_acquire);
  if (ready == nullptr) {
    slot.stats = dslot.lazy ? source_->LoadStats(dslot.source_index)
                            : std::make_unique<DocumentStats>(*doc, *idx);
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
