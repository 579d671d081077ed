// In-memory document store: the "database" documents are loaded into and the
// resolver behind the XQuery doc()/document() functions.
//
// Concurrency contract (single writer, many readers): loading documents and
// evaluating queries never overlap. AddDocument / AddDocumentText /
// AttachSource / SetDtdText may only run while no evaluation is in flight;
// during an evaluation any number of threads (the parallel executor's
// workers, nal/exchange.h) may read documents and indexes concurrently.
// Readers announce themselves through BeginRead/EndRead — every evaluation
// entry point holds a StoreReadLease for the duration of the run
// (Evaluator::Eval, the streaming Drain/Execute helpers, the parallel
// exchange) — and the writers assert in Debug builds that no reader is open,
// catching the use-after-invalidate where a cursor still iterates an index
// slot that AddDocument is about to reset.
//
// Stored documents never change: once the store publishes a document it is
// never written again (there is no mutable accessor). Replacing a document
// is AddDocument under the same name, which resets its index and statistics
// slots. So during evaluation the lock-free read paths only ever observe
// null→published transitions, never frees or relocations, and a published
// index or statistics set stays valid until its document is replaced.
//
// Lazy residency (persistent stores, src/storage/): a Store may be backed
// by a DocumentSource (xml/document_source.h). Attached documents start
// non-resident and fault in on first access — node reads and indexed XPath
// work without materializing the whole corpus, and the statistics the
// optimizer reads come from the source without any fault-in. BeginRead is
// the lease boundary: when no reader is open it evicts resident attached
// documents, oldest fault first, while the source's residency exceeds its
// cache limit. Eviction never bumps version(): a refault reads the same
// bytes (document_source.h), so indexes, statistics and compiled plans stay
// valid across it.
//
// Borrowed atoms: an atomized node value points at its node's xml::Atom
// (node.h) inside the document, so it is valid while the document is
// resident. A run's StoreReadLease guarantees that for the whole run,
// because eviction happens only at reader-free lease boundaries, and a
// document added with AddDocument is never evicted (only replaced, which
// needs a reader-free store too). Nothing a run hands back to a client
// holds a value: query output is serialized bytes and spool files hold
// bytes, never pointers. The sequence-returning entry points used by tests
// (Evaluator::Eval, ExecuteStreaming, ExecuteParallel, reference::Eval)
// return values that stay valid after the call while their documents stay
// resident, which an AddDocument document is until it is replaced.
// Whatever changes when eviction runs must keep the rule that a document
// outlives every run that resolved it.
#ifndef NALQ_XML_STORE_H_
#define NALQ_XML_STORE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "xml/document_source.h"
#include "xml/index.h"
#include "xml/node.h"
#include "xml/stats.h"

namespace nalq::xml {

/// Owns a set of named documents. Document handles (DocId) are stable for the
/// lifetime of the store.
class Store {
 public:
  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Adds (or replaces) a document under its own name. Returns its id.
  /// Writer-side of the single-writer contract: must not run while any
  /// reader is registered (Debug builds assert). Replacing a lazily
  /// attached document detaches that slot from the source — the in-memory
  /// document wins from then on and is never evicted — and releases the
  /// replaced document's residency charge if it was resident.
  DocId AddDocument(Document doc);

  /// Parses `xml_text` and adds it under `name`.
  DocId AddDocumentText(std::string name, std::string_view xml_text);

  /// Attaches a lazy document source (a persisted store): registers one
  /// slot per source document without materializing any of them. Writer
  /// side of the single-writer contract. A source document whose name
  /// collides with an existing document replaces it. At most one source
  /// may be attached per Store.
  void AttachSource(std::unique_ptr<DocumentSource> source);

  /// The attached source, or null.
  const DocumentSource* source() const { return source_.get(); }

  /// Looks a document up by name.
  std::optional<DocId> Find(std::string_view name) const;

  /// Document access. Resident documents are one acquire-load; a
  /// non-resident (lazily attached) document faults in through the source
  /// first, which may throw engine::Error on a corrupt or unreadable
  /// persisted store. Stored documents are immutable, so there is no
  /// mutable form.
  const Document& document(DocId id) const {
    const Document* doc = docs_[id]->ready.load(std::memory_order_acquire);
    return doc != nullptr ? *doc : FaultIn(id);
  }
  size_t size() const { return docs_.size(); }

  /// Name document `id` is registered under (available without faulting
  /// the document in).
  const std::string& document_name(DocId id) const { return docs_[id]->name; }

  /// DOCTYPE internal subset stored with document `id`, or empty: the
  /// parsed document's own (AddDocument), the persisted text (AttachSource),
  /// or the last SetDtdText stamp. Available without faulting the document
  /// in; Persist writes it to the manifest.
  const std::string& dtd_text(DocId id) const { return docs_[id]->dtd_text; }

  /// Stamps an out-of-band DTD registration (Engine::RegisterDtd) on
  /// document `id`. Writer-side of the single-writer contract (Debug builds
  /// assert no reader is open). Never touches the document itself, so an
  /// attached document is neither faulted in nor kept resident by it.
  void SetDtdText(DocId id, std::string dtd_text);

  /// True iff `id` is currently materialized in memory.
  bool resident(DocId id) const {
    return docs_[id]->ready.load(std::memory_order_acquire) != nullptr;
  }

  /// Resolves a NodeRef to its document.
  const Document& doc_of(const NodeRef& ref) const {
    return document(ref.doc);
  }

  /// The document's structural index (xml/index.h), built lazily on first
  /// use. AddDocument invalidates the slot when it replaces a document.
  /// Safe under concurrent readers: the built index is published through an
  /// atomic pointer (one acquire-load on the hot path, which does not touch
  /// the document) and cold builds are serialized by a build mutex — a
  /// build-once latch per document. A lazily attached document's index is
  /// built the same way, from the document the cold path faults in; it
  /// stays published across eviction and refault.
  const DocumentIndex& index(DocId id) const;

  /// The document's cardinality statistics (xml/stats.h), made on first
  /// use by the cost-based optimizer (src/opt/) and cached alongside the
  /// index with the same lifecycle: AddDocument invalidates the slot, the
  /// statistics are published through an atomic pointer and cold paths are
  /// serialized by a build mutex. A lazily attached document's statistics
  /// come from the source (DocumentSource::LoadStats) without faulting the
  /// document in or building its index; an eager document's are built,
  /// which forces the index build first (the value scans walk the
  /// occurrence lists).
  const DocumentStats& stats(DocId id) const;

  /// Reader registration for the single-writer contract (see file comment).
  /// Pair every BeginRead with one EndRead (or use StoreReadLease below).
  /// Held for the duration of an evaluation — while cursors are open — not
  /// for the lifetime of an Evaluator, so a test may still construct an
  /// evaluator first and load documents afterwards.
  ///
  /// BeginRead is the lease boundary. Under reader_reg_mu_ it evicts over
  /// the source's cache limit when no reader is open (EvictOverLimit), then
  /// registers the reader, so no reader can register between the
  /// reader-free check and the frees. EndRead takes the same mutex for the
  /// memory-model edge in the other direction: it makes a finished reader's
  /// document accesses happen-before any eviction that later observes the
  /// store reader-free. A lock-free relaxed decrement is logically ordered
  /// but carries no such edge — the reader's last loads may be reordered
  /// past it, racing the free (TSan flags it).
  void BeginRead() const;
  void EndRead() const {
    std::lock_guard<std::mutex> lock(reader_reg_mu_);
    open_readers_.fetch_sub(1, std::memory_order_relaxed);
  }
  int open_readers() const {
    return open_readers_.load(std::memory_order_relaxed);
  }

  /// Monotonic content version: bumped by every AddDocument and
  /// AttachSource (and by BumpVersion for out-of-store changes that affect
  /// compilation, e.g. a DTD registration — Engine::RegisterDtd calls it).
  /// Anything derived from store contents or statistics — the query
  /// service's plan cache in particular — keys on this and treats a
  /// mismatch as stale. Eviction and refault of a lazily attached document
  /// deliberately do NOT bump it: content is unchanged, so cached plans
  /// stay valid. Writes ride the single-writer contract; reads are a
  /// relaxed load.
  uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }
  void BumpVersion() { version_.fetch_add(1, std::memory_order_relaxed); }

 private:
  /// One document slot. `ready` publishes the resident document to readers
  /// (acquire-load hot path); `doc` owns it. Lazily attached slots start
  /// with `ready == nullptr` and fault in through the source; eviction
  /// (only ever at reader-free lease boundaries) resets `ready` and frees
  /// `doc`. Eagerly added documents are not lazy and so never evicted.
  struct DocSlot {
    std::string name;
    std::string dtd_text;  ///< see dtd_text(); written only by writers
    std::unique_ptr<Document> doc;
    std::atomic<const Document*> ready{nullptr};
    bool lazy = false;     ///< backed by source_ (source_index valid)
    size_t source_index = 0;
  };

  /// One lazily built index. The unique_ptr owns the storage; `ready`
  /// republishes it to readers without taking the build mutex on hits.
  struct IndexSlot {
    std::unique_ptr<DocumentIndex> index;
    std::atomic<const DocumentIndex*> ready{nullptr};
  };

  /// One lazily built statistics set, same publication discipline as
  /// IndexSlot.
  struct StatsSlot {
    std::unique_ptr<DocumentStats> stats;
    std::atomic<const DocumentStats*> ready{nullptr};
  };

  /// Slow path of document(): materializes a lazily attached document
  /// through the source (build-once under fault_mu_, atomic publication).
  const Document& FaultIn(DocId id) const;

  /// Registers (or replaces) the slot for a document named `name`,
  /// invalidating its index and stats slots. Returns its id.
  DocId UpsertSlot(const std::string& name);

  /// Evicts resident lazy documents, oldest fault first, until the
  /// source's residency fits its cache limit. Runs only inside BeginRead,
  /// under reader_reg_mu_ with no reader open, so a concurrent lease either
  /// registered first (no eviction) or blocks in BeginRead until eviction
  /// finishes and then faults evicted documents back in — it never observes
  /// a mid-free document.
  void EvictOverLimit() const;

  // Slot pointers are stable; the vectors themselves only grow inside
  // AddDocument / AttachSource (writer-exclusive), so readers may index
  // them freely. `docs_` is mutable because fault-in happens on the const
  // read path.
  mutable std::vector<std::unique_ptr<DocSlot>> docs_;
  std::unordered_map<std::string, DocId> by_name_;
  std::unique_ptr<DocumentSource> source_;
  mutable std::vector<std::unique_ptr<IndexSlot>> indexes_;
  mutable std::vector<std::unique_ptr<StatsSlot>> stats_;
  mutable std::mutex index_build_mu_;
  mutable std::mutex stats_build_mu_;
  /// Serializes every source call and residency change (fault-in,
  /// eviction, AddDocument's release of a replaced resident document).
  mutable std::mutex fault_mu_;
  /// Fault-in order of the resident lazy documents, oldest first: FaultIn
  /// pushes, EvictOverLimit pops. An entry whose slot AddDocument has since
  /// made eager is skipped when it reaches the front.
  mutable std::deque<DocId> fault_order_;
  /// Serializes reader registration with eviction; see BeginRead. Lock
  /// order where nested: reader_reg_mu_, then fault_mu_ (only BeginRead
  /// nests them, through EvictOverLimit).
  mutable std::mutex reader_reg_mu_;
  mutable std::atomic<int> open_readers_{0};
  std::atomic<uint64_t> version_{0};
};

/// RAII reader registration: every evaluation entry point (Evaluator::Eval,
/// the streaming Drain/Execute helpers, the parallel exchange) holds one of
/// these while its cursors are open.
class StoreReadLease {
 public:
  explicit StoreReadLease(const Store& store) : store_(&store) {
    store_->BeginRead();
  }
  ~StoreReadLease() { store_->EndRead(); }
  StoreReadLease(const StoreReadLease&) = delete;
  StoreReadLease& operator=(const StoreReadLease&) = delete;

 private:
  const Store* store_;
};

}  // namespace nalq::xml

#endif  // NALQ_XML_STORE_H_
