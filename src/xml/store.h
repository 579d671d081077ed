// In-memory document store: the "database" documents are loaded into and the
// resolver behind the XQuery doc()/document() functions.
//
// Concurrency contract (single writer, many readers): loading or mutating
// documents and evaluating queries never overlap. AddDocument /
// AddDocumentText / AttachSource / in-place mutation through the non-const
// document() accessor may only run while no evaluation is in flight; during
// an evaluation any number of threads (the parallel executor's workers,
// nal/exchange.h) may read documents and indexes concurrently. Readers
// announce themselves through BeginRead/EndRead — every evaluation entry
// point holds a StoreReadLease for the duration of the run (Evaluator::Eval,
// the streaming Drain/Execute helpers, the parallel exchange) — and
// AddDocument asserts in Debug builds that no reader is open, catching the
// use-after-invalidate where a cursor still iterates an index slot that
// AddDocument is about to reset.
//
// Stale-state repair (a document mutated in place since its index or
// string-value memo was built) happens at the lease boundary, where the
// contract guarantees writer-exclusivity relative to *new* readers: the
// lease pre-sizes every resident document's string-value memo and drops
// stale index slots, so during evaluation the lock-free read paths only
// ever observe null→published transitions, never frees or relocations.
//
// Lazy residency (persistent stores, src/storage/): a Store may be backed
// by a DocumentSource (xml/document_source.h). Attached documents start
// non-resident and fault in on first access — node reads, indexed XPath
// and the stats-backed optimizer all work without materializing the whole
// corpus — and are evicted back out at reader-free lease boundaries when
// the source's residency exceeds its cache limit. Eviction never bumps
// version(): the source's reconstruction-determinism contract means a
// refault rebuilds a field-for-field identical document, so indexes,
// statistics and compiled plans stay valid across it.
#ifndef NALQ_XML_STORE_H_
#define NALQ_XML_STORE_H_

#include <atomic>
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
  /// document wins from then on and is never evicted.
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
  /// persisted store. The non-const form pins the document resident (an
  /// in-place mutation could not survive eviction).
  const Document& document(DocId id) const {
    const Document* doc = docs_[id]->ready.load(std::memory_order_acquire);
    return doc != nullptr ? *doc : FaultIn(id);
  }
  Document& document(DocId id) {
    DocSlot& slot = *docs_[id];
    if (slot.ready.load(std::memory_order_acquire) == nullptr) FaultIn(id);
    slot.pinned = true;
    return *slot.doc;
  }
  size_t size() const { return docs_.size(); }

  /// Name document `id` is registered under (available without faulting
  /// the document in).
  const std::string& document_name(DocId id) const { return docs_[id]->name; }

  /// True iff `id` is currently materialized in memory.
  bool resident(DocId id) const {
    return docs_[id]->ready.load(std::memory_order_acquire) != nullptr;
  }

  /// Resolves a NodeRef to its document.
  const Document& doc_of(const NodeRef& ref) const {
    return document(ref.doc);
  }

  /// The document's structural index (xml/index.h), built lazily on first
  /// use. AddDocument invalidates the slot when it replaces a document, and
  /// a stale index (document mutated after the build) is rebuilt here.
  /// Safe under concurrent readers: the built index is published through an
  /// atomic pointer (one acquire-load on the hot path) and cold builds are
  /// serialized by a build mutex — a build-once latch per document. The
  /// stale-rebuild path retires (never frees) the previous index, so a
  /// reader that loaded the old pointer just before the rebuild still
  /// dereferences live memory; retired indexes are reclaimed by the next
  /// writer (AddDocument) or lease boundary, both reader-free by contract.
  /// For lazily attached documents the cold path first asks the source for
  /// a persisted index and only falls back to building one.
  const DocumentIndex& index(DocId id) const;

  /// The document's cardinality statistics (xml/stats.h), built lazily on
  /// first use by the cost-based optimizer (src/opt/) and cached alongside
  /// the index with the same lifecycle: AddDocument invalidates the slot,
  /// a stale build (document mutated afterwards) is rebuilt here, the built
  /// statistics are published through an atomic pointer and cold builds are
  /// serialized by a build mutex. Building statistics forces the index
  /// build first (the value scans walk the occurrence lists). Lazily
  /// attached documents load persisted statistics when the source has them.
  const DocumentStats& stats(DocId id) const;

  /// Lease-boundary stale repair (see the file comment): pre-sizes every
  /// resident document's string-value memo, drops stale index slots,
  /// reclaims retired indexes, and — when a source is attached, no reader
  /// is open and residency exceeds the source's cache limit — evicts
  /// resident unpinned documents in fault-in order until it fits. Called
  /// by StoreReadLease; must not run concurrently with document mutation
  /// (single-writer contract).
  void PrepareForRead() const;

  /// Reader registration for the single-writer contract (see file comment).
  /// Pair every BeginRead with one EndRead (or use StoreReadLease below).
  /// Held for the duration of an evaluation — while cursors are open — not
  /// for the lifetime of an Evaluator, so a test may still construct an
  /// evaluator first and load documents afterwards. Both ends register
  /// under reader_reg_mu_, the lock eviction re-verifies reader-freedom
  /// under. BeginRead needs it so a reader cannot register (and start
  /// dereferencing a resident document) between EvictOverLimit's
  /// reader-free check and the free — a use-after-free. EndRead needs it
  /// for the memory-model edge in the other direction: the mutex makes a
  /// finished reader's document accesses happen-before any eviction that
  /// later observes the store reader-free. A lock-free relaxed decrement
  /// is logically ordered but carries no such edge — the reader's last
  /// loads may be reordered past it, racing the free (TSan flags it).
  void BeginRead() const {
    std::lock_guard<std::mutex> lock(reader_reg_mu_);
    open_readers_.fetch_add(1, std::memory_order_relaxed);
  }
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
  /// `doc`. `pinned` marks documents that must stay resident: everything
  /// added eagerly through AddDocument, and any attached document handed
  /// out mutably.
  struct DocSlot {
    std::string name;
    std::unique_ptr<Document> doc;
    std::atomic<const Document*> ready{nullptr};
    bool lazy = false;         ///< backed by source_ (source_index valid)
    bool pinned = false;       ///< never evict
    size_t source_index = 0;
    uint64_t last_fault = 0;   ///< fault-in order, eviction victims oldest-first
  };

  /// One lazily built index. The unique_ptr owns the storage; `ready`
  /// republishes it to readers without taking the build mutex on hits.
  /// `retired` keeps replaced stale indexes alive until a reader-free
  /// point (AddDocument / PrepareForRead) reclaims them.
  struct IndexSlot {
    std::unique_ptr<DocumentIndex> index;
    std::atomic<const DocumentIndex*> ready{nullptr};
    std::vector<std::unique_ptr<DocumentIndex>> retired;
  };

  /// One lazily built statistics set, same publication discipline as
  /// IndexSlot (atomic ready pointer, retirement until a reader-free point).
  struct StatsSlot {
    std::unique_ptr<DocumentStats> stats;
    std::atomic<const DocumentStats*> ready{nullptr};
    std::vector<std::unique_ptr<DocumentStats>> retired;
  };

  /// Slow path of document(): materializes a lazily attached document
  /// through the source (build-once under fault_mu_, atomic publication).
  const Document& FaultIn(DocId id) const;

  /// Registers (or replaces) the slot for a document named `name`,
  /// invalidating its index and stats slots. Returns its id.
  DocId UpsertSlot(const std::string& name);

  /// Evicts resident unpinned lazy documents, oldest fault first, until the
  /// source's residency fits its cache limit. Holds reader_reg_mu_ for the
  /// duration and re-verifies open_readers()==0 under it, so a concurrent
  /// lease entering through BeginRead either registers before the check
  /// (eviction skipped) or blocks until eviction finishes (and then faults
  /// evicted documents back in) — never observes a mid-free document. The
  /// same lock in EndRead orders a finished reader's accesses before the
  /// frees here (see BeginRead/EndRead). It also holds index_build_mu_,
  /// which excludes the stale-repair loops of concurrent PrepareForRead
  /// calls: those read resident documents before their lease registers.
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
  mutable std::mutex fault_mu_;
  mutable std::mutex index_build_mu_;
  mutable std::mutex stats_build_mu_;
  /// Serializes reader registration (BeginRead) with eviction
  /// (EvictOverLimit); see BeginRead. Lock order where nested:
  /// index_build_mu_, then reader_reg_mu_, then fault_mu_ (only
  /// EvictOverLimit nests them).
  mutable std::mutex reader_reg_mu_;
  mutable uint64_t fault_clock_ = 0;
  mutable std::atomic<int> open_readers_{0};
  std::atomic<uint64_t> version_{0};
};

/// RAII reader registration: every evaluation entry point (Evaluator::Eval,
/// the streaming Drain/Execute helpers, the parallel exchange) holds one of
/// these while its cursors are open.
class StoreReadLease {
 public:
  explicit StoreReadLease(const Store& store) : store_(&store) {
    store_->PrepareForRead();
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
