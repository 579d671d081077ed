// Persistent on-disk document store: Persist() serializes a Store's
// documents, with each document's cardinality statistics in the manifest,
// into a directory; PersistentStore::Open attaches that directory back to a
// Store as a lazy DocumentSource (xml/document_source.h) so documents page
// in on first access instead of being re-parsed from text. Structural
// indexes are not persisted: the Store builds one from the faulted-in
// document, which is faster than reading it back.
//
// Directory layout (all files in the page format of storage/format.h):
//
//   MANIFEST.nalq        commit point — per document: name, DTD text, node
//                        count, resident footprint, encoded statistics
//   e<E>_doc_<i>.nalq    document i (format version 3): name-table pages,
//                        node-record pages, text-arena pages
//
// Data file names are derived from the manifest's epoch E and the
// document's position i; the manifest stores no file names.
//
// Atomicity (single-writer contract — one Persist at a time, never
// concurrent with readers of the same directory): every Persist writes a
// fresh epoch's data files alongside the old ones, then atomically renames
// a complete new manifest over MANIFEST.nalq. A crash or injected fault
// anywhere before the rename leaves the old manifest and the old epoch's
// files untouched — the store reopens at its previous contents; only after
// the rename are stale epochs deleted (tests/storage_test.cpp drives the
// torn-write paths through the store.* fault sites). The ordering holds
// across power loss too, not just process crashes: every data file is
// fsynced before Close returns, the temp manifest is fsynced before the
// rename, and the directory is fsynced after it — so the rename can never
// reach disk ahead of the bytes it names, and stale-epoch deletion only
// runs once the commit is durable.
//
// Persisting into the directory a store's own attached source was opened
// from (warm attach → re-persist, e.g. Engine::AttachStore then
// Engine::PersistStore with one directory) is supported: Persist
// detects it via DocumentSource::location() and skips stale-epoch removal
// so the files of the epoch the live attachment reads survive — eviction
// and refault keep working, and the next open picks up the new epoch. The
// superseded epoch's files are reclaimed by the next Persist into that
// directory from a store not attached to it.
//
// A document file is the document's three arrays — name table, 16-byte
// node records, text arena — as xml/node.h holds them in memory, so the
// bytes are the document: a page-in copies them back and runs
// xml::Document::Validate, and every load of one file is the same document.
#ifndef NALQ_STORAGE_PERSISTENT_STORE_H_
#define NALQ_STORAGE_PERSISTENT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/format.h"
#include "xml/document_source.h"
#include "xml/node.h"
#include "xml/stats.h"
#include "xml/store.h"

namespace nalq::storage {

/// One document's manifest entry.
struct ManifestDoc {
  std::string name;
  std::string dtd;           ///< DOCTYPE internal subset, may be empty
  uint64_t node_count = 0;   ///< validates the decoded document
  uint64_t approx_bytes = 0; ///< in-memory footprint charged when resident
  std::string stats;         ///< StoreCodec::EncodeStats bytes
};

struct Manifest {
  uint64_t epoch = 0;
  std::vector<ManifestDoc> docs;
};

/// Codec between the xml layer's in-memory structures and store bytes.
/// Befriended by DocumentStats so its count maps serialize directly instead
/// of being rebuilt from the document.
class StoreCodec {
 public:
  /// Writes `doc`'s name table, records and arena as pages into `out`.
  static void EncodeDocument(const xml::Document& doc, PageFileWriter* out);

  /// Reads a document file: the page checksums, a copy of the pages into
  /// the three arrays and xml::Document::Validate. Throws kStoreIo /
  /// kStoreCorrupt / kStoreVersionMismatch.
  static xml::Document DecodeDocument(const ManifestDoc& meta,
                                      const std::string& path);

  static std::string EncodeStats(const xml::DocumentStats& stats);
  /// Null on malformed input (the caller attaches path context).
  static std::unique_ptr<xml::DocumentStats> DecodeStats(
      std::string_view blob);

  /// Footprint charged to the residency account while the document is
  /// materialized: its three arrays (records, arena, name bytes) plus the
  /// atom table's 8-byte slot per node. Atoms filled on use are not
  /// charged, which keeps the charge a function of the persisted document.
  static uint64_t ApproxResidentBytes(const xml::Document& doc);
};

/// Serializes every document of `store` (faulting lazily attached ones in
/// as needed) and its statistics into `dir`, one page file per document,
/// creating the directory if needed. Reads each document under its own
/// StoreReadLease, so an attached store stays within its cache limit plus
/// one document; the caller must not load documents concurrently. Throws engine::Error
/// on any I/O failure, leaving the directory's previous contents openable.
/// When `dir` is the directory the store's own attached source was opened
/// from, the superseded epoch's files are kept (not deleted) so the live
/// attachment keeps working — see the file comment.
void Persist(const xml::Store& store, const std::string& dir);

/// An opened persisted store directory: validates the manifest and every
/// document file header up front (cold-start fail-closed), then serves
/// documents and statistics on demand as a DocumentSource.
class PersistentStore : public xml::DocumentSource {
 public:
  struct Options {
    /// Residency target the owning Store evicts down to at lease
    /// boundaries; 0 = keep everything resident once faulted.
    uint64_t cache_limit_bytes = 0;
  };

  /// Throws kStoreIo (missing/unreadable files), kStoreVersionMismatch
  /// (foreign format generation or endianness) or kStoreCorrupt (failed
  /// validation).
  static std::unique_ptr<PersistentStore> Open(const std::string& dir,
                                               const Options& opts);
  static std::unique_ptr<PersistentStore> Open(const std::string& dir) {
    return Open(dir, Options{});
  }

  const std::string& dir() const { return dir_; }
  uint64_t epoch() const { return manifest_.epoch; }

  /// On-disk bytes of the document files plus the manifest (bench metric).
  uint64_t persisted_bytes() const { return persisted_bytes_; }

  // -- DocumentSource -------------------------------------------------------
  size_t document_count() const override { return manifest_.docs.size(); }
  const std::string& document_name(size_t i) const override {
    return manifest_.docs[i].name;
  }
  const std::string& document_dtd(size_t i) const override {
    return manifest_.docs[i].dtd;
  }
  xml::Document LoadDocument(size_t i) override;
  void UnloadDocument(size_t i) override;
  std::unique_ptr<xml::DocumentStats> LoadStats(size_t i) override;
  uint64_t resident_bytes() const override {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t cache_limit_bytes() const override { return cache_limit_bytes_; }
  std::string location() const override { return dir_; }

 private:
  PersistentStore(std::string dir, Manifest manifest, const Options& opts);

  std::string dir_;
  Manifest manifest_;
  uint64_t persisted_bytes_ = 0;
  const uint64_t cache_limit_bytes_;
  /// The one residency account: LoadDocument adds each document's
  /// approx_bytes, even past the cache limit (the faulting evaluation must
  /// proceed; the owning Store evicts back under the limit at the next
  /// reader-free lease boundary), and UnloadDocument takes them back.
  std::atomic<uint64_t> resident_bytes_{0};
  std::vector<uint64_t> charged_;
};

}  // namespace nalq::storage

#endif  // NALQ_STORAGE_PERSISTENT_STORE_H_
