// Lazy document provider behind xml::Store — the seam that lets the
// persistent on-disk store (src/storage/) back a Store without the xml
// layer depending on the storage layer.
//
// A Store with an attached source registers one slot per source document
// but materializes nothing: the first access to a document faults it in
// through LoadDocument, and the Store may evict resident documents again
// at reader-free lease boundaries when the source reports residency above
// its cache limit (see Store::BeginRead). Eviction is safe because the
// persisted bytes are the document: every LoadDocument(i) returns the same
// records, arena and name ids (src/storage/README.md), so a structural index
// built against one incarnation, and the source's statistics, stay valid
// for the next.
//
// Thread-safety: the Store calls LoadDocument and UnloadDocument only under
// its fault mutex, so they never overlap each other. LoadStats runs under
// the Store's stats-build mutex, so it may overlap a LoadDocument or
// UnloadDocument; implementations must read only const state there (the
// persisted store decodes its immutable manifest). The residency accessors
// must tolerate concurrent readers (an atomic counter suffices).
#ifndef NALQ_XML_DOCUMENT_SOURCE_H_
#define NALQ_XML_DOCUMENT_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "xml/node.h"
#include "xml/stats.h"

namespace nalq::xml {

class DocumentSource {
 public:
  virtual ~DocumentSource() = default;

  /// Number of documents this source provides. Fixed for the source's
  /// lifetime (a persisted store is immutable once opened).
  virtual size_t document_count() const = 0;

  /// Name document `i` is registered under (doc() resolution).
  virtual const std::string& document_name(size_t i) const = 0;

  /// DOCTYPE internal subset persisted with document `i`, or empty.
  /// Available without faulting the document in — the engine registers
  /// DTDs at attach time, before any query touches the store.
  virtual const std::string& document_dtd(size_t i) const = 0;

  /// Materializes document `i`, charging its footprint against the
  /// source's residency accounting. Throws engine::Error (kStoreIo /
  /// kStoreCorrupt / kStoreVersionMismatch) — the Store propagates it to
  /// the evaluation that triggered the fault-in.
  virtual Document LoadDocument(size_t i) = 0;

  /// Releases the residency accounting of an evicted document `i`.
  virtual void UnloadDocument(size_t i) = 0;

  /// Cardinality statistics of document `i`, never null, produced without
  /// materializing the document or charging residency (the persisted store
  /// decodes them from its manifest). Statistics that are malformed or
  /// whose built_node_count differs from the document's node count fail
  /// closed with engine::Error(kStoreCorrupt) instead of returning.
  virtual std::unique_ptr<DocumentStats> LoadStats(size_t i) = 0;

  /// Bytes currently charged for resident documents.
  virtual uint64_t resident_bytes() const = 0;

  /// Residency target the Store evicts down to at lease boundaries;
  /// 0 = unlimited (no eviction).
  virtual uint64_t cache_limit_bytes() const = 0;

  /// Where this source's backing data lives (the persisted store's
  /// directory), or empty for sources with no on-disk location. Persist
  /// compares it against its target directory to detect a store being
  /// re-persisted over its own attachment — deleting the old epoch there
  /// would break the live source's lazy refaults (storage/README.md).
  virtual std::string location() const { return {}; }
};

}  // namespace nalq::xml

#endif  // NALQ_XML_DOCUMENT_SOURCE_H_
