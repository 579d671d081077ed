#include "storage/persistent_store.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "engine/error.h"
#include "nal/fault_injection.h"

namespace nalq::storage {

namespace {

using engine::Error;
using engine::ErrorCode;
using nal::FaultInjector;
using nal::FaultSite;
using nal::codec::ByteReader;
using nal::codec::PutBytes;
using nal::codec::PutU32;
using nal::codec::PutU64;

constexpr const char* kManifestName = "MANIFEST.nalq";
constexpr const char* kManifestTmpName = "MANIFEST.nalq.tmp";

[[noreturn]] void ThrowCorrupt(const std::string& what,
                               const std::string& path) {
  throw Error(ErrorCode::kStoreCorrupt, what, 0, path, "storage.manifest");
}

std::string JoinPath(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

/// Path of the page file of the document at manifest position `i`:
/// e<epoch>_doc_<i>.nalq. Derived, never read from the manifest, so no
/// stored name can point outside `dir`.
std::string DocPath(const std::string& dir, uint64_t epoch, size_t i) {
  return JoinPath(dir, "e" + std::to_string(epoch) + "_doc_" +
                           std::to_string(i) + ".nalq");
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

std::string EncodeManifest(const Manifest& m) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(m.docs.size()));
  for (const ManifestDoc& d : m.docs) {
    PutBytes(&payload, d.name);
    PutBytes(&payload, d.dtd);
    PutU64(&payload, d.node_count);
    PutU64(&payload, d.approx_bytes);
    PutBytes(&payload, d.stats);
  }
  std::string out(kManifestMagic, sizeof(kManifestMagic));
  PutU32(&out, kFormatVersion);
  PutU32(&out, kEndianTag);
  PutU64(&out, m.epoch);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

/// Writes the manifest bytes to the temp name and renames it into place —
/// the commit point of a Persist.
void CommitManifest(const std::string& dir, const Manifest& m) {
  const std::string tmp = JoinPath(dir, kManifestTmpName);
  const std::string final_path = JoinPath(dir, kManifestName);
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreOpenWrite);
      err != 0) {
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest open failed",
                err, tmp, "store.open_write");
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest open failed",
                errno, tmp, "store.open_write");
  }
  const std::string bytes = EncodeManifest(m);
  int inject_write = FaultInjector::Current().MaybeFail(FaultSite::kStoreWrite);
  if (inject_write != 0 ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    int err = inject_write != 0 ? inject_write : errno;
    std::fclose(f);
    std::remove(tmp.c_str());
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest write failed",
                err, tmp, "store.write");
  }
  // The manifest bytes must hit stable storage before the rename commits
  // them: a journal may persist the rename first, and a power loss then
  // would leave a committed manifest that is empty or torn.
  if (int err = FlushToDisk(f); err != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest sync failed",
                err, tmp, "store.close");
  }
  if (std::fclose(f) != 0) {
    int err = errno;
    std::remove(tmp.c_str());
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest close failed",
                err, tmp, "store.close");
  }
  CommitRename(tmp, final_path);
}

Manifest ReadManifest(const std::string& dir) {
  const std::string path = JoinPath(dir, kManifestName);
  if (int err = FaultInjector::Current().MaybeFail(FaultSite::kStoreOpenRead);
      err != 0) {
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest open failed",
                err, path, "store.open_read");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorCode::kStoreIo,
                "persistent-store manifest missing or unreadable", errno,
                path, "store.open_read");
  }
  std::string buffer;
  char chunk[1 << 14];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buffer.append(chunk, n);
  }
  bool read_error = std::ferror(f) != 0;
  int read_errno = errno;
  std::fclose(f);
  if (read_error) {
    throw Error(ErrorCode::kStoreIo, "persistent-store manifest read failed",
                read_errno, path, "store.read");
  }
  const auto* base = reinterpret_cast<const uint8_t*>(buffer.data());
  ByteReader r{base, base + buffer.size()};
  const uint8_t* magic = nullptr;
  uint32_t version = 0;
  uint32_t endian = 0;
  uint64_t epoch = 0;
  uint32_t payload_bytes = 0;
  if (!r.Bytes(sizeof(kManifestMagic), &magic) || !r.U32(&version) ||
      !r.U32(&endian) || !r.U64(&epoch) || !r.U32(&payload_bytes)) {
    ThrowCorrupt("persistent-store manifest too short for its header", path);
  }
  if (std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    ThrowCorrupt("persistent-store manifest magic mismatch", path);
  }
  // Version (then endianness) before any checksum: a store written by a
  // different format generation or a foreign-endian host must say so.
  if (version != kFormatVersion) {
    throw Error(ErrorCode::kStoreVersionMismatch,
                "persistent-store format version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kFormatVersion) + ")",
                0, path, "storage.manifest");
  }
  if (endian != kEndianTag) {
    throw Error(ErrorCode::kStoreVersionMismatch,
                "persistent-store written by a foreign-endian host", 0, path,
                "storage.manifest");
  }
  const uint8_t* payload = nullptr;
  uint32_t crc = 0;
  if (!r.Bytes(payload_bytes, &payload) || !r.U32(&crc)) {
    ThrowCorrupt("persistent-store manifest payload truncated", path);
  }
  if (Crc32(payload, payload_bytes) != crc) {
    ThrowCorrupt("persistent-store manifest checksum mismatch", path);
  }
  ByteReader pr{payload, payload + payload_bytes};
  Manifest m;
  m.epoch = epoch;
  uint32_t doc_count = 0;
  if (!pr.U32(&doc_count)) {
    ThrowCorrupt("persistent-store manifest payload malformed", path);
  }
  for (uint32_t i = 0; i < doc_count; ++i) {
    ManifestDoc d;
    std::string_view name, dtd, stats;
    if (!pr.LengthPrefixed(&name) || !pr.LengthPrefixed(&dtd) ||
        !pr.U64(&d.node_count) || !pr.U64(&d.approx_bytes) ||
        !pr.LengthPrefixed(&stats)) {
      ThrowCorrupt("persistent-store manifest payload malformed", path);
    }
    d.name = std::string(name);
    d.dtd = std::string(dtd);
    d.stats = std::string(stats);
    m.docs.push_back(std::move(d));
  }
  if (pr.remaining() != 0) {
    ThrowCorrupt("persistent-store manifest payload has trailing bytes", path);
  }
  return m;
}

/// Epoch the next Persist should write: one past anything present in the
/// directory, derived from the file names themselves so even a corrupt or
/// missing manifest cannot make a new epoch collide with old files.
uint64_t NextEpoch(const std::string& dir) {
  uint64_t max_epoch = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 2 || name[0] != 'e') continue;
    char* end = nullptr;
    uint64_t e = std::strtoull(name.c_str() + 1, &end, 10);
    if (end != name.c_str() + 1 && *end == '_' && e > max_epoch) {
      max_epoch = e;
    }
  }
  return max_epoch + 1;
}

/// Deletes data files of epochs other than `live_epoch` (and a stray temp
/// manifest). Runs only after the new manifest committed; failures are
/// ignored — stale files waste space but never affect correctness, since
/// only the files of the manifest's epoch are ever read.
void RemoveStaleEpochs(const std::string& dir, uint64_t live_epoch) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kManifestTmpName) {
      std::filesystem::remove(entry.path(), ec);
      continue;
    }
    if (name.size() < 2 || name[0] != 'e') continue;
    char* end = nullptr;
    uint64_t e = std::strtoull(name.c_str() + 1, &end, 10);
    if (end != name.c_str() + 1 && *end == '_' && e != live_epoch) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

// ---------------------------------------------------------------------------
// Count-map codec (sorted for deterministic bytes)
// ---------------------------------------------------------------------------

template <typename Key>
void PutCountMap(std::string* out,
                 const std::unordered_map<Key, uint64_t>& m) {
  std::map<Key, uint64_t> sorted(m.begin(), m.end());
  PutU32(out, static_cast<uint32_t>(sorted.size()));
  for (const auto& [key, v] : sorted) {
    if constexpr (sizeof(Key) == 4) {
      PutU32(out, key);
    } else {
      PutU64(out, key);
    }
    PutU64(out, v);
  }
}

template <typename Key>
bool ReadCountMap(ByteReader* r, std::unordered_map<Key, uint64_t>* m) {
  uint32_t n = 0;
  if (!r->U32(&n)) return false;
  // The count is untrusted input: a crafted manifest (CRC recomputed to
  // match) could otherwise drive a multi-GB reserve and surface as
  // bad_alloc/OOM instead of the structured kStoreCorrupt contract. Each
  // entry is a key (4 or 8 bytes) plus an 8-byte value, so a count that
  // cannot fit in the remaining buffer is corrupt by construction.
  constexpr size_t kMinEntry = (sizeof(Key) == 4 ? 4 : 8) + 8;
  if (n > r->remaining() / kMinEntry) return false;
  m->clear();
  m->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Key key{};
    bool ok;
    if constexpr (sizeof(Key) == 4) {
      uint32_t k = 0;
      ok = r->U32(&k);
      key = k;
    } else {
      uint64_t k = 0;
      ok = r->U64(&k);
      key = k;
    }
    uint64_t v = 0;
    if (!ok || !r->U64(&v)) return false;
    (*m)[key] = v;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// StoreCodec
// ---------------------------------------------------------------------------

uint64_t StoreCodec::ApproxResidentBytes(const xml::Document& doc) {
  uint64_t bytes = doc.node_count() * (sizeof(xml::Node) + 24);
  for (xml::NodeId i = 0; i < doc.node_count(); ++i) {
    xml::NodeKind kind = doc.kind(i);
    if (kind == xml::NodeKind::kText || kind == xml::NodeKind::kAttribute) {
      bytes += doc.raw_text(i).size();
    }
  }
  for (uint32_t i = 0; i < doc.names().size(); ++i) {
    bytes += doc.names().Get(i).size();
  }
  return bytes;
}

void StoreCodec::EncodeDocument(const xml::Document& doc,
                                PageFileWriter* out) {
  // Section 1: the interner's full string table in id order. Pre-interning
  // it on decode pins every name id before replay, so ids survive even if
  // the table holds strings no node references (a component may intern
  // probe strings through the non-const names() accessor).
  const xml::StringInterner& names = doc.names();
  std::string payload;
  uint32_t first = 0;
  uint32_t count = 0;
  for (uint32_t i = 0; i < names.size(); ++i) {
    PutBytes(&payload, names.Get(i));
    ++count;
    if (payload.size() >= kPagePayloadTarget) {
      out->WritePage(PageType::kNameTable, count, first, payload);
      first += count;
      count = 0;
      payload.clear();
    }
  }
  if (count > 0 || names.size() == 0) {
    out->WritePage(PageType::kNameTable, count, first, payload);
  }
  // Section 2: one record per node in preorder — the [pre, pre+size)
  // numbering makes the node id implicit in the record's position, and the
  // persisted subtree_end doubles as the structural validation target on
  // decode.
  payload.clear();
  first = 0;
  count = 0;
  for (xml::NodeId i = 0; i < doc.node_count(); ++i) {
    const xml::Node& n = doc.node(i);
    payload.push_back(static_cast<char>(n.kind));
    PutU32(&payload, n.parent);
    PutU32(&payload, n.name);
    PutU32(&payload, n.subtree_end);
    bool has_text = n.kind == xml::NodeKind::kText ||
                    n.kind == xml::NodeKind::kAttribute;
    PutBytes(&payload, has_text ? doc.raw_text(i) : std::string_view());
    ++count;
    if (payload.size() >= kPagePayloadTarget) {
      out->WritePage(PageType::kNodeRecords, count, first, payload);
      first += count;
      count = 0;
      payload.clear();
    }
  }
  if (count > 0) {
    out->WritePage(PageType::kNodeRecords, count, first, payload);
  }
}

xml::Document StoreCodec::DecodeDocument(const ManifestDoc& meta,
                                         const std::string& path) {
  // Names and texts are views into the reader's whole-file buffer, which
  // outlives the replay, so each string is copied once: into the document.
  PageFileReader reader(path);
  struct Rec {
    uint8_t kind;
    uint32_t parent;
    uint32_t name;
    uint32_t subtree_end;
    std::string_view text;
  };
  std::vector<std::string_view> names;
  std::vector<Rec> recs;
  PageInfo page;
  auto corrupt = [&path](const std::string& what) -> void {
    throw Error(ErrorCode::kStoreCorrupt, what, 0, path, "storage.document");
  };
  while (reader.Next(&page)) {
    const auto* base = reinterpret_cast<const uint8_t*>(page.payload.data());
    ByteReader r{base, base + page.payload.size()};
    if (page.type == PageType::kNameTable) {
      if (page.first_item != names.size() || !recs.empty()) {
        corrupt("persistent-store document pages out of order");
      }
      for (uint32_t i = 0; i < page.item_count; ++i) {
        std::string_view s;
        if (!r.LengthPrefixed(&s)) {
          corrupt("persistent-store name-table page malformed");
        }
        names.push_back(s);
      }
    } else if (page.type == PageType::kNodeRecords) {
      if (page.first_item != recs.size()) {
        corrupt("persistent-store document pages out of order");
      }
      for (uint32_t i = 0; i < page.item_count; ++i) {
        Rec rec;
        if (!r.U8(&rec.kind) || !r.U32(&rec.parent) || !r.U32(&rec.name) ||
            !r.U32(&rec.subtree_end) || !r.LengthPrefixed(&rec.text)) {
          corrupt("persistent-store node-record page malformed");
        }
        recs.push_back(rec);
      }
    } else {
      corrupt("persistent-store document file has an unexpected page type");
    }
    if (r.remaining() != 0) {
      corrupt("persistent-store document page has trailing bytes");
    }
  }
  if (recs.size() != meta.node_count) {
    corrupt("persistent-store document node count does not match manifest");
  }
  if (recs.empty() || names.empty()) {
    corrupt("persistent-store document file is empty");
  }
  // Reconstruct by replay (see the file comment in persistent_store.h).
  xml::Document doc(meta.name);
  if (!names[0].empty()) {
    corrupt("persistent-store name table does not start with the empty id");
  }
  for (uint32_t i = 0; i < names.size(); ++i) {
    if (doc.names().Intern(names[i]) != i) {
      corrupt("persistent-store name table holds a duplicate string");
    }
  }
  const Rec& root = recs[0];
  if (static_cast<xml::NodeKind>(root.kind) != xml::NodeKind::kDocument ||
      root.parent != xml::kNoNode) {
    corrupt("persistent-store document record 0 is not a document node");
  }
  for (uint32_t i = 1; i < recs.size(); ++i) {
    const Rec& rec = recs[i];
    // Structural pre-validation, mirroring the depth-first construction
    // invariant Document::NewNode asserts: the parent must be an earlier
    // node whose subtree extent currently ends exactly here. Checking it
    // before the call turns corrupt structure into a thrown error instead
    // of an assert/abort (Debug) or silent extent corruption (Release).
    if (rec.parent >= i || doc.subtree_end(rec.parent) != i ||
        rec.name >= names.size()) {
      corrupt("persistent-store node record violates preorder structure");
    }
    xml::NodeKind kind = static_cast<xml::NodeKind>(rec.kind);
    xml::NodeId id = xml::kNoNode;
    switch (kind) {
      case xml::NodeKind::kElement:
        id = doc.AddElement(rec.parent, doc.names().Get(rec.name));
        break;
      case xml::NodeKind::kText:
        id = doc.AddText(rec.parent, rec.text);
        break;
      case xml::NodeKind::kAttribute:
        if (doc.kind(rec.parent) != xml::NodeKind::kElement) {
          corrupt("persistent-store attribute record off a non-element");
        }
        id = doc.AddAttribute(rec.parent, doc.names().Get(rec.name),
                              rec.text);
        break;
      default:
        corrupt("persistent-store node record has an unknown kind");
    }
    if (id != i) {
      corrupt("persistent-store replay produced a divergent node id");
    }
  }
  // Full-field validation: the replayed tree must match the persisted
  // records exactly — any divergence (an interner collision, a wrong
  // extent) means the file does not describe a document this code could
  // have written, so fail closed.
  if (doc.node_count() != recs.size()) {
    corrupt("persistent-store replay produced a divergent node count");
  }
  for (uint32_t i = 0; i < recs.size(); ++i) {
    const xml::Node& n = doc.node(i);
    const Rec& rec = recs[i];
    if (static_cast<uint8_t>(n.kind) != rec.kind || n.parent != rec.parent ||
        n.name != rec.name || n.subtree_end != rec.subtree_end) {
      corrupt("persistent-store replay diverged from the persisted records");
    }
  }
  return doc;
}

std::string StoreCodec::EncodeStats(const xml::DocumentStats& stats) {
  std::string out;
  PutU64(&out, stats.built_node_count_);
  PutU64(&out, stats.element_count_);
  PutU64(&out, stats.attribute_count_);
  PutU64(&out, stats.text_node_count_);
  PutCountMap(&out, stats.elements_);
  PutCountMap(&out, stats.attributes_);
  PutCountMap(&out, stats.child_edges_);
  PutCountMap(&out, stats.parents_with_child_);
  PutCountMap(&out, stats.desc_edges_);
  PutCountMap(&out, stats.attr_edges_);
  PutCountMap(&out, stats.distinct_element_values_);
  PutCountMap(&out, stats.distinct_attr_values_);
  return out;
}

std::unique_ptr<xml::DocumentStats> StoreCodec::DecodeStats(
    std::string_view blob) {
  const auto* base = reinterpret_cast<const uint8_t*>(blob.data());
  ByteReader r{base, base + blob.size()};
  std::unique_ptr<xml::DocumentStats> stats(new xml::DocumentStats());
  uint64_t built = 0;
  if (!r.U64(&built) || !r.U64(&stats->element_count_) ||
      !r.U64(&stats->attribute_count_) || !r.U64(&stats->text_node_count_) ||
      !ReadCountMap(&r, &stats->elements_) ||
      !ReadCountMap(&r, &stats->attributes_) ||
      !ReadCountMap(&r, &stats->child_edges_) ||
      !ReadCountMap(&r, &stats->parents_with_child_) ||
      !ReadCountMap(&r, &stats->desc_edges_) ||
      !ReadCountMap(&r, &stats->attr_edges_) ||
      !ReadCountMap(&r, &stats->distinct_element_values_) ||
      !ReadCountMap(&r, &stats->distinct_attr_values_) ||
      r.remaining() != 0) {
    return nullptr;
  }
  stats->built_node_count_ = built;
  return stats;
}

// ---------------------------------------------------------------------------
// Persist
// ---------------------------------------------------------------------------

void Persist(const xml::Store& store, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw Error(ErrorCode::kStoreIo,
                "persistent-store directory creation failed", ec.value(), dir,
                "store.open_write");
  }
  // Persisting over the store's own attached source (warm attach →
  // re-persist with one directory) must not delete the epoch that
  // source's in-memory manifest still references: the live attachment
  // would keep serving until the first eviction+refault, then fail with
  // kStoreIo on the vanished files. Detect it (inode-level where possible,
  // canonical-path fallback) and keep the superseded epoch; the next
  // Persist from an unattached store reclaims it.
  bool onto_attached_source = false;
  if (const xml::DocumentSource* src = store.source();
      src != nullptr && !src->location().empty()) {
    std::error_code eq_ec;
    onto_attached_source =
        std::filesystem::equivalent(src->location(), dir, eq_ec);
    if (eq_ec) {
      onto_attached_source =
          std::filesystem::weakly_canonical(src->location(), eq_ec) ==
          std::filesystem::weakly_canonical(dir, eq_ec);
    }
  }
  const uint64_t epoch = NextEpoch(dir);
  Manifest manifest;
  manifest.epoch = epoch;
  for (xml::DocId id = 0; id < store.size(); ++id) {
    // Reading a document makes Persist a reader under the single-writer
    // contract, which already forbids a write between two documents. One
    // lease per document, not one around the loop: each lease boundary can
    // evict what the last one faulted in, so persisting an attached store
    // stays within the cache limit plus one document.
    xml::StoreReadLease lease(store);
    const xml::Document& doc = store.document(id);
    ManifestDoc entry;
    entry.name = store.document_name(id);
    entry.dtd = store.dtd_text(id);
    entry.node_count = doc.node_count();
    entry.approx_bytes = StoreCodec::ApproxResidentBytes(doc);
    entry.stats = StoreCodec::EncodeStats(store.stats(id));
    PageFileWriter w(DocPath(dir, epoch, id));
    StoreCodec::EncodeDocument(doc, &w);
    w.Close();
    manifest.docs.push_back(std::move(entry));
  }
  CommitManifest(dir, manifest);
  // Only after the commit: the old epoch's files stop being reachable the
  // instant the rename lands, so deleting them can never un-commit a store
  // — unless the old epoch is exactly what the attached source still reads
  // (see above), in which case it is left in place.
  if (!onto_attached_source) RemoveStaleEpochs(dir, epoch);
}

// ---------------------------------------------------------------------------
// PersistentStore
// ---------------------------------------------------------------------------

PersistentStore::PersistentStore(std::string dir, Manifest manifest,
                                 const Options& opts)
    : dir_(std::move(dir)),
      manifest_(std::move(manifest)),
      cache_limit_bytes_(opts.cache_limit_bytes),
      charged_(manifest_.docs.size(), 0) {}

std::unique_ptr<PersistentStore> PersistentStore::Open(const std::string& dir,
                                                       const Options& opts) {
  Manifest manifest = ReadManifest(dir);
  std::error_code ec;
  uint64_t persisted =
      std::filesystem::file_size(JoinPath(dir, kManifestName), ec);
  for (size_t i = 0; i < manifest.docs.size(); ++i) {
    // Cold-start fail-closed: every document file must exist with a valid
    // header before any query can touch the store. Page payloads are
    // validated lazily at fault-in.
    const std::string path = DocPath(dir, manifest.epoch, i);
    ValidateFileHeader(path);
    persisted += std::filesystem::file_size(path, ec);
  }
  auto store = std::unique_ptr<PersistentStore>(
      new PersistentStore(dir, std::move(manifest), opts));
  store->persisted_bytes_ = persisted;
  return store;
}

xml::Document PersistentStore::LoadDocument(size_t i) {
  const ManifestDoc& meta = manifest_.docs[i];
  xml::Document doc =
      StoreCodec::DecodeDocument(meta, DocPath(dir_, manifest_.epoch, i));
  resident_bytes_.fetch_add(meta.approx_bytes, std::memory_order_relaxed);
  charged_[i] = meta.approx_bytes;
  return doc;
}

void PersistentStore::UnloadDocument(size_t i) {
  resident_bytes_.fetch_sub(charged_[i], std::memory_order_relaxed);
  charged_[i] = 0;
}

std::unique_ptr<xml::DocumentStats> PersistentStore::LoadStats(size_t i) {
  const ManifestDoc& meta = manifest_.docs[i];
  std::unique_ptr<xml::DocumentStats> stats =
      StoreCodec::DecodeStats(meta.stats);
  if (stats == nullptr || stats->built_node_count() != meta.node_count) {
    throw Error(ErrorCode::kStoreCorrupt,
                "persistent-store statistics of '" + meta.name +
                    "' are malformed or do not match its node count",
                0, JoinPath(dir_, kManifestName), "storage.stats");
  }
  return stats;
}

}  // namespace nalq::storage
