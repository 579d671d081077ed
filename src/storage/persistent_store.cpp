#include "storage/persistent_store.h"

#include <algorithm>
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
  uint64_t bytes = doc.records().size_bytes() + doc.arena().size() +
                   doc.node_count() * sizeof(void*);
  for (uint32_t i = 0; i < doc.names().size(); ++i) {
    bytes += doc.names().Get(i).size();
  }
  return bytes;
}

void StoreCodec::EncodeDocument(const xml::Document& doc,
                                PageFileWriter* out) {
  // The interner's full string table in id order, so every name id reads
  // back as itself: one page, names are few.
  const xml::StringInterner& names = doc.names();
  std::string payload;
  for (uint32_t i = 0; i < names.size(); ++i) PutBytes(&payload, names.Get(i));
  out->WritePage(PageType::kNameTable, static_cast<uint32_t>(names.size()), 0,
                 payload);
  // Then the records and the arena, byte for byte as they are in memory.
  constexpr size_t kRecordsPerPage = kPagePayloadTarget / sizeof(xml::Node);
  const std::span<const xml::Node> records = doc.records();
  for (size_t at = 0; at < records.size(); at += kRecordsPerPage) {
    const size_t n = std::min(kRecordsPerPage, records.size() - at);
    out->WritePage(PageType::kNodeRecords, static_cast<uint32_t>(n),
                   static_cast<uint32_t>(at),
                   std::string_view(
                       reinterpret_cast<const char*>(records.data() + at),
                       n * sizeof(xml::Node)));
  }
  const std::span<const char> arena = doc.arena();
  for (size_t at = 0; at < arena.size(); at += kPagePayloadTarget) {
    const size_t n = std::min(kPagePayloadTarget, arena.size() - at);
    out->WritePage(PageType::kTextArena, static_cast<uint32_t>(n),
                   static_cast<uint32_t>(at),
                   std::string_view(arena.data() + at, n));
  }
}

xml::Document StoreCodec::DecodeDocument(const ManifestDoc& meta,
                                         const std::string& path) {
  auto corrupt = [&path](const std::string& what) -> void {
    throw Error(ErrorCode::kStoreCorrupt, what, 0, path, "storage.document");
  };
  // One pass over the checksummed pages checks their order and sizes the
  // three arrays exactly; the second copies the pages into them.
  PageFileReader reader(path);
  std::vector<PageInfo> pages;
  uint64_t items[3] = {0, 0, 0};  // names, records, arena bytes so far
  size_t section = 0;
  PageInfo page;
  while (reader.Next(&page)) {
    const auto type = static_cast<uint32_t>(page.type);
    if (type < 1 || type > 3 || type - 1 < section ||
        page.first_item != items[type - 1]) {
      corrupt("persistent-store document pages out of order or unknown");
    }
    section = type - 1;
    const uint64_t unit =
        page.type == PageType::kNodeRecords ? sizeof(xml::Node) : 1;
    if (page.type != PageType::kNameTable &&
        page.payload.size() != page.item_count * unit) {
      corrupt("persistent-store document page size disagrees with its count");
    }
    items[section] += page.item_count;
    pages.push_back(page);
  }
  if (items[1] != meta.node_count) {
    corrupt("persistent-store document node count does not match manifest");
  }
  xml::StringInterner names;
  std::vector<xml::Node> records(items[1]);
  std::vector<char> arena(items[2]);
  for (const PageInfo& p : pages) {
    if (p.type == PageType::kNameTable) {
      const auto* base = reinterpret_cast<const uint8_t*>(p.payload.data());
      ByteReader r{base, base + p.payload.size()};
      for (uint32_t i = 0; i < p.item_count; ++i) {
        std::string_view s;
        if (!r.LengthPrefixed(&s)) {
          corrupt("persistent-store name-table page malformed");
        }
        // The interner starts with the empty name as id 0, so the table's
        // first entry must be that name and every later one new.
        if (names.Intern(s) != p.first_item + i) {
          corrupt("persistent-store name table is not an interner's table");
        }
      }
      if (r.remaining() != 0) {
        corrupt("persistent-store document page has trailing bytes");
      }
    } else if (!p.payload.empty()) {  // memcpy takes no null pointer
      char* to = p.type == PageType::kNodeRecords
                     ? reinterpret_cast<char*>(records.data() + p.first_item)
                     : arena.data() + p.first_item;
      std::memcpy(to, p.payload.data(), p.payload.size());
    }
  }
  xml::Document doc(meta.name, std::move(names), std::move(records),
                    std::move(arena));
  if (const char* broken = doc.Validate()) {
    corrupt(std::string("persistent-store document is malformed: ") + broken);
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
