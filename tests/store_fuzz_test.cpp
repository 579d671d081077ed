// Seeded mutation fuzzer for persisted document files (src/storage/). A
// small store — a generated bib and one DTD-less document with attributes,
// mixed text and empty elements — is persisted once; every mutant of one of
// its page files is attached, faulted in and serialized. Each must end in a
// structured engine::Error (kStoreCorrupt, kStoreIo or
// kStoreVersionMismatch) or in a document that passes
// xml::Document::Validate. Bit flips and field edits get their page
// checksums recomputed, so the validation pass, not the CRC, has to catch
// them. A crash, UB (under the sanitizer builds), bad_alloc or hang fails
// the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "datagen/datagen.h"
#include "engine/error.h"
#include "storage/format.h"
#include "storage/persistent_store.h"
#include "xml/serializer.h"
#include "xml/store.h"

namespace nalq {
namespace {

namespace fs = std::filesystem;

constexpr int kMutants = 2000;
constexpr size_t kFileHeaderBytes = 20;
constexpr size_t kPageHeaderBytes = 28;

constexpr const char* kMixedDoc =
    R"(<r a="1" b="x&amp;y"><e/>text<m k="v">mixed <i>in</i> line</m>)"
    R"(<e z=""/><n><o p="q" s="t">deep<o/></o></n>tail</r>)";

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t GetU32(const std::string& f, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, f.data() + at, sizeof(v));
  return v;
}

void PutU32At(std::string* f, size_t at, uint32_t v) {
  std::memcpy(f->data() + at, &v, sizeof(v));
}

/// One page of a document file: where its header starts, its type, and
/// its payload's offset and size.
struct Page {
  size_t header;
  uint32_t type;
  size_t payload;
  uint32_t bytes;
  size_t end() const { return payload + bytes; }
};

std::vector<Page> Pages(const std::string& file) {
  std::vector<Page> pages;
  size_t at = kFileHeaderBytes;
  while (at + kPageHeaderBytes <= file.size()) {
    Page p{at, GetU32(file, at + 4), at + kPageHeaderBytes, GetU32(file, at + 8)};
    if (p.end() > file.size()) break;
    pages.push_back(p);
    at = p.end();
  }
  return pages;
}

/// Recomputes the checksums of the page whose header starts at `header`.
void Reseal(std::string* file, size_t header) {
  const uint32_t bytes = GetU32(*file, header + 8);
  const size_t payload = header + kPageHeaderBytes;
  if (payload + bytes <= file->size()) {
    PutU32At(file, header + 20, storage::Crc32(file->data() + payload, bytes));
  }
  PutU32At(file, header + 24, storage::Crc32(file->data() + header, 24));
}

/// Values that sit on the edges of a field whose valid range is [0, n).
uint32_t EdgeValue(std::mt19937* rng, uint64_t n) {
  const uint32_t n32 = static_cast<uint32_t>(std::min<uint64_t>(n, UINT32_MAX));
  const uint32_t values[] = {0,          1,          2,
                             n32 - 1,    n32,        n32 + 1,
                             n32 / 2,    UINT32_MAX, UINT32_MAX - 1,
                             0x3FFFFFFF, 0x40000000, 0x80000000,
                             static_cast<uint32_t>((*rng)())};
  return values[(*rng)() % std::size(values)];
}

/// Applies one random mutation to a document file. `nodes` and `arena` are
/// the document's node count and arena size, for edge values.
std::string Mutate(const std::string& original, std::mt19937* rng,
                   uint64_t nodes, uint64_t arena) {
  std::string f = original;
  const std::vector<Page> pages = Pages(f);
  auto pick = [&](uint32_t type) -> const Page* {
    std::vector<const Page*> of_type;
    for (const Page& p : pages) {
      if (p.bytes > 0 && (type == 0 || p.type == type)) of_type.push_back(&p);
    }
    return of_type.empty() ? nullptr : of_type[(*rng)() % of_type.size()];
  };
  switch ((*rng)() % 12) {
    case 0:
    case 1: {  // bit flip in a name-table, record or arena page, resealed
      const Page* p = pick(1 + (*rng)() % 3);
      if (p == nullptr) p = pick(0);
      const size_t at = p->payload + (*rng)() % p->bytes;
      f[at] = static_cast<char>(f[at] ^ (1 << ((*rng)() % 8)));
      Reseal(&f, p->header);
      break;
    }
    case 2:
    case 3: {  // one record field set to an edge value, resealed
      const Page* p = pick(2);
      const size_t record = (*rng)() % (p->bytes / sizeof(xml::Node));
      const size_t field = (*rng)() % 4;
      const size_t at = p->payload + record * sizeof(xml::Node) + 4 * field;
      uint32_t value = EdgeValue(rng, field == 3 ? arena : nodes);
      if (field == 0) {  // the kind bits, or a name id out of range
        value = (*rng)() % 2 == 0
                    ? static_cast<uint32_t>((*rng)() % 4) << 30 |
                          (GetU32(f, at) & xml::Node::kNameMask)
                    : (GetU32(f, at) & ~xml::Node::kNameMask) |
                          EdgeValue(rng, 16);
      }
      PutU32At(&f, at, value);
      Reseal(&f, p->header);
      break;
    }
    case 4: {  // a page header's type, count or first item, resealed
      const Page& p = pages[(*rng)() % pages.size()];
      const size_t field = 4 + 4 * ((*rng)() % 3);
      PutU32At(&f, p.header + field,
               field == 4 ? (*rng)() % 5 : EdgeValue(rng, nodes));
      Reseal(&f, p.header);
      break;
    }
    case 5: {  // a page's payload truncated or extended, resealed
      const Page* p = pick(0);
      const bool extend = (*rng)() % 2 == 0;
      const uint32_t k = 1 + (*rng)() % (extend ? 40 : p->bytes);
      if (extend) {
        std::string extra(k, '\0');
        for (char& c : extra) c = static_cast<char>((*rng)());
        f.insert(p->end(), extra);
      } else {
        f.erase(p->end() - k, k);
      }
      const uint32_t bytes = extend ? p->bytes + k : p->bytes - k;
      PutU32At(&f, p->header + 8, bytes);
      if ((*rng)() % 2 == 0) {  // keep the count consistent with the size
        PutU32At(&f, p->header + 12,
                 p->type == 2 ? bytes / sizeof(xml::Node) : bytes);
      }
      Reseal(&f, p->header);
      break;
    }
    case 6: {  // two pages swapped, or one dropped or duplicated
      const Page& a = pages[(*rng)() % pages.size()];
      const Page& b = pages[(*rng)() % pages.size()];
      const std::string pa = original.substr(a.header, a.end() - a.header);
      const std::string pb = original.substr(b.header, b.end() - b.header);
      switch ((*rng)() % 3) {
        case 0:
          if (a.header < b.header) {
            f = original.substr(0, a.header) + pb +
                original.substr(a.end(), b.header - a.end()) + pa +
                original.substr(b.end());
          } else if (b.header < a.header) {
            f = original.substr(0, b.header) + pa +
                original.substr(b.end(), a.header - b.end()) + pb +
                original.substr(a.end());
          }
          break;
        case 1:
          f.erase(a.header, a.end() - a.header);
          break;
        default:
          f.insert(a.end(), pa);
          break;
      }
      break;
    }
    case 7: {  // the file cut short
      f.resize((*rng)() % f.size());
      break;
    }
    case 8: {  // a flipped byte with the checksums left as they are
      const size_t at = (*rng)() % f.size();
      f[at] = static_cast<char>(f[at] ^ 0xFF);
      break;
    }
    case 9:
    case 10: {  // two adjacent records swapped, or one's kind and name
                // word copied from its predecessor (a repeated attribute
                // name, when both are attributes), resealed
      const Page* p = pick(2);
      const size_t records = p->bytes / sizeof(xml::Node);
      if (records < 2) break;
      const size_t at =
          p->payload + (1 + (*rng)() % (records - 1)) * sizeof(xml::Node);
      const size_t prev = at - sizeof(xml::Node);
      if ((*rng)() % 2 == 0) {
        std::swap_ranges(f.begin() + static_cast<std::ptrdiff_t>(prev),
                         f.begin() + static_cast<std::ptrdiff_t>(at),
                         f.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        PutU32At(&f, at, GetU32(f, prev));
      }
      Reseal(&f, p->header);
      break;
    }
    default: {  // several resealed bit flips in one record page
      const Page* p = pick(2);
      for (int i = 0, n = 2 + (*rng)() % 6; i < n; ++i) {
        const size_t at = p->payload + (*rng)() % p->bytes;
        f[at] = static_cast<char>(f[at] ^ (1 << ((*rng)() % 8)));
      }
      Reseal(&f, p->header);
      break;
    }
  }
  return f;
}

/// An independent check of a paged-in document, from the parent pointers
/// alone: the extents, the attribute placement, the name ids and the text
/// offsets Validate vouched for. Empty when the document holds up.
std::string ReferenceCheck(const xml::Document& doc) {
  using xml::NodeId;
  using xml::NodeKind;
  const size_t n = doc.node_count();
  if (n == 0 || doc.kind(0) != NodeKind::kDocument ||
      doc.parent(0) != xml::kNoNode) {
    return "no document node";
  }
  std::vector<std::vector<NodeId>> attrs(n);
  std::vector<std::vector<NodeId>> children(n);
  for (NodeId id = 1; id < n; ++id) {
    const NodeId p = doc.parent(id);
    if (p >= id || doc.kind(id) == NodeKind::kDocument) return "bad parent";
    const NodeKind pk = doc.kind(p);
    if (pk != NodeKind::kElement && pk != NodeKind::kDocument) {
      return "a leaf has children";
    }
    const bool attr = doc.kind(id) == NodeKind::kAttribute;
    if (attr && (pk != NodeKind::kElement || !children[p].empty())) {
      return "an attribute after its element's children";
    }
    (attr ? attrs : children)[p].push_back(id);
    const bool named = doc.kind(id) == NodeKind::kElement || attr;
    if (named ? doc.name_id(id) >= doc.names().size() : doc.name_id(id) != 0) {
      return "bad name id";
    }
  }
  for (NodeId a = 0; a < n; ++a) {
    // a's extent holds exactly the nodes whose parent chain reaches a.
    for (NodeId d = a + 1; d < n; ++d) {
      NodeId up = d;
      while (up != xml::kNoNode && up > a) up = doc.parent(up);
      if ((up == a) != doc.IsDescendant(a, d)) return "bad extent";
    }
    for (size_t i = 0; i < attrs[a].size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (doc.name_id(attrs[a][i]) == doc.name_id(attrs[a][j])) {
          return "repeated attribute name";
        }
      }
    }
    std::vector<NodeId> got;
    for (NodeId c = doc.first_child(a); c != xml::kNoNode;
         c = doc.next_sibling(c)) {
      got.push_back(c);
    }
    if (got != children[a]) return "derived children differ";
    got.clear();
    for (NodeId c = doc.first_attr(a); c != xml::kNoNode;
         c = doc.next_sibling(c)) {
      got.push_back(c);
    }
    if (got != attrs[a]) return "derived attributes differ";
    const NodeKind k = doc.kind(a);
    if (k != NodeKind::kText && k != NodeKind::kAttribute) {
      if (doc.records()[a].text != 0) return "a text offset on an element";
      continue;
    }
    // The LEB128 length prefix and the value stay inside the arena.
    const std::span<const char> arena = doc.arena();
    uint64_t length = 0;
    size_t at = doc.records()[a].text;
    int shift = 0;
    for (;; shift += 7) {
      if (at >= arena.size() || shift > 28) return "text offset out of range";
      const auto b = static_cast<uint8_t>(arena[at++]);
      length |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
    }
    if (length > arena.size() - at) return "text runs past the arena";
  }
  return "";
}

/// Attaches `dir`, faults document `id` in and serializes it: "ok", or
/// "rejected" for a structured store error, or a description of anything
/// else.
std::string Outcome(const std::string& dir, xml::DocId id) {
  try {
    xml::Store store;
    store.AttachSource(storage::PersistentStore::Open(dir));
    const xml::Document& doc = store.document(id);
    if (const std::string broken = ReferenceCheck(doc); !broken.empty()) {
      return "paged in a malformed document: " + broken;
    }
    xml::SerializeDocument(doc);
    return "ok";
  } catch (const engine::Error& e) {
    switch (e.code()) {
      case engine::ErrorCode::kStoreCorrupt:
      case engine::ErrorCode::kStoreIo:
      case engine::ErrorCode::kStoreVersionMismatch:
        return "rejected";
      default:
        return std::string("unexpected engine::Error: ") + e.what();
    }
  } catch (const std::exception& e) {
    return std::string("unexpected exception: ") + e.what();
  }
}

TEST(StoreFuzzTest, MutatedDocumentFilesFailClosedOrValidate) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("nalq_store_fuzz_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  struct RemoveOnExit {
    fs::path path;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } cleanup{dir};
  std::vector<std::string> serialized;
  std::vector<uint64_t> nodes;
  std::vector<uint64_t> arena;
  {
    xml::Store store;
    datagen::BibOptions bib;
    bib.books = 3;
    bib.seed = 7;
    store.AddDocumentText("bib.xml", datagen::GenerateBib(bib));
    store.AddDocumentText("mixed.xml", kMixedDoc);
    storage::Persist(store, dir.string());
    for (xml::DocId id = 0; id < store.size(); ++id) {
      serialized.push_back(xml::SerializeDocument(store.document(id)));
      nodes.push_back(store.document(id).node_count());
      arena.push_back(store.document(id).arena().size());
    }
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find("_doc_") != std::string::npos) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());  // e<E>_doc_0, e<E>_doc_1
  ASSERT_EQ(files.size(), 2u);
  std::vector<std::string> originals;
  for (const fs::path& file : files) originals.push_back(ReadFile(file));

  // The unmutated store pages in as the documents it was written from.
  for (xml::DocId id = 0; id < 2; ++id) {
    xml::Store store;
    store.AttachSource(storage::PersistentStore::Open(dir.string()));
    EXPECT_EQ(xml::SerializeDocument(store.document(id)), serialized[id]);
  }

  std::mt19937 rng(20261020);
  int rejected = 0;
  int accepted = 0;
  for (int m = 0; m < kMutants; ++m) {
    const xml::DocId id = rng() % 2;
    WriteFile(files[id], Mutate(originals[id], &rng, nodes[id], arena[id]));
    const std::string outcome = Outcome(dir.string(), id);
    WriteFile(files[id], originals[id]);
    if (outcome == "rejected") {
      ++rejected;
    } else if (outcome == "ok") {
      ++accepted;
    } else {
      ADD_FAILURE() << "mutant " << m << " of " << files[id].filename()
                    << ": " << outcome;
    }
  }
  // Both ends are reached: most mutants are caught, and some (a flipped
  // text byte, a renamed tag) are documents in their own right.
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(accepted, 0);
  std::printf("store fuzz: %d mutants, %d rejected, %d paged in\n", kMutants,
              rejected, accepted);
}

}  // namespace
}  // namespace nalq
