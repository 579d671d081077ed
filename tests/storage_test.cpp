// Differential persistence tests for the on-disk document store
// (src/storage/): a persisted-then-reopened store must be observationally
// identical to the text-built store it came from — byte-identical Q1–Q6
// output and identical EvalStats across all three executors — and every
// injected corruption mode (truncation, flipped checksum bytes, stale
// format version, missing manifest, statistics that disagree with their
// document, torn writes) must fail closed with a structured engine::Error
// carrying the offending path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "nal/codec.h"
#include "nal/fault_injection.h"
#include "service/query_service.h"
#include "storage/format.h"
#include "storage/persistent_store.h"
#include "xml/serializer.h"
#include "xml/store.h"

namespace nalq {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers

/// Fresh directory under the system temp root, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<uint64_t> counter{0};
    path = fs::temp_directory_path() /
           ("nalq_storage_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  fs::path path;
};

/// Loads the paper-query corpus exactly as tests/e2e_queries_test.cpp does:
/// four documents with out-of-band DTD registrations (the DTDs must survive
/// persistence for the differential runs to agree).
void LoadCorpus(engine::Engine* engine, size_t n) {
  datagen::BibOptions bib;
  bib.books = n;
  bib.authors_per_book = 3;
  engine->AddDocument("bib.xml", datagen::GenerateBib(bib));
  engine->RegisterDtd("bib.xml", datagen::kBibDtd);
  engine->AddDocument("reviews.xml", datagen::GenerateReviews(n));
  engine->RegisterDtd("reviews.xml", datagen::kReviewsDtd);
  engine->AddDocument("prices.xml", datagen::GeneratePrices(n));
  engine->RegisterDtd("prices.xml", datagen::kPricesDtd);
  datagen::AuctionOptions auction;
  auction.bids = n + n / 2;
  engine->AddDocument("bids.xml", datagen::GenerateBids(auction));
  engine->RegisterDtd("bids.xml", datagen::kBidsDtd);
}

/// The six queries of the paper's Sec. 5 (same text as the e2e suite).
const char* const kQueries[] = {
    // Q1: grouping books by author.
    R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author>
        <name>{ $a1 }</name>
        {
          let $d2 := doc("bib.xml")
          for $b2 in $d2//book[$a1 = author]
          return $b2/title
        }
      </author>
  )",
    // Q2: aggregation (min price per title).
    R"(
    let $d1 := doc("prices.xml")
    for $t1 in distinct-values($d1//book/title)
    let $p1 := let $d2 := doc("prices.xml")
               for $b2 in $d2//book
               let $t2 := $b2/title
               let $p2 := $b2/price
               let $c2 := decimal($p2)
               where $t1 = $t2
               return $c2
    return
      <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>
  )",
    // Q3: existential quantification.
    R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )",
    // Q4: existential quantification via exists().
    R"(
    let $d1 := doc("bib.xml")
    for $b1 in $d1//book,
        $a1 in $b1/author
    where exists(
      for $b2 in $d1//book
      for $a2 in $b2/author
      where contains($a2, "Suciu") and $b1 = $b2
      return $b2)
    return
      <book>{ $a1 }</book>
  )",
    // Q5: universal quantification.
    R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )",
    // Q6: aggregation in the where clause.
    R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )",
};
constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);

const engine::ExecMode kModes[] = {engine::ExecMode::kStreaming,
                                   engine::ExecMode::kMaterializing,
                                   engine::ExecMode::kParallel};

const char* ModeName(engine::ExecMode mode) {
  switch (mode) {
    case engine::ExecMode::kStreaming: return "streaming";
    case engine::ExecMode::kMaterializing: return "materializing";
    case engine::ExecMode::kParallel: return "parallel";
  }
  return "?";
}

/// Full EvalStats comparison (same fields as tests/exchange_exec_test.cpp —
/// the cross-executor identical-stats contract).
testing::AssertionResult StatsEq(const nal::EvalStats& expected,
                                 const nal::EvalStats& actual) {
  if (expected.nested_alg_evals != actual.nested_alg_evals)
    return testing::AssertionFailure()
           << "nested_alg_evals " << expected.nested_alg_evals << " vs "
           << actual.nested_alg_evals;
  if (expected.doc_scans != actual.doc_scans)
    return testing::AssertionFailure()
           << "doc_scans " << expected.doc_scans << " vs " << actual.doc_scans;
  if (expected.tuples_produced != actual.tuples_produced)
    return testing::AssertionFailure()
           << "tuples_produced " << expected.tuples_produced << " vs "
           << actual.tuples_produced;
  if (expected.predicate_evals != actual.predicate_evals)
    return testing::AssertionFailure()
           << "predicate_evals " << expected.predicate_evals << " vs "
           << actual.predicate_evals;
  if (expected.xpath.steps_evaluated != actual.xpath.steps_evaluated)
    return testing::AssertionFailure()
           << "xpath.steps_evaluated " << expected.xpath.steps_evaluated
           << " vs " << actual.xpath.steps_evaluated;
  if (expected.xpath.nodes_visited != actual.xpath.nodes_visited)
    return testing::AssertionFailure()
           << "xpath.nodes_visited " << expected.xpath.nodes_visited << " vs "
           << actual.xpath.nodes_visited;
  if (expected.xpath.index_lookups != actual.xpath.index_lookups)
    return testing::AssertionFailure()
           << "xpath.index_lookups " << expected.xpath.index_lookups << " vs "
           << actual.xpath.index_lookups;
  if (expected.xpath.index_hits != actual.xpath.index_hits)
    return testing::AssertionFailure()
           << "xpath.index_hits " << expected.xpath.index_hits << " vs "
           << actual.xpath.index_hits;
  if (expected.xpath.index_nodes_skipped != actual.xpath.index_nodes_skipped)
    return testing::AssertionFailure()
           << "xpath.index_nodes_skipped " << expected.xpath.index_nodes_skipped
           << " vs " << actual.xpath.index_nodes_skipped;
  return testing::AssertionSuccess();
}

/// Runs `fn`, which must throw engine::Error; returns the caught error.
template <typename Fn>
engine::Error CaptureError(Fn&& fn) {
  try {
    fn();
  } catch (const engine::Error& e) {
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected engine::Error, got: " << e.what();
    return engine::Error(engine::ErrorCode::kPlanError, "wrong exception");
  }
  ADD_FAILURE() << "expected engine::Error, none thrown";
  return engine::Error(engine::ErrorCode::kPlanError, "no exception");
}

/// The first file in `dir` whose name contains `needle` (e.g. "_doc_0").
fs::path FindStoreFile(const fs::path& dir, const std::string& needle) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) {
      return entry.path();
    }
  }
  ADD_FAILURE() << "no file matching " << needle << " in " << dir;
  return {};
}

void FlipByteAt(const fs::path& file, uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

// ---------------------------------------------------------------------------
// The page checksum.

/// The byte-at-a-time table CRC-32 (reflected 0xEDB88320) the store's
/// checksum must keep matching: the on-disk format depends on its values.
uint32_t BytewiseCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

TEST(StorageFormatTest, Crc32MatchesBytewiseReference) {
  // The well-known check value of CRC-32/ISO-HDLC.
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  std::mt19937 rng(20050101);
  constexpr size_t kMaxLen = (64 << 10) + 5;
  std::vector<uint8_t> buffer(kMaxLen + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng());
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 80; ++len) lengths.push_back(len);
  std::uniform_int_distribution<size_t> any_len(0, kMaxLen);
  for (int i = 0; i < 24; ++i) lengths.push_back(any_len(rng));
  lengths.push_back(kMaxLen);
  for (size_t len : lengths) {
    for (size_t offset = 0; offset < 8; ++offset) {
      const uint8_t* p = buffer.data() + offset;
      const uint32_t seed = static_cast<uint32_t>(rng());
      EXPECT_EQ(storage::Crc32(p, len), BytewiseCrc32(p, len, 0))
          << "len " << len << " offset " << offset;
      EXPECT_EQ(storage::Crc32(p, len, seed), BytewiseCrc32(p, len, seed))
          << "len " << len << " offset " << offset << " seed " << seed;
      // Chained calls continue the checksum of the concatenation.
      const size_t cut = len / 3;
      EXPECT_EQ(storage::Crc32(p + cut, len - cut, storage::Crc32(p, cut)),
                storage::Crc32(p, len))
          << "len " << len << " offset " << offset << " cut " << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance test: persist → reopen differential suite.

TEST(StorageDifferentialTest, ReopenedStoreIsByteIdenticalAcrossExecutors) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);

  // Reference: every query under every executor on the text-built store.
  std::string outputs[kQueryCount][3];
  nal::EvalStats stats[kQueryCount][3];
  for (size_t q = 0; q < kQueryCount; ++q) {
    for (size_t m = 0; m < 3; ++m) {
      engine::RunResult r = text_engine.RunQuery(kQueries[q], kModes[m]);
      ASSERT_FALSE(r.output.empty()) << "Q" << q + 1;
      outputs[q][m] = r.output;
      stats[q][m] = r.stats;
    }
  }

  TempDir dir;
  text_engine.PersistStore(dir.str());

  engine::Engine warm_engine;
  warm_engine.AttachStore(dir.str());
  ASSERT_EQ(warm_engine.store().size(), text_engine.store().size());
  // Lazy attach: nothing materialized yet, DTDs already registered (they
  // feed translation before any document is resident).
  for (xml::DocId id = 0; id < warm_engine.store().size(); ++id) {
    EXPECT_FALSE(warm_engine.store().resident(id))
        << warm_engine.store().document_name(id);
    EXPECT_EQ(warm_engine.store().document_name(id),
              text_engine.store().document_name(id));
  }
  EXPECT_NE(warm_engine.dtds().Find("bib.xml"), nullptr)
      << "out-of-band DTD registration did not survive persistence";
  EXPECT_NE(warm_engine.dtds().Find("bids.xml"), nullptr);

  for (size_t q = 0; q < kQueryCount; ++q) {
    for (size_t m = 0; m < 3; ++m) {
      engine::RunResult r = warm_engine.RunQuery(kQueries[q], kModes[m]);
      EXPECT_EQ(r.output, outputs[q][m])
          << "Q" << q + 1 << " output diverged under " << ModeName(kModes[m]);
      EXPECT_TRUE(StatsEq(stats[q][m], r.stats))
          << "Q" << q + 1 << " stats diverged under " << ModeName(kModes[m]);
    }
  }
}

// Persisting a warm-attached store must round-trip again: attach → persist
// to a second directory → reopen → same answers (the store can be copied
// forward without ever seeing the original text).
TEST(StorageDifferentialTest, RepersistedAttachedStoreStaysIdentical) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  std::string reference = text_engine.RunQuery(kQueries[0]).output;

  TempDir first, second;
  text_engine.PersistStore(first.str());

  engine::Engine warm;
  warm.AttachStore(first.str());
  warm.PersistStore(second.str());

  engine::Engine rewarm;
  rewarm.AttachStore(second.str());
  EXPECT_EQ(rewarm.RunQuery(kQueries[0]).output, reference);
}

// One page file per document: the manifest holds the statistics, and
// nothing else is written.
TEST(StorageDifferentialTest, PersistWritesOneFilePerDocument) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  TempDir dir;
  text_engine.PersistStore(dir.str());

  auto store = storage::PersistentStore::Open(dir.str());
  std::set<std::string> expected = {"MANIFEST.nalq"};
  for (size_t i = 0; i < text_engine.store().size(); ++i) {
    expected.insert("e" + std::to_string(store->epoch()) + "_doc_" +
                    std::to_string(i) + ".nalq");
  }
  std::set<std::string> found;
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    found.insert(entry.path().filename().string());
    bytes += entry.file_size();
  }
  EXPECT_EQ(found, expected);
  EXPECT_EQ(store->persisted_bytes(), bytes);
}

// ---------------------------------------------------------------------------
// Index / stats equivalence: the index rebuilt from a decoded document and
// the statistics decoded from the manifest must answer every probe exactly
// like structures built from the text-built document.

/// Compares every statistics accessor over every pair of the document's
/// name ids.
void ExpectSameStats(const xml::DocumentStats& built,
                     const xml::DocumentStats& loaded, uint32_t names) {
  EXPECT_EQ(built.element_count(), loaded.element_count());
  EXPECT_EQ(built.attribute_count(), loaded.attribute_count());
  EXPECT_EQ(built.text_node_count(), loaded.text_node_count());
  for (uint32_t a = 0; a < names; ++a) {
    EXPECT_EQ(built.ElementCount(a), loaded.ElementCount(a)) << a;
    EXPECT_EQ(built.AttributeCount(a), loaded.AttributeCount(a)) << a;
    EXPECT_EQ(built.DistinctElementValues(a), loaded.DistinctElementValues(a))
        << a;
    EXPECT_EQ(built.DistinctAttrValues(a), loaded.DistinctAttrValues(a)) << a;
    for (uint32_t b = 0; b < names; ++b) {
      ASSERT_EQ(built.ChildEdges(a, b), loaded.ChildEdges(a, b))
          << a << "/" << b;
      ASSERT_EQ(built.ParentsWithChild(a, b), loaded.ParentsWithChild(a, b))
          << a << "/" << b;
      ASSERT_EQ(built.DescendantEdges(a, b), loaded.DescendantEdges(a, b))
          << a << "//" << b;
      ASSERT_EQ(built.AttrEdges(a, b), loaded.AttrEdges(a, b))
          << a << "/@" << b;
    }
  }
}

TEST(StorageDifferentialTest, LoadedIndexMatchesFreshlyBuiltIndex) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  TempDir dir;
  text_engine.PersistStore(dir.str());

  engine::Engine warm;
  warm.AttachStore(dir.str());
  xml::StoreReadLease text_lease(text_engine.store());
  xml::StoreReadLease warm_lease(warm.store());
  for (xml::DocId id = 0; id < warm.store().size(); ++id) {
    const xml::DocumentIndex& built = text_engine.store().index(id);
    const xml::DocumentIndex& loaded = warm.store().index(id);
    ASSERT_EQ(std::vector<xml::NodeId>(built.AllElements().begin(),
                                       built.AllElements().end()),
              std::vector<xml::NodeId>(loaded.AllElements().begin(),
                                       loaded.AllElements().end()));
    ASSERT_EQ(std::vector<xml::NodeId>(built.TextNodes().begin(),
                                       built.TextNodes().end()),
              std::vector<xml::NodeId>(loaded.TextNodes().begin(),
                                       loaded.TextNodes().end()));
    const size_t names = text_engine.store().document(id).names().size();
    for (uint32_t name = 0; name < names; ++name) {
      std::span<const xml::NodeId> be = built.Elements(name);
      std::span<const xml::NodeId> le = loaded.Elements(name);
      ASSERT_EQ(std::vector<xml::NodeId>(be.begin(), be.end()),
                std::vector<xml::NodeId>(le.begin(), le.end()))
          << "Elements(" << name << ") of doc " << id;
      std::span<const xml::NodeId> ba = built.Attributes(name);
      std::span<const xml::NodeId> la = loaded.Attributes(name);
      ASSERT_EQ(std::vector<xml::NodeId>(ba.begin(), ba.end()),
                std::vector<xml::NodeId>(la.begin(), la.end()))
          << "Attributes(" << name << ") of doc " << id;
    }
  }
}

TEST(StorageDifferentialTest, LoadedStatsMatchFreshlyBuiltStats) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  TempDir dir;
  text_engine.PersistStore(dir.str());

  engine::Engine warm;
  warm.AttachStore(dir.str());
  xml::StoreReadLease text_lease(text_engine.store());
  xml::StoreReadLease warm_lease(warm.store());
  for (xml::DocId id = 0; id < warm.store().size(); ++id) {
    const xml::DocumentStats& built = text_engine.store().stats(id);
    const xml::DocumentStats& loaded = warm.store().stats(id);
    ExpectSameStats(built, loaded,
                    static_cast<uint32_t>(
                        text_engine.store().document(id).names().size()));
  }
}

// ---------------------------------------------------------------------------
// Corruption injection: every mode fails closed with a structured
// engine::Error carrying the code and the offending path.

class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::Engine text_engine;
    LoadCorpus(&text_engine, 25);
    reference_ = text_engine.RunQuery(kQueries[0]).output;
    text_engine.PersistStore(dir_.str());
  }
  TempDir dir_;
  std::string reference_;
};

TEST_F(StorageCorruptionTest, TailTruncatedPageFailsOnFaultIn) {
  fs::path doc = FindStoreFile(dir_.path, "_doc_0");
  fs::resize_file(doc, fs::file_size(doc) - 7);
  // Headers are intact, so the cold-start validation passes; the fault-in
  // of the damaged document fails closed.
  engine::Engine warm;
  warm.AttachStore(dir_.str());
  engine::Error e = CaptureError([&] { warm.store().document(0); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreCorrupt) << e.what();
  EXPECT_EQ(e.path(), doc.string());
}

TEST_F(StorageCorruptionTest, HeaderTruncatedFileFailsAtOpen) {
  fs::path doc = FindStoreFile(dir_.path, "_doc_1");
  fs::resize_file(doc, 10);  // shorter than the 20-byte file header
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreCorrupt) << e.what();
  EXPECT_EQ(e.path(), doc.string());
}

TEST_F(StorageCorruptionTest, FlippedPayloadByteFailsChecksum) {
  fs::path doc = FindStoreFile(dir_.path, "_doc_2");
  FlipByteAt(doc, fs::file_size(doc) - 1);  // last payload byte of last page
  engine::Engine warm;
  warm.AttachStore(dir_.str());
  engine::Error e = CaptureError([&] { warm.store().document(2); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreCorrupt) << e.what();
  EXPECT_EQ(e.path(), doc.string());
}

TEST_F(StorageCorruptionTest, StaleFormatVersionInDataFileFailsAtOpen) {
  fs::path doc = FindStoreFile(dir_.path, "_doc_0");
  // Bytes [8,12) of every store file hold the format version, checked
  // before the header checksum so a foreign generation is reported as a
  // version mismatch, not as corruption.
  FlipByteAt(doc, 8);
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreVersionMismatch) << e.what();
  EXPECT_EQ(e.path(), doc.string());
}

TEST_F(StorageCorruptionTest, StaleFormatVersionInManifestFailsAtOpen) {
  fs::path manifest = dir_.path / "MANIFEST.nalq";
  ASSERT_TRUE(fs::exists(manifest));
  FlipByteAt(manifest, 8);
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreVersionMismatch) << e.what();
  EXPECT_EQ(e.path(), manifest.string());
}

// A store written before the 16-byte record layout (format version 2) fails
// closed with kStoreVersionMismatch, through its manifest and through each
// of its document files, whose header checksum is intact.
TEST_F(StorageCorruptionTest, VersionTwoStoreFailsClosed) {
  ASSERT_EQ(storage::kFormatVersion, 3u);
  auto set_version = [](const fs::path& file, bool reseal) {
    std::string bytes;
    {
      std::ifstream in(file, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const uint32_t version = 2;
    std::memcpy(&bytes[8], &version, sizeof(version));
    if (reseal) {
      const uint32_t crc = storage::Crc32(bytes.data(), 16);
      std::memcpy(&bytes[16], &crc, sizeof(crc));
    }
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  const fs::path doc = FindStoreFile(dir_.path, "_doc_1");
  set_version(doc, /*reseal=*/true);
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreVersionMismatch) << e.what();
  EXPECT_EQ(e.path(), doc.string());
  EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
      << e.what();

  const fs::path manifest = dir_.path / "MANIFEST.nalq";
  set_version(manifest, /*reseal=*/false);
  engine::Engine warm2;
  e = CaptureError([&] { warm2.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreVersionMismatch) << e.what();
  EXPECT_EQ(e.path(), manifest.string());
}

TEST_F(StorageCorruptionTest, FlippedManifestChecksumByteFailsAtOpen) {
  fs::path manifest = dir_.path / "MANIFEST.nalq";
  FlipByteAt(manifest, fs::file_size(manifest) - 5);
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreCorrupt) << e.what();
  EXPECT_EQ(e.path(), manifest.string());
}

// Statistics ride in the manifest under its one checksum. A manifest
// rewritten with a recomputed checksum whose statistics disagree with their
// document's node count opens, then fails closed on first use of those
// statistics, naming the manifest.
TEST_F(StorageCorruptionTest, MismatchedManifestStatisticsFailClosed) {
  const fs::path manifest = dir_.path / "MANIFEST.nalq";
  std::string bytes;
  {
    std::ifstream in(manifest, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Header: magic (8), version and endian tag (4 each), epoch (8), payload
  // size (4); the payload's CRC-32 closes the file.
  constexpr size_t kHeader = 28;
  ASSERT_GT(bytes.size(), kHeader + 4);
  const auto* base = reinterpret_cast<const uint8_t*>(bytes.data());
  nal::codec::ByteReader r{base + kHeader, base + bytes.size() - 4};
  uint32_t docs = 0;
  uint64_t node_count = 0;
  uint64_t approx_bytes = 0;
  std::string_view name, dtd, stats;
  ASSERT_TRUE(r.U32(&docs) && r.LengthPrefixed(&name) &&
              r.LengthPrefixed(&dtd) && r.U64(&node_count) &&
              r.U64(&approx_bytes) && r.LengthPrefixed(&stats));
  // The encoded statistics open with their built_node_count.
  bytes[stats.data() - bytes.data()] ^= 1;
  const uint32_t crc =
      storage::Crc32(bytes.data() + kHeader, bytes.size() - kHeader - 4);
  std::memcpy(&bytes[bytes.size() - 4], &crc, sizeof(crc));
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  engine::Engine warm;
  warm.AttachStore(dir_.str());
  xml::StoreReadLease lease(warm.store());
  engine::Error e = CaptureError([&] { warm.store().stats(0); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreCorrupt) << e.what();
  EXPECT_EQ(e.path(), manifest.string());
  EXPECT_FALSE(warm.store().resident(0));
}

TEST_F(StorageCorruptionTest, MissingManifestFailsAtOpenWithErrno) {
  fs::remove(dir_.path / "MANIFEST.nalq");
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreIo) << e.what();
  EXPECT_EQ(e.sys_errno(), ENOENT);
  EXPECT_NE(e.path().find("MANIFEST.nalq"), std::string::npos) << e.path();
}

TEST_F(StorageCorruptionTest, MissingDataFileFailsAtOpen) {
  fs::path doc = FindStoreFile(dir_.path, "_doc_3");
  fs::remove(doc);
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir_.str()); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreIo) << e.what();
  EXPECT_EQ(e.path(), doc.string());
}

// ---------------------------------------------------------------------------
// Torn writes: a Persist that dies mid-write (injected store.* faults) must
// leave the previous manifest and epoch untouched — the store reopens at
// its old contents; a later clean Persist commits the new ones.

TEST_F(StorageCorruptionTest, TornWritePersistLeavesOldEpochOpenable) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  text_engine.AddDocument("extra.xml", datagen::GeneratePrices(5));

  const nal::FaultSite sites[] = {nal::FaultSite::kStoreOpenWrite,
                                  nal::FaultSite::kStoreWrite,
                                  nal::FaultSite::kStoreClose};
  for (nal::FaultSite site : sites) {
    nal::ScopedFaultInjector scoped;
    scoped.injector().FailNth(site, 3, EIO);
    engine::Error e =
        CaptureError([&] { text_engine.PersistStore(dir_.str()); });
    EXPECT_EQ(e.code(), engine::ErrorCode::kStoreIo)
        << nal::FaultSiteName(site) << ": " << e.what();
    EXPECT_EQ(e.sys_errno(), EIO) << nal::FaultSiteName(site);

    // The old 4-document store is still fully openable and answers as
    // before, despite the partial new-epoch files lying around.
    engine::Engine warm;
    warm.AttachStore(dir_.str());
    EXPECT_EQ(warm.store().size(), 4u) << nal::FaultSiteName(site);
    EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference_)
        << nal::FaultSiteName(site);
  }

  // Clean retry: the 5-document store commits and reopens.
  text_engine.PersistStore(dir_.str());
  engine::Engine warm;
  warm.AttachStore(dir_.str());
  EXPECT_EQ(warm.store().size(), 5u);
  EXPECT_NE(warm.store().Find("extra.xml"), std::nullopt);
  EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference_);
}

TEST_F(StorageCorruptionTest, FaultedReadSurfacesAsStoreIo) {
  engine::Engine warm;
  warm.AttachStore(dir_.str());
  nal::ScopedFaultInjector scoped;
  scoped.injector().FailAlways(nal::FaultSite::kStoreRead, EIO);
  engine::Error e = CaptureError([&] { warm.store().document(0); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreIo) << e.what();
  EXPECT_EQ(e.sys_errno(), EIO);
  EXPECT_FALSE(e.path().empty());
}

// ---------------------------------------------------------------------------
// Randomized round-trip property: random datagen documents must survive
// persist → reopen with byte-identical serialization. Seeded; shrinks the
// corpus size on failure to report a minimal reproducer.

/// Round-trips one generated corpus; returns true when every document
/// serializes byte-identically after reopen. `diag` receives the first
/// divergence (or the error) for the failure report.
bool BibRoundTripOk(const datagen::BibOptions& bib, std::string* diag) {
  engine::Engine text_engine;
  text_engine.AddDocument("bib.xml", datagen::GenerateBib(bib));
  datagen::AuctionOptions auction;
  auction.bids = bib.books + 1;
  auction.seed = bib.seed;
  text_engine.AddDocument("bids.xml", datagen::GenerateBids(auction));
  TempDir dir;
  try {
    text_engine.PersistStore(dir.str());
    engine::Engine warm;
    warm.AttachStore(dir.str());
    if (warm.store().size() != text_engine.store().size()) {
      *diag = "document count diverged";
      return false;
    }
    for (xml::DocId id = 0; id < warm.store().size(); ++id) {
      std::string original =
          xml::SerializeDocument(text_engine.store().document(id));
      std::string reopened =
          xml::SerializeDocument(warm.store().document(id));
      if (original != reopened) {
        *diag = "serialization of " + warm.store().document_name(id) +
                " diverged (" + std::to_string(original.size()) + " vs " +
                std::to_string(reopened.size()) + " bytes)";
        return false;
      }
    }
  } catch (const std::exception& e) {
    *diag = e.what();
    return false;
  }
  return true;
}

TEST(StorageRoundTripTest, RandomizedDocumentsSurvivePersistReopen) {
  std::mt19937 rng(20260808);  // fixed seed: failures reproduce
  for (int iter = 0; iter < 8; ++iter) {
    datagen::BibOptions bib;
    bib.books = 1 + static_cast<size_t>(rng() % 60);
    bib.authors_per_book = static_cast<int>(1 + rng() % 4);
    bib.seed = static_cast<unsigned>(rng());
    std::string diag;
    if (BibRoundTripOk(bib, &diag)) continue;
    // Shrink: halve the corpus while the failure persists, then report the
    // smallest still-failing configuration.
    datagen::BibOptions smallest = bib;
    std::string small_diag = diag;
    datagen::BibOptions probe = bib;
    while (probe.books > 1) {
      probe.books /= 2;
      std::string d;
      if (!BibRoundTripOk(probe, &d)) {
        smallest = probe;
        small_diag = d;
      }
    }
    FAIL() << "round-trip diverged at books=" << bib.books
           << " authors_per_book=" << bib.authors_per_book
           << " seed=" << bib.seed << ": " << diag
           << "\nminimal reproducer: books=" << smallest.books
           << " authors_per_book=" << smallest.authors_per_book
           << " seed=" << smallest.seed << ": " << small_diag;
  }
}

// ---------------------------------------------------------------------------
// Lazy page-in under a residency budget: a tiny NALQ_STORE_CACHE_BYTES must
// change residency, never results; eviction happens at reader-free lease
// boundaries and evicted documents fault back in transparently.

TEST(StorageResidencyTest, CacheLimitEvictsAtLeaseBoundariesOnly) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  std::string reference = text_engine.RunQuery(kQueries[0]).output;
  TempDir dir;
  text_engine.PersistStore(dir.str());

  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "4096", 1), 0);
  engine::Engine warm;
  warm.AttachStore(dir.str());
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  ASSERT_NE(warm.store().source(), nullptr);
  EXPECT_EQ(warm.store().source()->cache_limit_bytes(), 4096u);

  // Two back-to-back runs: the second faults evicted documents back in and
  // must still match the text-built reference byte for byte.
  EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference);
  EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference);

  // A fresh lease is a reader-free boundary: everything over the (tiny)
  // limit is evicted, and the budget charge is released with it.
  {
    xml::StoreReadLease lease(warm.store());
    for (xml::DocId id = 0; id < warm.store().size(); ++id) {
      EXPECT_FALSE(warm.store().resident(id))
          << warm.store().document_name(id);
    }
  }
  EXPECT_EQ(warm.store().source()->resident_bytes(), 0u);
  EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference);
}

// Replacing a resident attached document detaches its slot from the source,
// so the source must give back the replaced document's residency charge —
// otherwise every later lease boundary evicts against an inflated count.
// The eager replacement itself stays resident, and its stale fault-order
// entry must not stop eviction of the documents behind it.
TEST(StorageResidencyTest, ReplacingResidentAttachedDocumentReleasesItsCharge) {
  engine::Engine text_engine;
  text_engine.AddDocument("d0.xml", "<r><a>1</a><a>2</a></r>");
  text_engine.AddDocument("d1.xml", "<r><b>3</b></r>");
  TempDir dir;
  text_engine.PersistStore(dir.str());

  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "1", 1), 0);
  engine::Engine warm;
  warm.AttachStore(dir.str());
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  const xml::Store& store = warm.store();
  const xml::DocId d0 = *store.Find("d0.xml");
  const xml::DocId d1 = *store.Find("d1.xml");
  store.document(d0);
  store.document(d1);
  ASSERT_TRUE(store.resident(d0));
  ASSERT_TRUE(store.resident(d1));

  warm.AddDocument("d0.xml", "<r><a>9</a></r>");
  { xml::StoreReadLease lease(store); }
  EXPECT_EQ(store.source()->resident_bytes(), 0u);
  EXPECT_FALSE(store.resident(d1));
  ASSERT_TRUE(store.resident(d0));
  EXPECT_EQ(store.document(d0).node_count(), 4u);  // the replacement's
}

// An out-of-band DTD registration on an attached store is a store-slot
// stamp: it must neither fault the document in nor keep it resident, and a
// re-persist must carry the stamped text to the next attach.
TEST(StorageResidencyTest, DtdStampLeavesAttachedDocumentEvictableAndPersists) {
  engine::Engine text_engine;
  text_engine.AddDocument("prices.xml", datagen::GeneratePrices(5));
  TempDir dir;
  text_engine.PersistStore(dir.str());

  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "1", 1), 0);
  engine::Engine warm;
  warm.AttachStore(dir.str());
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  const xml::Store& store = warm.store();
  const xml::DocId prices = *store.Find("prices.xml");
  ASSERT_FALSE(store.resident(prices));

  warm.RegisterDtd("prices.xml", datagen::kPricesDtd);
  EXPECT_FALSE(store.resident(prices)) << "the DTD stamp faulted it in";
  store.document(prices);
  ASSERT_TRUE(store.resident(prices));
  { xml::StoreReadLease lease(store); }
  EXPECT_FALSE(store.resident(prices)) << "the DTD stamp pinned it resident";

  TempDir second;
  warm.PersistStore(second.str());
  auto reopened = storage::PersistentStore::Open(second.str());
  bool found = false;
  for (size_t i = 0; i < reopened->document_count(); ++i) {
    if (reopened->document_name(i) != "prices.xml") continue;
    found = true;
    EXPECT_EQ(reopened->document_dtd(i), datagen::kPricesDtd);
  }
  EXPECT_TRUE(found);
  engine::Engine rewarm;
  rewarm.AttachStore(second.str());
  EXPECT_NE(rewarm.dtds().Find("prices.xml"), nullptr);
}

// Statistics of an attached document come from the manifest: reading them
// neither pages the document in nor builds its index, and they answer every
// probe like the text-built store's.
TEST(StorageResidencyTest, AttachedStatisticsLoadWithoutPageIn) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  TempDir dir;
  text_engine.PersistStore(dir.str());

  engine::Engine warm;
  warm.AttachStore(dir.str());
  const xml::Store& store = warm.store();
  xml::StoreReadLease text_lease(text_engine.store());
  xml::StoreReadLease warm_lease(store);
  for (xml::DocId id = 0; id < store.size(); ++id) {
    const xml::DocumentStats& loaded = store.stats(id);
    EXPECT_FALSE(store.resident(id)) << store.document_name(id);
    ExpectSameStats(text_engine.store().stats(id), loaded,
                    static_cast<uint32_t>(
                        text_engine.store().document(id).names().size()));
  }
  EXPECT_EQ(store.source()->resident_bytes(), 0u);
}

// Persisting an attached store takes one lease per document, so each lease
// boundary evicts what the previous document faulted in: residency stays
// within the cache limit plus one document, and the re-persisted store
// reopens with the same documents.
TEST(StorageResidencyTest, PersistOfAttachedStoreStaysWithinLimitPlusOneDocument) {
  constexpr uint64_t kLimit = 65536;
  engine::Engine text_engine;
  for (unsigned i = 0; i < 64; ++i) {
    datagen::BibOptions bib;
    bib.books = 20;
    bib.seed = i + 1;
    text_engine.AddDocument("b" + std::to_string(i) + ".xml",
                            datagen::GenerateBib(bib));
  }
  uint64_t largest = 0;
  {
    xml::StoreReadLease lease(text_engine.store());
    for (xml::DocId id = 0; id < text_engine.store().size(); ++id) {
      largest = std::max(largest, storage::StoreCodec::ApproxResidentBytes(
                                      text_engine.store().document(id)));
    }
  }
  ASSERT_GT(64 * largest, 4 * kLimit) << "the corpus must exceed the limit";
  TempDir first;
  text_engine.PersistStore(first.str());

  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "65536", 1), 0);
  engine::Engine warm;
  warm.AttachStore(first.str());
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  TempDir second;
  warm.PersistStore(second.str());
  EXPECT_LE(warm.store().source()->resident_bytes(), kLimit + largest);

  engine::Engine reopened;
  reopened.AttachStore(second.str());
  xml::StoreReadLease text_lease(text_engine.store());
  xml::StoreReadLease lease(reopened.store());
  ASSERT_EQ(reopened.store().size(), text_engine.store().size());
  for (xml::DocId id = 0; id < reopened.store().size(); ++id) {
    const xml::Document& want = text_engine.store().document(id);
    const xml::Document& got = reopened.store().document(id);
    EXPECT_EQ(xml::Serialize(got, got.root()), xml::Serialize(want, want.root()))
        << reopened.store().document_name(id);
  }
}

// Stored documents are immutable: even a mutable Store hands out only
// const documents.
static_assert(std::is_same_v<decltype(std::declval<xml::Store&>().document(0)),
                             const xml::Document&>);

// ---------------------------------------------------------------------------
// Concurrent readers over one attached store: first access races the
// fault-in path (serialized by the store's fault mutex); every thread must
// see the same bytes. Exercised under TSan in CI.

TEST(StorageConcurrencyTest, ConcurrentReadersShareOneAttachedStore) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  std::string references[kQueryCount];
  for (size_t q = 0; q < kQueryCount; ++q) {
    references[q] = text_engine.RunQuery(kQueries[q]).output;
  }
  TempDir dir;
  text_engine.PersistStore(dir.str());

  engine::Engine warm;
  warm.AttachStore(dir.str());
  constexpr int kThreads = 6;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        size_t q = static_cast<size_t>(t) % kQueryCount;
        engine::ExecMode mode =
            t % 2 == 0 ? engine::ExecMode::kStreaming
                       : engine::ExecMode::kParallel;
        engine::RunResult r = warm.RunQuery(kQueries[q], mode);
        if (r.output != references[q]) {
          failures[t] = "thread " + std::to_string(t) + " Q" +
                        std::to_string(q + 1) + " output diverged";
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

// Eviction racing reader registration (the TOCTOU regression): with a tiny
// cache limit every reader-free lease boundary evicts everything, so
// concurrent queries constantly interleave EvictOverLimit's reader-free
// check with other threads completing BeginRead and dereferencing resident
// documents. Without the reader-registration lock this is a use-after-free
// (a lease could register between the check and the free); with it, every
// run must stay byte-identical. Exercised under TSan in CI.
TEST(StorageConcurrencyTest, ConcurrentQueriesUnderCacheLimitStayIdentical) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  std::string references[kQueryCount];
  for (size_t q = 0; q < kQueryCount; ++q) {
    references[q] = text_engine.RunQuery(kQueries[q]).output;
  }
  TempDir dir;
  text_engine.PersistStore(dir.str());

  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "4096", 1), 0);
  engine::Engine warm;
  warm.AttachStore(dir.str());
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  ASSERT_EQ(warm.store().source()->cache_limit_bytes(), 4096u);

  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 3;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int iter = 0; iter < kItersPerThread; ++iter) {
          size_t q = static_cast<size_t>(t + iter) % kQueryCount;
          engine::ExecMode mode = (t + iter) % 2 == 0
                                      ? engine::ExecMode::kStreaming
                                      : engine::ExecMode::kParallel;
          engine::RunResult r = warm.RunQuery(kQueries[q], mode);
          if (r.output != references[q]) {
            failures[t] = "thread " + std::to_string(t) + " iter " +
                          std::to_string(iter) + " Q" + std::to_string(q + 1) +
                          " output diverged";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
}

// ---------------------------------------------------------------------------
// Persisting into the directory the store is itself attached to must not
// self-destruct the attachment: the superseded epoch's files stay in place
// (the live source's manifest still references them), so post-persist
// eviction + refault keeps working, and a fresh open sees the new epoch.

TEST(StorageDifferentialTest, PersistIntoOwnAttachedDirKeepsLiveEpoch) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  std::string reference = text_engine.RunQuery(kQueries[0]).output;
  TempDir dir;
  text_engine.PersistStore(dir.str());
  const uint64_t first_epoch = storage::PersistentStore::Open(dir.str())->epoch();

  // Tiny cache limit: every lease boundary evicts, so every query after
  // the self-persist refaults from the files the attachment was opened
  // with — exactly the files stale-epoch removal must not delete.
  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "4096", 1), 0);
  engine::Engine warm;
  warm.AttachStore(dir.str());
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference);

  warm.PersistStore(dir.str());

  // The live attachment still refaults from its original epoch's files.
  EXPECT_EQ(warm.RunQuery(kQueries[0]).output, reference);
  bool old_epoch_alive = false;
  const std::string old_tag = "e" + std::to_string(first_epoch) + "_";
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().filename().string().rfind(old_tag, 0) == 0) {
      old_epoch_alive = true;
      break;
    }
  }
  EXPECT_TRUE(old_epoch_alive)
      << "self-persist deleted the attached source's own epoch";

  // A fresh open commits forward: new epoch, same answers.
  auto reopened = storage::PersistentStore::Open(dir.str());
  EXPECT_GT(reopened->epoch(), first_epoch);
  engine::Engine rewarm;
  rewarm.AttachStore(dir.str());
  EXPECT_EQ(rewarm.RunQuery(kQueries[0]).output, reference);
}

// ---------------------------------------------------------------------------
// Untrusted counts: statistics whose declared entry count cannot fit in the
// bytes that follow must decode to null (→ structured kStoreCorrupt at the
// call site), never reserve gigabytes and die with bad_alloc.

TEST(StorageCodecTest, HugeDeclaredCountFailsClosedWithoutAllocating) {
  using nal::codec::PutU32;
  using nal::codec::PutU64;
  std::string stats_blob;
  PutU64(&stats_blob, 42);  // built_node_count
  PutU64(&stats_blob, 1);   // element_count
  PutU64(&stats_blob, 0);   // attribute_count
  PutU64(&stats_blob, 0);   // text_node_count
  PutU32(&stats_blob, 0xFFFFFFFFu);  // elements_ map count
  EXPECT_EQ(storage::StoreCodec::DecodeStats(stats_blob), nullptr);
}

// ---------------------------------------------------------------------------
// Service wiring: ServiceOptions::store_dir warm-attaches at construction;
// a bad directory fails the service closed at startup.

TEST(StorageServiceTest, ServiceWarmAttachesFromStoreDir) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  std::string reference = text_engine.RunQuery(kQueries[0]).output;
  TempDir dir;
  text_engine.PersistStore(dir.str());

  engine::Engine warm;
  service::ServiceOptions opts;
  opts.store_dir = dir.str();
  service::QueryService svc(warm, opts);
  EXPECT_EQ(warm.store().size(), 4u);
  service::QueryResult r = svc.Execute(kQueries[0]);
  ASSERT_TRUE(r.ok) << r.error_what;
  EXPECT_EQ(r.output, reference);
}

TEST(StorageServiceTest, ServiceFailsClosedOnBadStoreDir) {
  TempDir dir;  // empty: no manifest
  engine::Engine warm;
  service::ServiceOptions opts;
  opts.store_dir = dir.str();
  engine::Error e = CaptureError(
      [&] { service::QueryService svc(warm, opts); });
  EXPECT_EQ(e.code(), engine::ErrorCode::kStoreIo) << e.what();
}

TEST(StorageServiceTest, AttachRejectsMalformedCacheKnob) {
  engine::Engine text_engine;
  LoadCorpus(&text_engine, 25);
  TempDir dir;
  text_engine.PersistStore(dir.str());

  ASSERT_EQ(::setenv("NALQ_STORE_CACHE_BYTES", "lots", 1), 0);
  engine::Engine warm;
  engine::Error e = CaptureError([&] { warm.AttachStore(dir.str()); });
  ASSERT_EQ(::unsetenv("NALQ_STORE_CACHE_BYTES"), 0);
  EXPECT_EQ(e.code(), engine::ErrorCode::kPlanError) << e.what();
}

}  // namespace
}  // namespace nalq
