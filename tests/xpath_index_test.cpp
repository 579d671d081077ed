// Differential + invariant suite for the structural numbering (node.h), the
// per-document index (xml/index.h) and index-backed XPath evaluation
// (xml/xpath.h PathEvalMode):
//
//   * [pre, pre+size) numbering invariants on parsed, hand-built and
//     randomized documents,
//   * indexed and scan path evaluation produce identical NodeRef sequences
//     on randomized documents × randomized paths × randomized (nested,
//     overlapping) context sets — results are XPathStats-independent,
//   * every plan alternative of the paper's Q1–Q6 produces byte-identical
//     output under both engine::PathMode settings × both executors,
//   * the index actually cuts nodes_visited on //-heavy paths and the Store
//     invalidates indexes when a document is replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "xml/index.h"
#include "xml/parser.h"
#include "xml/xpath.h"

namespace nalq::xml {
namespace {

// ---------------------------------------------------------------------------
// Structural numbering invariants
// ---------------------------------------------------------------------------

/// Recomputes every node's subtree extent by walking the tree and compares
/// against the incrementally maintained numbering.
void CheckNumbering(const Document& doc) {
  const size_t n = doc.node_count();
  std::vector<NodeId> expected_end(n, 0);
  // Post-order accumulation: a node's extent ends where its last attribute
  // or descendant ends. Walk ids descending; children/attributes have
  // larger ids than their parent (depth-first construction), so their
  // extents are final when the parent is visited.
  for (NodeId id = static_cast<NodeId>(n); id-- > 0;) {
    NodeId end = id + 1;
    for (NodeId a = doc.first_attr(id); a != kNoNode; a = doc.next_sibling(a)) {
      end = std::max(end, expected_end[a]);
    }
    for (NodeId c = doc.first_child(id); c != kNoNode;
         c = doc.next_sibling(c)) {
      end = std::max(end, expected_end[c]);
    }
    expected_end[id] = end;
  }
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_EQ(doc.subtree_end(id), expected_end[id]) << "node " << id;
    ASSERT_EQ(doc.pre(id), id);
    ASSERT_GE(doc.subtree_size(id), 1u);
    // Children (and attributes) lie strictly inside the parent's extent.
    NodeId parent = doc.parent(id);
    if (parent != kNoNode) {
      EXPECT_TRUE(doc.IsDescendant(parent, id))
          << "node " << id << " outside parent " << parent << " extent";
    }
    // Extents are contiguous: every id in (id, subtree_end) descends from
    // id via the parent chain.
    for (NodeId d = id + 1; d < doc.subtree_end(id); ++d) {
      NodeId a = d;
      while (a != kNoNode && a != id) a = doc.parent(a);
      EXPECT_EQ(a, id) << "id " << d << " inside extent of " << id
                       << " but not a descendant";
    }
  }
  // The document node's extent covers the whole node vector.
  EXPECT_EQ(doc.subtree_end(doc.root()), n);
}

TEST(StructuralNumberingTest, ParsedDocument) {
  Document doc = ParseDocument("bib.xml", R"(
    <bib>
      <book year="1994"><title>T1</title>
        <author><last>L1</last><first>F1</first></author>
      </book>
      <book year="2000"><title>T2</title></book>
    </bib>)");
  CheckNumbering(doc);
}

TEST(StructuralNumberingTest, HandBuiltWithAttributes) {
  Document doc("d");
  NodeId root = doc.AddElement(doc.root(), "r");
  doc.AddAttribute(root, "x", "1");
  NodeId a = doc.AddElement(root, "a");
  doc.AddAttribute(a, "y", "2");
  doc.AddText(a, "t");
  doc.AddElement(root, "b");
  CheckNumbering(doc);
  EXPECT_EQ(doc.subtree_end(root), doc.node_count());
  EXPECT_TRUE(doc.IsDescendant(root, a));
  EXPECT_FALSE(doc.IsDescendant(a, root));
}

// ---------------------------------------------------------------------------
// Randomized documents + paths
// ---------------------------------------------------------------------------

const char* const kTags[] = {"a", "b", "c", "d"};
const char* const kAttrs[] = {"x", "y"};

/// Builds a random document depth-first: elements from a 4-tag alphabet
/// (same-name nesting is common, exercising nested-context normalization),
/// attributes and text sprinkled in.
Document RandomDocument(std::mt19937* rng, int max_nodes) {
  Document doc("rand.xml");
  std::uniform_int_distribution<int> tag(0, 3);
  std::uniform_int_distribution<int> attr(0, 1);
  std::uniform_int_distribution<int> pct(0, 99);
  int budget = max_nodes;
  // Recursive lambda, depth-first as Document requires.
  auto build = [&](auto&& self, NodeId parent, int depth) -> void {
    std::uniform_int_distribution<int> fanout(0, depth > 5 ? 0 : 4);
    int children = fanout(*rng);
    for (int i = 0; i < children && budget > 0; ++i) {
      if (pct(*rng) < 15) {
        --budget;
        doc.AddText(parent, "t" + std::to_string(pct(*rng)));
        continue;
      }
      --budget;
      NodeId el = doc.AddElement(parent, kTags[tag(*rng)]);
      while (pct(*rng) < 30 && budget > 0) {
        --budget;
        doc.AddAttribute(el, kAttrs[attr(*rng)], std::to_string(pct(*rng)));
      }
      self(self, el, depth + 1);
    }
  };
  NodeId root = doc.AddElement(doc.root(), "root");
  build(build, root, 0);
  return doc;
}

/// A random path of 1–4 steps over the same alphabet (wildcards, attribute
/// and text steps included).
Path RandomPath(std::mt19937* rng) {
  std::uniform_int_distribution<int> len(1, 4);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> tag(0, 3);
  std::uniform_int_distribution<int> attr(0, 1);
  std::uniform_int_distribution<int> coin(0, 1);
  std::vector<Step> steps;
  int n = len(*rng);
  for (int i = 0; i < n; ++i) {
    Step s;
    switch (kind(*rng)) {
      case 0:
      case 1:
      case 2:
        s.axis = Axis::kChild;
        s.name = kTags[tag(*rng)];
        break;
      case 3:
      case 4:
      case 5:
        s.axis = Axis::kDescendant;
        s.name = kTags[tag(*rng)];
        break;
      case 6:
        s.axis = Axis::kDescendant;
        s.name = "*";
        break;
      case 7:
        s.axis = Axis::kChild;
        s.name = "*";
        break;
      case 8:
        s.axis = Axis::kAttribute;
        s.name = coin(*rng) ? kAttrs[attr(*rng)] : "*";
        break;
      default:
        s.axis = Axis::kText;
        s.name = "text";
        break;
    }
    steps.push_back(std::move(s));
  }
  return Path(coin(*rng) == 0, std::move(steps));
}

TEST(StructuralNumberingTest, RandomizedDocuments) {
  std::mt19937 rng(20260730);
  for (int round = 0; round < 20; ++round) {
    Document doc = RandomDocument(&rng, 120);
    CheckNumbering(doc);
  }
}

TEST(IndexTest, OccurrenceListsSortedAndComplete) {
  std::mt19937 rng(7);
  for (int round = 0; round < 10; ++round) {
    Document doc = RandomDocument(&rng, 150);
    DocumentIndex index(doc);
    size_t elements = 0, texts = 0;
    for (NodeId id = 0; id < doc.node_count(); ++id) {
      if (doc.kind(id) == NodeKind::kElement) ++elements;
      if (doc.kind(id) == NodeKind::kText) ++texts;
    }
    EXPECT_EQ(index.AllElements().size(), elements);
    EXPECT_EQ(index.TextNodes().size(), texts);
    EXPECT_TRUE(std::is_sorted(index.AllElements().begin(),
                               index.AllElements().end()));
    EXPECT_TRUE(
        std::is_sorted(index.TextNodes().begin(), index.TextNodes().end()));
    for (const char* t : kTags) {
      uint32_t name_id = doc.names().Find(t);
      if (name_id == UINT32_MAX) continue;
      std::span<const NodeId> list = index.Elements(name_id);
      EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
      EXPECT_EQ(list.size(), doc.CountElements(t));
    }
    // An un-interned name resolves to the empty list.
    EXPECT_TRUE(index.Elements(UINT32_MAX).empty());
  }
}

TEST(PathModeDifferentialTest, RandomizedSingleContext) {
  std::mt19937 rng(20260731);
  for (int round = 0; round < 30; ++round) {
    Store store;
    DocId doc_id = store.AddDocument(RandomDocument(&rng, 200));
    const Document& doc = store.document(doc_id);
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(doc.node_count() - 1));
    for (int p = 0; p < 25; ++p) {
      Path path = RandomPath(&rng);
      NodeRef context{doc_id, pick(rng)};
      XPathStats indexed_stats, scan_stats;
      auto indexed = EvalPath(store, path, context, &indexed_stats,
                              PathEvalMode::kIndexed);
      auto scan =
          EvalPath(store, path, context, &scan_stats, PathEvalMode::kScan);
      ASSERT_EQ(indexed, scan)
          << "path " << path.ToString() << " from node " << context.id;
      // Results are normalized regardless of mode.
      ASSERT_TRUE(std::is_sorted(indexed.begin(), indexed.end()));
      ASSERT_EQ(std::adjacent_find(indexed.begin(), indexed.end()),
                indexed.end());
      // Both modes count path steps identically.
      EXPECT_EQ(indexed_stats.steps_evaluated, scan_stats.steps_evaluated);
    }
  }
}

TEST(PathModeDifferentialTest, RandomizedMultiContext) {
  std::mt19937 rng(424242);
  for (int round = 0; round < 20; ++round) {
    Store store;
    DocId doc_id = store.AddDocument(RandomDocument(&rng, 200));
    const Document& doc = store.document(doc_id);
    std::uniform_int_distribution<NodeId> pick(
        0, static_cast<NodeId>(doc.node_count() - 1));
    std::uniform_int_distribution<int> count(2, 6);
    for (int p = 0; p < 15; ++p) {
      Path path = RandomPath(&rng);
      // Deliberately overlapping/nested/duplicated contexts, including the
      // document node (whole-subtree overlap with everything).
      std::vector<NodeRef> contexts = {NodeRef{doc_id, 0}};
      int n = count(rng);
      for (int i = 0; i < n; ++i) contexts.push_back({doc_id, pick(rng)});
      auto indexed =
          EvalPath(store, path, std::span<const NodeRef>(contexts), nullptr,
                   PathEvalMode::kIndexed);
      auto scan = EvalPath(store, path, std::span<const NodeRef>(contexts),
                           nullptr, PathEvalMode::kScan);
      ASSERT_EQ(indexed, scan) << "path " << path.ToString();
      ASSERT_TRUE(std::is_sorted(indexed.begin(), indexed.end()));
      ASSERT_EQ(std::adjacent_find(indexed.begin(), indexed.end()),
                indexed.end());
    }
  }
}

// ---------------------------------------------------------------------------
// Index efficacy and Store invalidation
// ---------------------------------------------------------------------------

TEST(IndexEfficacyTest, DescendantNodesVisitedReducedAtLeast5x) {
  Store store;
  datagen::BibOptions options;
  options.books = 200;
  options.authors_per_book = 3;
  DocId doc_id = store.AddDocumentText("bib.xml", datagen::GenerateBib(options));
  NodeRef root{doc_id, 0};
  Path path = Path::Parse("//author");
  XPathStats indexed_stats, scan_stats;
  auto indexed =
      EvalPath(store, path, root, &indexed_stats, PathEvalMode::kIndexed);
  auto scan = EvalPath(store, path, root, &scan_stats, PathEvalMode::kScan);
  ASSERT_EQ(indexed, scan);
  ASSERT_FALSE(indexed.empty());
  // The range scan touches exactly the matching occurrences; the chain walk
  // touches every element and text node of the document.
  EXPECT_EQ(indexed_stats.nodes_visited, indexed.size());
  EXPECT_GE(scan_stats.nodes_visited, 5 * indexed_stats.nodes_visited)
      << "scan " << scan_stats.nodes_visited << " vs indexed "
      << indexed_stats.nodes_visited;
  EXPECT_GT(indexed_stats.index_lookups, 0u);
  EXPECT_GT(indexed_stats.index_nodes_skipped, 0u);
  EXPECT_EQ(scan_stats.index_lookups, 0u);
}

TEST(IndexEfficacyTest, ChildOnlyStepsNoRegression) {
  Store store;
  DocId doc_id = store.AddDocumentText("d.xml", R"(
    <r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>)");
  NodeRef root{doc_id, 0};
  Path path = Path::Parse("/r/a/b");
  XPathStats indexed_stats, scan_stats;
  auto indexed =
      EvalPath(store, path, root, &indexed_stats, PathEvalMode::kIndexed);
  auto scan = EvalPath(store, path, root, &scan_stats, PathEvalMode::kScan);
  ASSERT_EQ(indexed, scan);
  ASSERT_EQ(indexed.size(), 3u);
  // Child steps on a tiny fanout keep the direct chain walk: no extra
  // visits beyond what the scan does.
  EXPECT_LE(indexed_stats.nodes_visited, scan_stats.nodes_visited);
}

TEST(StoreIndexTest, ReplacingDocumentInvalidatesIndex) {
  Store store;
  DocId doc_id = store.AddDocumentText("d.xml", "<r><a>1</a></r>");
  NodeRef root{doc_id, 0};
  auto before = EvalPath(store, Path::Parse("//a"), root, nullptr,
                         PathEvalMode::kIndexed);
  ASSERT_EQ(before.size(), 1u);
  // Replace under the same name: same DocId, new content.
  ASSERT_EQ(store.AddDocumentText("d.xml", "<r><a>1</a><a>2</a><a>3</a></r>"),
            doc_id);
  auto after = EvalPath(store, Path::Parse("//a"), root, nullptr,
                        PathEvalMode::kIndexed);
  EXPECT_EQ(after.size(), 3u);
}

// ---------------------------------------------------------------------------
// Path::Concat overloads (satellite)
// ---------------------------------------------------------------------------

TEST(PathConcatTest, LvalueAndRvalueOverloadsAgree) {
  Path head = Path::Parse("//book");
  Path tail = Path::Parse("author/last");
  Path copied = head.Concat(tail);
  Path moved = Path::Parse("//book").Concat(tail);
  EXPECT_EQ(copied, moved);
  EXPECT_EQ(copied.ToString(), "//book/author/last");
  EXPECT_EQ(head.ToString(), "//book");  // lvalue form leaves `head` intact
}

}  // namespace
}  // namespace nalq::xml

// ---------------------------------------------------------------------------
// Engine toggle over the paper's Q1–Q6 plans
// ---------------------------------------------------------------------------

namespace nalq {
namespace {

class PathModeQueriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const size_t n = 25;
    datagen::BibOptions bib;
    bib.books = n;
    bib.authors_per_book = 3;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
    engine_.AddDocument("reviews.xml", datagen::GenerateReviews(n));
    engine_.RegisterDtd("reviews.xml", datagen::kReviewsDtd);
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(n));
    engine_.RegisterDtd("prices.xml", datagen::kPricesDtd);
    datagen::AuctionOptions auction;
    auction.bids = n + n / 2;
    engine_.AddDocument("bids.xml", datagen::GenerateBids(auction));
    engine_.RegisterDtd("bids.xml", datagen::kBidsDtd);
  }

  /// Every plan alternative × both executors × both path modes must produce
  /// the byte-identical output, and within one executor the two path modes
  /// must also agree on every EvalStats counter except the xpath ones.
  void CheckAllModesAgree(const std::string& query) {
    engine::CompiledQuery q = engine_.Compile(query);
    for (const rewrite::Alternative& alt : q.alternatives) {
      engine::RunResult reference = engine_.Run(
          alt.plan, engine::ExecMode::kStreaming, engine::PathMode::kIndexed);
      ASSERT_FALSE(reference.output.empty()) << alt.rule;
      for (engine::ExecMode mode : {engine::ExecMode::kStreaming,
                                    engine::ExecMode::kMaterializing}) {
        for (engine::PathMode path :
             {engine::PathMode::kIndexed, engine::PathMode::kScan}) {
          engine::RunResult r = engine_.Run(alt.plan, mode, path);
          EXPECT_EQ(r.output, reference.output)
              << alt.rule << " diverges under mode/path combination";
          EXPECT_EQ(r.stats.tuples_produced, reference.stats.tuples_produced)
              << alt.rule;
          EXPECT_EQ(r.stats.nested_alg_evals, reference.stats.nested_alg_evals)
              << alt.rule;
          EXPECT_EQ(r.stats.predicate_evals, reference.stats.predicate_evals)
              << alt.rule;
          EXPECT_EQ(r.stats.doc_scans, reference.stats.doc_scans) << alt.rule;
          EXPECT_EQ(r.stats.xpath.steps_evaluated,
                    reference.stats.xpath.steps_evaluated)
              << alt.rule;
        }
      }
      // The //-heavy plans must touch far fewer nodes under the index.
      engine::RunResult scan = engine_.Run(
          alt.plan, engine::ExecMode::kStreaming, engine::PathMode::kScan);
      EXPECT_LE(reference.stats.xpath.nodes_visited,
                scan.stats.xpath.nodes_visited)
          << alt.rule;
    }
  }

  engine::Engine engine_;
};

TEST_F(PathModeQueriesTest, Q1Grouping) {
  CheckAllModesAgree(R"(
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
  )");
}

TEST_F(PathModeQueriesTest, Q2Aggregation) {
  CheckAllModesAgree(R"(
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
  )");
}

TEST_F(PathModeQueriesTest, Q3Existential) {
  CheckAllModesAgree(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )");
}

TEST_F(PathModeQueriesTest, Q4ExistsCount) {
  CheckAllModesAgree(R"(
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
  )");
}

TEST_F(PathModeQueriesTest, Q5Universal) {
  CheckAllModesAgree(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )");
}

TEST_F(PathModeQueriesTest, Q6Having) {
  CheckAllModesAgree(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )");
}

}  // namespace
}  // namespace nalq
