// Unit tests for the XML substrate: document trees, parser, serializer,
// store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/store.h"

namespace nalq::xml {
namespace {

TEST(DocumentTest, BuildsTreeWithDocumentOrderIds) {
  Document doc("test.xml");
  NodeId root = doc.AddElement(doc.root(), "bib");
  NodeId book = doc.AddElement(root, "book");
  NodeId title = doc.AddElement(book, "title");
  doc.AddText(title, "The Title");
  NodeId author = doc.AddElement(book, "author");
  doc.AddText(author, "A. Uthor");
  // Depth-first construction ⇒ ids ascend in document order.
  EXPECT_LT(root, book);
  EXPECT_LT(book, title);
  EXPECT_LT(title, author);
  EXPECT_EQ(doc.parent(book), root);
  EXPECT_EQ(doc.first_child(root), book);
  EXPECT_EQ(doc.next_sibling(title), author);
}

TEST(DocumentTest, StringValueConcatenatesDescendantText) {
  Document doc("t");
  NodeId root = doc.AddElement(doc.root(), "author");
  NodeId last = doc.AddElement(root, "last");
  doc.AddText(last, "Doe");
  NodeId first = doc.AddElement(root, "first");
  doc.AddText(first, "Jane");
  EXPECT_EQ(doc.StringValue(root), "DoeJane");
  EXPECT_EQ(doc.StringValue(last), "Doe");
}

TEST(DocumentTest, AttributesLiveOutsideChildChain) {
  Document doc("t");
  NodeId root = doc.AddElement(doc.root(), "book");
  NodeId year = doc.AddAttribute(root, "year", "1999");
  NodeId title = doc.AddElement(root, "title");
  EXPECT_EQ(doc.first_child(root), title);
  EXPECT_EQ(doc.first_attr(root), year);
  EXPECT_EQ(doc.kind(year), NodeKind::kAttribute);
  EXPECT_EQ(doc.StringValue(year), "1999");
}

TEST(DocumentTest, CountElements) {
  Document doc("t");
  NodeId root = doc.AddElement(doc.root(), "r");
  doc.AddElement(root, "x");
  doc.AddElement(root, "x");
  doc.AddElement(root, "y");
  EXPECT_EQ(doc.CountElements("x"), 2u);
  EXPECT_EQ(doc.CountElements("y"), 1u);
  EXPECT_EQ(doc.CountElements("z"), 0u);
}

/// A random document built through the construction API: elements with
/// zero to three attributes of distinct names, mixed content (text between
/// elements, never two texts in a row), empty elements and, now and then, a
/// chain nested 20–60 levels deep.
Document RandomDocument(std::mt19937* rng, int max_nodes) {
  static const char* const kTags[] = {"a", "b", "c", "d"};
  static const char* const kAttrs[] = {"x", "y", "z"};
  std::uniform_int_distribution<int> pct(0, 99);
  Document doc("rand.xml");
  int budget = max_nodes;
  auto element = [&](NodeId parent) {
    --budget;
    NodeId el = doc.AddElement(parent, kTags[pct(*rng) % 4]);
    const int first = pct(*rng) % 3;
    for (int a = 0, n = pct(*rng) % 4; a < n && budget > 0; ++a, --budget) {
      doc.AddAttribute(el, kAttrs[(first + a) % 3], std::to_string(pct(*rng)));
    }
    return el;
  };
  auto build = [&](auto&& self, NodeId parent, int depth) -> void {
    if (pct(*rng) < 5 && depth < 3) {
      NodeId cur = parent;
      for (int d = 0, n = 20 + pct(*rng) % 41; d < n && budget > 0; ++d) {
        cur = element(cur);
      }
      if (budget > 0) self(self, cur, depth + 1);
      return;
    }
    bool last_text = false;
    for (int i = 0, n = depth > 5 ? 0 : pct(*rng) % 5; i < n && budget > 0;
         ++i) {
      if (!last_text && pct(*rng) < 30) {
        --budget;
        doc.AddText(parent, "t" + std::to_string(pct(*rng)));
        last_text = true;
        continue;
      }
      last_text = false;
      self(self, element(parent), depth + 1);
    }
  };
  build(build, element(doc.root()), 0);
  return doc;
}

// indexed and scan XPath share first_child/next_sibling/first_attr for child
// steps, so the path differential cannot catch a wrong derivation: check it
// against each node's children and attributes computed from `parent` alone.
TEST(DocumentTest, DerivedNavigationMatchesParentPointers) {
  std::mt19937 rng(20261020);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const Document doc = RandomDocument(&rng, 400);
    ASSERT_EQ(doc.Validate(), nullptr);
    const size_t n = doc.node_count();
    std::vector<std::vector<NodeId>> attrs(n);
    std::vector<std::vector<NodeId>> children(n);
    for (NodeId id = 1; id < n; ++id) {
      (doc.kind(id) == NodeKind::kAttribute ? attrs : children)[doc.parent(id)]
          .push_back(id);
    }
    EXPECT_EQ(doc.next_sibling(doc.root()), kNoNode);
    for (NodeId id = 0; id < n; ++id) {
      std::vector<NodeId> got_attrs;
      for (NodeId a = doc.first_attr(id); a != kNoNode;
           a = doc.next_sibling(a)) {
        got_attrs.push_back(a);
      }
      std::vector<NodeId> got_children;
      for (NodeId c = doc.first_child(id); c != kNoNode;
           c = doc.next_sibling(c)) {
        got_children.push_back(c);
      }
      ASSERT_EQ(got_attrs, attrs[id]) << "attributes of node " << id;
      ASSERT_EQ(got_children, children[id]) << "children of node " << id;
    }
    // The text form parses back into the same bytes: one construction
    // order, one layout.
    const Document reparsed = ParseDocument("rand.xml", SerializeDocument(doc));
    ASSERT_EQ(reparsed.node_count(), n);
    EXPECT_EQ(std::memcmp(reparsed.records().data(), doc.records().data(),
                          doc.records().size_bytes()),
              0);
    EXPECT_TRUE(std::equal(reparsed.arena().begin(), reparsed.arena().end(),
                           doc.arena().begin(), doc.arena().end()));
  }
}

TEST(ParserTest, ParsesElementsAttributesText) {
  Document doc = ParseDocument(
      "t", R"(<bib><book year="1994"><title>TCP/IP</title></book></bib>)");
  NodeId bib = doc.first_child(doc.root());
  EXPECT_EQ(doc.node_name(bib), "bib");
  NodeId book = doc.first_child(bib);
  EXPECT_EQ(doc.node_name(book), "book");
  NodeId year = doc.first_attr(book);
  EXPECT_EQ(doc.node_name(year), "year");
  EXPECT_EQ(doc.raw_text(year), "1994");
  EXPECT_EQ(doc.StringValue(book), "TCP/IP");
}

TEST(ParserTest, DecodesEntities) {
  Document doc = ParseDocument("t", "<a b=\"x&amp;y\">1 &lt; 2 &#65;</a>");
  NodeId a = doc.first_child(doc.root());
  EXPECT_EQ(doc.raw_text(doc.first_attr(a)), "x&y");
  EXPECT_EQ(doc.StringValue(a), "1 < 2 A");
}

TEST(ParserTest, StripsWhitespaceOnlyTextByDefault) {
  Document doc = ParseDocument("t", "<a>\n  <b>x</b>\n  <c>y</c>\n</a>");
  NodeId a = doc.first_child(doc.root());
  NodeId b = doc.first_child(a);
  EXPECT_EQ(doc.node_name(b), "b");
  EXPECT_EQ(doc.node_name(doc.next_sibling(b)), "c");
}

TEST(ParserTest, KeepsWhitespaceWhenAsked) {
  ParseOptions options;
  options.strip_whitespace_text = false;
  Document doc = ParseDocument("t", "<a> <b>x</b></a>", options);
  NodeId a = doc.first_child(doc.root());
  EXPECT_EQ(doc.kind(doc.first_child(a)), NodeKind::kText);
}

TEST(ParserTest, CapturesDoctypeInternalSubset) {
  Document doc = ParseDocument("t", R"(<!DOCTYPE bib [
    <!ELEMENT bib (book*)>
  ]><bib/>)");
  EXPECT_NE(doc.dtd_text().find("<!ELEMENT bib (book*)>"), std::string::npos);
}

TEST(ParserTest, HandlesCommentsCdataAndPi) {
  Document doc = ParseDocument(
      "t", "<?xml version=\"1.0\"?><!-- c --><a><!-- x --><![CDATA[<raw>]]>"
           "<?pi data?></a>");
  NodeId a = doc.first_child(doc.root());
  EXPECT_EQ(doc.StringValue(a), "<raw>");
}

TEST(ParserTest, EmptyElementSyntax) {
  Document doc = ParseDocument("t", "<a><b/><c x=\"1\"/></a>");
  NodeId a = doc.first_child(doc.root());
  NodeId b = doc.first_child(a);
  EXPECT_EQ(doc.node_name(b), "b");
  EXPECT_EQ(doc.first_child(b), kNoNode);
  NodeId c = doc.next_sibling(b);
  EXPECT_EQ(doc.raw_text(doc.first_attr(c)), "1");
}

TEST(ParserTest, RejectsMismatchedTags) {
  EXPECT_THROW(ParseDocument("t", "<a><b></a></b>"), ParseError);
}

TEST(ParserTest, RejectsTruncatedInput) {
  EXPECT_THROW(ParseDocument("t", "<a><b>"), ParseError);
  EXPECT_THROW(ParseDocument("t", "<a b='x"), ParseError);
  EXPECT_THROW(ParseDocument("t", ""), ParseError);
}

TEST(ParserTest, RejectsRepeatedAttributeName) {
  EXPECT_THROW(ParseDocument("t", R"(<a x="1" x="2"/>)"), ParseError);
  EXPECT_THROW(ParseDocument("t", R"(<r><b/><a y="0" x="1" x="1">t</a></r>)"),
               ParseError);
}

TEST(ParserTest, DistinctAttributeNamesParse) {
  // One name on several elements, and several names on one element.
  Document doc = ParseDocument("t", R"(<r x="0"><a x="1" y="2"/><b x="3"/></r>)");
  NodeId r = doc.first_child(doc.root());
  NodeId a = doc.first_child(r);
  NodeId b = doc.next_sibling(a);
  EXPECT_EQ(doc.raw_text(doc.first_attr(r)), "0");
  EXPECT_EQ(doc.raw_text(doc.first_attr(a)), "1");
  EXPECT_EQ(doc.raw_text(doc.next_sibling(doc.first_attr(a))), "2");
  EXPECT_EQ(doc.raw_text(doc.first_attr(b)), "3");
  EXPECT_EQ(doc.Validate(), nullptr);
}

TEST(ParserTest, RejectsTrailingContent) {
  EXPECT_THROW(ParseDocument("t", "<a/><b/>"), ParseError);
}

TEST(SerializerTest, RoundTripsSimpleDocument) {
  const char* xml =
      R"(<bib><book year="1994"><title>a&amp;b</title></book></bib>)";
  Document doc = ParseDocument("t", xml);
  EXPECT_EQ(SerializeDocument(doc), xml);
}

TEST(SerializerTest, AttributeNodeSerializesAsValue) {
  Document doc = ParseDocument("t", "<a y=\"1999\"/>");
  NodeId a = doc.first_child(doc.root());
  EXPECT_EQ(Serialize(doc, doc.first_attr(a)), "1999");
}

TEST(SerializerTest, IndentedOutput) {
  Document doc = ParseDocument("t", "<a><b>x</b><c><d>y</d></c></a>");
  SerializeOptions options;
  options.indent = true;
  std::string out = SerializeDocument(doc, options);
  EXPECT_NE(out.find("<a>\n"), std::string::npos);
  EXPECT_NE(out.find("  <b>x</b>\n"), std::string::npos);
}

// Element nesting is bounded (kMaxElementDepth, the root is level 1): at
// the bound the document parses; one level more, or far more, fails with
// ParseError instead of overflowing the stack.
std::string NestedElements(int levels) {
  std::string out;
  for (int i = 0; i < levels; ++i) out += "<e>";
  for (int i = 0; i < levels; ++i) out += "</e>";
  return out;
}

TEST(ParserTest, ElementDepthBound) {
  Document doc = ParseDocument("deep.xml", NestedElements(kMaxElementDepth));
  EXPECT_EQ(doc.node_count(), static_cast<size_t>(kMaxElementDepth) + 1);
  for (int levels : {kMaxElementDepth + 1, 100'000}) {
    EXPECT_THROW(ParseDocument("deep.xml", NestedElements(levels)),
                 ParseError)
        << levels;
  }
}

TEST(StoreTest, AddAndFindDocuments) {
  Store store;
  DocId a = store.AddDocumentText("a.xml", "<a/>");
  DocId b = store.AddDocumentText("b.xml", "<b/>");
  EXPECT_NE(a, b);
  EXPECT_EQ(store.Find("a.xml"), std::optional<DocId>(a));
  EXPECT_EQ(store.Find("b.xml"), std::optional<DocId>(b));
  EXPECT_EQ(store.Find("c.xml"), std::nullopt);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StoreTest, ReplacingDocumentKeepsId) {
  Store store;
  DocId a = store.AddDocumentText("a.xml", "<a/>");
  DocId a2 = store.AddDocumentText("a.xml", "<a><b/></a>");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(store.document(a).CountElements("b"), 1u);
}

TEST(StoreTest, NodeRefOrderingIsDocumentOrder) {
  NodeRef a{0, 5};
  NodeRef b{0, 9};
  NodeRef c{1, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (NodeRef{0, 5}));
}

}  // namespace
}  // namespace nalq::xml
