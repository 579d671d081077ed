// Unit tests for the NAL value domain, tuples and sequences.
#include <gtest/gtest.h>

#include <cmath>

#include "nal/physical.h"
#include "nal/sequence.h"
#include "nal/spool.h"
#include "nal/tuple.h"
#include "nal/value.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::S;
using testutil::T;

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value().kind(), ValueKind::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  xml::NodeRef ref{3, 7};
  EXPECT_EQ(Value(ref).AsNode(), ref);
}

TEST(ValueTest, NumericEqualityCrossesIntAndDouble) {
  EXPECT_TRUE(Value(int64_t{2}).Equals(Value(2.0)));
  EXPECT_FALSE(Value(int64_t{2}).Equals(Value(2.5)));
  // Hashes must agree with equality.
  EXPECT_EQ(Value(int64_t{2}).Hash(), Value(2.0).Hash());
}

TEST(ValueTest, StringsAndNumbersAreDistinct) {
  EXPECT_FALSE(Value("2").Equals(Value(int64_t{2})));
  EXPECT_FALSE(Value("x").Equals(Value("y")));
  EXPECT_TRUE(Value("x").Equals(Value("x")));
}

TEST(ValueTest, NullEqualsNull) {
  EXPECT_TRUE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(int64_t{0})));
}

TEST(ValueTest, SequenceLength) {
  EXPECT_EQ(Value().SequenceLength(), 0u);
  EXPECT_EQ(Value(int64_t{1}).SequenceLength(), 1u);
  EXPECT_EQ(Value::FromItems({I(1), I(2), I(3)}).SequenceLength(), 3u);
  Sequence s;
  s.Append(T({{"a", I(1)}}));
  EXPECT_EQ(Value::FromTuples(s).SequenceLength(), 1u);
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_EQ(Value::Compare(Value(), Value(int64_t{1})),
            std::strong_ordering::less);
  EXPECT_EQ(Value::Compare(Value(int64_t{1}), Value(2.5)),
            std::strong_ordering::less);
  EXPECT_EQ(Value::Compare(Value("a"), Value("b")),
            std::strong_ordering::less);
  EXPECT_EQ(Value::Compare(Value(int64_t{3}), Value(3.0)),
            std::strong_ordering::equal);
  // Numbers order before strings.
  EXPECT_EQ(Value::Compare(Value(int64_t{99}), Value("1")),
            std::strong_ordering::less);
}

TEST(ValueTest, AtomizeNodesToStringValue) {
  xml::Store store;
  store.AddDocumentText("d.xml", "<a><b>Hello</b><b>World</b></a>");
  Value node(xml::NodeRef{0, 1});  // <a>
  Value atom = node.Atomize(store);
  EXPECT_EQ(atom.kind(), ValueKind::kString);
  EXPECT_EQ(atom.AsString(), "HelloWorld");
  // Atomization is the identity on atomic values.
  EXPECT_TRUE(Value(int64_t{1}).Atomize(store).Equals(Value(int64_t{1})));
}

TEST(ValueTest, ToNumber) {
  xml::Store store;
  EXPECT_EQ(Value(int64_t{4}).ToNumber(store), 4.0);
  EXPECT_EQ(Value(" 19.5 ").ToNumber(store), 19.5);
  EXPECT_EQ(Value("abc").ToNumber(store), std::nullopt);
  EXPECT_EQ(Value("12x").ToNumber(store), std::nullopt);
  EXPECT_EQ(Value().ToNumber(store), std::nullopt);
  EXPECT_EQ(Value(true).ToNumber(store), 1.0);
}

TEST(TryParseNumberTest, TrimsAndValidates) {
  EXPECT_EQ(TryParseNumber("42"), 42.0);
  EXPECT_EQ(TryParseNumber("  -3.5\n"), -3.5);
  EXPECT_EQ(TryParseNumber(""), std::nullopt);
  EXPECT_EQ(TryParseNumber("   "), std::nullopt);
  EXPECT_EQ(TryParseNumber("1 2"), std::nullopt);
}

// ---- Borrowed strings (node atoms) and owned strings are one value -------

const char* const kTexts[] = {"",
                              "x",
                              "1999",
                              " 12 ",
                              "hello world",
                              "a text longer than any small-string buffer",
                              "caf\xc3\xa9"};

/// Adds a document <e a="text">text</e>: element 1 has `text` as its only
/// text node (3), and attribute 2 holds it too.
xml::DocId AddTextDoc(xml::Store* store, const std::string& name,
                      std::string_view text) {
  xml::Document doc(name);
  xml::NodeId e = doc.AddElement(doc.root(), "e");
  doc.AddAttribute(e, "a", text);
  doc.AddText(e, text);
  return store->AddDocument(std::move(doc));
}

Value AtomOfNode(const xml::Store& store, xml::DocId doc, xml::NodeId id) {
  return Value(xml::NodeRef{doc, id}).Atomize(store);
}

TEST(BorrowedStringTest, NodeAtomIsTheOwnedString) {
  for (const char* text : kTexts) {
    xml::Store store;
    xml::DocId d = AddTextDoc(&store, "d.xml", text);
    Value owned{std::string(text)};
    for (xml::NodeId id : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string("text \"") + text + "\", node " +
                   std::to_string(id));
      Value atom = AtomOfNode(store, d, id);
      EXPECT_EQ(atom.kind(), ValueKind::kString);
      EXPECT_EQ(atom.AsString(), text);
      EXPECT_TRUE(atom.Equals(owned));
      EXPECT_TRUE(owned.Equals(atom));
      EXPECT_EQ(atom.Hash(), owned.Hash());
      EXPECT_EQ(Value::Compare(atom, owned), std::strong_ordering::equal);
      EXPECT_EQ(Value::Compare(owned, atom), std::strong_ordering::equal);
      EXPECT_FALSE(atom.Equals(Value("y")));
    }
  }
}

TEST(BorrowedStringTest, EqualTextInTwoDocumentsIsOneValue) {
  for (const char* text : kTexts) {
    SCOPED_TRACE(std::string("text \"") + text + "\"");
    xml::Store store;
    xml::DocId a = AddTextDoc(&store, "a.xml", text);
    xml::DocId b = AddTextDoc(&store, "b.xml", text);
    xml::DocId other = AddTextDoc(&store, "c.xml", std::string(text) + "!");
    EXPECT_NE(&store.document(a).AtomOf(3), &store.document(b).AtomOf(3));
    Value x = AtomOfNode(store, a, 3);
    Value y = AtomOfNode(store, b, 3);
    EXPECT_TRUE(x.Equals(y));
    EXPECT_EQ(x.Hash(), y.Hash());
    EXPECT_FALSE(x.Equals(AtomOfNode(store, other, 3)));
  }
}

TEST(BorrowedStringTest, ElementAtomsAreTheStringValue) {
  // <a><b>Hello</b><c/><b>World<d>!</d></b></a>
  xml::Document doc("d.xml");
  xml::NodeId a = doc.AddElement(doc.root(), "a");
  xml::NodeId b1 = doc.AddElement(a, "b");
  doc.AddText(b1, "Hello");
  xml::NodeId c = doc.AddElement(a, "c");
  xml::NodeId b2 = doc.AddElement(a, "b");
  doc.AddText(b2, "World");
  xml::NodeId d = doc.AddElement(b2, "d");
  doc.AddText(d, "!");
  xml::Store store;
  xml::DocId id = store.AddDocument(std::move(doc));
  const xml::Document& stored = store.document(id);
  for (xml::NodeId n = 0; n < stored.node_count(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    Value atom = AtomOfNode(store, id, n);
    Value owned(stored.StringValue(n));
    EXPECT_EQ(atom.AsString(), owned.AsString());
    EXPECT_TRUE(atom.Equals(owned));
    EXPECT_EQ(atom.Hash(), owned.Hash());
  }
  EXPECT_EQ(AtomOfNode(store, id, stored.root()).AsString(), "HelloWorld!");
  EXPECT_EQ(AtomOfNode(store, id, a).AsString(), "HelloWorld!");
  EXPECT_EQ(AtomOfNode(store, id, b2).AsString(), "World!");
  EXPECT_TRUE(AtomOfNode(store, id, c).Equals(Value("")));
  EXPECT_EQ(AtomOfNode(store, id, c).Hash(), Value("").Hash());
}

TEST(BorrowedStringTest, SpoolEncodingIsTheOwnedString) {
  for (const char* text : kTexts) {
    SCOPED_TRACE(std::string("text \"") + text + "\"");
    xml::Store store;
    Value atom = AtomOfNode(store, AddTextDoc(&store, "d.xml", text), 3);
    std::string borrowed_bytes;
    std::string owned_bytes;
    EncodeValue(atom, &borrowed_bytes);
    EncodeValue(Value(std::string(text)), &owned_bytes);
    EXPECT_EQ(borrowed_bytes, owned_bytes);
    const uint8_t* p =
        reinterpret_cast<const uint8_t*>(borrowed_bytes.data());
    const uint8_t* end = p + borrowed_bytes.size();
    Value decoded;
    ASSERT_TRUE(DecodeValue(&p, end, &decoded));
    EXPECT_EQ(p, end);
    EXPECT_TRUE(decoded.Equals(atom));
    EXPECT_EQ(decoded.Hash(), atom.Hash());
  }
}

TEST(BorrowedStringTest, HashIndexOverAtomsFindsOwnedProbes) {
  const char* const kAuthors[] = {"Stevens", "Abiteboul", "Stevens",
                                  "Buneman", "", "Abiteboul", "Suciu"};
  xml::Document doc("bib.xml");
  xml::NodeId bib = doc.AddElement(doc.root(), "bib");
  std::vector<xml::NodeId> authors;
  for (const char* name : kAuthors) {
    xml::NodeId author = doc.AddElement(bib, "author");
    if (*name != '\0') doc.AddText(author, name);
    authors.push_back(author);
  }
  xml::Store store;
  xml::DocId d = store.AddDocument(std::move(doc));
  Sequence input;
  for (xml::NodeId author : authors) {
    input.Append(T({{"a", Value(xml::NodeRef{d, author})}}));
  }
  const Symbol attrs[] = {Symbol("a")};
  HashIndex index;
  index.Build(input, attrs, store);
  EXPECT_EQ(index.bucket_count(), 5u);
  for (const char* probe : {"Stevens", "Abiteboul", "Buneman", "", "Suciu",
                            "Nobody"}) {
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < std::size(kAuthors); ++i) {
      if (std::string_view(kAuthors[i]) == probe) expected.push_back(i);
    }
    EXPECT_EQ(index.Lookup(T({{"a", Value(probe)}}), attrs, store), expected)
        << "probe \"" << probe << "\"";
  }
}

TEST(BorrowedStringTest, ToStringViewIsToString) {
  xml::Store store;
  xml::DocId d = AddTextDoc(&store, "d.xml", "hello");
  const Value values[] = {Value(),
                          Value(true),
                          I(42),
                          Value(2.5),
                          S("x"),
                          Value(xml::NodeRef{d, 1}),
                          AtomOfNode(store, d, 3),
                          Value::FromItems({Value(xml::NodeRef{d, 2})}),
                          Value::FromItems({I(1), S("y")})};
  for (const Value& v : values) {
    std::string scratch;
    EXPECT_EQ(v.ToStringView(store, &scratch), v.ToString(store))
        << v.DebugString();
  }
}

TEST(BorrowedStringTest, NodeAtomNumbersAreTryParseNumber) {
  for (const char* text : {"12", " 12 ", "1e3", "-0", "abc", "", "1 2"}) {
    SCOPED_TRACE(std::string("text \"") + text + "\"");
    xml::Store store;
    xml::DocId d = AddTextDoc(&store, "d.xml", text);
    std::optional<double> owned = Value(text).ToNumber(store);
    EXPECT_EQ(owned, TryParseNumber(text));
    for (xml::NodeId id : {1u, 2u, 3u}) {
      for (const Value& v :
           {AtomOfNode(store, d, id), Value(xml::NodeRef{d, id})}) {
        std::optional<double> borrowed = v.ToNumber(store);
        ASSERT_EQ(borrowed.has_value(), owned.has_value());
        if (owned.has_value()) {
          EXPECT_EQ(*borrowed, *owned);
          EXPECT_EQ(std::signbit(*borrowed), std::signbit(*owned));
        }
      }
    }
  }
}

TEST(TupleTest, SetGetHas) {
  Tuple t = T({{"b", I(2)}, {"a", I(1)}});
  EXPECT_TRUE(t.Has(Symbol("a")));
  EXPECT_TRUE(t.Has(Symbol("b")));
  EXPECT_FALSE(t.Has(Symbol("c")));
  EXPECT_EQ(t.Get(Symbol("a")).AsInt(), 1);
  EXPECT_TRUE(t.Get(Symbol("c")).is_null());
  t.Set(Symbol("a"), I(9));
  EXPECT_EQ(t.Get(Symbol("a")).AsInt(), 9);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TupleTest, EqualityIsOrderInsensitive) {
  Tuple t1 = T({{"a", I(1)}, {"b", S("x")}});
  Tuple t2 = T({{"b", S("x")}, {"a", I(1)}});
  EXPECT_TRUE(t1.Equals(t2));
  EXPECT_EQ(t1.Hash(), t2.Hash());
  Tuple t3 = T({{"a", I(1)}, {"b", S("y")}});
  EXPECT_FALSE(t1.Equals(t3));
}

TEST(TupleTest, ConcatIsThePaperCircle) {
  Tuple t1 = T({{"a", I(1)}});
  Tuple t2 = T({{"b", I(2)}});
  Tuple joined = t1.Concat(t2);
  EXPECT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined.Get(Symbol("a")).AsInt(), 1);
  EXPECT_EQ(joined.Get(Symbol("b")).AsInt(), 2);
  // Right side wins on collision (used by renaming).
  Tuple overridden = t1.Concat(T({{"a", I(7)}}));
  EXPECT_EQ(overridden.Get(Symbol("a")).AsInt(), 7);
}

TEST(TupleTest, ProjectDropRename) {
  Tuple t = T({{"a", I(1)}, {"b", I(2)}, {"c", I(3)}});
  std::vector<Symbol> ab = {Symbol("a"), Symbol("b")};
  EXPECT_EQ(t.Project(ab).size(), 2u);
  EXPECT_FALSE(t.Project(ab).Has(Symbol("c")));
  EXPECT_EQ(t.Drop(ab).size(), 1u);
  EXPECT_TRUE(t.Drop(ab).Has(Symbol("c")));
  Tuple renamed = t.Rename(Symbol("a"), Symbol("z"));
  EXPECT_FALSE(renamed.Has(Symbol("a")));
  EXPECT_EQ(renamed.Get(Symbol("z")).AsInt(), 1);
  // Renaming a missing attribute is the identity.
  EXPECT_TRUE(t.Rename(Symbol("q"), Symbol("z")).Equals(t));
}

TEST(TupleTest, NullsBuildsBottomTuple) {
  std::vector<Symbol> attrs = {Symbol("a"), Symbol("b")};
  Tuple bottom = Tuple::Nulls(attrs);
  EXPECT_EQ(bottom.size(), 2u);
  EXPECT_TRUE(bottom.Get(Symbol("a")).is_null());
  EXPECT_TRUE(bottom.Has(Symbol("a")));
}

TEST(SequenceTest, FirstTailAppendExtend) {
  Sequence s;
  EXPECT_TRUE(s.empty());
  s.Append(T({{"a", I(1)}}));
  s.Append(T({{"a", I(2)}}));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.First().Get(Symbol("a")).AsInt(), 1);
  Sequence tail = s.Tail();
  EXPECT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail.First().Get(Symbol("a")).AsInt(), 2);
  Sequence s2;
  s2.Append(T({{"a", I(3)}}));
  s.Extend(s2);
  EXPECT_EQ(s.size(), 3u);
}

TEST(SequenceTest, EqualityIsOrderSensitive) {
  Sequence s1;
  s1.Append(T({{"a", I(1)}}));
  s1.Append(T({{"a", I(2)}}));
  Sequence s2;
  s2.Append(T({{"a", I(2)}}));
  s2.Append(T({{"a", I(1)}}));
  EXPECT_FALSE(SequencesEqual(s1, s2));
  EXPECT_TRUE(SequencesEqual(s1, s1));
}

TEST(SequenceTest, TuplesFromItemsIsThePaperBracketConstruction) {
  Sequence s = TuplesFromItems(Symbol("a"), {I(1), S("x")});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].Get(Symbol("a")).AsInt(), 1);
  EXPECT_EQ(s[1].Get(Symbol("a")).AsString(), "x");
  EXPECT_TRUE(TuplesFromItems(Symbol("a"), {}).empty());
}

TEST(ValueTest, DebugStringRendersAllKinds) {
  EXPECT_EQ(Value().DebugString(), "NULL");
  EXPECT_EQ(Value(int64_t{5}).DebugString(), "5");
  EXPECT_EQ(Value("x").DebugString(), "\"x\"");
  EXPECT_EQ(Value(xml::NodeRef{1, 2}).DebugString(), "node(1:2)");
  EXPECT_EQ(Value::FromItems({I(1), I(2)}).DebugString(), "(1, 2)");
}

}  // namespace
}  // namespace nalq::nal
