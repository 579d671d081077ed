// Unit tests for the DTD parser and constraint reasoner — the machinery
// behind the paper's DTD-dependent side conditions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "datagen/datagen.h"
#include "xml/dtd.h"

namespace nalq::xml {
namespace {

class BibDtdTest : public ::testing::Test {
 protected:
  void SetUp() override { dtd_ = Dtd::Parse(datagen::kBibDtd); }
  Dtd dtd_;
};

TEST_F(BibDtdTest, ParsesAllElements) {
  for (const char* name : {"bib", "book", "author", "editor", "title", "last",
                           "first", "affiliation", "publisher", "price"}) {
    EXPECT_TRUE(dtd_.HasElement(name)) << name;
  }
  EXPECT_FALSE(dtd_.HasElement("chapter"));
}

TEST_F(BibDtdTest, RootDetection) { EXPECT_EQ(dtd_.root(), "bib"); }

TEST_F(BibDtdTest, Attributes) {
  EXPECT_TRUE(dtd_.HasAttribute("book", "year"));
  EXPECT_FALSE(dtd_.HasAttribute("book", "isbn"));
  EXPECT_FALSE(dtd_.HasAttribute("author", "year"));
}

TEST_F(BibDtdTest, Cardinalities) {
  // book (title, (author+ | editor+), publisher, price)
  auto title = dtd_.ChildCardinality("book", "title");
  ASSERT_TRUE(title.has_value());
  EXPECT_TRUE(title->exactly_one());
  auto author = dtd_.ChildCardinality("book", "author");
  ASSERT_TRUE(author.has_value());
  EXPECT_EQ(author->min, 0);  // the editor branch has no authors
  EXPECT_TRUE(author->unbounded);
  auto price = dtd_.ChildCardinality("book", "price");
  EXPECT_TRUE(price->exactly_one());
  // bib (book*)
  auto book = dtd_.ChildCardinality("bib", "book");
  EXPECT_EQ(book->min, 0);
  EXPECT_TRUE(book->unbounded);
}

// Paper Sec. 5.2: "every book element has exactly one title child
// element", so `$b/title` from a book is a singleton.
TEST_F(BibDtdTest, SingleNodePath) {
  auto single = [this](const char* context, const char* rel,
                       bool exactly_one) {
    return dtd_.SingleNodePath(Path::Parse(context), Path::Parse(rel),
                               exactly_one);
  };
  EXPECT_TRUE(single("//book", "title", true));
  EXPECT_TRUE(single("//book", "publisher", true));
  EXPECT_FALSE(single("//book", "author", true));
  EXPECT_FALSE(single("//book", "author", false));
  EXPECT_FALSE(single("/bib", "book", false));
  EXPECT_TRUE(single("//author", "last", true));
  EXPECT_FALSE(single("//book", "author/last", false));
  // An element carries at most one attribute of a name; only a declared
  // one is certain. `@*` and `*` select every attribute or child.
  EXPECT_TRUE(single("//book", "@year", true));
  EXPECT_FALSE(single("//book", "@isbn", true));
  EXPECT_TRUE(single("//book", "@isbn", false));
  EXPECT_FALSE(single("//book", "@*", false));
  EXPECT_FALSE(single("//book", "*", false));
  EXPECT_FALSE(single("//book/@year", "title", false));
  // From the document node, the one element child is the root.
  EXPECT_TRUE(dtd_.SingleNodePath(Path(), Path::Parse("bib"), true));
  EXPECT_FALSE(dtd_.SingleNodePath(Path(), Path::Parse("bib/book"), false));
  EXPECT_FALSE(dtd_.SingleNodePath(Path(), Path::Parse("book"), false));
}

TEST_F(BibDtdTest, OccursOnlyUnder) {
  EXPECT_TRUE(dtd_.OccursOnlyUnder("book", "bib"));
  EXPECT_TRUE(dtd_.OccursOnlyUnder("author", "book"));
  // `last` occurs under both author and editor.
  EXPECT_FALSE(dtd_.OccursOnlyUnder("last", "author"));
  EXPECT_FALSE(dtd_.OccursOnlyUnder("author", "bib"));
}

TEST_F(BibDtdTest, PathSelectsAllOf) {
  // The Sec. 5.1 condition: every author element sits under a book.
  EXPECT_TRUE(dtd_.PathSelectsAllOf(Path::Parse("//author")));
  EXPECT_TRUE(dtd_.PathSelectsAllOf(Path::Parse("//book/author")));
  EXPECT_TRUE(dtd_.PathSelectsAllOf(Path::Parse("/bib/book/author")));
  // `last` under author misses the editor occurrences.
  EXPECT_FALSE(dtd_.PathSelectsAllOf(Path::Parse("//author/last")));
  EXPECT_TRUE(dtd_.PathSelectsAllOf(Path::Parse("//last")));
}

TEST_F(BibDtdTest, PathsSelectSameNodes) {
  EXPECT_TRUE(dtd_.PathsSelectSameNodes(Path::Parse("//author"),
                                        Path::Parse("//book/author")));
  EXPECT_TRUE(dtd_.PathsSelectSameNodes(Path::Parse("//title"),
                                        Path::Parse("//book/title")));
  EXPECT_FALSE(dtd_.PathsSelectSameNodes(Path::Parse("//last"),
                                         Path::Parse("//author/last")));
  // Different final names never match.
  EXPECT_FALSE(dtd_.PathsSelectSameNodes(Path::Parse("//author"),
                                         Path::Parse("//book/title")));
}

TEST(DblpDtdTest, AuthorsNotOnlyUnderBooks) {
  Dtd dtd = Dtd::Parse(datagen::kDblpDtd);
  // The exact condition that failed for DBLP in the paper (Sec. 5.1):
  // //author selects more than //book/author.
  EXPECT_FALSE(dtd.OccursOnlyUnder("author", "book"));
  EXPECT_FALSE(dtd.PathsSelectSameNodes(Path::Parse("//author"),
                                        Path::Parse("//book/author")));
  EXPECT_TRUE(dtd.PathSelectsAllOf(Path::Parse("//author")));
  EXPECT_FALSE(dtd.PathSelectsAllOf(Path::Parse("//book/author")));
}

TEST(BidsDtdTest, ItemnoOnlyUnderBidtuple) {
  Dtd dtd = Dtd::Parse(datagen::kBidsDtd);
  // The Sec. 5.6 condition.
  EXPECT_TRUE(dtd.OccursOnlyUnder("itemno", "bidtuple"));
  EXPECT_TRUE(dtd.PathsSelectSameNodes(Path::Parse("//itemno"),
                                       Path::Parse("//bidtuple/itemno")));
  EXPECT_TRUE(dtd.SingleNodePath(Path::Parse("//bidtuple"),
                                 Path::Parse("itemno"), true));
}

TEST(ContentModelTest, OptionalAndChoice) {
  Dtd dtd = Dtd::Parse(
      "<!ELEMENT r ((a | b), c?, d*)> <!ELEMENT a (#PCDATA)>"
      "<!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> <!ELEMENT d (#PCDATA)>");
  auto a = dtd.ChildCardinality("r", "a");
  EXPECT_EQ(a->min, 0);
  EXPECT_EQ(a->max, 1);
  EXPECT_FALSE(a->unbounded);
  auto c = dtd.ChildCardinality("r", "c");
  EXPECT_EQ(c->min, 0);
  EXPECT_EQ(c->max, 1);
  auto d = dtd.ChildCardinality("r", "d");
  EXPECT_EQ(d->min, 0);
  EXPECT_TRUE(d->unbounded);
}

TEST(ContentModelTest, RepeatedNameAcrossSequence) {
  Dtd dtd = Dtd::Parse(
      "<!ELEMENT r (a, b, a)> <!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)>");
  auto a = dtd.ChildCardinality("r", "a");
  EXPECT_EQ(a->min, 2);
  EXPECT_EQ(a->max, 2);
  EXPECT_FALSE(dtd.SingleNodePath(Path::Parse("/r"), Path::Parse("a"), false));
  EXPECT_TRUE(dtd.SingleNodePath(Path::Parse("/r"), Path::Parse("b"), true));
}

TEST(ContentModelTest, EmptyAndAny) {
  Dtd dtd = Dtd::Parse("<!ELEMENT r EMPTY> <!ELEMENT s ANY>");
  EXPECT_TRUE(dtd.HasElement("r"));
  auto c = dtd.ChildCardinality("r", "x");
  EXPECT_EQ(c->min, 0);
  EXPECT_EQ(c->max, 0);
}

TEST(ContentModelTest, MalformedModelThrows) {
  EXPECT_THROW(Dtd::Parse("<!ELEMENT r (a,>"), std::invalid_argument);
  EXPECT_THROW(Dtd::Parse("<!ELEMENT r (a | b, c)>"), std::invalid_argument);
}

// Content-model nesting is bounded (kMaxContentModelDepth, the outermost
// group is level 1): at the bound the DTD parses; one level more, or far
// more, fails with std::invalid_argument instead of overflowing the stack.
std::string NestedGroups(int levels) {
  return "<!ELEMENT r " + std::string(levels, '(') + "a" +
         std::string(levels, ')') + ">";
}

TEST(ContentModelTest, GroupDepthBound) {
  Dtd dtd = Dtd::Parse(NestedGroups(kMaxContentModelDepth));
  EXPECT_TRUE(dtd.HasElement("r"));
  for (int levels : {kMaxContentModelDepth + 1, 100'000}) {
    EXPECT_THROW(Dtd::Parse(NestedGroups(levels)), std::invalid_argument)
        << levels;
  }
}

TEST(DtdTest, RecursiveDtdHandledConservatively) {
  // part contains part: chain enumeration must terminate and answer false.
  Dtd dtd = Dtd::Parse(
      "<!ELEMENT tree (part*)> <!ELEMENT part (part*, leaf?)>"
      "<!ELEMENT leaf (#PCDATA)>");
  EXPECT_FALSE(dtd.PathSelectsAllOf(Path::Parse("//tree/part")));
}

TEST(DtdRegistryTest, RegisterAndFind) {
  DtdRegistry registry;
  registry.Register("bib.xml", Dtd::Parse(datagen::kBibDtd));
  EXPECT_NE(registry.Find("bib.xml"), nullptr);
  EXPECT_EQ(registry.Find("other.xml"), nullptr);
  EXPECT_TRUE(registry.Find("bib.xml")->HasElement("book"));
}

}  // namespace
}  // namespace nalq::xml
