// Engine façade and data generator tests.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "xml/parser.h"
#include "xquery/parser.h"

namespace nalq {
namespace {

TEST(EngineTest, AddDocumentAutoRegistersEmbeddedDtd) {
  engine::Engine engine;
  engine.AddDocument("t.xml", R"(<!DOCTYPE r [
    <!ELEMENT r (x*)>
    <!ELEMENT x (#PCDATA)>
  ]><r><x>1</x></r>)");
  const xml::Dtd* dtd = engine.dtds().Find("t.xml");
  ASSERT_NE(dtd, nullptr);
  EXPECT_TRUE(dtd->HasElement("x"));
}

TEST(EngineTest, CompileExposesAllStages) {
  engine::Engine engine;
  engine.AddDocument("bib.xml", datagen::GenerateBib({}));
  engine.RegisterDtd("bib.xml", datagen::kBibDtd);
  engine::CompiledQuery q = engine.Compile(
      R"(for $b in doc("bib.xml")//book return <r>{ $b/title }</r>)");
  EXPECT_NE(q.ast, nullptr);
  EXPECT_NE(q.normalized, nullptr);
  EXPECT_NE(q.nested_plan, nullptr);
  ASSERT_FALSE(q.alternatives.empty());
  EXPECT_EQ(q.alternatives[0].rule, "nested");
  EXPECT_NE(q.Find("nested"), nullptr);
  EXPECT_EQ(q.Find("no-such-rule"), nullptr);
}

TEST(EngineTest, RunQueryProducesOutputAndStats) {
  engine::Engine engine;
  datagen::BibOptions options;
  options.books = 5;
  engine.AddDocument("bib.xml", datagen::GenerateBib(options));
  engine.RegisterDtd("bib.xml", datagen::kBibDtd);
  engine::RunResult result = engine.RunQuery(
      R"(for $b in doc("bib.xml")//book return <t>{ $b/title }</t>)");
  EXPECT_NE(result.output.find("<t><title>Title0</title></t>"),
            std::string::npos);
  EXPECT_GT(result.stats.tuples_produced, 0u);
  EXPECT_GE(result.stats.doc_scans, 1u);
}

TEST(EngineTest, CompileErrorsPropagate) {
  engine::Engine engine;
  EXPECT_THROW(engine.Compile("for $x return"), xquery::ParseError);
}

// A repeated attribute name is not well-formed XML (XML 1.0, "Unique Att
// Spec"), and the rewriter relies on that: `$b1/@year` counts as
// single-valued, so Eqv. 2/4 fire. Over these books, when the first one
// still parsed with two years, the query below gave <x>3</x><x>2</x><x>2</x>
// under the nested plan and eqv1-nestjoin but four <x>2</x> rows under
// eqv4-outerjoin, the rule-priority choice. The document now fails to load.
TEST(EngineTest, RepeatedAttributeNameFailsAtAddDocument) {
  constexpr const char* kQuery = R"(
    let $d1 := doc("d1.xml")
    for $b1 in $d1//book
    return <x>{ count(for $b2 in $d1//book
                      where $b2/@year = $b1/@year
                      return $b2) }</x>)";
  engine::Engine engine;
  EXPECT_THROW(engine.AddDocument(
                   "d1.xml",
                   R"(<bib><book year="1999" year="2000"/>)"
                   R"(<book year="1999"/><book year="2000"/></bib>)"),
               xml::ParseError);
  EXPECT_FALSE(engine.store().Find("d1.xml").has_value());
  // Distinct names on one element still load, and the query runs.
  engine.AddDocument("d1.xml",
                     R"(<bib><book year="1999" month="5"/>)"
                     R"(<book year="1999"/><book year="2000"/></bib>)");
  EXPECT_EQ(engine.RunQuery(kQuery).output, "<x>2</x><x>2</x><x>1</x>");
}

TEST(DatagenTest, AllDocumentsParseAndMatchTheirDtds) {
  struct Case {
    const char* name;
    std::string xml;
    const char* dtd;
    const char* root;
  };
  datagen::AuctionOptions auction;
  auction.bids = 50;
  std::vector<Case> cases = {
      {"bib.xml", datagen::GenerateBib({}), datagen::kBibDtd, "bib"},
      {"prices.xml", datagen::GeneratePrices(50), datagen::kPricesDtd,
       "prices"},
      {"reviews.xml", datagen::GenerateReviews(50), datagen::kReviewsDtd,
       "reviews"},
      {"users.xml", datagen::GenerateUsers(auction), datagen::kUsersDtd,
       "users"},
      {"items.xml", datagen::GenerateItems(auction), datagen::kItemsDtd,
       "items"},
      {"bids.xml", datagen::GenerateBids(auction), datagen::kBidsDtd, "bids"},
      {"dblp.xml", datagen::GenerateDblp({}), datagen::kDblpDtd, "dblp"},
  };
  for (const Case& c : cases) {
    xml::Document doc = xml::ParseDocument(c.name, c.xml);
    EXPECT_EQ(doc.node_name(doc.first_child(doc.root())), c.root) << c.name;
    xml::Dtd dtd = xml::Dtd::Parse(c.dtd);
    EXPECT_EQ(dtd.root(), c.root) << c.name;
  }
}

TEST(DatagenTest, BibRespectsParameters) {
  datagen::BibOptions options;
  options.books = 30;
  options.authors_per_book = 5;
  xml::Document doc =
      xml::ParseDocument("bib.xml", datagen::GenerateBib(options));
  EXPECT_EQ(doc.CountElements("book"), 30u);
  EXPECT_EQ(doc.CountElements("author"), 150u);
  EXPECT_EQ(doc.CountElements("title"), 30u);
}

TEST(DatagenTest, EveryPoolAuthorAppears) {
  // The Eqv. 5 condition relies on all authors occurring under books.
  datagen::BibOptions options;
  options.books = 40;
  options.authors_per_book = 2;
  engine::Engine engine;
  engine.AddDocument("bib.xml", datagen::GenerateBib(options));
  engine.RegisterDtd("bib.xml", datagen::kBibDtd);
  engine::RunResult r = engine.RunQuery(R"(
    let $d := doc("bib.xml")
    for $a in distinct-values($d//author)
    return <a>{ $a }</a>)");
  size_t count = 0;
  size_t pos = 0;
  while ((pos = r.output.find("<a>", pos)) != std::string::npos) {
    ++count;
    pos += 3;
  }
  EXPECT_EQ(count, 40u);
}

TEST(DatagenTest, DeterministicForFixedSeed) {
  datagen::BibOptions options;
  options.books = 10;
  EXPECT_EQ(datagen::GenerateBib(options), datagen::GenerateBib(options));
  datagen::AuctionOptions auction;
  auction.bids = 10;
  EXPECT_EQ(datagen::GenerateBids(auction), datagen::GenerateBids(auction));
  auction.seed = 7;
  EXPECT_NE(datagen::GenerateBids({}), datagen::GenerateBids(auction));
}

TEST(DatagenTest, BidsReferenceExistingItems) {
  datagen::AuctionOptions auction;
  auction.bids = 100;
  engine::Engine engine;
  engine.AddDocument("bids.xml", datagen::GenerateBids(auction));
  engine.AddDocument("items.xml", datagen::GenerateItems(auction));
  engine.RegisterDtd("bids.xml", datagen::kBidsDtd);
  engine.RegisterDtd("items.xml", datagen::kItemsDtd);
  // Every bid's itemno appears among the items (semijoin keeps all bids).
  engine::CompiledQuery q = engine.Compile(R"(
    let $b := document("bids.xml")
    for $i in $b//bidtuple/itemno
    where some $j in document("items.xml")//itemtuple/itemno
          satisfies $i = $j
    return <ok>{ $i }</ok>)");
  engine::RunResult all = engine.Run(q.nested_plan);
  size_t count = 0;
  size_t pos = 0;
  while ((pos = all.output.find("<ok>", pos)) != std::string::npos) {
    ++count;
    pos += 4;
  }
  EXPECT_EQ(count, 100u);
}

TEST(DatagenTest, DblpHasAuthorsOutsideBooks) {
  xml::Document doc = xml::ParseDocument("dblp.xml", datagen::GenerateDblp({}));
  size_t books = doc.CountElements("book");
  size_t articles = doc.CountElements("article");
  EXPECT_GT(articles, 0u);
  EXPECT_GT(books, 0u);
  EXPECT_GT(doc.CountElements("author"), books * 2);  // authors elsewhere too
}

}  // namespace
}  // namespace nalq
