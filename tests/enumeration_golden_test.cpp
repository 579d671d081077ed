// Golden test of the unnesting enumeration. The perfbench query shapes (the
// paper's Q1–Q6, the DBLP variant E1b and the correlated N1–N3) are compiled
// over small generated documents, without and with their DTDs. For each, the
// text records every alternative's rule and printed plan in order, the cost
// choice, and the rule and plan that kCost and kRulePriority pick; fresh-name
// counters are renumbered by first appearance. The text must equal
// tests/golden/enumeration.txt: a compiler change that alters a plan, an
// alternative or their order shows up as a diff there. Run with
// NALQ_UPDATE_GOLDEN=1 to rewrite the file after an intended plan change.
//
// The suite also checks the sharing contract of compilation:
//   - Normalize leaves the parsed query unchanged;
//   - AllAlternatives and Unnester::Best leave the nested plan unchanged;
//   - no operator or expression node is reachable twice within one plan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/analysis.h"
#include "nal/printer.h"
#include "rewrite/unnester.h"
#include "test_util.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace nalq {
namespace {

using testutil::NoNodeTwice;
using testutil::RenumberFreshNames;

struct Shape {
  const char* id;
  const char* text;
};

// The perfbench shapes with their default constants, over fixed documents.
const Shape kShapes[] = {
    {"Q1", R"(
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
    </author>)"},
    {"Q2", R"(
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
    <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>)"},
    {"Q3", R"(
  let $d1 := document("bib.xml")
  for $t1 in $d1//book/title
  where some $t2 in document("reviews.xml")//entry/title
        satisfies $t1 = $t2
  return
    <book-with-review>{ $t1 }</book-with-review>)"},
    {"Q4", R"(
  let $d1 := doc("bib.xml")
  for $b1 in $d1//book,
      $a1 in $b1/author
  where exists(
    for $b2 in $d1//book
    for $a2 in $b2/author
    where contains($a2, "Suciu") and $b1 = $b2
    return $b2)
  return
    <book>{ $a1 }</book>)"},
    {"Q5", R"(
  let $d1 := doc("bib.xml")
  for $a1 in distinct-values($d1//author)
  where every $b2 in doc("bib.xml")//book[author = $a1]
        satisfies $b2/@year > 1993
  return
    <new-author>{ $a1 }</new-author>)"},
    {"Q6", R"(
  let $d1 := document("bids.xml")
  for $i1 in distinct-values($d1//itemno)
  where count($d1//bidtuple[itemno = $i1]) >= 3
  return
    <popular-item>{ $i1 }</popular-item>)"},
    {"E1b", R"(
  let $d1 := doc("dblp.xml")
  for $a1 in distinct-values($d1//author)
  return
    <author>
      <name>{ $a1 }</name>
      {
        let $d2 := doc("dblp.xml")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title
      }
    </author>)"},
    {"N1", R"(
  let $d1 := doc("catalog.xml")
  for $b1 in $d1//book
  return <b>{ count(for $b2 in $d1//book where $b2/@year < $b1/@year return $b2) }</b>)"},
    {"N2", R"(
  let $d1 := doc("catalog.xml")
  for $a1 in distinct-values($d1//author)
  return <a>{ for $b2 in $d1//book where contains($b2/title, $a1) return $b2/title }</a>)"},
    {"N3", R"(
  let $d1 := doc("catalog.xml")
  for $b1 in $d1//book
  let $n := count(for $b2 in $d1//book where $b2/publisher = $b1/publisher return $b2)
  where $n > 3
  return <p>{ $b1/title }</p>)"},
};

/// Loads the six documents the shapes read, with their DTDs if `dtds`.
void LoadDocuments(engine::Engine* engine, bool dtds) {
  datagen::BibOptions bib;
  bib.books = 12;
  bib.author_pool = 6;
  bib.suciu_every = 4;
  bib.seed = 7;
  datagen::BibOptions catalog = bib;
  catalog.seed = 8;
  datagen::AuctionOptions bids;
  bids.bids = 30;
  bids.seed = 9;
  datagen::DblpOptions dblp;
  dblp.publications = 30;
  dblp.seed = 10;
  const struct {
    const char* name;
    std::string text;
    const char* dtd;
  } docs[] = {
      {"bib.xml", datagen::GenerateBib(bib), datagen::kBibDtd},
      {"reviews.xml", datagen::GenerateReviews(12, 11), datagen::kReviewsDtd},
      {"prices.xml", datagen::GeneratePrices(12, 12), datagen::kPricesDtd},
      {"bids.xml", datagen::GenerateBids(bids), datagen::kBidsDtd},
      {"dblp.xml", datagen::GenerateDblp(dblp), datagen::kDblpDtd},
      {"catalog.xml", datagen::GenerateBib(catalog), datagen::kBibDtd},
  };
  for (const auto& doc : docs) {
    engine->AddDocument(doc.name, doc.text);
    if (dtds) engine->RegisterDtd(doc.name, doc.dtd);
  }
}

std::string AlternativesText(const engine::CompiledQuery& q) {
  std::string out;
  for (size_t i = 0; i < q.alternatives.size(); ++i) {
    out += "-- [" + std::to_string(i) + "] " + q.alternatives[i].rule + "\n";
    out += nal::PrintPlan(*q.alternatives[i].plan);
  }
  return out;
}

/// The golden section of one shape: its alternatives under kCost, the cost
/// choice, and the rule and plan each policy picks.
std::string Section(const engine::Engine& engine, const Shape& shape,
                    bool dtds) {
  const engine::CompiledQuery cost =
      engine.Compile(shape.text, engine::PlanChoice::kCost);
  const engine::CompiledQuery priority =
      engine.Compile(shape.text, engine::PlanChoice::kRulePriority);
  // Enumeration does not depend on the policy.
  EXPECT_EQ(RenumberFreshNames(AlternativesText(priority)),
            RenumberFreshNames(AlternativesText(cost)))
      << shape.id;
  std::string out = std::string("== ") + shape.id +
                    (dtds ? " (DTDs)" : " (no DTDs)") + "\n";
  out += RenumberFreshNames(
      AlternativesText(cost) +
      "cost_choice: " + std::to_string(cost.cost_choice) + "\n" +
      "kCost picks: " + cost.best.rule + "\n" +
      nal::PrintPlan(*cost.best.plan));
  out += RenumberFreshNames("kRulePriority picks: " + priority.best.rule +
                            "\n" + nal::PrintPlan(*priority.best.plan));
  for (const engine::CompiledQuery* q : {&cost, &priority}) {
    for (const rewrite::Alternative& alt : q->alternatives) {
      EXPECT_TRUE(NoNodeTwice(*alt.plan)) << shape.id << " " << alt.rule;
      EXPECT_NO_THROW(nal::CheckPlanShape(*alt.plan))
          << shape.id << " " << alt.rule;
    }
    EXPECT_TRUE(NoNodeTwice(*q->best.plan)) << shape.id << " " << q->best.rule;
  }
  return out;
}

std::filesystem::path GoldenPath() {
  return std::filesystem::path(__FILE__).parent_path() / "golden" /
         "enumeration.txt";
}

TEST(EnumerationGoldenTest, PlansMatchTheGoldenFile) {
  std::string actual;
  for (bool dtds : {false, true}) {
    engine::Engine engine;
    LoadDocuments(&engine, dtds);
    for (const Shape& shape : kShapes) actual += Section(engine, shape, dtds);
  }
  const char* update = std::getenv("NALQ_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(GoldenPath()) << actual;
    GTEST_SKIP() << "rewrote " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "cannot read " << GoldenPath();
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

TEST(EnumerationGoldenTest, CompilationLeavesItsInputsUnchanged) {
  for (bool dtds : {false, true}) {
    engine::Engine engine;
    LoadDocuments(&engine, dtds);
    rewrite::Unnester unnester(&engine.dtds());
    for (const Shape& shape : kShapes) {
      SCOPED_TRACE(std::string(shape.id) + (dtds ? " (DTDs)" : ""));
      const xquery::AstPtr ast = xquery::ParseQuery(shape.text);
      const std::string parsed = ast->ToString();
      const xquery::AstPtr normalized = xquery::Normalize(ast);
      EXPECT_EQ(ast->ToString(), parsed);
      const std::string normalized_text = normalized->ToString();
      const nal::AlgebraPtr nested =
          xquery::Translate(normalized, &engine.dtds());
      EXPECT_EQ(normalized->ToString(), normalized_text);
      const std::string nested_text = nal::PrintPlan(*nested);
      const std::vector<rewrite::Alternative> alternatives =
          unnester.AllAlternatives(nested);
      const rewrite::Alternative best = unnester.Best(nested);
      EXPECT_EQ(nal::PrintPlan(*nested), nested_text);
      EXPECT_TRUE(NoNodeTwice(*nested));
      for (const rewrite::Alternative& alt : alternatives) {
        EXPECT_TRUE(NoNodeTwice(*alt.plan)) << alt.rule;
      }
      EXPECT_TRUE(NoNodeTwice(*best.plan)) << best.rule;
    }
  }
}

}  // namespace
}  // namespace nalq
