// Seeded differential suite for path-correlated nested blocks: a nested
// query block that compares one of its own paths with a path of an outer
// variable ($b2/publisher = $b1/publisher). The normalizer binds the outer
// path in the outer block, which lets the unnesting equivalences fire; a
// wrongly applied rewrite returns a wrong result silently, so every query
// is checked against its own nested plan:
//   - every Unnester alternative, on the materializing, streaming and
//     parallel (4 threads) executors, at budgets {0, 1 MB}, and on the
//     streaming executor in PathMode::kScan, must give the nested plan's
//     bytes;
//   - the two spellings of each query — the outer path inline, and bound
//     by a let in the outer block — must give the same bytes and the same
//     alternatives;
//   - compilation must leave the parsed query and the nested plan as they
//     were, and no alternative may reach one node twice.
// Queries range over five forms (where-count, two-conjunct exists,
// predicated count argument, every range, some range), five outer paths
// (@year, @*, publisher, author, title) and three comparisons (=, <, >=).
// Documents come in two kinds: without a DTD, with random multiplicities
// (0–2 publishers, 1–3 authors, optional @year and @id), where a let-bound
// outer path is a sequence and Eqv. 2/4 must not fire; and valid against
// the bib DTD (registered), where `publisher` and `@year` are
// single-valued.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/analysis.h"
#include "nal/printer.h"
#include "test_util.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace nalq {
namespace {

constexpr uint64_t kOneMb = 1 << 20;

const char* const kOuterPaths[] = {"@year", "@*", "publisher", "author",
                                   "title"};
const char* const kThetas[] = {"=", "<", ">="};

enum class Form { kWhereCount, kExists, kCountArg, kEvery, kSome };
const Form kForms[] = {Form::kWhereCount, Form::kExists, Form::kCountArg,
                       Form::kEvery, Form::kSome};

const char* FormName(Form f) {
  switch (f) {
    case Form::kWhereCount:
      return "where-count";
    case Form::kExists:
      return "exists";
    case Form::kCountArg:
      return "count-arg";
    case Form::kEvery:
      return "every";
    case Form::kSome:
      return "some";
  }
  return "";
}

/// The query of `form` over `doc`, comparing the inner book's `path` with
/// the outer book's by `theta`. With `let_bound`, the outer paths are bound
/// in the outer block ($p1, and $y1 for the exists form's second conjunct);
/// otherwise they are written inline.
std::string MakeQuery(Form form, const std::string& doc,
                      const std::string& path, const std::string& theta,
                      bool let_bound) {
  const std::string outer = let_bound ? "$p1" : "$b1/" + path;
  const std::string outer_year = let_bound ? "$y1" : "$b1/@year";
  const std::string books = "doc(\"" + doc + "\")//book";
  std::string q = "for $b1 in " + books + "\n";
  if (let_bound) {
    q += "let $p1 := $b1/" + path + "\n";
    if (form == Form::kExists) q += "let $y1 := $b1/@year\n";
  }
  switch (form) {
    case Form::kWhereCount:
      q += "return <x>{ count(for $b2 in " + books + " where $b2/" + path +
           " " + theta + " " + outer + " return $b2) }</x>";
      break;
    case Form::kExists:
      q += "where exists(for $b2 in " + books + " where $b2/" + path + " " +
           theta + " " + outer + " and $b2/@year > " + outer_year +
           " return $b2)\nreturn <x>{ $b1/title }</x>";
      break;
    case Form::kCountArg:
      q += "return <x>{ count(" + books + "[" + path + " " + theta + " " +
           outer + "]) }</x>";
      break;
    case Form::kEvery:
      q += "where every $b2 in " + books + "[" + path + " " + theta + " " +
           outer + "] satisfies $b2/@year > 1992\nreturn <x>{ $b1/title }</x>";
      break;
    case Form::kSome:
      q += "where some $b2 in " + books + "[" + path + " " + theta + " " +
           outer + "] satisfies $b2/@year > 1994\nreturn <x>{ $b1/title }</x>";
      break;
  }
  return q;
}

/// A bib document without a DTD: 0–2 publishers, 1–3 authors and an
/// optional year and id per book, drawn from small domains so that
/// comparisons match often.
std::string RandomBib(unsigned seed, int books) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::string xml = "<bib>";
  for (int i = 0; i < books; ++i) {
    xml += "<book";
    if (pick(0, 3) != 0) {
      xml += " year=\"" + std::to_string(1990 + pick(0, 6)) + "\"";
    }
    if (pick(0, 1) != 0) {
      xml += " id=\"" + std::to_string(1990 + pick(0, 6)) + "\"";
    }
    xml += "><title>T" + std::to_string(pick(0, 5)) + "</title>";
    for (int a = pick(1, 3); a > 0; --a) {
      xml += "<author><last>L" + std::to_string(pick(0, 4)) +
             "</last><first>F</first></author>";
    }
    for (int p = pick(0, 2); p > 0; --p) {
      xml += "<publisher>P" + std::to_string(pick(0, 3)) + "</publisher>";
    }
    xml += "<price>" + std::to_string(pick(10, 60)) + "</price></book>";
  }
  return xml + "</bib>";
}

struct DataSet {
  std::string name;
  bool dtd = false;
  unsigned seed = 0;
};

class CorrelatedPathsTest : public ::testing::TestWithParam<DataSet> {
 protected:
  void SetUp() override {
    const DataSet& data = GetParam();
    if (data.dtd) {
      datagen::BibOptions bib;
      bib.books = 10;
      bib.author_pool = 5;
      bib.seed = data.seed;
      engine_.AddDocument(kDoc, datagen::GenerateBib(bib));
      engine_.RegisterDtd(kDoc, datagen::kBibDtd);
    } else {
      engine_.AddDocument(kDoc, RandomBib(data.seed, 10));
    }
  }

  /// Checks every alternative of `query` on every executor and budget
  /// against the nested plan; returns the nested plan's bytes.
  std::string CheckAllPlans(const std::string& query,
                            std::vector<std::string>* rules) {
    CheckCompileSharesWithoutWriting(query);
    engine::CompiledQuery q = engine_.Compile(query);
    const std::string reference =
        engine_.Run(q.nested_plan, engine::ExecMode::kMaterializing).output;
    for (const rewrite::Alternative& alt : q.alternatives) {
      rules->push_back(alt.rule);
      EXPECT_TRUE(testutil::NoNodeTwice(*alt.plan)) << alt.rule;
      EXPECT_NO_THROW(nal::CheckPlanShape(*alt.plan)) << alt.rule;
      struct Run {
        engine::ExecMode mode;
        engine::PathMode path_mode;
        unsigned threads;
        uint64_t budget;
        const char* name;
      };
      const Run runs[] = {
          {engine::ExecMode::kMaterializing, engine::PathMode::kIndexed, 0, 0,
           "materializing"},
          {engine::ExecMode::kStreaming, engine::PathMode::kIndexed, 0, 0,
           "streaming"},
          {engine::ExecMode::kStreaming, engine::PathMode::kIndexed, 0, kOneMb,
           "streaming 1 MB"},
          {engine::ExecMode::kStreaming, engine::PathMode::kScan, 0, 0,
           "streaming scan"},
          {engine::ExecMode::kParallel, engine::PathMode::kIndexed, 4, 0,
           "parallel"},
          {engine::ExecMode::kParallel, engine::PathMode::kIndexed, 4, kOneMb,
           "parallel 1 MB"},
      };
      for (const Run& run : runs) {
        std::string out = engine_
                              .Run(alt.plan, run.mode, run.path_mode,
                                   run.threads, run.budget)
                              .output;
        EXPECT_EQ(out, reference)
            << alt.rule << " on " << run.name << " disagrees with the nested "
            << "plan\nquery:\n" << query << "\nplan:\n"
            << nal::PrintPlan(*alt.plan);
      }
    }
    for (engine::PlanChoice choice :
         {engine::PlanChoice::kCost, engine::PlanChoice::kRulePriority}) {
      engine::CompiledQuery chosen = engine_.Compile(query, choice);
      EXPECT_EQ(engine_.Run(chosen.best.plan).output, reference)
          << chosen.best.rule << "\nquery:\n" << query;
    }
    return reference;
  }

  /// Compilation shares unchanged subtrees and never writes to them:
  /// Normalize leaves the parsed query as parsed, and AllAlternatives and
  /// Unnester::Best leave the nested plan as translated.
  void CheckCompileSharesWithoutWriting(const std::string& query) {
    const xquery::AstPtr ast = xquery::ParseQuery(query);
    const std::string parsed = ast->ToString();
    const xquery::AstPtr normalized = xquery::Normalize(ast);
    EXPECT_EQ(ast->ToString(), parsed);
    const nal::AlgebraPtr nested =
        xquery::Translate(normalized, &engine_.dtds());
    const std::string translated = nal::PrintPlan(*nested);
    rewrite::Unnester unnester(&engine_.dtds());
    unnester.AllAlternatives(nested);
    unnester.Best(nested);
    EXPECT_EQ(nal::PrintPlan(*nested), translated);
  }

  static constexpr const char* kDoc = "bib.xml";
  engine::Engine engine_;
};

TEST_P(CorrelatedPathsTest, EveryPlanAndSpellingAgrees) {
  size_t unnested = 0;
  for (Form form : kForms) {
    for (const char* path : kOuterPaths) {
      for (const char* theta : kThetas) {
        SCOPED_TRACE(std::string(FormName(form)) + " " + path + " " + theta);
        std::vector<std::string> inline_rules;
        std::vector<std::string> let_rules;
        std::string inline_out = CheckAllPlans(
            MakeQuery(form, kDoc, path, theta, false), &inline_rules);
        std::string let_out = CheckAllPlans(
            MakeQuery(form, kDoc, path, theta, true), &let_rules);
        EXPECT_EQ(inline_out, let_out) << "the two spellings disagree";
        // Binding the inline path in the outer block gives the let-bound
        // spelling's shape, so both get the same rewrites.
        EXPECT_EQ(inline_rules, let_rules);
        if (inline_rules.size() > 1) ++unnested;
      }
    }
  }
  // Every form/path/θ combination gets at least the nest-join or a
  // semi/antijoin.
  EXPECT_EQ(unnested, std::size(kForms) * std::size(kOuterPaths) *
                          std::size(kThetas));
}

// The reproducer of the Eqv. 4 defect: without a DTD, `$b1/publisher` may
// hold two publishers, and an outer join on it emits one row per matching
// group. Every plan choice must return the nested plan's four counts.
TEST(CorrelatedPathsRegressionTest, MultiValuedOuterPathKeepsOneRowPerTuple) {
  engine::Engine engine;
  engine.AddDocument(
      "d.xml",
      "<bib><book><publisher>A</publisher><publisher>B</publisher></book>"
      "<book><publisher>A</publisher></book>"
      "<book><publisher>B</publisher><publisher>C</publisher></book>"
      "<book/></bib>");
  const char* query = R"(
    for $b1 in doc("d.xml")//book
    let $p1 := $b1/publisher
    return <x>{ count(for $b2 in doc("d.xml")//book
                      where $b2/publisher = $p1 return $b2) }</x>)";
  const std::string expected = "<x>3</x><x>2</x><x>2</x><x>0</x>";
  for (engine::PlanChoice choice :
       {engine::PlanChoice::kCost, engine::PlanChoice::kRulePriority}) {
    engine::CompiledQuery q = engine.Compile(query, choice);
    EXPECT_EQ(engine.Run(q.best.plan).output, expected) << q.best.rule;
    EXPECT_EQ(q.Find("eqv4"), nullptr);
    EXPECT_NE(q.Find("eqv1-nestjoin"), nullptr);
  }
}

// `@*` selects every attribute of an element, so `$b1/@*` bound in the
// outer block is a sequence over elements with two attributes: an outer
// join on it would emit one row per matching group. Every alternative and
// plan choice must return the nested plan's two counts.
TEST(CorrelatedPathsRegressionTest, AttributeWildcardIsMultiValued) {
  engine::Engine engine;
  engine.AddDocument("d.xml",
                     "<bib><book year=\"1\" id=\"2\"/>"
                     "<book year=\"2\" id=\"3\"/></bib>");
  const char* query = R"(
    for $b1 in doc("d.xml")//book
    return <x>{ count(for $b2 in doc("d.xml")//book
                      where $b2/@* = $b1/@* return $b2) }</x>)";
  const std::string expected = "<x>2</x><x>2</x>";
  engine::CompiledQuery q = engine.Compile(query);
  EXPECT_EQ(engine.Run(q.nested_plan).output, expected);
  for (const rewrite::Alternative& alt : q.alternatives) {
    EXPECT_EQ(engine.Run(alt.plan).output, expected) << alt.rule;
  }
  EXPECT_EQ(q.Find("eqv4"), nullptr);
  EXPECT_EQ(q.Find("eqv2"), nullptr);
  EXPECT_NE(q.Find("eqv1-nestjoin"), nullptr);
  for (engine::PlanChoice choice :
       {engine::PlanChoice::kCost, engine::PlanChoice::kRulePriority}) {
    engine::CompiledQuery chosen = engine.Compile(query, choice);
    EXPECT_EQ(engine.Run(chosen.best.plan).output, expected)
        << chosen.best.rule;
  }
}

std::vector<DataSet> DataSets() {
  std::vector<DataSet> out;
  for (unsigned seed : {11u, 12u, 13u}) {
    out.push_back({"nodtd" + std::to_string(seed), false, seed});
    out.push_back({"bibdtd" + std::to_string(seed), true, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatedPathsTest,
                         ::testing::ValuesIn(DataSets()),
                         [](const ::testing::TestParamInfo<DataSet>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace nalq
