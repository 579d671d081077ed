// Tests for the unnesting rewriter: provenance derivation, condition
// checking (including the DBLP rejection), matcher behaviour, rule ranking
// and the alternative enumeration.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/printer.h"
#include "rewrite/unnester.h"
#include "test_util.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

namespace nalq::rewrite {
namespace {

using nal::AlgebraPtr;
using nal::CmpOp;
using nal::OpKind;
using nal::Symbol;

AlgebraPtr DocScan(const char* doc, const char* path, const char* attr) {
  return nal::UnnestMap(
      Symbol(attr),
      nal::MakePath(nal::MakeFnCall("doc", {nal::MakeConst(nal::Value(doc))}),
                    xml::Path::Parse(path)),
      nal::Singleton());
}

class ProvenanceTest : public ::testing::Test {};

TEST_F(ProvenanceTest, DocScanYieldsAbsolutePath) {
  AlgebraPtr plan = DocScan("bib.xml", "//book", "b");
  ProvenanceMap prov = DeriveProvenance(*plan);
  ASSERT_TRUE(prov[Symbol("b")].known);
  EXPECT_EQ(prov[Symbol("b")].doc, "bib.xml");
  EXPECT_EQ(prov[Symbol("b")].path.ToString(), "//book");
  EXPECT_TRUE(prov[Symbol("b")].complete);
  EXPECT_FALSE(prov[Symbol("b")].distinct);
}

TEST_F(ProvenanceTest, DistinctValuesSetsDistinctFlag) {
  AlgebraPtr plan = nal::UnnestMap(
      Symbol("a"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
              xml::Path::Parse("//author"))}),
      nal::Singleton());
  ProvenanceMap prov = DeriveProvenance(*plan);
  EXPECT_TRUE(prov[Symbol("a")].distinct);
  EXPECT_TRUE(prov[Symbol("a")].complete);
}

TEST_F(ProvenanceTest, SelectBreaksCompleteness) {
  AlgebraPtr plan = nal::Select(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("b")),
                   nal::MakeConst(nal::Value("x"))),
      DocScan("bib.xml", "//book", "b"));
  ProvenanceMap prov = DeriveProvenance(*plan);
  EXPECT_FALSE(prov[Symbol("b")].complete);
}

TEST_F(ProvenanceTest, BindTuplesTracksNestedItemAttr) {
  AlgebraPtr plan = nal::Map(
      Symbol("a"),
      nal::MakeBindTuples(nal::MakePath(nal::MakeAttrRef(Symbol("b")),
                                        xml::Path::Parse("author")),
                          Symbol("a'")),
      DocScan("bib.xml", "//book", "b"));
  ProvenanceMap prov = DeriveProvenance(*plan);
  ASSERT_TRUE(prov[Symbol("a")].known);
  EXPECT_TRUE(prov[Symbol("a")].is_nested);
  EXPECT_EQ(prov[Symbol("a")].nested_item, Symbol("a'"));
  EXPECT_EQ(prov[Symbol("a")].path.ToString(), "//book/author");
  // After unnesting, the item attribute inherits the provenance.
  AlgebraPtr mu = nal::Unnest(Symbol("a"), plan, true, false);
  ProvenanceMap prov2 = DeriveProvenance(*mu);
  ASSERT_TRUE(prov2[Symbol("a'")].known);
  EXPECT_EQ(prov2[Symbol("a'")].path.ToString(), "//book/author");
}

TEST_F(ProvenanceTest, RenameCarriesProvenance) {
  AlgebraPtr plan = nal::ProjectRename({{Symbol("z"), Symbol("b")}},
                                       DocScan("bib.xml", "//book", "b"));
  ProvenanceMap prov = DeriveProvenance(*plan);
  EXPECT_TRUE(prov[Symbol("z")].known);
  EXPECT_EQ(prov.count(Symbol("b")), 0u);
}

// `single`: at most one item per tuple. Υ binds one item; χ over a path is
// single only when the DTD bounds every step from a single context (or the
// path is one attribute step); χ over distinct-values is a whole sequence.
TEST_F(ProvenanceTest, SingleFlagFollowsBindingAndDtd) {
  xml::DtdRegistry dtds;
  dtds.Register("bib.xml", xml::Dtd::Parse(datagen::kBibDtd));
  auto map_path = [](const char* attr, const char* path, AlgebraPtr child) {
    return nal::Map(Symbol(attr),
                    nal::MakePath(nal::MakeAttrRef(Symbol("b")),
                                  xml::Path::Parse(path)),
                    std::move(child));
  };
  AlgebraPtr plan = map_path(
      "p", "publisher",
      map_path("a", "author",
               map_path("y", "@year",
                        map_path("w", "@*",
                                 DocScan("bib.xml", "//book", "b")))));
  plan = nal::Map(Symbol("c"),
                  nal::MakeAgg(nal::AggCount(),
                               nal::MakeNestedAlg(DocScan("bib.xml", "//book",
                                                          "x"))),
                  std::move(plan));
  plan = nal::Map(
      Symbol("dv"),
      nal::MakeFnCall("distinct-values",
                      {nal::MakePath(nal::MakeFnCall(
                                         "doc", {nal::MakeConst(
                                                    nal::Value("bib.xml"))}),
                                     xml::Path::Parse("//author"))}),
      std::move(plan));
  ProvenanceMap with_dtd = DeriveProvenance(*plan, &dtds);
  EXPECT_TRUE(with_dtd[Symbol("b")].single);   // Υ
  EXPECT_TRUE(with_dtd[Symbol("p")].single);   // publisher: exactly one
  EXPECT_FALSE(with_dtd[Symbol("a")].single);  // author+
  EXPECT_TRUE(with_dtd[Symbol("y")].single);   // one attribute step
  EXPECT_FALSE(with_dtd[Symbol("w")].single);  // @*: every attribute
  EXPECT_TRUE(with_dtd[Symbol("c")].single);   // count(...)
  EXPECT_FALSE(with_dtd[Symbol("dv")].single);
  ProvenanceMap without = DeriveProvenance(*plan);
  EXPECT_FALSE(without[Symbol("p")].single);   // no DTD, no bound
  EXPECT_TRUE(without[Symbol("y")].single);
  EXPECT_FALSE(without[Symbol("w")].single);
}

class ConditionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dtds_.Register("bib.xml", xml::Dtd::Parse(datagen::kBibDtd));
    dtds_.Register("dblp.xml", xml::Dtd::Parse(datagen::kDblpDtd));
  }
  /// The provenance entry of `attr` in `op`, derived as the rewriter does
  /// for e1 (with the DTDs).
  AttrProvenance Prov(const AlgebraPtr& op, const char* attr) const {
    return ProvenanceOf(DeriveProvenance(*op, &dtds_), Symbol(attr));
  }
  xml::DtdRegistry dtds_;
};

TEST_F(ConditionsTest, DistinctSourceMatchHoldsOnBib) {
  ConditionChecker checker(&dtds_);
  AlgebraPtr e1 = nal::UnnestMap(
      Symbol("a1"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
              xml::Path::Parse("//author"))}),
      nal::Singleton());
  AlgebraPtr e2 = nal::UnnestMap(
      Symbol("a2"),
      nal::MakePath(nal::MakeAttrRef(Symbol("b2")),
                    xml::Path::Parse("author")),
      DocScan("bib.xml", "//book", "b2"));
  EXPECT_TRUE(
      checker.DistinctSourceMatches(Prov(e1, "a1"), Prov(e2, "a2")));
  EXPECT_TRUE(ConditionChecker::IsDuplicateFree(Prov(e1, "a1")));
  EXPECT_FALSE(ConditionChecker::IsDuplicateFree(Prov(e2, "a2")));
}

TEST_F(ConditionsTest, DistinctSourceMatchFailsOnDblp) {
  ConditionChecker checker(&dtds_);
  AlgebraPtr e1 = nal::UnnestMap(
      Symbol("a1"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("dblp.xml"))}),
              xml::Path::Parse("//author"))}),
      nal::Singleton());
  AlgebraPtr e2 = nal::UnnestMap(
      Symbol("a2"),
      nal::MakePath(nal::MakeAttrRef(Symbol("b2")),
                    xml::Path::Parse("author")),
      DocScan("dblp.xml", "//book", "b2"));
  // Authors occur under articles and theses too: the condition must fail.
  EXPECT_FALSE(
      checker.DistinctSourceMatches(Prov(e1, "a1"), Prov(e2, "a2")));
}

TEST_F(ConditionsTest, DifferentDocumentsNeverMatch) {
  ConditionChecker checker(&dtds_);
  AlgebraPtr e1 = nal::UnnestMap(
      Symbol("a1"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
              xml::Path::Parse("//author"))}),
      nal::Singleton());
  AlgebraPtr e2 = DocScan("dblp.xml", "//author", "a2");
  EXPECT_FALSE(
      checker.DistinctSourceMatches(Prov(e1, "a1"), Prov(e2, "a2")));
}

TEST_F(ConditionsTest, NullRegistryFailsConservatively) {
  ConditionChecker checker(nullptr);
  AlgebraPtr e1 = DocScan("bib.xml", "//author", "a1");
  AlgebraPtr e2 = DocScan("bib.xml", "//author", "a2");
  EXPECT_FALSE(
      checker.DistinctSourceMatches(Prov(e1, "a1"), Prov(e2, "a2")));
}

// A χ-bound distinct-values sequence is distinct but one tuple: e1 is not
// ΠD_{A1:A2}(Π_{A2}(e2)), whatever the DTD says about the paths.
TEST_F(ConditionsTest, DistinctSourceMatchRequiresSingleValuedA1) {
  ConditionChecker checker(&dtds_);
  AlgebraPtr e1 = nal::Map(
      Symbol("a1"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
              xml::Path::Parse("//author"))}),
      nal::Singleton());
  AlgebraPtr e2 = nal::UnnestMap(
      Symbol("a2"),
      nal::MakePath(nal::MakeAttrRef(Symbol("b2")),
                    xml::Path::Parse("author")),
      DocScan("bib.xml", "//book", "b2"));
  EXPECT_FALSE(ConditionChecker::IsSingleValued(Prov(e1, "a1")));
  EXPECT_FALSE(
      checker.DistinctSourceMatches(Prov(e1, "a1"), Prov(e2, "a2")));
  EXPECT_TRUE(ConditionChecker::IsSingleValued(Prov(e2, "a2")));
}

TEST_F(ConditionsTest, FreeOfOuter) {
  AlgebraPtr e1 = DocScan("bib.xml", "//book", "b1");
  AlgebraPtr e2_clean = DocScan("bib.xml", "//book", "b2");
  EXPECT_TRUE(ConditionChecker::FreeOfOuter(*e2_clean, *e1));
  AlgebraPtr e2_corr = nal::Select(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("b1")),
                   nal::MakeAttrRef(Symbol("b2"))),
      DocScan("bib.xml", "//book", "b2"));
  EXPECT_FALSE(ConditionChecker::FreeOfOuter(*e2_corr, *e1));
}

class UnnesterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dtds_.Register("bib.xml", xml::Dtd::Parse(datagen::kBibDtd));
    dtds_.Register("dblp.xml", xml::Dtd::Parse(datagen::kDblpDtd));
  }

  std::vector<Alternative> Compile(const char* query) {
    AlgebraPtr nested = xquery::Translate(
        xquery::Normalize(xquery::ParseQuery(query)), &dtds_);
    Unnester unnester(&dtds_);
    return unnester.Alternatives(nested);
  }

  static bool Has(const std::vector<Alternative>& alts, const char* rule) {
    for (const Alternative& a : alts) {
      if (a.rule.find(rule) != std::string::npos) return true;
    }
    return false;
  }

  xml::DtdRegistry dtds_;
};

TEST_F(UnnesterTest, Q1StyleQueryGetsAllFourPlans) {
  auto alts = Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <author>{
      let $d2 := doc("bib.xml")
      for $b2 in $d2//book[$a1 = author]
      return $b2/title }</author>)");
  EXPECT_TRUE(Has(alts, "nested"));
  EXPECT_TRUE(Has(alts, "eqv4-outerjoin"));
  EXPECT_TRUE(Has(alts, "eqv5-grouping"));
  EXPECT_TRUE(Has(alts, "eqv1-nestjoin"));
  EXPECT_TRUE(Has(alts, "group-xi"));
}

TEST_F(UnnesterTest, Eqv5RejectedOnDblp) {
  auto alts = Compile(R"(
    let $d1 := doc("dblp.xml")
    for $a1 in distinct-values($d1//author)
    return <author>{
      let $d2 := doc("dblp.xml")
      for $b2 in $d2//book[$a1 = author]
      return $b2/title }</author>)");
  EXPECT_FALSE(Has(alts, "eqv5-grouping"));  // the Paparizos trap
  EXPECT_TRUE(Has(alts, "eqv4-outerjoin"));  // the general plan remains
}

TEST_F(UnnesterTest, BestPrefersMostRestrictiveRule) {
  AlgebraPtr nested = xquery::Translate(
      xquery::Normalize(xquery::ParseQuery(R"(
        let $d1 := doc("bib.xml")
        for $a1 in distinct-values($d1//author)
        return <author>{
          let $d2 := doc("bib.xml")
          for $b2 in $d2//book[$a1 = author]
          return $b2/title }</author>)")),
      &dtds_);
  Unnester unnester(&dtds_);
  Alternative best = unnester.Best(nested);
  EXPECT_NE(best.rule.find("group-xi"), std::string::npos) << best.rule;
}

TEST_F(UnnesterTest, RulePriorityOrdering) {
  EXPECT_LT(RulePriority("eqv5-grouping+group-xi"),
            RulePriority("eqv5-grouping"));
  EXPECT_LT(RulePriority("eqv5-grouping"), RulePriority("eqv4-outerjoin"));
  EXPECT_LT(RulePriority("eqv7-antijoin+eqv9-counting"),
            RulePriority("eqv7-antijoin"));
  EXPECT_LT(RulePriority("eqv6-semijoin"), RulePriority("nested"));
}

TEST_F(UnnesterTest, UncorrelatedQuantifierLeftAlone) {
  auto alts = Compile(R"(
    let $d1 := doc("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in doc("bib.xml")//book/title satisfies $t2 = "fixed"
    return <r>{ $t1 }</r>)");
  // No correlation between inner and outer: Eqv. 6 brings no benefit and
  // the matcher must not fire.
  EXPECT_FALSE(Has(alts, "eqv6-semijoin"));
}

TEST_F(UnnesterTest, SplitSelectsSplitsConjunctions) {
  AlgebraPtr plan = nal::Select(
      nal::MakeAnd(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("b")),
                                nal::MakeConst(nal::Value("x"))),
                   nal::MakeCmp(CmpOp::kNe, nal::MakeAttrRef(Symbol("b")),
                                nal::MakeConst(nal::Value("y")))),
      DocScan("bib.xml", "//book", "b"));
  AlgebraPtr split = Unnester::SplitSelects(plan);
  EXPECT_EQ(split->kind, OpKind::kSelect);
  EXPECT_EQ(split->child(0)->kind, OpKind::kSelect);
  EXPECT_EQ(split->child(0)->child(0)->kind, OpKind::kUnnestMap);
}

TEST_F(UnnesterTest, RequiredAttributesBlockEqv3) {
  // The Ξ program references the outer document variable d1 in addition to
  // a1 — so the grouping plan (which drops e1 entirely) must be rejected
  // while the outer-join plan (which keeps e1) must survive.
  AlgebraPtr e1 = nal::UnnestMap(
      Symbol("a1"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
              xml::Path::Parse("//book/title"))}),
      nal::Singleton());
  AlgebraPtr e2 = nal::UnnestMap(
      Symbol("a2"),
      nal::MakePath(nal::MakeAttrRef(Symbol("b2")),
                    xml::Path::Parse("title")),
      DocScan("bib.xml", "//book", "b2"));
  auto make_plan = [&](nal::XiProgram program) {
    AlgebraPtr map = nal::Map(
        Symbol("g"),
        nal::MakeAgg(nal::AggCount(),
                     nal::MakeNestedAlg(nal::Select(
                         nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                      nal::MakeAttrRef(Symbol("a2"))),
                         e2->Clone()))),
        e1->Clone());
    return nal::XiSimple(std::move(program), std::move(map));
  };
  Unnester unnester(&dtds_);
  // Ξ references only a1 and g: Eqv. 3 applicable.
  auto alts_ok = unnester.Alternatives(make_plan(
      {nal::XiCommand::Var(Symbol("a1")), nal::XiCommand::Var(Symbol("g"))}));
  EXPECT_TRUE(Has(alts_ok, "eqv3-grouping"));
  // Ξ additionally references b1-side attribute a1 AND something only e1
  // provides (here: a fabricated extra attribute via a Map on e1).
  AlgebraPtr e1_extra =
      nal::Map(Symbol("extra"), nal::MakeConst(nal::Value(int64_t{1})),
               e1->Clone());
  AlgebraPtr map = nal::Map(
      Symbol("g"),
      nal::MakeAgg(nal::AggCount(),
                   nal::MakeNestedAlg(nal::Select(
                       nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                    nal::MakeAttrRef(Symbol("a2"))),
                       e2->Clone()))),
      e1_extra);
  AlgebraPtr plan = nal::XiSimple(
      {nal::XiCommand::Var(Symbol("a1")), nal::XiCommand::Var(Symbol("g")),
       nal::XiCommand::Var(Symbol("extra"))},
      map);
  auto alts_blocked = unnester.Alternatives(plan);
  EXPECT_FALSE(Has(alts_blocked, "eqv3-grouping"));
  EXPECT_TRUE(Has(alts_blocked, "eqv2-outerjoin"));
}

// Eqv. 2/4 join e1 to e2's groups on A1: they need A1 to hold at most one
// item per e1 tuple. `publisher` is one per book under the bib DTD; `author`
// and `@*` are not, and without a DTD `publisher` is not either.
TEST_F(UnnesterTest, OuterJoinsNeedSingleValuedA1) {
  const char* by_publisher = R"(
    for $b1 in doc("bib.xml")//book
    let $p1 := $b1/publisher
    return <x>{ count(for $b2 in doc("bib.xml")//book
                      where $b2/publisher = $p1 return $b2) }</x>)";
  EXPECT_TRUE(Has(Compile(by_publisher), "eqv2-outerjoin"));
  auto by_author = Compile(R"(
    for $b1 in doc("bib.xml")//book
    let $a1 := $b1/author
    return <x>{ count(for $b2 in doc("bib.xml")//book
                      where $b2/author = $a1 return $b2) }</x>)");
  EXPECT_FALSE(Has(by_author, "eqv4-outerjoin"));
  EXPECT_FALSE(Has(by_author, "eqv2-outerjoin"));
  EXPECT_TRUE(Has(by_author, "eqv1-nestjoin"));
  // `@*` selects every attribute of a book, whatever the DTD declares.
  auto by_any_attribute = Compile(R"(
    for $b1 in doc("bib.xml")//book
    return <x>{ count(for $b2 in doc("bib.xml")//book
                      where $b2/@* = $b1/@* return $b2) }</x>)");
  EXPECT_FALSE(Has(by_any_attribute, "eqv4-outerjoin"));
  EXPECT_FALSE(Has(by_any_attribute, "eqv2-outerjoin"));
  EXPECT_TRUE(Has(by_any_attribute, "eqv1-nestjoin"));
  dtds_ = xml::DtdRegistry();
  auto no_dtd = Compile(by_publisher);
  EXPECT_FALSE(Has(no_dtd, "eqv4-outerjoin"));
  EXPECT_FALSE(Has(no_dtd, "eqv2-outerjoin"));
  EXPECT_TRUE(Has(no_dtd, "eqv1-nestjoin"));
}

// The where-path binding moves an outer path out of the block, so N3's
// inline spelling unnests like its let-bound spelling.
TEST_F(UnnesterTest, InlineOuterPathUnnests) {
  auto alts = Compile(R"(
    for $b1 in doc("bib.xml")//book
    let $n := count(for $b2 in doc("bib.xml")//book
                    where $b2/publisher = $b1/publisher return $b2)
    where $n > 3
    return <p>{ $b1/title }</p>)");
  EXPECT_TRUE(Has(alts, "eqv2-outerjoin"));
  EXPECT_TRUE(Has(alts, "eqv1-nestjoin"));
}

// Eqv. 3/5 replace e1 by one tuple per distinct value: a χ-bound
// distinct-values sequence (one tuple) must not qualify.
TEST_F(UnnesterTest, GroupingNeedsSingleValuedA1) {
  auto alts = Compile(R"(
    let $a1 := distinct-values(doc("bib.xml")//author)
    return <x>{ for $b2 in doc("bib.xml")//book[$a1 = author]
                return $b2/title }</x>)");
  EXPECT_FALSE(Has(alts, "eqv5-grouping"));
  EXPECT_FALSE(Has(alts, "eqv4-outerjoin"));
  EXPECT_TRUE(Has(alts, "eqv1-nestjoin"));
}

TEST_F(UnnesterTest, NoSiteMeansOnlyNestedPlan) {
  auto alts = Compile(
      R"(for $b in doc("bib.xml")//book return <r>{ $b }</r>)");
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(alts[0].rule, "nested");
}

}  // namespace
}  // namespace nalq::rewrite
