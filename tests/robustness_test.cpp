// Edge-case and failure-path coverage across modules: empty documents,
// empty operator inputs, evaluator error paths, degenerate queries.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "nal/cursor.h"
#include "nal/exchange.h"
#include "nal/reference.h"
#include "nal/spool.h"
#include "test_util.h"

namespace nalq {
namespace {

using nal::CmpOp;
using nal::Sequence;
using nal::Symbol;
using testutil::I;
using testutil::T;
using testutil::Table;

TEST(RobustnessTest, EmptyDocumentsYieldEmptyResultsOnEveryPlan) {
  engine::Engine engine;
  engine.AddDocument("bib.xml", "<bib/>");
  engine.RegisterDtd("bib.xml", datagen::kBibDtd);
  engine::CompiledQuery q = engine.Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <author>{
      let $d2 := doc("bib.xml")
      for $b2 in $d2//book[$a1 = author]
      return $b2/title }</author>)");
  EXPECT_GE(q.alternatives.size(), 3u);
  for (const rewrite::Alternative& alt : q.alternatives) {
    EXPECT_TRUE(engine.Run(alt.plan).output.empty()) << alt.rule;
  }
}

TEST(RobustnessTest, SingleBookDocument) {
  engine::Engine engine;
  datagen::BibOptions bib;
  bib.books = 1;
  bib.authors_per_book = 1;
  engine.AddDocument("bib.xml", datagen::GenerateBib(bib));
  engine.RegisterDtd("bib.xml", datagen::kBibDtd);
  engine::CompiledQuery q = engine.Compile(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ $a1 }</a>)");
  std::string reference = engine.Run(q.nested_plan).output;
  for (const rewrite::Alternative& alt : q.alternatives) {
    EXPECT_EQ(engine.Run(alt.plan).output, reference) << alt.rule;
  }
  EXPECT_NE(reference.find("<a>"), std::string::npos);
}

/// Auto-created spool directories of this process ("nalq-spool-<pid>-...")
/// in the system temp dir.
size_t SpoolDirsInTemp() {
  const std::string prefix = "nalq-spool-" + std::to_string(getpid()) + "-";
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

/// Runs `fn`, requiring engine::Error(kPlanError); returns it.
engine::Error ExpectPlanError(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const engine::Error& e) {
    EXPECT_EQ(e.code(), engine::ErrorCode::kPlanError) << e.what();
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unstructured exception: " << e.what();
    return engine::Error(engine::ErrorCode::kPlanError, "unstructured");
  }
  ADD_FAILURE() << "the run completed";
  return engine::Error(engine::ErrorCode::kPlanError, "completed");
}

/// Runs `plan` on DrainStreaming, DrainParallel at 4 threads,
/// Evaluator::Eval and Engine::Run in every mode, at budgets 0 and 1 MB;
/// each must throw kPlanError and leave no spool directory behind. Returns
/// the errors.
std::vector<engine::Error> ExpectPlanErrorEverywhere(
    const engine::Engine& engine, const nal::AlgebraPtr& plan) {
  const size_t dirs_before = SpoolDirsInTemp();
  std::vector<engine::Error> errors;
  for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20}) {
    {
      nal::Evaluator ev(engine.store());
      nal::SpoolContext spool(budget);
      errors.push_back(ExpectPlanError(
          [&] { nal::DrainStreaming(ev, *plan, nullptr, &spool); }));
    }
    {
      nal::Evaluator ev(engine.store());
      nal::SpoolContext spool(budget);
      nal::ParallelOptions options;
      options.threads = 4;
      errors.push_back(ExpectPlanError(
          [&] { nal::DrainParallel(ev, *plan, options, nullptr, &spool); }));
    }
    {
      nal::Evaluator ev(engine.store());
      errors.push_back(ExpectPlanError([&] { ev.Eval(*plan); }));
    }
    for (engine::ExecMode mode :
         {engine::ExecMode::kStreaming, engine::ExecMode::kParallel,
          engine::ExecMode::kMaterializing}) {
      errors.push_back(ExpectPlanError([&] {
        engine.Run(plan, mode, engine::PathMode::kIndexed, 4, budget);
      }));
    }
  }
  EXPECT_EQ(SpoolDirsInTemp(), dirs_before);
  return errors;
}

TEST(RobustnessTest, ThetaGroupingRequiresSingleAttribute) {
  engine::Engine engine;
  Sequence rows;
  rows.Append(T({{"a", I(1)}, {"b", I(2)}}));
  auto unary = nal::GroupUnary(Symbol("g"), CmpOp::kLt,
                               {Symbol("a"), Symbol("b")}, nal::AggCount(),
                               Table(rows));
  auto binary = nal::GroupBinary(Symbol("g"), {Symbol("a"), Symbol("b")},
                                 CmpOp::kLt, {Symbol("a"), Symbol("b")},
                                 nal::AggCount(), Table(rows), Table(rows));
  for (const nal::AlgebraPtr& plan : {unary, binary}) {
    for (const engine::Error& e : ExpectPlanErrorEverywhere(engine, plan)) {
      EXPECT_EQ(e.op(), nal::OpKindName(plan->kind)) << e.what();
    }
  }
}

// The executors run one plan shape (nal::CheckPlanShape): the only Ξ is at
// the root, and subscript algebra holds no Ξ and no cse_id. Every other
// shape fails closed before any work.
TEST(RobustnessTest, OtherPlanShapesFailClosed) {
  engine::Engine engine;
  Sequence rows;
  rows.Append(T({{"a", I(1)}, {"b", I(2)}}));
  rows.Append(T({{"a", I(3)}, {"b", I(4)}}));
  auto xi = [&] {
    return nal::XiSimple({nal::XiCommand::Literal("x")}, Table(rows));
  };
  nal::AggSpec filtered = nal::AggCount();
  filtered.filter = nal::MakeFnCall("exists", {nal::MakeNestedAlg(xi())});
  nal::AlgebraPtr shared = Table(rows);
  shared->cse_id = 7;
  const struct {
    const char* name;
    nal::AlgebraPtr plan;
  } shapes[] = {
      {"Xi under a join",
       nal::Join(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a")),
                              nal::MakeAttrRef(Symbol("c"))),
                 xi(), nal::ProjectRename({{Symbol("c"), Symbol("a")}},
                                          Table(rows)))},
      {"Xi under Xi",
       nal::XiSimple({nal::XiCommand::Literal("y")}, xi())},
      {"Xi in a map subscript",
       nal::Map(Symbol("m"), nal::MakeNestedAlg(xi()), Table(rows))},
      {"Xi in an aggregate filter",
       nal::GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("a")}, filtered,
                       Table(rows))},
      {"Xi in a Xi command",
       nal::XiSimple({nal::XiCommand::Eval(nal::MakeNestedAlg(xi()))},
                     Table(rows))},
      {"cse_id in a subscript",
       nal::Map(Symbol("m"), nal::MakeNestedAlg(shared), Table(rows))},
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    EXPECT_THROW(nal::CheckPlanShape(*shape.plan), engine::Error);
    for (const engine::Error& e :
         ExpectPlanErrorEverywhere(engine, shape.plan)) {
      EXPECT_EQ(e.context(), "plan.shape") << e.what();
    }
  }
  // One Ξ at the root, and a cse_id outside subscripts, pass.
  EXPECT_NO_THROW(nal::CheckPlanShape(*xi()));
  EXPECT_NO_THROW(nal::CheckPlanShape(*nal::Cross(shared, Table(rows))));
}

// Query text naming a missing document or an unknown function fails with
// kPlanError and its raising site under every executor.
TEST(RobustnessTest, MissingDocumentAndUnknownFunctionFailClosed) {
  engine::Engine engine;
  engine.AddDocument("bib.xml", datagen::GenerateBib(datagen::BibOptions{}));
  const struct {
    const char* text;
    const char* context;
  } cases[] = {
      {R"(for $b in doc("nope.xml")//book return <b>{ $b/title }</b>)",
       "eval.doc"},
      {R"(for $b in doc("bib.xml")//book return <b>{ frobnicate($b) }</b>)",
       "eval.fn"},
  };
  const size_t dirs_before = SpoolDirsInTemp();
  for (const auto& c : cases) {
    for (engine::ExecMode mode :
         {engine::ExecMode::kStreaming, engine::ExecMode::kParallel,
          engine::ExecMode::kMaterializing}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20}) {
        engine::Error e = ExpectPlanError([&] {
          engine.RunQuery(c.text, mode, engine::PathMode::kIndexed, 4,
                          budget);
        });
        EXPECT_EQ(e.context(), c.context) << e.what();
      }
    }
  }
  EXPECT_EQ(SpoolDirsInTemp(), dirs_before);
}

TEST(RobustnessTest, ReferenceEvaluatorRejectsXi) {
  xml::Store store;
  nal::Evaluator ev(store);
  auto plan = nal::XiSimple({nal::XiCommand::Literal("x")}, nal::Singleton());
  EXPECT_THROW(nal::reference::Eval(ev, *plan), std::logic_error);
}

TEST(RobustnessTest, OperatorsOnEmptyInputs) {
  xml::Store store;
  nal::Evaluator ev(store);
  Sequence empty;
  Sequence one;
  one.Append(T({{"a", I(1)}}));
  // Binary operators with an empty operand.
  EXPECT_TRUE(ev.Eval(*nal::Cross(Table(empty), Table(one))).empty());
  EXPECT_TRUE(ev.Eval(*nal::Cross(Table(one), Table(empty))).empty());
  EXPECT_TRUE(ev.Eval(*nal::SemiJoin(nal::MakeConst(nal::Value(true)),
                                     Table(empty), Table(one)))
                  .empty());
  // Antijoin with empty right side keeps everything.
  EXPECT_EQ(ev.Eval(*nal::AntiJoin(nal::MakeConst(nal::Value(true)),
                                   Table(one), Table(empty)))
                .size(),
            1u);
  // Outer join with empty right side: default row per left tuple.
  Sequence oj = ev.Eval(*nal::OuterJoin(
      nal::MakeConst(nal::Value(true)), Symbol("g"), nal::MakeConst(I(0)),
      Table(one), Table(empty)));
  ASSERT_EQ(oj.size(), 1u);
  EXPECT_EQ(oj[0].Get(Symbol("g")).AsInt(), 0);
  // Grouping the empty sequence.
  EXPECT_TRUE(ev.Eval(*nal::GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("a")},
                                       nal::AggCount(), Table(empty)))
                  .empty());
  // Ξ over the empty sequence writes nothing.
  ev.ClearOutput();
  ev.Eval(*nal::XiSimple({nal::XiCommand::Literal("never")}, Table(empty)));
  EXPECT_TRUE(ev.output().empty());
}

TEST(RobustnessTest, DeepPathAndLongEntityText) {
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) xml += "<d>";
  xml += "leaf &amp;&lt;&gt; text";
  for (int i = 0; i < 40; ++i) xml += "</d>";
  xml += "</r>";
  engine::Engine engine;
  engine.AddDocument("deep.xml", xml);
  engine::RunResult r = engine.RunQuery(R"(
    for $x in doc("deep.xml")//d/text()
    return <t>{ $x }</t>)");
  EXPECT_EQ(r.output, "<t>leaf &amp;&lt;&gt; text</t>");
}

TEST(RobustnessTest, QuantifierOverMissingElements) {
  engine::Engine engine;
  engine.AddDocument("bib.xml", "<bib><book year=\"2001\"><title>X</title>"
                                "<author><last>L</last><first>F</first>"
                                "</author><publisher>P</publisher>"
                                "<price>1</price></book></bib>");
  engine.RegisterDtd("bib.xml", datagen::kBibDtd);
  // every over an empty range is true: books with no editor qualify.
  engine::RunResult r = engine.RunQuery(R"(
    for $b in doc("bib.xml")//book
    where every $e in $b/editor satisfies $e = "nobody"
    return <ok>{ $b/title }</ok>)");
  EXPECT_EQ(r.output, "<ok><title>X</title></ok>");
}

TEST(RobustnessTest, WhitespaceAndCommentsInQueries) {
  engine::Engine engine;
  engine.AddDocument("bib.xml", "<bib><book year=\"2001\"><title>X</title>"
                                "<author><last>L</last><first>F</first>"
                                "</author><publisher>P</publisher>"
                                "<price>1</price></book></bib>");
  engine::RunResult r = engine.RunQuery(
      "(: leading comment :)\n"
      "for $b in doc(\"bib.xml\")//book (: mid comment :)\n"
      "return <t>{ $b/title }</t>");
  EXPECT_EQ(r.output, "<t><title>X</title></t>");
}

TEST(RobustnessTest, AttributeValueEscaping) {
  engine::Engine engine;
  engine.AddDocument("d.xml", "<r><v>a&amp;b \"quoted\"</v></r>");
  engine::RunResult r = engine.RunQuery(R"(
    for $v in doc("d.xml")//v
    return <out val="{ string($v) }"/>)");
  EXPECT_NE(r.output.find("a&amp;b"), std::string::npos);
}

TEST(RobustnessTest, RunIsRepeatableAndStatsAccumulate) {
  engine::Engine engine;
  datagen::BibOptions bib;
  bib.books = 5;
  engine.AddDocument("bib.xml", datagen::GenerateBib(bib));
  engine::CompiledQuery q = engine.Compile(
      R"(for $b in doc("bib.xml")//book return <t>{ $b/title }</t>)");
  engine::RunResult a = engine.Run(q.nested_plan);
  engine::RunResult b = engine.Run(q.nested_plan);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.doc_scans, b.stats.doc_scans);
}

}  // namespace
}  // namespace nalq
