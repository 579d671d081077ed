// A1 — operator-level ablation microbenchmarks (google-benchmark).
//
// Measures the physical algorithms behind the plans: hash-based unary Γ
// versus θ-grouping, hash semijoin versus the nested-loop definition,
// value-deduplicating unnest (μD), descendant-axis XPath scans, the
// order-preserving hash join and the atomized-key probe under all the hash
// operators. These are the design choices DESIGN.md calls out (paper Sec. 2
// "One word on implementation").
#include <benchmark/benchmark.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/eval.h"

namespace {

using namespace nalq;
using nal::CmpOp;
using nal::Symbol;

/// Engine with a bib document of `books` books, shared per benchmark run.
engine::Engine* BibEngine(size_t books) {
  static std::map<size_t, std::unique_ptr<engine::Engine>> cache;
  auto it = cache.find(books);
  if (it == cache.end()) {
    auto engine = std::make_unique<engine::Engine>();
    datagen::BibOptions options;
    options.books = books;
    options.authors_per_book = 3;
    engine->AddDocument("bib.xml", datagen::GenerateBib(options));
    engine->RegisterDtd("bib.xml", datagen::kBibDtd);
    it = cache.emplace(books, std::move(engine)).first;
  }
  return it->second.get();
}

nal::AlgebraPtr BookScan() {
  return nal::UnnestMap(
      Symbol("b"),
      nal::MakePath(
          nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
          xml::Path::Parse("//book")),
      nal::Singleton());
}

nal::AlgebraPtr TitleScan(const char* attr) {
  return nal::UnnestMap(
      Symbol(attr),
      nal::MakePath(
          nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
          xml::Path::Parse("//book/title")),
      nal::Singleton());
}

void BM_XPathDescendantScan(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  nal::AlgebraPtr plan = BookScan();
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XPathDescendantScan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GroupUnaryHash(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  // Γ_{g;=title;count} over all (book,title) pairs.
  auto scan = nal::UnnestMap(
      Symbol("t"), nal::MakePath(nal::MakeAttrRef(Symbol("b")),
                                 xml::Path::Parse("title")),
      BookScan());
  auto plan = nal::GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("t")},
                              nal::AggCount(), scan);
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupUnaryHash)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GroupUnaryTheta(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  // Γ_{g;<=price;count}: θ-grouping has no hash path and is quadratic.
  auto scan = nal::UnnestMap(
      Symbol("p"), nal::MakePath(nal::MakeAttrRef(Symbol("b")),
                                 xml::Path::Parse("price")),
      BookScan());
  auto plan = nal::GroupUnary(Symbol("g"), CmpOp::kLe, {Symbol("p")},
                              nal::AggCount(), scan);
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupUnaryTheta)->Arg(100)->Arg(1000);

void BM_SemiJoinHash(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  auto plan = nal::SemiJoin(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("t1")),
                   nal::MakeAttrRef(Symbol("t2"))),
      TitleScan("t1"), TitleScan("t2"));
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemiJoinHash)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SemiJoinNestedLoop(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  // A non-equality predicate forces the nested-loop definition.
  auto plan = nal::SemiJoin(
      nal::MakeCmp(CmpOp::kLt, nal::MakeAttrRef(Symbol("t1")),
                   nal::MakeAttrRef(Symbol("t2"))),
      TitleScan("t1"), TitleScan("t2"));
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SemiJoinNestedLoop)->Arg(100)->Arg(1000);

void BM_HashJoinOrderPreserving(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  auto plan = nal::Join(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("t1")),
                   nal::MakeAttrRef(Symbol("t2"))),
      TitleScan("t1"), TitleScan("t2"));
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinOrderPreserving)->Arg(100)->Arg(1000)->Arg(10000);

void BM_UnnestDistinct(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  // χ_{a:b/author[a']} then μD_a — the Eqv. 4/5 building block.
  auto bind = nal::Map(
      Symbol("a"),
      nal::MakeBindTuples(nal::MakePath(nal::MakeAttrRef(Symbol("b")),
                                        xml::Path::Parse("author")),
                          Symbol("a'")),
      BookScan());
  auto plan = nal::Unnest(Symbol("a"), bind, /*distinct=*/true,
                          /*outer=*/false);
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UnnestDistinct)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DistinctValues(benchmark::State& state) {
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  auto plan = nal::UnnestMap(
      Symbol("a"),
      nal::MakeFnCall(
          "distinct-values",
          {nal::MakePath(
              nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
              xml::Path::Parse("//author"))}),
      nal::Singleton());
  for (auto _ : state) {
    nal::Evaluator ev(engine->store());
    benchmark::DoNotOptimize(ev.Eval(*plan));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DistinctValues)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AtomizedKeyProbe(benchmark::State& state) {
  // The atomize → hash → equals path every hash-based operator (Γ, the
  // semijoin, the antijoin, the nest-join) keys on: build a HashIndex over
  // the atomized //book/author nodes and probe it with every author.
  engine::Engine* engine = BibEngine(static_cast<size_t>(state.range(0)));
  const xml::Store& store = engine->store();
  auto scan = nal::UnnestMap(
      Symbol("a"),
      nal::MakePath(
          nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
          xml::Path::Parse("//book/author")),
      nal::Singleton());
  nal::Evaluator ev(store);
  nal::Sequence authors = ev.Eval(*scan);
  const Symbol attrs[] = {Symbol("a")};
  std::vector<nal::Key> scratch;
  std::vector<uint32_t> hits;
  for (auto _ : state) {
    xml::StoreReadLease lease(store);
    nal::HashIndex index;
    index.Build(authors, attrs, store);
    size_t matches = 0;
    for (const nal::Tuple& t : authors) {
      index.LookupInto(t, attrs, store, &scratch, &hits);
      matches += hits.size();
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(authors.size()));
}
BENCHMARK(BM_AtomizedKeyProbe)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
