// Experiment E6 — paper Sec. 5.6, Query 1.4.4.14 (aggregation in the where
// clause / having).
//
// Plans {nested, grouping (Eqv. 3)} over bids.xml with 100/1000/10000 bids
// (items = bids / 5).
//
// E6b: the same having-style count, correlated on a path of the outer
// variable ($b1/publisher, perfbench's N3) over bib.xml with 100/1000/10000
// books. The normalizer binds that path in the outer block, so the block
// unnests; rows are the nested plan and the cost-chosen plan.
#include <cstdio>

#include "bench_common.h"

namespace {

const char kQuery[] = R"(
  let $d1 := document("bids.xml")
  for $i1 in distinct-values($d1//itemno)
  where count($d1//bidtuple[itemno = $i1]) >= 3
  return
    <popular-item>{ $i1 }</popular-item>
)";

const char kPathQuery[] = R"(
  let $d1 := doc("bib.xml")
  for $b1 in $d1//book
  let $n := count(for $b2 in $d1//book where $b2/publisher = $b1/publisher
                  return $b2)
  where $n > 3
  return <p>{ $b1/title }</p>
)";

/// E6b: nested vs cost-chosen plan of kPathQuery.
void RunPathCorrelated(bool full, const std::vector<size_t>& sizes) {
  using namespace nalq;
  std::printf("\nE6b: count correlated on $b1/publisher (perfbench N3)\n");
  bench::Row nested_row{"nested", "", {}};
  bench::Row chosen_row{"cost-chosen", "", {}};
  double previous = 0;
  size_t previous_size = 0;
  for (size_t size : sizes) {
    engine::Engine engine;
    bench::LoadBib(&engine, size, 2);
    engine::CompiledQuery q = engine.Compile(kPathQuery);
    bench::RecordPlanEstimates(q, "E6b", std::to_string(size), &engine);
    const rewrite::Alternative& chosen = q.alternatives[q.cost_choice];
    chosen_row.cells.push_back(
        bench::FormatSeconds(bench::TimePlanRecorded(
            engine, chosen.plan, "E6b", "cost-chosen", "",
            std::to_string(size))) +
        " (" + chosen.rule + ")");
    if (size > 1000 && !full) {
      double ratio = static_cast<double>(size) /
                     static_cast<double>(previous_size);
      // Every book scans every book: quadratic.
      nested_row.cells.push_back(
          bench::Extrapolated(previous * ratio * ratio));
      continue;
    }
    previous = bench::TimePlanRecorded(engine, q.nested_plan, "E6b",
                                       "nested", "", std::to_string(size));
    previous_size = size;
    nested_row.cells.push_back(bench::FormatSeconds(previous));
  }
  bench::PrintTable("Evaluation time (books = 100 / 1000 / 10000)", "",
                    {"100", "1000", "10000"}, {nested_row, chosen_row});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nalq;
  bool full = bench::FullRuns(argc, argv);
  const std::vector<size_t> sizes = {100, 1000, 10000};
  const std::vector<std::pair<std::string, std::string>> plans = {
      {"nested", "nested"},
      {"grouping", "eqv3-grouping"},
  };
  std::printf(
      "E6: Query 1.4.4.14 (items with >= 3 bids), paper Sec. 5.6\n"
      "plans: nested | grouping (Eqv.3)\n");
  std::vector<bench::Row> rows;
  for (const auto& [label, rule] : plans) {
    bench::Row row;
    row.plan = label;
    double previous = 0;
    size_t previous_size = 0;
    for (size_t size : sizes) {
      engine::Engine engine;
      bench::LoadBids(&engine, size);
      engine::CompiledQuery q = engine.Compile(kQuery);
      bench::RecordPlanEstimates(q, "E6", std::to_string(size), &engine);
      const rewrite::Alternative* alt = q.Find(rule);
      if (alt == nullptr) {
        row.cells.push_back("n/a");
        continue;
      }
      if (rule == "nested" && size > 1000 && !full) {
        double ratio = static_cast<double>(size) /
                       static_cast<double>(previous_size);
        // The outer loop is over distinct items (= bids/5), the inner scan
        // over bids: still ~quadratic overall.
        row.cells.push_back(bench::Extrapolated(previous * ratio * ratio));
        continue;
      }
      double s = bench::TimePlanRecorded(engine, alt->plan, "E6", label,
                                         "", std::to_string(size));
      previous = s;
      previous_size = size;
      row.cells.push_back(bench::FormatSeconds(s));
    }
    rows.push_back(row);
  }
  bench::PrintTable("Evaluation time (bids = 100 / 1000 / 10000)", "",
                    {"100", "1000", "10000"}, rows);
  RunPathCorrelated(full, sizes);
  bench::WriteBenchResults();
  return 0;
}
