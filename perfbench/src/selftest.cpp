// Self-checks of the benchmark's own code: the order-statistic and ratio
// arithmetic, determinism of the seeded request streams, and the output
// check catching a corrupted response.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "measure.h"
#include "shapes.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + NumberText(got) + ", want " + NumberText(want));
}

void CheckArithmetic() {
  ExpectNear(Percentile({4, 1, 3, 2}, 0.5), 2.5, "median of 1..4");
  ExpectNear(Percentile({4, 1, 3, 2}, 0.95), 3.85, "p95 of 1..4");
  ExpectNear(Percentile({7}, 0.95), 7, "p95 of one sample");
  ExpectNear(Percentile({}, 0.5), 0, "empty sample");
  ExpectNear(Median({5, 1, 3}), 3, "odd median");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 0.95), 95.05, "p95 of 1..100");
  ExpectNear(Mean({1, 2, 6}), 3, "mean");
  ExpectNear(GeoMean({1, 4}), 2, "geomean");
  ExpectNear(Ratio(3, 4), 0.75, "ratio");
  ExpectNear(Ratio(3, 0), 0, "ratio over zero");
  ExpectNear(QError(10, 5), 2, "q-error over");
  ExpectNear(QError(5, 10), 2, "q-error under");
  ExpectNear(QError(0, 0), 1, "q-error of empty results");
  Expect(NumberText(0.1) == "0.1", "shortest round-trip text");
}

void CheckStreams() {
  for (const std::string& workload : WorkloadNames()) {
    const StreamSpec spec = SpecFor(workload);
    RequestStream a(spec, 7);
    RequestStream b(spec, 7);
    RequestStream other(spec, 8);
    bool same = true;
    bool differs = false;
    for (int round = 0; round < 4; ++round) {
      const std::vector<Request> ra = a.NextRound();
      const std::vector<Request> rb = b.NextRound();
      const std::vector<Request> ro = other.NextRound();
      std::vector<int> seen(AllShapes().size(), 0);
      size_t parallel = 0;
      for (size_t i = 0; i < ra.size(); ++i) {
        same = same && ra[i].text == rb[i].text;
        differs = differs || ra[i].text != ro[i].text;
        ++seen[ra[i].shape];
        parallel += ra[i].parallel ? 1 : 0;
        for (const char* key : {"{bib}", "{reviews}", "{prices}", "{bids}",
                                "{dblp}", "{catalog}", "{c}"}) {
          Expect(ra[i].text.find(key) == std::string::npos,
                 workload + ": placeholder " + key + " left in a request");
        }
      }
      Expect(ra.size() == spec.shapes.size() + spec.repeated_shapes.size() +
                              spec.parallel_shapes.size(),
             workload + ": a round holds the whole mix");
      Expect(parallel == spec.parallel_shapes.size(),
             workload + ": a round's parallel share");
      for (const std::string& id : spec.shapes) {
        const auto sends = 1 +
            std::count(spec.repeated_shapes.begin(), spec.repeated_shapes.end(), id) +
            std::count(spec.parallel_shapes.begin(), spec.parallel_shapes.end(), id);
        Expect(seen[ShapeIndex(id)] == sends,
               workload + ": shape " + id + " as often as the mix says");
      }
    }
    Expect(same, workload + ": the same seed gives the same stream");
    Expect(differs, workload + ": another seed gives another stream");
  }
  Rng rng(3);
  Zipf zipf(64, 1.0);
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 20000; ++i) {
    const int t = zipf.Draw(&rng);
    Expect(t >= 0 && t < 64, "zipf draw in range");
    if (t >= 0 && t < 64) ++counts[t];
  }
  // Zipf(1) over 64 ranks: P(rank 0) = 1 / H_64, about 0.211.
  Expect(counts[0] > 3800 && counts[0] < 4650, "zipf head share");
  Expect(counts[0] > counts[1] && counts[1] > counts[8],
         "zipf ranks decrease");
  const std::string renamed =
      Instantiate(AllShapes()[ShapeIndex("Q5")], "t03-", 1997, "c0r9_");
  Expect(renamed.find("doc(\"t03-bib.xml\")") != std::string::npos,
         "tenant document name");
  Expect(renamed.find("> 1997") != std::string::npos, "varied constant");
  Expect(renamed.find("$a1") == std::string::npos &&
             renamed.find("$c0r9_a1") != std::string::npos,
         "every variable renamed");
}

void CheckOutputCheck() {
  nalq::engine::Engine engine;
  nalq::datagen::BibOptions bib;
  bib.books = 40;
  engine.AddDocument("bib.xml", nalq::datagen::GenerateBib(bib));
  engine.RegisterDtd("bib.xml", nalq::datagen::kBibDtd);
  const std::string text = Instantiate(AllShapes()[ShapeIndex("Q1")], "", 0, "");
  const OutputKey key{ShapeIndex("Q1"), -1, 0};
  auto reference = [&](const OutputKey&) -> OutputId {
    const nalq::engine::RunResult ref = engine.RunQuery(
        text, nalq::engine::ExecMode::kMaterializing,
        nalq::engine::PathMode::kIndexed, 0, 0,
        nalq::engine::PlanChoice::kRulePriority);
    return {Digest(ref.output), ref.output.size()};
  };
  std::string output = engine.RunQuery(text).output;
  const OutputId good{Digest(output), output.size()};
  Expect(!output.empty(), "Q1 produces output");
  Expect(CountMismatches({{key, good}, {key, good}}, reference) == 0,
         "identical responses pass");
  output[output.size() / 2] ^= 0x20;
  const OutputId corrupted{Digest(output), output.size()};
  Expect(CountMismatches({{key, good}, {key, corrupted}}, reference) == 1,
         "one corrupted response is caught");
  Expect(CountMismatches({{key, {good.first, good.second + 1}}}, reference) == 1,
         "a truncated or padded response is caught");
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  CheckArithmetic();
  CheckStreams();
  CheckOutputCheck();
  return failures;
}

}  // namespace perfbench
