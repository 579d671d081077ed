// Mutation fuzzer over query text. Each of the paper's six queries (Sec. 5)
// seeds 500 mutants; a mutant is the seed with one to three token edits
// (deletion, duplication, replacement by another seed token, or a swap of
// two tokens), drawn from a fixed-seed generator. Every mutant runs through
// QueryService::Execute over tiny documents, with a deadline, on one of the
// three executors in turn. The contract under test is the service's:
// every call returns, either ok or with a structured error, and no spool
// directory is left behind. A mutant that crashes the process fails the
// suite; the test's seed-query index and kFuzzSeed reproduce it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "service/query_service.h"

namespace nalq {
namespace {

// The paper's six queries (Sec. 5), verbatim from tests/e2e_queries_test.cpp.
const char* const kSeeds[] = {
    R"(
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
      </author>
  )",
    R"(
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
      <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>
  )",
    R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )",
    R"(
    let $d1 := doc("bib.xml")
    for $b1 in $d1//book,
        $a1 in $b1/author
    where exists(
      for $b2 in $d1//book
      for $a2 in $b2/author
      where contains($a2, "Suciu") and $b1 = $b2
      return $b2)
    return
      <book>{ $a1 }</book>
  )",
    R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )",
    R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )",
};

constexpr uint64_t kFuzzSeed = 1;
constexpr int kMutantsPerSeed = 500;
/// Bounds each mutant's queue wait plus run; tiny documents finish far
/// sooner, so only a runaway plan meets it.
constexpr uint64_t kDeadlineMs = 5000;

/// A token and the whitespace before it. Mutants keep each token's own
/// leading whitespace, so untouched element constructors stay well formed.
struct Token {
  std::string space;
  std::string text;
};

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || c == '.';
}

/// Names and variables, string literals, the two-character operators, and
/// single punctuation characters. Trailing whitespace becomes a last token
/// with empty text, so joining the tokens gives back the text.
std::vector<Token> Tokenize(std::string_view q) {
  static const std::string_view kPairs[] = {"//", ":=", "<=", ">=",
                                            "!=", "</", "/>"};
  std::vector<Token> out;
  size_t i = 0;
  while (i < q.size()) {
    Token t;
    while (i < q.size() && std::isspace(static_cast<unsigned char>(q[i]))) {
      t.space += q[i++];
    }
    const size_t start = i;
    if (i == q.size()) {
      // Trailing whitespace only.
    } else if (q[i] == '$' || IsNameChar(q[i])) {
      ++i;
      while (i < q.size() && IsNameChar(q[i])) ++i;
    } else if (q[i] == '"') {
      const size_t close = q.find('"', i + 1);
      i = close == std::string_view::npos ? q.size() : close + 1;
    } else {
      ++i;
      for (std::string_view pair : kPairs) {
        if (q.substr(start, 2) == pair) i = start + 2;
      }
    }
    t.text = std::string(q.substr(start, i - start));
    out.push_back(std::move(t));
  }
  return out;
}

std::string Join(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) out += t.space + t.text;
  return out;
}

/// One to three token edits of `seed`. Draws with `rng() % n` (not a
/// distribution), so a mutant depends on the generator alone.
std::string Mutate(std::vector<Token> tokens,
                   const std::vector<std::string>& dictionary,
                   std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !tokens.empty(); ++e) {
    const size_t i = rng() % tokens.size();
    switch (rng() % 4) {
      case 0:
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 1:
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i),
                      tokens[i]);
        break;
      case 2:
        tokens[i].text = dictionary[rng() % dictionary.size()];
        break;
      default:
        std::swap(tokens[i].text, tokens[rng() % tokens.size()].text);
        break;
    }
  }
  return Join(tokens);
}

void LoadDocuments(engine::Engine* engine, size_t n) {
  datagen::BibOptions bib;
  bib.books = n;
  bib.authors_per_book = 3;
  engine->AddDocument("bib.xml", datagen::GenerateBib(bib));
  engine->RegisterDtd("bib.xml", datagen::kBibDtd);
  engine->AddDocument("reviews.xml", datagen::GenerateReviews(n));
  engine->RegisterDtd("reviews.xml", datagen::kReviewsDtd);
  engine->AddDocument("prices.xml", datagen::GeneratePrices(n));
  engine->RegisterDtd("prices.xml", datagen::kPricesDtd);
  datagen::AuctionOptions auction;
  auction.bids = n + n / 2;
  engine->AddDocument("bids.xml", datagen::GenerateBids(auction));
  engine->RegisterDtd("bids.xml", datagen::kBidsDtd);
}

/// Spool directories of this process under the system temp dir (the probe
/// tests/service_test.cpp uses).
std::set<std::string> SpoolDirsInTemp() {
  std::set<std::string> dirs;
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) return dirs;
  const std::string prefix = "nalq-spool-" + std::to_string(getpid()) + "-";
  for (const auto& entry : std::filesystem::directory_iterator(base, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      dirs.insert(entry.path().string());
    }
  }
  return dirs;
}

uint64_t Count(service::QueryService& svc, const char* name) {
  return svc.metrics().GetCounter(name).value();
}

TEST(QueryFuzzTest, TokenizerRoundTrips) {
  for (const char* seed : kSeeds) EXPECT_EQ(Join(Tokenize(seed)), seed);
}

class QueryMutantTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryMutantTest, EveryMutantReturnsOkOrStructuredError) {
  engine::Engine engine;
  LoadDocuments(&engine, 5);
  const std::set<std::string> dirs_before = SpoolDirsInTemp();
  service::QueryService svc(engine);

  std::vector<std::string> dictionary;
  {
    std::set<std::string> seen;
    for (const char* seed : kSeeds) {
      for (const Token& t : Tokenize(seed)) {
        if (!t.text.empty() && seen.insert(t.text).second) {
          dictionary.push_back(t.text);
        }
      }
    }
  }
  const std::vector<Token> seed = Tokenize(kSeeds[GetParam()]);
  // The harness itself works: the unmutated seed runs.
  service::QueryResult original = svc.Execute(Join(seed));
  ASSERT_TRUE(original.ok) << original.error_what;

  const engine::ExecMode modes[] = {engine::ExecMode::kStreaming,
                                    engine::ExecMode::kMaterializing,
                                    engine::ExecMode::kParallel};
  std::mt19937_64 rng(kFuzzSeed * 16 + static_cast<uint64_t>(GetParam()));
  for (int m = 0; m < kMutantsPerSeed; ++m) {
    const std::string text = Mutate(seed, dictionary, rng);
    service::QueryOptions qo;
    qo.mode = modes[m % 3];
    qo.threads = 2;
    qo.deadline_ms = kDeadlineMs;
    service::QueryResult r = svc.Execute(text, qo);
    if (!r.ok) {
      EXPECT_FALSE(r.error_what.empty()) << text;
      EXPECT_NE(r.error_code, engine::ErrorCode::kAdmissionRejected) << text;
    }
  }
  svc.Drain();
  const uint64_t submitted = Count(svc, "nalq_queries_submitted_total");
  EXPECT_EQ(submitted, static_cast<uint64_t>(kMutantsPerSeed) + 1);
  EXPECT_EQ(Count(svc, "nalq_queries_completed_total") +
                Count(svc, "nalq_queries_failed_total") +
                Count(svc, "nalq_queries_deadline_expired_total"),
            submitted);
  EXPECT_EQ(SpoolDirsInTemp(), dirs_before);
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, QueryMutantTest, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param + 1);
                         });

}  // namespace
}  // namespace nalq
