// Figure 6 — sizes of the generated input documents — and the in-memory
// layout of the benchmark-sized documents.
//
// The paper's Fig. 6 lists the serialized sizes of the six use-case
// documents at 100/1000/10000 elements (and 2/5/10 authors per book for
// bib.xml). This bench prints the same table for our ToXgene-substitute
// generator; the sizes land in the same order of magnitude (see
// EXPERIMENTS.md for the side-by-side numbers).
//
// The second table measures xml::Document (xml/node.h) on the five
// perfbench-sized documents (bib, reviews, prices and bids at 10,000
// elements, DBLP at 50,000 publications), the documents of the
// service-spill workload:
//   - heap bytes per node right after ParseDocument, from mallinfo2 with
//     mmapped chunks included, before the atom table is sized (growth
//     slack of the arrays included);
//   - heap bytes per node once a Store holds the document (arrays trimmed),
//     less the atom table's 8-byte slot per node;
//   - the residency charge per node (StoreCodec::ApproxResidentBytes);
//   - parse time, and fault-in time from a persisted store (medians of
//     five runs).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "storage/persistent_store.h"
#include "xml/parser.h"
#include "xml/store.h"

namespace {

namespace datagen = nalq::datagen;
namespace storage = nalq::storage;
namespace xml = nalq::xml;

std::string FormatBytes(size_t bytes) {
  char buf[64];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f MB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KB",
                  static_cast<double>(bytes) / 1024.0);
  }
  return buf;
}

/// Bytes the allocator has handed out, mmapped chunks included.
size_t HeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
}

double MedianMs(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

struct Layout {
  size_t nodes = 0;
  double parsed_per_node = 0;
  double stored_per_node = 0;
  double charged_per_node = 0;
  double parse_ms = 0;
  double fault_in_ms = 0;
};

Layout MeasureLayout(const std::string& name, const std::string& text,
                     const std::filesystem::path& dir) {
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  constexpr int kRuns = 5;
  Layout out;
  std::vector<double> parse_ms;
  for (int run = 0; run < kRuns; ++run) {
    const size_t before = HeapBytes();
    const auto start = Clock::now();
    xml::Document doc = xml::ParseDocument(name, text);
    parse_ms.push_back(ms_since(start));
    if (run > 0) continue;
    out.nodes = doc.node_count();
    const auto nodes = static_cast<double>(out.nodes);
    out.parsed_per_node = static_cast<double>(HeapBytes() - before) / nodes;
    out.charged_per_node =
        static_cast<double>(storage::StoreCodec::ApproxResidentBytes(doc)) /
        nodes;
    xml::Store store;
    store.AddDocument(std::move(doc));  // trims the arrays, sizes the atoms
    out.stored_per_node =
        static_cast<double>(HeapBytes() - before) / nodes - sizeof(void*);
    storage::Persist(store, dir.string());
  }
  out.parse_ms = MedianMs(parse_ms);
  std::vector<double> fault_in_ms;
  for (int run = 0; run < kRuns; ++run) {
    xml::Store store;
    store.AttachSource(storage::PersistentStore::Open(dir.string()));
    const auto start = Clock::now();
    store.document(0);
    fault_in_ms.push_back(ms_since(start));
  }
  out.fault_in_ms = MedianMs(fault_in_ms);
  std::filesystem::remove_all(dir);
  return out;
}

void PrintLayoutTable() {
  datagen::BibOptions bib;
  bib.books = 10000;
  bib.authors_per_book = 2;
  datagen::AuctionOptions bids;
  bids.bids = 10000;
  datagen::DblpOptions dblp;
  dblp.publications = 50000;
  const std::pair<std::string, std::string> docs[] = {
      {"bib.xml", datagen::GenerateBib(bib)},
      {"reviews.xml", datagen::GenerateReviews(10000)},
      {"prices.xml", datagen::GeneratePrices(10000)},
      {"bids.xml", datagen::GenerateBids(bids)},
      {"dblp.xml", datagen::GenerateDblp(dblp)}};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("nalq_bench_docsizes_" + std::to_string(::getpid()));
  std::printf(
      "\nDocument layout (xml/node.h): heap bytes per node after the parse "
      "and once stored,\nthe residency charge, parse and fault-in time "
      "(medians of 5)\n");
  std::printf("%-12s %10s %8s %8s %8s %8s %9s %9s\n", "document", "XML text",
              "nodes", "parsed", "stored", "charged", "parse ms",
              "fault ms");
  double parse_total = 0;
  double fault_total = 0;
  for (const auto& [name, text] : docs) {
    const Layout l = MeasureLayout(name, text, dir);
    parse_total += l.parse_ms;
    fault_total += l.fault_in_ms;
    std::printf("%-12s %10s %8zu %8.1f %8.1f %8.1f %9.2f %9.2f\n",
                name.c_str(), FormatBytes(text.size()).c_str(), l.nodes,
                l.parsed_per_node, l.stored_per_node, l.charged_per_node,
                l.parse_ms, l.fault_in_ms);
  }
  std::printf("%-12s %10s %8s %8s %8s %8s %9.2f %9.2f\n", "all five", "", "",
              "", "", "", parse_total, fault_total);
}

}  // namespace

int main() {
  using namespace nalq;
  const std::vector<size_t> sizes = {100, 1000, 10000};
  std::printf("F6: generated input document sizes (paper Fig. 6)\n");

  std::vector<bench::Row> rows;
  for (int apb : {2, 5, 10}) {
    bench::Row row;
    row.plan = "bib.xml";
    row.parameter = std::to_string(apb) + " authors/book";
    for (size_t size : sizes) {
      datagen::BibOptions options;
      options.books = size;
      options.authors_per_book = apb;
      row.cells.push_back(FormatBytes(datagen::GenerateBib(options).size()));
    }
    rows.push_back(row);
  }
  {
    bench::Row row;
    row.plan = "prices.xml";
    for (size_t size : sizes) {
      row.cells.push_back(FormatBytes(datagen::GeneratePrices(size).size()));
    }
    rows.push_back(row);
  }
  {
    bench::Row row;
    row.plan = "reviews.xml";
    for (size_t size : sizes) {
      row.cells.push_back(FormatBytes(datagen::GenerateReviews(size).size()));
    }
    rows.push_back(row);
  }
  for (const char* which : {"bids", "items", "users"}) {
    bench::Row row;
    row.plan = std::string(which) + ".xml";
    for (size_t size : sizes) {
      datagen::AuctionOptions options;
      options.bids = size;
      std::string doc = std::string(which) == "bids"
                            ? datagen::GenerateBids(options)
                        : std::string(which) == "items"
                            ? datagen::GenerateItems(options)
                            : datagen::GenerateUsers(options);
      row.cells.push_back(FormatBytes(doc.size()));
    }
    rows.push_back(row);
  }
  bench::PrintTable("Serialized size (elements = 100 / 1000 / 10000)",
                    "variant", {"100", "1000", "10000"}, rows);
  PrintLayoutTable();
  return 0;
}
