// nalq_perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics; the last line of standard output is one JSON object.
//
//   nalq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//   nalq_perfbench --selftest
//
// perfbench/run.py builds this binary and is the command to use.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: nalq_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] | --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = perfbench::RunSelfTest();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("no --workload");

  perfbench::Report report;
  try {
    report = perfbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-34s %16s %s\n", m.name.c_str(),
                perfbench::NumberText(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            perfbench::NumberText(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 ? 0 : 1;
}
