// confanon_perfbench — the repository's end-to-end benchmark.
//
//   confanon_perfbench --workload scale-set|network-t1|daemon --seed N
//                      --seconds S --trace 0|1 [--work-dir DIR]
//                      [--spans-out FILE] [--threads N] [--scale F]
//                      [--routers N] [--max-passes N] [--strict 0|1]
//
// Inputs are generated from --seed only. The run prints a table with
// every metric's name, unit, median, highest supported percentile and
// sample count, the output digest, any failed check by name, and as its
// last line one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics (see layers.h). Exit status is 0 when
// the run-level checks hold, 1 when they do not, 2 on a usage error.
// Per-file and per-request check failures count in "failed"; with
// --strict 1 any of them also makes the run incorrect (exit 1).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: confanon_perfbench --workload "
               "scale-set|network-t1|daemon --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans-out FILE] "
               "[--threads N] [--scale F] [--routers N] "
               "[--max-passes N] [--strict 0|1]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      options.seed_given = end != value.c_str() && *end == '\0';
      if (!options.seed_given) return false;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (arg == "--strict") {
      if (value != "0" && value != "1") return false;
      options.strict = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else if (arg == "--threads") {
      options.threads = std::atoi(value.c_str());
    } else if (arg == "--scale") {
      options.scale = std::atof(value.c_str());
    } else if (arg == "--routers") {
      options.routers = std::atoi(value.c_str());
    } else if (arg == "--max-passes") {
      options.max_passes = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seed_given;
}

void PrintJsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::printf("%.9g", value);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, options)) return Usage();

  perfbench::SpanRecorder spans;
  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "scale-set") {
      result = perfbench::RunScaleSet(options, spans);
    } else if (options.workload == "network-t1") {
      result = perfbench::RunNetworkT1(options, spans);
    } else if (options.workload == "daemon") {
      result = perfbench::RunDaemon(options, spans);
    } else {
      return Usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              result.input_summary.c_str(), options.trace ? 1 : 0);
  std::printf("%-28s %-8s %14s %14s %6s %7s\n", "metric", "unit", "median",
              "tail", "at", "samples");
  for (const perfbench::Row& row : result.rows) {
    std::printf("%-28s %-8s %14.6g %14.6g %6s %7zu\n", row.name.c_str(),
                row.unit.c_str(), row.summary.median, row.summary.tail,
                row.summary.tail_label.c_str(), row.summary.count);
  }
  // The reported values, as in the JSON line: with --trace 0 the gated
  // rates are the fast passes' (FastRate), not the medians above.
  std::printf("reported:\n");
  for (const perfbench::Metric& metric : result.metrics) {
    std::printf("  %-30s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("digest %s\n", result.digest.c_str());
  std::printf("failed %llu of %llu attempted\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  constexpr std::size_t kShownFailures = 20;
  for (std::size_t i = 0;
       i < result.failures.size() && i < kShownFailures; ++i) {
    std::printf("FAILED %s\n", result.failures[i].c_str());
  }
  if (result.failures.size() > kShownFailures) {
    std::printf("FAILED ... and %zu more\n",
                result.failures.size() - kShownFailures);
  }
  if (!options.spans_out.empty() && !spans.WriteChromeTrace(options.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.spans_out.c_str());
    result.correct = false;
  }
  if (result.attempted == 0) result.correct = false;
  if (options.strict && result.failed > 0) result.correct = false;

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metric.name.c_str());
    PrintJsonNumber(metric.value);
    std::printf(", \"unit\": \"%s\"}", metric.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
