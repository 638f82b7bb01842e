// Workload scale-set: the clearinghouse batch at paper shape.
//
// bench_scale's corpus — its generator seed, 31 networks, Zipf-skewed
// sizes mixing backbone and enterprise profiles — at kDefaultScale,
// spilled to disk before anything is timed. --seed sets the 31 salts; the
// corpus itself stays bench_scale's, because the pair audit's cost per
// line differs by about 20% between generated networks of equal size and
// the largest network dominates it. One timed pass is the whole batch
// path:
//
//   ingest       util::ReadFileContents for every file
//   anonymize    pipeline::AnonymizeNetworkSet at `threads` (hooks off)
//   lint + leak  audit::LintCorpus and core::LeakDetector::Scan per network
//   emit         util::BufferedWriter for every output file
//
// An untimed warm-up pass comes first; the pair audit, the leak scan and
// the lint check its output. Batch passes then repeat until the window
// closes. The rates come from the fast passes (FastRate); every other
// metric is the median over its samples.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "audit/audit.h"
#include "checks.h"
#include "common.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"
#include "util/io.h"

namespace perfbench {

namespace core = confanon::core;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kCorpusSeed = 765531;  // bench_scale's
constexpr int kNetworks = 31;
// bench_scale's default: 1897 routers, 218k lines. At 0.1 the 31
// per-network context builds inside AnonymizeNetworkSet took most of a
// pass, so the batch figure mostly measured set-up (see README.md).
constexpr double kDefaultScale = 0.25;
constexpr int kDefaultThreads = 4;

struct Network {
  std::vector<config::ConfigFile> files;  // pre corpus, in memory
  std::vector<std::string> paths;         // the same files spilled
  std::string salt;
};

/// Removes the run's scratch directory on every way out of the run.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct PassOutput {
  bool complete = false;  // false after an I/O error
  std::vector<confanon::pipeline::NetworkOutput> results;
  /// "network/file" of every file with an error-severity lint finding,
  /// and the findings themselves.
  std::set<std::string> lint_bad;
  std::vector<std::string> lint_findings;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double seconds = 0.0;
  double ingest_s = 0.0, anonymize_s = 0.0, lint_s = 0.0, leak_s = 0.0,
         emit_s = 0.0;
  std::string digest;
};

bool WriteFile(confanon::util::BufferedWriter& writer, const std::string& path,
               const config::ConfigFile& file) {
  std::string error;
  if (!writer.Open(path, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  file.AppendTo(writer);
  if (!writer.Close()) {
    std::fprintf(stderr, "perfbench: %s\n", writer.error().c_str());
    return false;
  }
  return true;
}

/// One pass of the batch path. `hooks` is empty for untraced passes;
/// `spans` and `layers` are null for them.
PassOutput RunPass(const std::vector<Network>& networks,
                   core::ServiceContext& set_context,
                   const confanon::obs::Hooks& hooks, const fs::path& root,
                   int threads, SpanRecorder* spans, LayerMetrics* layers) {
  PassOutput out;
  set_context.install_hooks(hooks);
  const auto start = Clock::now();
  ScopedSpan pass_span(spans, "pass");
  // Times one step of the pass and records it as a child span.
  const auto step = [&](const char* name, double& seconds, auto&& body) {
    const std::int64_t begin = NowNs();
    const bool ok = body();
    const std::int64_t end = NowNs();
    seconds += static_cast<double>(end - begin) / 1e9;
    if (spans != nullptr) spans->Add(name, pass_span.id(), begin, end);
    return ok;
  };

  std::vector<confanon::pipeline::NetworkTask> tasks(networks.size());
  const bool ingested = step("io.ingest", out.ingest_s, [&] {
    for (std::size_t i = 0; i < networks.size(); ++i) {
      tasks[i].options.base.salt = networks[i].salt;
      for (const std::string& path : networks[i].paths) {
        std::string error;
        auto contents = confanon::util::ReadFileContents(path, &error);
        if (!contents) {
          std::fprintf(stderr, "perfbench: %s\n", error.c_str());
          return false;
        }
        out.bytes_read += contents->view.size();
        tasks[i].files.push_back(config::ConfigFile::FromBacking(
            fs::path(path).stem().string(), contents->view,
            std::move(contents->backing)));
      }
    }
    return true;
  });
  if (!ingested) return out;

  step("pipeline.anonymize_set", out.anonymize_s, [&] {
    out.results = confanon::pipeline::AnonymizeNetworkSet(tasks, set_context);
    return true;
  });

  confanon::audit::AuditOptions lint_options;
  lint_options.threads = threads;
  lint_options.metrics = hooks.metrics;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const auto& result = out.results[i];
    step("audit.lint", out.lint_s, [&] {
      const auto lint = confanon::audit::LintCorpus(result.files, lint_options);
      for (const auto& finding : lint.findings) {
        if (finding.severity != confanon::audit::Severity::kError) continue;
        out.lint_bad.insert(std::to_string(i) + "/" + finding.anchor.file);
        out.lint_findings.push_back("network " + std::to_string(i) + ": " +
                                    finding.ToString());
      }
      return true;
    });
    // Its findings are checked once, on the warm-up pass (CheckOutputs).
    step("leak.scan", out.leak_s, [&] {
      (void)core::LeakDetector::Scan(result.files, result.leak_record,
                                     hooks.metrics);
      return true;
    });
  }

  confanon::util::BufferedWriter writer;
  const bool emitted = step("io.emit", out.emit_s, [&] {
    for (std::size_t i = 0; i < out.results.size(); ++i) {
      const fs::path dir = root / ("out-" + std::to_string(i));
      for (const auto& file : out.results[i].files) {
        if (!WriteFile(writer, (dir / (file.name() + ".cfg")).string(),
                       file)) {
          return false;
        }
      }
    }
    return true;
  });
  if (!emitted) return out;
  out.bytes_written = writer.bytes_written();
  out.seconds = SecondsSince(start);

  Digest digest;
  for (const auto& result : out.results) digest.AddFiles(result.files);
  out.digest = digest.Hex();
  if (layers != nullptr && hooks.profiler != nullptr) {
    layers->AddPipelinePass(hooks.profiler->Finish(), out.anonymize_s,
                            threads);
  }
  out.complete = true;
  return out;
}

}  // namespace

RunResult RunScaleSet(const Options& options, SpanRecorder& spans) {
  RunResult result;
  const int threads = options.threads > 0 ? options.threads : kDefaultThreads;
  const double scale = options.scale > 0 ? options.scale : kDefaultScale;

  // --- inputs (outside every timed window) ---
  confanon::gen::GeneratorParams params;
  params.seed = kCorpusSeed;
  const auto corpus = confanon::gen::GenerateCorpus(
      params, kNetworks, static_cast<int>(7655 * scale));
  const ScratchDir root{fs::path(options.work_dir) /
                        ("scale-set-" + std::to_string(options.seed) + "-" +
                         std::to_string(::getpid()))};
  std::vector<Network> networks(corpus.size());
  std::size_t lines = 0;
  std::size_t files = 0;
  confanon::util::BufferedWriter spill;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Network& network = networks[i];
    network.salt = "bench-" + std::to_string(options.seed) + "-" +
                   std::to_string(i);
    network.files = confanon::gen::WriteNetworkConfigs(corpus[i]);
    const fs::path in_dir = root.path / ("in-" + std::to_string(i));
    fs::create_directories(in_dir);
    fs::create_directories(root.path / ("out-" + std::to_string(i)));
    for (const auto& file : network.files) {
      network.paths.push_back((in_dir / (file.name() + ".cfg")).string());
      if (!WriteFile(spill, network.paths.back(), file)) {
        result.correct = false;
        return result;
      }
    }
    lines += CountLines(network.files);
    files += network.files.size();
  }
  result.input_summary = std::to_string(networks.size()) + " networks, " +
                         std::to_string(files) + " files, " +
                         std::to_string(lines) + " lines, " +
                         std::to_string(threads) + " threads";

  // --- set-up: ServiceOptions to a ready session, once now and again
  // between the timed passes. The first context serves every pass. ---
  std::shared_ptr<core::ServiceContext> set_context;
  std::vector<double> build_s, session_s;
  SetupSampler setups([&] {
    core::ServiceOptions set_options;
    set_options.threads = threads;
    const auto start = Clock::now();
    auto context =
        confanon::pipeline::MakeServiceContext(std::move(set_options));
    build_s.push_back(SecondsSince(start));
    const auto session_start = Clock::now();
    const auto session = context->CreateSession("bench-setup");
    session_s.push_back(SecondsSince(session_start));
    if (set_context == nullptr) set_context = std::move(context);
  });
  setups.KeepPace(0.0);

  // --- warm-up pass (untimed) and the checks on its output ---
  const PassOutput first = RunPass(networks, *set_context, {}, root.path,
                                   threads, nullptr, nullptr);
  if (!first.complete) {
    result.correct = false;
    return result;
  }
  // The footprint of one batch run, as a CLI pays it: the inputs plus
  // one pass. Later the checks' pair audits and the allocator's drift
  // over many 4-thread passes add about 15%, part of which varies from
  // run to run.
  const double pass_rss_mb = PeakRssMb();
  std::set<std::string> bad = first.lint_bad;
  result.failures = first.lint_findings;
  double pair_s = 0.0;
  for (std::size_t i = 0; i < networks.size(); ++i) {
    const CheckOutcome check = CheckOutputs(
        "network " + std::to_string(i), networks[i].files,
        first.results[i].files, first.results[i].leak_record, threads);
    pair_s += check.pair_s;
    for (const std::string& file : check.bad_files) {
      bad.insert(std::to_string(i) + "/" + file);
    }
    result.failures.insert(result.failures.end(), check.findings.begin(),
                           check.findings.end());
  }

  // --- timed window. Trace runs alternate untraced and traced passes so
  // obs.overhead_pct compares like with like; plain runs are all
  // untraced. ---
  LayerMetrics layers;
  confanon::obs::MetricsRegistry registry;
  std::vector<double> untraced_s, traced_s, anonymize_s;
  std::vector<double> ingest_s, lint_s, leak_s, emit_s;
  const auto window_start = Clock::now();
  for (int pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    confanon::obs::PhaseProfiler::Options profiler_options;
    profiler_options.enable_perf_counters = false;
    confanon::obs::PhaseProfiler profiler(profiler_options);
    confanon::obs::Hooks hooks;
    if (traced) {
      hooks.metrics = &registry;
      hooks.profiler = &profiler;
    }
    const PassOutput out =
        RunPass(networks, *set_context, hooks, root.path, threads,
                traced ? &spans : nullptr, traced ? &layers : nullptr);
    if (!out.complete) {
      result.correct = false;
      return result;
    }
    if (traced) {
      traced_s.push_back(out.seconds);
      ingest_s.push_back(out.ingest_s);
      lint_s.push_back(out.lint_s);
      leak_s.push_back(out.leak_s);
      emit_s.push_back(out.emit_s);
      layers.Set("io.bytes_read", static_cast<double>(out.bytes_read));
      layers.Set("io.bytes_written", static_cast<double>(out.bytes_written));
    } else {
      untraced_s.push_back(out.seconds);
      anonymize_s.push_back(out.anonymize_s);
    }
    if (out.digest != first.digest) {
      std::fprintf(stderr, "perfbench: pass %d digest %s differs from %s\n",
                   pass, out.digest.c_str(), first.digest.c_str());
      result.correct = false;
    }

    setups.KeepPace(SecondsSince(window_start) / options.seconds);
    const bool done_window = SecondsSince(window_start) >= options.seconds;
    const bool done_passes =
        options.max_passes > 0 && pass + 1 >= options.max_passes;
    const bool paired = !options.trace || pass % 2 == 1;
    if ((done_window || done_passes) && paired) break;
  }

  setups.Finish();
  const std::vector<double>& setup_s = setups.seconds();
  // Every pass reproduces the checked output (same digest), so each file
  // counts once whatever the number of passes.
  result.attempted = files;
  result.failed = bad.size();
  result.digest = first.digest;

  const auto per_second = [&](const std::vector<double>& seconds) {
    std::vector<double> rates;
    for (const double s : seconds) {
      rates.push_back(static_cast<double>(lines) / s);
    }
    return rates;
  };
  const std::vector<double> batch_lps = per_second(untraced_s);
  const std::vector<double> anonymize_lps = per_second(anonymize_s);
  const double failed_frac = static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted);

  result.AddRow("setup_s", "s", setup_s);
  result.AddRow("peak_rss_mb", "MB", {pass_rss_mb});
  result.AddRow("failed_frac", "ratio", {failed_frac});
  result.AddRow("batch_lines_per_s", "lines/s", batch_lps, true);
  result.AddRow("anonymize_lines_per_s", "lines/s", anonymize_lps, true);
  result.AddRow("lint_error_files", "count",
                {static_cast<double>(first.lint_bad.size())});

  if (!options.trace) {
    result.AddMetric("setup_s", "s", Median(setup_s));
    result.AddMetric("peak_rss_mb", "MB", pass_rss_mb);
    result.AddMetric("lines_per_s", "lines/s",
                     FastRate(static_cast<double>(lines), untraced_s));
    result.AddMetric("anonymize_lines_per_s", "lines/s",
                     FastRate(static_cast<double>(lines), anonymize_s));
    return result;
  }
  // The set context's build. The per-network builds inside
  // AnonymizeNetworkSet have no public counter or timer; their cost shows
  // in pipeline.unattributed_s.
  layers.Set("verify.context_build_s", Median(build_s));
  layers.Set("core.session_create_s", Median(session_s));
  layers.Set("io.ingest_s", Median(ingest_s));
  layers.Set("io.emit_s", Median(emit_s));
  layers.Set("audit.lint_s", Median(lint_s));
  layers.Set("leak.scan_s", Median(leak_s));
  layers.Set("audit.pair_s", pair_s);  // the check, at `threads`
  layers.AddRegistry(registry.Snapshot(),
                     static_cast<double>(traced_s.size()));
  layers.Set("obs.overhead_pct",
             (Median(traced_s) / Median(untraced_s) - 1.0) * 100.0);
  layers.Set("run.failed_frac", failed_frac);
  layers.EmitTo(result);
  return result;
}

}  // namespace perfbench
