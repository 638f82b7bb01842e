// Workload network-t1: one large mixed IOS/JunOS network, in memory, at
// one thread.
//
// The corpus has gen_corpus --mixed's shape: one generated network whose
// routers alternate between the IOS and the JunOS writer, kept in memory
// with one file per router: routers are taken in generator order until
// kTargetLines is reached. The network's structure comes from a fixed
// generator seed and --seed sets the salt: at equal size, the pair
// audit's cost per line differs by about 20% between generated networks,
// which would swamp the metric's bound. Set-up — one context and one session — is timed
// on its own, and one untimed pass of each kind warms the process-wide
// memos before the window; that first pair audit is the workload's
// correctness check. The window repeats a cycle of
//
//   anonymize  CorpusPipeline::AnonymizeCorpus at 1 thread on a fresh
//              session per pass (hooks off), kAnonymizePerAudit times
//   pair audit audit::ComparePair(pre, post) at 1 thread, once
//
// No I/O, no scheduler: the per-line engine owns anonymize_lines_per_s and
// the canonicalizer and pair matcher own audit_pair_lines_per_s. Each pass
// runs on the next CPU (CpuRotation) and the gated rates come from the
// fast passes (FastRate).
#include <cstdint>
#include <memory>

#include "audit/audit.h"
#include "checks.h"
#include "common.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"

namespace perfbench {

namespace core = confanon::core;

namespace {

constexpr std::uint64_t kNetworkSeed = 1;
constexpr int kSourceRouters = 600;
constexpr std::size_t kTargetLines = 80000;
/// Anonymize passes per pair audit in the window: the pair audit is
/// about seven times slower per pass, so this gives it two thirds.
constexpr int kAnonymizePerAudit = 3;

std::vector<config::ConfigFile> MixedNetwork(std::uint64_t seed,
                                             int routers,
                                             std::size_t target_lines) {
  confanon::gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  const confanon::gen::NetworkSpec network =
      confanon::gen::GenerateNetwork(params, 0);
  std::vector<config::ConfigFile> files;
  std::size_t lines = 0;
  for (std::size_t i = 0; i < network.routers.size() && lines < target_lines;
       ++i) {
    files.push_back(
        i % 2 == 1
            ? confanon::junos::WriteJunosConfig(network.routers[i], network)
            : confanon::gen::WriteConfig(network.routers[i], network));
    lines += files.back().LineCount();
  }
  return files;
}

}  // namespace

RunResult RunNetworkT1(const Options& options, SpanRecorder& spans) {
  RunResult result;
  // --routers (self-tests) takes that many routers, whatever their size.
  const std::vector<config::ConfigFile> pre =
      options.routers > 0
          ? MixedNetwork(kNetworkSeed, options.routers, SIZE_MAX)
          : MixedNetwork(kNetworkSeed, kSourceRouters, kTargetLines);
  const std::size_t lines = CountLines(pre);
  const std::string salt = "bench-" + std::to_string(options.seed);
  result.input_summary = "1 mixed network, " + std::to_string(pre.size()) +
                         " files, " + std::to_string(lines) +
                         " lines, 1 thread";

  // --- set-up: ServiceOptions to a ready session, once now and again
  // between the timed passes. The first context serves every pass. ---
  std::shared_ptr<core::ServiceContext> context;
  std::vector<double> build_s, session_s;
  SetupSampler setups([&] {
    core::ServiceOptions service_options;
    service_options.threads = 1;
    const auto start = Clock::now();
    auto built =
        confanon::pipeline::MakeServiceContext(std::move(service_options));
    build_s.push_back(SecondsSince(start));
    const auto session_start = Clock::now();
    const auto session = built->CreateSession(salt);
    session_s.push_back(SecondsSince(session_start));
    if (context == nullptr) context = std::move(built);
  });
  setups.KeepPace(0.0);

  // --- warm-up (untimed): process-wide memos, allocator, caches ---
  std::vector<config::ConfigFile> post;
  confanon::core::LeakRecord leaks;
  {
    confanon::pipeline::CorpusPipeline pipeline(context,
                                                context->CreateSession(salt));
    post = pipeline.AnonymizeCorpus(pre);
    leaks = pipeline.leak_record();
  }
  Digest digest;
  digest.AddFiles(post);
  // The first pair audit is the workload's correctness check.
  const CheckOutcome check =
      CheckOutputs("network-t1", pre, post, leaks, /*threads=*/1);

  // --- window: cycles of kAnonymizePerAudit anonymize passes (fresh
  // session each) and one pair audit, so both sample the whole window ---
  LayerMetrics layers;
  confanon::obs::MetricsRegistry registry;
  std::vector<double> untraced_s, traced_s, pair_s;
  confanon::audit::AuditOptions one_thread;
  one_thread.threads = 1;
  CpuRotation cpus;  // each pass, and the pair audit after it, on the next CPU
  const auto window_start = Clock::now();
  for (int pass = 0;; ++pass) {
    // Set-ups run between passes, outside the pass span.
    setups.KeepPace(SecondsSince(window_start) / options.seconds);
    cpus.PinNext();
    const bool traced = options.trace && pass % 2 == 1;
    confanon::obs::PhaseProfiler::Options profiler_options;
    profiler_options.enable_perf_counters = false;
    confanon::obs::PhaseProfiler profiler(profiler_options);
    confanon::obs::Hooks hooks;
    if (traced) {
      hooks.metrics = &registry;
      hooks.profiler = &profiler;
    }
    const auto session_start = Clock::now();
    const auto session = context->CreateSession(salt);
    session_s.push_back(SecondsSince(session_start));
    confanon::pipeline::CorpusPipeline pipeline(context, session);
    pipeline.install_hooks(hooks);

    ScopedSpan pass_span(traced ? &spans : nullptr, "pass");
    const std::int64_t start_ns = NowNs();
    std::vector<config::ConfigFile> out = pipeline.AnonymizeCorpus(pre);
    const std::int64_t end_ns = NowNs();
    const double seconds = static_cast<double>(end_ns - start_ns) / 1e9;
    (traced ? traced_s : untraced_s).push_back(seconds);
    if (traced) {
      spans.Add("pipeline.anonymize_corpus", pass_span.id(), start_ns,
                end_ns);
      layers.AddPipelinePass(profiler.Finish(), seconds, 1);
    }
    Digest pass_digest;
    pass_digest.AddFiles(out);
    if (pass_digest.Hex() != digest.Hex()) {
      std::fprintf(stderr, "perfbench: pass %d digest %s differs from %s\n",
                   pass, pass_digest.Hex().c_str(), digest.Hex().c_str());
      result.correct = false;
    }

    if (pass % kAnonymizePerAudit == kAnonymizePerAudit - 1) {
      ScopedSpan span(options.trace ? &spans : nullptr, "audit.pair");
      const auto start = Clock::now();
      const auto verdict = confanon::audit::ComparePair(pre, post, one_thread);
      pair_s.push_back(SecondsSince(start));
      if (verdict.ErrorCount() != check.pair_errors) {
        result.correct = false;  // the same inputs must give the same verdict
      }
    }
    const bool done_window = SecondsSince(window_start) >= options.seconds;
    const bool done_passes =
        options.max_passes > 0 && pass + 1 >= options.max_passes;
    const bool paired = !options.trace || pass % 2 == 1;
    if ((done_window || done_passes) && paired && !pair_s.empty()) break;
  }
  cpus.Unpin();
  setups.Finish();
  const std::vector<double>& setup_s = setups.seconds();

  result.digest = digest.Hex();
  result.failures = check.findings;
  // Every pass reproduces the checked output (same digest), so each file
  // counts once whatever the number of passes.
  result.attempted = pre.size();
  result.failed = check.bad_files.size();

  const double lines_d = static_cast<double>(lines);
  std::vector<double> anonymize_lps, pair_lps;
  for (const double s : untraced_s) anonymize_lps.push_back(lines_d / s);
  for (const double s : pair_s) pair_lps.push_back(lines_d / s);
  const double failed_frac = static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted);

  result.AddRow("setup_s", "s", setup_s);
  result.AddRow("peak_rss_mb", "MB", {PeakRssMb()});
  result.AddRow("failed_frac", "ratio", {failed_frac});
  result.AddRow("anonymize_lines_per_s", "lines/s", anonymize_lps, true);
  result.AddRow("audit_pair_lines_per_s", "lines/s", pair_lps, true);
  result.AddRow("leak_asn_matches", "count",
                {static_cast<double>(check.asn_matches)});

  if (!options.trace) {
    result.AddMetric("setup_s", "s", Median(setup_s));
    result.AddMetric("peak_rss_mb", "MB", PeakRssMb());
    // The whole in-memory path: anonymize, then verify.
    result.AddMetric("lines_per_s", "lines/s",
                     lines_d / (Percentile(untraced_s, kFastPercentile) +
                                Percentile(pair_s, kFastPercentile)));
    result.AddMetric("anonymize_lines_per_s", "lines/s",
                     FastRate(lines_d, untraced_s));
  } else {
    layers.Set("verify.context_build_s", Median(build_s));
    layers.Set("core.session_create_s", Median(session_s));
    layers.Set("audit.pair_s", Median(pair_s));
    layers.AddRegistry(registry.Snapshot(),
                       static_cast<double>(traced_s.size()));
    layers.Set("obs.overhead_pct",
               (Median(traced_s) / Median(untraced_s) - 1.0) * 100.0);
    layers.Set("run.failed_frac", failed_frac);
    layers.EmitTo(result);
  }
  return result;
}

}  // namespace perfbench
