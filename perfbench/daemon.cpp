// Workload daemon: confanond in-process, driven over HTTP by an open-loop
// generator.
//
// Set-up mirrors confanond: ServiceOptions -> pipeline::MakeServiceContext
// with a metrics registry installed -> service::AnonymizationService ->
// obs::ExpositionServer (2 handler threads, bounded queue, 429 admission)
// -> Start(). The benchmark registers POST /v1/anonymize itself, around
// AnonymizationService::HandleAnonymize, so it can time the handler.
//
// Several generated mixed IOS/JunOS networks each become one tenant; an
// order drawn from --seed picks (tenant, config) for every request, and
// --seed also sets the daemon's base salt. The generator
// (loadgen.h; one thread, so client plus handler threads stay within four
// cores) sends single configs at a nominal fixed rate, then climbs a
// ladder of faster fixed rates until a step misses the p99 limit, fails a
// request or builds a backlog.
//
// Checks: every response is 200, every response for a config equals the
// first response for that config of that tenant (sessions are
// long-lived), each tenant's served configs pass the pair audit against
// their inputs, and the leak scan over them finds nothing.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "checks.h"
#include "common.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "layers.h"
#include "loadgen.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"
#include "service/service.h"

namespace perfbench {

namespace core = confanon::core;
namespace obs = confanon::obs;

namespace {

/// Tenant networks come from a fixed generator seed; --seed sets the
/// salt and the request order (see network_t1.cpp for why).
constexpr std::uint64_t kNetworkSeed = 1;
constexpr int kTenants = 4;
constexpr int kRoutersPerTenant = 40;
constexpr int kHandlerThreads = 2;
/// A handler call takes about 2 ms (service.handle_ms_p50), so the two
/// handlers serve about 1000 requests/s; the ladder sustained 675 to 1012
/// on a 4-core machine. The nominal rate is a fifth of that capacity:
/// little queueing, so its latencies measure the service time.
constexpr double kNominalRate = 200.0;
/// Ladder: each step offers kLadderFactor times the previous rate, for
/// kStepRequests requests (enough for a supported p99).
constexpr double kLadderFactor = 1.5;
constexpr std::size_t kStepRequests = 1000;
constexpr double kMaxRate = 6000.0;
/// 25 times the unloaded p50. A full admission queue (16 connections,
/// ExpositionServer's default, over two handlers at about 2 ms) adds
/// about 16 ms, so a p99 above the limit means requests wait beyond what
/// admission control allows. Sustained steps measured a p99 of 5 to 8 ms.
constexpr double kP99LimitMs = 50.0;
/// Request ids the handler timing table can hold (nominal + ladder +
/// traced phases stay far below this).
constexpr std::size_t kMaxRequestIds = 1 << 16;

struct Tenant {
  std::string name;
  std::vector<config::ConfigFile> files;
};

/// One request of the seeded order.
struct Pick {
  std::size_t tenant = 0;
  std::size_t file = 0;
};

/// The daemon as confanond builds it, plus the benchmark's handler timing.
class Daemon {
 public:
  /// `hooks_metrics` installs the registry (confanond always does);
  /// `profile` also installs a phase profiler (traced runs).
  Daemon(const std::string& salt, bool hooks_metrics, bool profile)
      : profiler_(ProfilerOptions()), handler_ns_(kMaxRequestIds, {0, 0}) {
    core::ServiceOptions options;
    options.base.salt = salt;
    options.threads = 1;
    const auto build_start = Clock::now();
    context_ = confanon::pipeline::MakeServiceContext(std::move(options));
    context_build_s_ = SecondsSince(build_start);
    obs::Hooks hooks;
    if (hooks_metrics) hooks.metrics = &registry_;
    if (profile) hooks.profiler = &profiler_;
    context_->install_hooks(hooks);
    service_ = std::make_unique<confanon::service::AnonymizationService>(
        context_);
    obs::ExpositionServer::Options server_options;
    server_options.handler_threads = kHandlerThreads;
    server_options.overload_status = 429;
    exporter_ = std::make_unique<obs::SnapshotExporter>(&registry_);
    server_ = std::make_unique<obs::ExpositionServer>(
        server_options,
        [this] { return obs::RenderPrometheus(exporter_->Capture()); });
    server_->AddRoute(
        "POST", "/v1/anonymize",
        [this](const obs::HttpRequest& request,
               obs::HttpResponseWriter& response) {
          const std::int64_t start = NowNs();
          service_->HandleAnonymize(request, response);
          const std::int64_t end = NowNs();
          const std::size_t id = std::strtoull(
              std::string(request.Header("x-bench-id")).c_str(), nullptr, 10);
          const std::lock_guard<std::mutex> lock(handler_mutex_);
          if (id < handler_ns_.size()) handler_ns_[id] = {start, end};
        });
    std::string error;
    if (!server_->Start(&error)) {
      throw std::runtime_error("daemon did not start: " + error);
    }
  }

  ~Daemon() {
    // ExpositionServer::Stop() stores its stop flag and notifies the
    // handler threads without holding their queue mutex, so a handler
    // that has not parked in its wait yet misses the wake-up and Stop()
    // never returns. Give the handlers time to park first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server_->Stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return server_->port(); }
  double context_build_s() const { return context_build_s_; }
  std::uint64_t rejected() const { return server_->rejected(); }
  confanon::service::AnonymizationService& service() { return *service_; }
  obs::MetricsRegistry& registry() { return registry_; }
  obs::PhaseProfiler& profiler() { return profiler_; }
  std::pair<std::int64_t, std::int64_t> handler_span(std::size_t id) {
    const std::lock_guard<std::mutex> lock(handler_mutex_);
    return handler_ns_[id];
  }

 private:
  static obs::PhaseProfiler::Options ProfilerOptions() {
    obs::PhaseProfiler::Options options;
    options.enable_perf_counters = false;
    return options;
  }

  obs::MetricsRegistry registry_;
  obs::PhaseProfiler profiler_;
  double context_build_s_ = 0.0;
  std::shared_ptr<core::ServiceContext> context_;
  std::unique_ptr<confanon::service::AnonymizationService> service_;
  std::unique_ptr<obs::SnapshotExporter> exporter_;
  std::unique_ptr<obs::ExpositionServer> server_;
  std::mutex handler_mutex_;
  std::vector<std::pair<std::int64_t, std::int64_t>> handler_ns_;
};

std::vector<Tenant> MakeTenants(std::uint64_t seed) {
  std::vector<Tenant> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    confanon::gen::GeneratorParams params;
    params.seed = seed;
    params.router_count = kRoutersPerTenant;
    params.profile = t % 2 == 0 ? confanon::gen::NetworkProfile::kBackbone
                                : confanon::gen::NetworkProfile::kEnterprise;
    const auto network = confanon::gen::GenerateNetwork(params, t);
    Tenant& tenant = tenants[static_cast<std::size_t>(t)];
    tenant.name = "tenant-" + std::to_string(t);
    for (std::size_t i = 0; i < network.routers.size(); ++i) {
      tenant.files.push_back(
          i % 2 == 1
              ? confanon::junos::WriteJunosConfig(network.routers[i], network)
              : confanon::gen::WriteConfig(network.routers[i], network));
    }
  }
  return tenants;
}

/// One phase of offered load: the requests sent, what came back (bodies
/// reduced to digests), and the handler span of each (by request id).
struct Phase {
  double rate = 0.0;
  std::vector<Pick> picks;
  std::vector<std::size_t> ids;
  std::vector<LoadResult> results;
  std::vector<std::string> body_digests;
  std::vector<std::pair<std::int64_t, std::int64_t>> handler;

  std::vector<double> LatenciesMs(bool ok_only) const {
    std::vector<double> out;
    for (const LoadResult& result : results) {
      // A failed request misses any latency limit.
      if (result.status == 200) {
        out.push_back(result.LatencyMs());
      } else if (!ok_only) {
        out.push_back(std::numeric_limits<double>::infinity());
      }
    }
    return out;
  }
  std::size_t Failures() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const LoadResult& r) { return r.status != 200; }));
  }
};

/// The first 200 body each tenant returned for each of its configs.
using FirstBodies = std::map<std::pair<std::size_t, std::size_t>, std::string>;

std::string DigestOf(std::string_view bytes) {
  Digest digest;
  digest.Add(bytes);
  return digest.Hex();
}

/// The generator's side: the seeded request order and its phases.
class Client {
 public:
  Client(const std::vector<Tenant>& tenants, std::uint64_t seed)
      : tenants_(tenants), rng_(seed) {}

  /// Offers `count` requests at `rate` to `daemon`. With `first` set,
  /// the first 200 body per (tenant, config) is kept there.
  Phase Run(Daemon& daemon, double rate, std::size_t count,
            FirstBodies* first) {
    Phase phase;
    phase.rate = rate;
    for (std::size_t i = 0; i < count; ++i) {
      Pick pick;
      pick.tenant = static_cast<std::size_t>(rng_() % tenants_.size());
      pick.file =
          static_cast<std::size_t>(rng_() % tenants_[pick.tenant].files.size());
      phase.picks.push_back(pick);
      phase.ids.push_back(next_id_++);
    }
    phase.body_digests.resize(count);
    const auto make_request = [&](std::size_t i) {
      const Pick& pick = phase.picks[i];
      const config::ConfigFile& file = tenants_[pick.tenant].files[pick.file];
      const std::string body = file.ToText();
      return "POST /v1/anonymize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             "X-Confanon-Tenant: " +
             tenants_[pick.tenant].name +
             "\r\nX-Confanon-Name: " + file.name() +
             "\r\nX-Bench-Id: " + std::to_string(phase.ids[i]) +
             "\r\nContent-Length: " + std::to_string(body.size()) +
             "\r\nConnection: close\r\n\r\n" + body;
    };
    const auto on_response = [&](std::size_t i, LoadResult& result) {
      phase.body_digests[i] = DigestOf(result.body);
      if (first != nullptr && result.status == 200) {
        first->try_emplace({phase.picks[i].tenant, phase.picks[i].file},
                           std::move(result.body));
      }
      result.body = std::string();
    };
    LoadOptions options;
    options.port = daemon.port();
    options.rate_per_s = rate;
    phase.results = RunOpenLoop(count, options, make_request, on_response);
    for (const std::size_t id : phase.ids) {
      phase.handler.push_back(daemon.handler_span(id));
    }
    return phase;
  }

 private:
  const std::vector<Tenant>& tenants_;
  std::mt19937_64 rng_;
  std::size_t next_id_ = 0;
};

/// Per-request and per-tenant checks over every phase served by one
/// daemon. Fills failures; returns the bad request count.
struct Verdict {
  std::size_t bad_requests = 0;
  double pair_s = 0.0;  // the tenants' pair audits
  std::string digest;
};

Verdict CheckDaemon(const std::vector<Tenant>& tenants,
                    const std::vector<const Phase*>& phases,
                    const FirstBodies& first, Daemon& daemon,
                    RunResult& result) {
  Verdict verdict;
  // Pair audit + leak scan per tenant over the configs it served.
  std::set<std::pair<std::size_t, std::string>> bad_files;
  std::map<std::pair<std::size_t, std::size_t>, std::string> first_digest;
  Digest digest;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::vector<config::ConfigFile> pre, post;
    for (const auto& [key, body] : first) {
      if (key.first != t) continue;
      first_digest[key] = DigestOf(body);
      const config::ConfigFile& file = tenants[t].files[key.second];
      pre.push_back(file);
      post.push_back(config::ConfigFile::FromText(
          "post-" + std::to_string(key.second), body));
      digest.Add(tenants[t].name + "/" + file.name() + ":" +
                 std::to_string(post.back().LineCount()) + "\n");
    }
    if (pre.empty()) continue;
    const auto session = daemon.service().FindSession(tenants[t].name);
    const CheckOutcome check =
        CheckOutputs(tenants[t].name, pre, post,
                     session != nullptr ? session->leak_record()
                                        : core::LeakRecord{},
                     /*threads=*/1);
    for (const std::string& finding : check.findings) {
      result.failures.push_back(finding);
    }
    for (const std::string& file : check.bad_files) {
      bad_files.emplace(t, file);
    }
    verdict.pair_s += check.pair_s;
  }
  verdict.digest = digest.Hex();
  for (const Phase* phase : phases) {
    for (std::size_t i = 0; i < phase->results.size(); ++i) {
      const LoadResult& r = phase->results[i];
      const Pick& pick = phase->picks[i];
      const config::ConfigFile& file = tenants[pick.tenant].files[pick.file];
      std::string why;
      if (r.status != 200) {
        why = r.timed_out ? "timed out" : "status " + std::to_string(r.status);
      } else if (phase->body_digests[i] !=
                 first_digest.at({pick.tenant, pick.file})) {
        why = "response differs from the tenant's first for this config";
      } else if (bad_files.contains({pick.tenant, file.name()}) ||
                 bad_files.contains(
                     {pick.tenant, "post-" + std::to_string(pick.file)})) {
        why = "config failed the pair audit or leak scan";
      }
      if (!why.empty()) {
        ++verdict.bad_requests;
        if (r.status != 200) {
          result.failures.push_back(tenants[pick.tenant].name + "/" +
                                    file.name() + " at " +
                                    std::to_string(phase->rate) +
                                    " rps: " + why);
        }
      }
    }
  }
  return verdict;
}

/// Step verdict of the rate ladder.
bool StepHolds(const Phase& phase, double* p99_ms) {
  const std::vector<double> all = phase.LatenciesMs(/*ok_only=*/false);
  *p99_ms = Percentile(all, 99);
  if (phase.Failures() > 0 || *p99_ms > kP99LimitMs) return false;
  // Growing backlog: the last quarter's median far above the first's.
  const std::size_t quarter = all.size() / 4;
  const std::vector<double> head(all.begin(), all.begin() + quarter);
  const std::vector<double> tail(all.end() - quarter, all.end());
  return Median(tail) <= 2.0 * Median(head) + 1.0;
}

}  // namespace

RunResult RunDaemon(const Options& options, SpanRecorder& spans) {
  RunResult result;
  const std::vector<Tenant> tenants = MakeTenants(kNetworkSeed);
  std::size_t files = 0;
  for (const Tenant& tenant : tenants) files += tenant.files.size();
  const std::string salt = "bench-" + std::to_string(options.seed);
  Client client(tenants, options.seed);
  result.input_summary = std::to_string(tenants.size()) + " tenants, " +
                         std::to_string(files) + " configs, " +
                         std::to_string(kHandlerThreads) +
                         " handler threads, 1 generator thread";

  // --- set-up: ServiceOptions to a started server, several times ---
  // Each daemon but the last is stopped before the next one is built, so
  // only one exists at a time and peak_rss_mb holds one daemon. Stopping
  // (see ~Daemon) stays outside the timed set-up. Unlike the batch
  // workloads, the set-ups are not spread over the window: that would
  // build daemons next to the one serving the load.
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setup_s, session_s, build_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    daemon.reset();
    const auto start = Clock::now();
    daemon = std::make_unique<Daemon>(salt, /*hooks_metrics=*/true,
                                      /*profile=*/false);
    setup_s.push_back(SecondsSince(start));
    build_s.push_back(daemon->context_build_s());
  }
  {
    core::ServiceOptions session_options;
    session_options.verify_policy = false;
    const auto context =
        confanon::pipeline::MakeServiceContext(std::move(session_options));
    session_s = TimeRepeated(kSetupRepeats,
                             [&] { (void)context->CreateSession(salt); });
  }

  // --- window: nominal rate, then the ladder ---
  const double ladder_share = 0.4;
  const double nominal_s =
      options.seconds * (options.trace ? 0.4 : 1.0 - ladder_share);
  const auto nominal_count =
      static_cast<std::size_t>(std::max(50.0, kNominalRate * nominal_s));
  FirstBodies first_bodies;
  const Phase nominal =
      client.Run(*daemon, kNominalRate, nominal_count, &first_bodies);
  // The memory a daemon needs to serve the nominal load; the ladder's
  // overload steps queue more and would make the peak depend on how far
  // the ladder climbs.
  const double nominal_rss_mb = PeakRssMb();
  std::vector<const Phase*> served = {&nominal};

  std::vector<Phase> ladder;
  double max_rate = 0.0;
  std::string ladder_log;
  const auto ladder_start = Clock::now();
  for (double rate = kNominalRate * kLadderFactor; rate <= kMaxRate;
       rate *= kLadderFactor) {
    ladder.push_back(client.Run(*daemon, rate, kStepRequests, &first_bodies));
    double p99 = 0.0;
    const bool holds = StepHolds(ladder.back(), &p99);
    char line[160];
    std::snprintf(line, sizeof(line), "%s%.0f rps: p99 %.2f ms, %zu failed",
                  ladder_log.empty() ? "" : "; ", rate, p99,
                  ladder.back().Failures());
    ladder_log += line;
    if (!holds) break;
    max_rate = rate;
    if (SecondsSince(ladder_start) > options.seconds * ladder_share) {
      ladder_log += "; window over, so max_rate_rps is a lower bound";
      break;
    }
  }
  if (max_rate == 0.0) {
    double p99 = 0.0;
    max_rate = StepHolds(nominal, &p99) ? kNominalRate : 0.0;
  }
  // Steps the daemon sustained count as served load; the step that
  // broke the limit is the probe that found it (its 429s and timeouts
  // are reported as service.rejected and in the ladder log).
  for (Phase& step : ladder) {
    if (step.rate <= max_rate) served.push_back(&step);
  }
  std::printf("ladder: %s\n", ladder_log.c_str());

  const Verdict verdict =
      CheckDaemon(tenants, served, first_bodies, *daemon, result);
  for (const Phase* phase : served) result.attempted += phase->results.size();
  result.failed = verdict.bad_requests;
  result.digest = verdict.digest;

  // --- metrics ---
  std::vector<double> latency_ms, lines_per_s, handler_lps, handle_ms,
      transport_ms, lag_ms;
  for (std::size_t i = 0; i < nominal.results.size(); ++i) {
    const LoadResult& r = nominal.results[i];
    if (r.status != 200) {
      latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    latency_ms.push_back(r.LatencyMs());
    const auto [start, end] = nominal.handler[i];
    const double handler = static_cast<double>(end - start) / 1e6;
    handle_ms.push_back(handler);
    transport_ms.push_back(r.LatencyMs() - handler);
    const config::ConfigFile& file =
        tenants[nominal.picks[i].tenant].files[nominal.picks[i].file];
    const auto lines = static_cast<double>(file.LineCount());
    lines_per_s.push_back(lines / (r.LatencyMs() / 1e3));
    handler_lps.push_back(lines / (handler / 1e3));
  }
  for (const Phase* phase : served) {
    for (const LoadResult& r : phase->results) lag_ms.push_back(r.LagMs());
  }
  const double failed_frac = static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted);

  result.AddRow("setup_s", "s", setup_s);
  result.AddRow("peak_rss_mb", "MB", {nominal_rss_mb});
  result.AddRow("failed_frac", "ratio", {failed_frac});
  result.AddRow("request_ms@200rps", "ms", latency_ms);
  result.AddRow("request_lines_per_s", "lines/s", lines_per_s, true);
  result.AddRow("handler_lines_per_s", "lines/s", handler_lps, true);
  result.AddRow("max_rate_rps", "1/s", {max_rate}, true);
  result.AddRow("handle_ms", "ms", handle_ms);
  result.AddRow("transport_ms", "ms", transport_ms);

  if (!options.trace) {
    result.AddMetric("setup_s", "s", Median(setup_s));
    result.AddMetric("peak_rss_mb", "MB", nominal_rss_mb);
    result.AddMetric("lines_per_s", "lines/s", Median(lines_per_s));
    result.AddMetric("anonymize_lines_per_s", "lines/s",
                     Median(handler_lps));
    return result;
  }

  // --- traced part: the same nominal load on a daemon with no hooks and
  // on one with the registry and the phase profiler installed ---
  LayerMetrics layers;
  const auto traced_count = static_cast<std::size_t>(
      std::max(50.0, kNominalRate * options.seconds * 0.2));
  std::vector<double> p50_by_mode[2];
  for (int mode = 0; mode < 2; ++mode) {
    Daemon side(salt, /*hooks_metrics=*/mode == 1, /*profile=*/mode == 1);
    const Phase phase =
        client.Run(side, kNominalRate, traced_count, /*first=*/nullptr);
    p50_by_mode[mode] = phase.LatenciesMs(/*ok_only=*/true);
    if (mode == 1) {
      double handler_total_s = 0.0;
      for (std::size_t i = 0; i < phase.results.size(); ++i) {
        const auto [start, end] = phase.handler[i];
        handler_total_s += static_cast<double>(end - start) / 1e9;
        const int request = spans.Add("request", 0, phase.results[i].due_ns,
                                      phase.results[i].done_ns);
        spans.Add("service.handle", request, start, end);
      }
      const double requests = static_cast<double>(phase.results.size());
      // Each request runs a one-thread pipeline; per-request values.
      layers.AddPipelinePass(side.profiler().Finish(), handler_total_s, 1,
                             requests);
      layers.AddRegistry(side.registry().Snapshot(), requests);
    }
  }
  layers.Set("verify.context_build_s", Median(build_s));
  layers.Set("core.session_create_s", Median(session_s));
  layers.Set("audit.pair_s", verdict.pair_s);
  layers.Set("service.handle_ms_p50", Median(handle_ms));
  layers.Set("service.transport_ms_p99", Percentile(transport_ms, 99));
  layers.Set("service.rejected", static_cast<double>(daemon->rejected()));
  layers.Set("service.request_p50_ms", Median(latency_ms));
  layers.Set("service.request_p99_ms", Percentile(latency_ms, 99));
  layers.Set("service.max_rate_rps", max_rate);
  layers.Set("loadgen.lag_ms_max",
             *std::max_element(lag_ms.begin(), lag_ms.end()));
  layers.Set("obs.overhead_pct", (Median(p50_by_mode[1]) /
                                      Median(p50_by_mode[0]) -
                                  1.0) *
                                     100.0);
  layers.Set("run.failed_frac", failed_frac);
  layers.EmitTo(result);
  return result;
}

}  // namespace perfbench
