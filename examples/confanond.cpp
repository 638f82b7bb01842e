// confanond — long-running anonymization service over the Session API.
//
// The batch tools (confanon_tool) build a ServiceContext + Session per
// invocation; confanond keeps ONE process-lifetime ServiceContext and a
// lazily grown registry of per-tenant Sessions, so a clearinghouse can
// anonymize configs for many networks over HTTP without re-seeding
// per-request state. See docs/DAEMON.md for the full API contract.
//
//   confanond --salt SECRET [--listen HOST:PORT] [--threads N]
//             [--workers N] [--queue N] [--max-body BYTES]
//             [--profile FILE.folded] [--allow-policy-warnings]
//
//   --salt SECRET     base secret; tenant T runs with salt "SECRET:T"
//                     (the confanon_tool --network-dir convention)
//   --listen H:P      bind address (default 127.0.0.1:8642; port 0 picks
//                     an ephemeral port and prints it)
//   --threads N       worker threads per request pipeline (0 = auto)
//   --workers N       concurrent HTTP handler threads (default 4)
//   --queue N         admission control: pending connections beyond this
//                     are answered 429 (default 16)
//   --max-body BYTES  request body cap, answered 413 beyond (default 1MiB)
//   --profile FILE    write a folded flamegraph profile on shutdown and
//                     print the per-phase table
//   --allow-policy-warnings
//                     start (and accept tenant pass-lists) despite
//                     warning-severity verifier findings; errors always
//                     refuse (docs/VERIFY.md)
//   --defend-k K      run the fingerprint defense (src/defense) on every
//                     request: decoy structure is added until each
//                     router's fingerprint is shared by >= K routers of
//                     its tenant's stream; /v1/sessions reports the
//                     achieved k and decoy volume per tenant
//   --defend-seed S   decoy randomness seed (default 0)
//   --defend-budget-pct P  decoy-line budget as a percent (default 35)
//
// Startup gate: MakeServiceContext statically verifies the anonymization
// policy (src/verify). A verdict with errors — or warnings without
// --allow-policy-warnings — prints the most severe finding and exits 1
// before the listener ever binds: a daemon over a provably leaky policy
// must not come up.
//
// ONE listener serves everything (satellite 2 of the daemon issue): the
// daemon's /v1/* routes hang off the same obs::ExpositionServer that
// serves GET /metrics (live Prometheus exposition of the service.* and
// engine metrics) and GET /healthz. SIGTERM/SIGINT drain and stop the
// listener, print a summary, and exit 0.
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "confanon.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"
#include "service/service.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

void Usage() {
  std::cerr
      << "usage: confanond --salt SECRET [--listen HOST:PORT] [--threads N]\n"
         "                 [--workers N] [--queue N] [--max-body BYTES]\n"
         "                 [--profile FILE.folded] [--allow-policy-warnings]\n"
         "                 [--defend-k K] [--defend-seed S] "
         "[--defend-budget-pct P]\n";
}

bool ParseCount(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  out = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace confanon;

  core::ServiceOptions options;
  options.base.salt.clear();
  std::string listen = "127.0.0.1:8642";
  std::string profile_out;
  std::uint64_t workers = 4;
  std::uint64_t queue = 16;
  std::uint64_t max_body = 1 << 20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t count = 0;
    if (arg == "--salt") {
      options.base.salt = value("--salt");
    } else if (arg == "--listen") {
      listen = value("--listen");
    } else if (arg == "--threads") {
      if (!ParseCount(value("--threads"), count)) return 2;
      options.threads = static_cast<int>(count);
    } else if (arg == "--workers") {
      if (!ParseCount(value("--workers"), count) || count == 0) return 2;
      workers = count;
    } else if (arg == "--queue") {
      if (!ParseCount(value("--queue"), count)) return 2;
      queue = count;
    } else if (arg == "--max-body") {
      if (!ParseCount(value("--max-body"), count) || count == 0) return 2;
      max_body = count;
    } else if (arg == "--defend-k") {
      if (!ParseCount(value("--defend-k"), count)) return 2;
      options.defense.k = static_cast<int>(count);
    } else if (arg == "--defend-seed") {
      if (!ParseCount(value("--defend-seed"), count)) return 2;
      options.defense.seed = count;
    } else if (arg == "--defend-budget-pct") {
      if (!ParseCount(value("--defend-budget-pct"), count)) return 2;
      options.defense.budget = static_cast<double>(count) / 100.0;
    } else if (arg == "--profile") {
      profile_out = value("--profile");
    } else if (arg == "--allow-policy-warnings") {
      options.allow_policy_warnings = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.base.salt.empty()) {
    Usage();
    return 2;
  }

  // --- observability: one registry, one exporter, optional profiler ---
  obs::MetricsRegistry registry;
  obs::SnapshotExporter exporter(&registry);
  std::unique_ptr<obs::PhaseProfiler> profiler;
  if (!profile_out.empty()) profiler = std::make_unique<obs::PhaseProfiler>();
  obs::Hooks hooks;
  hooks.metrics = &registry;
  if (profiler != nullptr) {
    hooks.profiler = profiler.get();
    hooks.trace = profiler.get();
  }

  // --- the process-lifetime context and the tenant service over it ---
  std::shared_ptr<core::ServiceContext> context;
  {
    // Context build, policy verification included.
    obs::PhaseProfiler::ScopedPhase phase(hooks.profiler, nullptr, "startup");
    context = pipeline::MakeServiceContext(options);
  }
  // Startup gate: refuse to serve over a provably leaky policy. The
  // verdict was recorded by MakeServiceContext (options.verify_policy).
  const core::PolicyVerdict& verdict = context->policy_verdict();
  if (verdict.verified &&
      (verdict.errors > 0 ||
       (verdict.warnings > 0 && !options.allow_policy_warnings))) {
    std::cerr << "confanond: policy verification failed ("
              << verdict.errors << " errors, " << verdict.warnings
              << " warnings): " << verdict.first_finding << "\n";
    if (verdict.errors == 0) {
      std::cerr << "confanond: pass --allow-policy-warnings to start "
                   "anyway\n";
    }
    return 1;
  }
  context->install_hooks(hooks);
  // The startup verdict, visible on /metrics from the first scrape (the
  // full verify.* counter family accrues whenever /v1/passlist verifies
  // a tenant list).
  registry.GaugeNamed("verify.errors")
      .Set(static_cast<std::int64_t>(verdict.errors));
  registry.GaugeNamed("verify.warnings")
      .Set(static_cast<std::int64_t>(verdict.warnings));
  registry.GaugeNamed("verify.notes")
      .Set(static_cast<std::int64_t>(verdict.notes));
  service::AnonymizationService anonymization(context);

  // --- ONE listener: /metrics + /healthz + the daemon routes ---
  obs::ExpositionServer::Options server_options;
  if (!obs::ExpositionServer::ParseListenSpec(listen, server_options.host,
                                              server_options.port)) {
    std::cerr << "bad --listen spec '" << listen << "' (want HOST:PORT)\n";
    return 2;
  }
  server_options.handler_threads = static_cast<int>(workers);
  server_options.max_pending = queue;
  server_options.max_body_bytes = max_body;
  server_options.overload_status = 429;
  obs::ExpositionServer* server_ptr = nullptr;
  obs::ExpositionServer server(
      server_options, [&exporter, &registry, &server_ptr] {
        // The bounded-queue rejection count lives in the listener; mirror
        // it into the registry so one scrape carries everything.
        if (server_ptr != nullptr) {
          registry.GaugeNamed("service.rejected").Set(
              static_cast<std::int64_t>(server_ptr->rejected()));
        }
        return obs::RenderPrometheus(exporter.Capture());
      });
  server_ptr = &server;
  anonymization.RegisterRoutes(server);

  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "confanond: cannot listen on " << listen << ": " << error
              << "\n";
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::cout << "confanond listening on http://" << server.host() << ":"
            << server.port() << "/ (workers=" << workers << ", queue=" << queue
            << ")" << std::endl;

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.Stop();
  if (profiler != nullptr) {
    const obs::PhaseProfiler::Profile profile = profiler->Finish();
    std::cerr << obs::PhaseProfiler::RenderTable(profile);
    std::ofstream folded(profile_out, std::ios::trunc);
    if (folded) obs::PhaseProfiler::WriteFolded(profile, folded);
  }
  std::cerr << "confanond: served "
            << registry.CounterNamed("service.requests").Value()
            << " requests across " << anonymization.session_count()
            << " sessions (" << server.rejected()
            << " rejected), shutting down\n";
  return 0;
}
