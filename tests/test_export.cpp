// Tests for the telemetry-export layer (src/obs/export.h), the HTTP
// exposition listener (src/obs/exposition.h), the perf-counter wrapper
// (src/obs/perf_counters.h) and the phase profiler (src/obs/profiler.h):
// snapshot sequencing and differencing, Prometheus text rendering
// line-by-line, a real-socket /metrics round trip, graceful perf
// degradation, and folded-stack reconstruction.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace confanon {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- snapshots ---------------------------------------------------------

TEST(SnapshotExporter, SequencesAreMonotonic) {
  obs::MetricsRegistry registry;
  registry.CounterNamed("core.lines").Add(3);
  obs::SnapshotExporter exporter(&registry);

  const obs::MetricsSnapshot first = exporter.Capture();
  const obs::MetricsSnapshot second = exporter.Capture();
  EXPECT_EQ(first.sequence + 1, second.sequence);
  EXPECT_EQ(exporter.last_sequence(), second.sequence);
  EXPECT_GE(second.mono_ns, first.mono_ns);
  EXPECT_EQ(first.metrics.counters.at("core.lines"), 3u);
}

TEST(SnapshotExporter, DiffProducesDeltasAndRates) {
  obs::MetricsRegistry registry;
  registry.CounterNamed("core.lines").Add(10);
  registry.GaugeNamed("ipanon.trie_nodes").Set(100);
  registry.HistogramNamed("core.line_ns").Record(50);
  obs::SnapshotExporter exporter(&registry);

  obs::MetricsSnapshot earlier = exporter.Capture();
  registry.CounterNamed("core.lines").Add(40);
  registry.GaugeNamed("ipanon.trie_nodes").Set(175);
  registry.HistogramNamed("core.line_ns").Record(50);
  registry.HistogramNamed("core.line_ns").Record(70);
  obs::MetricsSnapshot later = exporter.Capture();
  // Pin the interval so the rate assertion is exact.
  earlier.mono_ns = 0;
  later.mono_ns = 2'000'000'000;  // 2s

  const obs::SnapshotDelta delta = obs::DiffSnapshots(earlier, later);
  EXPECT_DOUBLE_EQ(delta.interval_s, 2.0);
  EXPECT_EQ(delta.counter_deltas.at("core.lines"), 40u);
  EXPECT_DOUBLE_EQ(delta.counter_rates.at("core.lines"), 20.0);
  EXPECT_EQ(delta.gauge_changes.at("ipanon.trie_nodes"), 75);
  EXPECT_EQ(delta.histogram_deltas.at("core.line_ns").count, 2u);
}

TEST(SnapshotExporter, DiffClampsBackwardCounters) {
  obs::MetricsSnapshot earlier, later;
  earlier.metrics.counters["x"] = 100;
  later.metrics.counters["x"] = 60;  // restarted registry
  later.mono_ns = 1'000'000'000;
  const obs::SnapshotDelta delta = obs::DiffSnapshots(earlier, later);
  EXPECT_EQ(delta.counter_deltas.at("x"), 0u);
}

// --- Prometheus rendering ----------------------------------------------

TEST(Prometheus, SanitizesMetricNames) {
  EXPECT_EQ(obs::SanitizeMetricName("core.line_ns"), "core_line_ns");
  EXPECT_EQ(obs::SanitizeMetricName("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(obs::SanitizeMetricName("7zip"), "_7zip");
}

TEST(Prometheus, RendersCounterAndGaugeLines) {
  obs::RunMetrics metrics;
  metrics.counters["core.lines"] = 42;
  metrics.gauges["ipanon.trie_nodes"] = 17;
  const std::vector<std::string> lines =
      Lines(obs::RenderPrometheus(metrics));
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "# TYPE confanon_core_lines_total counter");
  EXPECT_EQ(lines[1], "confanon_core_lines_total 42");
  EXPECT_EQ(lines[2], "# TYPE confanon_ipanon_trie_nodes gauge");
  EXPECT_EQ(lines[3], "confanon_ipanon_trie_nodes 17");
}

TEST(Prometheus, RendersHistogramAsCumulativeBuckets) {
  obs::MetricsRegistry registry;
  auto& histogram = registry.HistogramNamed("core.line_ns");
  histogram.Record(5);
  histogram.Record(5);
  histogram.Record(1000);
  const std::vector<std::string> lines =
      Lines(obs::RenderPrometheus(registry.Snapshot()));

  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[0], "# TYPE confanon_core_line_ns histogram");
  // Occupied log-scale buckets, cumulative, then +Inf == _count.
  EXPECT_TRUE(Contains(lines[1], "confanon_core_line_ns_bucket{le=\""));
  bool saw_inf = false, saw_sum = false, saw_count = false;
  std::uint64_t last_cumulative = 0;
  for (const std::string& line : lines) {
    if (Contains(line, "_bucket{le=\"+Inf\"} 3")) saw_inf = true;
    if (Contains(line, "confanon_core_line_ns_sum 1010")) saw_sum = true;
    if (Contains(line, "confanon_core_line_ns_count 3")) saw_count = true;
    if (Contains(line, "_bucket{le=\"") && !Contains(line, "+Inf")) {
      const std::uint64_t cumulative =
          std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(cumulative, last_cumulative) << line;
      last_cumulative = cumulative;
    }
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_count);
}

TEST(Prometheus, SnapshotVariantEmitsExporterMeta) {
  obs::MetricsRegistry registry;
  registry.CounterNamed("core.lines").Add(1);
  obs::SnapshotExporter exporter(&registry);
  const std::string text = obs::RenderPrometheus(exporter.Capture());
  EXPECT_TRUE(Contains(text, "confanon_export_sequence 1"));
  EXPECT_TRUE(Contains(text, "confanon_export_timestamp_ms"));
}

TEST(Prometheus, OutputIsDeterministicAndSorted) {
  // Register in shuffled order; both the JSON snapshot and the Prometheus
  // rendering must come out name-sorted (std::map storage), so repeated
  // exports of equal registries are byte-identical.
  obs::MetricsRegistry a, b;
  for (const char* name : {"zeta", "alpha", "mid"}) a.CounterNamed(name).Add(1);
  for (const char* name : {"mid", "zeta", "alpha"}) b.CounterNamed(name).Add(1);
  const std::string rendered = obs::RenderPrometheus(a.Snapshot());
  EXPECT_EQ(rendered, obs::RenderPrometheus(b.Snapshot()));
  const std::size_t alpha = rendered.find("confanon_alpha_total");
  const std::size_t mid = rendered.find("confanon_mid_total");
  const std::size_t zeta = rendered.find("confanon_zeta_total");
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
}

// --- exposition server -------------------------------------------------

TEST(ExpositionServer, ParsesListenSpecs) {
  std::string host;
  std::uint16_t port = 1;
  EXPECT_TRUE(obs::ExpositionServer::ParseListenSpec("127.0.0.1:9464", host,
                                                     port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9464);
  EXPECT_TRUE(obs::ExpositionServer::ParseListenSpec("localhost:0", host,
                                                     port));
  EXPECT_EQ(port, 0);
  EXPECT_FALSE(obs::ExpositionServer::ParseListenSpec("noport", host, port));
  EXPECT_FALSE(obs::ExpositionServer::ParseListenSpec("h:99999", host, port));
}

/// Blocking one-shot HTTP client against 127.0.0.1:`port`.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof buffer)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ExpositionServer, ServesMetricsOverARealSocket) {
  obs::MetricsRegistry registry;
  registry.CounterNamed("core.lines").Add(7);
  obs::SnapshotExporter exporter(&registry);

  obs::ExpositionServer::Options options;  // 127.0.0.1:0 — ephemeral
  obs::ExpositionServer server(options, [&exporter] {
    return obs::RenderPrometheus(exporter.Capture());
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_TRUE(Contains(metrics, "HTTP/1.1 200 OK"));
  EXPECT_TRUE(Contains(metrics, "text/plain; version=0.0.4"));
  EXPECT_TRUE(Contains(metrics, "confanon_core_lines_total 7"));

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_TRUE(Contains(health, "HTTP/1.1 200 OK"));
  EXPECT_TRUE(Contains(health, "ok"));

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_TRUE(Contains(missing, "HTTP/1.1 404"));

  EXPECT_GE(server.requests_served(), 3u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(ExpositionServer, StartFailureReportsError) {
  obs::ExpositionServer::Options options;
  options.host = "300.300.300.300";  // not a parseable IPv4 address
  obs::ExpositionServer server(options, [] { return std::string(); });
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_FALSE(error.empty());
  server.Stop();  // no-op on an inert server
}

TEST(ExpositionServer, PooledStartStopCyclesNeverHang) {
  // Stop() must publish its stop flag under the handler queue's mutex: a
  // handler that has just found the wait predicate false would otherwise
  // miss the notify, park forever, and hang Stop() in join(). Starting
  // and stopping back to back keeps the handlers inside that window.
  for (int cycle = 0; cycle < 300; ++cycle) {
    obs::ExpositionServer::Options options;
    options.handler_threads = 2;
    obs::ExpositionServer server(options, [] { return std::string(); });
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << "cycle " << cycle << ": " << error;
    server.Stop();
    EXPECT_FALSE(server.running());
  }
}

// --- perf counters -----------------------------------------------------

TEST(PerfCounters, OpensOrDegradesGracefully) {
  obs::PerfCounterGroup group;
  const bool opened = group.Open();
  if (opened) {
    // Counting mode: readings must be valid and monotonic.
    const obs::PerfSample first = group.Read();
    ASSERT_TRUE(first.valid);
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    const obs::PerfSample second = group.Read();
    ASSERT_TRUE(second.valid);
    const obs::PerfSample delta = second.Since(first);
    EXPECT_TRUE(delta.valid);
    EXPECT_GT(delta.instructions, 0u);
  } else {
    // Restricted environment (perf_event_paranoid, seccomp, non-Linux):
    // the null object must be inert, not crash.
    EXPECT_FALSE(group.ok());
    EXPECT_FALSE(group.Read().valid);
  }
  group.Close();
  EXPECT_FALSE(group.ok());
}

TEST(PerfCounters, InvalidSamplesNeverDivide) {
  obs::PerfSample sample;  // invalid by default
  EXPECT_EQ(sample.Ipc(), 0.0);
  EXPECT_FALSE(sample.Since(sample).valid);
}

// --- phase profiler ----------------------------------------------------

TEST(PhaseProfiler, ReentrantWindowsCountOverlapOnce) {
  obs::PhaseProfiler profiler(
      {.enable_perf_counters = false, .max_spans = 1024});
  profiler.BeginPhase("anonymize");
  profiler.BeginPhase("anonymize");  // second concurrent holder
  profiler.EndPhase("anonymize");
  profiler.EndPhase("anonymize");
  profiler.EndPhase("anonymize");  // unbalanced: ignored

  const obs::PhaseProfiler::Profile profile = profiler.Finish();
  ASSERT_EQ(profile.phases.size(), 1u);
  EXPECT_EQ(profile.phases[0].name, "anonymize");
  EXPECT_EQ(profile.phases[0].invocations, 2u);
  EXPECT_FALSE(profile.perf_available);
}

TEST(PhaseProfiler, FoldsSpansUnderPhaseRoots) {
  obs::PhaseProfiler profiler({.enable_perf_counters = false});

  const auto span = [&](const char* name, std::int64_t ts, std::int64_t dur,
                        const char* phase) {
    obs::TraceEvent event;
    event.name = name;
    event.ts_us = ts;
    event.dur_us = dur;
    if (phase != nullptr) event.str_args.emplace_back("phase", phase);
    profiler.Write(event);
  };
  // One file span containing two rule spans (child-before-parent arrival,
  // as the engines emit), plus an untagged root.
  span("rule:I1", 100, 30, nullptr);
  span("rule:I4", 130, 20, nullptr);
  span("file:rtr0", 100, 100, "anonymize");
  span("leak-scan", 300, 50, nullptr);

  const obs::PhaseProfiler::Profile profile = profiler.Finish();
  std::map<std::string, obs::PhaseProfiler::SpanStats> by_path;
  for (const auto& stats : profile.spans) by_path[stats.path] = stats;

  ASSERT_TRUE(by_path.count("anonymize;file:rtr0"));
  ASSERT_TRUE(by_path.count("anonymize;file:rtr0;rule:I1"));
  ASSERT_TRUE(by_path.count("anonymize;file:rtr0;rule:I4"));
  ASSERT_TRUE(by_path.count("unphased;leak-scan"));
  // Self time = inclusive minus direct children.
  EXPECT_EQ(by_path["anonymize;file:rtr0"].total_us, 100u);
  EXPECT_EQ(by_path["anonymize;file:rtr0"].self_us, 50u);
  EXPECT_EQ(by_path["anonymize;file:rtr0;rule:I1"].self_us, 30u);

  std::ostringstream folded;
  obs::PhaseProfiler::WriteFolded(profile, folded);
  EXPECT_TRUE(Contains(folded.str(), "anonymize;file:rtr0;rule:I1 30\n"));
  EXPECT_TRUE(Contains(folded.str(), "unphased;leak-scan 50\n"));
}

TEST(PhaseProfiler, ForwardsToDownstreamSink) {
  obs::PhaseProfiler profiler({.enable_perf_counters = false});
  std::ostringstream out;
  {
    obs::JsonlTraceSink downstream(out);
    profiler.set_downstream(&downstream);
    obs::TraceEvent event;
    event.name = "file:x";
    event.ts_us = 1;
    event.dur_us = 2;
    profiler.Write(event);
    EXPECT_EQ(downstream.event_count(), 1u);
  }
  EXPECT_TRUE(Contains(out.str(), "\"name\":\"file:x\""));
}

TEST(PhaseProfiler, RenderTableListsPhasesInFirstBeginOrder) {
  obs::PhaseProfiler profiler({.enable_perf_counters = false});
  profiler.BeginPhase("preload");
  profiler.EndPhase("preload");
  profiler.BeginPhase("anonymize");
  profiler.EndPhase("anonymize");
  const std::string table =
      obs::PhaseProfiler::RenderTable(profiler.Finish());
  const std::size_t preload = table.find("preload");
  const std::size_t anonymize = table.find("anonymize");
  ASSERT_NE(preload, std::string::npos);
  ASSERT_NE(anonymize, std::string::npos);
  EXPECT_LT(preload, anonymize);
  EXPECT_TRUE(Contains(table, "hardware counters unavailable"));
}

}  // namespace
}  // namespace confanon
