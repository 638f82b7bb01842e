#include "layers.h"

namespace perfbench {

const std::vector<LayerName>& LayerNames() {
  static const std::vector<LayerName> names = {
      {"verify.context_build_s", "s"},
      {"core.session_create_s", "s"},
      {"io.ingest_s", "s"},
      {"io.emit_s", "s"},
      {"io.bytes_read", "bytes"},
      {"io.bytes_written", "bytes"},
      {"pipeline.preload_s", "s"},
      {"pipeline.prewarm_s", "s"},
      {"pipeline.anonymize_s", "s"},
      {"pipeline.join_s", "s"},
      {"pipeline.unattributed_s", "s"},
      {"pipeline.worker_busy_frac", "ratio"},
      {"core.line_ns_p50", "ns"},
      {"junos.line_ns_p50", "ns"},
      {"core.tokenize_s", "s"},
      {"hash.lane_fill", "lanes"},
      {"hash.batch_s", "s"},
      {"ipanon.cache_hit_ratio", "ratio"},
      {"asn.rewrite_s", "s"},
      {"asn.rewrite_memo_hit_ratio", "ratio"},
      {"audit.lint_s", "s"},
      {"audit.pair_s", "s"},
      {"leak.scan_s", "s"},
      {"service.handle_ms_p50", "ms"},
      {"service.request_p50_ms", "ms"},
      {"service.transport_ms_p99", "ms"},
      {"service.rejected", "count"},
      {"service.request_p99_ms", "ms"},
      {"service.max_rate_rps", "1/s"},
      {"loadgen.lag_ms_max", "ms"},
      {"obs.overhead_pct", "%"},
      {"run.failed_frac", "ratio"},
  };
  return names;
}

void LayerMetrics::Sample(const std::string& name, double value) {
  samples_[name].push_back(value);
}

void LayerMetrics::Set(const std::string& name, double value) {
  values_[name] = value;
}

void LayerMetrics::AddPipelinePass(
    const confanon::obs::PhaseProfiler::Profile& profile, double outer_s,
    int threads, double per) {
  double phases_s = 0.0;
  for (const auto& phase : profile.phases) {
    const double wall_s = static_cast<double>(phase.wall_ns) / 1e9 / per;
    if (phase.name == "preload" || phase.name == "prewarm" ||
        phase.name == "anonymize" || phase.name == "join") {
      Sample("pipeline." + phase.name + "_s", wall_s);
      phases_s += wall_s;
    }
    if (phase.name == "anonymize") {
      anonymize_cap_ns_ += static_cast<double>(threads) *
                           static_cast<double>(phase.wall_ns);
    }
  }
  // Phases of concurrent networks overlap (each phase's window is the
  // union over networks), so at more than one thread the remainder can
  // go negative: it is reported as measured.
  Sample("pipeline.unattributed_s", outer_s / per - phases_s);
}

void LayerMetrics::AddRegistry(const confanon::obs::RunMetrics& snapshot,
                               double passes) {
  const auto histogram = [&](const char* name) {
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? confanon::obs::HistogramSnapshot{}
                                           : it->second;
  };
  const auto counter = [&](const char* name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0
                                         : static_cast<double>(it->second);
  };
  if (passes <= 0) passes = 1;
  values_["core.line_ns_p50"] = histogram("core.line_ns").Percentile(50);
  values_["junos.line_ns_p50"] = histogram("junos.line_ns").Percentile(50);
  values_["core.tokenize_s"] =
      static_cast<double>(histogram("core.tokenize_ns").sum +
                          histogram("junos.tokenize_ns").sum) /
      1e9 / passes;
  values_["hash.lane_fill"] = histogram("hash.lane_fill").Mean();
  values_["hash.batch_s"] =
      static_cast<double>(histogram("hash.batch_ns").sum) / 1e9 / passes;
  const double hits = counter("ipanon.cache_hits");
  const double misses = counter("ipanon.cache_misses");
  values_["ipanon.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const auto rewrites = histogram("asn.rewrite_ns");
  values_["asn.rewrite_s"] = static_cast<double>(rewrites.sum) / 1e9 / passes;
  const double memo_hits = counter("asn.rewrite_memo_hits");
  const double attempts = memo_hits + static_cast<double>(rewrites.count);
  values_["asn.rewrite_memo_hit_ratio"] =
      attempts > 0 ? memo_hits / attempts : 0.0;
  busy_ns_ += static_cast<double>(histogram("core.file_ns").sum +
                                  histogram("junos.file_ns").sum);
}

void LayerMetrics::EmitTo(RunResult& result) const {
  for (const LayerName& layer : LayerNames()) {
    double value = 0.0;
    if (const auto it = values_.find(layer.name); it != values_.end()) {
      value = it->second;
    } else if (const auto sit = samples_.find(layer.name);
               sit != samples_.end()) {
      value = Median(sit->second);
    } else if (std::string(layer.name) == "pipeline.worker_busy_frac" &&
               anonymize_cap_ns_ > 0) {
      value = busy_ns_ / anonymize_cap_ns_;
    }
    result.AddMetric(layer.name, layer.unit, value);
  }
}

}  // namespace perfbench
