// Per-layer metrics of the traced run.
//
// Every workload emits the same fixed list (LayerNames), so each traced
// run reports every metric; a layer a workload bypasses reads 0. Values
// are per timed pass (median over the traced passes for spans, total /
// passes for registry sums) unless the name says otherwise.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace perfbench {

struct LayerName {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in output order (mirrors BENCHMARK.json).
const std::vector<LayerName>& LayerNames();

/// Collects per-layer values over the traced passes of one run.
class LayerMetrics {
 public:
  /// A value reported as is (last call wins).
  void Set(const std::string& name, double value);

  /// One traced pass through CorpusPipeline: its phase windows, the
  /// outer span of the call that ran them (`outer_s`) and the worker
  /// count. Feeds pipeline.* and the unattributed remainder. With `per`
  /// > 1 the profile covers that many calls and values are per call.
  void AddPipelinePass(const confanon::obs::PhaseProfiler::Profile& profile,
                       double outer_s, int threads, double per = 1.0);

  /// Registry totals accumulated over `passes` traced passes: the
  /// engine, hash, ipanon and asn rows.
  void AddRegistry(const confanon::obs::RunMetrics& snapshot, double passes);

  /// Appends every LayerNames() metric to `result` (0 when unset).
  void EmitTo(RunResult& result) const;

 private:
  /// One value of a per-pass quantity; the reported value is the median.
  void Sample(const std::string& name, double value);

  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  double busy_ns_ = 0.0;        // core.file_ns + junos.file_ns sums
  double anonymize_cap_ns_ = 0;  // threads x anonymize phase wall
};

}  // namespace perfbench
