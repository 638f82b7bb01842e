// Shared plumbing of the end-to-end benchmark: command-line options,
// clocks, sample summaries, the benchmark's own span recorder, output
// digests and the result every workload hands back to main().
//
// The benchmark times the program from the outside: every span below is
// recorded by benchmark code around a call into a public function of the
// library (pipeline, core, audit, service, obs, util/io). Nothing in the
// library is modified to be measured.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "config/document.h"

namespace perfbench {

namespace config = confanon::config;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  /// A per-file or per-request failure also fails the run.
  bool strict = false;
  /// Scratch directory for spilled inputs and emitted outputs.
  std::string work_dir = ".bench_build/work";
  /// Where --trace 1 writes the recorded spans (empty: do not write).
  std::string spans_out;
  /// Self-test knobs; 0 keeps the workload's own default.
  int threads = 0;
  double scale = 0.0;
  int routers = 0;
  /// Self-test knob: stop after this many timed passes (0: window only).
  int max_passes = 0;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median and the highest percentile with at least ten samples beyond
/// it (p99 needs 1000 samples, p90 100, p50 20); with fewer samples the
/// tail is the worst sample. For a higher-is-better quantity the tail is
/// the low end (p1, p10, ...).
struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double tail = 0.0;
  std::string tail_label = "worst";
};

Summary Summarize(std::vector<double> samples, bool higher_is_better = false);
double Median(std::vector<double> samples);
/// Nearest-rank percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> samples, double p);

/// Lines per second at the fast end of the pass times: `lines` over
/// their kFastPercentile-th percentile. On the shared host the same pass
/// runs in two modes up to twice apart, each for seconds to minutes, and
/// the share of slow passes changes from run to run, so a median jumps
/// between the modes. The fast passes are the program's own speed; a
/// slower program makes every pass slower, the fast ones too.
inline constexpr double kFastPercentile = 10.0;
double FastRate(double lines, const std::vector<double>& seconds);

/// Moves the calling thread from CPU to CPU for single-threaded work. On
/// the shared host one CPU can run the same pass at little more than half
/// speed for a minute while the others do not, and the scheduler leaves
/// a lone thread where it is, so a whole run could measure that one CPU.
/// Pinning each pass to the next allowed CPU makes every run sample all
/// of them. Threads started while pinned inherit the pin, so multi-threaded
/// calls must run unpinned.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next allowed CPU.
  void PinNext();
  /// Gives the calling thread every allowed CPU again.
  void Unpin();

 private:
  std::vector<int> cpus_;  // allowed when constructed
  std::size_t next_ = 0;
};

/// In-memory span log. Spans nest by parent id; the benchmark writes the
/// log out once, after the run (Chrome trace-event JSON).
class SpanRecorder {
 public:
  struct Span {
    int id = 0;
    int parent = 0;  // 0: root
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span; returns its id (> 0). Thread-safe.
  int Begin(std::string_view name, int parent = 0);
  void End(int id);
  /// Records a span measured elsewhere.
  int Add(std::string_view name, int parent, std::int64_t start_ns,
          std::int64_t end_ns);

  std::vector<Span> spans() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, int parent = 0)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// FNV-1a 64 over file names and line bytes: the benchmark's output
/// digest, independent of the library's own hashing.
class Digest {
 public:
  void Add(std::string_view bytes);
  void AddFile(const config::ConfigFile& file);
  void AddFiles(const std::vector<config::ConfigFile>& files);
  std::string Hex() const;

 private:
  std::uint64_t state_ = 1469598103934665603ull;
};

std::size_t CountLines(const std::vector<config::ConfigFile>& files);
double PeakRssMb();

/// One row of the human-readable table.
struct Row {
  std::string name;
  std::string unit;
  Summary summary;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload hands back. `correct` covers run-level checks (every
/// pass produced every output, and repeated passes produced the same
/// digest); per-operation checks (pair audit, leak scan, HTTP status)
/// count in `failed`, with each failure named in `failures`.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::string input_summary;
  std::vector<Row> rows;
  std::vector<Metric> metrics;

  void AddRow(std::string name, std::string unit, std::vector<double> samples,
              bool higher_is_better = false) {
    rows.push_back({std::move(name), std::move(unit),
                    Summarize(std::move(samples), higher_is_better)});
  }
  void AddMetric(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// Workload entry points.
RunResult RunScaleSet(const Options& options, SpanRecorder& spans);
RunResult RunNetworkT1(const Options& options, SpanRecorder& spans);
RunResult RunDaemon(const Options& options, SpanRecorder& spans);

}  // namespace perfbench
