#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : (samples[mid - 1] + samples[mid]) / 2.0;
}

double FastRate(double lines, const std::vector<double>& seconds) {
  if (seconds.empty()) return 0.0;
  return lines / Percentile(seconds, kFastPercentile);
}

namespace {

void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);  // best effort
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CpuRotation::PinNext() {
  if (cpus_.size() < 2) return;
  SetAffinity({cpus_[next_]});
  next_ = (next_ + 1) % cpus_.size();
}

void CpuRotation::Unpin() {
  if (cpus_.size() >= 2) SetAffinity(cpus_);
}

Summary Summarize(std::vector<double> samples, bool higher_is_better) {
  Summary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  out.median = Median(samples);
  // The highest percentile with at least ten samples beyond it.
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(samples.size()) * (100.0 - p) / 100.0 >= 10.0) {
      const double at = higher_is_better ? 100.0 - p : p;
      out.tail = Percentile(samples, at);
      char label[16];
      std::snprintf(label, sizeof(label), "p%g", at);
      out.tail_label = label;
      return out;
    }
  }
  out.tail = higher_is_better
                 ? *std::min_element(samples.begin(), samples.end())
                 : *std::max_element(samples.begin(), samples.end());
  return out;
}

int SpanRecorder::Begin(std::string_view name, int parent) {
  const std::int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<int>(spans_.size()) + 1;
  span.parent = parent;
  span.name = std::string(name);
  span.start_ns = now;
  span.end_ns = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(int id) {
  const std::int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id) - 1].end_ns = now;
}

int SpanRecorder::Add(std::string_view name, int parent,
                      std::int64_t start_ns, std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<int>(spans_.size()) + 1;
  span.parent = parent;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::vector<Span> all = spans();
  const std::int64_t epoch = all.empty() ? 0 : all.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d}}%s\n",
                  span.name.c_str(),
                  static_cast<double>(span.start_ns - epoch) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.id, span.parent, i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

void Digest::Add(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ull;
  }
}

void Digest::AddFile(const config::ConfigFile& file) {
  Add(file.name());
  Add(std::string_view("\0", 1));
  for (const std::string_view line : file.lines()) {
    Add(line);
    Add("\n");
  }
}

void Digest::AddFiles(const std::vector<config::ConfigFile>& files) {
  for (const config::ConfigFile& file : files) AddFile(file);
}

std::string Digest::Hex() const {
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(state_));
  return out;
}

std::size_t CountLines(const std::vector<config::ConfigFile>& files) {
  std::size_t lines = 0;
  for (const config::ConfigFile& file : files) lines += file.LineCount();
  return lines;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
