// Output checks that do not trust the anonymizer's own accounting: the
// map-free pair audit (pre vs post isomorphism up to renaming) and the
// leak scan for recorded originals in the output.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "config/document.h"
#include "core/leak_detector.h"

namespace perfbench {

struct CheckOutcome {
  /// Pre-side names of files with an error finding or a leak.
  std::set<std::string> bad_files;
  /// Every finding, rendered "label: anchor rule message".
  std::vector<std::string> findings;
  /// Error-severity pair-audit findings, and the audit's wall time.
  std::size_t pair_errors = 0;
  double pair_s = 0.0;
  /// Output lines matching a recorded public ASN (adjudicable, not failed).
  std::size_t asn_matches = 0;
};

/// Runs audit::ComparePair(pre, post) at `threads` and
/// core::LeakDetector::Scan(post, leaks). `label` prefixes each finding.
CheckOutcome CheckOutputs(const std::string& label,
                          const std::vector<config::ConfigFile>& pre,
                          const std::vector<config::ConfigFile>& post,
                          const confanon::core::LeakRecord& leaks,
                          int threads);

/// Set-ups timed per run; setup_s is their median. One set-up costs
/// about 0.13 s; a median of five spread by 11-21% between runs.
inline constexpr int kSetupRepeats = 25;

/// Times a set-up kSetupRepeats times, spread over the run. On a shared
/// host one set-up takes 0.10 s for some seconds and 0.14 s for the next
/// few, so a burst of set-ups at the start sees one moment only.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> setup)
      : setup_(std::move(setup)) {}

  /// Times set-ups until their count keeps pace with `share` (0 to 1) of
  /// the window; the first call times at least one.
  void KeepPace(double share);
  void Finish() { KeepPace(1.0); }
  const std::vector<double>& seconds() const { return seconds_; }

 private:
  std::function<void()> setup_;
  CpuRotation cpus_;  // set-up is single-threaded: each one on the next CPU
  std::vector<double> seconds_;
};

/// Runs `setup` `repeats` times and returns each run's seconds.
std::vector<double> TimeRepeated(int repeats,
                                 const std::function<void()>& setup);

}  // namespace perfbench
