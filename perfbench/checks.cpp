#include "checks.h"

#include <algorithm>
#include <cmath>

#include "audit/audit.h"

namespace perfbench {

namespace audit = confanon::audit;
namespace core = confanon::core;

CheckOutcome CheckOutputs(const std::string& label,
                          const std::vector<config::ConfigFile>& pre,
                          const std::vector<config::ConfigFile>& post,
                          const core::LeakRecord& leaks, int threads) {
  CheckOutcome out;
  audit::AuditOptions options;
  options.threads = threads;
  const auto start = Clock::now();
  const audit::AuditResult pair = audit::ComparePair(pre, post, options);
  out.pair_s = SecondsSince(start);
  out.pair_errors = pair.ErrorCount();
  for (const audit::Finding& finding : pair.findings) {
    if (finding.severity != audit::Severity::kError) continue;
    out.bad_files.insert(finding.anchor.file);
    out.findings.push_back(label + ": " + finding.ToString());
  }
  for (const core::LeakFinding& leak : core::LeakDetector::Scan(post, leaks)) {
    // Recorded ASNs collide with unrelated integers by design (the
    // paper's AS 1 case); like the repo's end-to-end tests, only hashed
    // words and addresses found in the output are failures.
    if (leak.kind == core::LeakFinding::Kind::kAsn) {
      ++out.asn_matches;
      continue;
    }
    out.bad_files.insert(leak.file);
    out.findings.push_back(label + ": " + leak.file + ":" +
                           std::to_string(leak.line_number + 1) +
                           " leak of '" + leak.matched + "' in '" + leak.line +
                           "'");
  }
  return out;
}

void SetupSampler::KeepPace(double share) {
  const double due = std::ceil(kSetupRepeats * std::min(share, 1.0));
  const auto target = std::max<std::size_t>(1, static_cast<std::size_t>(due));
  while (seconds_.size() < target) {
    cpus_.PinNext();
    const auto start = Clock::now();
    setup_();
    seconds_.push_back(SecondsSince(start));
    cpus_.Unpin();
  }
}

std::vector<double> TimeRepeated(int repeats,
                                 const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return seconds;
}

}  // namespace perfbench
