// The static policy verifier: proves an anonymization policy leak-free
// before a single config line is processed.
//
// Three analyses over a PolicySpec (no input corpus required):
//
//   1. Language intersection (VER-001): every sensitive recognizer's
//      language (recognizer.h) must be disjoint from the pass-list's
//      verbatim language. Both are DFAs, so the proof is product-walk
//      emptiness (regex/intersect.h); a non-empty intersection is
//      reported with a shortest witness string that the tests feed back
//      through the real anonymizer to demonstrate the leak.
//
//   2. Rule reachability/shadowing (VER-002..004): entries unmatchable
//      under the tokenizer's boundary rules (T1 only tests maximal
//      alphabetic runs), entries shadowed by an earlier load of the same
//      token, and custom tokens passed in one dialect but hashed in the
//      other.
//
//   3. Taint closure over symbol spaces (VER-005..007): every one of
//      audit/canonical.h's nine symbol spaces can carry operator-named
//      identifiers, whose only covering transform is T1/T2; disabling a
//      transform rule leaves its value class uncovered, so each disabled
//      rule is mapped to the class it covers and reported.
//
// Findings reuse audit::Finding and flow through the same SARIF emitter
// as the corpus auditor; `confanon_audit --policy` is the CLI surface,
// and pipeline::MakeServiceContext installs the verdict on the
// ServiceContext so session creation gates on it. The verdict is a pure
// function of the PolicySpec, so VerdictFor computes it once per
// distinct spec per process.
#pragma once

#include <cstddef>
#include <cstdint>

#include "audit/finding.h"
#include "core/session.h"
#include "verify/policy.h"

namespace confanon::verify {

/// Finding codes (also in audit::RuleCatalog() for SARIF):
///   VER-001 error    pass-list entry inside a sensitive language
///   VER-002 warning  entry unreachable under tokenizer boundary rules
///   VER-003 warning  entry shadowed by an earlier load of the token
///   VER-004 warning  token passed in one dialect, hashed in the other
///   VER-005 error    symbol space uncovered (T1/T2 disabled)
///   VER-006 varies   value class uncovered (transform rule disabled)
///   VER-007 warning  unknown rule name in disabled_rules

/// Runs all three analyses. Findings are ordered dialect-major in the
/// order the analyses run; result.stats carries the verify.* counters
/// ("verify.entries", "verify.distinct_tokens", "verify.findings",
/// "verify.dfa_states", "verify.verify_ns").
audit::AuditResult VerifyPolicy(const PolicySpec& spec);

/// Convenience: PolicyFromOptions + VerifyPolicy.
audit::AuditResult VerifyEngineOptions(const core::AnonymizerOptions& options);

/// Folds a verification result into the verdict ServiceContext gates
/// session creation on. first_finding is the most severe finding's
/// rendered text.
core::PolicyVerdict VerdictOf(const audit::AuditResult& result);

/// VerdictOf(VerifyPolicy(spec)), memoized process-wide: the first call
/// for a spec verifies it, later calls with an equal spec (compared in
/// full, not by hash) return the recorded verdict. Thread-safe;
/// concurrent first calls for one spec verify it once. The memo grows by
/// one entry per distinct spec, so it is meant for context policies —
/// untrusted per-request lists go through VerifyPolicy directly.
core::PolicyVerdict VerdictFor(const PolicySpec& spec);

/// The memo's size and how many VerdictFor calls it answered.
struct VerdictMemoStats {
  std::size_t entries = 0;
  std::uint64_t hits = 0;
};
VerdictMemoStats VerdictMemoSnapshot();

}  // namespace confanon::verify
