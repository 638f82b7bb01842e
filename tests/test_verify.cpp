// The static policy verifier's contract (docs/VERIFY.md): a clean
// verdict on the builtin policies, one finding per seeded contradiction,
// and — the load-bearing bit — every VER-001 witness string, fed through
// the REAL anonymizer, actually leaks. The file-name channel is the
// demonstration vehicle: core::Anonymizer passes a file name verbatim
// iff the whole name is pass-listed, so a witness-named file keeps its
// name under the bad policy and is hashed under the builtin one.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "audit/finding.h"
#include "audit/sarif.h"
#include "config/document.h"
#include "core/anonymizer.h"
#include "core/session.h"
#include "pipeline/pipeline.h"
#include "verify/policy.h"
#include "verify/recognizer.h"
#include "verify/verify.h"

namespace confanon {
namespace {

using audit::AuditResult;
using audit::Finding;
using audit::Severity;

/// Options with one extra pass-list token on top of the builtins — the
/// daemon's per-tenant shape, and the smallest seeded contradiction.
core::AnonymizerOptions WithExtra(std::string_view token) {
  core::AnonymizerOptions options;
  options.extra_pass_list.Add(token);
  return options;
}

/// The findings with `rule_id`, in report order.
std::vector<const Finding*> FindAll(const AuditResult& result,
                                    std::string_view rule_id) {
  std::vector<const Finding*> out;
  for (const Finding& finding : result.findings) {
    if (finding.rule_id == rule_id) out.push_back(&finding);
  }
  return out;
}

/// Extracts the quoted witness from a VER-001 message ("shortest witness
/// of the intersection: '...'").
std::string WitnessOf(const Finding& finding) {
  const std::string_view marker = "shortest witness of the intersection: '";
  const std::size_t start = finding.message.find(marker);
  if (start == std::string::npos) return {};
  const std::size_t from = start + marker.size();
  const std::size_t end = finding.message.find('\'', from);
  if (end == std::string::npos) return {};
  return finding.message.substr(from, end - from);
}

/// The file-name the real anonymizer emits for a file named `name` under
/// `options` — the whole-identifier pass-list channel VER-001 is about.
std::string AnonymizedName(const core::AnonymizerOptions& options,
                           const std::string& name) {
  core::Anonymizer engine(options);
  return engine.AnonymizeFile(config::ConfigFile(name, {"interface x"}))
      .name();
}

/// Asserts the witness leaks under `bad` (name survives verbatim) and
/// does NOT leak under the builtin policy (name is hashed) — i.e. the
/// verifier's proof corresponds to a real end-to-end behavior.
void ExpectWitnessLeaks(const core::AnonymizerOptions& bad,
                        const std::string& witness) {
  ASSERT_FALSE(witness.empty());
  core::AnonymizerOptions salted_bad = bad;
  salted_bad.salt = "witness-check";
  EXPECT_EQ(AnonymizedName(salted_bad, witness), witness)
      << "witness '" << witness << "' should survive the bad policy";
  core::AnonymizerOptions builtin;
  builtin.salt = "witness-check";
  EXPECT_NE(AnonymizedName(builtin, witness), witness)
      << "witness '" << witness << "' should hash under the builtin policy";
}

// --- clean baselines ----------------------------------------------------

TEST(VerifyPolicy, BuiltinPoliciesAreClean) {
  const AuditResult result = verify::VerifyEngineOptions({});
  EXPECT_TRUE(result.findings.empty()) << result.ToText();
  EXPECT_GT(result.stats.at("verify.entries"), 1000u);
  EXPECT_GT(result.stats.at("verify.dfa_states"), 0u);
  const core::PolicyVerdict verdict = verify::VerdictOf(result);
  EXPECT_TRUE(verdict.verified);
  EXPECT_TRUE(verdict.Clean());
  EXPECT_EQ(verdict.notes, 0u);
}

TEST(VerifyPolicy, BothDialectsModeledAndClean) {
  const verify::PolicySpec spec = verify::BuiltinPolicy();
  ASSERT_EQ(spec.dialects.size(), 2u);
  EXPECT_EQ(spec.dialects[0].dialect, verify::Dialect::kIos);
  EXPECT_EQ(spec.dialects[1].dialect, verify::Dialect::kJunos);
  // Every builtin entry is baseline — nothing custom to flag.
  for (const verify::DialectPolicy& policy : spec.dialects) {
    EXPECT_EQ(policy.baseline_count, policy.entries.size());
  }
  EXPECT_TRUE(verify::VerifyPolicy(spec).findings.empty());
}

// --- seeded contradictions: one per sensitive recognizer ----------------

TEST(VerifyPolicy, Ipv4EntryYieldsLeakWitness) {
  const core::AnonymizerOptions bad = WithExtra("10.0.0.1");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  // Both dialects inherit the extras, so both report the channel.
  ASSERT_EQ(findings.size(), 2u) << result.ToText();
  for (const Finding* finding : findings) {
    EXPECT_EQ(finding->severity, Severity::kError);
    EXPECT_NE(finding->message.find("ipv4-literal"), std::string::npos);
  }
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, PublicAsnEntryYieldsLeakWitness) {
  const core::AnonymizerOptions bad = WithExtra("64000");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_NE(findings.front()->message.find("asn-public-literal"),
            std::string::npos);
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, CommunityEntryYieldsLeakWitness) {
  const core::AnonymizerOptions bad = WithExtra("64496:100");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_NE(findings.front()->message.find("community-literal"),
            std::string::npos);
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, HashShapedEntryYieldsLeakWitness) {
  // An entry shaped like the engine's own output ("h" + 10 hex digits)
  // would let a forged mapping ride through verbatim.
  const core::AnonymizerOptions bad = WithExtra("h0123456789");
  const AuditResult result = verify::VerifyEngineOptions(bad);
  const auto findings = FindAll(result, "VER-001");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_NE(findings.front()->message.find("hash-token"), std::string::npos);
  ExpectWitnessLeaks(bad, WitnessOf(*findings.front()));
}

TEST(VerifyPolicy, SpecialAddressesAreExemptFromIpv4Findings) {
  // Netmasks/wildcards pass through legitimately under rule I2; listing
  // one is redundant but not a leak channel.
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("255.255.255.0"));
  EXPECT_TRUE(FindAll(result, "VER-001").empty()) << result.ToText();
}

// --- reachability / shadowing -------------------------------------------

TEST(VerifyPolicy, DeadNonAlphaEntryReported) {
  // T1 segmentation only ever tests alphabetic runs, so "loopback0" can
  // never match a word; the entry is live only for whole-identifier
  // exemptions.
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("loopback0"));
  const auto findings = FindAll(result, "VER-002");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  EXPECT_EQ(findings.front()->severity, Severity::kWarning);
  EXPECT_NE(findings.front()->message.find("loopback0"), std::string::npos);
}

TEST(VerifyPolicy, ShadowedEntryAnchorsBothLoads) {
  // "loopback" is already in the builtin corpus; the tenant's re-add is
  // inert and the finding points back at the first load.
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("loopback"));
  const auto findings = FindAll(result, "VER-003");
  ASSERT_FALSE(findings.empty()) << result.ToText();
  const Finding& finding = *findings.front();
  EXPECT_EQ(finding.severity, Severity::kWarning);
  EXPECT_EQ(finding.anchor.file, verify::kOriginExtra);
  EXPECT_NE(finding.message.find(verify::kOriginBuiltin), std::string::npos);
}

TEST(VerifyPolicy, CrossDialectConflictReported) {
  // Replacing the IOS pass-list outright (not extending it) leaves the
  // JunOS engine — which ignores options.pass_list — without the custom
  // token: passed in IOS, hashed in JunOS.
  core::AnonymizerOptions options;
  options.pass_list.Add("zephyrix");
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-004");
  ASSERT_EQ(findings.size(), 1u) << result.ToText();
  EXPECT_NE(findings.front()->message.find("zephyrix"), std::string::npos);
  EXPECT_NE(findings.front()->message.find("junos"), std::string::npos);
}

// --- taint closure over the disable surface ----------------------------

TEST(VerifyPolicy, DisablingWordHashUncoversEverySymbolSpace) {
  core::AnonymizerOptions options;
  options.disabled_rules.emplace(core::RuleName(core::Rule::kPasslistHash));
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-005");
  // Nine audit symbol spaces, IOS only (JunOS has no disable surface).
  EXPECT_EQ(findings.size(), 9u) << result.ToText();
  for (const Finding* finding : findings) {
    EXPECT_EQ(finding->severity, Severity::kError);
  }
}

TEST(VerifyPolicy, DisabledTransformRuleMapsToValueClass) {
  core::AnonymizerOptions options;
  options.disabled_rules.emplace(core::RuleName(core::Rule::kSnmpStrings));
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-006");
  ASSERT_EQ(findings.size(), 1u) << result.ToText();
  EXPECT_EQ(findings.front()->severity, Severity::kError);
  EXPECT_NE(findings.front()->message.find("SNMP"), std::string::npos);
}

TEST(VerifyPolicy, UnknownDisabledRuleNameIsFlagged) {
  core::AnonymizerOptions options;
  options.disabled_rules.insert("M9.no-such-rule");
  const AuditResult result = verify::VerifyEngineOptions(options);
  const auto findings = FindAll(result, "VER-007");
  ASSERT_EQ(findings.size(), 1u) << result.ToText();
  EXPECT_EQ(findings.front()->severity, Severity::kWarning);
}

// --- SARIF --------------------------------------------------------------

TEST(VerifySarif, FindingsFlowThroughTheSharedEmitter) {
  const AuditResult result =
      verify::VerifyEngineOptions(WithExtra("10.0.0.1"));
  ASSERT_FALSE(result.findings.empty());
  const std::string sarif = audit::ToSarif(result);
  EXPECT_NE(sarif.find("\"VER-001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  // Balanced structure (the full JSON grammar is covered by the audit
  // suite's checker; the verifier reuses that emitter verbatim).
  std::ptrdiff_t depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < sarif.size(); ++i) {
    const char c = sarif[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // The VER-* catalogue rides along in the driver descriptor.
  for (const char* id :
       {"VER-001", "VER-002", "VER-003", "VER-004", "VER-005", "VER-006",
        "VER-007"}) {
    EXPECT_NE(sarif.find(id), std::string::npos) << id;
  }
}

// --- the ServiceContext gate --------------------------------------------

TEST(PolicyGate, LeakyPolicyRefusesSessionCreation) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  options.base.extra_pass_list.Add("10.0.0.1");
  const auto context = pipeline::MakeServiceContext(std::move(options));
  EXPECT_GT(context->policy_verdict().errors, 0u);
  EXPECT_THROW((void)context->CreateSession(), core::PolicyError);
  try {
    (void)context->CreateSession();
  } catch (const core::PolicyError& error) {
    EXPECT_NE(std::string(error.what()).find("VER-001"), std::string::npos);
    EXPECT_GT(error.verdict().errors, 0u);
  }
}

TEST(PolicyGate, WarningsGateUnlessAllowed) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  options.base.extra_pass_list.Add("loopback0");  // VER-002 warning
  {
    core::ServiceOptions strict = options;
    const auto context = pipeline::MakeServiceContext(std::move(strict));
    EXPECT_THROW((void)context->CreateSession(), core::PolicyError);
  }
  {
    core::ServiceOptions relaxed = options;
    relaxed.allow_policy_warnings = true;
    const auto context = pipeline::MakeServiceContext(std::move(relaxed));
    EXPECT_NO_THROW((void)context->CreateSession());
  }
}

TEST(PolicyGate, UnverifiedContextGatesNothing) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  options.base.extra_pass_list.Add("10.0.0.1");
  options.verify_policy = false;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  EXPECT_FALSE(context->policy_verdict().verified);
  EXPECT_NO_THROW((void)context->CreateSession());
}

TEST(PolicyGate, SessionExtrasAreImmutableAfterFirstRequest) {
  core::ServiceOptions options;
  options.base.salt = "gate";
  const auto context = pipeline::MakeServiceContext(std::move(options));
  const auto session = context->CreateSession();

  passlist::PassList extras;
  extras.Add("zephyrix");
  session->SetExtraPassList(std::move(extras));

  // The session's extras reach the engines built over it.
  pipeline::CorpusPipeline pipeline(context, session);
  const auto out = pipeline.AnonymizeCorpus(
      {config::ConfigFile("r1", {"interface zephyrix"})});
  session->MergeRequest(core::AnonymizationReport{}, core::LeakRecord{});
  EXPECT_NE(out.front().lines()[0].find("zephyrix"), std::string::npos);

  passlist::PassList late;
  late.Add("quorvane");
  EXPECT_THROW(session->SetExtraPassList(std::move(late)), std::logic_error);
}

// --- the process-wide verdict memo ---------------------------------------

TEST(VerdictMemo, OneEntryApartGetsItsOwnVerdictAndSaltDoesNotMatter) {
  core::ServiceOptions options;
  options.base.salt = "memo";
  const auto builtin = pipeline::MakeServiceContext(options);
  ASSERT_TRUE(builtin->policy_verdict().verified);
  EXPECT_TRUE(builtin->policy_verdict().Clean());

  // Equal options under another salt: the same policy, so a memo hit.
  const verify::VerdictMemoStats before = verify::VerdictMemoSnapshot();
  core::ServiceOptions resalted = options;
  resalted.base.salt = "another-salt";
  const auto again = pipeline::MakeServiceContext(resalted);
  const verify::VerdictMemoStats after = verify::VerdictMemoSnapshot();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_TRUE(again->policy_verdict().Clean());
  EXPECT_NO_THROW((void)again->CreateSession());

  // One entry more — a VER-001 token of the bad fixture that no other
  // context in this binary uses, so the spec is new whatever ran
  // first — is a new policy with its own error verdict, never the
  // memoized clean one.
  core::ServiceOptions leaky = options;
  leaky.base.extra_pass_list.Add("64496:100");
  const auto bad = pipeline::MakeServiceContext(leaky);
  EXPECT_EQ(verify::VerdictMemoSnapshot().entries, after.entries + 1);
  EXPECT_GT(bad->policy_verdict().errors, 0u);
  EXPECT_NE(bad->policy_verdict().first_finding.find("VER-001"),
            std::string::npos);
  EXPECT_THROW((void)bad->CreateSession(), core::PolicyError);
}

TEST(VerdictMemo, MatchesALiveVerification) {
  for (const char* token : {"zephyrix", "loopback0", "64000", "interface"}) {
    const verify::PolicySpec spec =
        verify::PolicyFromOptions(WithExtra(token));
    const core::PolicyVerdict live =
        verify::VerdictOf(verify::VerifyPolicy(spec));
    for (int round = 0; round < 2; ++round) {
      const core::PolicyVerdict memo = verify::VerdictFor(spec);
      EXPECT_TRUE(memo.verified) << token;
      EXPECT_EQ(memo.errors, live.errors) << token;
      EXPECT_EQ(memo.warnings, live.warnings) << token;
      EXPECT_EQ(memo.notes, live.notes) << token;
      EXPECT_EQ(memo.first_finding, live.first_finding) << token;
    }
  }
}

TEST(VerdictMemo, ConcurrentFirstCallsVerifyOnce) {
  // A clean token no other test puts in a context policy: the spec is
  // new to the memo whatever ran first.
  const verify::PolicySpec spec =
      verify::PolicyFromOptions(WithExtra("vexillarium"));
  const verify::VerdictMemoStats before = verify::VerdictMemoSnapshot();
  constexpr int kThreads = 4;
  std::vector<core::PolicyVerdict> verdicts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      verdicts[static_cast<std::size_t>(t)] = verify::VerdictFor(spec);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const verify::VerdictMemoStats after = verify::VerdictMemoSnapshot();
  EXPECT_EQ(after.entries, before.entries + 1);
  EXPECT_EQ(after.hits, before.hits + kThreads - 1);
  for (const core::PolicyVerdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.verified);
    EXPECT_TRUE(verdict.Clean());
  }
}

}  // namespace
}  // namespace confanon
