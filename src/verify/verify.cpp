#include "verify/verify.h"

#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "audit/canonical.h"
#include "core/rules.h"
#include "net/ipv4.h"
#include "net/special.h"
#include "regex/intersect.h"
#include "util/strings.h"
#include "verify/recognizer.h"

namespace confanon::verify {

namespace {

using audit::Anchor;
using audit::Finding;
using audit::Severity;

Anchor EntryAnchor(const PolicyEntry& entry) {
  return Anchor{entry.origin, entry.index};
}

std::string Where(Dialect dialect) {
  return std::string("[") + DialectName(dialect) + "] ";
}

bool IsSpecialAddressToken(std::string_view token) {
  const auto address = net::Ipv4Address::Parse(token);
  return address && net::IsSpecial(*address);
}

bool HasNonAlpha(std::string_view token) {
  for (const char c : token) {
    if (!util::IsAsciiAlpha(c)) return true;
  }
  return false;
}

/// First-occurrence index of every distinct token, in load order.
std::unordered_map<std::string_view, std::size_t> FirstOccurrences(
    const DialectPolicy& policy) {
  std::unordered_map<std::string_view, std::size_t> first;
  first.reserve(policy.entries.size());
  for (std::size_t i = 0; i < policy.entries.size(); ++i) {
    first.try_emplace(policy.entries[i].text, i);
  }
  return first;
}

/// Analysis 1 — language intersection. Proves each recognizer language
/// disjoint from the pass-list's verbatim language; on failure, every
/// offending entry gets a VER-001 error carrying the intersection's
/// shortest witness. Tokens flagged here are recorded in `leaky` so the
/// reachability pass does not double-report them as dead entries.
void AnalyzeIntersections(const DialectPolicy& policy,
                          audit::AuditResult& result,
                          std::unordered_set<std::string_view>& leaky,
                          std::uint64_t& dfa_states) {
  const auto first = FirstOccurrences(policy);
  // Two verbatim-language DFAs: all distinct tokens, and the subset that
  // does not parse as a special address (for recognizers exempting rule
  // I2's passthrough). Built once per dialect — the literal DFA is the
  // expensive automaton, the recognizers are tiny.
  std::vector<std::string> all_tokens;
  std::vector<std::string> non_special_tokens;
  all_tokens.reserve(first.size());
  non_special_tokens.reserve(first.size());
  bool any_special = false;
  for (const auto& [token, index] : first) {
    (void)index;
    all_tokens.emplace_back(token);
    if (IsSpecialAddressToken(token)) {
      any_special = true;  // rule I2 passes special addresses legitimately
    } else {
      non_special_tokens.emplace_back(token);
    }
  }
  const regex::Dfa all_dfa = regex::BuildDfaFromStrings(all_tokens).Minimize();
  const regex::Dfa non_special_dfa =
      any_special ? regex::BuildDfaFromStrings(non_special_tokens).Minimize()
                  : regex::Dfa(all_dfa);
  dfa_states += static_cast<std::uint64_t>(all_dfa.StateCount());
  if (any_special) {
    dfa_states += static_cast<std::uint64_t>(non_special_dfa.StateCount());
  }
  for (const Recognizer& recognizer : SensitiveRecognizers()) {
    const regex::Dfa& literal_dfa =
        recognizer.exempt_special_addresses ? non_special_dfa : all_dfa;
    dfa_states += static_cast<std::uint64_t>(recognizer.dfa.StateCount());
    const auto witness =
        regex::ShortestIntersectionWitness(recognizer.dfa, literal_dfa);
    if (!witness) continue;  // disjoint: this class is provably safe
    for (const auto& [token, index] : first) {
      if (recognizer.exempt_special_addresses &&
          IsSpecialAddressToken(token)) {
        continue;
      }
      if (!recognizer.dfa.FullMatch(token)) continue;
      leaky.insert(token);
      Finding finding;
      finding.rule_id = "VER-001";
      finding.severity = Severity::kError;
      finding.anchor = EntryAnchor(policy.entries[index]);
      finding.message =
          Where(policy.dialect) + "pass-list entry '" + std::string(token) +
          "' lies inside the " + recognizer.name +
          " language (normally transformed by " + recognizer.rule_hint +
          "); shortest witness of the intersection: '" + *witness +
          "'. The entry survives anonymization verbatim wherever it "
          "appears as a whole identifier.";
      result.findings.push_back(std::move(finding));
    }
  }
}

/// Analysis 2 — reachability and shadowing (VER-002..004).
void AnalyzeReachability(const PolicySpec& spec,
                         const DialectPolicy& policy,
                         const std::unordered_set<std::string_view>& leaky,
                         audit::AuditResult& result) {
  // VER-003: later loads of an already-present token are inert — the
  // pass-list is a set, so the second Add can only mislead whoever
  // maintains the list.
  std::unordered_map<std::string_view, std::size_t> seen;
  seen.reserve(policy.entries.size());
  for (std::size_t i = 0; i < policy.entries.size(); ++i) {
    const PolicyEntry& entry = policy.entries[i];
    const auto [it, inserted] = seen.try_emplace(entry.text, i);
    if (inserted) continue;
    const PolicyEntry& original = policy.entries[it->second];
    Finding finding;
    finding.rule_id = "VER-003";
    finding.severity = Severity::kWarning;
    finding.anchor = EntryAnchor(entry);
    finding.related = EntryAnchor(original);
    finding.message = Where(policy.dialect) + "entry '" + entry.text +
                      "' shadows an identical earlier entry (" +
                      original.origin + ":" +
                      std::to_string(original.index + 1) +
                      "); the later load is inert.";
    result.findings.push_back(std::move(finding));
  }

  // VER-002: the word tokenizer only ever tests maximal alphabetic runs
  // against the pass-list (paper rule T1), so an entry with any
  // non-alphabetic byte can never match a segment — it is only
  // reachable through whole-identifier lookups (file names, forced name
  // arguments, JunOS whole tokens).
  for (const auto& [token, index] : FirstOccurrences(policy)) {
    if (leaky.contains(token)) continue;  // already a VER-001 error
    if (!HasNonAlpha(token)) continue;
    Finding finding;
    finding.rule_id = "VER-002";
    finding.severity = Severity::kWarning;
    finding.anchor = EntryAnchor(policy.entries[index]);
    finding.message =
        Where(policy.dialect) + "entry '" + std::string(token) +
        "' contains non-alphabetic characters: T1 segmentation only "
        "tests alphabetic runs, so the entry is dead for word "
        "anonymization and reachable only via whole-identifier "
        "exemptions.";
    result.findings.push_back(std::move(finding));
  }

  // VER-004: a custom token pass-listed here but hashed by the other
  // dialect's engine — the same word survives in one corpus and turns
  // into a hash token in the other, breaking cross-dialect referential
  // integrity for mixed corpora.
  for (const DialectPolicy& other : spec.dialects) {
    if (other.dialect == policy.dialect) continue;
    std::unordered_set<std::string_view> other_tokens;
    other_tokens.reserve(other.entries.size());
    for (const PolicyEntry& entry : other.entries) {
      other_tokens.insert(entry.text);
    }
    std::unordered_set<std::string_view> reported;
    for (std::size_t i = policy.baseline_count; i < policy.entries.size();
         ++i) {
      const PolicyEntry& entry = policy.entries[i];
      if (other_tokens.contains(entry.text)) continue;
      if (!reported.insert(entry.text).second) continue;
      Finding finding;
      finding.rule_id = "VER-004";
      finding.severity = Severity::kWarning;
      finding.anchor = EntryAnchor(entry);
      finding.message =
          "custom entry '" + entry.text + "' is pass-listed in " +
          DialectName(policy.dialect) + " but hashed in " +
          DialectName(other.dialect) +
          " — a mixed corpus maps the same word two ways. (The JunOS "
          "engine honors only extra_pass_list, not a replaced IOS "
          "pass_list.)";
      result.findings.push_back(std::move(finding));
    }
  }
}

using enum core::Rule;
using enum Severity;

/// One transform rule's coverage obligation for the taint analysis.
struct RuleCoverage {
  core::Rule rule;
  Severity severity;
  const char* value_class;
};

/// Every disableable rule other than T1/T2 (which are handled by the
/// symbol-space closure) mapped to the value class it covers.
constexpr RuleCoverage kRuleCoverage[] = {
    {kStripBangComments, kWarning, "operator free text in '!' comments"},
    {kStripFreeText, kWarning, "free text (descriptions, remarks)"},
    {kStripBanners, kWarning, "login/motd banner text"},
    {kDialerStrings, kError, "dialer strings (phone numbers)"},
    {kSnmpStrings, kError, "SNMP community strings"},
    {kSecrets, kError, "passwords and secrets"},
    {kNameArguments, kError, "named-entity arguments (hostnames, map names)"},
    {kRouterBgp, kError, "router bgp ASN"},
    {kNeighborRemoteAs, kError, "neighbor remote-as ASN"},
    {kNeighborLocalAs, kError, "neighbor local-as ASN"},
    {kConfedIdentifier, kError, "confederation identifier ASN"},
    {kConfedPeers, kError, "confederation peer ASNs"},
    {kAsPathRegex, kError, "as-path regexp language"},
    {kAsPathPrepend, kError, "as-path prepend ASNs"},
    {kCommunityListLiteral, kError, "community-list literals"},
    {kCommunityListRegex, kError, "community-list regexp language"},
    {kSetCommunity, kError, "set community values"},
    {kSetExtcommunity, kError, "set extcommunity values"},
    {kAsnAudit, kNote, "residual-ASN audit (detection only)"},
    {kMapAddresses, kError, "IPv4 address literals"},
    {kSpecialPassthrough, kNote,
     "special-address passthrough (masks stay verbatim; disabling only maps "
     "more)"},
    {kMapPrefixes, kError, "CIDR prefixes"},
    {kAddressMaskPairs, kError, "address/mask pairs"},
    {kAddressWildcardPairs, kError, "address/wildcard pairs"},
    {kPlainAddressArgs, kError, "plain address arguments"},
    {kSubnetPreload, kNote,
     "subnet-address preload (consistency, not secrecy)"},
};

/// Analysis 3 — taint closure over symbol spaces (VER-005..007). Only
/// the IOS policy carries a disable surface; the JunOS engine has none.
void AnalyzeTaint(const DialectPolicy& policy, audit::AuditResult& result) {
  if (policy.disabled_rules.empty()) return;

  const Anchor rules_anchor{"<rules>", Anchor::kNoLine};

  // Every IOS rule is a toggle; a JunOS rule's name toggles nothing.
  core::RuleSet disabled;
  for (const std::string& name : policy.disabled_rules) {
    const std::optional<core::Rule> rule = core::RuleNamed(name);
    if (rule && !core::IsJunosRule(*rule)) {
      disabled.set(core::RuleIndex(*rule));
      continue;
    }
    Finding finding;
    finding.rule_id = "VER-007";
    finding.severity = Severity::kWarning;
    finding.anchor = rules_anchor;
    finding.message = Where(policy.dialect) + "disabled_rules names '" +
                      name +
                      "', which is not a known rule — likely a typo, and "
                      "the intended rule stays enabled.";
    result.findings.push_back(std::move(finding));
  }

  // T1/T2 are the only transforms covering operator-chosen names, and
  // the audit's nine def/use symbol spaces are exactly where such names
  // live. With either disabled, every space is a taint source with no
  // sink.
  const bool words_covered =
      !disabled[core::RuleIndex(kSegmentWords)] &&
      !disabled[core::RuleIndex(kPasslistHash)];
  if (!words_covered) {
    constexpr audit::SymbolSpace kSpaces[] = {
        audit::SymbolSpace::kAcl,           audit::SymbolSpace::kRouteMap,
        audit::SymbolSpace::kPrefixList,    audit::SymbolSpace::kCommunityList,
        audit::SymbolSpace::kAsPathList,    audit::SymbolSpace::kPeerGroup,
        audit::SymbolSpace::kInterface,     audit::SymbolSpace::kKeyChain,
        audit::SymbolSpace::kNatPool,
    };
    for (const audit::SymbolSpace space : kSpaces) {
      Finding finding;
      finding.rule_id = "VER-005";
      finding.severity = Severity::kError;
      finding.anchor = rules_anchor;
      finding.message =
          Where(policy.dialect) + "symbol space '" +
          audit::SymbolSpaceName(space) +
          "' carries operator-named identifiers but its only covering "
          "transform (T1/T2 word hashing) is disabled: def/use edges "
          "smuggle raw names into the output.";
      result.findings.push_back(std::move(finding));
    }
  }

  for (const RuleCoverage& coverage : kRuleCoverage) {
    if (!disabled[core::RuleIndex(coverage.rule)]) continue;
    Finding finding;
    finding.rule_id = "VER-006";
    finding.severity = coverage.severity;
    finding.anchor = rules_anchor;
    finding.message = Where(policy.dialect) + "rule " +
                      std::string(core::RuleName(coverage.rule)) +
                      " is disabled, leaving its value class uncovered: " +
                      coverage.value_class + ".";
    result.findings.push_back(std::move(finding));
  }
}

}  // namespace

audit::AuditResult VerifyPolicy(const PolicySpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  audit::AuditResult result;
  std::uint64_t entries = 0;
  std::uint64_t distinct = 0;
  std::uint64_t dfa_states = 0;
  for (const DialectPolicy& policy : spec.dialects) {
    entries += policy.entries.size();
    distinct += FirstOccurrences(policy).size();
    std::unordered_set<std::string_view> leaky;
    AnalyzeIntersections(policy, result, leaky, dfa_states);
    AnalyzeReachability(spec, policy, leaky, result);
    AnalyzeTaint(policy, result);
  }
  result.stats["verify.entries"] = entries;
  result.stats["verify.distinct_tokens"] = distinct;
  result.stats["verify.findings"] = result.findings.size();
  result.stats["verify.dfa_states"] = dfa_states;
  result.stats["verify.verify_ns"] = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

audit::AuditResult VerifyEngineOptions(
    const core::AnonymizerOptions& options) {
  return VerifyPolicy(PolicyFromOptions(options));
}

core::PolicyVerdict VerdictOf(const audit::AuditResult& result) {
  core::PolicyVerdict verdict;
  verdict.verified = true;
  const Finding* first = nullptr;
  for (const Finding& finding : result.findings) {
    switch (finding.severity) {
      case Severity::kError:
        ++verdict.errors;
        break;
      case Severity::kWarning:
        ++verdict.warnings;
        break;
      case Severity::kNote:
        ++verdict.notes;
        break;
    }
    if (first == nullptr || finding.severity < first->severity) {
      first = &finding;
    }
  }
  if (first != nullptr) {
    verdict.first_finding = first->ToString();
  }
  return verdict;
}

namespace {

struct SpecHash {
  std::size_t operator()(const PolicySpec& spec) const {
    std::size_t seed = spec.dialects.size();
    const auto mix = [&seed](std::size_t value) {
      seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    };
    const std::hash<std::string> hash;
    for (const DialectPolicy& policy : spec.dialects) {
      mix(static_cast<std::size_t>(policy.dialect));
      mix(policy.baseline_count);
      for (const PolicyEntry& entry : policy.entries) {
        mix(hash(entry.text));
        mix(hash(entry.origin));
        mix(entry.index);
      }
      for (const std::string& rule : policy.disabled_rules) mix(hash(rule));
    }
    return seed;
  }
};

struct VerdictMemo {
  std::mutex mutex;
  std::unordered_map<PolicySpec, core::PolicyVerdict, SpecHash> verdicts;
  std::uint64_t hits = 0;
};

VerdictMemo& Memo() {
  static VerdictMemo memo;
  return memo;
}

}  // namespace

core::PolicyVerdict VerdictFor(const PolicySpec& spec) {
  VerdictMemo& memo = Memo();
  // Verifying under the lock makes concurrent first calls for one spec
  // verify it once; a verification takes milliseconds, and a process
  // builds few distinct context policies.
  const std::lock_guard lock(memo.mutex);
  if (const auto it = memo.verdicts.find(spec); it != memo.verdicts.end()) {
    ++memo.hits;
    return it->second;
  }
  return memo.verdicts.emplace(spec, VerdictOf(VerifyPolicy(spec)))
      .first->second;
}

VerdictMemoStats VerdictMemoSnapshot() {
  VerdictMemo& memo = Memo();
  const std::lock_guard lock(memo.mutex);
  return {memo.verdicts.size(), memo.hits};
}

}  // namespace confanon::verify
