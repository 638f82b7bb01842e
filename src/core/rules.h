// The rule table: every anonymization rule of both dialects as one dense
// enum, and the one table of their stable names. Section 4.2 counts the
// 28 IOS rules (T, C, M, A and I); the 13 JunOS rules carry a "J." prefix.
// Code speaks Rule; names appear only at the edges (report JSON and text,
// rule counters, provenance, trace spans, verifier messages and the
// parsing of disabled_rules).
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace confanon::core {

// X(enumerator, name) for every rule, in name order: any listing in enum
// order is sorted by name.
#define CONFANON_RULES(X)                               \
  X(kRouterBgp, "A1.router-bgp")                        \
  X(kSetCommunity, "A10.set-community")                 \
  X(kSetExtcommunity, "A11.set-extcommunity")           \
  X(kAsnAudit, "A12.asn-audit")                         \
  X(kNeighborRemoteAs, "A2.neighbor-remote-as")         \
  X(kNeighborLocalAs, "A3.neighbor-local-as")           \
  X(kConfedIdentifier, "A4.confederation-identifier")   \
  X(kConfedPeers, "A5.confederation-peers")             \
  X(kAsPathRegex, "A6.as-path-regex")                   \
  X(kAsPathPrepend, "A7.as-path-prepend")               \
  X(kCommunityListLiteral, "A8.community-list-literal") \
  X(kCommunityListRegex, "A9.community-list-regex")     \
  X(kStripBangComments, "C1.strip-bang-comments")       \
  X(kStripFreeText, "C2.strip-free-text")               \
  X(kStripBanners, "C3.strip-banners")                  \
  X(kMapAddresses, "I1.map-addresses")                  \
  X(kSpecialPassthrough, "I2.special-passthrough")      \
  X(kMapPrefixes, "I3.map-cidr-prefixes")               \
  X(kAddressMaskPairs, "I4.address-mask-pairs")         \
  X(kAddressWildcardPairs, "I5.address-wildcard-pairs") \
  X(kPlainAddressArgs, "I6.plain-address-args")         \
  X(kSubnetPreload, "I7.subnet-preload")                \
  X(kJunosAsPathPrepend, "J.as-path-prepend")           \
  X(kJunosAsPathRegex, "J.as-path-regex")               \
  X(kJunosAsnStatement, "J.asn-statement")              \
  X(kJunosCommunityLiteral, "J.community-literal")      \
  X(kJunosCommunityRegex, "J.community-regex")          \
  X(kJunosMapAddresses, "J.map-addresses")              \
  X(kJunosMapPrefixes, "J.map-prefixes")                \
  X(kJunosNameArguments, "J.name-arguments")            \
  X(kJunosPasslistHash, "J.passlist-hash")              \
  X(kJunosSpecialPassthrough, "J.special-passthrough")  \
  X(kJunosStripBlockComment, "J.strip-block-comment")   \
  X(kJunosStripFreeText, "J.strip-free-text")           \
  X(kJunosStripHashComment, "J.strip-hash-comment")     \
  X(kDialerStrings, "M1.dialer-strings")                \
  X(kSnmpStrings, "M2.snmp-strings")                    \
  X(kSecrets, "M3.secrets")                             \
  X(kNameArguments, "M4.name-arguments")                \
  X(kSegmentWords, "T1.segment-words")                  \
  X(kPasslistHash, "T2.passlist-hash")

enum class Rule : std::uint8_t {
#define CONFANON_RULE_ENUMERATOR(id, name) id,
  CONFANON_RULES(CONFANON_RULE_ENUMERATOR)
#undef CONFANON_RULE_ENUMERATOR
};

/// Stable rule names, indexed by Rule.
inline constexpr std::array kRuleNames = {
#define CONFANON_RULE_NAME(id, name) std::string_view(name),
    CONFANON_RULES(CONFANON_RULE_NAME)
#undef CONFANON_RULE_NAME
};
#undef CONFANON_RULES

inline constexpr std::size_t kRuleCount = kRuleNames.size();

constexpr std::size_t RuleIndex(Rule rule) {
  return static_cast<std::size_t>(rule);
}

constexpr std::string_view RuleName(Rule rule) {
  return kRuleNames[RuleIndex(rule)];
}

/// The rule named `name`, or nullopt for a name no rule carries.
constexpr std::optional<Rule> RuleNamed(std::string_view name) {
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (kRuleNames[i] == name) return static_cast<Rule>(i);
  }
  return std::nullopt;
}

/// Whether `rule` belongs to the JunOS rule pack (which has no toggles).
constexpr bool IsJunosRule(Rule rule) {
  return RuleName(rule).starts_with("J.");
}

using RuleSet = std::bitset<kRuleCount>;

/// The rules among `names` (any range of strings); names no rule carries
/// are skipped — the policy verifier reports them as VER-007.
template <class Names>
RuleSet RulesNamed(const Names& names) {
  RuleSet set;
  for (const auto& name : names) {
    if (const auto rule = RuleNamed(name)) set.set(RuleIndex(*rule));
  }
  return set;
}

using RuleCounts = std::array<std::uint64_t, kRuleCount>;

}  // namespace confanon::core
