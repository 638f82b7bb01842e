// Rule-by-rule matrix: every disableable context rule is exercised twice —
// with the full rule set (its leak marker must be gone) and with just that
// rule disabled (the marker must survive, proving the rule and nothing
// else was responsible). This pins each of the 28 rules to an observable
// behaviour and guards against rules silently shadowing one another.
#include <gtest/gtest.h>

#include <sstream>

#include "core/anonymizer.h"

namespace confanon::core {
namespace {

struct RuleCase {
  const char* name;    // for test labels
  const char* rule;    // rule to disable in the "crippled" run
  const char* config;  // input
  const char* marker;  // identity-bearing text the rule removes
};

void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.name; }

std::string RunCase(const RuleCase& test_case, bool disable) {
  AnonymizerOptions options;
  options.salt = "matrix-salt";
  if (disable) {
    options.disabled_rules.insert(test_case.rule);
  }
  Anonymizer anonymizer(std::move(options));
  return anonymizer
      .AnonymizeNetwork(
          {config::ConfigFile::FromText("r", test_case.config)})
      .front()
      .ToText();
}

class RuleMatrix : public ::testing::TestWithParam<RuleCase> {};

TEST_P(RuleMatrix, FullRuleSetRemovesMarker) {
  EXPECT_EQ(RunCase(GetParam(), false).find(GetParam().marker),
            std::string::npos)
      << RunCase(GetParam(), false);
}

TEST_P(RuleMatrix, DisabledRuleLeaksMarker) {
  EXPECT_NE(RunCase(GetParam(), true).find(GetParam().marker), std::string::npos)
      << RunCase(GetParam(), true);
}

TEST_P(RuleMatrix, RuleFiresInReport) {
  AnonymizerOptions options;
  options.salt = "matrix-salt";
  Anonymizer anonymizer(std::move(options));
  anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("r", GetParam().config)});
  EXPECT_TRUE(anonymizer.report().rule_fires.contains(GetParam().rule))
      << GetParam().rule;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, RuleMatrix,
    ::testing::Values(
        // The comment rules are what remove *pass-listed* phrases whose
        // arrangement leaks ("global crossing", Section 4.2) — with the
        // rule off, generic hashing passes those words through.
        RuleCase{"C1_bang_comment", rules::kStripBangComments,
                 "! circuit leased from global crossing\n", "global crossing"},
        RuleCase{"C2_description", rules::kStripFreeText,
                 "interface Ethernet0\n description link via global crossing\n",
                 "global crossing"},
        RuleCase{"C3_banner", rules::kStripBanners,
                 "banner motd ^C\nglobal crossing transit network\n^C\n",
                 "global crossing"},
        RuleCase{"M1_dialer", rules::kDialerStrings,
                 "dialer string 14085551234\n", "14085551234"},
        // SNMP community strings and passwords can be pass-listed words
        // ("public", "cisco"); only the force-hash rules remove them.
        RuleCase{"M2_snmp", rules::kSnmpStrings,
                 "snmp-server community public RO\n", "public"},
        RuleCase{"M3_secret", rules::kSecrets,
                 "enable password cisco\n", "cisco"},
        RuleCase{"M4_hostname", rules::kNameArguments,
                 // "router" is pass-listed: only the force-hash rule
                 // touches it.
                 "hostname router\n", "hostname router"},
        RuleCase{"A1_router_bgp", rules::kRouterBgp, "router bgp 1111\n",
                 "1111"},
        RuleCase{"A2_remote_as", rules::kNeighborRemoteAs,
                 "router bgp 65000\n neighbor 10.0.0.1 remote-as 701\n",
                 "remote-as 701"},
        RuleCase{"A3_local_as", rules::kNeighborLocalAs,
                 "router bgp 65000\n neighbor 10.0.0.1 local-as 702\n",
                 "local-as 702"},
        RuleCase{"A4_confed_id", rules::kConfedIdentifier,
                 "router bgp 65000\n bgp confederation identifier 703\n",
                 "703"},
        RuleCase{"A5_confed_peers", rules::kConfedPeers,
                 "router bgp 65000\n bgp confederation peers 704 705\n",
                 "704"},
        RuleCase{"A6_aspath_regex", rules::kAsPathRegex,
                 "ip as-path access-list 50 permit _70[2-5]_\n", "70[2-5]"},
        RuleCase{"A7_prepend", rules::kAsPathPrepend,
                 "route-map X permit 10\n set as-path prepend 701 701\n",
                 "701 701"},
        RuleCase{"A8_commlist_literal", rules::kCommunityListLiteral,
                 "ip community-list 5 permit 701:120\n", "701:120"},
        RuleCase{"A9_commlist_regex", rules::kCommunityListRegex,
                 "ip community-list 100 permit 701:7[1-5]..\n", "7[1-5].."},
        RuleCase{"A10_set_community", rules::kSetCommunity,
                 "route-map X permit 10\n set community 701:7100\n",
                 "701:7100"},
        RuleCase{"A11_extcommunity", rules::kSetExtcommunity,
                 "route-map X permit 10\n set extcommunity rt 701:99\n",
                 "701:99"},
        RuleCase{"I1_address", rules::kMapAddresses,
                 "logging 12.34.56.78\n", "12.34.56.78"},
        RuleCase{"I3_cidr", rules::kMapPrefixes,
                 "ip route 12.34.0.0/16 Null0\n", "12.34.0.0/16"}),
    [](const ::testing::TestParamInfo<RuleCase>& info) {
      return info.param.name;
    });

// I2 is defence in depth: even with the rule disabled the netmask
// survives, because the IP map itself passes special addresses through
// (Section 4.3's modification lives in the data structure, the rule only
// short-circuits and accounts for it).
TEST(RuleMatrixSpecial, SpecialPassthroughIsDefenceInDepth) {
  const RuleCase protect{"", rules::kSpecialPassthrough,
                         "interface Ethernet0\n"
                         " ip address 12.0.0.1 255.255.255.0\n",
                         "255.255.255.0"};
  EXPECT_NE(RunCase(protect, false).find("255.255.255.0"), std::string::npos);
  EXPECT_NE(RunCase(protect, true).find("255.255.255.0"), std::string::npos);
}

// --- Section 5 known-entity relationship export ---

TEST(KnownEntities, ExportsAnonymizedGroupings) {
  AnonymizerOptions options;
  options.salt = "entity-salt";
  AnonymizerOptions::KnownEntity entity;
  entity.label = "UUNET";  // operator-side only
  entity.asns = {701, 702};
  entity.prefixes = {*net::Prefix::Parse("157.130.0.0/16")};
  options.known_entities.push_back(entity);
  Anonymizer anonymizer(options);
  anonymizer.AnonymizeNetwork({config::ConfigFile::FromText(
      "r", "router bgp 65000\n neighbor 157.130.0.1 remote-as 701\n")});

  std::ostringstream out;
  ExportKnownEntities(options.known_entities, *anonymizer.state(), out);
  const std::string text = out.str();
  // The label never appears; the mapped values do.
  EXPECT_EQ(text.find("UUNET"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(701))),
            std::string::npos);
  EXPECT_NE(text.find(std::to_string(anonymizer.asn_map().Map(702))),
            std::string::npos);
  // Prefixes are exported canonicalized (host bits of the mapped base
  // truncated); containment of mapped member addresses still holds by
  // prefix preservation.
  const net::Prefix mapped_prefix(
      anonymizer.ip_anonymizer().Map(*net::Ipv4Address::Parse("157.130.0.0")),
      16);
  EXPECT_NE(text.find(mapped_prefix.ToString()), std::string::npos);
  EXPECT_TRUE(mapped_prefix.Contains(anonymizer.ip_anonymizer().Map(
      *net::Ipv4Address::Parse("157.130.0.1"))));
  // Original values never appear.
  EXPECT_EQ(text.find(" 701 "), std::string::npos);
  EXPECT_EQ(text.find("157.130.0.0"), std::string::npos);
}

TEST(KnownEntities, EmptyByDefault) {
  AnonymizerOptions options;
  options.salt = "entity-salt";
  Anonymizer anonymizer(options);
  std::ostringstream out;
  ExportKnownEntities(options.known_entities, *anonymizer.state(), out);
  EXPECT_TRUE(out.str().empty());
}

TEST(KnownEntities, GroupingIsConsistentWithConfigRewrites) {
  // The exported grouping must agree with what the configs now say: the
  // neighbor line's rewritten ASN equals the entity's exported ASN.
  AnonymizerOptions options;
  options.salt = "entity-salt-2";
  AnonymizerOptions::KnownEntity entity;
  entity.asns = {1239};
  options.known_entities.push_back(entity);
  Anonymizer anonymizer(options);
  const auto post = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText(
          "r", "router bgp 65000\n neighbor 10.0.0.1 remote-as 1239\n")});
  std::ostringstream out;
  ExportKnownEntities(options.known_entities, *anonymizer.state(), out);
  const std::string mapped = std::to_string(anonymizer.asn_map().Map(1239));
  EXPECT_NE(out.str().find(mapped), std::string::npos);
  EXPECT_NE(post.front().ToText().find("remote-as " + mapped),
            std::string::npos);
}

}  // namespace
}  // namespace confanon::core
