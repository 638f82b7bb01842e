// The rule table (core/rules.h): one dense Rule per anonymization rule of
// both dialects, one name each, and the verifier catalog covering every
// IOS toggle.
#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "audit/finding.h"
#include "core/options.h"
#include "core/rules.h"
#include "verify/verify.h"

namespace confanon::core {
namespace {

Rule RuleAt(std::size_t i) { return static_cast<Rule>(i); }

std::size_t CountFindings(const audit::AuditResult& result,
                          const std::string& rule_id,
                          const std::string& needle = "") {
  return static_cast<std::size_t>(std::count_if(
      result.findings.begin(), result.findings.end(),
      [&](const audit::Finding& finding) {
        return finding.rule_id == rule_id &&
               finding.message.find(needle) != std::string::npos;
      }));
}

TEST(RuleTable, EveryRuleHasAUniqueNonEmptyName) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const std::string_view name = RuleName(RuleAt(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

TEST(RuleTable, CountsSection42RulesAndTheJunosPack) {
  std::size_t junos = 0;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (IsJunosRule(RuleAt(i))) ++junos;
  }
  EXPECT_EQ(kRuleCount - junos, 28u);
  EXPECT_EQ(junos, 13u);
}

TEST(RuleTable, NamesRoundTrip) {
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const Rule rule = RuleAt(i);
    EXPECT_EQ(RuleNamed(RuleName(rule)), rule) << RuleName(rule);
  }
  for (const std::string_view unknown :
       {"", "M9.no-such-rule", "a1.router-bgp", "A1.router-bgp ",
        "rule.A1.router-bgp", "J."}) {
    EXPECT_EQ(RuleNamed(unknown), std::nullopt) << unknown;
  }
  static_assert(RuleNamed("I7.subnet-preload") == Rule::kSubnetPreload);
}

TEST(RuleTable, TableIsInNameOrder) {
  EXPECT_TRUE(std::is_sorted(kRuleNames.begin(), kRuleNames.end()));
  EXPECT_EQ(std::adjacent_find(kRuleNames.begin(), kRuleNames.end()),
            kRuleNames.end());
}

TEST(RuleTable, DisabledNamesResolveToFlags) {
  const std::set<std::string> names = {"A1.router-bgp", "I7.subnet-preload",
                                       "M9.no-such-rule"};
  const RuleSet set = RulesNamed(names);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set[RuleIndex(Rule::kRouterBgp)]);
  EXPECT_TRUE(set[RuleIndex(Rule::kSubnetPreload)]);
}

// Disabling any IOS rule is understood by the verifier: T1/T2 through the
// symbol-space closure (VER-005), every other rule through its catalog
// entry (VER-006 naming the rule). None is reported as unknown.
TEST(RuleTable, EveryIosToggleHasACatalogEntry) {
  AnonymizerOptions options;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (!IsJunosRule(RuleAt(i))) {
      options.disabled_rules.emplace(RuleName(RuleAt(i)));
    }
  }
  const audit::AuditResult result = verify::VerifyEngineOptions(options);
  EXPECT_EQ(CountFindings(result, "VER-007"), 0u) << result.ToText();
  EXPECT_GT(CountFindings(result, "VER-005"), 0u) << result.ToText();
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const Rule rule = RuleAt(i);
    if (IsJunosRule(rule) || rule == Rule::kSegmentWords ||
        rule == Rule::kPasslistHash) {
      continue;
    }
    const std::string name(RuleName(rule));
    EXPECT_EQ(CountFindings(result, "VER-006", "rule " + name + " "), 1u)
        << name;
  }
}

// An unknown name still yields VER-007, and so does a JunOS rule's name:
// only the IOS rule pack has toggles.
TEST(RuleTable, UnknownDisabledRuleYieldsVer007) {
  for (const std::string& name :
       {std::string("M9.no-such-rule"),
        std::string(RuleName(Rule::kJunosMapAddresses))}) {
    SCOPED_TRACE(name);
    AnonymizerOptions options;
    options.disabled_rules.insert(name);
    const audit::AuditResult result = verify::VerifyEngineOptions(options);
    EXPECT_EQ(CountFindings(result, "VER-007", "'" + name + "'"), 1u)
        << result.ToText();
    EXPECT_EQ(CountFindings(result, "VER-006"), 0u) << result.ToText();
  }
}

}  // namespace
}  // namespace confanon::core
