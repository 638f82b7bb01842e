// Committed goldens for the static policy verifier: the full
// AuditResult::ToText() of verify::VerifyPolicy over five policies, every
// finding with its anchor and message (VER-001 witness strings included)
// plus the verify.* stats. Only verify.verify_ns, a wall-clock reading,
// is dropped before rendering.
//
//   * builtin   — verify::BuiltinPolicy();
//   * good      — builtins + tests/data/policy/good_passlist.txt as extras;
//   * bad       — builtins + tests/data/policy/bad_passlist.txt as extras;
//   * no-rules  — builtins with every IOS rule named in disabled_rules;
//   * custom    — a replaced IOS pass-list with shadowed, non-alphabetic,
//                 special-address and leaky entries.
//
// The extras files load the way `confanon_audit --policy --passlist`
// loads them. On a mismatch the actual text is written to
// <testing::TempDir()>/verify.<name>.txt.
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/rules.h"
#include "util/io.h"
#include "util/strings.h"
#include "verify/verify.h"

namespace confanon {
namespace {

std::filesystem::path PolicyDir() {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR) / "policy";
}

/// One token per non-blank, non-'#' line, as confanon_audit reads it.
passlist::PassList LoadPassList(const std::string& file) {
  std::string error;
  const auto text = util::ReadFileFully((PolicyDir() / file).string(), &error);
  EXPECT_TRUE(text.has_value()) << error;
  const std::string body = text.value_or("");
  passlist::PassList list;
  std::string_view rest = body;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view token = util::Trim(rest.substr(0, eol));
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    if (token.empty() || token.front() == '#') continue;
    list.Add(token);
  }
  return list;
}

verify::PolicySpec SpecNamed(std::string_view name) {
  core::AnonymizerOptions options;
  if (name == "builtin") return verify::BuiltinPolicy();
  if (name == "good") {
    options.extra_pass_list = LoadPassList("good_passlist.txt");
  } else if (name == "bad") {
    options.extra_pass_list = LoadPassList("bad_passlist.txt");
  } else if (name == "no-rules") {
    for (const std::string_view rule : core::kRuleNames) {
      if (!core::IsJunosRule(*core::RuleNamed(rule))) {
        options.disabled_rules.emplace(rule);
      }
    }
  } else if (name == "custom") {
    passlist::PassList custom;
    for (const char* token :
         {"interface", "shutdown", "Zephyrix", "interface", "loopback0",
          "ge-0/0/0", "64512", "255.255.255.0", "10.1.2.3", "zephyrix",
          "h00a1b2c3d4", "701", "1239:100"}) {
      custom.Add(token);
    }
    options.pass_list = std::move(custom);
    options.extra_pass_list.Add("quorvane");
    options.extra_pass_list.Add("interface");
  }
  return verify::PolicyFromOptions(options);
}

class VerifyFindingsGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(VerifyFindingsGolden, MatchesCommittedText) {
  const std::string name = GetParam();
  audit::AuditResult result = verify::VerifyPolicy(SpecNamed(name));
  ASSERT_EQ(result.stats.erase("verify.verify_ns"), 1u);
  const std::string actual = result.ToText();

  const std::filesystem::path golden =
      PolicyDir() / ("verify." + name + ".txt");
  std::string error;
  const auto expected = util::ReadFileFully(golden.string(), &error);
  if (!expected.has_value() || *expected != actual) {
    std::ofstream(std::filesystem::path(testing::TempDir()) /
                  ("verify." + name + ".txt"))
        << actual;
  }
  ASSERT_TRUE(expected.has_value()) << error;
  EXPECT_EQ(actual, *expected) << "drift vs " << golden.string();
}

INSTANTIATE_TEST_SUITE_P(Policies, VerifyFindingsGolden,
                         ::testing::Values("builtin", "good", "bad",
                                           "no-rules", "custom"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace confanon
