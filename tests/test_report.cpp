#include "core/report.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace confanon::core {
namespace {

TEST(Report, CountRuleAccumulates) {
  AnonymizationReport report;
  report.CountRule(Rule::kRouterBgp);
  report.CountRule(Rule::kRouterBgp, 4);
  EXPECT_EQ(report.fires(Rule::kRouterBgp), 5u);
}

TEST(Report, CommentWordFraction) {
  AnonymizationReport report;
  EXPECT_DOUBLE_EQ(report.CommentWordFraction(), 0.0);  // no words
  report.total_words = 200;
  report.comment_words_removed = 3;
  EXPECT_DOUBLE_EQ(report.CommentWordFraction(), 0.015);
}

TEST(Report, MergeAddsEverything) {
  AnonymizationReport a, b;
  a.total_lines = 10;
  a.words_hashed = 2;
  a.asns_mapped = 1;
  a.CountRule(Rule::kPasslistHash, 2);
  b.total_lines = 5;
  b.words_hashed = 3;
  b.addresses_mapped = 7;
  b.CountRule(Rule::kPasslistHash);
  b.CountRule(Rule::kMapAddresses, 7);
  a.Merge(b);
  EXPECT_EQ(a.total_lines, 15u);
  EXPECT_EQ(a.words_hashed, 5u);
  EXPECT_EQ(a.asns_mapped, 1u);
  EXPECT_EQ(a.addresses_mapped, 7u);
  EXPECT_EQ(a.fires(Rule::kPasslistHash), 3u);
  EXPECT_EQ(a.fires(Rule::kMapAddresses), 7u);
}

TEST(Report, ToStringMentionsKeyFields) {
  AnonymizationReport report;
  report.total_lines = 42;
  report.words_hashed = 7;
  report.CountRule(Rule::kAsPathRegex);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("lines=42"), std::string::npos);
  EXPECT_NE(text.find("words_hashed=7"), std::string::npos);
  EXPECT_NE(text.find("A6.as-path-regex"), std::string::npos);
}

AnonymizationReport FullReport() {
  AnonymizationReport report;
  report.total_lines = 1;
  report.total_words = 2;
  report.comment_words_removed = 3;
  report.words_hashed = 4;
  report.words_passed = 5;
  report.addresses_mapped = 6;
  report.addresses_special = 7;
  report.asns_mapped = 8;
  report.communities_mapped = 9;
  report.aspath_regexps_rewritten = 10;
  report.community_regexps_rewritten = 11;
  report.CountRule(Rule::kRouterBgp, 12);
  return report;
}

TEST(Report, MergeCoversEveryScalarField) {
  AnonymizationReport a = FullReport();
  a.Merge(FullReport());
  EXPECT_EQ(a.total_lines, 2u);
  EXPECT_EQ(a.total_words, 4u);
  EXPECT_EQ(a.comment_words_removed, 6u);
  EXPECT_EQ(a.words_hashed, 8u);
  EXPECT_EQ(a.words_passed, 10u);
  EXPECT_EQ(a.addresses_mapped, 12u);
  EXPECT_EQ(a.addresses_special, 14u);
  EXPECT_EQ(a.asns_mapped, 16u);
  EXPECT_EQ(a.communities_mapped, 18u);
  EXPECT_EQ(a.aspath_regexps_rewritten, 20u);
  EXPECT_EQ(a.community_regexps_rewritten, 22u);
  EXPECT_EQ(a.fires(Rule::kRouterBgp), 24u);
}

TEST(Report, MergeUnionsDisjointRuleMaps) {
  AnonymizationReport a, b;
  a.CountRule(Rule::kStripBangComments, 2);
  b.CountRule(Rule::kMapAddresses, 5);
  a.Merge(b);
  EXPECT_EQ(std::count_if(a.rule_fires.begin(), a.rule_fires.end(),
                          [](std::uint64_t n) { return n != 0; }),
            2);
  EXPECT_EQ(a.fires(Rule::kStripBangComments), 2u);
  EXPECT_EQ(a.fires(Rule::kMapAddresses), 5u);
}

TEST(Report, MergeWithEmptyIsIdentity) {
  AnonymizationReport a = FullReport();
  a.Merge(AnonymizationReport{});
  const AnonymizationReport reference = FullReport();
  EXPECT_EQ(a.total_lines, reference.total_lines);
  EXPECT_EQ(a.total_words, reference.total_words);
  EXPECT_EQ(a.community_regexps_rewritten,
            reference.community_regexps_rewritten);
  EXPECT_EQ(a.rule_fires, reference.rule_fires);

  AnonymizationReport empty;
  empty.Merge(FullReport());
  EXPECT_EQ(empty.words_passed, reference.words_passed);
  EXPECT_EQ(empty.rule_fires, reference.rule_fires);
}

TEST(Report, SelfMergeDoubles) {
  AnonymizationReport a = FullReport();
  a.Merge(a);
  EXPECT_EQ(a.total_lines, 2u);
  EXPECT_EQ(a.community_regexps_rewritten, 22u);
  EXPECT_EQ(a.fires(Rule::kRouterBgp), 24u);
}

TEST(Report, ToStringFormatsFractionWithTwoDecimals) {
  AnonymizationReport report;
  report.total_words = 300;
  report.comment_words_removed = 100;  // 33.333...%
  EXPECT_NE(report.ToString().find("(33.33%)"), std::string::npos);
}

TEST(Report, ToStringHandlesZeroWords) {
  const std::string text = AnonymizationReport{}.ToString();
  EXPECT_NE(text.find("(n/a)"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(Report, ToJsonCarriesFieldsAndRules) {
  AnonymizationReport report = FullReport();
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"total_lines\":1"), std::string::npos);
  EXPECT_NE(json.find("\"community_regexps_rewritten\":11"),
            std::string::npos);
  EXPECT_NE(json.find("\"comment_word_fraction\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"rule_fires\":{\"A1.router-bgp\":12}"),
            std::string::npos);
}

}  // namespace
}  // namespace confanon::core
