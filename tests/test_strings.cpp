#include "util/strings.h"

#include <gtest/gtest.h>

namespace confanon::util {
namespace {

TEST(Strings, AsciiClassifiersIgnoreLocaleErrors) {
  EXPECT_TRUE(IsAsciiAlpha('a'));
  EXPECT_TRUE(IsAsciiAlpha('Z'));
  EXPECT_FALSE(IsAsciiAlpha('0'));
  EXPECT_FALSE(IsAsciiAlpha('-'));
  EXPECT_FALSE(IsAsciiAlpha('\xE9'));  // non-ASCII byte
  EXPECT_TRUE(IsAsciiDigit('7'));
  EXPECT_FALSE(IsAsciiDigit('a'));
  EXPECT_TRUE(IsAsciiAlnum('q'));
  EXPECT_TRUE(IsAsciiAlnum('3'));
  EXPECT_FALSE(IsAsciiAlnum('.'));
}

TEST(Strings, ToLower) {
  EXPECT_EQ(ToLower("Ethernet0/0"), "ethernet0/0");
  EXPECT_EQ(ToLower("UUNET-import"), "uunet-import");
  EXPECT_EQ(ToLower(""), "");
}

TEST(Strings, TrimRemovesBlanksAndCr) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\thello\r"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, SplitWordsSkipsRuns) {
  const auto words = SplitWords("  ip  address\t1.2.3.4   ");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "ip");
  EXPECT_EQ(words[1], "address");
  EXPECT_EQ(words[2], "1.2.3.4");
}

TEST(Strings, SplitWordsEmpty) {
  EXPECT_TRUE(SplitWords("").empty());
  EXPECT_TRUE(SplitWords("   \t ").empty());
}

TEST(Strings, CountWordsMatchesSplitWords) {
  for (const std::string_view line :
       {"", "   \t ", "x", "  ip  address\t1.2.3.4   ", "a b\tc",
        " trailing\r", "\tlead"}) {
    EXPECT_EQ(CountWords(line), SplitWords(line).size()) << line;
  }
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto fields = Split("a::b:", ':');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> pieces = {"a", "b", "c"};
  EXPECT_EQ(Join(pieces, "|"), "a|b|c");
  EXPECT_EQ(Join(std::vector<std::string>{}, "|"), "");
  EXPECT_EQ(Join(std::vector<std::string>{"one"}, ", "), "one");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("route-map", "route"));
  EXPECT_FALSE(StartsWith("route", "route-map"));
  EXPECT_TRUE(EndsWith("UUNET-import", "-import"));
  EXPECT_FALSE(EndsWith("import", "UUNET-import"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(Strings, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0"));
  EXPECT_TRUE(IsAllDigits("65535"));
  EXPECT_TRUE(IsAllDigits("007"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-1"));
  EXPECT_FALSE(IsAllDigits("1.2"));
}

TEST(Strings, ParseUintBasics) {
  std::uint64_t out = 0;
  EXPECT_TRUE(ParseUint("701", 65535, out));
  EXPECT_EQ(out, 701u);
  EXPECT_TRUE(ParseUint("0", 65535, out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ParseUint("65535", 65535, out));
  EXPECT_EQ(out, 65535u);
}

TEST(Strings, ParseUintRejectsOverflowAndJunk) {
  std::uint64_t out = 0;
  EXPECT_FALSE(ParseUint("65536", 65535, out));
  EXPECT_FALSE(ParseUint("999999999999999999999", ~0ull, out));
  EXPECT_FALSE(ParseUint("", 100, out));
  EXPECT_FALSE(ParseUint("12 ", 100, out));
  EXPECT_FALSE(ParseUint("0x10", 100, out));
}

TEST(Strings, ParseUintTinyMax) {
  std::uint64_t out = 0;
  EXPECT_TRUE(ParseUint("5", 5, out));
  EXPECT_FALSE(ParseUint("6", 5, out));
  EXPECT_FALSE(ParseUint("9", 3, out));
}

TEST(Strings, ParseUintLeadingZeros) {
  std::uint64_t out = 0;
  EXPECT_TRUE(ParseUint("0000701", 65535, out));
  EXPECT_EQ(out, 701u);
}

}  // namespace
}  // namespace confanon::util
