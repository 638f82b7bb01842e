#include "passlist/passlist.h"

#include <gtest/gtest.h>

#include <sstream>

namespace confanon::passlist {
namespace {

TEST(PassList, BuiltinContainsCoreKeywords) {
  const PassList list = PassList::Builtin();
  for (const char* keyword :
       {"interface", "ethernet", "serial", "loopback", "router", "bgp",
        "ospf", "rip", "eigrp", "neighbor", "network", "description",
        "hostname", "banner", "motd", "access", "list", "permit", "deny",
        "community", "route", "map", "match", "set", "address", "ip"}) {
    EXPECT_TRUE(list.Contains(keyword)) << keyword;
  }
}

TEST(PassList, BuiltinIsLarge) {
  // The scraped corpus must offer real coverage, not a toy list.
  EXPECT_GE(PassList::Builtin().Size(), 1000u);
}

TEST(PassList, DoesNotContainIdentityBearers) {
  const PassList list = PassList::Builtin();
  for (const char* name : {"uunet", "sprintlink", "foocorp", "globex",
                           "lax", "sfo", "nakatomi"}) {
    EXPECT_FALSE(list.Contains(name)) << name;
  }
}

TEST(PassList, PaperHazardWordsArePassListed) {
  // Section 4.2: "global and crossing are both in the pass-list, but the
  // string 'global crossing' in a comment must be anonymized" — handled by
  // comment stripping, not by the list.
  const PassList list = PassList::Builtin();
  EXPECT_TRUE(list.Contains("global"));
  EXPECT_TRUE(list.Contains("crossing"));
}

TEST(PassList, CaseInsensitive) {
  const PassList list = PassList::Builtin();
  EXPECT_TRUE(list.Contains("Ethernet"));
  EXPECT_TRUE(list.Contains("ETHERNET"));
  PassList custom;
  custom.Add("FooBar");
  EXPECT_TRUE(custom.Contains("foobar"));
  EXPECT_TRUE(custom.Contains("FOOBAR"));
}

TEST(PassList, AddAndMerge) {
  PassList a, b;
  a.Add("alpha");
  b.Add("beta");
  a.Merge(b);
  EXPECT_TRUE(a.Contains("alpha"));
  EXPECT_TRUE(a.Contains("beta"));
  EXPECT_EQ(a.Size(), 2u);
  a.Add("");  // no-op
  EXPECT_EQ(a.Size(), 2u);
}

TEST(PassList, BuiltinCopiesOneListBuiltOnce) {
  PassList first = PassList::Builtin();
  EXPECT_EQ(PassList::Builtin().Entries(), first.Entries());
  // Each call hands out its own copy: editing one leaves the next intact.
  first.Add("zephyrix");
  EXPECT_FALSE(PassList::Builtin().Contains("zephyrix"));
  EXPECT_EQ(PassList::Builtin().Entries().size() + 1, first.Entries().size());
}

TEST(PassList, TruncatedIsDeterministicSubset) {
  const PassList full = PassList::Builtin();
  const PassList half = full.Truncated(0.5, 42);
  const PassList again = full.Truncated(0.5, 42);
  EXPECT_EQ(half.Size(), again.Size());
  EXPECT_LT(half.Size(), full.Size());
  EXPECT_GT(half.Size(), full.Size() / 4);
  const PassList none = full.Truncated(0.0, 42);
  EXPECT_EQ(none.Size(), 0u);
  const PassList all = full.Truncated(1.0, 42);
  EXPECT_EQ(all.Size(), full.Size());
}

TEST(DocScraper, ExtractsAlphabeticTokens) {
  PassList list;
  DocScraper scraper(list);
  const std::size_t added = scraper.ScrapeText(
      "Use the neighbor command to configure a BGP peering session.");
  EXPECT_GT(added, 5u);
  EXPECT_TRUE(list.Contains("neighbor"));
  EXPECT_TRUE(list.Contains("peering"));
  EXPECT_TRUE(list.Contains("bgp"));
}

TEST(DocScraper, SkipsSingleLettersAndNumbers) {
  PassList list;
  DocScraper scraper(list);
  scraper.ScrapeText("a 1 22 b3b x");
  EXPECT_FALSE(list.Contains("a"));
  EXPECT_FALSE(list.Contains("x"));
  EXPECT_FALSE(list.Contains("22"));
  // b3b splits into single letters, none added.
  EXPECT_EQ(list.Size(), 0u);
}

TEST(DocScraper, CountsOnlyNewTokens) {
  PassList list;
  DocScraper scraper(list);
  EXPECT_EQ(scraper.ScrapeText("router router ROUTER"), 1u);
  EXPECT_EQ(scraper.ScrapeText("router"), 0u);
}

TEST(DocScraper, ScrapeStream) {
  PassList list;
  DocScraper scraper(list);
  std::istringstream doc("configure terminal\ninterface gigabitethernet");
  EXPECT_GT(scraper.ScrapeStream(doc), 0u);
  EXPECT_TRUE(list.Contains("gigabitethernet"));
}

}  // namespace
}  // namespace confanon::passlist
