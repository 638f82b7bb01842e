// Robustness fuzzing: the anonymizer must survive arbitrary junk.
//
// The paper's tool ran over 4.3M lines spanning 200+ IOS versions with no
// grammar — robustness against unexpected syntax is a design requirement,
// not a nicety. These tests feed adversarial and random inputs through
// the full pipeline and assert the safety invariants that must hold for
// *any* input: no crash, determinism, conservative hashing (an unknown
// word never survives), and numeric-context conservatism.
#include <gtest/gtest.h>

#include "config/tokenizer.h"
#include "core/anonymizer.h"
#include "junos/anonymizer.h"
#include "core/leak_detector.h"
#include "util/rng.h"
#include "util/strings.h"

namespace confanon::core {
namespace {

config::ConfigFile File(std::string_view text) {
  return config::ConfigFile::FromText("fuzz", text);
}

std::string RandomLine(util::Rng& rng) {
  // Token soup drawn from config-plausible fragments plus junk.
  static const std::vector<std::string> kFragments = {
      "ip",          "address",    "1.2.3.4",      "255.255.255.0",
      "router",      "bgp",        "701",          "neighbor",
      "remote-as",   "!",          "description",  "interface",
      "Serial0/0",   "route-map",  "FOO-import",   "permit",
      "deny",        "set",        "community",    "701:120",
      "as-path",     "access-list", "_70[1-5]_",   "(",
      ")",           "[",          "]",            "{3,",
      "banner",      "motd",       "^C",           "\\",
      "0.0.0.255",   "65535",      "4294967295",   "...",
      "a.b.c.d",     "-",          "ip|route",     "xyzzy",
      "match",       "prepend",    "no",           "shutdown",
  };
  std::string line;
  const int words = static_cast<int>(rng.Below(9));
  for (int i = 0; i < words; ++i) {
    if (i > 0) line += rng.Chance(0.1) ? "  " : " ";
    line += rng.Pick(kFragments);
  }
  return line;
}

TEST(FuzzRobustness, NeverThrowsOnTokenSoup) {
  util::Rng rng(0xF022);
  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    const int lines = static_cast<int>(rng.Between(1, 60));
    for (int i = 0; i < lines; ++i) {
      text += RandomLine(rng);
      text += '\n';
    }
    AnonymizerOptions options;
    options.salt = "fuzz-salt";
    Anonymizer anonymizer(std::move(options));
    EXPECT_NO_THROW(anonymizer.AnonymizeNetwork({File(text)})) << text;
  }
}

TEST(FuzzRobustness, DeterministicOnTokenSoup) {
  util::Rng rng(0xF023);
  for (int trial = 0; trial < 20; ++trial) {
    std::string text;
    for (int i = 0; i < 30; ++i) {
      text += RandomLine(rng);
      text += '\n';
    }
    auto run = [&] {
      AnonymizerOptions options;
      options.salt = "fuzz-salt";
      Anonymizer anonymizer(std::move(options));
      return anonymizer.AnonymizeNetwork({File(text)}).front().ToText();
    };
    EXPECT_EQ(run(), run());
  }
}

TEST(FuzzRobustness, UnknownWordsNeverSurvive) {
  util::Rng rng(0xF024);
  for (int trial = 0; trial < 20; ++trial) {
    // Plant a unique unknown identifier at a random position in soup.
    const std::string secret =
        "zq" + std::to_string(rng.Between(100000, 999999)) + "corp";
    std::string text;
    for (int i = 0; i < 20; ++i) {
      std::string line = RandomLine(rng);
      if (i == 7) {
        line += " " + secret;
      }
      text += line + '\n';
    }
    AnonymizerOptions options;
    options.salt = "fuzz-salt";
    Anonymizer anonymizer(std::move(options));
    const auto post = anonymizer.AnonymizeNetwork({File(text)});
    EXPECT_EQ(post.front().ToText().find(secret), std::string::npos)
        << "in: " << text;
  }
}

TEST(FuzzRobustness, MalformedRegexLinesDoNotCrash) {
  // as-path access-list lines with broken regexps: the rewriter throws
  // internally; the anonymizer must degrade gracefully (leave the pattern
  // for the leak pass, never crash).
  for (const char* pattern : {"(", "[", "a{", "*(", "70[9-1]", "\\"}) {
    AnonymizerOptions options;
    options.salt = "fuzz-salt";
    Anonymizer anonymizer(std::move(options));
    const std::string text =
        std::string("ip as-path access-list 5 permit ") + pattern + "\n";
    EXPECT_NO_THROW(anonymizer.AnonymizeNetwork({File(text)})) << pattern;
  }
}

TEST(FuzzRobustness, PathologicalLineShapes) {
  const char* cases[] = {
      "",                              // empty file
      "\n\n\n",                        // blank lines
      " ",                             // whitespace only
      "!",                             // bare comment
      "!!!!!!",                        // comment runs
      "banner motd ^C",                // unterminated banner
      "neighbor",                      // truncated commands
      "neighbor 1.2.3.4",
      "neighbor 1.2.3.4 remote-as",
      "router bgp",
      "ip as-path access-list",
      "ip as-path access-list 5 permit",
      "set community",
      "ip community-list 100 permit",
      "dialer string",
      "username",
      "interface",
      "ip address 1.2.3.4",            // missing mask
      "ip address 1.2.3.4 255.255.255.0 secondary",
      "    deeply indented junk    ",
      "\tip\taddress\t9.9.9.9\t255.0.0.0",
  };
  for (const char* text : cases) {
    AnonymizerOptions options;
    options.salt = "fuzz-salt";
    Anonymizer anonymizer(std::move(options));
    EXPECT_NO_THROW(anonymizer.AnonymizeNetwork({File(text)}))
        << '"' << text << '"';
  }
}

TEST(FuzzRobustness, VeryLongLine) {
  std::string line = "description ";
  for (int i = 0; i < 5000; ++i) line += "word ";
  AnonymizerOptions options;
  options.salt = "fuzz-salt";
  Anonymizer anonymizer(std::move(options));
  const auto post = anonymizer.AnonymizeNetwork({File(line + "\n")});
  EXPECT_LT(post.front().lines()[0].size(), 64u);  // payload stripped
}

TEST(FuzzRobustness, LineCountPreservedOutsideBanners) {
  // Apart from banner-block removal, anonymization is line-for-line.
  util::Rng rng(0xF025);
  for (int trial = 0; trial < 10; ++trial) {
    std::string text;
    int lines = 0;
    for (int i = 0; i < 25; ++i) {
      std::string line = RandomLine(rng);
      // Keep banner openers out so no region forms.
      if (util::StartsWith(line, "banner")) line = "x " + line;
      text += line + '\n';
      ++lines;
    }
    AnonymizerOptions options;
    options.salt = "fuzz-salt";
    Anonymizer anonymizer(std::move(options));
    const auto post = anonymizer.AnonymizeNetwork({File(text)});
    EXPECT_EQ(post.front().LineCount(), static_cast<std::size_t>(lines));
  }
}

TEST(FuzzRobustness, JunosTokenSoup) {
  util::Rng rng(0xF026);
  static const std::vector<std::string> kFragments = {
      "peer-as", "701",  "{",      "}",  ";",       "[",         "]",
      "\"quoted\"", "as-path", "members", "neighbor", "1.2.3.4/30",
      "description", "#tail", "host-name", "/*", "*/", "community",
      "address", "unit", "family", "inet", "xyzzy",
  };
  for (int trial = 0; trial < 40; ++trial) {
    std::string text;
    const int lines = static_cast<int>(rng.Between(1, 40));
    for (int i = 0; i < lines; ++i) {
      const int words = static_cast<int>(rng.Below(7));
      for (int w = 0; w < words; ++w) {
        if (w > 0) text += ' ';
        text += rng.Pick(kFragments);
      }
      text += '\n';
    }
    auto run = [&] {
      core::AnonymizerOptions options;
      options.salt = "junos-fuzz";
      junos::JunosAnonymizer anonymizer(std::move(options));
      return anonymizer
          .AnonymizeNetwork({config::ConfigFile::FromText("j", text)})
          .front()
          .ToText();
    };
    std::string first;
    EXPECT_NO_THROW(first = run()) << text;
    EXPECT_EQ(first, run());
  }
}

}  // namespace
}  // namespace confanon::core
