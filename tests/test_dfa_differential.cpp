// Differential tests for the automaton builders the verifier and the
// minimized-DFA rewrite form depend on. Each fast path is compared table
// for table — state count, start state, byte classes, every transition
// and every acceptance bit — against a reference kept here:
//
//   * BuildDfaFromStrings (a trie written straight into a Dfa) against
//     the words' AST alternation through Nfa::Build and Dfa::FromNfa;
//   * Dfa::FromNfa's byte classes against the per-edge map refinement;
//   * Dfa::Minimize against Moore's algorithm with a std::map of
//     signatures per round.
//
// Equal tables, not just equal languages: DfaToRegex's output depends on
// state numbering, and so does the verifier's witness search order.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "junos/anonymizer.h"
#include "passlist/passlist.h"
#include "regex/dfa.h"
#include "regex/nfa.h"
#include "regex/parser.h"
#include "regex/regex.h"
#include "util/rng.h"

namespace confanon::regex {
namespace {

/// The literal alternation through the generic path. An empty list is
/// one edge over the empty set: a language with no strings.
Dfa ThompsonLiteralDfa(const std::vector<std::string>& words) {
  Ast ast;
  std::vector<NodeId> branches;
  for (const std::string& word : words) {
    if (word.empty()) {
      branches.push_back(ast.AddEmpty());
      continue;
    }
    std::vector<NodeId> chars;
    for (const char c : word) {
      chars.push_back(ast.AddCharSet(CharSet::Single(c)));
    }
    branches.push_back(ast.AddConcat(std::move(chars)));
  }
  ast.set_root(branches.empty() ? ast.AddCharSet(CharSet())
                                : ast.AddAlternate(std::move(branches)));
  return Dfa::FromNfa(Nfa::Build(ast));
}

Nfa PatternNfa(std::string_view pattern) {
  Ast ast;
  ast.set_root(ParsePattern(pattern, ParseOptions{}, ast));
  return Nfa::Build(ast);
}

/// Byte classes by splitting every class on every NFA edge's set, one
/// std::map remap per edge.
std::array<int, 256> ReferenceByteClasses(const Nfa& nfa) {
  std::array<int, 256> cls{};
  for (std::size_t s = 0; s < nfa.StateCount(); ++s) {
    for (const auto& edge : nfa.At(static_cast<StateId>(s)).edges) {
      std::map<std::pair<int, bool>, int> remap;
      for (int b = 0; b < 256; ++b) {
        const std::pair<int, bool> key{
            cls[static_cast<std::size_t>(b)],
            edge.first.Contains(static_cast<char>(b))};
        const auto it =
            remap.emplace(key, static_cast<int>(remap.size())).first;
        cls[static_cast<std::size_t>(b)] = it->second;
      }
    }
  }
  return cls;
}

/// A DFA's tables, readable through the public interface.
struct Tables {
  int start = 0;
  int classes = 0;
  std::vector<bool> accepting;
  std::vector<int> transitions;  // states x classes
};

/// Moore's algorithm: refine the accepting/non-accepting partition with
/// a std::map of (block, successor blocks) signatures until no block
/// splits; blocks are numbered by first occurrence over the state index.
Tables ReferenceMoore(const Dfa& dfa) {
  const int n = dfa.StateCount();
  const int classes = dfa.NumClasses();
  std::vector<int> block(static_cast<std::size_t>(n));
  bool all = true;
  bool none = true;
  for (int s = 0; s < n; ++s) {
    block[static_cast<std::size_t>(s)] = dfa.IsAccepting(s) ? 1 : 0;
    all = all && dfa.IsAccepting(s);
    none = none && !dfa.IsAccepting(s);
  }
  std::size_t num_blocks = 2;
  if (all || none) {
    std::fill(block.begin(), block.end(), 0);
    num_blocks = 1;
  }
  for (;;) {
    std::map<std::vector<int>, int> remap;
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      std::vector<int> signature{block[static_cast<std::size_t>(s)]};
      for (int k = 0; k < classes; ++k) {
        signature.push_back(
            block[static_cast<std::size_t>(dfa.TransitionByClass(s, k))]);
      }
      next[static_cast<std::size_t>(s)] =
          remap.emplace(std::move(signature), static_cast<int>(remap.size()))
              .first->second;
    }
    block.swap(next);
    if (remap.size() == num_blocks) break;
    num_blocks = remap.size();
  }
  Tables out;
  out.start = block[static_cast<std::size_t>(dfa.start())];
  out.classes = classes;
  out.accepting.assign(num_blocks, false);
  out.transitions.assign(num_blocks * static_cast<std::size_t>(classes), -1);
  for (int s = 0; s < n; ++s) {
    const auto b = static_cast<std::size_t>(block[static_cast<std::size_t>(s)]);
    out.accepting[b] = dfa.IsAccepting(s);
    for (int k = 0; k < classes; ++k) {
      out.transitions[b * static_cast<std::size_t>(classes) +
                      static_cast<std::size_t>(k)] =
          block[static_cast<std::size_t>(dfa.TransitionByClass(s, k))];
    }
  }
  return out;
}

Tables TablesOf(const Dfa& dfa) {
  Tables out;
  out.start = dfa.start();
  out.classes = dfa.NumClasses();
  for (int s = 0; s < dfa.StateCount(); ++s) {
    out.accepting.push_back(dfa.IsAccepting(s));
    for (int k = 0; k < dfa.NumClasses(); ++k) {
      out.transitions.push_back(dfa.TransitionByClass(s, k));
    }
  }
  return out;
}

void ExpectSameTables(const Tables& actual, const Tables& expected) {
  ASSERT_EQ(actual.accepting.size(), expected.accepting.size())
      << "state count";
  EXPECT_EQ(actual.start, expected.start);
  ASSERT_EQ(actual.classes, expected.classes);
  EXPECT_EQ(actual.accepting, expected.accepting);
  EXPECT_EQ(actual.transitions, expected.transitions);
}

void ExpectSameDfa(const Dfa& actual, const Dfa& expected) {
  for (int b = 0; b < 256; ++b) {
    ASSERT_EQ(actual.ClassOf(static_cast<char>(b)),
              expected.ClassOf(static_cast<char>(b)))
        << "byte " << b;
  }
  ExpectSameTables(TablesOf(actual), TablesOf(expected));
}

/// Trie builder vs the generic path, and the minimized forms vs Moore.
void CheckWords(const std::vector<std::string>& words) {
  const Dfa trie = BuildDfaFromStrings(words);
  ExpectSameDfa(trie, ThompsonLiteralDfa(words));
  ExpectSameTables(TablesOf(trie.Minimize()), ReferenceMoore(trie));
  for (const std::string& word : words) {
    EXPECT_TRUE(trie.FullMatch(word)) << word;
  }
}

std::vector<std::string> RandomWords(util::Rng& rng) {
  static constexpr char kAlphabet[] = "ab01.-";
  std::vector<std::string> words(static_cast<std::size_t>(rng.Below(60)));
  for (std::string& word : words) {
    for (auto length = rng.Below(9); length > 0; --length) {
      // Mostly a small alphabet, so words share prefixes and suffixes;
      // now and then any byte, sentinels and high bytes included.
      word += rng.Chance(0.1) ? static_cast<char>(rng.Below(256))
                              : kAlphabet[rng.Below(sizeof kAlphabet - 1)];
    }
  }
  return words;
}

TEST(LiteralDfaDifferential, BuiltinPassLists) {
  CheckWords(passlist::PassList::Builtin().Entries());
  CheckWords(junos::JunosPassList().Entries());
}

TEST(LiteralDfaDifferential, EdgeSets) {
  CheckWords({});
  CheckWords({""});
  CheckWords({"", "a"});
  CheckWords({"a", "ab", "abc", "abcd"});
  CheckWords({"700", "701", "702", "703", "704", "705", "706", "707", "708",
              "709"});
  CheckWords({"dup", "dup", "duplex", "dup"});
  CheckWords({"loopback", "loopback0", "lo", "ge-0/0/0", "10.0.0.1"});
}

TEST(LiteralDfaDifferential, EveryByteUsed) {
  std::vector<std::string> words;
  for (int b = 0; b < 256; ++b) words.emplace_back(1, static_cast<char>(b));
  words.emplace_back("xyz");
  CheckWords(words);
}

TEST(LiteralDfaDifferential, SeededRandomWordSets) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(7000 + seed);
    CheckWords(RandomWords(rng));
  }
}

/// The as-path and policy patterns the regex, DFA and rewrite tests
/// compile.
const std::vector<std::string>& Patterns() {
  static const std::vector<std::string> patterns = {
      "70[1-5]",   "^1239$",      "_70._",        "(a|bc)*d",
      "x{2,3}y?",  "[^0-9]+",     "1{1,4}(2|3)",  ".*",
      "(a|b)*abb", "a{2,5}",      "(0|1)(0|1)*",  "abc|abd|abe",
      "x?y?z?",    "70[1-3]",     "12[0-9]{2}",   "(_1239_|_70[2-5]_)",
      "_701_",     "^701",        "701$",         "7[0-9]+",
      "65000:100", "(_3356_|_174_).*_6453$",      "[0-9]+:[0-9]+",
  };
  return patterns;
}

TEST(FromNfaDifferential, ByteClassesMatchPerEdgeRefinement) {
  for (const std::string& pattern : Patterns()) {
    const Nfa nfa = PatternNfa(pattern);
    const Dfa dfa = Dfa::FromNfa(nfa);
    const std::array<int, 256> expected = ReferenceByteClasses(nfa);
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(dfa.ClassOf(static_cast<char>(b)),
                expected[static_cast<std::size_t>(b)])
          << pattern << " byte " << b;
    }
  }
}

TEST(MinimizeDifferential, PatternsMatchMoore) {
  for (const std::string& pattern : Patterns()) {
    SCOPED_TRACE(pattern);
    const Dfa full_match = Dfa::FromNfa(PatternNfa(pattern));
    ExpectSameTables(TablesOf(full_match.Minimize()),
                     ReferenceMoore(full_match));
    // The search form wraps the pattern in ".*": cyclic everywhere.
    const Regex regex = Regex::Compile(pattern);
    const Dfa& search = regex.dfa();
    ExpectSameTables(TablesOf(search.Minimize()), ReferenceMoore(search));
    // Minimizing a minimal DFA renames nothing.
    const Dfa minimal = full_match.Minimize();
    ExpectSameDfa(minimal.Minimize(), minimal);
  }
}

}  // namespace
}  // namespace confanon::regex
