// Deterministic finite automata: subset construction, minimization,
// equivalence checking.
//
// The anonymizer uses DFAs for the paper's language computation (Section
// 4.4: "we can find the language accepted by the regexp by simply applying
// the regexp to a list of all 2^16 ASNs") — running the DFA over 65,536
// short strings is orders of magnitude faster than NFA simulation.
// Minimization and DFA->regex conversion implement the paper's mentioned
// extension of emitting a compact regexp for the anonymized language.
//
// The alphabet is compressed into byte-equivalence classes computed from the
// NFA's transition sets, so a DFA stores one transition per class per state.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "regex/nfa.h"

namespace confanon::regex {

class Dfa {
 public:
  /// Builds a total DFA (with an explicit dead state) from `nfa` via subset
  /// construction.
  static Dfa FromNfa(const Nfa& nfa);

  /// True if the DFA accepts exactly `subject` (caller handles framing).
  bool FullMatch(std::string_view subject) const;

  /// The unique minimal total DFA for the same language. Its states are
  /// the input's language-equivalence blocks, numbered by first occurrence
  /// over the input state index (the numbering Moore's algorithm yields).
  Dfa Minimize() const;

  /// Language equivalence via synchronized product walk.
  bool EquivalentTo(const Dfa& other) const;

  /// True if no accepting state is reachable (empty language).
  bool IsEmptyLanguage() const;

  int StateCount() const { return num_states_; }
  int start() const { return start_; }
  bool IsAccepting(int state) const {
    return accepting_[static_cast<std::size_t>(state)];
  }
  int NumClasses() const { return num_classes_; }
  int ClassOf(char c) const {
    return byte_class_[static_cast<unsigned char>(c)];
  }
  int TransitionByClass(int state, int byte_class) const {
    return transitions_[static_cast<std::size_t>(state) *
                            static_cast<std::size_t>(num_classes_) +
                        static_cast<std::size_t>(byte_class)];
  }
  int Transition(int state, char c) const {
    return TransitionByClass(state, ClassOf(c));
  }
  /// A representative CharSet for each byte-equivalence class.
  CharSet ClassChars(int byte_class) const;

 private:
  friend Dfa BuildDfaFromStrings(const std::vector<std::string>& words);

  int num_states_ = 0;
  int num_classes_ = 0;
  int start_ = 0;
  std::array<std::int16_t, 256> byte_class_{};
  std::vector<std::int32_t> transitions_;  // num_states x num_classes
  std::vector<bool> accepting_;
};

/// Builds a total DFA (trie plus dead state) accepting exactly `words`,
/// byte for byte; an empty list yields the empty language. The tables are
/// those Dfa::FromNfa builds from the words' Thompson alternation, written
/// directly as a trie. Used for finite languages: pass-lists and ASN sets.
Dfa BuildDfaFromStrings(const std::vector<std::string>& words);

}  // namespace confanon::regex
