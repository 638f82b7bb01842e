#include "regex/dfa.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

namespace confanon::regex {

namespace {

/// Computes byte-equivalence classes: two bytes are equivalent if every
/// CharSet appearing on any NFA edge either contains both or neither.
/// Returns the number of classes and fills `byte_class`. Classes are
/// numbered by first occurrence over bytes 0..255, so the result does not
/// depend on the order the sets split them in, and each distinct set
/// needs to split them only once.
int ComputeByteClasses(const Nfa& nfa, std::array<std::int16_t, 256>& byte_class) {
  std::vector<CharSet> sets;
  for (std::size_t s = 0; s < nfa.StateCount(); ++s) {
    for (const auto& edge : nfa.At(static_cast<StateId>(s)).edges) {
      if (std::find(sets.begin(), sets.end(), edge.first) == sets.end()) {
        sets.push_back(edge.first);
      }
    }
  }
  std::array<std::int16_t, 256> cls{};
  int num_classes = 1;
  for (const CharSet& chars : sets) {
    // Split every existing class into (in set / not in set), keyed
    // 2 * class + membership.
    std::array<std::int16_t, 512> remap;
    remap.fill(-1);
    std::int16_t next_classes = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      std::int16_t& slot =
          remap[2 * static_cast<std::size_t>(cls[b]) +
                (chars.Contains(static_cast<char>(b)) ? 1 : 0)];
      if (slot < 0) slot = next_classes++;
      cls[b] = slot;
    }
    num_classes = next_classes;
  }
  byte_class = cls;
  return num_classes;
}

void Closure(const Nfa& nfa, std::vector<StateId>& set,
             std::vector<char>& member) {
  std::vector<StateId> stack(set);
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (StateId t : nfa.At(s).epsilon) {
      if (!member[static_cast<std::size_t>(t)]) {
        member[static_cast<std::size_t>(t)] = 1;
        set.push_back(t);
        stack.push_back(t);
      }
    }
  }
  std::sort(set.begin(), set.end());
}

}  // namespace

Dfa Dfa::FromNfa(const Nfa& nfa) {
  Dfa dfa;
  dfa.num_classes_ = ComputeByteClasses(nfa, dfa.byte_class_);

  // Pick one representative byte per class for transition evaluation.
  std::vector<char> representative(static_cast<std::size_t>(dfa.num_classes_));
  for (int b = 255; b >= 0; --b) {
    representative[static_cast<std::size_t>(dfa.byte_class_[static_cast<std::size_t>(b)])] =
        static_cast<char>(b);
  }

  std::map<std::vector<StateId>, int> ids;
  std::vector<std::vector<StateId>> sets;

  std::vector<char> member(nfa.StateCount(), 0);
  std::vector<StateId> start_set{nfa.start()};
  member[static_cast<std::size_t>(nfa.start())] = 1;
  Closure(nfa, start_set, member);
  for (const StateId t : start_set) member[static_cast<std::size_t>(t)] = 0;

  ids.emplace(start_set, 0);
  sets.push_back(start_set);
  dfa.start_ = 0;

  // The dead state is materialized lazily as the empty set.
  std::vector<int> worklist{0};
  while (!worklist.empty()) {
    const int id = worklist.back();
    worklist.pop_back();
    const std::vector<StateId> current = sets[static_cast<std::size_t>(id)];
    if (static_cast<std::size_t>(id + 1) * static_cast<std::size_t>(dfa.num_classes_) >
        dfa.transitions_.size()) {
      dfa.transitions_.resize(
          (static_cast<std::size_t>(id) + 1) *
              static_cast<std::size_t>(dfa.num_classes_),
          -1);
    }
    for (int k = 0; k < dfa.num_classes_; ++k) {
      const char c = representative[static_cast<std::size_t>(k)];
      std::vector<StateId> next;
      for (StateId s : current) {
        for (const auto& [chars, target] : nfa.At(s).edges) {
          if (chars.Contains(c) && !member[static_cast<std::size_t>(target)]) {
            member[static_cast<std::size_t>(target)] = 1;
            next.push_back(target);
          }
        }
      }
      Closure(nfa, next, member);
      // Every marked state is in `next`: clear just those.
      for (const StateId t : next) member[static_cast<std::size_t>(t)] = 0;
      auto [it, inserted] = ids.emplace(next, static_cast<int>(sets.size()));
      if (inserted) {
        sets.push_back(next);
        worklist.push_back(it->second);
      }
      dfa.transitions_[static_cast<std::size_t>(id) *
                           static_cast<std::size_t>(dfa.num_classes_) +
                       static_cast<std::size_t>(k)] = it->second;
    }
  }

  dfa.num_states_ = static_cast<int>(sets.size());
  dfa.transitions_.resize(static_cast<std::size_t>(dfa.num_states_) *
                              static_cast<std::size_t>(dfa.num_classes_),
                          -1);
  dfa.accepting_.assign(static_cast<std::size_t>(dfa.num_states_), false);
  for (int id = 0; id < dfa.num_states_; ++id) {
    const auto& set = sets[static_cast<std::size_t>(id)];
    dfa.accepting_[static_cast<std::size_t>(id)] =
        std::binary_search(set.begin(), set.end(), nfa.accept());
  }
  return dfa;
}

bool Dfa::FullMatch(std::string_view subject) const {
  int state = start_;
  for (char c : subject) {
    state = Transition(state, c);
  }
  return accepting_[static_cast<std::size_t>(state)];
}

namespace {

/// Numbers fixed-width int rows: equal rows get equal numbers, assigned in
/// order of first appearance. Keys are compared in full.
class RowTable {
 public:
  RowTable(std::size_t width, std::size_t max_rows) : width_(width) {
    // One spare row for the probe; the keys view `rows_`, so it must
    // never reallocate.
    rows_.reserve(width * (max_rows + 1));
    ids_.reserve(max_rows);
  }

  int Intern(const std::vector<std::int32_t>& row) {
    const std::size_t at = rows_.size();
    rows_.insert(rows_.end(), row.begin(), row.end());
    const std::string_view key(reinterpret_cast<const char*>(rows_.data() + at),
                               width_ * sizeof(std::int32_t));
    const auto [it, inserted] =
        ids_.try_emplace(key, static_cast<int>(ids_.size()));
    if (!inserted) rows_.resize(at);
    return it->second;
  }
  int size() const { return static_cast<int>(ids_.size()); }

 private:
  std::size_t width_;
  std::vector<std::int32_t> rows_;
  std::unordered_map<std::string_view, int> ids_;
};

/// Moore's algorithm: refine the accepting/non-accepting partition until
/// no block splits. O(n^2 * classes) worst case, ample for policy regexes.
/// Each round numbers blocks by first occurrence over the state index.
std::vector<int> MooreBlocks(const Dfa& dfa) {
  const int n = dfa.StateCount();
  std::vector<int> block(static_cast<std::size_t>(n));
  std::array<bool, 2> seen{};
  for (int s = 0; s < n; ++s) {
    block[static_cast<std::size_t>(s)] = dfa.IsAccepting(s) ? 1 : 0;
    seen[static_cast<std::size_t>(block[static_cast<std::size_t>(s)])] = true;
  }
  int num_blocks = (seen[0] ? 1 : 0) + (seen[1] ? 1 : 0);
  // Signature of a state: (its block, blocks of all class-transitions).
  std::vector<std::int32_t> signature(
      static_cast<std::size_t>(dfa.NumClasses()) + 1);
  std::vector<int> next(static_cast<std::size_t>(n));
  for (;;) {
    RowTable table(signature.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      signature[0] = block[static_cast<std::size_t>(s)];
      for (int k = 0; k < dfa.NumClasses(); ++k) {
        signature[static_cast<std::size_t>(k) + 1] =
            block[static_cast<std::size_t>(dfa.TransitionByClass(s, k))];
      }
      next[static_cast<std::size_t>(s)] = table.Intern(signature);
    }
    block.swap(next);
    if (table.size() == num_blocks) break;
    num_blocks = table.size();
  }
  return block;
}

/// The same partition in one bottom-up pass, for DFAs that are acyclic
/// apart from sinks (non-accepting states that loop to themselves on
/// every class) — the trie DFAs of finite languages. Block 0 is the empty
/// language: every sink, and every non-accepting state whose successors
/// all have it. Any other state's language is fixed by its acceptance and
/// its successors' blocks, which a post-order numbers first. Returns
/// nullopt on any other cycle.
std::optional<std::vector<int>> AcyclicBlocks(const Dfa& dfa) {
  const int n = dfa.StateCount();
  const int classes = dfa.NumClasses();
  const auto at = [](int state) { return static_cast<std::size_t>(state); };
  enum : char { kNew, kOpen, kDone };
  std::vector<char> mark(at(n), kNew);
  std::vector<int> block(at(n), 0);
  for (int s = 0; s < n; ++s) {
    bool sink = !dfa.IsAccepting(s);
    for (int k = 0; sink && k < classes; ++k) {
      sink = dfa.TransitionByClass(s, k) == s;
    }
    if (sink) mark[at(s)] = kDone;
  }

  RowTable table(at(classes) + 1, at(n));
  std::vector<std::int32_t> signature(at(classes) + 1);
  std::vector<std::pair<int, int>> stack;  // (state, next class to visit)
  for (int root = 0; root < n; ++root) {
    if (mark[at(root)] != kNew) continue;
    mark[at(root)] = kOpen;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const int s = stack.back().first;
      const int k = stack.back().second++;
      if (k < classes) {
        const int t = dfa.TransitionByClass(s, k);
        if (mark[at(t)] == kDone) continue;
        if (mark[at(t)] == kOpen) return std::nullopt;
        mark[at(t)] = kOpen;
        stack.emplace_back(t, 0);
        continue;
      }
      bool empty = !dfa.IsAccepting(s);
      signature[0] = empty ? 0 : 1;
      for (int c = 0; c < classes; ++c) {
        signature[at(c) + 1] = block[at(dfa.TransitionByClass(s, c))];
        empty = empty && signature[at(c) + 1] == 0;
      }
      block[at(s)] = empty ? 0 : table.Intern(signature) + 1;
      mark[at(s)] = kDone;
      stack.pop_back();
    }
  }
  return block;
}

}  // namespace

Dfa Dfa::Minimize() const {
  std::vector<int> block;
  if (auto acyclic = AcyclicBlocks(*this)) {
    block = std::move(*acyclic);
  } else {
    block = MooreBlocks(*this);
  }
  // Number blocks by first occurrence over the state index, as Moore's
  // rounds do, so both paths give the same tables.
  std::vector<int> renumber(block.size() + 1, -1);
  int num_blocks = 0;
  for (int& b : block) {
    int& id = renumber[static_cast<std::size_t>(b)];
    if (id < 0) id = num_blocks++;
    b = id;
  }

  Dfa result;
  result.num_states_ = num_blocks;
  result.num_classes_ = num_classes_;
  result.byte_class_ = byte_class_;
  result.start_ = block[static_cast<std::size_t>(start_)];
  result.transitions_.assign(static_cast<std::size_t>(num_blocks) *
                                 static_cast<std::size_t>(num_classes_),
                             -1);
  result.accepting_.assign(static_cast<std::size_t>(num_blocks), false);
  for (int s = 0; s < num_states_; ++s) {
    const int b = block[static_cast<std::size_t>(s)];
    result.accepting_[static_cast<std::size_t>(b)] =
        accepting_[static_cast<std::size_t>(s)];
    for (int k = 0; k < num_classes_; ++k) {
      result.transitions_[static_cast<std::size_t>(b) *
                              static_cast<std::size_t>(num_classes_) +
                          static_cast<std::size_t>(k)] =
          block[static_cast<std::size_t>(TransitionByClass(s, k))];
    }
  }
  return result;
}

bool Dfa::EquivalentTo(const Dfa& other) const {
  // Synchronized BFS over the product automaton; the DFAs may have
  // different byte-class partitions, so we step the product once per byte
  // class of the *refined* common partition (pairs of classes).
  std::set<std::pair<int, int>> visited;
  std::vector<std::pair<int, int>> stack{{start_, other.start_}};
  visited.insert(stack.front());
  while (!stack.empty()) {
    auto [a, b] = stack.back();
    stack.pop_back();
    if (IsAccepting(a) != other.IsAccepting(b)) return false;
    // Step on one representative byte per (class_a, class_b) pair.
    std::set<std::pair<int, int>> seen_class_pairs;
    for (int byte = 0; byte < 256; ++byte) {
      const char c = static_cast<char>(byte);
      const std::pair<int, int> pair{ClassOf(c), other.ClassOf(c)};
      if (!seen_class_pairs.insert(pair).second) continue;
      const std::pair<int, int> next{Transition(a, c),
                                     other.Transition(b, c)};
      if (visited.insert(next).second) {
        stack.push_back(next);
      }
    }
  }
  return true;
}

bool Dfa::IsEmptyLanguage() const {
  std::vector<char> visited(static_cast<std::size_t>(num_states_), 0);
  std::vector<int> stack{start_};
  visited[static_cast<std::size_t>(start_)] = 1;
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    if (IsAccepting(s)) return false;
    for (int k = 0; k < num_classes_; ++k) {
      const int t = TransitionByClass(s, k);
      if (!visited[static_cast<std::size_t>(t)]) {
        visited[static_cast<std::size_t>(t)] = 1;
        stack.push_back(t);
      }
    }
  }
  return true;
}

Dfa BuildDfaFromStrings(const std::vector<std::string>& words) {
  Dfa dfa;
  // The byte classes ComputeByteClasses finds for the words' Thompson
  // NFA, whose edges are single bytes: each used byte alone, every other
  // byte in one shared class, numbered by first occurrence over 0..255.
  std::array<bool, 256> used{};
  for (const std::string& word : words) {
    for (const char c : word) used[static_cast<unsigned char>(c)] = true;
  }
  int other = -1;
  for (std::size_t b = 0; b < 256; ++b) {
    if (!used[b] && other >= 0) {
      dfa.byte_class_[b] = static_cast<std::int16_t>(other);
      continue;
    }
    if (!used[b]) other = dfa.num_classes_;
    dfa.byte_class_[b] = static_cast<std::int16_t>(dfa.num_classes_++);
  }
  const auto classes = static_cast<std::size_t>(dfa.num_classes_);

  // The trie over classes: node 0 is the root, -1 marks a missing child.
  std::vector<std::int32_t> child(classes, -1);
  std::vector<bool> final_node(1, false);
  for (const std::string& word : words) {
    std::size_t node = 0;
    for (const char c : word) {
      const std::size_t slot =
          node * classes + static_cast<std::size_t>(dfa.ClassOf(c));
      if (child[slot] < 0) {
        child[slot] = static_cast<std::int32_t>(final_node.size());
        final_node.push_back(false);
        child.resize(child.size() + classes, -1);
      }
      node = static_cast<std::size_t>(child[slot]);
    }
    final_node[node] = true;
  }

  // Number the states as FromNfa discovers the subsets: a LIFO worklist
  // from the root, classes ascending, and the dead state (the empty
  // subset) numbered when a missing child first reaches it. Every trie
  // has a leaf, so the dead state always exists.
  const std::size_t states = final_node.size() + 1;
  dfa.num_states_ = static_cast<int>(states);
  dfa.transitions_.assign(states * classes, -1);
  dfa.accepting_.assign(states, false);
  std::int32_t next_id = 1;
  std::int32_t dead = -1;
  std::vector<std::pair<std::size_t, std::int32_t>> worklist{{0, 0}};
  while (!worklist.empty()) {
    const auto [node, id] = worklist.back();
    worklist.pop_back();
    const std::size_t row = static_cast<std::size_t>(id) * classes;
    dfa.accepting_[static_cast<std::size_t>(id)] = final_node[node];
    for (std::size_t k = 0; k < classes; ++k) {
      const std::int32_t next = child[node * classes + k];
      if (next >= 0) {
        worklist.emplace_back(static_cast<std::size_t>(next), next_id);
        dfa.transitions_[row + k] = next_id++;
      } else {
        if (dead < 0) dead = next_id++;
        dfa.transitions_[row + k] = dead;
      }
    }
  }
  const auto dead_row = static_cast<std::size_t>(dead) * classes;
  std::fill_n(dfa.transitions_.begin() + static_cast<std::ptrdiff_t>(dead_row),
              classes, dead);
  return dfa;
}

CharSet Dfa::ClassChars(int byte_class) const {
  CharSet set;
  for (int b = 0; b < 256; ++b) {
    if (byte_class_[static_cast<std::size_t>(b)] == byte_class) {
      set.Add(static_cast<char>(b));
    }
  }
  return set;
}

}  // namespace confanon::regex
