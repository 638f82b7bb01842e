#include "regex/intersect.h"

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "regex/nfa.h"
#include "regex/parser.h"

namespace confanon::regex {

namespace {

/// Byte order used by the BFS so witnesses come out readable: digits,
/// then lowercase letters, then the punctuation config identifiers use,
/// then everything else ascending. Computed once.
const std::array<unsigned char, 256>& WitnessByteOrder() {
  static const std::array<unsigned char, 256> order = [] {
    std::array<unsigned char, 256> out{};
    std::array<bool, 256> used{};
    std::size_t n = 0;
    const auto add = [&](unsigned char c) {
      if (!used[c]) {
        used[c] = true;
        out[n++] = c;
      }
    };
    for (unsigned char c = '0'; c <= '9'; ++c) add(c);
    for (unsigned char c = 'a'; c <= 'z'; ++c) add(c);
    for (const unsigned char c : {'.', ':', '-', '_', '/'}) add(c);
    for (unsigned char c = 'A'; c <= 'Z'; ++c) add(c);
    for (int c = 0; c < 256; ++c) add(static_cast<unsigned char>(c));
    return out;
  }();
  return order;
}

/// One explored product state: the (a, b) state pair plus the BFS tree
/// edge that discovered it, for witness reconstruction.
struct ProductNode {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t parent = -1;  // index into the node arena
  unsigned char byte = 0;    // edge label from parent
};

std::uint64_t PairKey(std::int32_t a, std::int32_t b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

std::string ReconstructWitness(const std::vector<ProductNode>& nodes,
                               std::int32_t index) {
  std::string witness;
  for (std::int32_t at = index; nodes[static_cast<std::size_t>(at)].parent >= 0;
       at = nodes[static_cast<std::size_t>(at)].parent) {
    witness += static_cast<char>(nodes[static_cast<std::size_t>(at)].byte);
  }
  return {witness.rbegin(), witness.rend()};
}

/// States from which some accepting state is reachable, via backward
/// reachability over the transition graph. Transitions into non-alive
/// states (the explicit dead state and any trap region) can never extend
/// to a witness, so the product walk prunes them.
std::vector<bool> AliveStates(const Dfa& dfa) {
  const int n = dfa.StateCount();
  std::vector<std::vector<std::int32_t>> reverse(
      static_cast<std::size_t>(n));
  for (int state = 0; state < n; ++state) {
    for (int byte_class = 0; byte_class < dfa.NumClasses(); ++byte_class) {
      reverse[static_cast<std::size_t>(
                  dfa.TransitionByClass(state, byte_class))]
          .push_back(state);
    }
  }
  std::vector<bool> alive(static_cast<std::size_t>(n), false);
  std::deque<std::int32_t> queue;
  for (int state = 0; state < n; ++state) {
    if (dfa.IsAccepting(state)) {
      alive[static_cast<std::size_t>(state)] = true;
      queue.push_back(state);
    }
  }
  while (!queue.empty()) {
    const std::int32_t state = queue.front();
    queue.pop_front();
    for (const std::int32_t pred : reverse[static_cast<std::size_t>(state)]) {
      if (!alive[static_cast<std::size_t>(pred)]) {
        alive[static_cast<std::size_t>(pred)] = true;
        queue.push_back(pred);
      }
    }
  }
  return alive;
}

/// Shared BFS: walks the product automaton shortest-first, calling
/// `on_accept` for every accepting product node in discovery order until
/// it returns false. `dedupe` controls whether a product state pair is
/// expanded once (emptiness / shortest witness) or once per distinct
/// path (enumeration of a finite language's strings).
template <typename OnAccept>
void ProductWalk(const Dfa& a, const Dfa& b, bool dedupe,
                 std::size_t max_length, std::size_t max_nodes,
                 OnAccept&& on_accept) {
  const std::array<unsigned char, 256>& order = WitnessByteOrder();
  const std::vector<bool> alive_a = AliveStates(a);
  const std::vector<bool> alive_b = AliveStates(b);
  if (!alive_a[static_cast<std::size_t>(a.start())] ||
      !alive_b[static_cast<std::size_t>(b.start())]) {
    return;  // one side's whole language is empty
  }

  std::vector<ProductNode> nodes;
  std::vector<std::size_t> depth;
  std::unordered_map<std::uint64_t, bool> visited;
  std::deque<std::int32_t> queue;

  nodes.push_back({a.start(), b.start(), -1, 0});
  depth.push_back(0);
  visited[PairKey(a.start(), b.start())] = true;
  queue.push_back(0);

  while (!queue.empty()) {
    const std::int32_t index = queue.front();
    queue.pop_front();
    const ProductNode node = nodes[static_cast<std::size_t>(index)];
    if (a.IsAccepting(node.a) && b.IsAccepting(node.b)) {
      if (!on_accept(nodes, index)) return;
    }
    if (depth[static_cast<std::size_t>(index)] >= max_length) continue;
    if (nodes.size() >= max_nodes) continue;  // cap runaway products
    for (const unsigned char byte : order) {
      const char c = static_cast<char>(byte);
      const std::int32_t na = a.Transition(node.a, c);
      const std::int32_t nb = b.Transition(node.b, c);
      if (!alive_a[static_cast<std::size_t>(na)] ||
          !alive_b[static_cast<std::size_t>(nb)]) {
        continue;  // no witness can extend through a dead side
      }
      if (dedupe) {
        bool& seen = visited[PairKey(na, nb)];
        if (seen) continue;
        seen = true;
      }
      nodes.push_back({na, nb, index, byte});
      depth.push_back(depth[static_cast<std::size_t>(index)] + 1);
      queue.push_back(static_cast<std::int32_t>(nodes.size() - 1));
    }
  }
}

}  // namespace

bool IntersectionEmpty(const Dfa& a, const Dfa& b) {
  return !ShortestIntersectionWitness(a, b).has_value();
}

std::optional<std::string> ShortestIntersectionWitness(const Dfa& a,
                                                       const Dfa& b) {
  std::optional<std::string> witness;
  // Depth bound: every product state pair is visited at most once, so any
  // accepting pair is reached within |a| x |b| steps.
  const std::size_t max_length = static_cast<std::size_t>(a.StateCount()) *
                                 static_cast<std::size_t>(b.StateCount());
  ProductWalk(a, b, /*dedupe=*/true, max_length,
              /*max_nodes=*/1u << 22,
              [&](const std::vector<ProductNode>& nodes, std::int32_t index) {
                witness = ReconstructWitness(nodes, index);
                return false;  // first accept in BFS order is shortest
              });
  return witness;
}

std::vector<std::string> EnumerateIntersection(const Dfa& a, const Dfa& b,
                                               std::size_t max_results,
                                               std::size_t max_length) {
  std::vector<std::string> results;
  if (max_results == 0) return results;
  // No dedupe: distinct strings can share product states. The node cap
  // bounds the walk on products with cyclic (infinite) intersections.
  ProductWalk(a, b, /*dedupe=*/false, max_length, /*max_nodes=*/1u << 20,
              [&](const std::vector<ProductNode>& nodes, std::int32_t index) {
                results.push_back(ReconstructWitness(nodes, index));
                return results.size() < max_results;
              });
  return results;
}

Dfa CompileFullMatchDfa(std::string_view pattern) {
  Ast ast;
  ParseOptions options;
  options.cisco_underscore = false;
  ast.set_root(ParsePattern(pattern, options, ast));
  return Dfa::FromNfa(Nfa::Build(ast)).Minimize();
}

}  // namespace confanon::regex
