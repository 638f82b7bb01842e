// JunOS-mode anonymizer.
//
// Exercises the paper's claim (Section 1, footnote 2) that the IOS
// anonymization techniques "are directly applicable to JunOS and other
// router configuration languages": the same primitives — salted-SHA1
// hashing with referential integrity, the prefix-preserving IP map, the
// keyed ASN permutation, community anonymization and regexp language
// rewriting — are driven by a JunOS-specific rule pack over the
// hierarchical brace syntax:
//
//   * comments are '/* ... */' blocks and trailing '#' text, stripped;
//   * free text lives in quoted strings after `description` / `message`,
//     stripped;
//   * `host-name` / `domain-name` arguments are force-hashed;
//   * `peer-as N;` / `autonomous-system N;` carry ASNs;
//   * `as-path NAME "REGEX";` and `community NAME members "REGEX";` carry
//     policy regexps (rewritten by language computation);
//   * `members [ 701:120 ... ]` carries community literals;
//   * `as-path-prepend "N N";` carries ASNs inside a quoted string;
//   * addresses appear in CIDR form ("address 1.2.3.4/30;"), mapped by
//     the shared trie.
//
// JunosRules is that rule pack; JunosAnonymizer is the one engine
// (core/engine.h) instantiated over it. Construct it with the SAME
// core::NetworkState (or just the same salt) as an IOS engine and the
// mappings agree (tested) — which is how the pipeline routes a mixed
// IOS/JunOS corpus through one consistent mapping.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/document.h"
#include "core/engine.h"
#include "core/options.h"
#include "junos/tokenizer.h"
#include "net/ipv4.h"
#include "passlist/passlist.h"

namespace confanon::junos {

/// The embedded IOS corpus extended with JunOS keywords.
passlist::PassList JunosPassList();

/// The JunOS rule pack driven by core::Engine (see core/engine.h). It
/// reads the JunOS-applicable subset of core::AnonymizerOptions: salt,
/// regex_form, strip_comments and extra_pass_list (merged on top of
/// JunosPassList()); it has no rule toggles. Rule counters carry
/// globally unique "J." names, which land under "junos.rule.J.*" in a
/// metrics registry; every other metric carries the "junos." prefix too,
/// so a mixed IOS/JunOS run shares one registry without collisions.
class JunosRules : public core::EngineBase {
  // The dialect's collectors and pass-list baseline; see
  // core::DialectDescriptor. Tokens come from the JunOS tokenizer, and
  // hash candidates include the contents of quoted strings.
  static void CollectFileAddresses(const config::ConfigFile& file,
                                   std::vector<net::Ipv4Address>& out);
  static void CollectHashCandidates(const config::ConfigFile& file,
                                    const passlist::PassList& pass_list,
                                    std::vector<std::string_view>& out);
  static passlist::PassList BasePassList(const core::AnonymizerOptions&) {
    return JunosPassList();
  }

 public:
  static constexpr core::DialectDescriptor kDialect{
      .metric_prefix = "junos.",
      .timing_prefix = "junos.",
      .network_span = "junos-anonymize-network",
      .preload_span = "junos-preload",
      .preload_rule = nullptr,
      .rewrite_metrics = false,
      .pass_list = &BasePassList,
      .collect_addresses = &CollectFileAddresses,
      .collect_hash_candidates = &CollectHashCandidates,
  };

 protected:
  using Line = JunosLine;

  JunosRules(core::AnonymizerOptions options,
             std::shared_ptr<core::NetworkState> state)
      : EngineBase(kDialect, std::move(options), std::move(state)) {}

  void BeginFile(const config::ConfigFile&) { in_block_comment_ = false; }
  /// One raw input line: block-comment handling, tokenization, rule
  /// pack. Returns the rewritten line, or nullptr after emitting a
  /// comment placeholder.
  Line* RewriteLine(const config::ConfigFile& file, std::size_t index,
                    std::vector<std::string>& out_lines);

 private:
  void ProcessLine(JunosLine& line);
  /// Force-hashes the word token at `index` (records it when unknown).
  void ForceHash(JunosLine& line, std::size_t index, const char* rule);
  /// Replaces `token` with its hash token (quoted for kString tokens):
  /// memo hits rewrite in place, misses register the token's text slot
  /// with the batcher and defer the line.
  void HashToken(Token& token);
  std::string MapAsnText(std::string_view text);

  bool in_block_comment_ = false;
  /// Reused across lines so tokenize allocates nothing in steady state.
  JunosLine line_buf_;
};

/// The JunOS anonymizer: the one engine driven by the JunOS rule pack.
using JunosAnonymizer = core::Engine<JunosRules>;

}  // namespace confanon::junos

namespace confanon::core {
extern template class Engine<junos::JunosRules>;
}  // namespace confanon::core
