// The configuration anonymizer — the paper's primary contribution.
//
// The anonymizer rewrites a network's config files so that every element
// that could tie the data to the owner is removed or transformed while the
// structure of the information survives:
//
//   * free text (comments, banners, description/remark payloads) is
//     stripped outright (Section 4.2);
//   * every word whose alphabetic segments are not all on the pass-list is
//     replaced by a salted-SHA1 token, consistently across all files of
//     the network (Section 4.1) — this preserves referential integrity of
//     route-map names, ACL names, hostnames and every other identifier;
//   * IP addresses go through the class-, subnet- and prefix-relationship-
//     preserving map of src/ipanon (Section 4.3), with netmasks and other
//     special addresses passed through;
//   * public ASNs go through a keyed random permutation, including ASNs
//     reachable only through regular expressions, which are rewritten via
//     language computation (Section 4.4);
//   * BGP communities are anonymized in both halves, in literals and in
//     regexps (Section 4.5).
//
// Mechanically, the anonymizer is an ordered list of 28 context rules
// (Section 4.2 counts them: 2 tokenization + 3 comment + 4 miscellaneous
// + 12 ASN-location + 7 IP/context rules) applied line by line, with no
// full grammar — by design, since no consistent grammar exists across the
// 200+ IOS versions the tool must survive (Section 3). The rules are named
// in core/rules.h.
//
// This header is the IOS rule pack (IosRules); core::Anonymizer is the
// one engine (core/engine.h) instantiated over it. All mapping state
// (hash memo, IP trie, ASN permutation) lives in a core::NetworkState
// shared by every engine of one network: one state == one network. An
// Anonymizer constructed standalone owns a fresh state; a pipeline
// constructs several engines over one shared state so files can be
// anonymized in parallel (and across dialects) with full referential
// integrity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "config/tokenizer.h"
#include "core/engine.h"
#include "core/options.h"
#include "core/rules.h"
#include "net/ipv4.h"
#include "passlist/passlist.h"
#include "util/arena.h"

namespace confanon::core {

/// The IOS rule pack driven by core::Engine (see core/engine.h).
class IosRules : public EngineBase {
  // The dialect's collectors and pass-list baseline; see
  // DialectDescriptor. Every word is split on whitespace.
  static void CollectFileAddresses(const config::ConfigFile& file,
                                   std::vector<net::Ipv4Address>& out);
  static void CollectHashCandidates(const config::ConfigFile& file,
                                    const passlist::PassList& pass_list,
                                    std::vector<std::string_view>& out);
  /// IOS consults options.pass_list (defaulting to the embedded corpus).
  static passlist::PassList BasePassList(const AnonymizerOptions& options) {
    return options.pass_list;
  }

 public:
  static constexpr DialectDescriptor kDialect{
      .metric_prefix = "",
      .timing_prefix = "core.",
      .network_span = "anonymize-network",
      .preload_span = "preload.I7",
      .preload_rule = Rule::kSubnetPreload,
      .rewrite_metrics = true,
      .pass_list = &BasePassList,
      .collect_addresses = &CollectFileAddresses,
      .collect_hash_candidates = &CollectHashCandidates,
  };

 protected:
  using Line = config::LineTokens;

  IosRules(AnonymizerOptions options, std::shared_ptr<NetworkState> state);

  /// Marks the file's banner regions (rule C3).
  void BeginFile(const config::ConfigFile& file);
  /// Processes one input line: comment rules, then the fused
  /// single-dispatch word pass over the tokens. Returns the rewritten
  /// tokens, or nullptr after emitting a comment line's '!' (or nothing,
  /// for banner continuation lines).
  Line* RewriteLine(const config::ConfigFile& file, std::size_t index,
                    std::vector<std::string>& out_lines);

 private:
  /// Everything the five word passes need for one line, computed once.
  /// `lower` mirrors `tokens.words` lowercased and is kept in sync by
  /// every mutation — exactly the view each pass used to recompute.
  ///
  /// All views are zero-copy: tokens alias the input line, lowercase
  /// mirrors alias the word itself when it carries no uppercase, and
  /// every rewrite repoints the word at bytes owned by either the
  /// hasher's memo (stable for the network's lifetime) or the per-file
  /// arena (stable until the file's lines are rendered).
  struct LineCtx {
    config::LineTokens tokens;
    std::vector<std::string_view> lower;
    std::vector<bool> handled;
    util::Arena* arena = nullptr;

    /// Repoints words[i] at `stable` — bytes the caller guarantees
    /// outlive the line (hasher memo entries, string literals).
    void SetWordRef(std::size_t i, std::string_view stable);
    /// Copies `value` into the arena, then repoints words[i] at the
    /// copy. For computed strings (mapped addresses, permuted ASNs).
    void SetWord(std::size_t i, std::string_view value);
    /// Drops words[from..], keeping the trailing gap (free-text strips).
    void TruncateWords(std::size_t from);
    /// Collapses words[from..] to one arena-copied replacement word
    /// (regexp rewrites), resetting `handled` with only the replacement
    /// marked.
    void ReplaceTailWith(std::size_t from, std::string_view replacement);
  };

  /// Whether rule `rule` runs: options.disabled_rules, resolved once at
  /// construction so the per-token hot paths test a bit instead of
  /// probing a set<string>.
  bool On(Rule rule) const { return !disabled_[RuleIndex(rule)]; }

  /// Comment rules (C1). Returns false when the whole line collapses to
  /// a '!' comment.
  bool ApplyCommentRules(std::string_view line);
  /// The five word passes fused into one dispatch: line-shaped rules
  /// (free text, ASN locations, misc) run off the shared lowercase view,
  /// then one loop applies the per-token IP and generic-hashing rules to
  /// each word in a single traversal.
  void ApplyWordPasses(LineCtx& ctx);
  void ApplyFreeTextRules(LineCtx& ctx);
  void ApplyAsnLineRules(LineCtx& ctx);
  void ApplyMiscLineRules(LineCtx& ctx);
  /// Fused per-token pass: IP rules (I1/I2/I3 + I4/I5/I6 context
  /// accounting) and generic hashing (T1/T2) applied to token i before
  /// moving to token i+1.
  void ApplyTokenRules(LineCtx& ctx);

  /// Replaces words[i] with its hash token: memo hits rewrite in place,
  /// misses register the word slot with the batcher and defer the line.
  /// After this call ctx.lower[i] is stale on the miss path; no rule may
  /// read words[i]/lower[i] once token i has been hashed (all current
  /// rules guard reads with !handled[i] or only read leading keywords,
  /// which are never hashed before being read).
  void HashWord(LineCtx& ctx, std::size_t i);

  /// Public ASNs accepted by a policy regexp (for the A12 audit record).
  std::vector<std::uint32_t> AcceptedPublicAsns(
      std::string_view pattern) const;

  std::string MapAsnWord(std::string_view word);
  void RecordAsn(std::uint32_t asn);

  const RuleSet disabled_;
  /// Banner regions of the current file (rule C3).
  std::vector<bool> in_banner_;
  std::vector<bool> banner_start_;
  /// Reused across lines so tokenize allocates nothing in steady state.
  LineCtx line_ctx_;
};

extern template class Engine<IosRules>;

/// The IOS anonymizer: the one engine driven by the IOS rule pack.
using Anonymizer = Engine<IosRules>;

}  // namespace confanon::core
