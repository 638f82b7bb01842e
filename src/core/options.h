// Engine options, shared by every dialect's rule pack.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "asn/regex_rewrite.h"
#include "net/prefix.h"
#include "passlist/passlist.h"

namespace confanon::core {

struct AnonymizerOptions {
  /// The network owner's secret; drives every mapping.
  std::string salt = "default-salt";
  /// How rewritten policy regexps are rendered.
  asn::RewriteForm regex_form = asn::RewriteForm::kAlternation;
  /// Strip comments/banners/description payloads. On by default; the
  /// ablation benches turn it off to measure what leaks through.
  bool strip_comments = true;
  /// Rule names to disable, for the iterative-refinement experiment
  /// (Section 6.1) where an initially incomplete rule set is grown until
  /// the leak detector comes back clean. Only the IOS rule pack has
  /// toggles.
  std::set<std::string> disabled_rules;
  /// The pass-list to consult; defaults to the embedded corpus. The
  /// coverage ablation passes a Truncated() copy.
  passlist::PassList pass_list = passlist::PassList::Builtin();
  /// Additional entries merged on top of the dialect baseline. Unlike
  /// `pass_list` (which *replaces* the IOS baseline and is ignored by the
  /// JunOS rule pack), extras apply in every dialect — this is the field
  /// the daemon's per-tenant pass-lists land in, and the one the static
  /// policy verifier (src/verify) checks before a session may be created.
  passlist::PassList extra_pass_list;

  /// Known external entities (paper Section 5): "it might be well known
  /// that all addresses used by AS number X have prefix Y ... If the
  /// anonymizer is provided with the well known external information on
  /// which the implicit relationship is based, it can be extended to
  /// preserve these relationships as well." Each declared entity groups
  /// public ASNs and prefixes that belong to one real-world organization;
  /// core::ExportKnownEntities emits the *anonymized* grouping so
  /// researchers can re-link the two mechanisms without learning who the
  /// entity is.
  struct KnownEntity {
    std::string label;  // never emitted; operator-side bookkeeping only
    std::vector<std::uint32_t> asns;
    std::vector<net::Prefix> prefixes;
  };
  std::vector<KnownEntity> known_entities;
};

}  // namespace confanon::core
