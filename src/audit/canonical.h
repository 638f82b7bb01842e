// Structural fingerprint canonicalization: the auditor's one scan per
// file.
//
// Pair mode must verify that an anonymized corpus is isomorphic to its
// original "up to renaming" without any secret state. The anonymizer's
// per-class maps are all injective — the word hash is collision-checked,
// the ASN and community-value permutations are bijections, and the IP map
// is prefix-preserving and injective — so the *equality pattern* of
// renamed tokens is exactly what survives anonymization. This module
// reduces each config file to that pattern: every token is classified as
// verbatim (must match exactly), renamed within a class space (word /
// ASN / community / address — compared by first-occurrence numbering and
// a corpus-wide rename bimap), or opaque (rewritten regexp payloads,
// whose text legitimately changes shape).
//
// The classifier mirrors the default rule packs of core::Anonymizer and
// junos::JunosAnonymizer: the same context rules fire on both the
// original and the anonymized text because every trigger keyword is
// pass-listed and therefore survives. (Known limitation, documented in
// docs/AUDIT.md: identifiers that collide with dialect keywords would
// desynchronize the classifier — the anonymizer itself has the same
// ambiguity.)
//
// The same line loop also records everything else the audit needs from
// the text, so no other audit module reads a line again: the def/use
// reference events (pair-mode graph comparison, dangling-use and
// dead-definition lint), the free-text residue sites the lint reports,
// and which lines are hostname statements.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "config/document.h"
#include "core/session.h"
#include "net/prefix.h"

namespace confanon::audit {

enum class TokenClass : std::uint8_t {
  kVerbatim,  // must be byte-identical pre/post
  kWord,      // hashed-identifier space (injective word hash)
  kAsn,       // ASN space (public-range permutation, identity on private)
  kComm,      // community literal (ASN:VALUE or 32-bit numeric form)
  kAddr,      // IPv4 address space (prefix-preserving injective map)
  kRegex,     // rewritten regexp payload — opaque, shape-compared only
  kAsnList,   // quoted ASN sequence (JunOS as-path-prepend)
};

struct CanonToken {
  TokenClass cls = TokenClass::kVerbatim;
  /// Rename key (original token text) for renamed classes; literal text
  /// for kVerbatim; space-separated members for kAsnList; empty for
  /// kRegex.
  std::string key;
  /// Verbatim tail rendered after the placeholder (the "/len" of a CIDR
  /// token).
  std::string suffix;
  /// JunOS quoted-string tokens render inside quotes.
  bool quoted = false;
};

/// One emitted output line: its canonical tokens plus the source line it
/// came from (banner bodies are dropped, so output and source lines do
/// not correspond 1:1).
struct CanonLine {
  std::vector<CanonToken> tokens;
  std::uint32_t source_line = 0;  // zero-based
  /// The line is a hostname statement (IOS `hostname X`, JunOS
  /// `host-name X;`).
  bool hostname = false;
};

/// An address-bearing token occurrence, for the prefix-containment
/// lattice: CIDR tokens contribute their literal prefix, bare addresses
/// contribute /32, and IOS address+netmask pairs contribute the masked
/// subnet.
struct PrefixEvent {
  net::Prefix prefix;
  std::uint32_t source_line = 0;
};

/// Symbol spaces of the def/use reference rules. JunOS and IOS spaces
/// are unified (policy-statement == route-map, community ==
/// community-list) so the resolver reports one vocabulary.
enum class SymbolSpace : std::uint8_t {
  kAcl,
  kRouteMap,       // IOS route-map / JunOS policy-statement
  kPrefixList,
  kCommunityList,  // IOS ip community-list / JunOS community
  kAsPathList,     // IOS ip as-path access-list / JunOS as-path
  kPeerGroup,      // IOS peer-group / JunOS bgp group
  kInterface,
  kKeyChain,
  kNatPool,
};

const char* SymbolSpaceName(SymbolSpace space);

/// One definition or use site, in file order.
struct RefEvent {
  SymbolSpace space;
  bool is_def = false;
  std::string name;
  std::uint32_t line = 0;  // zero-based source line
};

/// Identity-bearing free text the anonymizer must have removed
/// (lint rule AUD-R001).
enum class ResidueKind : std::uint8_t {
  kBanner,           // IOS banner block (anchored at its first line)
  kPayload,          // IOS text after description/title/remark/snmp-server
  kBlockComment,     // JunOS /* */ comment line with content
  kString,           // JunOS non-empty description/message string
  kTrailingComment,  // JunOS trailing '#' comment
};

struct ResidueSite {
  ResidueKind kind = ResidueKind::kBanner;
  std::uint32_t line = 0;  // zero-based source line
  /// Lowercase trigger keyword for kPayload and kString.
  std::string keyword;
};

struct CanonicalFile {
  std::string name;
  /// True when the anonymizer would rename the file name (i.e. the name
  /// is not pass-listed); renamed names are compared through their own
  /// bimap space.
  bool name_renamed = false;
  std::vector<CanonLine> lines;
  std::vector<PrefixEvent> prefixes;
  /// Def/use reference events, in file order.
  std::vector<RefEvent> refs;
  /// Free-text residue sites, in file order.
  std::vector<ResidueSite> residue;
  /// Per-protocol line counts for the structural fingerprint summary.
  std::map<std::string, std::uint64_t> counts;
  std::size_t source_line_count = 0;
  /// SHA-1 hex over the file-locally numbered shape — the pairing key
  /// between pre and post corpora (output file names are hashed, so
  /// pairing by name is impossible by design).
  std::string shape_hash;
};

/// Canonicalizes one file under the given dialect's default rule pack
/// (kAuto resolves through core::DetectDialect).
CanonicalFile Canonicalize(const config::ConfigFile& file,
                           core::ConfigDialect dialect);

/// Renders the shape lines with file-local first-occurrence numbering
/// (W1/A1/C1/IP1/RE placeholders). Used for the shape hash and for
/// first-divergence diffs between unpaired files.
std::vector<std::string> RenderShape(const CanonicalFile& file);

/// True for tokens of the anonymizer's hash alphabet: "h" + 10 lowercase
/// hex digits.
bool IsHashToken(std::string_view word);

}  // namespace confanon::audit
