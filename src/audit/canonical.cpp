#include "audit/canonical.h"

#include <optional>
#include <utility>

#include "asn/asn_map.h"
#include "asn/community.h"
#include "config/tokenizer.h"
#include "junos/anonymizer.h"
#include "junos/tokenizer.h"
#include "net/ipv4.h"
#include "net/special.h"
#include "passlist/passlist.h"
#include "util/charscan.h"
#include "util/sha1.h"
#include "util/strings.h"

namespace confanon::audit {

namespace {

constexpr std::size_t kNone = ~std::size_t{0};

const passlist::PassList& IosPassList() {
  static const passlist::PassList list = passlist::PassList::Builtin();
  return list;
}

const passlist::PassList& JunosAuditPassList() {
  static const passlist::PassList list = junos::JunosPassList();
  return list;
}

bool IsQuoted(std::string_view text) {
  return text.size() >= 2 && text.front() == '"' && text.back() == '"';
}

std::string_view Unquote(std::string_view text) {
  return IsQuoted(text) ? text.substr(1, text.size() - 2) : text;
}

/// Mirrors the generic pass-list decision (rules T1/T2 and the JunOS
/// generic pass): the word survives iff every alphabetic segment is
/// pass-listed.
bool AllSegmentsPassed(std::string_view word, const passlist::PassList& list) {
  for (const config::Segment& segment : config::SegmentWord(word)) {
    if (segment.alpha && !list.Contains(segment.text)) return false;
  }
  return true;
}

/// Decimal-normalizes an ASN token the way MapAsnWord/MapAsnText render
/// their result (std::to_string strips leading zeros even for identity
/// mappings). Returns nullopt when the token does not parse as a 16-bit
/// ASN — the anonymizer leaves such tokens verbatim.
std::optional<std::string> NormalizeAsn(std::string_view word) {
  std::uint64_t asn = 0;
  if (!util::ParseUint(word, asn::kMaxAsn, asn)) return std::nullopt;
  return std::to_string(asn);
}

CanonToken Verbatim(std::string_view text) {
  return CanonToken{TokenClass::kVerbatim, std::string(text), "", false};
}

/// Keywords that can appear among community operands (IOS `match` / `set
/// community`, community-list entries) without being list names or
/// community values.
bool IsCommunityKeyword(std::string_view lower) {
  return lower == "additive" || lower == "none" || lower == "internet" ||
         lower == "no-export" || lower == "no-advertise" ||
         lower == "local-as" || lower == "exact" || lower == "exact-match";
}

/// Lowercase first word of a hostname statement (IOS `hostname X`,
/// JunOS `host-name X;`).
bool IsHostnameKeyword(std::string_view lower) {
  return lower == "hostname" || lower == "host-name";
}

/// Shared token-class outcome of the address + generic passes, identical
/// in both dialects (the IOS fused token pass and the JunOS IP + generic
/// passes make the same per-token decision; only the pass-list differs).
CanonToken ClassifyValueToken(std::string_view word,
                              const passlist::PassList& pass_list,
                              bool try_address, std::uint32_t source_line,
                              std::vector<PrefixEvent>& prefixes,
                              bool* plain_address = nullptr) {
  if (try_address) {
    const std::size_t slash = word.find('/');
    if (slash != std::string_view::npos) {
      const auto address = net::Ipv4Address::Parse(word.substr(0, slash));
      std::uint64_t length = 0;
      if (address && util::ParseUint(word.substr(slash + 1), 32, length)) {
        if (net::IsSpecial(*address)) return Verbatim(word);
        prefixes.push_back(PrefixEvent{
            net::Prefix(*address, static_cast<int>(length)), source_line});
        return CanonToken{TokenClass::kAddr, address->ToString(),
                          "/" + std::to_string(length), false};
      }
    }
    if (const auto address = net::Ipv4Address::Parse(word)) {
      if (net::IsSpecial(*address)) return Verbatim(word);
      prefixes.push_back(PrefixEvent{net::Prefix(*address, 32), source_line});
      if (plain_address != nullptr) *plain_address = true;
      return CanonToken{TokenClass::kAddr, address->ToString(), "", false};
    }
  }
  if (word.empty() || config::IsNonAlphabetic(word)) return Verbatim(word);
  // Hash-alphabet override: anonymized identifiers ("h" + 10 hex chars)
  // can have every alphabetic segment pass-listed by accident, which
  // would classify them verbatim while the original was a renamed word.
  // Forcing the hash shape into the word class keeps pre/post symmetric.
  if (IsHashToken(word)) {
    return CanonToken{TokenClass::kWord, std::string(word), "", false};
  }
  if (AllSegmentsPassed(word, pass_list)) return Verbatim(word);
  return CanonToken{TokenClass::kWord, std::string(word), "", false};
}

// ---------------------------------------------------------------------------
// IOS mirror
// ---------------------------------------------------------------------------

/// Working state for one IOS line, mirroring IosRules::LineCtx: the
/// word list (possibly truncated by the free-text rules), the lowercase
/// view the context rules match on, and the per-word classification
/// standing in for the rewrite. A regexp rewrite collapses the tail into
/// one opaque token (`collapse_from`), exactly like ReplaceTailWith.
struct IosLineCtx {
  std::vector<std::string_view> words;
  std::vector<std::string> lower;
  std::vector<std::optional<CanonToken>> cls;
  std::size_t collapse_from = kNone;
  CanonToken collapse_token;

  std::size_t Limit() const {
    return collapse_from == kNone ? words.size() : collapse_from;
  }
  void Truncate(std::size_t from) {
    words.resize(from);
    lower.resize(from);
    cls.resize(from);
  }
  void Collapse(std::size_t from, CanonToken token) {
    collapse_from = from;
    collapse_token = std::move(token);
  }
  void Claim(std::size_t i, CanonToken token) { cls[i] = std::move(token); }
  bool Claimed(std::size_t i) const { return cls[i].has_value(); }
};

/// Rule C2's trigger: index of the first free-text word after
/// description/title/remark, or kNone.
std::size_t FreeTextPayloadStart(const std::vector<std::string>& lower) {
  if (lower.empty()) return kNone;
  if (lower[0] == "description" || lower[0] == "title") return 1;
  for (std::size_t i = 0; i + 1 < lower.size(); ++i) {
    if (lower[i] == "remark" || lower[i] == "description") return i + 1;
  }
  return kNone;
}

/// Rule C2: free-text payload removal.
void IosFreeText(IosLineCtx& ctx) {
  const std::size_t payload_from = FreeTextPayloadStart(ctx.lower);
  if (payload_from < ctx.words.size()) ctx.Truncate(payload_from);
}

/// Residue sites of rule C2 and of the snmp-server free-text fields
/// (rule M2), read off the full word list of a non-comment line.
void NoteIosPayload(const std::vector<std::string>& lower,
                    std::uint32_t line_no, std::vector<ResidueSite>& out) {
  if (lower.empty() || lower[0].front() == '!') return;
  std::size_t payload_from = FreeTextPayloadStart(lower);
  if (lower.size() >= 3 && lower[0] == "snmp-server" &&
      (lower[1] == "contact" || lower[1] == "location" ||
       lower[1] == "chassis-id")) {
    payload_from = 2;
  }
  if (payload_from < lower.size()) {
    out.push_back(
        ResidueSite{ResidueKind::kPayload, line_no, lower[payload_from - 1]});
  }
}

/// Claims word `i` as an ASN if it decimal-parses (MapAsnWord renders a
/// normalized decimal); otherwise the anonymizer leaves the text in place
/// but still marks it handled.
void ClaimAsnWord(IosLineCtx& ctx, std::size_t i) {
  if (const auto normalized = NormalizeAsn(ctx.words[i])) {
    ctx.Claim(i, CanonToken{TokenClass::kAsn, *normalized, "", false});
  } else {
    ctx.Claim(i, Verbatim(ctx.words[i]));
  }
}

/// Claims word `i` as a community literal (normalized rendering) — caller
/// has already checked ParseCommunity succeeds.
void ClaimCommunity(IosLineCtx& ctx, std::size_t i,
                    const asn::Community& literal) {
  ctx.Claim(i, CanonToken{TokenClass::kComm, literal.ToString(), "", false});
}

/// Rules A1-A11, with the anonymizer's exact dispatch and early returns.
void IosAsnLineRules(IosLineCtx& ctx) {
  auto& words = ctx.words;
  if (words.empty()) return;
  const auto& lower = ctx.lower;

  if (words.size() >= 3 && lower[0] == "router" && lower[1] == "bgp" &&
      util::IsAllDigits(words[2])) {
    ClaimAsnWord(ctx, 2);
    return;
  }

  if (words.size() >= 4 && lower[0] == "neighbor") {
    if ((lower[2] == "remote-as" || lower[2] == "local-as") &&
        util::IsAllDigits(words[3])) {
      ClaimAsnWord(ctx, 3);
    }
    return;
  }

  if (words.size() >= 4 && lower[0] == "bgp" && lower[1] == "confederation") {
    if (lower[2] == "identifier" && util::IsAllDigits(words[3])) {
      ClaimAsnWord(ctx, 3);
    } else if (lower[2] == "peers") {
      for (std::size_t i = 3; i < words.size(); ++i) {
        if (util::IsAllDigits(words[i])) ClaimAsnWord(ctx, i);
      }
    }
    return;
  }

  if (words.size() >= 5 && lower[0] == "ip" && lower[1] == "as-path" &&
      lower[2] == "access-list" &&
      (lower[4] == "permit" || lower[4] == "deny")) {
    // Rule A6: the tail is one regexp. Whether or not the rewrite changed
    // it, the whole tail corresponds to the whole post-side tail, so it
    // canonicalizes to a single opaque token either way.
    if (words.size() > 5) {
      ctx.Collapse(5, CanonToken{TokenClass::kRegex, "", "", false});
    }
    return;
  }

  if (words.size() >= 4 && lower[0] == "set" && lower[1] == "as-path" &&
      lower[2] == "prepend") {
    for (std::size_t i = 3; i < words.size(); ++i) {
      if (util::IsAllDigits(words[i])) ClaimAsnWord(ctx, i);
    }
    return;
  }

  if (words.size() >= 4 && lower[0] == "ip" && lower[1] == "community-list") {
    std::size_t action = 0;
    for (std::size_t i = 2; i < lower.size(); ++i) {
      if (lower[i] == "permit" || lower[i] == "deny") {
        action = i;
        break;
      }
    }
    if (action != 0 && action + 1 < words.size()) {
      for (std::size_t i = action + 1; i < words.size(); ++i) {
        if (IsCommunityKeyword(lower[i])) continue;
        if (const auto literal = asn::ParseCommunity(words[i])) {
          ClaimCommunity(ctx, i, *literal);
          continue;
        }
        // Expanded community-list: the remainder is one regexp.
        ctx.Collapse(i, CanonToken{TokenClass::kRegex, "", "", false});
        break;
      }
    }
    return;
  }

  if (words.size() >= 3 && lower[0] == "set" && lower[1] == "community") {
    for (std::size_t i = 2; i < words.size(); ++i) {
      if (IsCommunityKeyword(lower[i])) continue;
      if (const auto literal = asn::ParseCommunity(words[i])) {
        ClaimCommunity(ctx, i, *literal);
      } else if (util::IsAllDigits(words[i])) {
        // Old-style 32-bit numeric community (high 16 = ASN permutation,
        // low 16 = value permutation): whole-token injective, so it is a
        // community-class rename keyed by the normalized decimal.
        std::uint64_t value = 0;
        if (util::ParseUint(words[i], 0xFFFFFFFFull, value)) {
          ctx.Claim(i, CanonToken{TokenClass::kComm, std::to_string(value),
                                  "", false});
        }
      }
    }
    return;
  }

  if (words.size() >= 4 && lower[0] == "set" && lower[1] == "extcommunity") {
    for (std::size_t i = 3; i < words.size(); ++i) {
      if (const auto literal = asn::ParseCommunity(words[i])) {
        ClaimCommunity(ctx, i, *literal);
      }
    }
    return;
  }
}

/// Rules M1-M4, with the anonymizer's exact dispatch and early returns.
void IosMiscLineRules(IosLineCtx& ctx) {
  auto& words = ctx.words;
  if (words.empty()) return;
  const auto& lower = ctx.lower;
  const std::size_t limit = ctx.Limit();

  const auto force_hash = [&](std::size_t i) {
    if (i >= limit || ctx.Claimed(i)) return;
    ctx.Claim(i, CanonToken{TokenClass::kWord, std::string(words[i]), "",
                            false});
  };

  // Rule M1: dial strings become salted pseudo digits — a deterministic
  // but non-injective rename, so the token is opaque like a regexp.
  if (words.size() >= 3 && lower[0] == "dialer" &&
      (lower[1] == "string" || lower[1] == "called" || lower[1] == "caller")) {
    if (!ctx.Claimed(2)) {
      ctx.Claim(2, CanonToken{TokenClass::kRegex, "", "", false});
    }
    return;
  }

  if (lower[0] == "snmp-server" && words.size() >= 2) {
    if (lower[1] == "community" && words.size() >= 3) {
      force_hash(2);
      return;
    }
    if ((lower[1] == "contact" || lower[1] == "location" ||
         lower[1] == "chassis-id") &&
        words.size() >= 3) {
      ctx.Truncate(2);
      return;
    }
    if (lower[1] == "host" && words.size() >= 4) {
      force_hash(3);
      return;
    }
  }

  // Rule M3: secrets.
  if (lower[0] == "enable" && words.size() >= 2 &&
      (lower[1] == "secret" || lower[1] == "password")) {
    force_hash(words.size() - 1);
    return;
  }
  if (lower[0] == "username" && words.size() >= 2) {
    force_hash(1);
    for (std::size_t i = 2; i + 1 < words.size(); ++i) {
      if (lower[i] == "password" || lower[i] == "secret") {
        force_hash(words.size() - 1);
        break;
      }
    }
    return;
  }
  if (lower[0] == "neighbor" && words.size() >= 4 && lower[2] == "password") {
    force_hash(words.size() - 1);
    return;
  }
  if (lower[0] == "key-string" && words.size() >= 2) {
    force_hash(1);
    return;
  }
  if ((lower[0] == "tacacs-server" || lower[0] == "radius-server") &&
      words.size() >= 3 && lower[1] == "key") {
    force_hash(2);
    return;
  }
  if (lower[0] == "crypto" && words.size() >= 4 && lower[1] == "isakmp" &&
      lower[2] == "key") {
    force_hash(3);
    return;
  }
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    if (lower[i] == "md5" || lower[i] == "authentication-key" ||
        lower[i] == "key-chain") {
      force_hash(i + 1);
      return;
    }
  }

  // Rule M4: name arguments.
  if (lower[0] == "hostname" && words.size() >= 2) {
    force_hash(1);
    return;
  }
  if (lower[0] == "ip" && words.size() >= 3 &&
      (lower[1] == "domain-name" ||
       (lower[1] == "domain" && words.size() >= 4 && lower[2] == "name"))) {
    force_hash(words.size() - 1);
    return;
  }
  if (lower[0] == "ip" && lower.size() >= 3 && lower[1] == "host") {
    force_hash(2);
    return;
  }
  if (lower[0] == "ntp" && words.size() >= 3 && lower[1] == "server" &&
      !net::Ipv4Address::Parse(words[2])) {
    force_hash(2);
    return;
  }
}

/// IOS def/use sites of one line, read off its full word list (before
/// any free-text truncation).
void IosRefs(const std::vector<std::string_view>& words,
             const std::vector<std::string>& lower, std::uint32_t line_no,
             std::vector<RefEvent>& out) {
  if (words.empty() || words[0].front() == '!') return;
  const auto emit = [&](SymbolSpace space, bool is_def,
                        std::string_view name) {
    out.push_back(RefEvent{space, is_def, std::string(name), line_no});
  };

  // --- definitions ---
  if (lower[0] == "interface" && words.size() >= 2) {
    emit(SymbolSpace::kInterface, true, words[1]);
    return;
  }
  if (lower[0] == "route-map" && words.size() >= 2) {
    emit(SymbolSpace::kRouteMap, true, words[1]);
    return;
  }
  if (lower[0] == "access-list" && words.size() >= 2) {
    emit(SymbolSpace::kAcl, true, words[1]);
    return;
  }
  if (lower[0] == "key" && words.size() >= 3 && lower[1] == "chain") {
    emit(SymbolSpace::kKeyChain, true, words[2]);
    return;
  }
  if (lower[0] == "ip" && words.size() >= 3) {
    if (lower[1] == "access-list" && words.size() >= 4 &&
        (lower[2] == "standard" || lower[2] == "extended")) {
      emit(SymbolSpace::kAcl, true, words[3]);
      return;
    }
    if (lower[1] == "prefix-list") {
      emit(SymbolSpace::kPrefixList, true, words[2]);
      return;
    }
    if (lower[1] == "community-list") {
      const std::size_t name_at =
          (lower[2] == "standard" || lower[2] == "expanded") ? 3 : 2;
      if (name_at < words.size()) {
        emit(SymbolSpace::kCommunityList, true, words[name_at]);
      }
      return;
    }
    if (lower[1] == "as-path" && words.size() >= 4 &&
        lower[2] == "access-list") {
      emit(SymbolSpace::kAsPathList, true, words[3]);
      return;
    }
    if (lower[1] == "nat" && words.size() >= 4 && lower[2] == "pool") {
      emit(SymbolSpace::kNatPool, true, words[3]);
      return;
    }
    if (lower[1] == "nat" && lower[2] == "inside") {
      // `ip nat inside source list <acl> pool <name> ...`
      for (std::size_t i = 3; i + 1 < words.size(); ++i) {
        if (lower[i] == "list") emit(SymbolSpace::kAcl, false, words[i + 1]);
        if (lower[i] == "pool") {
          emit(SymbolSpace::kNatPool, false, words[i + 1]);
        }
      }
      return;
    }
  }

  // --- uses ---
  if (lower[0] == "neighbor" && words.size() >= 3) {
    if (words.size() == 3 && lower[2] == "peer-group") {
      emit(SymbolSpace::kPeerGroup, true, words[1]);
      return;
    }
    if (words.size() >= 4) {
      if (lower[2] == "route-map") {
        emit(SymbolSpace::kRouteMap, false, words[3]);
      } else if (lower[2] == "prefix-list") {
        emit(SymbolSpace::kPrefixList, false, words[3]);
      } else if (lower[2] == "filter-list") {
        emit(SymbolSpace::kAsPathList, false, words[3]);
      } else if (lower[2] == "distribute-list") {
        emit(SymbolSpace::kAcl, false, words[3]);
      } else if (lower[2] == "peer-group") {
        emit(SymbolSpace::kPeerGroup, false, words[3]);
      } else if (lower[2] == "update-source") {
        emit(SymbolSpace::kInterface, false, words[3]);
      }
    }
    return;
  }
  if (lower[0] == "match" && words.size() >= 3) {
    if (lower[1] == "as-path") {
      for (std::size_t i = 2; i < words.size(); ++i) {
        emit(SymbolSpace::kAsPathList, false, words[i]);
      }
    } else if (lower[1] == "community") {
      for (std::size_t i = 2; i < words.size(); ++i) {
        if (!IsCommunityKeyword(lower[i])) {
          emit(SymbolSpace::kCommunityList, false, words[i]);
        }
      }
    } else if (lower[1] == "ip" && words.size() >= 4 &&
               lower[2] == "address") {
      if (lower[3] == "prefix-list") {
        for (std::size_t i = 4; i < words.size(); ++i) {
          emit(SymbolSpace::kPrefixList, false, words[i]);
        }
      } else {
        for (std::size_t i = 3; i < words.size(); ++i) {
          emit(SymbolSpace::kAcl, false, words[i]);
        }
      }
    }
    return;
  }
  if (lower[0] == "distribute-list" && words.size() >= 2) {
    emit(SymbolSpace::kAcl, false, words[1]);
    return;
  }
  if (lower[0] == "access-class" && words.size() >= 2) {
    emit(SymbolSpace::kAcl, false, words[1]);
    return;
  }
  if (lower[0] == "passive-interface" && words.size() >= 2) {
    emit(SymbolSpace::kInterface, false, words[1]);
    return;
  }
  // `ip authentication key-chain eigrp <as> <chain>` and friends.
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    if (lower[i] == "key-chain" && i > 0) {
      emit(SymbolSpace::kKeyChain, false, words.back());
      return;
    }
  }
}

void CanonicalizeIos(const config::ConfigFile& file, CanonicalFile& out) {
  const passlist::PassList& pass_list = IosPassList();

  const std::vector<config::LineRegion> banners =
      config::FindBannerRegions(file);
  std::vector<bool> in_banner(file.lines().size(), false);
  std::vector<bool> banner_start(file.lines().size(), false);
  for (const config::LineRegion& region : banners) {
    for (std::size_t i = region.begin; i < region.end; ++i) in_banner[i] = true;
    banner_start[region.begin] = true;
  }

  config::LineTokens tokens;
  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    const std::string_view raw = file.lines()[index];
    const auto line_no = static_cast<std::uint32_t>(index);

    config::TokenizeLineInto(raw, tokens);
    IosLineCtx ctx;
    ctx.words.assign(tokens.words.begin(), tokens.words.end());
    ctx.lower.reserve(ctx.words.size());
    for (const std::string_view word : ctx.words) {
      ctx.lower.push_back(util::ToLower(word));
    }

    // The lint's residue sites cover every line, banner bodies included.
    if (banner_start[index]) {
      out.residue.push_back(ResidueSite{ResidueKind::kBanner, line_no, {}});
    }
    NoteIosPayload(ctx.lower, line_no, out.residue);

    if (in_banner[index]) {
      // Rule C3: banner bodies are dropped; a bare "!" marks the start.
      if (banner_start[index]) {
        out.lines.push_back(CanonLine{{Verbatim("!")}, line_no});
      }
      continue;
    }
    // Rule C1: '!' full-line comments collapse to a bare "!".
    if (!ctx.words.empty() && ctx.words[0].front() == '!' &&
        (ctx.words.size() > 1 || ctx.words[0].size() > 1)) {
      out.lines.push_back(CanonLine{{Verbatim("!")}, line_no});
      continue;
    }
    IosRefs(ctx.words, ctx.lower, line_no, out.refs);
    ctx.cls.assign(ctx.words.size(), std::nullopt);

    IosFreeText(ctx);
    IosAsnLineRules(ctx);
    IosMiscLineRules(ctx);

    // Fused token pass (rules I1-I3 then T1/T2) over whatever the line
    // rules left unclaimed, plus the prefix-lattice events.
    CanonLine line;
    line.source_line = line_no;
    line.hostname = !ctx.lower.empty() && IsHostnameKeyword(ctx.lower[0]);
    const std::size_t limit = ctx.Limit();
    std::vector<bool> plain_addr(limit, false);
    for (std::size_t i = 0; i < limit; ++i) {
      if (!ctx.Claimed(i)) {
        bool plain = false;
        ctx.Claim(i, ClassifyValueToken(ctx.words[i], pass_list, true, line_no,
                                        out.prefixes, &plain));
        plain_addr[i] = plain;
      }
    }
    // Address + contiguous-netmask adjacency contributes the masked
    // subnet to the lattice (the mask itself passes through verbatim, so
    // the pairing is the same on both sides).
    for (std::size_t i = 0; i + 1 < limit; ++i) {
      if (!plain_addr[i]) continue;
      const auto mask = net::Ipv4Address::Parse(ctx.words[i + 1]);
      if (!mask) continue;
      const auto length = net::NetmaskToPrefixLength(*mask);
      if (!length) continue;
      const auto address = net::Ipv4Address::Parse(ctx.words[i]);
      out.prefixes.push_back(
          PrefixEvent{net::Prefix(*address, *length), line_no});
    }
    for (std::size_t i = 0; i < limit; ++i) line.tokens.push_back(*ctx.cls[i]);
    if (ctx.collapse_from != kNone) {
      line.tokens.push_back(ctx.collapse_token);
    }
    out.lines.push_back(std::move(line));
  }

  out.name_renamed = !file.name().empty() && !pass_list.Contains(file.name());
}

// ---------------------------------------------------------------------------
// JunOS mirror
// ---------------------------------------------------------------------------

/// JunOS def/use extraction walks the brace structure across lines:
/// statements end at ';' (a leaf) or '{' (a block whose head keyword is
/// pushed on the path stack).
class JunosRefs {
 public:
  explicit JunosRefs(std::vector<RefEvent>& out) : out_(out) {}

  void Line(const std::vector<junos::Token>& tokens, std::uint32_t line_no) {
    for (const junos::Token& token : tokens) {
      switch (token.kind) {
        case junos::Token::Kind::kWord:
        case junos::Token::Kind::kString:
          statement_.emplace_back(token.text);
          break;
        case junos::Token::Kind::kPunct:
          if (token.text == "{") {
            OpenBlock(line_no);
          } else if (token.text == "}") {
            if (!path_.empty()) path_.pop_back();
            statement_.clear();
          } else if (token.text == ";") {
            CloseStatement(line_no);
          }
          // "[" / "]" group list values inside one statement: ignored.
          break;
        case junos::Token::Kind::kComment:
          break;
      }
    }
  }

 private:
  void Emit(SymbolSpace space, bool is_def, std::string_view name,
            std::uint32_t line_no) {
    out_.push_back(RefEvent{space, is_def, std::string(name), line_no});
  }

  void OpenBlock(std::uint32_t line_no) {
    if (!statement_.empty()) {
      const std::string head = util::ToLower(statement_[0]);
      if (head == "policy-statement" && statement_.size() >= 2) {
        Emit(SymbolSpace::kRouteMap, true, statement_[1], line_no);
      } else if (head == "prefix-list" && statement_.size() >= 2) {
        Emit(SymbolSpace::kPrefixList, true, statement_[1], line_no);
      } else if (head == "group" && statement_.size() >= 2) {
        Emit(SymbolSpace::kPeerGroup, true, statement_[1], line_no);
      } else if (!path_.empty() && path_.back() == "interfaces") {
        interface_ = statement_.size() == 1 ? statement_[0] : std::string();
        if (!interface_.empty()) {
          Emit(SymbolSpace::kInterface, true, interface_, line_no);
        }
      } else if (head == "unit" && statement_.size() == 2 &&
                 path_.size() >= 2 && path_[path_.size() - 2] == "interfaces" &&
                 !interface_.empty()) {
        // A logical unit defines IFD.N, the name `interface IFD.N;` uses.
        Emit(SymbolSpace::kInterface, true, interface_ + "." + statement_[1],
             line_no);
      }
      path_.push_back(util::ToLower(statement_[0]));
    } else {
      path_.emplace_back();
    }
    statement_.clear();
  }

  void CloseStatement(std::uint32_t line_no) {
    if (statement_.empty()) return;
    const std::string head = util::ToLower(statement_[0]);
    const auto& s = statement_;
    if ((head == "from" || head == "then") && s.size() >= 2) {
      CloseTerm(line_no);
    } else if (head == "import" || head == "export") {
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (s[i] == "[" || s[i] == "]") continue;
        Emit(SymbolSpace::kRouteMap, false, s[i], line_no);
      }
    } else if (head == "prefix-list" && s.size() >= 2) {
      Emit(SymbolSpace::kPrefixList, false, s[1], line_no);
    } else if (head == "as-path") {
      if (s.size() >= 3) {
        // `as-path NAME "regex";` is a definition; `as-path NAME;` a use.
        Emit(SymbolSpace::kAsPathList, true, s[1], line_no);
      } else if (s.size() == 2) {
        Emit(SymbolSpace::kAsPathList, false, s[1], line_no);
      }
    } else if (head == "community" && s.size() >= 2) {
      bool has_members = false;
      for (std::size_t i = 2; i < s.size(); ++i) {
        if (util::ToLower(s[i]) == "members") has_members = true;
      }
      const std::string verb = util::ToLower(s[1]);
      if (!has_members && s.size() >= 3 &&
          (verb == "add" || verb == "set" || verb == "delete")) {
        // The policy action `community add|set|delete NAME;` uses NAME.
        Emit(SymbolSpace::kCommunityList, false, s[2], line_no);
      } else {
        Emit(SymbolSpace::kCommunityList, has_members, s[1], line_no);
      }
    } else if (head == "interface" && s.size() >= 2) {
      Emit(SymbolSpace::kInterface, false, s[1], line_no);
    }
    statement_.clear();
  }

  /// A one-line policy term (`from prefix-list NAME;`, `then community
  /// add NAME;`): every name after its match or action keyword, `[ ]`
  /// lists included, is a use.
  void CloseTerm(std::uint32_t line_no) {
    const auto& s = statement_;
    const std::string keyword = util::ToLower(s[1]);
    std::size_t first = 2;
    SymbolSpace space = SymbolSpace::kCommunityList;
    if (keyword == "prefix-list") {
      space = SymbolSpace::kPrefixList;
    } else if (keyword == "as-path") {
      space = SymbolSpace::kAsPathList;
    } else if (keyword != "community") {
      return;
    } else if (s.size() >= 4) {
      const std::string verb = util::ToLower(s[2]);
      if (verb == "add" || verb == "set" || verb == "delete") first = 3;
    }
    for (std::size_t i = first; i < s.size(); ++i) {
      Emit(space, false, s[i], line_no);
    }
  }

  std::vector<RefEvent>& out_;
  std::vector<std::string> statement_;
  std::vector<std::string> path_;
  /// Name of the physical interface block most recently opened under
  /// `interfaces` (empty when its header was not a bare name).
  std::string interface_;
};

/// Lowercase first blank-delimited word of `raw`.
std::string FirstWordLower(std::string_view raw) {
  const std::size_t start = util::FindNonBlank(raw, 0);
  return util::ToLower(raw.substr(start, util::FindBlank(raw, start) - start));
}

void CanonicalizeJunos(const config::ConfigFile& file, CanonicalFile& out) {
  const passlist::PassList& pass_list = JunosAuditPassList();

  bool in_block_comment = false;
  junos::JunosLine line_buf;
  JunosRefs refs(out.refs);
  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    const std::string_view raw = file.lines()[index];
    const auto line_no = static_cast<std::uint32_t>(index);

    // '/* ... */' block comments collapse to a fixed marker per line; no
    // statement starts inside one. A comment with content beyond the
    // markers is surviving prose.
    const std::string_view trimmed = util::Trim(raw);
    const bool opens = !in_block_comment && util::StartsWith(trimmed, "/*");
    if (opens || in_block_comment) {
      in_block_comment = raw.find("*/") == std::string::npos;
      out.lines.push_back(CanonLine{{Verbatim("/* */")}, line_no});
      if (trimmed.size() > 4 && trimmed != "/* */") {
        out.residue.push_back(
            ResidueSite{ResidueKind::kBlockComment, line_no, {}});
      }
      continue;
    }

    TokenizeJunosLineInto(raw, line_buf);
    auto& tokens = line_buf.tokens;
    const bool trailing_comment =
        !tokens.empty() && tokens.back().kind == junos::Token::Kind::kComment;
    if (trailing_comment) tokens.pop_back();
    refs.Line(tokens, line_no);

    std::vector<std::optional<CanonToken>> cls(tokens.size());
    std::vector<std::size_t> word_at;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind == junos::Token::Kind::kWord ||
          tokens[i].kind == junos::Token::Kind::kString) {
        word_at.push_back(i);
      }
    }
    const auto word = [&](std::size_t w) -> std::string_view {
      return tokens[word_at[w]].text;
    };
    const auto is_string = [&](std::size_t w) {
      return tokens[word_at[w]].kind == junos::Token::Kind::kString;
    };
    std::vector<std::string> lower;
    lower.reserve(word_at.size());
    for (std::size_t w = 0; w < word_at.size(); ++w) {
      lower.push_back(util::ToLower(word(w)));
    }

    // Residue sites: a non-empty string right after a description or
    // message keyword, then a trailing '#' comment.
    for (std::size_t w = 0; w < word_at.size(); ++w) {
      const std::size_t at = word_at[w];
      if (!is_string(w) &&
          (lower[w] == "description" || lower[w] == "message") &&
          at + 1 < tokens.size() &&
          tokens[at + 1].kind == junos::Token::Kind::kString &&
          tokens[at + 1].text != "\"\"") {
        out.residue.push_back(
            ResidueSite{ResidueKind::kString, line_no, lower[w]});
      }
    }
    if (trailing_comment) {
      out.residue.push_back(
          ResidueSite{ResidueKind::kTrailingComment, line_no, {}});
    }

    // Context scan, mirroring JunosRules::ProcessLine.
    for (std::size_t w = 0; w < word_at.size(); ++w) {
      const std::string& keyword = lower[w];
      const bool has_next = w + 1 < word_at.size();

      if ((keyword == "description" || keyword == "message") && has_next &&
          is_string(w + 1)) {
        // Free text is emptied in place: the post side is literally `""`.
        cls[word_at[w + 1]] = Verbatim("\"\"");
        continue;
      }

      if ((keyword == "host-name" || keyword == "domain-name") && has_next) {
        const std::string_view original = Unquote(word(w + 1));
        if (original.empty()) {
          cls[word_at[w + 1]] = Verbatim(word(w + 1));
        } else {
          cls[word_at[w + 1]] =
              CanonToken{TokenClass::kWord, std::string(original), "",
                         is_string(w + 1)};
        }
        continue;
      }

      if ((keyword == "peer-as" || keyword == "autonomous-system") &&
          has_next && util::IsAllDigits(word(w + 1))) {
        if (const auto normalized = NormalizeAsn(word(w + 1))) {
          cls[word_at[w + 1]] =
              CanonToken{TokenClass::kAsn, *normalized, "", false};
        } else {
          cls[word_at[w + 1]] = Verbatim(word(w + 1));
        }
        continue;
      }

      if (keyword == "as-path" && w + 2 < word_at.size() && is_string(w + 2)) {
        cls[word_at[w + 2]] = CanonToken{TokenClass::kRegex, "", "", true};
        continue;
      }

      if (keyword == "as-path-prepend" && has_next && is_string(w + 1)) {
        std::vector<std::string> members;
        for (const std::string_view member :
             util::SplitWords(Unquote(word(w + 1)))) {
          if (const auto normalized = NormalizeAsn(member)) {
            members.push_back(*normalized);
          } else {
            members.emplace_back(member);
          }
        }
        cls[word_at[w + 1]] = CanonToken{
            TokenClass::kAsnList, util::Join(members, " "), "", true};
        continue;
      }

      if (keyword == "members") {
        for (std::size_t v = w + 1; v < word_at.size(); ++v) {
          if (is_string(v)) {
            cls[word_at[v]] = CanonToken{TokenClass::kRegex, "", "", true};
          } else if (const auto literal = asn::ParseCommunity(word(v))) {
            cls[word_at[v]] =
                CanonToken{TokenClass::kComm, literal->ToString(), "", false};
          }
        }
        continue;
      }
    }

    // IP pass (bare word tokens only) fused with the generic pass-list
    // decision, as in ClassifyValueToken; string tokens never hold
    // addresses.
    CanonLine line;
    line.source_line = line_no;
    line.hostname = IsHostnameKeyword(FirstWordLower(raw));
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (cls[i].has_value()) continue;
      const junos::Token& token = tokens[i];
      if (token.kind == junos::Token::Kind::kWord) {
        cls[i] = ClassifyValueToken(token.text, pass_list, true, line_no,
                                    out.prefixes);
      } else if (token.kind == junos::Token::Kind::kString) {
        const std::string_view value = Unquote(token.text);
        if (value.empty() || config::IsNonAlphabetic(value)) {
          cls[i] = Verbatim(token.text);
        } else if (IsHashToken(value) || !AllSegmentsPassed(value, pass_list)) {
          cls[i] = CanonToken{TokenClass::kWord, std::string(value), "", true};
        } else {
          cls[i] = Verbatim(token.text);
        }
      } else {
        cls[i] = Verbatim(token.text);  // punctuation: structure, verbatim
      }
    }
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      line.tokens.push_back(std::move(*cls[i]));
    }
    out.lines.push_back(std::move(line));
  }

  out.name_renamed = !file.name().empty() && !pass_list.Contains(file.name());
}

const char* CountKeyFor(TokenClass cls) {
  switch (cls) {
    case TokenClass::kVerbatim:
      return "tok.verbatim";
    case TokenClass::kWord:
      return "tok.word";
    case TokenClass::kAsn:
      return "tok.asn";
    case TokenClass::kComm:
      return "tok.community";
    case TokenClass::kAddr:
      return "tok.address";
    case TokenClass::kRegex:
      return "tok.regex";
    case TokenClass::kAsnList:
      return "tok.asn-list";
  }
  return "tok.other";
}

/// Keywords counted into the per-protocol fingerprint. All are
/// pass-listed in both dialects, so the counts are comparable pre/post.
constexpr std::string_view kProtocolKeywords[] = {
    "bgp",        "ospf",       "rip",        "eigrp",     "isis",
    "interface",  "interfaces", "access-list", "route-map", "prefix-list",
    "community-list", "as-path", "policy-statement", "neighbor", "snmp-server",
};

void FillCounts(CanonicalFile& file) {
  file.counts["lines"] = file.lines.size();
  for (const CanonLine& line : file.lines) {
    for (const CanonToken& token : line.tokens) {
      ++file.counts[CountKeyFor(token.cls)];
      if (token.cls == TokenClass::kVerbatim) {
        const std::string low = util::ToLower(token.key);
        for (const std::string_view keyword : kProtocolKeywords) {
          if (low == keyword) {
            ++file.counts["proto." + std::string(keyword)];
            break;
          }
        }
      }
    }
  }
}

/// File-local first-occurrence numbering for one rename class.
class ClassIds {
 public:
  std::string Tag(const char* prefix, const std::string& key) {
    const auto [it, inserted] = ids_.try_emplace(key, ids_.size() + 1);
    (void)inserted;
    std::string tag(prefix);
    tag += std::to_string(it->second);
    return tag;
  }

 private:
  std::map<std::string, std::size_t> ids_;
};

}  // namespace

const char* SymbolSpaceName(SymbolSpace space) {
  switch (space) {
    case SymbolSpace::kAcl:
      return "access-list";
    case SymbolSpace::kRouteMap:
      return "route-map";
    case SymbolSpace::kPrefixList:
      return "prefix-list";
    case SymbolSpace::kCommunityList:
      return "community-list";
    case SymbolSpace::kAsPathList:
      return "as-path-list";
    case SymbolSpace::kPeerGroup:
      return "peer-group";
    case SymbolSpace::kInterface:
      return "interface";
    case SymbolSpace::kKeyChain:
      return "key-chain";
    case SymbolSpace::kNatPool:
      return "nat-pool";
  }
  return "symbol";
}

bool IsHashToken(std::string_view word) {
  if (word.size() != 11 || word[0] != 'h') return false;
  for (std::size_t i = 1; i < word.size(); ++i) {
    const char c = word[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::vector<std::string> RenderShape(const CanonicalFile& file) {
  ClassIds words;
  ClassIds asns;
  ClassIds comms;
  ClassIds addrs;
  std::vector<std::string> out;
  out.reserve(file.lines.size());
  for (const CanonLine& line : file.lines) {
    std::string rendered;
    for (const CanonToken& token : line.tokens) {
      if (!rendered.empty()) rendered += ' ';
      std::string body;
      switch (token.cls) {
        case TokenClass::kVerbatim:
          body = token.key;
          break;
        case TokenClass::kWord:
          body = words.Tag("W", token.key);
          break;
        case TokenClass::kAsn:
          body = asns.Tag("A", token.key);
          break;
        case TokenClass::kComm:
          body = comms.Tag("C", token.key);
          break;
        case TokenClass::kAddr:
          body = addrs.Tag("IP", token.key) + token.suffix;
          break;
        case TokenClass::kRegex:
          body = "RE";
          break;
        case TokenClass::kAsnList: {
          for (const std::string_view member :
               util::SplitWords(token.key)) {
            if (!body.empty()) body += ' ';
            if (util::IsAllDigits(member)) {
              body += asns.Tag("A", std::string(member));
            } else {
              body += member;
            }
          }
          break;
        }
      }
      if (token.quoted) {
        rendered += '"';
        rendered += body;
        rendered += '"';
      } else {
        rendered += body;
      }
    }
    out.push_back(std::move(rendered));
  }
  return out;
}

CanonicalFile Canonicalize(const config::ConfigFile& file,
                           core::ConfigDialect dialect) {
  CanonicalFile out;
  out.name = file.name();
  out.source_line_count = file.lines().size();
  if (core::ResolveDialect(dialect, file) == core::ConfigDialect::kJunos) {
    CanonicalizeJunos(file, out);
  } else {
    CanonicalizeIos(file, out);
  }
  FillCounts(out);

  const std::vector<std::string> shape = RenderShape(out);
  std::string joined;
  for (const std::string& line : shape) {
    joined += line;
    joined += '\n';
  }
  out.shape_hash = util::Sha1::HexDigest(joined);
  return out;
}

}  // namespace confanon::audit
