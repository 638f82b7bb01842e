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

/// Rule C2: free-text payload removal.
void IosFreeText(IosLineCtx& ctx) {
  if (ctx.words.empty()) return;
  std::size_t payload_from = kNone;
  if (ctx.lower[0] == "description" || ctx.lower[0] == "title") {
    payload_from = 1;
  } else {
    for (std::size_t i = 0; i + 1 < ctx.lower.size(); ++i) {
      if (ctx.lower[i] == "remark" || ctx.lower[i] == "description") {
        payload_from = i + 1;
        break;
      }
    }
  }
  if (payload_from != kNone && payload_from < ctx.words.size()) {
    ctx.Truncate(payload_from);
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
        const std::string_view low = ctx.lower[i];
        const bool keyword =
            low == "additive" || low == "none" || low == "internet" ||
            low == "no-export" || low == "no-advertise" || low == "local-as" ||
            low == "exact" || low == "exact-match";
        if (keyword) continue;
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
      const std::string_view low = ctx.lower[i];
      const bool keyword =
          low == "additive" || low == "none" || low == "internet" ||
          low == "no-export" || low == "no-advertise" || low == "local-as" ||
          low == "exact" || low == "exact-match";
      if (keyword) continue;
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

    if (in_banner[index]) {
      // Rule C3: banner bodies are dropped; a bare "!" marks the start.
      if (banner_start[index]) {
        out.lines.push_back(CanonLine{{Verbatim("!")}, line_no});
      }
      continue;
    }

    {
      // Rule C1: '!' full-line comments collapse to a bare "!".
      const std::vector<std::string_view> split = util::SplitWords(raw);
      if (!split.empty() && split[0].front() == '!' &&
          (split.size() > 1 || split[0].size() > 1)) {
        out.lines.push_back(CanonLine{{Verbatim("!")}, line_no});
        continue;
      }
    }

    config::TokenizeLineInto(raw, tokens);
    IosLineCtx ctx;
    ctx.words.assign(tokens.words.begin(), tokens.words.end());
    ctx.lower.reserve(ctx.words.size());
    for (const std::string_view word : ctx.words) {
      ctx.lower.push_back(util::ToLower(word));
    }
    ctx.cls.assign(ctx.words.size(), std::nullopt);

    IosFreeText(ctx);
    IosAsnLineRules(ctx);
    IosMiscLineRules(ctx);

    // Fused token pass (rules I1-I3 then T1/T2) over whatever the line
    // rules left unclaimed, plus the prefix-lattice events.
    CanonLine line;
    line.source_line = line_no;
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

void CanonicalizeJunos(const config::ConfigFile& file, CanonicalFile& out) {
  const passlist::PassList& pass_list = JunosAuditPassList();

  bool in_block_comment = false;
  junos::JunosLine line_buf;
  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    const std::string_view raw = file.lines()[index];
    const auto line_no = static_cast<std::uint32_t>(index);

    // '/* ... */' block comments collapse to a fixed marker per line.
    const bool opens =
        !in_block_comment && util::StartsWith(util::Trim(raw), "/*");
    if (opens || in_block_comment) {
      in_block_comment = raw.find("*/") == std::string::npos;
      out.lines.push_back(CanonLine{{Verbatim("/* */")}, line_no});
      continue;
    }

    TokenizeJunosLineInto(raw, line_buf);
    auto& tokens = line_buf.tokens;
    if (!tokens.empty() &&
        tokens.back().kind == junos::Token::Kind::kComment) {
      tokens.pop_back();
    }

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

    // Context scan, mirroring JunosRules::ProcessLine.
    for (std::size_t w = 0; w < word_at.size(); ++w) {
      const std::string keyword = util::ToLower(word(w));
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

CanonicalFile Canonicalize(const config::ConfigFile& file, Dialect dialect) {
  CanonicalFile out;
  out.name = file.name();
  out.dialect = dialect;
  out.source_line_count = file.lines().size();
  if (dialect == Dialect::kJunos) {
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
