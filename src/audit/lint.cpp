#include "audit/lint.h"

#include <optional>
#include <string_view>

#include "net/ipv4.h"
#include "net/special.h"
#include "util/strings.h"

namespace confanon::audit {

namespace {

bool IsAsciiDigitChar(char c) { return c >= '0' && c <= '9'; }
bool IsAsciiAlphaChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// True if `word` is entirely an address or CIDR token — those are the
/// legitimate carriers of dotted-quads.
bool IsAddressToken(std::string_view word) {
  const std::size_t slash = word.find('/');
  if (slash != std::string_view::npos) {
    std::uint64_t length = 0;
    return net::Ipv4Address::Parse(word.substr(0, slash)).has_value() &&
           util::ParseUint(word.substr(slash + 1), 32, length);
  }
  return net::Ipv4Address::Parse(word).has_value();
}

/// AUD-R002: a dotted-quad embedded inside a larger token (the token
/// itself is not an address). Special values (netmasks, multicast, ...)
/// are not identity-bearing and are ignored.
std::optional<std::string> FindEmbeddedAddress(std::string_view word) {
  for (std::size_t start = 0; start < word.size(); ++start) {
    if (!IsAsciiDigitChar(word[start])) continue;
    if (start > 0 &&
        (IsAsciiDigitChar(word[start - 1]) || word[start - 1] == '.')) {
      continue;  // not the beginning of a dotted-quad candidate
    }
    // Greedily consume digits and dots: d{1,3}(.d{1,3}){3}
    std::size_t pos = start;
    int octets = 0;
    bool valid = true;
    while (octets < 4) {
      std::size_t digits = 0;
      std::uint32_t value = 0;
      while (pos < word.size() && IsAsciiDigitChar(word[pos]) && digits < 3) {
        value = value * 10 + static_cast<std::uint32_t>(word[pos] - '0');
        ++pos;
        ++digits;
      }
      if (digits == 0 || value > 255) {
        valid = false;
        break;
      }
      ++octets;
      if (octets < 4) {
        if (pos < word.size() && word[pos] == '.') {
          ++pos;
        } else {
          valid = false;
          break;
        }
      }
    }
    if (!valid) continue;
    // Boundary: the match must not continue into more digits or dots.
    if (pos < word.size() &&
        (IsAsciiDigitChar(word[pos]) || word[pos] == '.')) {
      continue;
    }
    const std::string_view quad = word.substr(start, pos - start);
    const auto address = net::Ipv4Address::Parse(quad);
    if (address && !net::IsSpecial(*address)) return std::string(quad);
  }
  return std::nullopt;
}

/// AUD-R003: a public-ASN-sized digit run fused directly against letters
/// (no separator), e.g. "as7018rtr". Separated forms like "aspath-50"
/// carry only the list number and stay below this rule's radar.
std::optional<std::string> FindFusedAsnRun(std::string_view word) {
  for (std::size_t start = 0; start < word.size(); ++start) {
    if (!IsAsciiDigitChar(word[start])) continue;
    if (start > 0 && IsAsciiDigitChar(word[start - 1])) continue;
    std::size_t end = start;
    while (end < word.size() && IsAsciiDigitChar(word[end])) ++end;
    const std::size_t run = end - start;
    const bool alpha_adjacent =
        (start > 0 && IsAsciiAlphaChar(word[start - 1])) ||
        (end < word.size() && IsAsciiAlphaChar(word[end]));
    if (run >= 3 && run <= 6 && alpha_adjacent) {
      std::uint64_t value = 0;
      if (util::ParseUint(word.substr(start, run), 0xFFFFFFFFull, value) &&
          value >= 1 && value <= 64511) {
        return std::string(word.substr(start, run));
      }
    }
    start = end;
  }
  return std::nullopt;
}

std::string ResidueMessage(const ResidueSite& site) {
  switch (site.kind) {
    case ResidueKind::kBanner:
      return "banner block survived anonymization (banners must be stripped)";
    case ResidueKind::kPayload:
      return "free-text payload survived after '" + site.keyword + "'";
    case ResidueKind::kBlockComment:
      return "block comment content survived (expected a bare '/* */' "
             "marker)";
    case ResidueKind::kString:
      return "free-text string survived after '" + site.keyword + "'";
    case ResidueKind::kTrailingComment:
      return "trailing '#' comment survived anonymization";
  }
  return "free text survived anonymization";
}

}  // namespace

std::vector<Finding> LintFileResidue(const CanonicalFile& canonical) {
  const std::string& file = canonical.name;
  std::vector<Finding> out;

  // AUD-R001: free-text survivors.
  for (const ResidueSite& site : canonical.residue) {
    out.push_back(Finding{kRuleFreeText, Severity::kError,
                          Anchor{file, site.line}, Anchor{},
                          ResidueMessage(site)});
  }

  // Token-level rules ride on the canonical classification: every token
  // the canonicalizer marks as renameable (kWord) must already be a hash
  // token in anonymized output (AUD-R004/R005), and no surviving token
  // may embed a dotted-quad (AUD-R002) or a fused ASN-sized digit run
  // (AUD-R003).
  for (const CanonLine& line : canonical.lines) {
    for (const CanonToken& token : line.tokens) {
      const std::string& key = token.key;
      switch (token.cls) {
        case TokenClass::kWord: {
          if (IsHashToken(key)) break;
          out.push_back(Finding{
              line.hostname ? kRuleHostnameResidue : kRulePassListFallthrough,
              Severity::kError, Anchor{file, line.source_line}, Anchor{},
              std::string(line.hostname ? "hostname '" : "token '") + key +
                  "' is not an anonymized hash and is not pass-listed"});
          break;
        }
        case TokenClass::kVerbatim: {
          if (const auto quad = FindEmbeddedAddress(key)) {
            if (!IsAddressToken(key)) {
              out.push_back(Finding{
                  kRuleEmbeddedAddress, Severity::kError,
                  Anchor{file, line.source_line}, Anchor{},
                  "token '" + key + "' embeds dotted-quad " + *quad});
            }
          } else if (const auto run = FindFusedAsnRun(key)) {
            out.push_back(Finding{
                kRuleAsnInName, Severity::kWarning,
                Anchor{file, line.source_line}, Anchor{},
                "token '" + key + "' embeds ASN-like digit run " + *run});
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return out;
}

}  // namespace confanon::audit
