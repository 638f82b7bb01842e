#include "verify/recognizer.h"

#include <string_view>

#include "core/rules.h"
#include "regex/intersect.h"

namespace confanon::verify {

namespace {

/// 0..255 with no leading zeros (the anonymizer's address parser is
/// strict-decimal, and configs write octets canonically).
constexpr std::string_view kOctet =
    "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])";

/// Public ASNs: 1..64511 (asn::IsPublicAsn). Private 64512..65535 need
/// no anonymization, so the recognizer excludes them.
constexpr std::string_view kPublicAsn =
    "([1-9][0-9]{0,3}|[1-5][0-9]{4}|6[0-3][0-9]{3}|64[0-4][0-9]{2}"
    "|6450[0-9]|6451[01])";

/// Any 16-bit value 0..65535 (community value half).
constexpr std::string_view kUint16 =
    "(6553[0-5]|655[0-2][0-9]|65[0-4][0-9]{2}|6[0-4][0-9]{3}"
    "|[1-5][0-9]{4}|[1-9][0-9]{0,3}|0)";

std::string Concat(std::string_view a, std::string_view b,
                   std::string_view c = {}, std::string_view d = {},
                   std::string_view e = {}, std::string_view f = {},
                   std::string_view g = {}) {
  std::string out;
  for (const std::string_view part : {a, b, c, d, e, f, g}) out += part;
  return out;
}

std::vector<Recognizer> BuildRecognizers() {
  std::vector<Recognizer> recognizers;
  recognizers.push_back(
      {"ipv4-literal", std::string(core::RuleName(core::Rule::kMapAddresses)),
       regex::CompileFullMatchDfa(Concat(kOctet, "\\.", kOctet, "\\.",
                                         kOctet, "\\.", kOctet)),
       /*exempt_special_addresses=*/true});
  recognizers.push_back({"asn-public-literal", "A1..A11 (ASN permutation)",
                         regex::CompileFullMatchDfa(std::string(kPublicAsn)),
                         false});
  recognizers.push_back(
      {"community-literal",
       std::string(core::RuleName(core::Rule::kCommunityListLiteral)),
       regex::CompileFullMatchDfa(Concat(kPublicAsn, ":", kUint16)), false});
  recognizers.push_back(
      {"hash-token", "core::StringHasher output space",
       regex::CompileFullMatchDfa("h[0-9a-f]{10}"), false});
  return recognizers;
}

}  // namespace

const std::vector<Recognizer>& SensitiveRecognizers() {
  static const std::vector<Recognizer> recognizers = BuildRecognizers();
  return recognizers;
}

}  // namespace confanon::verify
