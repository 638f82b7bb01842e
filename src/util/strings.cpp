#include "util/strings.h"

namespace confanon::util {

bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

bool IsAsciiAlnum(char c) { return IsAsciiAlpha(c) || IsAsciiDigit(c); }

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (end > begin && (text[end - 1] == '\r' || text[end - 1] == '\n' ||
                         IsBlank(text[end - 1]))) {
    --end;
  }
  while (begin < end && IsBlank(text[begin])) {
    ++begin;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string_view> SplitWords(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsBlank(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !IsBlank(line[i])) ++i;
    if (i > start) {
      words.push_back(line.substr(start, i - start));
    }
  }
  return words;
}

std::size_t CountWords(std::string_view line) {
  std::size_t count = 0;
  bool in_word = false;
  for (const char c : line) {
    const bool blank = IsBlank(c);
    if (!blank && !in_word) ++count;
    in_word = !blank;
  }
  return count;
}

std::vector<std::string_view> Split(std::string_view text, char delimiter) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

namespace {
template <typename Piece>
std::string JoinImpl(const std::vector<Piece>& pieces,
                     std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(pieces[i]);
  }
  return out;
}
}  // namespace

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator) {
  return JoinImpl(pieces, separator);
}

std::string Join(const std::vector<std::string_view>& pieces,
                 std::string_view separator) {
  return JoinImpl(pieces, separator);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool IsAllDigits(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!IsAsciiDigit(c)) return false;
  }
  return true;
}

bool ParseUint(std::string_view text, std::uint64_t max_value,
               std::uint64_t& out) {
  if (!IsAllDigits(text)) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max_value || value > (max_value - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

}  // namespace confanon::util
