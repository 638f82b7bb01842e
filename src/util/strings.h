// Small string utilities shared across the library.
//
// Config-file processing is overwhelmingly text manipulation; these helpers
// centralize the handful of operations (splitting, trimming, case folding,
// character classification) so the tokenizer and rule engine stay readable.
// All functions are locale-independent: config files are ASCII and the
// classification must not vary with the host locale.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace confanon::util {

/// True for ASCII a-z / A-Z only (locale-independent).
bool IsAsciiAlpha(char c);
/// True for ASCII 0-9 only.
bool IsAsciiDigit(char c);
/// True for ASCII alphanumerics.
bool IsAsciiAlnum(char c);
/// True for ASCII space or tab (config files never use other whitespace
/// significantly; CR is stripped at line level).
bool IsBlank(char c);

/// ASCII-lowercases a string (locale-independent).
std::string ToLower(std::string_view text);

/// Removes leading and trailing blanks (space/tab) and trailing CR.
std::string_view Trim(std::string_view text);

/// Splits on runs of blanks; no empty fields are produced.
std::vector<std::string_view> SplitWords(std::string_view line);
/// SplitWords(line).size(), without building the vector.
std::size_t CountWords(std::string_view line);

/// Splits on a single character delimiter; empty fields are preserved.
std::vector<std::string_view> Split(std::string_view text, char delimiter);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);
std::string Join(const std::vector<std::string_view>& pieces,
                 std::string_view separator);

/// True if `text` begins with `prefix` / ends with `suffix`.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// True if the string is a non-empty run of ASCII digits (an unsigned
/// decimal integer literal, possibly with leading zeros).
bool IsAllDigits(std::string_view text);

/// Parses a non-negative decimal integer. Returns false on empty input,
/// non-digit characters, or overflow past `max_value`.
bool ParseUint(std::string_view text, std::uint64_t max_value,
               std::uint64_t& out);

}  // namespace confanon::util
