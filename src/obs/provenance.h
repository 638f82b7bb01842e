// Per-line provenance: which rule fired on which input line, and what it
// did to the token count.
//
// This is the record the paper's Section 6.1 iterative-refinement loop
// needs: when the leak detector flags a surviving identifier, the
// provenance log answers *why* — which rules touched (or failed to touch)
// the line it survived on, and whether tokens were removed, replaced, or
// left alone. Collection is opt-in: the anonymizer only pays for it when
// a log is installed.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace confanon::obs {

struct ProvenanceEntry {
  std::string file;
  std::uint64_t line = 0;  // zero-based input line number
  std::string rule;        // stable rule name (core/rules.h)
  std::uint32_t tokens_before = 0;  // word count entering the line's passes
  std::uint32_t tokens_after = 0;   // word count after all passes
};

/// Append-only record of rule firings. Single-writer by design (one
/// anonymizer instance == one network == one thread); merge across
/// networks by concatenation.
class ProvenanceLog {
 public:
  void Record(ProvenanceEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<ProvenanceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  /// Entries whose rule name equals `rule`.
  std::vector<ProvenanceEntry> ForRule(const std::string& rule) const;
  /// Entries recorded for line `line` of file `file` — the leak-triage
  /// query ("what ran on the line this identifier survived on?").
  std::vector<ProvenanceEntry> ForLine(const std::string& file,
                                       std::uint64_t line) const;

  /// One JSON object per line: {"file":...,"line":N,"rule":...,
  /// "tokens_before":N,"tokens_after":N}. Pure JSONL (no framing).
  void WriteJsonl(std::ostream& out) const;

 private:
  std::vector<ProvenanceEntry> entries_;
};

}  // namespace confanon::obs
