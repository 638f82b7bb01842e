#include "core/report.h"

#include <cstdio>
#include <sstream>
#include <string_view>
#include <utility>

namespace confanon::core {

namespace {

using Report = AnonymizationReport;

/// The scalar counters by name, in declaration order.
constexpr std::pair<std::string_view, std::uint64_t Report::*> kScalars[] = {
    {"total_lines", &Report::total_lines},
    {"total_words", &Report::total_words},
    {"comment_words_removed", &Report::comment_words_removed},
    {"words_hashed", &Report::words_hashed},
    {"words_passed", &Report::words_passed},
    {"addresses_mapped", &Report::addresses_mapped},
    {"addresses_special", &Report::addresses_special},
    {"asns_mapped", &Report::asns_mapped},
    {"communities_mapped", &Report::communities_mapped},
    {"aspath_regexps_rewritten", &Report::aspath_regexps_rewritten},
    {"community_regexps_rewritten", &Report::community_regexps_rewritten},
};

}  // namespace

void AnonymizationReport::Merge(const AnonymizationReport& other) {
  for (const auto& [name, field] : kScalars) this->*field += other.*field;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    rule_fires[i] += other.rule_fires[i];
  }
}

std::string AnonymizationReport::ToString() const {
  // Two-decimal percent; with no words at all (empty corpus) the fraction
  // is undefined, so render "n/a" rather than a misleading 0.00%.
  char percent[32];
  if (total_words == 0) {
    std::snprintf(percent, sizeof(percent), "n/a");
  } else {
    std::snprintf(percent, sizeof(percent), "%.2f%%",
                  CommentWordFraction() * 100.0);
  }
  std::ostringstream out;
  out << "lines=" << total_lines << " words=" << total_words
      << " comment_words_removed=" << comment_words_removed << " ("
      << percent << ")\n"
      << "words_hashed=" << words_hashed << " words_passed=" << words_passed
      << "\n"
      << "addresses_mapped=" << addresses_mapped
      << " addresses_special=" << addresses_special << "\n"
      << "asns_mapped=" << asns_mapped
      << " communities_mapped=" << communities_mapped << "\n"
      << "aspath_regexps_rewritten=" << aspath_regexps_rewritten
      << " community_regexps_rewritten=" << community_regexps_rewritten
      << "\n";
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (rule_fires[i] == 0) continue;
    out << "  rule " << kRuleNames[i] << ": " << rule_fires[i] << "\n";
  }
  return out.str();
}

void AnonymizationReport::WriteJson(obs::JsonWriter& out) const {
  out.BeginObject();
  for (const auto& [name, field] : kScalars) {
    out.Key(name).Value(this->*field);
    if (field == &Report::comment_words_removed) {
      out.Key("comment_word_fraction").Value(CommentWordFraction());
    }
  }
  out.Key("rule_fires").BeginObject();
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (rule_fires[i] != 0) out.Key(kRuleNames[i]).Value(rule_fires[i]);
  }
  out.EndObject();
  out.EndObject();
}

std::string AnonymizationReport::ToJson() const {
  obs::JsonWriter out;
  WriteJson(out);
  return out.Take();
}

void SyncCounter(obs::MetricsRegistry& registry, std::string_view prefix,
                 std::string_view name, std::uint64_t current,
                 std::uint64_t& synced) {
  if (current <= synced) return;
  std::string full(prefix);
  full += name;
  registry.CounterNamed(full).Add(current - synced);
  synced = current;
}

void SyncReportDeltas(const AnonymizationReport& current,
                      AnonymizationReport& base,
                      obs::MetricsRegistry& registry,
                      const std::string& prefix) {
  const std::string scalars = prefix + "report.";
  for (const auto& [name, field] : kScalars) {
    SyncCounter(registry, scalars, name, current.*field, base.*field);
  }
  const std::string rules = prefix + "rule.";
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    SyncCounter(registry, rules, kRuleNames[i], current.rule_fires[i],
                base.rule_fires[i]);
  }
}

}  // namespace confanon::core
