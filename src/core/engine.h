// The one anonymization engine, and the descriptor that makes a rule pack
// a dialect.
//
// The paper's IOS techniques "are directly applicable to JunOS and other
// router configuration languages" (Section 1, footnote 2): the same
// primitives, driven by a different rule pack. core::Engine<RulePack> is
// that sentence in code. The engine owns everything dialect-independent —
// the rule-I7 address preload, the per-file loop, the cross-line hash
// batcher with its deferred-line queue, the per-file arena, output-name
// hashing, and the observability hooks with their metrics sync — and
// calls the rule pack once per line. A rule pack derives from EngineBase
// (so its rules read and extend the shared report, leak record, mapping
// state and arena) and supplies:
//
//   * `static constexpr DialectDescriptor kDialect` — the dialect as data:
//     metric prefixes, span names, I7 policy, pass-list baseline and the
//     corpus collectors;
//   * `using Line = ...` — its tokenized line type, with Render();
//   * `void BeginFile(const config::ConfigFile&)` — per-file setup;
//   * `Line* RewriteLine(const config::ConfigFile&, std::size_t index,
//     std::vector<std::string>& out_lines)` — applies the rules to one
//     line and returns it for rendering, or returns nullptr after
//     emitting the line's output itself (comments, banners). Words it
//     hashes go through EngineBase::LookupHash, which defers the line
//     while a hash is pending in the batcher.
//
// core::Anonymizer (IOS, core/anonymizer.h) and junos::JunosAnonymizer
// (junos/anonymizer.h) are the two instantiations, each explicitly
// instantiated once, in its rule pack's .cpp. Engines over the same
// NetworkState produce referentially consistent output across files and
// dialects.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "asn/asn_map.h"
#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "core/hash_batcher.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "core/options.h"
#include "core/report.h"
#include "core/session.h"
#include "core/string_hasher.h"
#include "ipanon/ip_anonymizer.h"
#include "net/ipv4.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "passlist/passlist.h"
#include "util/arena.h"
#include "util/strings.h"

namespace confanon::core {

/// Everything the engine needs to know about a dialect, as one constant
/// per rule pack (see the file comment).
struct DialectDescriptor {
  /// Prefix of the report, rule, arena and ipanon metrics ("" for IOS,
  /// "junos." for JunOS), so a mixed run shares one registry without
  /// collisions.
  std::string_view metric_prefix;
  /// Prefix of the line/file/tokenize latency histograms.
  std::string_view timing_prefix;
  /// Trace span names of AnonymizeNetwork and of its corpus preload.
  const char* network_span;
  const char* preload_span;
  /// The rule I7 is accounted under. A named rule honours
  /// AnonymizerOptions::disabled_rules and counts the preloaded
  /// addresses; nullptr preloads unconditionally and uncounted.
  const char* preload_rule;
  /// Whether the rule pack feeds the asn.rewrite_* instruments.
  bool rewrite_metrics;
  /// The pass-list baseline; the engine merges extra_pass_list on top.
  passlist::PassList (*pass_list)(const AnonymizerOptions& options);
  /// Rule I7's operand: every non-special address literal in `file`.
  void (*collect_addresses)(const config::ConfigFile& file,
                            std::vector<net::Ipv4Address>& out);
  /// Every word in `file` the pass-list rules would hash (some alphabetic
  /// segment missing from `pass_list`). Views alias the file's lines.
  /// Over-approximates: a collected word no rule ends up hashing only
  /// costs an unused memo entry, so the pipeline can prewarm the shared
  /// hasher in full 4-lane batches before its workers start.
  void (*collect_hash_candidates)(const config::ConfigFile& file,
                                  const passlist::PassList& pass_list,
                                  std::vector<std::string_view>& out);
};

/// Rule I7, the address preload: every non-special address of a corpus
/// enters the shared trie up front, sorted, so the subnet-address
/// relationships hold network-wide instead of depending on file order.
/// The one implementation behind the standalone engine (one file),
/// Engine::AnonymizeNetwork (one dialect's corpus) and the pipeline (a
/// mixed corpus): Add every file under its dialect, then Commit.
class SubnetPreload {
 public:
  explicit SubnetPreload(const AnonymizerOptions& options)
      : options_(&options) {}

  /// Whether `dialect` preloads under `options`.
  static bool Enabled(const DialectDescriptor& dialect,
                      const AnonymizerOptions& options) {
    return dialect.preload_rule == nullptr ||
           !options.disabled_rules.contains(dialect.preload_rule);
  }

  /// Collects `file`'s addresses with `dialect`'s collector, if enabled.
  void Add(const DialectDescriptor& dialect, const config::ConfigFile& file);

  std::size_t size() const { return addresses_.size(); }

  /// Preloads the collected addresses into `state`'s trie and counts the
  /// share of rule-bearing dialects under their preload rule in `report`.
  /// Returns that count, or nullopt when no rule-bearing dialect added a
  /// file.
  std::optional<std::uint64_t> Commit(NetworkState& state,
                                      AnonymizationReport& report);

 private:
  const AnonymizerOptions* options_;
  std::vector<net::Ipv4Address> addresses_;
  const char* rule_ = nullptr;
  std::uint64_t counted_ = 0;
};

/// Pushes the trie's hit/miss/collision/preload counter deltas since
/// `base` and its node-count gauge into `registry` under `prefix`.
void SyncTrieDeltas(const ipanon::IpAnonymizer& ip,
                    ipanon::IpAnonymizer::Stats& base,
                    obs::MetricsRegistry& registry, std::string_view prefix);

/// Writes the anonymized groupings of `entities` over `state`'s mappings,
/// one entity per line: "entity <n>: asns <a1> <a2> ... prefixes <p1>
/// ...". All values are post-anonymization; labels are never written.
/// This is the Section 5 extension: the implicit AS-X/prefix-Y
/// relationship is preserved as an explicit, still-anonymous grouping.
void ExportKnownEntities(
    const std::vector<AnonymizerOptions::KnownEntity>& entities,
    NetworkState& state, std::ostream& out);

/// The dialect-independent state and services of an engine; the base
/// every rule pack derives from.
class EngineBase {
 public:
  const AnonymizationReport& report() const { return report_; }
  const LeakRecord& leak_record() const { return leak_record_; }

  /// The network-wide mapping state this engine reads and extends.
  const std::shared_ptr<NetworkState>& state() const { return state_; }
  const asn::AsnMap& asn_map() const { return state_->asn_map; }
  const asn::Uint16Permutation& community_values() const {
    return state_->community_values;
  }
  ipanon::IpAnonymizer& ip_anonymizer() { return state_->ip; }
  StringHasher& string_hasher() { return state_->hasher; }
  const passlist::PassList& pass_list() const { return pass_list_; }

  // --- observability (all optional, all non-owning) ---
  //
  // With no hooks installed the per-line hot path pays a single branch;
  // the benches run in that mode.

  /// Installs all observability hooks in one shot, replacing the
  /// previous set; any member may be null:
  ///   * hooks.metrics — mirrors the report (per-rule fire counts,
  ///     word/address totals), the IP trie's hit/miss/size stats, the
  ///     arena's allocation counters and the per-line, per-file and
  ///     tokenize latency histograms into the registry, under the
  ///     dialect's prefixes, synced at file boundaries;
  ///   * hooks.trace — emits Chrome-trace spans (network phase, one span
  ///     per file, per-rule spans nested inside each file span);
  ///   * hooks.provenance — records one ProvenanceEntry per (line, fired
  ///     rule) with before/after word counts (Section 6.1 leak triage).
  void install_hooks(const obs::Hooks& hooks);

  /// Pushes any unreported report/trie/arena deltas into the installed
  /// registry. Called automatically at file boundaries; idempotent.
  void SyncMetrics();

 protected:
  /// `state` null: a standalone engine owning a fresh NetworkState.
  /// Otherwise the engine works over the given (possibly shared) state;
  /// engines sharing state do not sync the shared trie's counters into
  /// metrics — the pipeline does that once, centrally, to avoid double
  /// counting.
  EngineBase(const DialectDescriptor& dialect, AnonymizerOptions options,
             std::shared_ptr<NetworkState> state);

  /// Rule I7 over this engine's corpus, unless a preload already ran.
  void PreloadNetwork(const std::vector<config::ConfigFile>& files);
  /// Standalone streaming use (no corpus-wide pass ran): preloads this
  /// file's own addresses so the subnet-address guarantee holds at least
  /// file-locally. Within AnonymizeNetwork or the pipeline the corpus
  /// preload already ran and this is skipped.
  void PreloadFile(const config::ConfigFile& file);

  /// Runs `tokenize`, timing it into the tokenize histogram if installed.
  template <class Tokenize>
  void TimedTokenize(Tokenize&& tokenize) {
    if (tokenize_hist_ == nullptr) {
      tokenize();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    tokenize();
    tokenize_hist_->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  }

  /// Hash-token lookup through the cross-line batcher. A memo hit returns
  /// the stable token for the caller to write in place. A miss registers
  /// `slot` (patched with the token, quoted with `quote`, at flush time),
  /// marks the current line pending and returns nullptr. After a miss the
  /// word's text is stale; no rule may read it again.
  const std::string* LookupHash(std::string_view word, std::string_view* slot,
                                bool quote = false) {
    const std::string* token = batcher_.Lookup(word, arena_, slot, quote);
    if (token == nullptr) ++line_pending_;
    return token;
  }

  /// Records a regexp rewrite's cost into the registry, if installed.
  /// Memo-served results count toward "asn.rewrite_memo_hits" instead of
  /// re-adding DFA states / rewrite latency.
  void RecordRewrite(const asn::RewriteResult& result);

  /// Per-file observation: the file's latency, its trace span with the
  /// per-rule spans nested inside, and a metrics sync.
  struct FileSpan {
    bool observing = false;
    std::int64_t start_us = 0;
    std::chrono::steady_clock::time_point start;
    /// Per-rule processing time (traced runs only): the cost of each
    /// line is attributed to the rules that fired on it.
    std::map<std::string, std::uint64_t> rule_ns;
  };
  FileSpan BeginFileSpan();
  void EndFileSpan(const config::ConfigFile& file, const FileSpan& span);

  /// File names are derived from hostnames; anonymize consistently.
  std::string OutputName(const config::ConfigFile& file);

  const DialectDescriptor& dialect_;
  AnonymizerOptions options_;
  passlist::PassList pass_list_;
  /// Whether this dialect's rule I7 runs under options_.
  bool preload_enabled_;
  /// Whether state_ was handed in (pipeline worker) rather than owned.
  bool shared_state_;
  std::shared_ptr<NetworkState> state_;
  AnonymizationReport report_;
  LeakRecord leak_record_;

  // Observability state. The histogram/counter pointers are resolved once
  // in install_hooks so instrumented paths touch only atomics.
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::ProvenanceLog* provenance_ = nullptr;
  obs::LatencyHistogram* line_hist_ = nullptr;
  obs::LatencyHistogram* file_hist_ = nullptr;
  obs::LatencyHistogram* tokenize_hist_ = nullptr;
  obs::LatencyHistogram* rewrite_hist_ = nullptr;
  obs::Counter* dfa_states_total_ = nullptr;
  obs::Counter* rewrite_memo_hits_ = nullptr;
  /// Last report/trie/arena state already pushed to the registry (delta
  /// base).
  AnonymizationReport synced_report_;
  ipanon::IpAnonymizer::Stats synced_ip_;
  std::uint64_t synced_arena_bytes_ = 0;
  std::uint64_t synced_arena_resets_ = 0;

  /// Per-file scratch for rewritten words; reset at file boundaries,
  /// after the file's lines have been rendered.
  util::Arena arena_;
  /// Hash tokens of the current line still pending in the batcher; when
  /// nonzero at line end the line is deferred instead of rendered.
  std::size_t line_pending_ = 0;
  /// Cross-line batcher over the shared hasher (declared after state_;
  /// construction order matters).
  HashBatcher batcher_;
};

template <class RulePack>
class Engine : public RulePack {
 public:
  /// Standalone engine owning a fresh NetworkState.
  explicit Engine(AnonymizerOptions options)
      : Engine(std::move(options), nullptr) {}
  /// Engine over an existing (possibly shared) NetworkState. The parallel
  /// pipeline gives each worker its own engines (own report, own
  /// observability buffers) over the one shared state.
  Engine(AnonymizerOptions options, std::shared_ptr<NetworkState> state)
      : RulePack(std::move(options), std::move(state)) {}
  /// Session-API form (see core/session.h): an engine over `session`'s
  /// shared state with the context's engine options re-salted for the
  /// session.
  Engine(const ServiceContext& context, const Session& session)
      : Engine(context.EngineOptions(session), session.state()) {}

  /// Anonymizes all files of one network consistently: the corpus-wide
  /// address preload (rule I7) first, then each file in order.
  std::vector<config::ConfigFile> AnonymizeNetwork(
      const std::vector<config::ConfigFile>& files);

  /// Anonymizes a single file using (and extending) the shared state.
  /// When no corpus-wide preload has run yet, this file's own addresses
  /// are preloaded first (see EngineBase::PreloadFile).
  config::ConfigFile AnonymizeFile(const config::ConfigFile& file);

 private:
  using Line = typename RulePack::Line;

  /// One input line end-to-end: the rule pack, then rendering or — while
  /// hash tokens are pending — deferral, then the batcher flush policy.
  void AnonymizeLine(const config::ConfigFile& file, std::size_t index,
                     std::vector<std::string>& out_lines);
  /// AnonymizeLine wrapped in timing + rule-fire attribution; accumulates
  /// per-rule nanoseconds into `rule_ns` and feeds the provenance log.
  void ObserveLine(const config::ConfigFile& file, std::size_t index,
                   std::vector<std::string>& out_lines,
                   std::map<std::string, std::uint64_t>& rule_ns);
  /// Renders every deferred line whose pending words have all been
  /// resolved by a flush, patching its placeholder in `out_lines`.
  void DrainDeferred(std::vector<std::string>& out_lines);

  /// Lines waiting on pending hash tokens: the line is moved here
  /// (element addresses — the batcher's slots — survive the move) and
  /// rendered into its reserved out_lines position once the batcher's
  /// resolved sequence catches up. FIFO: flushes resolve oldest words
  /// first, so lines complete in order.
  struct DeferredLine {
    Line line;
    std::size_t out_index;
    std::uint64_t seq;
  };
  std::deque<DeferredLine> deferred_;
};

template <class RulePack>
std::vector<config::ConfigFile> Engine<RulePack>::AnonymizeNetwork(
    const std::vector<config::ConfigFile>& files) {
  obs::ScopedTimer network_span(&this->tracer_,
                                this->dialect_.network_span);
  network_span.AddArg("files", static_cast<std::int64_t>(files.size()));
  network_span.AddArg("phase", "anonymize");
  this->PreloadNetwork(files);
  std::vector<config::ConfigFile> out;
  out.reserve(files.size());
  for (const config::ConfigFile& file : files) {
    out.push_back(AnonymizeFile(file));
  }
  this->SyncMetrics();
  return out;
}

template <class RulePack>
config::ConfigFile Engine<RulePack>::AnonymizeFile(
    const config::ConfigFile& file) {
  this->PreloadFile(file);
  RulePack::BeginFile(file);
  std::vector<std::string> out_lines;
  out_lines.reserve(file.lines().size());
  auto span = this->BeginFileSpan();
  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    if (span.observing) {
      ObserveLine(file, index, out_lines, span.rule_ns);
    } else {
      AnonymizeLine(file, index, out_lines);
    }
  }
  // Resolve the remaining partial hash batch (dummy-padded lanes) and
  // render the lines waiting on it — the pending words and deferred token
  // views are arena-backed, so this must precede the reset.
  this->batcher_.FlushAll();
  DrainDeferred(out_lines);
  // Every line has been rendered into an owned output string; no
  // arena-backed view survives past this point.
  this->arena_.Reset();
  this->EndFileSpan(file, span);
  return config::ConfigFile(this->OutputName(file), std::move(out_lines));
}

template <class RulePack>
void Engine<RulePack>::AnonymizeLine(const config::ConfigFile& file,
                                     std::size_t index,
                                     std::vector<std::string>& out_lines) {
  ++this->report_.total_lines;
  this->line_pending_ = 0;
  Line* line = RulePack::RewriteLine(file, index, out_lines);
  if (line == nullptr) return;
  if (this->line_pending_ == 0) {
    out_lines.push_back(line->Render());
  } else {
    // Some hash tokens are still pending in the batcher: park the line
    // (moving the token vectors keeps the slot addresses stable) and
    // reserve its output position. It renders once the batcher's
    // resolved sequence reaches everything this line enqueued.
    deferred_.push_back(DeferredLine{std::move(*line), out_lines.size(),
                                     this->batcher_.enqueued_seq()});
    out_lines.emplace_back();
  }
  // Flush policy: full 4-lane batches flush eagerly; with a provenance
  // log installed everything flushes per line, since the log records
  // post-line word counts and must see the rendered line immediately.
  if (this->provenance_ != nullptr) {
    this->batcher_.FlushAll();
  } else {
    this->batcher_.FlushFull();
  }
  DrainDeferred(out_lines);
}

template <class RulePack>
void Engine<RulePack>::DrainDeferred(std::vector<std::string>& out_lines) {
  while (!deferred_.empty() &&
         deferred_.front().seq <= this->batcher_.resolved_seq()) {
    DeferredLine& deferred = deferred_.front();
    out_lines[deferred.out_index] = deferred.line.Render();
    deferred_.pop_front();
  }
}

template <class RulePack>
void Engine<RulePack>::ObserveLine(
    const config::ConfigFile& file, std::size_t index,
    std::vector<std::string>& out_lines,
    std::map<std::string, std::uint64_t>& rule_ns) {
  AnonymizationReport& report = this->report_;
  const std::uint64_t words_before = report.total_words;
  const std::size_t out_count = out_lines.size();
  const std::map<std::string, std::uint64_t> fires_before = report.rule_fires;
  const auto t0 = std::chrono::steady_clock::now();

  AnonymizeLine(file, index, out_lines);

  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (this->line_hist_ != nullptr) this->line_hist_->Record(elapsed_ns);

  const auto tokens_before =
      static_cast<std::uint32_t>(report.total_words - words_before);
  const auto tokens_after = static_cast<std::uint32_t>(
      out_lines.size() > out_count ? util::SplitWords(out_lines.back()).size()
                                   : 0);

  // Rules whose fire count advanced during this line.
  std::vector<const std::string*> fired;
  for (const auto& [name, count] : report.rule_fires) {
    const auto before = fires_before.find(name);
    if (before == fires_before.end() || before->second != count) {
      fired.push_back(&name);
    }
  }
  if (fired.empty()) return;
  const std::uint64_t share = elapsed_ns / fired.size();
  for (const std::string* rule : fired) {
    if (this->tracer_.enabled()) rule_ns[*rule] += share;
    if (this->provenance_ != nullptr) {
      this->provenance_->Record(obs::ProvenanceEntry{
          file.name(), static_cast<std::uint64_t>(index), *rule,
          tokens_before, tokens_after});
    }
  }
}

}  // namespace confanon::core
