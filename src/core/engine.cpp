#include "core/engine.h"

#include <algorithm>

namespace confanon::core {

void SubnetPreload::Add(const DialectDescriptor& dialect,
                        const config::ConfigFile& file) {
  if (!Enabled(dialect, *options_)) return;
  const std::size_t before = addresses_.size();
  dialect.collect_addresses(file, addresses_);
  if (dialect.preload_rule != nullptr) {
    rule_ = dialect.preload_rule;
    counted_ += addresses_.size() - before;
  }
}

std::optional<std::uint64_t> SubnetPreload::Commit(
    NetworkState& state, AnonymizationReport& report) {
  std::optional<std::uint64_t> counted;
  if (rule_ != nullptr) {
    report.CountRule(rule_, counted_);
    counted = counted_;
  }
  state.ip.Preload(std::move(addresses_));
  addresses_.clear();
  return counted;
}

void SyncTrieDeltas(const ipanon::IpAnonymizer& ip,
                    ipanon::IpAnonymizer::Stats& base,
                    obs::MetricsRegistry& registry, std::string_view prefix) {
  const auto sync = [&](const char* name, std::uint64_t current,
                        std::uint64_t& synced) {
    if (current > synced) {
      registry.CounterNamed(std::string(prefix) + name).Add(current - synced);
      synced = current;
    }
  };
  const ipanon::IpAnonymizer::Stats stats = ip.stats();
  sync("ipanon.cache_hits", stats.cache_hits, base.cache_hits);
  sync("ipanon.cache_misses", stats.cache_misses, base.cache_misses);
  sync("ipanon.collision_walks", stats.collision_walks, base.collision_walks);
  sync("ipanon.preloaded_addresses", stats.preloaded, base.preloaded);
  registry.GaugeNamed(std::string(prefix) + "ipanon.trie_nodes")
      .Set(static_cast<std::int64_t>(ip.NodeCount()));
}

void ExportKnownEntities(
    const std::vector<AnonymizerOptions::KnownEntity>& entities,
    NetworkState& state, std::ostream& out) {
  int index = 0;
  for (const AnonymizerOptions::KnownEntity& entity : entities) {
    out << "entity " << index++ << ": asns";
    for (std::uint32_t asn : entity.asns) {
      out << ' ' << state.asn_map.Map(asn);
    }
    out << " prefixes";
    for (const net::Prefix& prefix : entity.prefixes) {
      out << ' '
          << net::Prefix(state.ip.Map(prefix.address()), prefix.length())
                 .ToString();
    }
    out << '\n';
  }
}

EngineBase::EngineBase(const DialectDescriptor& dialect,
                       AnonymizerOptions options,
                       std::shared_ptr<NetworkState> state)
    : dialect_(dialect),
      options_(std::move(options)),
      pass_list_(dialect.pass_list(options_)),
      preload_enabled_(SubnetPreload::Enabled(dialect, options_)),
      shared_state_(state != nullptr),
      state_(shared_state_ ? std::move(state)
                           : std::make_shared<NetworkState>(options_.salt)),
      batcher_(state_->hasher) {
  pass_list_.Merge(options_.extra_pass_list);
}

void EngineBase::PreloadNetwork(const std::vector<config::ConfigFile>& files) {
  if (!preload_enabled_ || state_->preloaded.load(std::memory_order_acquire)) {
    return;
  }
  obs::ScopedTimer preload_span(&tracer_, dialect_.preload_span);
  preload_span.AddArg("phase", "preload");
  SubnetPreload preload(options_);
  for (const config::ConfigFile& file : files) preload.Add(dialect_, file);
  preload_span.AddArg("addresses", static_cast<std::int64_t>(preload.size()));
  preload.Commit(*state_, report_);
  state_->preloaded.store(true, std::memory_order_release);
}

void EngineBase::PreloadFile(const config::ConfigFile& file) {
  if (!preload_enabled_ || state_->preloaded.load(std::memory_order_acquire)) {
    return;
  }
  SubnetPreload preload(options_);
  preload.Add(dialect_, file);
  preload.Commit(*state_, report_);
}

void EngineBase::install_hooks(const obs::Hooks& hooks) {
  tracer_.set_sink(hooks.trace);
  provenance_ = hooks.provenance;
  metrics_ = hooks.metrics;
  // Resolve every instrument eagerly (including the memo-hit counter, so
  // it appears in snapshots even before the first hit) and touch only
  // atomics on the hot paths.
  const bool rewrites = metrics_ != nullptr && dialect_.rewrite_metrics;
  const auto histogram = [&](std::string_view name) {
    return metrics_ != nullptr
               ? &metrics_->HistogramNamed(std::string(dialect_.timing_prefix) +
                                           std::string(name))
               : nullptr;
  };
  line_hist_ = histogram("line_ns");
  file_hist_ = histogram("file_ns");
  tokenize_hist_ = histogram("tokenize_ns");
  rewrite_hist_ =
      rewrites ? &metrics_->HistogramNamed("asn.rewrite_ns") : nullptr;
  dfa_states_total_ =
      rewrites ? &metrics_->CounterNamed("asn.rewrite_dfa_states") : nullptr;
  rewrite_memo_hits_ =
      rewrites ? &metrics_->CounterNamed("asn.rewrite_memo_hits") : nullptr;
  // The batched word-hash instruments are unprefixed ("hash.*"): the
  // hasher is dialect-agnostic shared state, so every engine feeds the
  // same instruments.
  if (metrics_ != nullptr) {
    batcher_.set_metrics(&metrics_->HistogramNamed("hash.batch_ns"),
                         &metrics_->CounterNamed("hash.batched_words"),
                         &metrics_->CounterNamed("hash.batch_flushes"),
                         &metrics_->HistogramNamed("hash.lane_fill"));
  } else {
    batcher_.set_metrics(nullptr, nullptr, nullptr, nullptr);
  }
}

void EngineBase::SyncMetrics() {
  if (metrics_ == nullptr) return;
  const std::string prefix(dialect_.metric_prefix);
  SyncReportDeltas(report_, synced_report_, *metrics_, prefix);
  const auto sync = [&](const char* name, std::uint64_t current,
                        std::uint64_t& base) {
    if (current > base) {
      metrics_->CounterNamed(prefix + name).Add(current - base);
      base = current;
    }
  };
  // The arena is engine-local (one per worker), so its counters sync
  // here even under a shared NetworkState.
  sync("arena.bytes", arena_.bytes_allocated(), synced_arena_bytes_);
  sync("arena.resets", arena_.resets(), synced_arena_resets_);
  // A shared trie belongs to the pipeline's NetworkState; per-worker
  // delta syncs would double count, so the pipeline syncs it centrally.
  if (!shared_state_) {
    SyncTrieDeltas(state_->ip, synced_ip_, *metrics_, prefix);
  }
}

void EngineBase::RecordRewrite(const asn::RewriteResult& result) {
  if (result.memo_hit) {
    // The rewrite was served from the LRU memo: no NFA/DFA work happened,
    // so neither the latency histogram nor the DFA-state total moves.
    if (rewrite_memo_hits_ != nullptr) rewrite_memo_hits_->Add(1);
    return;
  }
  if (rewrite_hist_ != nullptr) rewrite_hist_->Record(result.elapsed_ns);
  if (dfa_states_total_ != nullptr) {
    dfa_states_total_->Add(result.dfa_states);
  }
}

EngineBase::FileSpan EngineBase::BeginFileSpan() {
  FileSpan span;
  span.observing =
      tracer_.enabled() || provenance_ != nullptr || metrics_ != nullptr;
  span.start_us = tracer_.enabled() ? tracer_.NowUs() : 0;
  span.start = std::chrono::steady_clock::now();
  return span;
}

void EngineBase::EndFileSpan(const config::ConfigFile& file,
                             const FileSpan& span) {
  if (!span.observing) return;
  const std::int64_t file_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - span.start)
          .count();
  if (file_hist_ != nullptr) {
    file_hist_->Record(static_cast<std::uint64_t>(file_ns));
  }
  if (tracer_.enabled()) {
    const std::int64_t file_end_us =
        span.start_us + std::max<std::int64_t>(file_ns / 1000, 1);
    // Per-rule spans, laid end-to-end inside the file span so viewers
    // nest them under it (timestamp containment). Positions within the
    // file are synthetic; durations are the measured aggregates.
    std::int64_t cursor = span.start_us;
    for (const auto& [rule, ns] : span.rule_ns) {
      std::int64_t duration =
          std::max<std::int64_t>(static_cast<std::int64_t>(ns) / 1000, 1);
      duration =
          std::min(duration, std::max<std::int64_t>(file_end_us - cursor, 1));
      tracer_.Complete("rule:" + rule, cursor, duration, "anonymize");
      cursor = std::min(cursor + duration, file_end_us - 1);
    }
    tracer_.Complete("file:" + file.name(), span.start_us,
                     file_end_us - span.start_us, "anonymize");
  }
  SyncMetrics();
}

std::string EngineBase::OutputName(const config::ConfigFile& file) {
  std::string out_name = file.name();
  if (!out_name.empty() && !pass_list_.Contains(out_name)) {
    out_name = state_->hasher.Hash(out_name);
  }
  return out_name;
}

}  // namespace confanon::core
