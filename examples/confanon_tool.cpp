// confanon_tool — the command-line anonymizer a network operator would
// run (the artifact the paper's clearinghouse workflow distributes:
// "Network owners could download the configuration anonymization tools
// from the portal ... and upload their anonymized configurations").
//
// Usage:
//   confanon_tool --salt SECRET [options] config1 [config2 ...]
//
// Options:
//   --salt SECRET        owner-chosen secret (required)
//   --out DIR            write anonymized files to DIR (default: stdout)
//   --threads N          pipeline worker threads (0 = all cores, the
//                        default; output is byte-identical for any N)
//   --minimized-regexps  emit minimized-DFA regexps instead of alternations
//   --keep-comments      do not strip comments (NOT recommended)
//   --export-map FILE    save the IP mapping for a later consistent run
//   --import-map FILE    preload the IP mapping from an earlier run
//   --report             print the anonymization report to stderr
//   --check-leaks        run the Section 6.1 grep-back and report findings
//   --junos              force JunOS treatment of every input; without it
//                        each file is routed per dialect (IOS vs JunOS
//                        brace syntax) automatically
//   --ios                force IOS treatment of every input
//   --entities FILE      known-entity declarations (paper Section 5), one
//                        per line: "label | asn asn ... | prefix prefix ..."
//   --entities-out FILE  write the anonymized entity groupings
//   --network-dir ROOT   multi-network mode: each immediate subdirectory
//                        of ROOT is one network (own salt "SECRET:name",
//                        own mapping); networks are anonymized
//                        concurrently over the shared --threads budget
//   --metrics-listen H:P serve live Prometheus /metrics (+ /healthz) on
//                        HOST:PORT for the duration of the run (port 0
//                        picks an ephemeral port, printed to stderr)
//   --profile-out FILE   write a flamegraph.pl-compatible folded-stack
//                        profile and print the per-phase wall/IPC table
//                        to stderr after the run
//   --defend-k K         fingerprint defense (src/defense): insert decoy
//                        structure until every router's (subnet-size
//                        histogram, peering degree) fingerprint is shared
//                        by >= K routers of its network; the achieved k
//                        and decoy overhead are printed to stderr
//   --defend-seed S      decoy randomness seed (default 0; decoys are
//                        deterministic per salt + seed)
//   --defend-budget-pct P  cap decoy lines at P% of the corpus (default
//                        35); padding stops honestly when the cap hits
//   --decoy-manifest F   write the decoy manifest (for confanon_audit
//                        --decoys); single-corpus mode only
//
// All files given in one invocation are treated as one network: they share
// the hash memo, IP trie and ASN permutation, so cross-file references
// stay consistent — including across dialects in a mixed corpus. With
// --network-dir, each subdirectory is instead its own network with its own
// mapping, and the set is processed in parallel (byte-identical output for
// any --threads value).
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/leak_detector.h"
#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "pipeline/pipeline.h"
#include "util/io.h"
#include "util/strings.h"

namespace {

void Usage() {
  std::cerr << "usage: confanon_tool --salt SECRET [--out DIR] [--threads N] "
               "[--minimized-regexps] [--keep-comments]\n"
               "                     [--export-map FILE] [--import-map FILE] "
               "[--report] [--check-leaks] [--junos] [--ios]\n"
               "                     config1 [config2 ...]\n"
               "       confanon_tool --salt SECRET --network-dir ROOT "
               "[--out DIR] [--threads N] [options]\n"
               "       (observability: [--metrics-listen HOST:PORT] "
               "[--profile-out FILE])\n"
               "       (defense: [--defend-k K] [--defend-seed S] "
               "[--defend-budget-pct P] [--decoy-manifest FILE])\n";
}

/// Corpus-level ingest accounting (the io.* metric source).
struct IoTally {
  std::uint64_t bytes_read = 0;
  std::uint64_t read_ns = 0;
  std::uint64_t mmap_files = 0;
};

/// Reads one file into a ConfigFile named after its basename — mmap for
/// large regular files, single-allocation read otherwise; the file's
/// lines alias the backing with no per-line copies. Exits the process
/// with an errno-bearing diagnostic when unreadable.
confanon::config::ConfigFile ReadConfig(const std::filesystem::path& path,
                                        IoTally& io) {
  std::string error;
  auto contents = confanon::util::ReadFileContents(path.string(), &error);
  if (!contents) {
    std::cerr << error << "\n";
    std::exit(1);
  }
  io.bytes_read += contents->view.size();
  io.read_ns += contents->read_ns;
  if (contents->mapped) ++io.mmap_files;
  return confanon::config::ConfigFile::FromBacking(
      path.filename().string(), contents->view, std::move(contents->backing));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace confanon;

  core::ServiceOptions options;
  options.base.salt.clear();
  options.threads = 0;  // all cores; byte-identical regardless
  std::string out_dir;
  std::string export_map, import_map;
  std::string entities_in, entities_out;
  std::string network_dir;
  std::string metrics_listen, profile_out;
  std::string decoy_manifest_out;
  bool report = false, check_leaks = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--salt") {
      options.base.salt = next();
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--threads") {
      options.threads = std::atoi(next());
    } else if (arg == "--minimized-regexps") {
      options.base.regex_form = asn::RewriteForm::kMinimizedDfa;
    } else if (arg == "--keep-comments") {
      options.base.strip_comments = false;
    } else if (arg == "--export-map") {
      export_map = next();
    } else if (arg == "--import-map") {
      import_map = next();
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--check-leaks") {
      check_leaks = true;
    } else if (arg == "--junos") {
      options.dialect = core::ConfigDialect::kJunos;
    } else if (arg == "--ios") {
      options.dialect = core::ConfigDialect::kIos;
    } else if (arg == "--entities") {
      entities_in = next();
    } else if (arg == "--entities-out") {
      entities_out = next();
    } else if (arg == "--network-dir") {
      network_dir = next();
    } else if (arg == "--defend-k") {
      options.defense.k = std::atoi(next());
    } else if (arg == "--defend-seed") {
      options.defense.seed =
          static_cast<std::uint64_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--defend-budget-pct") {
      options.defense.budget = std::atof(next()) / 100.0;
    } else if (arg == "--decoy-manifest") {
      decoy_manifest_out = next();
    } else if (arg == "--metrics-listen") {
      metrics_listen = next();
    } else if (arg.rfind("--metrics-listen=", 0) == 0) {
      metrics_listen = arg.substr(std::string("--metrics-listen=").size());
    } else if (arg == "--profile-out") {
      profile_out = next();
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile_out = arg.substr(std::string("--profile-out=").size());
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      Usage();
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (options.base.salt.empty() ||
      (inputs.empty() == network_dir.empty())) {
    Usage();
    return 2;
  }

  // --- live observability (both modes) ---
  obs::MetricsRegistry registry;
  obs::SnapshotExporter exporter(&registry);
  std::unique_ptr<obs::ExpositionServer> metrics_server;
  if (!metrics_listen.empty()) {
    obs::ExpositionServer::Options listen_options;
    if (!obs::ExpositionServer::ParseListenSpec(
            metrics_listen, listen_options.host, listen_options.port)) {
      std::cerr << "bad --metrics-listen spec '" << metrics_listen
                << "' (want HOST:PORT)\n";
      return 2;
    }
    metrics_server = std::make_unique<obs::ExpositionServer>(
        listen_options,
        [&exporter] { return obs::RenderPrometheus(exporter.Capture()); });
    std::string error;
    if (!metrics_server->Start(&error)) {
      std::cerr << "--metrics-listen failed: " << error << "\n";
      return 1;
    }
    std::cerr << "serving /metrics and /healthz on http://"
              << metrics_server->host() << ":" << metrics_server->port()
              << "/\n";
  }
  std::unique_ptr<obs::PhaseProfiler> profiler;
  if (!profile_out.empty()) {
    profiler = std::make_unique<obs::PhaseProfiler>();
  }
  obs::Hooks obs_hooks;
  if (metrics_server != nullptr) obs_hooks.metrics = &registry;
  if (profiler != nullptr) {
    obs_hooks.profiler = profiler.get();
    obs_hooks.trace = profiler.get();  // buffer spans for the folded output
  }
  // Corpus-level I/O accounting; one writer reused across every output
  // file so its buffer is allocated once for the whole run.
  IoTally io_tally;
  util::BufferedWriter writer;
  const auto flush_io_metrics = [&] {
    if (obs_hooks.metrics == nullptr) return;
    registry.CounterNamed("io.bytes_read").Add(io_tally.bytes_read);
    registry.CounterNamed("io.read_ns").Add(io_tally.read_ns);
    registry.CounterNamed("io.mmap_files").Add(io_tally.mmap_files);
    registry.CounterNamed("io.bytes_written").Add(writer.bytes_written());
    registry.CounterNamed("io.write_ns").Add(writer.write_ns());
  };
  // Runs after anonymization in either mode: render the phase table,
  // write the folded profile, and shut the listener down cleanly.
  const auto finish_observability = [&] {
    flush_io_metrics();
    if (profiler != nullptr) {
      const obs::PhaseProfiler::Profile profile = profiler->Finish();
      std::cerr << obs::PhaseProfiler::RenderTable(profile);
      std::ofstream folded(profile_out, std::ios::trunc);
      if (folded) {
        obs::PhaseProfiler::WriteFolded(profile, folded);
        std::cerr << "wrote " << profile_out << " (" << profile.spans.size()
                  << " folded stacks)\n";
      } else {
        std::cerr << "cannot write profile " << profile_out << "\n";
      }
    }
    if (metrics_server != nullptr) metrics_server->Stop();
  };

  // --- multi-network mode: one network per subdirectory of ROOT ---
  if (!network_dir.empty()) {
    if (!export_map.empty() || !import_map.empty() || !entities_in.empty() ||
        !entities_out.empty()) {
      std::cerr << "--network-dir is incompatible with map/entity options "
                   "(mappings are per network)\n";
      return 2;
    }
    if (!decoy_manifest_out.empty()) {
      std::cerr << "--decoy-manifest is incompatible with --network-dir "
                   "(the manifest covers one corpus)\n";
      return 2;
    }
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(network_dir)) {
      if (entry.is_directory()) {
        names.push_back(entry.path().filename().string());
      }
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) {
      std::cerr << "no network subdirectories under " << network_dir << "\n";
      return 1;
    }
    std::vector<pipeline::NetworkTask> tasks;
    tasks.reserve(names.size());
    {
      obs::PhaseProfiler::ScopedPhase phase(obs_hooks.profiler, nullptr,
                                            "ingest");
      for (const std::string& name : names) {
        pipeline::NetworkTask task;
        task.options = options;
        task.options.threads = 0;  // share the set's budget
        task.options.base.salt = options.base.salt + ":" + name;
        std::vector<std::filesystem::path> paths;
        for (const auto& entry : std::filesystem::directory_iterator(
                 std::filesystem::path(network_dir) / name)) {
          if (entry.is_regular_file()) paths.push_back(entry.path());
        }
        std::sort(paths.begin(), paths.end());
        for (const auto& path : paths) {
          task.files.push_back(ReadConfig(path, io_tally));
        }
        tasks.push_back(std::move(task));
      }
    }
    // The set-level context carries the shared thread budget and hooks;
    // each task's per-network context/session is built inside.
    std::shared_ptr<core::ServiceContext> set_context;
    {
      obs::PhaseProfiler::ScopedPhase phase(obs_hooks.profiler, nullptr,
                                            "startup");
      set_context = pipeline::MakeServiceContext(options);
    }
    set_context->install_hooks(obs_hooks);
    const auto results = pipeline::AnonymizeNetworkSet(tasks, *set_context);

    core::AnonymizationReport merged_report;
    std::size_t leak_findings = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (out_dir.empty()) {
        for (const auto& file : results[i].files) {
          std::cout << "! ===== " << names[i] << "/" << file.name()
                    << " =====\n"
                    << file.ToText();
        }
      } else {
        obs::PhaseProfiler::ScopedPhase phase(obs_hooks.profiler, nullptr,
                                              "emit");
        const auto dir = std::filesystem::path(out_dir) / names[i];
        std::filesystem::create_directories(dir);
        for (const auto& file : results[i].files) {
          const auto path = dir / (file.name() + ".cfg");
          std::string error;
          if (!writer.Open(path.string(), &error)) {
            std::cerr << error << "\n";
            return 1;
          }
          file.AppendTo(writer);
          if (!writer.Close()) {
            std::cerr << writer.error() << "\n";
            return 1;
          }
        }
      }
      merged_report.Merge(results[i].report);
      if (options.defense.k > 1) {
        std::cerr << names[i] << ": defense k target "
                  << results[i].defense.target_k << ", achieved "
                  << results[i].defense.achieved_k << ", "
                  << results[i].defense.decoy_lines << " decoy lines\n";
      }
      if (check_leaks) {
        for (const auto& finding : core::LeakDetector::Scan(
                 results[i].files, results[i].leak_record)) {
          ++leak_findings;
          std::cerr << "  " << names[i] << "/" << finding.file << ":"
                    << finding.line_number + 1 << " [" << finding.matched
                    << "] " << finding.line << "\n";
        }
      }
    }
    if (!out_dir.empty()) {
      std::cerr << "wrote " << results.size() << " networks to " << out_dir
                << "\n";
    }
    if (report) std::cerr << merged_report.ToString();
    finish_observability();
    if (check_leaks) {
      std::cerr << "leak findings: " << leak_findings << "\n";
      return leak_findings == 0 ? 0 : 3;
    }
    return 0;
  }

  std::vector<config::ConfigFile> files;
  {
    obs::PhaseProfiler::ScopedPhase phase(obs_hooks.profiler, nullptr,
                                          "ingest");
    for (const std::string& path : inputs) {
      files.push_back(ReadConfig(path, io_tally));
    }
  }

  // Known-entity declarations: "label | asn asn | prefix prefix".
  if (!entities_in.empty()) {
    std::ifstream in(entities_in);
    if (!in) {
      std::cerr << "cannot read entities " << entities_in << "\n";
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (confanon::util::Trim(line).empty()) continue;
      const auto fields = confanon::util::Split(line, '|');
      if (fields.size() != 3) {
        std::cerr << "malformed entity line: " << line << "\n";
        return 1;
      }
      core::AnonymizerOptions::KnownEntity entity;
      entity.label = std::string(confanon::util::Trim(fields[0]));
      for (const auto word : confanon::util::SplitWords(fields[1])) {
        std::uint64_t asn = 0;
        if (confanon::util::ParseUint(word, 65535, asn)) {
          entity.asns.push_back(static_cast<std::uint32_t>(asn));
        }
      }
      for (const auto word : confanon::util::SplitWords(fields[2])) {
        if (const auto prefix = net::Prefix::Parse(word)) {
          entity.prefixes.push_back(*prefix);
        }
      }
      options.base.known_entities.push_back(std::move(entity));
    }
  }

  // One context + session per invocation (the Session-API spelling of
  // the classic batch run): per-file dialect routing over one shared
  // mapping, `--threads` workers, byte-identical output for any count.
  std::shared_ptr<core::ServiceContext> context;
  {
    // Context build, policy verification included.
    obs::PhaseProfiler::ScopedPhase phase(obs_hooks.profiler, nullptr,
                                          "startup");
    context = pipeline::MakeServiceContext(std::move(options));
  }
  context->install_hooks(obs_hooks);
  pipeline::CorpusPipeline pipeline(context, context->CreateSession());

  if (!import_map.empty()) {
    std::string error;
    const auto text = util::ReadFileFully(import_map, &error);
    if (!text) {
      std::cerr << error << "\n";
      return 1;
    }
    pipeline.ip_anonymizer().ImportMappings(std::string_view(*text));
  }

  const std::vector<config::ConfigFile> anonymized =
      pipeline.AnonymizeCorpus(files);

  if (out_dir.empty()) {
    for (const auto& file : anonymized) {
      std::cout << "! ===== " << file.name() << " =====\n" << file.ToText();
    }
  } else {
    obs::PhaseProfiler::ScopedPhase phase(obs_hooks.profiler, nullptr,
                                          "emit");
    std::filesystem::create_directories(out_dir);
    for (const auto& file : anonymized) {
      const auto path = std::filesystem::path(out_dir) / (file.name() + ".cfg");
      std::string error;
      if (!writer.Open(path.string(), &error)) {
        std::cerr << error << "\n";
        return 1;
      }
      file.AppendTo(writer);
      if (!writer.Close()) {
        std::cerr << writer.error() << "\n";
        return 1;
      }
    }
    std::cerr << "wrote " << anonymized.size() << " files to " << out_dir
              << "\n";
  }

  if (options.defense.k > 1) {
    std::cerr << pipeline.defense_report().ToString() << "\n";
  }
  if (!decoy_manifest_out.empty()) {
    std::ofstream out(decoy_manifest_out, std::ios::trunc);
    out << pipeline.decoy_manifest().Serialize();
    if (!out) {
      std::cerr << "cannot write decoy manifest " << decoy_manifest_out
                << "\n";
      return 1;
    }
  }
  if (!export_map.empty()) {
    std::ofstream out(export_map);
    pipeline.ip_anonymizer().ExportMappings(out);
    if (!out) {
      std::cerr << "cannot write mapping " << export_map << "\n";
      return 1;
    }
  }
  if (!entities_out.empty()) {
    std::ofstream out(entities_out);
    pipeline.ExportKnownEntities(out);
    if (!out) {
      std::cerr << "cannot write entities " << entities_out << "\n";
      return 1;
    }
  }
  if (report) {
    std::cerr << pipeline.report().ToString();
  }
  finish_observability();
  if (check_leaks) {
    const auto findings =
        core::LeakDetector::Scan(anonymized, pipeline.leak_record());
    std::cerr << "leak findings: " << findings.size() << "\n";
    for (const auto& finding : findings) {
      std::cerr << "  " << finding.file << ":" << finding.line_number + 1
                << " [" << finding.matched << "] " << finding.line << "\n";
    }
    return findings.empty() ? 0 : 3;
  }
  return 0;
}
