// confanon_audit: map-free static audit of config corpora (docs/AUDIT.md)
// and static verification of anonymization policies (docs/VERIFY.md).
//
// Usage:
//   confanon_audit [options] DIR             residue lint of one corpus
//   confanon_audit --pre DIR --post DIR      pre/post isomorphism check
//   confanon_audit --policy [options]        static policy verification
//
// Options:
//   --threads N     worker threads for per-file scanning (0 = all cores)
//   --ios/--junos   force the dialect (default: per-file auto-detection)
//   --sarif FILE    also write the findings as SARIF 2.1.0
//   --metrics FILE  write the audit.*/verify.* metrics snapshot as JSON
//   --decoys FILE   pair mode only: the decoy manifest confanon_tool
//                   --decoy-manifest wrote; the flagged insertions are
//                   verified (no decoy shadows real space, AUD-D001) and
//                   stripped before the isomorphism check, so a defended
//                   corpus still proves its ORIGINAL structure intact
//
// Policy-mode options (see docs/VERIFY.md):
//   --passlist FILE additional pass-list entries, one token per line,
//                   merged onto both dialect baselines (the daemon's
//                   per-tenant shape)
//   --disable RULE  disable an anonymizer rule (repeatable; the verifier
//                   reports the uncovered value class)
//   --strict        also fail (exit 3) on warning findings
//
// Exit codes: 0 = clean, 1 = I/O error, 2 = usage error, 3 = audit found
// error-severity findings (or warnings under --strict). Warnings and
// notes otherwise never fail the run.
//
// The auditor holds no anonymizer state — no maps, no salt. A single
// trailing ".cfg" is stripped from loaded file names so corpus-internal
// names match what the anonymizer saw (confanon_tool appends ".cfg" when
// writing output to a directory).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/sarif.h"
#include "config/document.h"
#include "core/anonymizer.h"
#include "passlist/passlist.h"
#include "util/io.h"
#include "util/strings.h"
#include "obs/metrics.h"
#include "verify/verify.h"

namespace {

void Usage() {
  std::cerr << "usage: confanon_audit [--threads N] [--ios|--junos] "
               "[--sarif FILE] [--metrics FILE] DIR\n"
               "       confanon_audit --pre DIR --post DIR "
               "[--decoys FILE] [options]\n"
               "       confanon_audit --policy [--passlist FILE] "
               "[--disable RULE] [--strict] [options]\n";
}

/// Loads one token per line (blank lines and '#' comments skipped) into
/// an extra pass-list, the same shape the daemon accepts per tenant.
bool LoadPassListFile(const std::string& path,
                      confanon::passlist::PassList& out) {
  std::string error;
  const auto text = confanon::util::ReadFileFully(path, &error);
  if (!text) {
    std::cerr << "confanon_audit: " << error << "\n";
    return false;
  }
  std::string_view rest = *text;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    const auto token = confanon::util::Trim(line);
    if (token.empty() || token.front() == '#') continue;
    out.Add(token);
  }
  return true;
}

std::string StripCfgSuffix(std::string name) {
  const std::string suffix = ".cfg";
  if (name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    name.resize(name.size() - suffix.size());
  }
  return name;
}

bool LoadCorpus(const std::string& dir,
                std::vector<confanon::config::ConfigFile>& out) {
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "confanon_audit: cannot read " << dir << ": " << ec.message()
              << "\n";
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::string error;
    auto contents = confanon::util::ReadFileContents(path.string(), &error);
    if (!contents) {
      std::cerr << "confanon_audit: " << error << "\n";
      return false;
    }
    out.push_back(confanon::config::ConfigFile::FromBacking(
        StripCfgSuffix(path.filename().string()), contents->view,
        std::move(contents->backing)));
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content,
               const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "confanon_audit: cannot write " << what << " to " << path
              << "\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string lint_dir;
  std::string pre_dir;
  std::string post_dir;
  std::string sarif_path;
  std::string metrics_path;
  std::string decoys_path;
  bool policy_mode = false;
  bool strict = false;
  confanon::audit::AuditOptions options;
  confanon::core::AnonymizerOptions policy_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pre") {
      pre_dir = next();
    } else if (arg == "--post") {
      post_dir = next();
    } else if (arg == "--threads") {
      options.threads = std::atoi(next());
    } else if (arg == "--ios") {
      options.dialect = confanon::core::ConfigDialect::kIos;
    } else if (arg == "--junos") {
      options.dialect = confanon::core::ConfigDialect::kJunos;
    } else if (arg == "--sarif") {
      sarif_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--decoys") {
      decoys_path = next();
    } else if (arg == "--policy") {
      policy_mode = true;
    } else if (arg == "--passlist") {
      if (!LoadPassListFile(next(), policy_options.extra_pass_list)) return 1;
    } else if (arg == "--disable") {
      policy_options.disabled_rules.insert(next());
    } else if (arg == "--strict") {
      strict = true;
    } else if (!arg.empty() && arg[0] == '-') {
      Usage();
      return 2;
    } else if (lint_dir.empty()) {
      lint_dir = arg;
    } else {
      Usage();
      return 2;
    }
  }
  const bool pair_mode = !pre_dir.empty() || !post_dir.empty();
  if (policy_mode && (pair_mode || !lint_dir.empty())) {
    Usage();
    return 2;
  }
  if (pair_mode && (pre_dir.empty() || post_dir.empty() || !lint_dir.empty())) {
    Usage();
    return 2;
  }
  if (!policy_mode && !pair_mode && lint_dir.empty()) {
    Usage();
    return 2;
  }
  if (!decoys_path.empty() && !pair_mode) {
    std::cerr << "confanon_audit: --decoys requires --pre/--post\n";
    return 2;
  }

  confanon::obs::MetricsRegistry metrics;
  options.metrics = &metrics;

  confanon::audit::AuditResult result;
  if (policy_mode) {
    result = confanon::verify::VerifyEngineOptions(policy_options);
    // Mirror the verifier's stats into the verify.* metrics family so
    // --metrics serves the same counters the daemon exposes.
    for (const auto& [name, value] : result.stats) {
      metrics.CounterNamed(name).Add(value);
    }
  } else if (pair_mode) {
    std::vector<confanon::config::ConfigFile> pre;
    std::vector<confanon::config::ConfigFile> post;
    if (!LoadCorpus(pre_dir, pre) || !LoadCorpus(post_dir, post)) return 1;
    if (decoys_path.empty()) {
      result = confanon::audit::ComparePair(pre, post, options);
    } else {
      std::string error;
      const auto text = confanon::util::ReadFileFully(decoys_path, &error);
      if (!text) {
        std::cerr << "confanon_audit: " << error << "\n";
        return 1;
      }
      const auto manifest = confanon::defense::DecoyManifest::Parse(*text);
      if (!manifest) {
        std::cerr << "confanon_audit: malformed decoy manifest "
                  << decoys_path << "\n";
        return 1;
      }
      result =
          confanon::audit::ComparePairDefended(pre, post, *manifest, options);
    }
  } else {
    std::vector<confanon::config::ConfigFile> files;
    if (!LoadCorpus(lint_dir, files)) return 1;
    result = confanon::audit::LintCorpus(files, options);
  }

  std::cout << result.ToText();
  if (!sarif_path.empty() &&
      !WriteFile(sarif_path, confanon::audit::ToSarif(result), "SARIF")) {
    return 1;
  }
  if (!metrics_path.empty() &&
      !WriteFile(metrics_path, metrics.Snapshot().ToJson(), "metrics")) {
    return 1;
  }
  if (result.HasErrors()) return 3;
  if (strict &&
      result.CountAtLeast(confanon::audit::Severity::kWarning) >
          result.ErrorCount()) {
    return 3;
  }
  return 0;
}
