// Committed goldens for the rule accounting of the three golden networks
// (tests/data/golden/pre-{ios,junos,mixed}), anonymized by the corpus
// pipeline at one thread under salt "golden-salt":
//
//   * <mode>.report.json — AnonymizationReport::ToJson() of the run;
//   * <mode>.provenance.jsonl — the provenance log of a run with only a
//     provenance log installed;
//   * <mode>.counters.txt — the "rule.*" and "junos.rule.*" counters of a
//     run with only a metrics registry installed, one "name value" line
//     each, sorted by name.
//
// The per-file outputs are pinned by test_golden_roundtrip; these pin
// which rule fired how often and on which line. On a mismatch the actual
// text is written to <testing::TempDir()>/rule_golden.<file>.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/document.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "pipeline/pipeline.h"
#include "util/io.h"

namespace confanon {
namespace {

std::filesystem::path DataDir() {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR);
}

std::vector<config::ConfigFile> LoadCorpus(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<config::ConfigFile> files;
  for (const auto& path : paths) {
    std::string error;
    const auto text = util::ReadFileFully(path.string(), &error);
    EXPECT_TRUE(text.has_value()) << error;
    files.push_back(
        config::ConfigFile::FromText(path.filename().string(), *text));
  }
  return files;
}

/// One pipeline run over `inputs` with `hooks` installed.
core::AnonymizationReport Run(const std::vector<config::ConfigFile>& inputs,
                              const obs::Hooks& hooks) {
  core::ServiceOptions options;
  options.base.salt = "golden-salt";
  options.threads = 1;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  pipeline::CorpusPipeline pipeline(context, context->CreateSession());
  pipeline.install_hooks(hooks);
  const auto output = pipeline.AnonymizeCorpus(inputs);
  EXPECT_EQ(output.size(), inputs.size());
  return pipeline.report();
}

void ExpectGolden(const std::string& file, const std::string& actual) {
  const std::filesystem::path golden = DataDir() / "rule_golden" / file;
  std::string error;
  const auto expected = util::ReadFileFully(golden.string(), &error);
  if (!expected.has_value() || *expected != actual) {
    std::ofstream(std::filesystem::path(testing::TempDir()) /
                  ("rule_golden." + file))
        << actual;
  }
  ASSERT_TRUE(expected.has_value()) << error;
  EXPECT_EQ(actual, *expected) << "drift vs " << golden.string();
}

void CheckRuleGolden(const std::string& mode) {
  SCOPED_TRACE("mode=" + mode);
  const auto inputs = LoadCorpus(DataDir() / "golden" / ("pre-" + mode));
  ASSERT_FALSE(inputs.empty());

  obs::MetricsRegistry registry;
  const core::AnonymizationReport report =
      Run(inputs, obs::Hooks{.metrics = &registry});
  ExpectGolden(mode + ".report.json", report.ToJson() + "\n");

  std::string counters;
  for (const auto& [name, value] : registry.Snapshot().counters) {
    if (name.starts_with("rule.") || name.starts_with("junos.rule.")) {
      counters += name + " " + std::to_string(value) + "\n";
    }
  }
  ExpectGolden(mode + ".counters.txt", counters);

  obs::ProvenanceLog provenance;
  const core::AnonymizationReport traced =
      Run(inputs, obs::Hooks{.provenance = &provenance});
  EXPECT_EQ(traced.ToJson(), report.ToJson());
  std::ostringstream jsonl;
  provenance.WriteJsonl(jsonl);
  ExpectGolden(mode + ".provenance.jsonl", jsonl.str());
}

TEST(RuleGolden, Ios) { CheckRuleGolden("ios"); }
TEST(RuleGolden, Junos) { CheckRuleGolden("junos"); }
TEST(RuleGolden, Mixed) { CheckRuleGolden("mixed"); }

}  // namespace
}  // namespace confanon
