// Committed-golden byte identity for the full ingest -> anonymize ->
// egress path. tests/data/golden/ holds three small gen_corpus networks
// (IOS, JunOS, mixed) plus the anonymized output the CLI produced for
// them under salt "golden-salt" before the zero-copy I/O rework. The
// current pipeline must reproduce those bytes exactly at 1 and 4
// threads: any drift in the splitter, the engines, or the renderer shows
// up here as a byte diff, not a statistics change. Each run happens twice:
// with no hooks (the engines' plain per-line path) and with metrics,
// trace, provenance and the phase profiler installed (the observed path,
// where provenance makes the engines flush the hash batcher every line).
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/document.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "util/io.h"

namespace confanon {
namespace {

std::filesystem::path GoldenDir(const std::string& leaf) {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR) / "golden" / leaf;
}

/// Loads every .cfg in `dir` (sorted by filename, matching the shell
/// glob order the golden CLI run used) through the zero-copy reader.
std::vector<config::ConfigFile> LoadCorpus(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<config::ConfigFile> files;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::string error;
    auto contents = util::ReadFileContents(path.string(), &error);
    EXPECT_TRUE(contents.has_value()) << error;
    files.push_back(config::ConfigFile::FromBacking(
        path.filename().string(), contents->view,
        std::move(contents->backing)));
  }
  return files;
}

void CheckGolden(const std::string& mode, int threads) {
  SCOPED_TRACE("mode=" + mode + " threads=" + std::to_string(threads));
  const std::vector<config::ConfigFile> inputs =
      LoadCorpus(GoldenDir("pre-" + mode));
  ASSERT_FALSE(inputs.empty());

  const std::filesystem::path post = GoldenDir("post-" + mode);
  std::size_t expected_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(post)) {
    (void)entry;
    ++expected_files;
  }

  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "hooks=metrics,trace,provenance,profiler"
                          : "hooks=none");
    core::ServiceOptions options;
    options.base.salt = "golden-salt";
    options.threads = threads;
    const auto context = pipeline::MakeServiceContext(std::move(options));
    pipeline::CorpusPipeline pipeline(context, context->CreateSession());

    obs::MetricsRegistry registry;
    std::ostringstream trace_stream;
    obs::JsonlTraceSink trace(trace_stream);
    obs::ProvenanceLog provenance;
    obs::PhaseProfiler profiler({.enable_perf_counters = false});
    if (observed) {
      pipeline.install_hooks(
          obs::Hooks{&registry, &trace, &provenance, &profiler});
    }
    const std::vector<config::ConfigFile> output =
        pipeline.AnonymizeCorpus(inputs);
    trace.Close();
    ASSERT_EQ(output.size(), inputs.size());
    ASSERT_EQ(output.size(), expected_files);
    // The hooks really were on the per-line path.
    EXPECT_EQ(provenance.empty(), !observed);
    EXPECT_EQ(trace.event_count() == 0, !observed);

    for (const auto& file : output) {
      const std::filesystem::path golden = post / (file.name() + ".cfg");
      std::string error;
      const auto expected = util::ReadFileFully(golden.string(), &error);
      ASSERT_TRUE(expected.has_value())
          << "no golden for output " << file.name() << ": " << error;
      EXPECT_EQ(file.ToText(), *expected)
          << "byte drift vs " << golden.string();
    }
  }
}

TEST(GoldenRoundTrip, IosSequential) { CheckGolden("ios", 1); }
TEST(GoldenRoundTrip, IosParallel) { CheckGolden("ios", 4); }
TEST(GoldenRoundTrip, JunosSequential) { CheckGolden("junos", 1); }
TEST(GoldenRoundTrip, JunosParallel) { CheckGolden("junos", 4); }
TEST(GoldenRoundTrip, MixedSequential) { CheckGolden("mixed", 1); }
TEST(GoldenRoundTrip, MixedParallel) { CheckGolden("mixed", 4); }

}  // namespace
}  // namespace confanon
