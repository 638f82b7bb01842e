// Map-free static audit driver.
//
// Two modes, both requiring nothing but config text (paper Section 5's
// third-party "colleague" scenario — no anonymizer instance, no maps, no
// salt):
//
//  - LintCorpus: residue lint over one corpus (rules AUD-R001..R007).
//    Run it over anonymizer OUTPUT; error-severity findings mean
//    identity-bearing residue survived.
//  - ComparePair: structural isomorphism check between an original
//    corpus and its anonymized counterpart (rules AUD-P001..P006). Files
//    are paired by canonical shape hash (output file names are hashed,
//    so name-based pairing is impossible by design); renamed tokens are
//    checked through corpus-wide per-class bimaps; the def/use reference
//    graphs and the prefix-containment lattice must match edge for edge.
//
// Per-file scanning fans out over the pipeline worker pool; corpus-level
// analysis (pairing, bimaps, symbol table, lattice) is sequential.
#pragma once

#include <vector>

#include "audit/finding.h"
#include "config/document.h"
#include "core/session.h"
#include "defense/manifest.h"
#include "obs/metrics.h"

namespace confanon::obs {
class PhaseProfiler;
}

namespace confanon::audit {

struct AuditOptions {
  /// Worker threads for per-file scanning; <= 0 means one per core.
  int threads = 0;
  /// Rule pack per file; kAuto detects it per file (core::DetectDialect).
  core::ConfigDialect dialect = core::ConfigDialect::kAuto;
  /// Optional metrics sink (audit.files, audit.findings, audit.scan_ns).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional phase profiler: the per-file parallel scan is bracketed as
  /// the "audit" phase (see obs/profiler.h).
  obs::PhaseProfiler* profiler = nullptr;
};

/// Residue lint over a single corpus.
AuditResult LintCorpus(const std::vector<config::ConfigFile>& files,
                       const AuditOptions& options = {});

/// Pre/post isomorphism check. `post` file names should have tool
/// suffixes (".cfg") already stripped by the caller.
AuditResult ComparePair(const std::vector<config::ConfigFile>& pre,
                        const std::vector<config::ConfigFile>& post,
                        const AuditOptions& options = {});

/// Decoy-aware pair check for corpora run through the fingerprint
/// defense (src/defense): validates `manifest` against `post`
/// (AUD-D002 on a missing file, an out-of-bounds or overlapping
/// region), proves no decoy prefix shadows — contains or is contained
/// by — any real subnet of the stripped corpus (AUD-D001), then strips
/// the flagged decoy regions and runs the ordinary ComparePair, so the
/// ORIGINAL structure must still be isomorphic to `pre`.
AuditResult ComparePairDefended(const std::vector<config::ConfigFile>& pre,
                                const std::vector<config::ConfigFile>& post,
                                const defense::DecoyManifest& manifest,
                                const AuditOptions& options = {});

/// Rule ids for pair mode.
inline constexpr const char* kRuleUnpairedFile = "AUD-P001";
inline constexpr const char* kRuleShapeDivergence = "AUD-P002";
inline constexpr const char* kRuleRenameConflict = "AUD-P003";
inline constexpr const char* kRuleRefGraphDivergence = "AUD-P004";
inline constexpr const char* kRuleIdentitySurvived = "AUD-P005";
inline constexpr const char* kRuleLatticeDivergence = "AUD-P006";

/// Rule ids for decoy-aware pair mode.
inline constexpr const char* kRuleDecoyShadowsReal = "AUD-D001";
inline constexpr const char* kRuleDecoyManifestMismatch = "AUD-D002";

}  // namespace confanon::audit
