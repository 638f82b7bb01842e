// VAL1 + VAL2 — the paper's Section 5 validation, run over a 31-network
// corpus:
//   suite 1: independent characteristics (# BGP speakers, # interfaces,
//            subnet-size structure, ...) must be identical pre/post;
//   suite 2: the reverse-engineered routing design must be identical
//            pre/post (exactly, once the pre design is pushed through the
//            anonymization maps).
// The paper reports these suites passing on its carrier corpus; the
// reproduction target is 31/31 networks passing both suites.
#include <cstdio>

#include "analysis/validate.h"
#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/validate.h"
#include "junos/writer.h"

int main() {
  using namespace confanon;

  gen::GeneratorParams params;
  params.seed = 555;
  const int network_count = 31;
  const auto corpus = gen::GenerateCorpus(params, network_count, 760);

  int suite1_pass = 0, suite2_pass = 0, structural_pass = 0, clean = 0;
  std::size_t total_routers = 0;
  for (int i = 0; i < network_count; ++i) {
    const auto pre = gen::WriteNetworkConfigs(corpus[static_cast<std::size_t>(i)]);
    total_routers += pre.size();

    core::AnonymizerOptions options;
    options.salt = "val-" + std::to_string(i);
    options.regex_form = (i % 2 == 0) ? asn::RewriteForm::kAlternation
                                      : asn::RewriteForm::kMinimizedDfa;
    core::Anonymizer anonymizer(std::move(options));
    const auto post = anonymizer.AnonymizeNetwork(pre);

    const analysis::ValidationResult result =
        analysis::ValidateNetwork(pre, post, anonymizer);
    suite1_pass += result.characteristics_match;
    suite2_pass += result.design_match;
    structural_pass += result.structural_match;
    if (!result.characteristics_match && !result.characteristics_diffs.empty()) {
      std::printf("  network %d suite1 diff: %s\n", i,
                  result.characteristics_diffs[0].c_str());
    }
    if (!result.design_match && !result.design_diffs.empty()) {
      std::printf("  network %d suite2 diff: %s\n", i,
                  result.design_diffs[0].c_str());
    }

    // Textual leak check rides along (Section 6.1): no hashed word may
    // survive. Numeric findings (ASNs, addresses) can be grep false
    // positives — an anonymized value coinciding with some recorded
    // original (the paper's Genuity AS-1 effect, or a mapped address
    // landing on a recorded one). Those are adjudicated: a number finding
    // is a false positive iff the matched text is the map-image of a
    // recorded original.
    bool textual_leak = false;
    for (const auto& finding :
         core::LeakDetector::Scan(post, anonymizer.leak_record())) {
      if (finding.kind == core::LeakFinding::Kind::kHashedWord) {
        textual_leak = true;
        std::printf("  network %d leaked word: %s\n", i,
                    finding.matched.c_str());
      } else if (finding.kind == core::LeakFinding::Kind::kAddress) {
        const auto matched = net::Ipv4Address::Parse(finding.matched);
        bool coincidence = false;
        if (matched) {
          for (const auto& original : anonymizer.leak_record().addresses) {
            const auto parsed = net::Ipv4Address::Parse(original);
            if (parsed && anonymizer.ip_anonymizer().Map(*parsed) == *matched) {
              coincidence = true;
              break;
            }
          }
        }
        if (!coincidence) {
          textual_leak = true;
          std::printf("  network %d leaked address: %s\n", i,
                      finding.matched.c_str());
        }
      }
    }
    clean += !textual_leak;
  }

  std::printf("== VAL: validation suites (paper Section 5) ==\n");
  std::printf("corpus: %d networks, %zu routers\n\n", network_count,
              total_routers);
  std::printf("%-46s %8s %10s\n", "suite", "paper", "measured");
  std::printf("%-46s %8s %6d/%d\n",
              "suite 1: independent characteristics equal", "pass",
              suite1_pass, network_count);
  std::printf("%-46s %8s %6d/%d\n",
              "suite 2: routing design equal (under maps)", "pass",
              suite2_pass, network_count);
  std::printf("%-46s %8s %6d/%d\n",
              "suite 2b: structural projection equal", "pass",
              structural_pass, network_count);
  std::printf("%-46s %8s %6d/%d\n", "no textual identifier survives",
              "pass", clean, network_count);

  // --- the same validation over JunOS renderings (the paper's
  // portability claim, Section 1 footnote 2) ---
  int junos_pass = 0;
  const int junos_count = 10;
  for (int i = 0; i < junos_count; ++i) {
    const auto pre =
        junos::WriteJunosNetworkConfigs(corpus[static_cast<std::size_t>(i)]);
    core::AnonymizerOptions options;
    options.salt = "junos-val-" + std::to_string(i);
    junos::JunosAnonymizer anonymizer(std::move(options));
    const auto post = anonymizer.AnonymizeNetwork(pre);
    const analysis::ValidationResult result =
        junos::ValidateJunosNetwork(pre, post, anonymizer);
    junos_pass += result.design_match && result.structural_match;
    if (!result.design_match && !result.design_diffs.empty()) {
      std::printf("  junos network %d diff: %s\n", i,
                  result.design_diffs[0].c_str());
    }
  }
  std::printf("%-46s %8s %6d/%d\n",
              "suite 2 over JunOS renderings", "implied", junos_pass,
              junos_count);

  const bool reproduced = suite1_pass == network_count &&
                          suite2_pass == network_count &&
                          structural_pass == network_count &&
                          clean == network_count &&
                          junos_pass == junos_count;
  std::printf("\nresult: %s\n", reproduced ? "REPRODUCED" : "MISMATCH");
  return reproduced ? 0 : 1;
}
