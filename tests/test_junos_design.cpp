// Tests for the JunOS design extractor and the JunOS validation suite.
#include <gtest/gtest.h>

#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/design_extract.h"
#include "junos/validate.h"
#include "junos/writer.h"

namespace confanon::junos {
namespace {

config::ConfigFile File(std::string name, std::string_view text) {
  return config::ConfigFile::FromText(std::move(name), text);
}

const char* kJunosRouter1 = R"(system {
    host-name r1;
}
interfaces {
    lo0 {
        unit 0 {
            family inet {
                address 10.0.255.1/32;
            }
        }
    }
    so-0/0 {
        unit 0 {
            family inet {
                address 10.0.0.1/30;
            }
        }
    }
    so-0/9 {
        unit 0 {
            family inet {
                address 6.6.6.1/30;
            }
        }
    }
    ge-0/1 {
        unit 5 {
            family inet {
                address 10.1.0.1/24;
            }
        }
    }
}
routing-options {
    autonomous-system 2001;
}
protocols {
    ospf {
        area 0 {
            interface lo0;
            interface so-0/0;
        }
    }
    bgp {
        group internal-mesh {
            type internal;
            neighbor 10.0.255.2;
        }
        group ext-peer {
            type external;
            peer-as 701;
            import PEER-in;
            export PEER-out;
            neighbor 6.6.6.2;
        }
    }
}
policy-options {
    prefix-list CUST {
        10.1.0.0/24;
    }
    policy-statement PEER-in {
        term t10 {
            from {
                as-path aspath-50;
            }
            then {
                reject;
            }
        }
        term t20 {
            from {
                community comm-100;
            }
            then {
                accept;
            }
        }
    }
    policy-statement PEER-out {
        term t10 {
            from {
                prefix-list CUST;
            }
            then {
                accept;
            }
        }
    }
}
)";

const char* kJunosRouter2 = R"(system {
    host-name r2;
}
interfaces {
    lo0 {
        unit 0 {
            family inet {
                address 10.0.255.2/32;
            }
        }
    }
    so-1/0 {
        unit 0 {
            family inet {
                address 10.0.0.2/30;
            }
        }
    }
}
routing-options {
    autonomous-system 2001;
}
protocols {
    bgp {
        group internal-mesh {
            type internal;
            neighbor 10.0.255.1;
        }
    }
}
)";

std::vector<config::ConfigFile> TwoRouters() {
  return {File("r1", kJunosRouter1), File("r2", kJunosRouter2)};
}

TEST(JunosDesign, InterfacesWithUnits) {
  const auto design = ExtractJunosDesign(TwoRouters());
  const auto& r1 = design.routers[0];
  ASSERT_EQ(r1.hostname, "r1");
  ASSERT_EQ(r1.interfaces.size(), 4u);
  // Sorted by name: ge-0/1.5, lo0, so-0/0, so-0/9.
  EXPECT_EQ(r1.interfaces[0].name, "ge-0/1.5");
  EXPECT_EQ(r1.interfaces[0].subnet.ToString(), "10.1.0.0/24");
  EXPECT_EQ(r1.interfaces[1].name, "lo0");
  EXPECT_EQ(r1.interfaces[2].name, "so-0/0");
  EXPECT_EQ(r1.interfaces[2].address.ToString(), "10.0.0.1");
  EXPECT_EQ(r1.interfaces[3].name, "so-0/9");
}

TEST(JunosDesign, OspfAreasAndCoverage) {
  const auto design = ExtractJunosDesign(TwoRouters());
  const auto& r1 = design.routers[0];
  ASSERT_EQ(r1.processes.size(), 1u);
  EXPECT_EQ(r1.processes[0].protocol, "ospf");
  EXPECT_EQ(r1.processes[0].ospf_areas, (std::vector<int>{0}));
  EXPECT_EQ(r1.processes[0].covered_interfaces,
            (std::vector<std::string>{"lo0", "so-0/0"}));
}

TEST(JunosDesign, BgpGroupsAndNeighbors) {
  const auto design = ExtractJunosDesign(TwoRouters());
  const auto& r1 = design.routers[0];
  ASSERT_TRUE(r1.bgp_asn.has_value());
  EXPECT_EQ(*r1.bgp_asn, 2001u);
  ASSERT_EQ(r1.bgp_neighbors.size(), 2u);
  EXPECT_TRUE(r1.bgp_neighbors[0].external);
  EXPECT_EQ(r1.bgp_neighbors[0].remote_asn, 701u);
  EXPECT_EQ(r1.bgp_neighbors[0].import_map, "PEER-in");
  EXPECT_EQ(r1.bgp_neighbors[0].export_map, "PEER-out");
  EXPECT_FALSE(r1.bgp_neighbors[1].external);
  EXPECT_EQ(r1.bgp_neighbors[1].remote_asn, 2001u);
}

TEST(JunosDesign, LinksAndSessions) {
  const auto design = ExtractJunosDesign(TwoRouters());
  ASSERT_EQ(design.links.size(), 1u);
  EXPECT_EQ(design.links[0].subnet.ToString(), "10.0.0.0/30");
  EXPECT_EQ(design.links[0].interface_a, "so-0/0");
  EXPECT_EQ(design.links[0].interface_b, "so-1/0");
  // Sessions: one internal symmetric (loopbacks), one external. The
  // external session sorts first (its router_b is empty).
  ASSERT_EQ(design.bgp_sessions.size(), 2u);
  EXPECT_TRUE(design.bgp_sessions[0].external);
  EXPECT_EQ(design.bgp_sessions[0].external_peer.ToString(), "6.6.6.2");
  EXPECT_FALSE(design.bgp_sessions[1].external);
  EXPECT_TRUE(design.bgp_sessions[1].symmetric);
}

TEST(JunosDesign, PolicyTermsAndReferences) {
  const auto design = ExtractJunosDesign(TwoRouters());
  const auto& r1 = design.routers[0];
  const auto& in_clauses = r1.route_maps.at("PEER-in");
  ASSERT_EQ(in_clauses.size(), 2u);
  EXPECT_FALSE(in_clauses[0].permit);
  EXPECT_EQ(in_clauses[0].sequence, 10);
  EXPECT_EQ(in_clauses[0].references,
            (std::vector<std::pair<std::string, std::string>>{
                {"as-path", "aspath-50"}}));
  EXPECT_TRUE(in_clauses[1].permit);
  EXPECT_EQ(in_clauses[1].references,
            (std::vector<std::pair<std::string, std::string>>{
                {"community", "comm-100"}}));
  const auto& out_clauses = r1.route_maps.at("PEER-out");
  EXPECT_EQ(out_clauses[0].references,
            (std::vector<std::pair<std::string, std::string>>{
                {"prefix-list", "CUST"}}));
  ASSERT_TRUE(r1.prefix_lists.contains("CUST"));
  EXPECT_EQ(r1.prefix_lists.at("CUST")[0].prefix.ToString(), "10.1.0.0/24");
}

TEST(JunosDesign, GeneratedNetworkRoundTrip) {
  // The writer and the extractor must agree on structure: links recovered
  // from a generated JunOS corpus match the generator's topology counts.
  gen::GeneratorParams params;
  params.seed = 31;
  params.router_count = 14;
  const auto network = gen::GenerateNetwork(params, 0);
  const auto configs = WriteJunosNetworkConfigs(network);
  const auto design = ExtractJunosDesign(configs);
  EXPECT_EQ(design.routers.size(), network.routers.size());
  std::size_t speakers = 0;
  for (const auto& router : design.routers) {
    speakers += router.bgp_asn.has_value();
  }
  EXPECT_EQ(speakers, network.truth.bgp_speaker_count);
  EXPECT_FALSE(design.links.empty());
}

class JunosValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JunosValidation, DesignSurvivesAnonymization) {
  gen::GeneratorParams params;
  params.seed = GetParam();
  params.router_count = 12 + static_cast<int>(GetParam() % 3) * 6;
  if (GetParam() % 2 == 0) {
    params.p_alternation_regex = 1.0;
    params.p_community_regex = 1.0;
  }
  const auto network = gen::GenerateNetwork(params, 0);
  const auto pre = WriteJunosNetworkConfigs(network);

  core::AnonymizerOptions options;
  options.salt = "junos-val-" + std::to_string(GetParam());
  JunosAnonymizer anonymizer(std::move(options));
  const auto post = anonymizer.AnonymizeNetwork(pre);

  const analysis::ValidationResult result =
      ValidateJunosNetwork(pre, post, anonymizer);
  EXPECT_TRUE(result.design_match)
      << (result.design_diffs.empty() ? "" : result.design_diffs[0]);
  EXPECT_TRUE(result.structural_match)
      << (result.structural_diffs.empty() ? "" : result.structural_diffs[0]);
  EXPECT_TRUE(result.characteristics_match);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JunosValidation,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace confanon::junos
