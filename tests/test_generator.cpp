#include "gen/network_gen.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/characteristics.h"
#include "config/tokenizer.h"
#include "gen/config_writer.h"
#include "gen/names.h"
#include "passlist/passlist.h"
#include "util/strings.h"

namespace confanon::gen {
namespace {

GeneratorParams Params(int routers, std::uint64_t seed = 11) {
  GeneratorParams params;
  params.router_count = routers;
  params.seed = seed;
  return params;
}

TEST(Generator, Deterministic) {
  const NetworkSpec a = GenerateNetwork(Params(20), 0);
  const NetworkSpec b = GenerateNetwork(Params(20), 0);
  ASSERT_EQ(a.routers.size(), b.routers.size());
  const auto configs_a = WriteNetworkConfigs(a);
  const auto configs_b = WriteNetworkConfigs(b);
  for (std::size_t i = 0; i < configs_a.size(); ++i) {
    EXPECT_EQ(configs_a[i].ToText(), configs_b[i].ToText());
  }
}

TEST(Generator, DistinctIndicesDiffer) {
  const NetworkSpec a = GenerateNetwork(Params(20), 0);
  const NetworkSpec b = GenerateNetwork(Params(20), 1);
  EXPECT_NE(a.name, b.name);
  EXPECT_NE(a.asn, b.asn);
}

TEST(Generator, TruthMatchesSpec) {
  const NetworkSpec network = GenerateNetwork(Params(30), 3);
  EXPECT_EQ(network.truth.router_count, network.routers.size());
  std::size_t interfaces = 0, speakers = 0, ebgp = 0;
  for (const RouterSpec& router : network.routers) {
    interfaces += router.interfaces.size();
    if (router.bgp.has_value()) {
      ++speakers;
      for (const auto& neighbor : router.bgp->neighbors) {
        if (neighbor.external) ++ebgp;
      }
    }
  }
  EXPECT_EQ(network.truth.interface_count, interfaces);
  EXPECT_EQ(network.truth.bgp_speaker_count, speakers);
  EXPECT_EQ(network.truth.ebgp_session_count, ebgp);
}

TEST(Generator, TruthMatchesExtractedCharacteristics) {
  // The configs must faithfully render the spec: re-extract counts from
  // the text and compare with ground truth.
  const NetworkSpec network = GenerateNetwork(Params(25), 5);
  const auto configs = WriteNetworkConfigs(network);
  const analysis::NetworkCharacteristics stats =
      analysis::ExtractCharacteristics(configs);
  EXPECT_EQ(stats.router_count, network.truth.router_count);
  EXPECT_EQ(stats.interface_count, network.truth.interface_count);
  EXPECT_EQ(stats.bgp_speaker_count, network.truth.bgp_speaker_count);
  EXPECT_EQ(stats.ebgp_session_count, network.truth.ebgp_session_count);
}

TEST(Generator, EveryLinkSubnetHasTwoEnds) {
  const NetworkSpec network = GenerateNetwork(Params(30), 7);
  // Interfaces on eBGP peering links (the far side lives in the peer's
  // network) and customer-aggregation tails are excluded: only internal
  // /30s must pair up.
  std::set<std::uint32_t> external_bases;
  for (const RouterSpec& router : network.routers) {
    if (!router.bgp.has_value()) continue;
    for (const auto& neighbor : router.bgp->neighbors) {
      if (neighbor.external) {
        external_bases.insert(neighbor.address.value() & ~3u);
      }
    }
  }
  std::map<std::uint32_t, int> ends;  // /30 base -> count
  for (const RouterSpec& router : network.routers) {
    for (const InterfaceSpec& iface : router.interfaces) {
      if (iface.prefix_length != 30) continue;
      const std::uint32_t base = iface.address.value() & ~3u;
      if (external_bases.contains(base)) continue;
      if (iface.name.find('.') != std::string::npos) continue;  // customer
      ends[base]++;
    }
  }
  for (const auto& [base, count] : ends) {
    EXPECT_EQ(count, 2) << net::Ipv4Address(base).ToString();
  }
}

TEST(Generator, HostnamesAreUniquePerNetwork) {
  // 600 routers make 75 POPs, more than there are city codes, so POPs
  // share a city.
  const NetworkSpec network = GenerateNetwork(Params(600), 11);
  ASSERT_EQ(network.routers.size(), 600u);
  std::set<std::string> seen;
  for (const RouterSpec& router : network.routers) {
    EXPECT_TRUE(seen.insert(router.hostname).second)
        << router.hostname << " duplicated";
  }
}

TEST(Generator, AddressesAreUniquePerNetwork) {
  const NetworkSpec network = GenerateNetwork(Params(40), 9);
  std::set<std::uint32_t> seen;
  for (const RouterSpec& router : network.routers) {
    for (const InterfaceSpec& iface : router.interfaces) {
      EXPECT_TRUE(seen.insert(iface.address.value()).second)
          << iface.address.ToString() << " duplicated";
    }
  }
}

TEST(Generator, CommandKeywordsAllPassListed) {
  // Every alphabetic first word of a command must be on the pass-list —
  // otherwise anonymization would destroy command structure and the
  // validation suites would fail for a spurious reason.
  const passlist::PassList list = passlist::PassList::Builtin();
  const NetworkSpec network = GenerateNetwork(Params(30), 13);
  const auto configs = WriteNetworkConfigs(network);
  std::set<std::string> missing;
  for (const auto& file : configs) {
    bool in_banner = false;
    for (const std::string_view line : file.lines()) {
      const auto split = config::SplitConfigLine(line);
      if (split.words.empty()) continue;
      const std::string first = util::ToLower(split.words[0]);
      if (first == "banner") {
        in_banner = true;
        continue;
      }
      if (in_banner) {
        if (line.find('^') != std::string::npos) in_banner = false;
        continue;
      }
      if (first == "!" || first == "description") continue;
      for (const config::Segment& segment :
           config::SegmentWord(split.words[0])) {
        if (segment.alpha && !list.Contains(segment.text)) {
          missing.insert(std::string(segment.text));
        }
      }
    }
  }
  EXPECT_TRUE(missing.empty()) << "missing keywords: " << [&] {
    std::string all;
    for (const auto& word : missing) all += word + " ";
    return all;
  }();
}

TEST(Generator, PlantsIdentityLeaks) {
  const NetworkSpec network = GenerateNetwork(Params(30), 15);
  const auto configs = WriteNetworkConfigs(network);
  bool company_somewhere = false;
  for (const auto& file : configs) {
    if (file.ToText().find(network.name) != std::string::npos) {
      company_somewhere = true;
      break;
    }
  }
  EXPECT_TRUE(company_somewhere);
}

TEST(Generator, EnterpriseUsesPrivateSpace) {
  GeneratorParams params = Params(15, 21);
  params.profile = NetworkProfile::kEnterprise;
  const NetworkSpec network = GenerateNetwork(params, 0);
  std::size_t in_ten = 0, total = 0;
  for (const RouterSpec& router : network.routers) {
    for (const InterfaceSpec& iface : router.interfaces) {
      ++total;
      if (iface.address.Octet(0) == 10) ++in_ten;
    }
  }
  // Most interfaces live in 10/8 (eBGP peering links are public space).
  EXPECT_GT(in_ten * 10, total * 8);
}

TEST(Generator, RegexFeatureRatesRoughlyMatchPaper) {
  // Over many networks the planted rates approach the paper's 31-network
  // observations (2/31 public ranges, 10/31 alternation, 5/31 community).
  GeneratorParams params = Params(6, 23);
  int range = 0, alternation = 0, community = 0, compartmentalized = 0;
  const int population = 310;
  for (int i = 0; i < population; ++i) {
    const NetworkSpec network = GenerateNetwork(params, i);
    range += network.truth.uses_asn_range_regex;
    alternation += network.truth.uses_asn_alternation_regex;
    community += network.truth.uses_community_regex;
    compartmentalized += network.truth.compartmentalization !=
                         Compartmentalization::kNone;
  }
  EXPECT_NEAR(range / 10.0, 2.0, 1.5);
  EXPECT_NEAR(alternation / 10.0, 10.0, 3.0);
  EXPECT_NEAR(community / 10.0, 5.0, 2.5);
  EXPECT_NEAR(compartmentalized / 10.0, 10.0, 3.0);
}

TEST(Generator, CorpusSizesSkewed) {
  const auto corpus = GenerateCorpus(Params(0, 27), 10, 400);
  ASSERT_EQ(corpus.size(), 10u);
  std::size_t total = 0;
  for (const auto& network : corpus) total += network.routers.size();
  EXPECT_GT(total, 200u);
  EXPECT_GT(corpus.front().routers.size(), corpus.back().routers.size());
}

TEST(Names, PeerIspsCoverPaperExamples) {
  bool uunet = false, genuity = false;
  for (const PeerIsp& peer : PeerIsps()) {
    if (peer.name == "uunet") {
      uunet = true;
      EXPECT_EQ(peer.asn, 701u);
      EXPECT_EQ(peer.extra_asns.size(), 4u);  // 702-705
    }
    if (peer.name == "genuity") {
      genuity = true;
      EXPECT_EQ(peer.asn, 1u);
    }
  }
  EXPECT_TRUE(uunet);
  EXPECT_TRUE(genuity);
}

}  // namespace
}  // namespace confanon::gen
