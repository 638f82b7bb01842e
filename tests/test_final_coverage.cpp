// Final coverage batch: characteristics of the newer config objects,
// mid-line description stripping, JunOS writer naming hygiene, and the
// CLI-facing known-entity format corner cases.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/characteristics.h"
#include "core/anonymizer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "util/strings.h"

namespace confanon {
namespace {

config::ConfigFile File(std::string_view text) {
  return config::ConfigFile::FromText("r", text);
}

TEST(Characteristics, CountsPrefixListsAndStaticRoutes) {
  const auto configs = std::vector<config::ConfigFile>{File(R"(hostname r
ip prefix-list A seq 5 permit 10.0.0.0/24
ip prefix-list A seq 10 permit 10.0.1.0/24
ip route 10.9.0.0 255.255.0.0 10.0.0.2
ip route 10.8.0.0 255.255.0.0 10.0.0.2
ip route 10.7.0.0 255.255.0.0 10.0.0.2
)")};
  const analysis::NetworkCharacteristics stats =
      analysis::ExtractCharacteristics(configs);
  EXPECT_EQ(stats.prefix_list_entry_count, 2u);
  EXPECT_EQ(stats.static_route_count, 3u);
}

TEST(Characteristics, PreservedThroughAnonymizationForNewObjects) {
  core::AnonymizerOptions options;
  options.salt = "final-salt";
  core::Anonymizer anonymizer(std::move(options));
  const auto pre = std::vector<config::ConfigFile>{File(R"(hostname r
ip prefix-list ACME-out seq 5 permit 12.0.0.0/16 le 24
ip route 12.9.0.0 255.255.0.0 12.0.0.2
)")};
  const auto post = anonymizer.AnonymizeNetwork(pre);
  const auto a = analysis::ExtractCharacteristics(pre);
  const auto b = analysis::ExtractCharacteristics(post);
  EXPECT_EQ(a.prefix_list_entry_count, b.prefix_list_entry_count);
  EXPECT_EQ(a.static_route_count, b.static_route_count);
}

TEST(Anonymizer, MidLineDescriptionStripped) {
  core::AnonymizerOptions options;
  options.salt = "final-salt";
  core::Anonymizer anonymizer(std::move(options));
  const auto post = anonymizer.AnonymizeNetwork({File(
      "ip prefix-list X description routes for global crossing peering\n")});
  const std::string text = post.front().ToText();
  EXPECT_EQ(text.find("global"), std::string::npos);
  EXPECT_EQ(text.find("crossing"), std::string::npos);
  EXPECT_NE(text.find("description"), std::string::npos);
}

TEST(JunosWriter, SetCommunityNamesAreOpaque) {
  // Policy names must never embed the community value (that would leak
  // the original past the members rewriting).
  gen::GeneratorParams params;
  params.seed = 4242;
  params.router_count = 14;
  const auto network = gen::GenerateNetwork(params, 0);
  for (const auto& router : network.routers) {
    for (const auto& map : router.route_maps) {
      for (const auto& clause : map.clauses) {
        if (!clause.set_community) continue;
        const auto file = junos::WriteJunosConfig(router, network);
        const std::string text = file.ToText();
        // The literal appears only after "members".
        std::size_t at = 0;
        while ((at = text.find(*clause.set_community, at)) !=
               std::string::npos) {
          const std::size_t line_start = text.rfind('\n', at);
          const std::string line = text.substr(
              line_start + 1, text.find('\n', at) - line_start - 1);
          EXPECT_NE(line.find("members"), std::string::npos) << line;
          ++at;
        }
        return;  // one router with a set-community is enough
      }
    }
  }
  GTEST_SKIP() << "no set-community in sampled network";
}

TEST(KnownEntities, PrefixContainmentSurvivesForMembers) {
  // Declared-entity prefixes and addresses inside them keep containment
  // after anonymization (the property the Section 5 extension needs).
  core::AnonymizerOptions options;
  options.salt = "entity-containment";
  core::AnonymizerOptions::KnownEntity entity;
  entity.asns = {701};
  entity.prefixes = {*net::Prefix::Parse("157.130.0.0/16")};
  options.known_entities.push_back(entity);
  core::Anonymizer anonymizer(options);
  anonymizer.AnonymizeNetwork({File(
      "router bgp 65000\n"
      " neighbor 157.130.4.9 remote-as 701\n"
      " neighbor 157.130.77.2 remote-as 701\n")});
  std::ostringstream out;
  core::ExportKnownEntities(options.known_entities, *anonymizer.state(),
                            out);
  const std::string text = out.str();
  const std::size_t prefixes_at = text.find("prefixes ");
  ASSERT_NE(prefixes_at, std::string::npos);
  const auto exported = net::Prefix::Parse(
      util::Trim(text.substr(prefixes_at + 9)));
  ASSERT_TRUE(exported.has_value()) << text;
  for (const char* member : {"157.130.4.9", "157.130.77.2"}) {
    EXPECT_TRUE(exported->Contains(
        anonymizer.ip_anonymizer().Map(*net::Ipv4Address::Parse(member))))
        << member;
  }
}

}  // namespace
}  // namespace confanon
