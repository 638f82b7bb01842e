// JunOS portability demo (paper Section 1, footnote 2: "the techniques
// are directly applicable to JunOS").
//
// Renders the same small network in Cisco IOS and JunOS syntax,
// anonymizes both with the same salt (and a shared IP mapping), and
// prints one router side by side so the structural correspondence is
// visible: same permuted ASNs, same hash tokens for shared identifiers,
// same mapped addresses.
#include <iostream>
#include <sstream>

#include "core/anonymizer.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/writer.h"

int main() {
  using namespace confanon;

  gen::GeneratorParams params;
  params.seed = 20040426;
  params.router_count = 6;
  params.p_alternation_regex = 1.0;
  const gen::NetworkSpec network = gen::GenerateNetwork(params, 0);

  const auto ios = gen::WriteNetworkConfigs(network);
  const auto junos_files = junos::WriteJunosNetworkConfigs(network);

  core::AnonymizerOptions ios_options;
  ios_options.salt = "portability-demo";
  core::Anonymizer ios_anonymizer(std::move(ios_options));
  const auto ios_post = ios_anonymizer.AnonymizeNetwork(ios);

  core::AnonymizerOptions junos_options;
  junos_options.salt = "portability-demo";
  junos::JunosAnonymizer junos_anonymizer(std::move(junos_options));
  std::stringstream mapping;
  ios_anonymizer.ip_anonymizer().ExportMappings(mapping);
  junos_anonymizer.ip_anonymizer().ImportMappings(mapping);
  const auto junos_post = junos_anonymizer.AnonymizeNetwork(junos_files);

  // Pick the first BGP border router for display.
  std::size_t border = 0;
  for (std::size_t i = 0; i < network.routers.size(); ++i) {
    if (network.routers[i].bgp.has_value()) {
      bool external = false;
      for (const auto& neighbor : network.routers[i].bgp->neighbors) {
        external |= neighbor.external;
      }
      if (external) {
        border = i;
        break;
      }
    }
  }

  std::cout << "===== anonymized IOS (" << ios_post[border].name()
            << ") =====\n";
  std::size_t shown = 0;
  for (const auto& line : ios_post[border].lines()) {
    if (++shown > 45) break;
    std::cout << line << "\n";
  }
  std::cout << "\n===== anonymized JunOS (same router, same salt) =====\n";
  shown = 0;
  for (const auto& line : junos_post[border].lines()) {
    if (++shown > 60) break;
    std::cout << line << "\n";
  }

  std::cout << "\n===== cross-language consistency =====\n";
  std::cout << "AS " << network.asn << " -> "
            << ios_anonymizer.asn_map().Map(network.asn) << " (IOS) / "
            << junos_anonymizer.asn_map().Map(network.asn) << " (JunOS)\n";
  const auto& loopback = network.routers[border].interfaces.front().address;
  std::cout << loopback.ToString() << " -> "
            << ios_anonymizer.ip_anonymizer().Map(loopback).ToString()
            << " (IOS) / "
            << junos_anonymizer.ip_anonymizer().Map(loopback).ToString()
            << " (JunOS)\n";
  return 0;
}
