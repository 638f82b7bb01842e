#include "gen/network_gen.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "config/dialect.h"
#include "gen/addressing.h"
#include "gen/names.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace confanon::gen {

namespace {

std::string UpperName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

/// Interface name for the n-th data port of a router under a dialect
/// generation (0=Ethernet, 1=FastEthernet, 2=GigabitEthernet).
std::string PortName(int generation, int index) {
  switch (generation) {
    case 0:
      return "Ethernet" + std::to_string(index);
    case 1:
      return "FastEthernet0/" + std::to_string(index);
    default:
      return "GigabitEthernet0/" + std::to_string(index);
  }
}

std::string SerialName(int index) {
  return "Serial" + std::to_string(index / 4) + "/" + std::to_string(index % 4);
}

/// A public-looking /30 for an eBGP session, carved deterministically from
/// a block derived from the peer's ASN (peer address space is the peer's,
/// not ours).
net::Prefix PeerLinkSubnet(std::uint32_t peer_asn, int session_index) {
  std::uint64_t state = 0x9E00 + peer_asn;
  const std::uint32_t mix = static_cast<std::uint32_t>(
      util::SplitMix64(state));
  std::uint32_t first = 60 + (mix % 60);  // class A, clear of 10 and 127
  if (first == 10 + 60) first += 1;       // never lands on 10 anyway; guard
  const std::uint32_t base = (first << 24) | ((mix >> 8) & 0x00FFFF00u);
  return net::Prefix(
      net::Ipv4Address(base + static_cast<std::uint32_t>(session_index) * 4),
      30);
}

struct PolicyIds {
  int next_acl = 100;
  int next_aspath = 50;
  int next_community = 100;
};

/// Tracks which network-level regex features have actually been planted
/// so far; the first eligible policy object force-plants a flagged
/// feature, guaranteeing that a truth flag implies at least one real
/// occurrence in the configs.
struct PlantState {
  bool public_range = false;
  bool private_range = false;
  bool alternation = false;
  bool community_regex = false;
  bool community_range = false;
};

/// Builds the BGP policy objects for one eBGP peer on `router`, honouring
/// the network's regex feature flags.
struct PolicyStyle {
  bool named_community_lists = false;
  bool prefix_list_exports = false;
};

void AddPeerPolicy(RouterSpec& router, const PeerIsp& peer,
                   const NetworkSpec& network, AddressPlan& plan,
                   PolicyIds& ids, PlantState& planted,
                   const PolicyStyle& style, util::Rng& rng) {
  const std::string peer_label = UpperName(peer.name);
  const std::string import_name = peer_label + "-import";
  const std::string export_name = peer_label + "-export";

  // --- as-path list matched on import ---
  AsPathListSpec aspath;
  aspath.number = ids.next_aspath++;
  aspath.permit = rng.Chance(0.4);
  if (network.truth.uses_asn_range_regex &&
      (!planted.public_range || rng.Chance(0.3))) {
    // Digit range over a contiguous public block, e.g. _70[1-5]_ for
    // UUNET's 701-705, or the peer's decade when it owns no block.
    if (!peer.extra_asns.empty()) {
      const std::string lo_s = std::to_string(peer.asn);
      const std::string hi_s = std::to_string(peer.extra_asns.back());
      aspath.regex = "_" + lo_s.substr(0, lo_s.size() - 1) + "[" +
                     lo_s.back() + "-" + hi_s.back() + "]_";
    } else {
      const std::string decade = std::to_string(peer.asn / 10);
      aspath.regex = "_" + decade + "[0-9]_";
    }
    planted.public_range = true;
  } else if (network.truth.uses_private_asn_range_regex &&
             (!planted.private_range || rng.Chance(0.2))) {
    aspath.regex = "_6451[2-5]_";
    planted.private_range = true;
  } else if (network.truth.uses_asn_alternation_regex &&
             (!planted.alternation || rng.Chance(0.6))) {
    const PeerIsp& other = rng.Pick(PeerIsps());
    aspath.regex = "(_" + std::to_string(peer.asn) + "_|_" +
                   std::to_string(other.asn) + "_)";
    planted.alternation = true;
  } else {
    aspath.regex = "_" + std::to_string(peer.asn) + "_";
  }
  router.as_path_lists.push_back(aspath);

  // --- community list matched on import ---
  CommunityListSpec comm;
  comm.number = ids.next_community++;
  if (style.named_community_lists) {
    comm.name = peer_label + "-comm";
  }
  comm.permit = true;
  if (network.truth.uses_community_regex &&
      (!planted.community_regex || rng.Chance(0.5))) {
    comm.expanded = true;
    planted.community_regex = true;
    if (network.truth.uses_community_range_regex &&
        (!planted.community_range || rng.Chance(0.4))) {
      // e.g. 701:7[1-5].. — any community 7100-7599 from the peer.
      comm.regex = std::to_string(peer.asn) + ":7[1-5]..";
      planted.community_range = true;
    } else {
      comm.regex = std::to_string(peer.asn) + ":(7100|7200|7300)";
    }
  } else {
    const int count = static_cast<int>(rng.Between(1, 3));
    for (int i = 0; i < count; ++i) {
      comm.literals.push_back(std::to_string(peer.asn) + ":" +
                              std::to_string(rng.Between(100, 9999)));
    }
  }
  router.community_lists.push_back(comm);

  // --- export filter: prefix ACL or prefix-list, per network style ---
  int export_acl = 0;
  std::string export_prefix_list;
  if (style.prefix_list_exports) {
    PrefixListSpec list;
    list.name = peer_label + "-out";
    const int entries = static_cast<int>(rng.Between(1, 4));
    for (int i = 0; i < entries; ++i) {
      PrefixListEntrySpec entry;
      entry.sequence = 5 * (i + 1);
      entry.permit = true;
      entry.prefix =
          plan.AllocateSubnet(static_cast<int>(rng.Between(24, 27)));
      if (rng.Chance(0.4)) {
        entry.le = std::min(30, entry.prefix.length() +
                                    static_cast<int>(rng.Between(1, 3)));
      }
      list.entries.push_back(entry);
    }
    export_prefix_list = list.name;
    router.prefix_lists.push_back(std::move(list));
  } else {
    AclSpec acl;
    acl.number = ids.next_acl++;
    if (rng.Chance(0.3)) {
      acl.remark = "prefixes advertised to " + peer.name;
    }
    const int acl_entries = static_cast<int>(rng.Between(1, 4));
    for (int i = 0; i < acl_entries; ++i) {
      acl.entries.push_back(AclEntrySpec{
          true, plan.AllocateSubnet(static_cast<int>(rng.Between(24, 27)))});
    }
    export_acl = acl.number;
    router.acls.push_back(acl);
  }

  // --- route maps wiring the above together ---
  RouteMapSpec import_map;
  import_map.name = import_name;
  RouteMapClauseSpec deny;
  deny.permit = false;
  deny.sequence = 10;
  deny.match_as_path = aspath.number;
  import_map.clauses.push_back(deny);
  RouteMapClauseSpec tag;
  tag.permit = true;
  tag.sequence = 20;
  tag.match_community = comm.Reference();
  tag.set_local_preference = static_cast<int>(rng.Between(80, 120));
  import_map.clauses.push_back(tag);
  RouteMapClauseSpec accept;
  accept.permit = true;
  accept.sequence = 30;
  accept.set_local_preference = 100;
  import_map.clauses.push_back(accept);
  router.route_maps.push_back(import_map);

  RouteMapSpec export_map;
  export_map.name = export_name;
  RouteMapClauseSpec advertise;
  advertise.permit = true;
  advertise.sequence = 10;
  if (export_acl != 0) {
    advertise.match_acl = export_acl;
  } else {
    advertise.match_prefix_list = export_prefix_list;
  }
  advertise.set_community = std::to_string(peer.asn) + ":" +
                            std::to_string(rng.Between(7000, 7999));
  if (rng.Chance(0.25)) {
    advertise.set_prepend = {network.asn, network.asn};
  }
  if (rng.Chance(0.3)) {
    advertise.set_med = static_cast<int>(rng.Between(0, 200));
  }
  export_map.clauses.push_back(advertise);
  router.route_maps.push_back(export_map);
}

}  // namespace

NetworkSpec GenerateNetwork(const GeneratorParams& params, int index) {
  // Traced under the process-wide tracer: generation is the other half of
  // every bench's wall time, and the spans make that visible.
  obs::ScopedTimer span(&obs::GlobalTracer(),
                        "gen.network:" + std::to_string(index));
  span.AddArg("routers", static_cast<std::int64_t>(params.router_count));
  util::Rng rng(params.seed, "network-" + std::to_string(index));

  NetworkSpec network;
  const auto& companies = CompanyNames();
  network.name = companies[static_cast<std::size_t>(index) % companies.size()];
  if (static_cast<std::size_t>(index) >= companies.size()) {
    network.name += std::to_string(index / companies.size());
  }
  network.profile = params.profile;
  // The network's own public ASN, unique per index and clear of the
  // well-known peer ASNs.
  network.asn = 2000 + static_cast<std::uint32_t>(index) * 7 + 1;

  // Feature flags at the paper's observed rates.
  network.truth.uses_asn_range_regex = rng.Chance(params.p_public_range_regex);
  network.truth.uses_private_asn_range_regex =
      rng.Chance(params.p_private_range_regex);
  network.truth.uses_asn_alternation_regex =
      rng.Chance(params.p_alternation_regex);
  network.truth.uses_community_regex = rng.Chance(params.p_community_regex);
  network.truth.uses_community_range_regex =
      network.truth.uses_community_regex &&
      rng.Chance(params.p_community_range_given_regex);
  if (rng.Chance(params.p_compartmentalized)) {
    const int kind = static_cast<int>(rng.Between(1, 3));
    network.truth.compartmentalization =
        static_cast<Compartmentalization>(kind);
  }

  AddressPlan plan(rng, params.profile, params.router_count);
  PolicyIds ids;
  PlantState planted;

  // Per-network commenting habit: most operators comment sparsely, a few
  // annotate everything (this spread yields the paper's 1.5% mean / 6%
  // p90 comment-word fractions).
  const double comment_rate = 0.02 + 0.35 * rng.Unit() * rng.Unit() * rng.Unit();

  // Per-network policy style: some operators use named community-lists
  // and prefix-lists instead of the numbered/ACL forms (style varies per
  // network, not per router, like real design practice).
  const bool named_community_lists = rng.Chance(0.35);
  const bool prefix_list_exports = rng.Chance(0.4);

  const int router_count = std::max(2, params.router_count);
  const int pop_count = std::max(1, router_count / 8);
  const std::string domain = network.name + ".com";

  // Role assignment: 2 core routers per POP, the rest edge.
  struct Placement {
    int pop;
    bool core;
  };
  std::vector<Placement> placements;
  for (int pop = 0; pop < pop_count; ++pop) {
    placements.push_back({pop, true});
    placements.push_back({pop, true});
  }
  while (static_cast<int>(placements.size()) < router_count) {
    placements.push_back(
        {static_cast<int>(rng.Below(static_cast<std::uint64_t>(pop_count))),
         false});
  }
  placements.resize(static_cast<std::size_t>(router_count));

  // Loopbacks first: iBGP neighbors reference them.
  std::vector<net::Ipv4Address> loopbacks;
  loopbacks.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    loopbacks.push_back(plan.AllocateLoopback());
  }

  const auto& cities = CityCodes();
  std::vector<std::size_t> core_indices;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (placements[i].core) core_indices.push_back(i);
  }

  // Hostnames must be unique: number routers per (city, role). POPs
  // beyond the city list reuse a city code, so the counter is per city,
  // not per POP.
  std::map<std::pair<std::string, bool>, int> host_counters;

  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Placement& place = placements[i];
    const std::string city =
        cities[static_cast<std::size_t>(place.pop) % cities.size()];
    util::Rng router_rng = rng.Fork("router-" + std::to_string(i));

    RouterSpec router;
    router.dialect = static_cast<std::uint32_t>(router_rng.Below(220));
    const int host_number = ++host_counters[{city, place.core}];
    router.hostname = (place.core ? "cr" : "er") +
                      std::to_string(host_number) + "." + city + "." + domain;
    router.domain_name = domain;
    if (router_rng.Chance(comment_rate)) {
      router.banner = MakeBannerText(router_rng, network.name);
    }
    if (router_rng.Chance(0.5)) {
      router.snmp_community = network.name + "-ro";
      if (router_rng.Chance(comment_rate)) {
        router.snmp_location = city + " pop cage " +
                               std::to_string(router_rng.Between(1, 40));
      }
    }
    router.drops_probes = network.truth.compartmentalization ==
                          Compartmentalization::kProbeDrop;
    router.aaa_new_model = router_rng.Chance(0.5);
    // Management plane points at a couple of loopbacks of core routers
    // (addresses consistent network-wide, like a real NOC design).
    const int ntp_count = static_cast<int>(router_rng.Between(0, 2));
    for (int n = 0; n < ntp_count && n < static_cast<int>(loopbacks.size());
         ++n) {
      router.ntp_servers.push_back(loopbacks[static_cast<std::size_t>(n)]);
    }
    if (router_rng.Chance(0.6) && !loopbacks.empty()) {
      router.logging_hosts.push_back(loopbacks[0]);
    }

    // Loopback interface.
    router.interfaces.push_back(InterfaceSpec{
        "Loopback0", loopbacks[i], 32,
        router_rng.Chance(comment_rate) ? "router id for " + network.name
                                        : std::string(),
        false, false});

    IgpSpec igp;
    if (params.profile == NetworkProfile::kEnterprise) {
      igp.kind = router_rng.Chance(0.6) ? IgpKind::kEigrp : IgpKind::kOspf;
    } else {
      igp.kind = IgpKind::kOspf;
    }
    igp.process_id = igp.kind == IgpKind::kEigrp
                         ? static_cast<int>(network.asn % 100 + 1)
                         : 1;
    igp.ospf_area = place.pop;
    if (igp.kind == IgpKind::kOspf && place.core) {
      // Hierarchical OSPF: core routers put the inter-router link region
      // in the backbone area and everything else in their POP's area.
      igp.backbone_networks.push_back(plan.link_region());
    }
    igp.networks.push_back(plan.base());

    router.igps.push_back(igp);
    network.routers.push_back(std::move(router));
  }

  // Materialize links in a second pass so both endpoints share subnets.
  util::Rng link_rng = rng.Fork("link-descriptions");
  auto link_both = [&](std::size_t a, std::size_t b, bool serial) {
    const net::Prefix subnet = plan.AllocateLink();
    const config::Dialect da =
        config::MakeDialect(network.routers[a].dialect);
    const config::Dialect db =
        config::MakeDialect(network.routers[b].dialect);
    auto make_iface = [&](RouterSpec& r, const config::Dialect& d,
                          bool low_side, const std::string& peer_host) {
      InterfaceSpec iface;
      int existing_serial = 0;
      int existing_port = 0;
      for (const auto& existing : r.interfaces) {
        if (existing.name.starts_with("Serial")) ++existing_serial;
        if (existing.name.find("thernet") != std::string::npos) {
          ++existing_port;
        }
      }
      iface.name = serial ? SerialName(existing_serial)
                          : PortName(d.interface_generation, existing_port);
      iface.address = net::Ipv4Address(subnet.address().value() +
                                       (low_side ? 1 : 2));
      iface.prefix_length = 30;
      iface.point_to_point = serial;
      if (link_rng.Chance(comment_rate * 2)) {
        iface.description = "to " + peer_host;
      }
      r.interfaces.push_back(iface);
    };
    make_iface(network.routers[a], da, true, network.routers[b].hostname);
    make_iface(network.routers[b], db, false, network.routers[a].hostname);
  };

  // Core ring.
  for (std::size_t r = 0; r + 1 < core_indices.size(); ++r) {
    link_both(core_indices[r], core_indices[r + 1], true);
  }
  if (core_indices.size() > 2) {
    link_both(core_indices.back(), core_indices.front(), true);
  }
  // Edge uplinks: each edge router connects to a core router of its POP.
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (placements[i].core) continue;
    // First core router of the same POP.
    std::size_t uplink = core_indices.front();
    for (std::size_t c : core_indices) {
      if (placements[c].pop == placements[i].pop) {
        uplink = c;
        break;
      }
    }
    link_both(uplink, i, rng.Chance(0.5));
  }

  // Edge LANs: a handful of subnets of varying size per edge router.
  for (std::size_t i = 0; i < placements.size(); ++i) {
    if (placements[i].core) continue;
    RouterSpec& router = network.routers[i];
    util::Rng lan_rng = rng.Fork("lan-" + std::to_string(i));
    const config::Dialect dialect = config::MakeDialect(router.dialect);
    const int lan_count = static_cast<int>(lan_rng.Between(1, 4));
    int port_index = 0;
    for (const auto& existing : router.interfaces) {
      if (existing.name.find("thernet") != std::string::npos) ++port_index;
    }
    for (int l = 0; l < lan_count; ++l) {
      const int length = static_cast<int>(lan_rng.Between(24, 29));
      // Skew away from the big /24s so even the largest corpus networks
      // fit comfortably inside the plan's LAN region.
      const int adjusted = length == 24 && lan_rng.Chance(0.6) ? 26 : length;
      const net::Prefix subnet = plan.AllocateSubnet(adjusted);
      InterfaceSpec iface;
      iface.name = PortName(dialect.interface_generation, port_index++);
      iface.address = net::Ipv4Address(subnet.address().value() + 1);
      iface.prefix_length = adjusted;
      if (lan_rng.Chance(comment_rate * 2)) {
        const std::string city =
            CityCodes()[static_cast<std::size_t>(placements[i].pop) %
                        CityCodes().size()];
        iface.description = MakeDescription(lan_rng, network.name, city);
      }
      router.interfaces.push_back(iface);
    }
    // A minority of edge routers are customer-aggregation boxes with a
    // long tail of point-to-point subinterfaces and per-customer static
    // routes — these produce the paper's heavily right-skewed config
    // size distribution (50 to 10,000 lines).
    if (lan_rng.Chance(0.12) && params.profile == NetworkProfile::kBackbone) {
      const int customers = static_cast<int>(
          4 + lan_rng.Below(80) * lan_rng.Below(6));
      int existing_serial = 0;
      for (const auto& existing : router.interfaces) {
        if (existing.name.starts_with("Serial")) ++existing_serial;
      }
      for (int c = 0; c < customers; ++c) {
        const net::Prefix sub = plan.AllocateLink();
        InterfaceSpec iface;
        iface.name = SerialName(existing_serial) + "." + std::to_string(c + 1);
        iface.address = net::Ipv4Address(sub.address().value() + 1);
        iface.prefix_length = 30;
        iface.point_to_point = true;
        router.interfaces.push_back(iface);
        // Customer route via the far end of the /30.
        router.static_routes.push_back(StaticRouteSpec{
            plan.AllocateSubnet(static_cast<int>(lan_rng.Between(28, 30))),
            net::Ipv4Address(sub.address().value() + 2)});
      }
    }
    if (lan_rng.Chance(0.4)) {
      AclSpec vty;
      vty.number = 98;
      vty.entries.push_back(AclEntrySpec{true, plan.base()});
      router.acls.push_back(vty);
      router.vty_acl = vty.number;
    }

    // LAN-facing ports are passive in the IGP on careful designs.
    if (lan_rng.Chance(0.5)) {
      for (IgpSpec& igp : router.igps) {
        if (igp.kind != IgpKind::kOspf) continue;
        for (const InterfaceSpec& iface : router.interfaces) {
          if (iface.prefix_length <= 29 && iface.prefix_length >= 24 &&
              iface.name.find("thernet") != std::string::npos) {
            igp.passive_interfaces.push_back(iface.name);
          }
        }
      }
    }

    // Some edge pockets run RIP instead of the backbone IGP (the paper's
    // Figure 1 pattern).
    if (lan_rng.Chance(0.25) && params.profile == NetworkProfile::kBackbone) {
      IgpSpec rip;
      rip.kind = IgpKind::kRip;
      rip.process_id = 0;
      // RIP networks are classful statements.
      const auto classful =
          net::Prefix::ClassfulNetworkOf(router.interfaces.back().address);
      if (classful) rip.networks.push_back(*classful);
      router.igps.push_back(rip);
    }
  }

  // BGP: all core routers are iBGP speakers; a few are borders with eBGP.
  util::Rng bgp_rng = rng.Fork("bgp");
  const std::size_t border_count = std::max<std::size_t>(
      1, core_indices.size() / (params.profile == NetworkProfile::kBackbone
                                    ? 2
                                    : 4));
  for (std::size_t c = 0; c < core_indices.size(); ++c) {
    const std::size_t ri = core_indices[c];
    RouterSpec& router = network.routers[ri];
    BgpSpec bgp;
    bgp.asn = network.asn;
    bgp.redistribute_igp = bgp_rng.Chance(0.4);
    bgp.networks.push_back(plan.base());
    // iBGP full mesh over loopbacks.
    for (std::size_t other : core_indices) {
      if (other == ri) continue;
      BgpNeighborSpec neighbor;
      neighbor.address = loopbacks[other];
      neighbor.remote_asn = network.asn;
      neighbor.external = false;
      neighbor.update_source = loopbacks[ri];
      neighbor.next_hop_self = true;
      bgp.neighbors.push_back(neighbor);
    }
    // Borders get 1-3 eBGP peers.
    if (c < border_count) {
      const int peer_count = static_cast<int>(bgp_rng.Between(1, 3));
      for (int p = 0; p < peer_count; ++p) {
        const PeerIsp& peer = bgp_rng.Pick(PeerIsps());
        const net::Prefix link = PeerLinkSubnet(
            peer.asn, static_cast<int>(bgp_rng.Between(0, 1000)));
        // Our side of the peering link.
        InterfaceSpec iface;
        int serial_count = 0;
        for (const auto& existing : router.interfaces) {
          if (existing.name.starts_with("Serial")) ++serial_count;
        }
        iface.name = SerialName(serial_count);
        iface.address = net::Ipv4Address(link.address().value() + 1);
        iface.prefix_length = 30;
        iface.point_to_point = true;
        if (bgp_rng.Chance(comment_rate * 3)) {
          iface.description = "peering with " + peer.name;
        }
        router.interfaces.push_back(iface);

        BgpNeighborSpec neighbor;
        neighbor.address = net::Ipv4Address(link.address().value() + 2);
        neighbor.remote_asn = peer.asn;
        neighbor.external = true;
        neighbor.peer_name = peer.name;
        neighbor.send_community = true;
        if (bgp_rng.Chance(0.3)) {
          neighbor.password = network.name + "-" + peer.name + "-key";
        }
        neighbor.import_map = UpperName(peer.name) + "-import";
        neighbor.export_map = UpperName(peer.name) + "-export";
        PolicyStyle style;
        style.named_community_lists = named_community_lists;
        style.prefix_list_exports = prefix_list_exports;
        AddPeerPolicy(router, peer, network, plan, ids, planted, style,
                      bgp_rng);
        bgp.neighbors.push_back(neighbor);
        ++network.truth.ebgp_session_count;
      }
    }
    router.bgp = bgp;
  }

  // Policy compartmentalization: edge routers filter routes from other
  // compartments with an IGP distribute-list that denies *real* LAN
  // subnets of other routers, so reachability between the compartments is
  // actually prevented (checkable via analysis::AnalyzeReachability).
  if (network.truth.compartmentalization == Compartmentalization::kPolicy) {
    util::Rng comp_rng = rng.Fork("policy-compartment");
    std::vector<std::pair<std::size_t, net::Prefix>> lan_subnets;
    for (std::size_t i = 0; i < network.routers.size(); ++i) {
      for (const InterfaceSpec& iface : network.routers[i].interfaces) {
        if (iface.prefix_length >= 24 && iface.prefix_length <= 29) {
          lan_subnets.emplace_back(
              i, net::Prefix(iface.address, iface.prefix_length));
        }
      }
    }
    for (std::size_t i = 0; i < placements.size(); ++i) {
      if (placements[i].core || !comp_rng.Chance(0.5)) continue;
      if (lan_subnets.empty()) break;
      RouterSpec& router = network.routers[i];
      AclSpec acl;
      acl.number = ids.next_acl++;
      // Deny a few LAN subnets belonging to other routers.
      const int denies = static_cast<int>(comp_rng.Between(1, 3));
      for (int d = 0; d < denies; ++d) {
        const auto& [owner, subnet] = lan_subnets[static_cast<std::size_t>(
            comp_rng.Below(lan_subnets.size()))];
        if (owner == i) continue;
        acl.entries.push_back(AclEntrySpec{false, subnet});
      }
      if (acl.entries.empty()) continue;
      acl.entries.push_back(AclEntrySpec{true, net::Prefix()});
      router.acls.push_back(acl);
      for (IgpSpec& igp : router.igps) {
        igp.distribute_list_acl = acl.number;
      }
    }
  }

  // Enterprise: NAT compartmentalization on one router.
  if (network.truth.compartmentalization == Compartmentalization::kNat &&
      !network.routers.empty()) {
    RouterSpec& router = network.routers.front();
    NatSpec nat;
    nat.acl_number = ids.next_acl++;
    nat.pool_name = network.name + "-natpool";
    const net::Prefix pool = plan.AllocateSubnet(28);
    nat.pool_start = net::Ipv4Address(pool.address().value() + 1);
    nat.pool_end = net::Ipv4Address(pool.address().value() + 14);
    nat.pool_mask = pool.Netmask();
    router.nat = nat;
    AclSpec acl;
    acl.number = nat.acl_number;
    acl.entries.push_back(AclEntrySpec{true, plan.base()});
    router.acls.push_back(acl);
  }

  // Enterprise networks often anchor site-to-site VPNs with pre-shared
  // keys; both the key and the peer address are secrets.
  if (params.profile == NetworkProfile::kEnterprise) {
    util::Rng vpn_rng = rng.Fork("vpn");
    for (RouterSpec& router : network.routers) {
      if (!vpn_rng.Chance(0.15)) continue;
      const int keys = static_cast<int>(vpn_rng.Between(1, 3));
      for (int k = 0; k < keys; ++k) {
        const net::Prefix peer_link = PeerLinkSubnet(
            static_cast<std::uint32_t>(vpn_rng.Between(100, 60000)),
            static_cast<int>(vpn_rng.Between(0, 500)));
        router.isakmp_keys.emplace_back(
            network.name + "vpn" + std::to_string(k),
            net::Ipv4Address(peer_link.address().value() + 1));
      }
    }
  }

  // Truth bookkeeping. The regex-feature flags are reconciled with what
  // was actually planted (a flagged network with no eBGP peers plants
  // nothing).
  network.truth.uses_asn_range_regex = planted.public_range;
  network.truth.uses_private_asn_range_regex = planted.private_range;
  network.truth.uses_asn_alternation_regex = planted.alternation;
  network.truth.uses_community_regex = planted.community_regex;
  network.truth.uses_community_range_regex = planted.community_range;
  network.truth.router_count = network.routers.size();
  for (const RouterSpec& router : network.routers) {
    network.truth.interface_count += router.interfaces.size();
    if (router.bgp.has_value()) ++network.truth.bgp_speaker_count;
  }
  return network;
}

std::vector<NetworkSpec> GenerateCorpus(const GeneratorParams& params,
                                        int count, int total_routers) {
  obs::ScopedTimer span(&obs::GlobalTracer(), "gen.corpus");
  span.AddArg("networks", static_cast<std::int64_t>(count));
  span.AddArg("total_routers", static_cast<std::int64_t>(total_routers));
  // Skewed size mix: ranks follow a Zipf-ish series so a couple of
  // networks dominate, matching the carrier + enterprises shape of the
  // paper's dataset.
  std::vector<double> weights;
  double weight_sum = 0;
  for (int i = 0; i < count; ++i) {
    const double w = 1.0 / (1.0 + i * 0.7);
    weights.push_back(w);
    weight_sum += w;
  }
  std::vector<NetworkSpec> corpus;
  corpus.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    GeneratorParams p = params;
    p.router_count = std::max(
        2, static_cast<int>(weights[static_cast<std::size_t>(i)] /
                            weight_sum * total_routers));
    // Mix profiles: the paper's corpus was backbone + enterprise networks.
    p.profile = (i % 3 == 2) ? NetworkProfile::kEnterprise
                             : NetworkProfile::kBackbone;
    corpus.push_back(GenerateNetwork(p, i));
  }
  return corpus;
}

}  // namespace confanon::gen
