#include "topology/builder.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "topology/address_plan.h"
#include "topology/as_graph.h"
#include "util/rng.h"

namespace revtr::topology {

namespace detail {

using util::Rng;

// Per-AS infrastructure address state; an AS can grow extra /18s if its
// first one fills up (very large tier-1s).
struct InfraState {
  std::vector<AddressPlan::InfraCursor> cursors;
};

class BuildContext {
 public:
  BuildContext(const TopologyConfig& config, Topology& topo)
      : config_(config),
        topo_(topo),
        rng_(config.seed),
        as_rng_(rng_.fork("as-graph")),
        router_rng_(rng_.fork("routers")),
        host_rng_(rng_.fork("hosts")) {}

  void run() {
    topo_.ases_ = generate_as_graph(config_, as_rng_);
    for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
      topo_.asn_to_index_[topo_.ases_[i].asn] = i;
    }
    infra_.resize(topo_.ases_.size());
    build_routers();
    build_intra_links();
    build_inter_links();
    build_prefixes_and_hosts();
    place_vantage_points();
    place_probe_hosts();
    topo_.router_gateways_.resize(topo_.routers_.size());
    for (const auto& [key, gateway] : gateway_map_) {
      topo_.router_gateways_[static_cast<RouterId>(key >> 32)].push_back(
          gateway);
    }
  }

 private:
  std::size_t router_count_for(const AsNode& node) {
    switch (node.tier) {
      case AsTier::kTier1:
        return static_cast<std::size_t>(router_rng_.range(
            static_cast<std::int64_t>(config_.tier1_routers_min),
            static_cast<std::int64_t>(config_.tier1_routers_max)));
      case AsTier::kTransit:
        return static_cast<std::size_t>(router_rng_.range(
            static_cast<std::int64_t>(config_.transit_routers_min),
            static_cast<std::int64_t>(config_.transit_routers_max)));
      case AsTier::kStub:
        return static_cast<std::size_t>(router_rng_.range(
            static_cast<std::int64_t>(config_.stub_routers_min),
            static_cast<std::int64_t>(config_.stub_routers_max)));
    }
    return 1;
  }

  net::Ipv4Addr take_loopback(AsIndex as) {
    auto& state = infra_[as];
    if (state.cursors.empty()) new_infra_prefix(as);
    if (auto addr = state.cursors.back().take_loopback()) return *addr;
    new_infra_prefix(as);
    return *state.cursors.back().take_loopback();
  }

  net::Ipv4Addr take_p2p_block(AsIndex as) {
    auto& state = infra_[as];
    if (state.cursors.empty()) new_infra_prefix(as);
    if (auto addr = state.cursors.back().take_p2p_block()) return *addr;
    new_infra_prefix(as);
    return *state.cursors.back().take_p2p_block();
  }

  void new_infra_prefix(AsIndex as) {
    const net::Ipv4Prefix prefix = plan_.allocate_infra_prefix();
    BgpPrefix bgp;
    bgp.id = static_cast<PrefixId>(topo_.prefixes_.size());
    bgp.prefix = prefix;
    bgp.origin = topo_.ases_[as].asn;
    bgp.infrastructure = true;
    topo_.prefixes_.push_back(bgp);
    topo_.prefix_trie_.insert(prefix, bgp.id);
    if (topo_.ases_[as].infra_prefix == kInvalidId) {
      topo_.ases_[as].infra_prefix = bgp.id;
    }
    infra_[as].cursors.push_back(AddressPlan::InfraCursor{prefix});
  }

  void build_routers() {
    for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
      AsNode& node = topo_.ases_[i];
      const std::size_t count = router_count_for(node);
      for (std::size_t r = 0; r < count; ++r) {
        Router router;
        router.id = static_cast<RouterId>(topo_.routers_.size());
        router.asn = node.asn;
        router.as_index = i;
        router.loopback = take_loopback(i);
        router.rr_policy = pick_rr_policy();
        if (router.rr_policy == RrStampPolicy::kPrivate) {
          router.private_alias = AddressPlan::private_alias(router.id + 1);
        }
        router.responds_ttl_exceeded =
            router_rng_.chance(config_.router_ttl_responsive);
        router.responds_ping =
            router_rng_.chance(config_.router_ping_responsive);
        router.responds_options =
            router.responds_ping && !node.filters_ip_options &&
            router_rng_.chance(0.92);
        router.snmp_responder =
            router_rng_.chance(config_.router_snmp_responder);
        router.per_packet_lb =
            router_rng_.chance(config_.router_per_packet_lb);
        router.source_sensitive =
            router_rng_.chance(config_.router_source_sensitive);
        topo_.interface_map_[router.loopback] =
            InterfaceOwner{router.id, kInvalidId};
        if (!router.private_alias.is_unspecified()) {
          // Private addresses collide across ASes in reality; the map keeps
          // the first owner, which is fine: they are unmappable anyway.
          topo_.interface_map_.try_emplace(
              router.private_alias, InterfaceOwner{router.id, kInvalidId});
        }
        node.routers.push_back(router.id);
        topo_.routers_.push_back(std::move(router));
      }
    }
  }

  RrStampPolicy pick_rr_policy() {
    const double roll = router_rng_.uniform();
    double acc = config_.rr_ingress_frac;
    if (roll < acc) return RrStampPolicy::kIngress;
    acc += config_.rr_loopback_frac;
    if (roll < acc) return RrStampPolicy::kLoopback;
    acc += config_.rr_private_frac;
    if (roll < acc) return RrStampPolicy::kPrivate;
    acc += config_.rr_nostamp_frac;
    if (roll < acc) return RrStampPolicy::kNoStamp;
    return RrStampPolicy::kEgress;
  }

  LinkId add_link(RouterId a, RouterId b, AsIndex addr_owner,
                  bool interdomain) {
    Link link;
    link.id = static_cast<LinkId>(topo_.links_.size());
    link.router_a = a;
    link.router_b = b;
    const net::Ipv4Addr base = take_p2p_block(addr_owner);
    link.addr_a = net::Ipv4Addr(base.value() + 1);
    link.addr_b = net::Ipv4Addr(base.value() + 2);
    link.interdomain = interdomain;
    link.delay_us = interdomain
                        ? router_rng_.range(config_.inter_delay_min_us,
                                            config_.inter_delay_max_us)
                        : router_rng_.range(config_.intra_delay_min_us,
                                            config_.intra_delay_max_us);
    topo_.interface_map_[link.addr_a] = InterfaceOwner{a, link.id};
    topo_.interface_map_[link.addr_b] = InterfaceOwner{b, link.id};
    topo_.routers_[a].links.push_back(link.id);
    topo_.routers_[b].links.push_back(link.id);
    topo_.links_.push_back(link);
    return link.id;
  }

  void build_intra_links() {
    for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
      const auto& routers = topo_.ases_[i].routers;
      if (routers.size() < 2) continue;
      // Random spanning tree: connect each router to a random earlier one.
      for (std::size_t r = 1; r < routers.size(); ++r) {
        const std::size_t parent = router_rng_.below(r);
        add_link(routers[r], routers[parent], i, /*interdomain=*/false);
      }
      // Redundant shortcuts create ECMP and path diversity.
      const auto extras = static_cast<std::size_t>(
          static_cast<double>(routers.size()) * config_.intra_extra_edge_prob);
      for (std::size_t e = 0; e < extras; ++e) {
        const std::size_t a = router_rng_.below(routers.size());
        const std::size_t b = router_rng_.below(routers.size());
        if (a == b) continue;
        add_link(routers[a], routers[b], i, /*interdomain=*/false);
      }
    }
  }

  RouterId border_router(AsIndex as, Asn neighbor, std::size_t slot) const {
    const auto& routers = topo_.ases_[as].routers;
    const std::uint64_t h =
        util::mix_hash(topo_.ases_[as].asn, neighbor, 0x5eed + slot * 7919);
    return routers[h % routers.size()];
  }

  void build_inter_links() {
    for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
      const AsNode& node = topo_.ases_[i];
      // provider_side: 0 = node provides to neighbor, 1 = neighbor provides
      // to node, 2 = settlement-free peers.
      auto connect = [&](Asn neighbor_asn, int provider_side) {
        if (neighbor_asn < node.asn) return;  // Each pair once.
        const AsIndex j = topo_.index_of(neighbor_asn);
        const AsNode& other = topo_.ases_[j];
        // Big networks interconnect at multiple locations; which interconnect
        // a packet uses depends on the destination, so parallel links are a
        // real source of router-level asymmetry (§6.2).
        std::size_t parallel = 1;
        const std::size_t cap =
            std::min(node.routers.size(), other.routers.size());
        if (node.tier != AsTier::kStub && other.tier != AsTier::kStub) {
          parallel =
              (node.tier == AsTier::kTier1 && other.tier == AsTier::kTier1)
                  ? 3
                  : 2;
        } else if (router_rng_.chance(0.5)) {
          parallel = 2;
        }
        parallel = std::max<std::size_t>(1, std::min(parallel, cap));
        for (std::size_t slot = 0; slot < parallel; ++slot) {
          const RouterId ra = border_router(i, neighbor_asn, slot);
          const RouterId rb = border_router(j, node.asn, slot);
          // The /30 usually comes from the provider's infrastructure
          // prefix (providers number customer links); either way the far
          // side's interface maps to the *other* AS (Fig 4).
          AsIndex owner;
          if (provider_side == 2) {
            owner = router_rng_.chance(0.5) ? i : j;
          } else {
            const AsIndex provider = provider_side == 0 ? i : j;
            const AsIndex customer = provider_side == 0 ? j : i;
            owner = router_rng_.chance(0.85) ? provider : customer;
          }
          const LinkId link = add_link(ra, rb, owner, /*interdomain=*/true);
          topo_.border_links_[(std::uint64_t{node.asn} << 32) | neighbor_asn]
              .push_back(link);
          topo_.border_links_[(std::uint64_t{neighbor_asn} << 32) | node.asn]
              .push_back(link);
        }
      };
      for (Asn p : node.providers) connect(p, 1);
      for (Asn c : node.customers) connect(c, 0);
      for (Asn p : node.peers) connect(p, 2);
    }
  }

  // Gateway interface of `router` inside `prefix`; allocated on first use
  // from the prefix's reserved low offsets. The slot cursor is per prefix
  // and persists across all host insertions so distinct routers never share
  // a gateway address.
  net::Ipv4Addr gateway_for(RouterId router, PrefixId prefix_id) {
    const std::uint64_t key = (std::uint64_t{router} << 32) | prefix_id;
    const auto it = gateway_map_.find(key);
    if (it != gateway_map_.end()) return it->second;
    std::uint32_t& next_gateway_slot = gateway_cursor_[prefix_id];
    const std::uint32_t slot =
        1 + (next_gateway_slot++ % (AddressPlan::kGatewaySlots - 1));
    const net::Ipv4Addr addr = topo_.prefixes_[prefix_id].prefix.at(slot);
    gateway_map_[key] = addr;
    topo_.interface_map_.try_emplace(addr,
                                     InterfaceOwner{router, kInvalidId});
    return addr;
  }

  HostId add_host(AsIndex as, PrefixId prefix_id, std::uint32_t& next_addr) {
    const AsNode& node = topo_.ases_[as];
    Host host;
    host.id = static_cast<HostId>(topo_.hosts_.size());
    host.asn = node.asn;
    host.addr = topo_.prefixes_[prefix_id].prefix.at(next_addr++);
    host.attachment = node.routers[host_rng_.below(node.routers.size())];
    host.ping_responsive = host_rng_.chance(config_.host_ping_responsive);
    host.rr_responsive =
        host.ping_responsive && !node.filters_ip_options &&
        host_rng_.chance(config_.host_rr_responsive_given_ping);
    const double roll = host_rng_.uniform();
    if (roll < config_.host_nostamp_frac) {
      host.stamp = HostStamp::kNoStamp;
    } else if (roll < config_.host_nostamp_frac +
                          config_.host_doublestamp_frac) {
      host.stamp = HostStamp::kDoubleStamp;
    } else if (roll < config_.host_nostamp_frac +
                          config_.host_doublestamp_frac +
                          config_.host_aliasstamp_frac) {
      host.stamp = HostStamp::kAliasStamp;
    }
    if (host.stamp == HostStamp::kDoubleStamp ||
        host.stamp == HostStamp::kAliasStamp) {
      // The alias is a router-side interface outside the customer prefix
      // (infrastructure space), so RR replies stamped with it cannot be
      // recognized by prefix membership — exactly the situation the Appx C
      // double-stamp heuristic exists for.
      host.alias = take_loopback(as);
      topo_.host_map_[host.alias] = host.id;
    }
    // The access router's gateway interface in this prefix, so traceroutes
    // and RR probes see a plausible last hop.
    host.gateway = gateway_for(host.attachment, prefix_id);
    topo_.host_map_[host.addr] = host.id;
    topo_.prefix_hosts_[prefix_id].push_back(host.id);
    topo_.hosts_.push_back(std::move(host));
    return static_cast<HostId>(topo_.hosts_.size() - 1);
  }

  void build_prefixes_and_hosts() {
    for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
      AsNode& node = topo_.ases_[i];
      const std::size_t prefix_count = node.tier == AsTier::kStub ? 1 : 2;
      for (std::size_t p = 0; p < prefix_count; ++p) {
        BgpPrefix bgp;
        bgp.id = static_cast<PrefixId>(topo_.prefixes_.size());
        bgp.prefix = plan_.allocate_customer_prefix();
        bgp.origin = node.asn;
        topo_.prefixes_.push_back(bgp);
        topo_.prefix_trie_.insert(bgp.prefix, bgp.id);
        topo_.prefix_hosts_.resize(topo_.prefixes_.size());
        node.customer_prefixes.push_back(bgp.id);
        std::uint32_t next_addr = AddressPlan::kGatewaySlots;
        for (std::size_t h = 0; h < config_.hosts_per_prefix; ++h) {
          add_host(i, bgp.id, next_addr);
        }
        prefix_cursor_[bgp.id] = next_addr;
      }
    }
    topo_.prefix_hosts_.resize(topo_.prefixes_.size());
  }

  // Adds a special always-on host (vantage point or probe host) to the
  // first customer prefix of the AS.
  HostId add_special_host(AsIndex as) {
    AsNode& node = topo_.ases_[as];
    if (node.customer_prefixes.empty()) {
      throw std::logic_error("AS without customer prefix");
    }
    const PrefixId prefix_id = node.customer_prefixes.front();
    std::uint32_t& next_addr = prefix_cursor_[prefix_id];
    const HostId id = add_host(as, prefix_id, next_addr);
    Host& host = topo_.hosts_[id];
    host.ping_responsive = true;
    host.rr_responsive = !node.filters_ip_options;
    host.stamp = HostStamp::kNormal;
    return id;
  }

  void place_vantage_points() {
    auto pick_hosts = [&](AsCategory preferred, AsTier fallback_tier,
                          std::size_t count, bool era_2016) {
      std::vector<AsIndex> candidates;
      for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
        if (topo_.ases_[i].category == preferred) candidates.push_back(i);
      }
      if (candidates.size() < count) {
        for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
          if (topo_.ases_[i].tier == fallback_tier &&
              topo_.ases_[i].category != preferred) {
            candidates.push_back(i);
          }
        }
      }
      host_rng_.shuffle(candidates);
      for (std::size_t k = 0; k < count && k < candidates.size(); ++k) {
        const HostId id = add_special_host(candidates[k]);
        topo_.hosts_[id].is_vantage_point = true;
        if (era_2016) {
          topo_.vps_2016_.push_back(id);
        } else {
          topo_.vps_.push_back(id);
        }
      }
    };
    pick_hosts(AsCategory::kColo, AsTier::kTransit, config_.num_vps,
               /*era_2016=*/false);
    pick_hosts(AsCategory::kEdu, AsTier::kStub, config_.num_vps_2016,
               /*era_2016=*/true);
  }

  void place_probe_hosts() {
    std::vector<AsIndex> stubs;
    for (AsIndex i = 0; i < topo_.ases_.size(); ++i) {
      if (topo_.ases_[i].tier == AsTier::kStub) stubs.push_back(i);
    }
    host_rng_.shuffle(stubs);
    const std::size_t count = std::min(config_.num_probe_hosts, stubs.size());
    for (std::size_t k = 0; k < count; ++k) {
      const HostId id = add_special_host(stubs[k]);
      topo_.hosts_[id].is_probe_host = true;
      topo_.probe_hosts_.push_back(id);
    }
  }

  const TopologyConfig& config_;
  Topology& topo_;
  Rng rng_;
  Rng as_rng_;
  Rng router_rng_;
  Rng host_rng_;
  AddressPlan plan_;
  std::vector<InfraState> infra_;
  std::unordered_map<PrefixId, std::uint32_t> prefix_cursor_;
  std::unordered_map<PrefixId, std::uint32_t> gateway_cursor_;
  // (router << 32 | prefix) -> gateway address.
  util::FlatMap<std::uint64_t, net::Ipv4Addr> gateway_map_;
};

}  // namespace detail

Topology TopologyBuilder::build(const TopologyConfig& config) {
  Topology topo;
  detail::BuildContext context(config, topo);
  context.run();
  return topo;
}

}  // namespace revtr::topology
