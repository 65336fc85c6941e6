// Container and query interface for the generated Internet.
//
// Owns all ASes, routers, links, prefixes, and hosts, plus the lookup
// structures the simulator and the measurement system share: interface
// address resolution, longest-prefix matching to BGP prefixes, and the
// border-link table between adjacent ASes.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix_trie.h"
#include "topology/types.h"
#include "util/flat_map.h"

namespace revtr::topology {

namespace detail {
class BuildContext;
}  // namespace detail

class Topology {
 public:
  // --- Entity access. ---
  std::size_t num_ases() const noexcept { return ases_.size(); }
  std::size_t num_routers() const noexcept { return routers_.size(); }
  std::size_t num_links() const noexcept { return links_.size(); }
  std::size_t num_prefixes() const noexcept { return prefixes_.size(); }
  std::size_t num_hosts() const noexcept { return hosts_.size(); }

  const AsNode& as_at(AsIndex index) const { return ases_[index]; }
  const Router& router(RouterId id) const { return routers_[id]; }
  const Link& link(LinkId id) const { return links_[id]; }
  const BgpPrefix& prefix(PrefixId id) const { return prefixes_[id]; }
  const Host& host(HostId id) const { return hosts_[id]; }

  std::span<const AsNode> ases() const noexcept { return ases_; }
  std::span<const Router> routers() const noexcept { return routers_; }
  std::span<const Link> links() const noexcept { return links_; }
  std::span<const BgpPrefix> prefixes() const noexcept { return prefixes_; }
  std::span<const Host> hosts() const noexcept { return hosts_; }

  // --- ASN <-> dense index. ---
  AsIndex index_of(Asn asn) const { return asn_to_index_.at(asn); }
  bool has_as(Asn asn) const { return asn_to_index_.contains(asn); }
  const AsNode& as_node(Asn asn) const { return ases_[index_of(asn)]; }

  // --- Address resolution. ---
  // Which router interface owns this address (loopback, /30 end, gateway).
  std::optional<InterfaceOwner> interface_at(net::Ipv4Addr addr) const;
  // Which host owns this address (primary or alias interface).
  std::optional<HostId> host_at(net::Ipv4Addr addr) const;
  // Longest-prefix match against announced BGP prefixes.
  std::optional<PrefixId> prefix_of(net::Ipv4Addr addr) const;
  // Origin AS of the longest matching prefix.
  std::optional<Asn> as_of(net::Ipv4Addr addr) const;

  // --- Router-level navigation. ---
  // The interface address `router` uses when sending over `link`.
  net::Ipv4Addr egress_addr(RouterId router, LinkId link) const;
  // The router on the far side of `link` from `router`.
  RouterId far_end(RouterId router, LinkId link) const;
  // First interdomain link connecting two adjacent ASes, if any.
  std::optional<LinkId> border_link(Asn from, Asn to) const;
  // All parallel interconnects between two adjacent ASes. Large networks
  // peer at multiple locations; which one a packet crosses depends on the
  // destination, which is a real source of router-level path asymmetry.
  std::span<const LinkId> border_links(Asn from, Asn to) const;

  // --- Measurement inventory. ---
  std::span<const HostId> vantage_points() const noexcept { return vps_; }
  std::span<const HostId> vantage_points_2016() const noexcept {
    return vps_2016_;
  }
  std::span<const HostId> probe_hosts() const noexcept { return probe_hosts_; }
  // All non-VP, non-probe hosts of a prefix (the "hitlist" entries).
  std::span<const HostId> hosts_in_prefix(PrefixId prefix) const;

  // Probe-able addresses inside a prefix: host addresses first, then router
  // loopbacks and link interfaces of the origin AS that fall inside it.
  // This is the hitlist view for infrastructure prefixes, whose
  // "destinations" are routers.
  std::vector<net::Ipv4Addr> addresses_in_prefix(PrefixId prefix,
                                                 std::size_t limit) const;

  // Ground truth for evaluation: all interface addresses of a router
  // (loopback, link interfaces, gateways, private alias).
  std::vector<net::Ipv4Addr> router_addresses(RouterId id) const;
  // Ground-truth alias test: do two addresses belong to the same router?
  bool same_router(net::Ipv4Addr a, net::Ipv4Addr b) const;

 private:
  friend class TopologyBuilder;
  friend class detail::BuildContext;

  std::vector<AsNode> ases_;
  std::vector<Router> routers_;
  std::vector<Link> links_;
  std::vector<BgpPrefix> prefixes_;
  std::vector<Host> hosts_;

  // Open-addressing tables (util::FlatMap): these are the per-packet lookup
  // maps on the simulator's forwarding hot path.
  util::FlatMap<Asn, AsIndex> asn_to_index_;
  util::FlatMap<net::Ipv4Addr, InterfaceOwner> interface_map_;
  util::FlatMap<net::Ipv4Addr, HostId> host_map_;
  net::PrefixTrie<PrefixId> prefix_trie_;
  // (from_as << 32 | to_as) -> parallel interconnect links.
  util::FlatMap<std::uint64_t, std::vector<LinkId>> border_links_;
  std::vector<std::vector<net::Ipv4Addr>> router_gateways_;  // By RouterId.
  std::vector<std::vector<HostId>> prefix_hosts_;  // Indexed by PrefixId.

  std::vector<HostId> vps_;
  std::vector<HostId> vps_2016_;
  std::vector<HostId> probe_hosts_;
};

}  // namespace revtr::topology
