#include "topology/topology.h"

#include <algorithm>

namespace revtr::topology {

std::string to_string(AsTier tier) {
  switch (tier) {
    case AsTier::kTier1:
      return "tier1";
    case AsTier::kTransit:
      return "transit";
    case AsTier::kStub:
      return "stub";
  }
  return "?";
}

std::string to_string(AsCategory category) {
  switch (category) {
    case AsCategory::kGeneric:
      return "generic";
    case AsCategory::kColo:
      return "colo";
    case AsCategory::kEdu:
      return "edu";
    case AsCategory::kNren:
      return "nren";
  }
  return "?";
}

std::string to_string(RrStampPolicy policy) {
  switch (policy) {
    case RrStampPolicy::kEgress:
      return "egress";
    case RrStampPolicy::kIngress:
      return "ingress";
    case RrStampPolicy::kLoopback:
      return "loopback";
    case RrStampPolicy::kPrivate:
      return "private";
    case RrStampPolicy::kNoStamp:
      return "nostamp";
  }
  return "?";
}

std::string to_string(HostStamp stamp) {
  switch (stamp) {
    case HostStamp::kNormal:
      return "normal";
    case HostStamp::kNoStamp:
      return "nostamp";
    case HostStamp::kDoubleStamp:
      return "doublestamp";
    case HostStamp::kAliasStamp:
      return "aliasstamp";
  }
  return "?";
}

std::optional<InterfaceOwner> Topology::interface_at(
    net::Ipv4Addr addr) const {
  const auto it = interface_map_.find(addr);
  if (it == interface_map_.end()) return std::nullopt;
  return it->second;
}

std::optional<HostId> Topology::host_at(net::Ipv4Addr addr) const {
  const auto it = host_map_.find(addr);
  if (it == host_map_.end()) return std::nullopt;
  return it->second;
}

std::optional<PrefixId> Topology::prefix_of(net::Ipv4Addr addr) const {
  return prefix_trie_.lookup(addr);
}

std::optional<Asn> Topology::as_of(net::Ipv4Addr addr) const {
  const auto id = prefix_of(addr);
  if (!id) return std::nullopt;
  return prefixes_[*id].origin;
}

net::Ipv4Addr Topology::egress_addr(RouterId router, LinkId link_id) const {
  const Link& l = links_[link_id];
  return l.router_a == router ? l.addr_a : l.addr_b;
}

RouterId Topology::far_end(RouterId router, LinkId link_id) const {
  const Link& l = links_[link_id];
  return l.router_a == router ? l.router_b : l.router_a;
}

std::optional<LinkId> Topology::border_link(Asn from, Asn to) const {
  const auto links = border_links(from, to);
  if (links.empty()) return std::nullopt;
  return links.front();
}

std::span<const LinkId> Topology::border_links(Asn from, Asn to) const {
  const auto it = border_links_.find((std::uint64_t{from} << 32) | to);
  if (it == border_links_.end()) return {};
  return it->second;
}

std::span<const HostId> Topology::hosts_in_prefix(PrefixId prefix) const {
  if (prefix >= prefix_hosts_.size()) return {};
  return prefix_hosts_[prefix];
}

std::vector<net::Ipv4Addr> Topology::addresses_in_prefix(
    PrefixId prefix_id, std::size_t limit) const {
  std::vector<net::Ipv4Addr> addrs;
  const BgpPrefix& bgp = prefixes_[prefix_id];
  for (const HostId host_id : hosts_in_prefix(prefix_id)) {
    if (addrs.size() >= limit) return addrs;
    addrs.push_back(hosts_[host_id].addr);
  }
  const auto as_it = asn_to_index_.find(bgp.origin);
  if (as_it == asn_to_index_.end()) return addrs;
  for (const RouterId router_id : ases_[as_it->second].routers) {
    const Router& router = routers_[router_id];
    if (addrs.size() >= limit) return addrs;
    if (bgp.prefix.contains(router.loopback)) {
      addrs.push_back(router.loopback);
    }
    for (const LinkId link : router.links) {
      if (addrs.size() >= limit) return addrs;
      const net::Ipv4Addr addr = egress_addr(router_id, link);
      if (bgp.prefix.contains(addr)) addrs.push_back(addr);
    }
  }
  return addrs;
}

std::vector<net::Ipv4Addr> Topology::router_addresses(RouterId id) const {
  const Router& r = routers_[id];
  std::vector<net::Ipv4Addr> addrs;
  addrs.push_back(r.loopback);
  if (!r.private_alias.is_unspecified()) addrs.push_back(r.private_alias);
  for (LinkId link : r.links) {
    addrs.push_back(egress_addr(id, link));
  }
  if (id < router_gateways_.size()) {
    for (net::Ipv4Addr gateway : router_gateways_[id]) {
      addrs.push_back(gateway);
    }
  }
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  return addrs;
}

bool Topology::same_router(net::Ipv4Addr a, net::Ipv4Addr b) const {
  const auto ia = interface_at(a);
  const auto ib = interface_at(b);
  return ia && ib && ia->router == ib->router;
}

}  // namespace revtr::topology
