#include "asmap/asmap.h"

#include <functional>

#include "util/rng.h"

namespace revtr::asmap {

namespace {
std::uint64_t pair_key(topology::Asn a, topology::Asn b) {
  return (std::uint64_t{a} << 32) | b;
}
}  // namespace

IpToAs::IpToAs(const topology::Topology& topo, double interconnect_coverage,
               std::uint64_t seed) {
  for (const auto& prefix : topo.prefixes()) {
    trie_.insert(prefix.prefix, prefix.origin);
  }
  if (interconnect_coverage <= 0) return;
  util::Rng rng(seed);
  for (const auto& link : topo.links()) {
    if (!link.interdomain) continue;
    // Register each border interface under its operating AS when the
    // (simulated) interconnect datasets cover it.
    const auto fix = [&](net::Ipv4Addr addr, topology::RouterId router) {
      const auto mapped = trie_.lookup(addr);
      const topology::Asn truth = topo.router(router).asn;
      if (mapped && *mapped != truth && rng.chance(interconnect_coverage)) {
        interconnect_[addr] = truth;
      }
    };
    fix(link.addr_a, link.router_a);
    fix(link.addr_b, link.router_b);
  }
}

std::optional<topology::Asn> IpToAs::lookup(net::Ipv4Addr addr) const {
  if (addr.is_private() || addr.is_loopback()) return std::nullopt;
  const auto it = interconnect_.find(addr);
  if (it != interconnect_.end()) return it->second;
  return trie_.lookup(addr);
}

std::vector<topology::Asn> IpToAs::as_path(
    std::span<const net::Ipv4Addr> hops) const {
  std::vector<topology::Asn> path;
  for (const auto hop : hops) {
    const auto asn = lookup(hop);
    if (!asn) continue;
    if (path.empty() || path.back() != *asn) path.push_back(*asn);
  }
  return path;
}

bool IpToAs::has_unmappable_hop(std::span<const net::Ipv4Addr> hops) const {
  for (const auto hop : hops) {
    if (!lookup(hop)) return true;
  }
  return false;
}

AsRelationships::AsRelationships(const topology::Topology& topo)
    : topo_(topo), cone_sizes_(topo.num_ases(), 0) {
  for (const auto& node : topo.ases()) {
    for (const auto customer : node.customers) {
      relations_[pair_key(node.asn, customer)] = Rel::kProvider;
      relations_[pair_key(customer, node.asn)] = Rel::kCustomer;
    }
    for (const auto peer : node.peers) {
      relations_[pair_key(node.asn, peer)] = Rel::kPeer;
    }
  }
  // One DFS down customer links per AS. Cones can share sub-cones, so each
  // walk counts distinct ASes; `seen` holds the root index that last
  // visited an AS, which spares clearing it between walks.
  const std::size_t n = topo.num_ases();
  std::vector<std::size_t> seen(n, n);
  std::vector<topology::AsIndex> stack;
  for (std::size_t root = 0; root < n; ++root) {
    std::uint32_t count = 0;
    stack.assign(1, static_cast<topology::AsIndex>(root));
    while (!stack.empty()) {
      const topology::AsIndex current = stack.back();
      stack.pop_back();
      if (seen[current] == root) continue;
      seen[current] = root;
      ++count;
      for (const auto customer : topo.as_at(current).customers) {
        stack.push_back(topo.index_of(customer));
      }
    }
    cone_sizes_[root] = count;
  }
}

AsRelationships::Rel AsRelationships::relation(topology::Asn a,
                                               topology::Asn b) const {
  const auto it = relations_.find(pair_key(a, b));
  return it == relations_.end() ? Rel::kNone : it->second;
}

std::size_t AsRelationships::customer_cone_size(topology::Asn asn) const {
  return cone_sizes_[topo_.index_of(asn)];
}

std::size_t AsRelationships::provider_count(topology::Asn asn) const {
  return topo_.as_node(asn).providers.size();
}

bool AsRelationships::is_small(topology::Asn asn) const {
  return provider_count(asn) <= 5 && customer_cone_size(asn) <= 10;
}

bool AsRelationships::suspicious_link(topology::Asn s,
                                      topology::Asn p) const {
  if (adjacent(s, p)) return false;
  if (!is_small(s)) return false;
  for (const auto provider : topo_.as_node(s).providers) {
    // Is p a provider of this provider?
    if (relation(p, provider) == Rel::kProvider) return true;
  }
  return false;
}

std::vector<std::size_t> AsRelationships::suspicious_links_in(
    std::span<const topology::Asn> path) const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!topo_.has_as(path[i]) || !topo_.has_as(path[i + 1])) continue;
    if (suspicious_link(path[i], path[i + 1]) ||
        suspicious_link(path[i + 1], path[i])) {
      indices.push_back(i);
    }
  }
  return indices;
}

}  // namespace revtr::asmap
