// IP-to-AS mapping and AS-relationship knowledge (Appx B.2).
//
// IpToAs resolves addresses to origin ASes via longest-prefix match over the
// announced prefixes, exactly as the paper does with RouteViews-derived
// data; private addresses are unmappable, producing the "*" gaps of §5.2.2.
//
// AsRelationships plays the role of CAIDA's AS-relationship/customer-cone
// dataset: it exposes relationship queries, customer cone sizes (Fig 8b,
// Table 7) and the suspicious-link test used to flag reverse traceroutes
// that probably skipped an unresponsive AS hop (§5.2.2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "net/prefix_trie.h"
#include "topology/topology.h"

namespace revtr::asmap {

class IpToAs {
 public:
  // `interconnect_coverage` models the EuroIX/PeeringDB-style datasets the
  // paper's mapping method (Arnold et al., Appx B.2) consults first: they
  // resolve most interconnection /30s to the AS that operates the router,
  // not the AS that allocated the prefix. 0 disables the correction and
  // leaves pure longest-prefix mapping (the Fig 4 artifact everywhere).
  explicit IpToAs(const topology::Topology& topo,
                  double interconnect_coverage = 0.9,
                  std::uint64_t seed = 0x1b2a);

  // Origin AS of the longest matching announced prefix; nullopt for
  // private/unannounced space.
  std::optional<topology::Asn> lookup(net::Ipv4Addr addr) const;

  // Collapses an IP-level path into an AS-level path: consecutive
  // duplicates merge, unmappable hops are skipped.
  std::vector<topology::Asn> as_path(
      std::span<const net::Ipv4Addr> hops) const;

  // True when the IP-level path contains a hop that cannot be mapped
  // (private address etc.) - one of the §5.2.2 incompleteness signals.
  bool has_unmappable_hop(std::span<const net::Ipv4Addr> hops) const;

 private:
  net::PrefixTrie<topology::Asn> trie_;
  // Interconnect-dataset overrides: address -> operating AS.
  std::unordered_map<net::Ipv4Addr, topology::Asn> interconnect_;
};

class AsRelationships {
 public:
  enum class Rel : std::uint8_t { kNone, kProvider, kCustomer, kPeer };

  explicit AsRelationships(const topology::Topology& topo);

  // Relationship of `a` toward `b`: kProvider means "a is b's provider".
  Rel relation(topology::Asn a, topology::Asn b) const;
  bool adjacent(topology::Asn a, topology::Asn b) const {
    return relation(a, b) != Rel::kNone;
  }

  // |customer cone|: the AS itself plus all ASes reachable downward through
  // customer links (CAIDA's definition). Every cone is sized at
  // construction, so this is a plain read, safe from any thread.
  std::size_t customer_cone_size(topology::Asn asn) const;
  std::size_t provider_count(topology::Asn asn) const;

  // "Small" AS per §5.2.2: <= 5 providers and <= 10 ASes in its cone.
  bool is_small(topology::Asn asn) const;

  // Suspicious AS link: a small AS s adjacent in a measured path to a
  // provider p of one of s's providers, with no known relationship between
  // s and p — evidence that an intermediate AS hop went missing.
  bool suspicious_link(topology::Asn s, topology::Asn p) const;

  // Scans an AS path and returns indices i where (path[i], path[i+1]) is
  // suspicious in either orientation.
  std::vector<std::size_t> suspicious_links_in(
      std::span<const topology::Asn> path) const;

 private:
  const topology::Topology& topo_;
  std::unordered_map<std::uint64_t, Rel> relations_;
  std::vector<std::uint32_t> cone_sizes_;  // By AS index.
};

}  // namespace revtr::asmap
