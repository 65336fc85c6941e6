// Per-hop forwarding decisions.
//
// Combines the BGP table (interdomain) and intra-AS shortest paths into the
// single question the simulator asks at every hop: given this packet at this
// router, what happens next? The answer reflects all the phenomena the
// paper's techniques must cope with:
//  * destination-based forwarding by default (Insight 1.1),
//  * AS-level violations for source-sensitive ASes (Appx E),
//  * per-flow ECMP for ordinary packets and per-packet/random ECMP for
//    packets carrying IP options (Appx E's load-balancer discussion),
//  * inter-AS /30s owned by either side (Fig 4 ingress ambiguity).
#pragma once

#include <cstdint>

#include "net/ipv4.h"
#include "routing/bgp.h"
#include "routing/intra.h"
#include "topology/topology.h"

namespace revtr::routing {

struct PacketContext {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint64_t flow_key = 0;
  bool has_options = false;
  // Fresh random value per packet; per-packet load balancers mix it so each
  // option-carrying packet can take a different equal-cost branch.
  std::uint64_t packet_salt = 0;
};

struct Decision {
  enum class Kind : std::uint8_t {
    kForwardLink,    // Send over `link` to `next_router`.
    kDeliverHost,    // `host` hangs off the current router; hand it over.
    kDeliverRouter,  // The current router itself owns the destination.
    kDrop,           // No route / unknown destination.
  };

  Kind kind = Kind::kDrop;
  topology::LinkId link = topology::kInvalidId;
  topology::RouterId next_router = topology::kInvalidId;
  topology::HostId host = topology::kInvalidId;
};

// Destination-derived facts that are invariant across every hop of one
// packet: which interface/host owns the address, its longest-match prefix,
// and the origin AS. The simulator resolves them once per forwarding pass
// instead of re-walking the prefix trie and address maps at each router.
struct ResolvedDst {
  std::optional<topology::InterfaceOwner> iface;
  std::optional<topology::PrefixId> prefix;
  topology::Asn dest_asn = 0;
  topology::AsIndex dest_as = topology::kInvalidId;
  std::optional<topology::HostId> host;
};

// Where one packet leaves one AS toward its destination's AS: the border
// link and the router on this AS's side of it. `link` is kInvalidId when
// the AS has no route out.
struct AsEgress {
  topology::AsIndex as = topology::kInvalidId;  // The AS this egress is of.
  topology::LinkId link = topology::kInvalidId;
  topology::RouterId router = topology::kInvalidId;
};

// What one forwarding pass works out once and reuses at every hop: the
// destination facts, resolved when the pass starts, and the egress of the
// AS the packet is in, resolved when the pass enters that AS. A pass stays
// in one AS for consecutive hops, so this one-entry memo resolves each AS's
// egress once per visit. The egress depends on the packet's source and
// destination, so a PassState serves one pass: start each with begin_pass.
struct PassState {
  ResolvedDst dst;
  AsEgress egress;
};

class ForwardingPlane {
 public:
  ForwardingPlane(const topology::Topology& topo, const BgpTable& bgp,
                  const IntraRouting& intra);

  // A fresh pass toward `dst`: its destination facts resolved, no egress
  // resolved yet.
  PassState begin_pass(net::Ipv4Addr dst) const;

  // The next step of the pass `pass` (begun for ctx.dst) at `current`.
  Decision decide(topology::RouterId current, const PacketContext& ctx,
                  PassState& pass) const;
  // Convenience for single-shot queries: a fresh pass, one decision.
  Decision decide(topology::RouterId current, const PacketContext& ctx) const;

  // Builds every routing table the plane consults now, fanned out over
  // `threads` threads (BgpTable::build_all, IntraRouting::build_all). A
  // caller about to cross them all from several threads (a full ingress
  // survey) runs this first.
  void build_all(std::size_t threads) const;

  // The first router a packet from this host traverses.
  topology::RouterId origin_router(topology::HostId host) const;

  // Convenience for evaluation: the AS-level route (list of ASNs) a packet
  // from `src_as` to `dst_as` follows, accounting for source sensitivity.
  std::vector<topology::Asn> as_level_route(topology::AsIndex src_as,
                                            topology::AsIndex dst_as,
                                            net::Ipv4Addr src,
                                            net::Ipv4Addr dst) const;

 private:
  // Resolves the next-hop AS for `as_index` toward the destination AS,
  // applying the AS's source-sensitive alternate choice when configured.
  topology::Asn next_as(topology::AsIndex dest_as, topology::AsIndex as_index,
                        net::Ipv4Addr src, net::Ipv4Addr dst) const;

  // The egress of `router`'s AS for this pass, from the memo when the pass
  // resolved it at an earlier hop.
  const AsEgress& egress(const topology::Router& router,
                         const PacketContext& ctx, PassState& pass) const;

  // Chooses between ECMP next hops at `router`.
  topology::LinkId choose_link(const IntraRouting::NextHops& hops,
                               const topology::Router& router,
                               const PacketContext& ctx) const;

  Decision step_toward_router(topology::RouterId current,
                              topology::RouterId target,
                              const PacketContext& ctx) const;

  const topology::Topology& topo_;
  const BgpTable& bgp_;
  const IntraRouting& intra_;
};

}  // namespace revtr::routing
