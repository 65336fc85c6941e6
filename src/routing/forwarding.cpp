#include "routing/forwarding.h"

#include "util/rng.h"

namespace revtr::routing {

namespace {
using topology::AsIndex;
using topology::Asn;
using topology::HostId;
using topology::kInvalidId;
using topology::LinkId;
using topology::RouterId;
}  // namespace

ForwardingPlane::ForwardingPlane(const topology::Topology& topo,
                                 const BgpTable& bgp,
                                 const IntraRouting& intra)
    : topo_(topo), bgp_(bgp), intra_(intra) {}

void ForwardingPlane::build_all(std::size_t threads) const {
  bgp_.build_all(threads);
  intra_.build_all(threads);
}

RouterId ForwardingPlane::origin_router(HostId host) const {
  return topo_.host(host).attachment;
}

Asn ForwardingPlane::next_as(AsIndex dest_as, AsIndex as_index,
                             net::Ipv4Addr src, net::Ipv4Addr dst) const {
  const auto& column = bgp_.column(dest_as);
  const Asn best = column.next(as_index);
  const Asn alt = column.alt(as_index);
  const auto& node = topo_.as_at(as_index);
  if (node.source_sensitive && alt != 0) {
    // Consistent per (AS, src, dst): half the sources take the alternate.
    if (util::mix_hash(src.value(), dst.value(), node.asn) & 1) {
      return alt;
    }
  }
  return best;
}

LinkId ForwardingPlane::choose_link(const IntraRouting::NextHops& hops,
                                    const topology::Router& router,
                                    const PacketContext& ctx) const {
  if (!hops.has_ecmp()) return hops.primary;
  // Ordinary routers follow the unique IGP-optimal path: intradomain
  // forwarding is symmetric and destination-based (§4.4). Only load
  // balancers and source-sensitive routers spill onto the equal-hop
  // alternate.
  std::uint64_t selector;
  if (router.per_packet_lb && ctx.has_options) {
    // Option packets traverse the slow path and are balanced randomly.
    selector = util::mix_hash(ctx.packet_salt, router.id);
  } else if (router.per_packet_lb) {
    // Fast-path flow hashing; Paris traceroute keeps the flow key constant
    // so one trace still sees one branch.
    selector = util::mix_hash(ctx.flow_key, router.id);
  } else if (router.source_sensitive) {
    selector = util::mix_hash(ctx.src.value(), ctx.dst.value(), router.id);
  } else {
    return hops.primary;
  }
  return (selector & 1) ? hops.alternate : hops.primary;
}

Decision ForwardingPlane::step_toward_router(RouterId current, RouterId target,
                                             const PacketContext& ctx) const {
  const auto hops = intra_.next_hops(current, target);
  if (!hops.reachable()) return Decision{};
  const LinkId link = choose_link(hops, topo_.router(current), ctx);
  Decision decision;
  decision.kind = Decision::Kind::kForwardLink;
  decision.link = link;
  decision.next_router = topo_.far_end(current, link);
  return decision;
}

PassState ForwardingPlane::begin_pass(net::Ipv4Addr dst) const {
  PassState pass;
  ResolvedDst& resolved = pass.dst;
  resolved.iface = topo_.interface_at(dst);
  resolved.prefix = topo_.prefix_of(dst);
  if (resolved.prefix) {
    resolved.dest_asn = topo_.prefix(*resolved.prefix).origin;
    resolved.dest_as = topo_.index_of(resolved.dest_asn);
    resolved.host = topo_.host_at(dst);
  }
  return pass;
}

Decision ForwardingPlane::decide(RouterId current,
                                 const PacketContext& ctx) const {
  PassState pass = begin_pass(ctx.dst);
  return decide(current, ctx, pass);
}

const AsEgress& ForwardingPlane::egress(const topology::Router& router,
                                        const PacketContext& ctx,
                                        PassState& pass) const {
  AsEgress& egress = pass.egress;
  if (egress.as == router.as_index) return egress;
  egress = AsEgress{};
  egress.as = router.as_index;
  const Asn next =
      next_as(pass.dst.dest_as, router.as_index, ctx.src, ctx.dst);
  if (next == 0) return egress;
  const auto borders = topo_.border_links(router.asn, next);
  if (borders.empty()) return egress;
  // Among parallel interconnects, most traffic crosses a per-AS-pair
  // primary link (shared by both directions, like geographically natural
  // crossings), but a minority of destination prefixes egress elsewhere
  // (hot-potato). The choice depends only on the destination, so Reverse
  // Traceroute's destination-based assumption holds, yet forward and
  // reverse flows of one pair can cross different routers — a real source
  // of router-level interdomain asymmetry (§6.2).
  const topology::PrefixId prefix = *pass.dst.prefix;
  LinkId border = borders[0];
  if (borders.size() > 1) {
    const Asn low = std::min<Asn>(router.asn, next);
    const Asn high = std::max<Asn>(router.asn, next);
    const std::uint64_t primary = util::mix_hash(low, high, 0xa5a5);
    if (util::mix_hash(router.asn, next, prefix) % 100 < 35) {
      border = borders[util::mix_hash(next, prefix, 0x0ff) % borders.size()];
    } else {
      border = borders[primary % borders.size()];
    }
  }
  const auto& link = topo_.link(border);
  egress.link = border;
  egress.router = topo_.router(link.router_a).asn == router.asn
                      ? link.router_a
                      : link.router_b;
  return egress;
}

Decision ForwardingPlane::decide(RouterId current, const PacketContext& ctx,
                                 PassState& pass) const {
  const ResolvedDst& dst = pass.dst;
  // A router always recognizes its own interface addresses, even when the
  // covering prefix is announced by a neighbor (interdomain /30s, Fig 4).
  if (dst.iface && dst.iface->router == current) {
    Decision decision;
    decision.kind = Decision::Kind::kDeliverRouter;
    return decision;
  }

  if (!dst.prefix) return Decision{};  // Unroutable (e.g. private space).
  const auto& current_router = topo_.router(current);

  if (current_router.asn != dst.dest_asn) {
    // --- Interdomain step: toward this AS's egress, then across it. ---
    const AsEgress& out = egress(current_router, ctx, pass);
    if (out.link == kInvalidId) return Decision{};
    if (out.router == current) {
      Decision decision;
      decision.kind = Decision::Kind::kForwardLink;
      decision.link = out.link;
      decision.next_router = topo_.far_end(current, out.link);
      return decision;
    }
    return step_toward_router(current, out.router, ctx);
  }

  // --- The packet is inside the destination prefix's origin AS. ---
  if (const auto& host_id = dst.host) {
    const auto& host = topo_.host(*host_id);
    if (host.attachment == current) {
      Decision decision;
      decision.kind = Decision::Kind::kDeliverHost;
      decision.host = *host_id;
      return decision;
    }
    return step_toward_router(current, host.attachment, ctx);
  }

  if (const auto& iface = dst.iface) {
    const auto& owner = topo_.router(iface->router);
    if (iface->router == current) {
      Decision decision;
      decision.kind = Decision::Kind::kDeliverRouter;
      return decision;
    }
    if (owner.asn == current_router.asn) {
      return step_toward_router(current, iface->router, ctx);
    }
    // The /30 came from this AS's space but the owning interface sits on
    // the neighbor's border router (Fig 4). Route to our end of that link,
    // then hand the packet across.
    if (iface->link != kInvalidId) {
      const RouterId our_side = topo_.far_end(iface->router, iface->link);
      if (topo_.router(our_side).asn == current_router.asn) {
        if (our_side == current) {
          Decision decision;
          decision.kind = Decision::Kind::kForwardLink;
          decision.link = iface->link;
          decision.next_router = iface->router;
          return decision;
        }
        return step_toward_router(current, our_side, ctx);
      }
    }
    return Decision{};
  }

  // Address inside an announced prefix but with no host/interface behind it.
  return Decision{};
}

std::vector<Asn> ForwardingPlane::as_level_route(AsIndex src_as,
                                                 AsIndex dst_as,
                                                 net::Ipv4Addr src,
                                                 net::Ipv4Addr dst) const {
  std::vector<Asn> path;
  AsIndex current = src_as;
  const Asn dest_asn = topo_.as_at(dst_as).asn;
  for (std::size_t steps = 0; steps <= topo_.num_ases(); ++steps) {
    const Asn current_asn = topo_.as_at(current).asn;
    path.push_back(current_asn);
    if (current_asn == dest_asn) return path;
    const Asn next = next_as(dst_as, current, src, dst);
    if (next == 0) return {};
    current = topo_.index_of(next);
  }
  return {};
}

}  // namespace revtr::routing
