#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "atlas/atlas.h"
#include "probing/prober.h"
#include "routing/forwarding.h"
#include "sim/network.h"
#include "topology/builder.h"
#include "util/rng.h"
#include "vpselect/ingress.h"

namespace revtr::sim {
namespace {

using net::Ipv4Addr;
using net::Packet;
using topology::HostId;
using topology::Topology;
using topology::TopologyBuilder;
using topology::TopologyConfig;

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 21;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  return config;
}

class SimFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config()));
    bgp_ = std::make_unique<routing::BgpTable>(*topo_);
    intra_ = std::make_unique<routing::IntraRouting>(*topo_);
    plane_ = std::make_unique<routing::ForwardingPlane>(*topo_, *bgp_, *intra_);
  }
  static void TearDownTestSuite() {
    plane_.reset();
    intra_.reset();
    bgp_.reset();
    topo_.reset();
  }

  Network make_network() { return Network(*topo_, *plane_, 3); }

  // A destination host guaranteed responsive with the given stamp policy.
  static HostId find_host(bool rr_responsive,
                          topology::HostStamp stamp =
                              topology::HostStamp::kNormal) {
    for (const auto& host : topo_->hosts()) {
      if (host.is_vantage_point || host.is_probe_host) continue;
      if (host.ping_responsive && host.rr_responsive == rr_responsive &&
          host.stamp == stamp) {
        return host.id;
      }
    }
    throw std::logic_error("no matching host");
  }

  static std::unique_ptr<Topology> topo_;
  static std::unique_ptr<routing::BgpTable> bgp_;
  static std::unique_ptr<routing::IntraRouting> intra_;
  static std::unique_ptr<routing::ForwardingPlane> plane_;
};

std::unique_ptr<Topology> SimFixture::topo_;
std::unique_ptr<routing::BgpTable> SimFixture::bgp_;
std::unique_ptr<routing::IntraRouting> SimFixture::intra_;
std::unique_ptr<routing::ForwardingPlane> SimFixture::plane_;

TEST_F(SimFixture, PingResponsiveHostAnswers) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.reply->type, net::IcmpType::kEchoReply);
  EXPECT_EQ(result.reply->src, topo_->host(dst).addr);
  EXPECT_EQ(result.reply->dst, topo_->host(vp).addr);
  EXPECT_GT(result.rtt_us, 0);
}

TEST_F(SimFixture, UnresponsiveHostSilent) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!host.ping_responsive) {
      Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                            host.addr, 1, 1);
      EXPECT_FALSE(network.send(probe, vp).answered());
      return;
    }
  }
  GTEST_SKIP() << "all hosts responsive in this topology";
}

TEST_F(SimFixture, RrUnresponsiveHostAnswersPingOnly) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/false);
  Packet ping = net::make_echo_request(topo_->host(vp).addr,
                                       topo_->host(dst).addr, 1, 1);
  EXPECT_TRUE(network.send(ping, vp).answered());
  Packet rr_probe = ping;
  rr_probe.rr = net::RecordRouteOption{};
  EXPECT_FALSE(network.send(rr_probe, vp).answered());
}

TEST_F(SimFixture, RecordRouteAccumulatesHops) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  ASSERT_TRUE(result.reply->rr);
  EXPECT_GT(result.reply->rr->size(), 0u);
}

TEST_F(SimFixture, NormalHostStampsItsOwnAddress) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(true, topology::HostStamp::kNormal);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  const auto slots = result.reply->rr->to_vector();
  // Unless the forward path ate all nine slots, the destination address
  // must appear.
  if (!result.reply->rr->full() ||
      std::find(slots.begin(), slots.end(), topo_->host(dst).addr) !=
          slots.end()) {
    EXPECT_NE(std::find(slots.begin(), slots.end(), topo_->host(dst).addr),
              slots.end());
  }
}

TEST_F(SimFixture, DoubleStampHostStampsAliasTwice) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  HostId dst;
  try {
    dst = find_host(true, topology::HostStamp::kDoubleStamp);
  } catch (const std::logic_error&) {
    GTEST_SKIP() << "no double-stamp host generated";
  }
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  const auto slots = result.reply->rr->to_vector();
  const auto alias = topo_->host(dst).alias;
  int adjacent_doubles = 0;
  for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
    if (slots[i] == alias && slots[i + 1] == alias) ++adjacent_doubles;
  }
  if (!result.reply->rr->full()) {
    EXPECT_EQ(adjacent_doubles, 1);
    // And the probed destination address itself never appears.
    EXPECT_EQ(std::find(slots.begin(), slots.end(), topo_->host(dst).addr),
              slots.end());
  }
}

TEST_F(SimFixture, SpoofedProbeReplyArrivesAtSpoofedSource) {
  auto network = make_network();
  // Find a VP that may spoof.
  HostId spoofer = topology::kInvalidId;
  for (HostId vp : topo_->vantage_points()) {
    if (network.can_spoof(vp)) {
      spoofer = vp;
      break;
    }
  }
  ASSERT_NE(spoofer, topology::kInvalidId);
  const HostId source = topo_->vantage_points()[0] == spoofer
                            ? topo_->vantage_points()[1]
                            : topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(source).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, spoofer);
  ASSERT_TRUE(result.answered());
  // The reply lands at `source`, not at the spoofing VP.
  EXPECT_EQ(result.reply->dst, topo_->host(source).addr);
}

TEST_F(SimFixture, NonVantageHostsCannotSpoof) {
  auto network = make_network();
  const HostId ordinary = topo_->probe_hosts()[0];
  EXPECT_FALSE(network.can_spoof(ordinary));
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(net::Ipv4Addr(1, 2, 3, 4),
                                        topo_->host(dst).addr, 1, 1);
  EXPECT_FALSE(network.send(probe, ordinary).answered());
}

TEST_F(SimFixture, TtlExpiryYieldsTimeExceededFromIngressInterface) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1, 2);
  const auto result = network.send(probe, vp);
  if (!result.answered()) {
    GTEST_SKIP() << "hop 2 router is traceroute-silent";
  }
  EXPECT_EQ(result.reply->type, net::IcmpType::kTimeExceeded);
  EXPECT_EQ(result.reply->quoted_dst, topo_->host(dst).addr);
  // The source must be a known interface address.
  EXPECT_TRUE(topo_->interface_at(result.reply->src).has_value());
}

TEST_F(SimFixture, TtlOneExpiresAtFirstRouter) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1, 1);
  const auto result = network.send(probe, vp);
  if (!result.answered()) {
    GTEST_SKIP() << "access router is traceroute-silent";
  }
  EXPECT_EQ(result.reply->type, net::IcmpType::kTimeExceeded);
  const auto owner = topo_->interface_at(result.reply->src);
  ASSERT_TRUE(owner);
  EXPECT_EQ(owner->router, topo_->host(vp).attachment);
}

TEST_F(SimFixture, SufficientTtlDelivers) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1, 64);
  const auto result = network.send(probe, vp);
  ASSERT_TRUE(result.answered());
  EXPECT_EQ(result.reply->type, net::IcmpType::kEchoReply);
}

TEST_F(SimFixture, RouterInterfaceAnswersPing) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  // Find a responsive router and probe its loopback.
  for (const auto& router : topo_->routers()) {
    if (!router.responds_ping || !router.responds_options) continue;
    if (topo_->as_node(router.asn).filters_ip_options) continue;
    Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                          router.loopback, 1, 1);
    probe.rr = net::RecordRouteOption{};
    const auto result = network.send(probe, vp);
    if (!result.answered()) continue;  // Path artifacts possible; try next.
    EXPECT_EQ(result.reply->type, net::IcmpType::kEchoReply);
    return;
  }
  FAIL() << "no router answered";
}

TEST_F(SimFixture, RepliesTraverseReversePathStamps) {
  // A spoofed RR probe from a VP near the destination must reveal hops on
  // the reverse path toward the source: slots recorded after the
  // destination's position belong to the D->S direction.
  auto network = make_network();
  HostId spoofer = topology::kInvalidId;
  for (HostId vp : topo_->vantage_points()) {
    if (network.can_spoof(vp)) spoofer = vp;
  }
  ASSERT_NE(spoofer, topology::kInvalidId);
  const HostId source = topo_->vantage_points()[0] == spoofer
                            ? topo_->vantage_points()[1]
                            : topo_->vantage_points()[0];
  // Probe a destination in the spoofer's own AS so the forward path is
  // short and reverse slots remain.
  HostId dst = topology::kInvalidId;
  for (const auto& host : topo_->hosts()) {
    if (host.asn == topo_->host(spoofer).asn && host.rr_responsive &&
        host.stamp == topology::HostStamp::kNormal && !host.is_vantage_point) {
      dst = host.id;
      break;
    }
  }
  if (dst == topology::kInvalidId) GTEST_SKIP() << "no in-AS destination";
  Packet probe = net::make_echo_request(topo_->host(source).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  const auto result = network.send(probe, spoofer);
  ASSERT_TRUE(result.answered());
  const auto slots = result.reply->rr->to_vector();
  const auto dst_it =
      std::find(slots.begin(), slots.end(), topo_->host(dst).addr);
  ASSERT_NE(dst_it, slots.end()) << "destination did not stamp";
  EXPECT_GT(slots.end() - dst_it, 1) << "no reverse hops revealed";
}

TEST_F(SimFixture, OptionFilteringAsDropsRrProbes) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!topo_->as_node(host.asn).filters_ip_options) continue;
    if (!host.ping_responsive) continue;
    Packet ping = net::make_echo_request(topo_->host(vp).addr, host.addr,
                                         1, 1);
    const auto plain = network.send(ping, vp);
    Packet rr_probe = ping;
    rr_probe.rr = net::RecordRouteOption{};
    const auto with_options = network.send(rr_probe, vp);
    EXPECT_FALSE(with_options.answered());
    (void)plain;  // Plain ping may or may not succeed; options never do.
    return;
  }
  GTEST_SKIP() << "no option-filtering AS generated";
}

TEST_F(SimFixture, TimestampPrespecStampsInOrder) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  // First discover the path with RR to learn an on-path router address.
  Packet rr_probe = net::make_echo_request(topo_->host(vp).addr,
                                           topo_->host(dst).addr, 1, 1);
  rr_probe.rr = net::RecordRouteOption{};
  const auto rr_result = network.send(rr_probe, vp);
  ASSERT_TRUE(rr_result.answered());
  const auto slots = rr_result.reply->rr->to_vector();
  net::Ipv4Addr on_path;
  for (const auto addr : slots) {
    if (topo_->interface_at(addr)) {
      on_path = addr;
      break;
    }
  }
  if (on_path.is_unspecified()) GTEST_SKIP() << "no mappable RR hop";

  const net::Ipv4Addr prespec[] = {on_path};
  Packet ts_probe = net::make_echo_request(topo_->host(vp).addr,
                                           topo_->host(dst).addr, 1, 2);
  ts_probe.ts = net::TimestampOption::prespecified(prespec);
  const auto ts_result = network.send(ts_probe, vp);
  if (!ts_result.answered()) GTEST_SKIP() << "destination drops TS";
  ASSERT_TRUE(ts_result.reply->ts);
  EXPECT_TRUE(ts_result.reply->ts->stamped(0));
}

TEST_F(SimFixture, DeterministicReplay) {
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  probe.rr = net::RecordRouteOption{};
  auto n1 = make_network();
  auto n2 = make_network();
  const auto r1 = n1.send(probe, vp);
  const auto r2 = n2.send(probe, vp);
  ASSERT_EQ(r1.answered(), r2.answered());
  if (r1.answered()) {
    EXPECT_EQ(r1.reply->rr->to_vector(), r2.reply->rr->to_vector());
    EXPECT_EQ(r1.rtt_us, r2.rtt_us);
  }
}

TEST_F(SimFixture, PacketsForwardedGrows) {
  auto network = make_network();
  const HostId vp = topo_->vantage_points()[0];
  const HostId dst = find_host(/*rr_responsive=*/true);
  const auto before = network.packets_forwarded();
  Packet probe = net::make_echo_request(topo_->host(vp).addr,
                                        topo_->host(dst).addr, 1, 1);
  network.send(probe, vp);
  EXPECT_GT(network.packets_forwarded(), before);
  EXPECT_EQ(network.probes_injected(), 1u);
}

// --------------------------------------------------------------------------
// Differential forwarding: every pass against fresh single-shot decisions
// --------------------------------------------------------------------------

// Every forwarding hazard switched up: source-sensitive ASes and routers,
// load balancers (per-packet for option packets, per-flow otherwise) and
// ECMP to balance over. Parallel border links between AS pairs and /30s
// owned by the neighbour (Fig 4) come with every topology. No AS filters
// options, so every RR probe runs its whole path.
TopologyConfig hazard_config() {
  TopologyConfig config;
  config.seed = 5;
  config.num_ases = 120;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  config.as_source_sensitive = 0.4;
  config.router_source_sensitive = 0.3;
  config.router_per_packet_lb = 0.3;
  config.intra_extra_edge_prob = 0.6;
  config.as_filters_options = 0.0;
  return config;
}

// The hazard topology with option-filtering ASes too.
TopologyConfig settle_config() {
  TopologyConfig config = hazard_config();
  config.as_filters_options = 0.1;
  return config;
}

// A host address, a router loopback or a link interface address.
Ipv4Addr random_target(const Topology& topo, util::Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return topo.hosts()[rng.below(topo.num_hosts())].addr;
    case 1:
      return topo.routers()[rng.below(topo.num_routers())].loopback;
    default: {
      const auto& link = topo.links()[rng.below(topo.num_links())];
      return rng.below(2) == 0 ? link.addr_a : link.addr_b;
    }
  }
}

// The router path single-shot decide() calls walk from `start`: each call
// resolves the destination and the egress afresh and keeps nothing.
std::vector<topology::RouterId> walk(const routing::ForwardingPlane& plane,
                                     topology::RouterId start,
                                     const routing::PacketContext& ctx) {
  std::vector<topology::RouterId> path;
  topology::RouterId current = start;
  for (int hop = 0; hop < Network::kHopLimit; ++hop) {
    path.push_back(current);
    const auto decision = plane.decide(current, ctx);
    if (decision.kind != routing::Decision::Kind::kForwardLink) break;
    current = decision.next_router;
  }
  return path;
}

// The context Network's forwarding pass gives `packet` (its per-packet
// balancing salt is a function of the network seed and the packet).
routing::PacketContext probe_context(const Packet& packet,
                                     std::uint64_t seed) {
  routing::PacketContext ctx;
  ctx.src = packet.src;
  ctx.dst = packet.dst;
  ctx.flow_key = packet.flow_key();
  ctx.has_options = packet.has_options();
  ctx.packet_salt = util::mix_hash(
      seed, (std::uint64_t{packet.src.value()} << 32) ^ packet.dst.value(),
      packet.rr ? 0x5252ULL : (packet.ts ? 0x7373ULL : 0));
  return ctx;
}

// forward_pass drops an optioned packet at the first router of an AS that
// filters options, after adding that router to the path.
std::vector<topology::RouterId> cut_at_filter(
    const Topology& topo, std::vector<topology::RouterId> path) {
  const auto filtering =
      std::find_if(path.begin(), path.end(), [&](topology::RouterId hop) {
        return topo.as_at(topo.router(hop).as_index).filters_ip_options;
      });
  if (filtering != path.end()) path.erase(filtering + 1, path.end());
  return path;
}

// On the hazard topology, and on it with option-filtering ASes, where an
// RR probe's passes end at the first filtering router.
TEST(DifferentialForwarding, PassesMatchFreshDecisionsHopByHop) {
  for (const TopologyConfig& config : {hazard_config(), settle_config()}) {
    SCOPED_TRACE("as_filters_options " +
                 std::to_string(config.as_filters_options));
    const Topology topo = TopologyBuilder::build(config);
    const routing::BgpTable bgp(topo);
    const routing::IntraRouting intra(topo);
    const routing::ForwardingPlane plane(topo, bgp, intra);
    constexpr std::uint64_t kSeed = 9;
    Network network(topo, plane, kSeed);

    // The hazards exist in this topology.
    std::size_t parallel_pairs = 0, neighbour_owned = 0;
    for (const auto& node : topo.ases()) {
      for (const auto* neighbours : {&node.providers, &node.peers}) {
        for (const topology::Asn neighbour : *neighbours) {
          parallel_pairs += topo.border_links(node.asn, neighbour).size() > 1;
        }
      }
    }
    for (const auto& link : topo.links()) {
      if (!link.interdomain) continue;
      for (const Ipv4Addr addr : {link.addr_a, link.addr_b}) {
        const auto owner = topo.interface_at(addr);
        neighbour_owned += owner && topo.as_of(addr) &&
                           *topo.as_of(addr) != topo.router(owner->router).asn;
      }
    }
    ASSERT_GT(parallel_pairs, 0u);
    ASSERT_GT(neighbour_owned, 0u);

    util::Rng rng(17);
    constexpr int kCases = 10'000;
    std::size_t replies = 0, hazard_hops = 0, cut = 0;
    // The walk a pass takes: cut at a filtering AS when the packet carries RR.
    const auto expected_pass = [&](topology::RouterId start,
                                   const routing::PacketContext& ctx) {
      auto path = walk(plane, start, ctx);
      if (!ctx.has_options) return path;
      const std::size_t full = path.size();
      path = cut_at_filter(topo, std::move(path));
      cut += path.size() < full;
      return path;
    };
    for (int i = 0; i < kCases; ++i) {
      const auto sender =
          static_cast<HostId>(rng.below(topo.num_hosts()));
      const Ipv4Addr from = topo.host(sender).addr;
      const Ipv4Addr to = random_target(topo, rng);
      const auto flow = static_cast<std::uint16_t>(rng.below(1u << 16));
      const bool rr = (i & 1) != 0;
      SCOPED_TRACE("case " + std::to_string(i) + ": " + from.to_string() +
                   " -> " + to.to_string() + " flow " + std::to_string(flow) +
                   (rr ? " rr" : ""));
      const topology::RouterId start = topo.host(sender).attachment;

      // Oracle ground truth (ground_truth_path's own context).
      routing::PacketContext truth;
      truth.src = from;
      truth.dst = to;
      truth.flow_key = flow;
      truth.has_options = rr;
      truth.packet_salt = flow * 0x9e3779b97f4a7c15ULL + 1;
      const auto expected_truth = walk(plane, start, truth);
      ASSERT_EQ(network.ground_truth_path(from, to, flow, rr), expected_truth);

      // The probe's request and reply passes. TTL 255 outlasts the hop limit,
      // so the request pass ends where the walk does.
      Packet probe = net::make_echo_request(from, to, flow, 1, 255);
      if (rr) probe.rr = net::RecordRouteOption{};
      const auto result = network.send(probe, sender);
      const auto expected_request =
          expected_pass(start, probe_context(probe, kSeed));
      ASSERT_EQ(result.request_path, expected_request);
      for (const topology::RouterId hop : expected_request) {
        const auto& router = topo.router(hop);
        hazard_hops += router.per_packet_lb || router.source_sensitive ||
                       topo.as_at(router.as_index).source_sensitive;
      }
      if (result.answered()) {
        ++replies;
        ASSERT_FALSE(result.reply_path.empty());
      }
      // Every reply pass: the reply that arrived, or, when a filtering AS or
      // loss dropped it, an echo reply from the probed address to the sender.
      if (result.reply_path.empty()) continue;
      const Packet reply =
          result.answered() ? *result.reply : net::make_echo_reply(probe, to);
      ASSERT_EQ(result.reply_path,
                expected_pass(result.reply_path.front(),
                              probe_context(reply, kSeed)));
    }
    EXPECT_GT(replies, static_cast<std::size_t>(kCases) / 4);
    EXPECT_GT(hazard_hops, static_cast<std::size_t>(kCases));
    EXPECT_EQ(cut > 0, config.as_filters_options > 0.0);
  }
}

// --- Settled offline RR probes (Prober::rr_ping's settle test) ------------

// One settle-test case: a probe and the test one of the two offline
// callers would pass for it.
struct SettleCase {
  HostId sender = topology::kInvalidId;
  Ipv4Addr target;
  std::optional<Ipv4Addr> spoof_as;
  bool survey = false;  // The survey's test, else Q2's.
  net::Ipv4Prefix prefix;
};

// Every fourth probe spoofs another host's address, so replies (and the
// passes that fill their records) also head to a third host.
SettleCase random_settle_case(const Topology& topo, util::Rng& rng, int i) {
  SettleCase c;
  c.sender = static_cast<HostId>(rng.below(topo.num_hosts()));
  c.target = random_target(topo, rng);
  if (i % 4 == 3) {
    c.spoof_as = topo.hosts()[rng.below(topo.num_hosts())].addr;
  }
  c.survey = i % 2 == 0;
  const auto prefix = topo.prefix_of(c.target);
  c.prefix = prefix ? topo.prefix(*prefix).prefix
                    : net::Ipv4Prefix(c.target, 32);
  return c;
}

// The caller's test, as IngressDiscovery::probe and
// TracerouteAtlas::measure_rr_index build it.
RrSettle settle_test(const SettleCase& c) {
  if (c.survey) {
    return [prefix = c.prefix](std::span<const Ipv4Addr> record) {
      return vpselect::lacks_reach_point(record, prefix,
                                         vpselect::DiscoveryOptions{});
    };
  }
  return [probed = c.target](std::span<const Ipv4Addr> record) {
    return atlas::lacks_reverse_slots(record, probed);
  };
}

struct SettleStack {
  Topology topo = TopologyBuilder::build(settle_config());
  routing::BgpTable bgp{topo};
  routing::IntraRouting intra{topo};
  routing::ForwardingPlane plane{topo, bgp, intra};
};

// Each offline caller's test against no test at all, probe for probe, on
// twin networks with loss. A settled probe's record is full, accepted and
// the one the plain probe brought home (when it did); every other probe
// comes back exactly as the plain one, and the accounting, the packet ids
// and the loss stream never drift apart.
TEST(DifferentialSettle, SettledProbesMatchPlainProbes) {
  const SettleStack stack;
  const Topology& topo = stack.topo;
  std::size_t filtering = 0;
  for (const auto& node : topo.ases()) filtering += node.filters_ip_options;
  ASSERT_GT(filtering, 0u);

  constexpr std::uint64_t kSeed = 9;
  Network plain_net(topo, stack.plane, kSeed);
  Network settle_net(topo, stack.plane, kSeed);
  plain_net.set_loss_rate(0.05);
  settle_net.set_loss_rate(0.05);
  probing::Prober plain(plain_net);
  probing::Prober settling(settle_net);
  const probing::Prober::OfflineScope plain_offline(plain);
  const probing::Prober::OfflineScope settling_offline(settling);

  util::Rng rng(29);
  constexpr int kCases = 12'000;
  std::array<std::size_t, 2> settled{};  // [Q2, survey]
  std::size_t settled_answered = 0;
  std::size_t full_answered = 0;
  for (int i = 0; i < kCases; ++i) {
    const SettleCase c = random_settle_case(topo, rng, i);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + c.target.to_string() +
                 (c.survey ? " survey" : " q2"));
    const RrSettle test = settle_test(c);
    const auto want = plain.rr_ping(c.sender, c.target, c.spoof_as);
    const auto got = settling.rr_ping(c.sender, c.target, c.spoof_as, &test);
    ASSERT_FALSE(want.settled);
    full_answered += want.responded && want.slots.size() == 9;
    if (got.settled) {
      ++settled[c.survey];
      ASSERT_EQ(got.slots.size(), net::RecordRouteOption::kMaxSlots);
      EXPECT_TRUE(test(got.slots));
      EXPECT_FALSE(got.responded);
      EXPECT_EQ(got.duration_us, 0);
      if (want.responded) {
        ++settled_answered;
        EXPECT_EQ(got.slots, want.slots);
      }
    } else {
      EXPECT_EQ(got.responded, want.responded);
      EXPECT_EQ(got.slots, want.slots);
      EXPECT_EQ(got.duration_us, want.duration_us);
      // A full record the test accepts would have settled where it filled.
      if (want.responded && want.slots.size() == 9) {
        EXPECT_FALSE(test(want.slots));
      }
    }
    ASSERT_EQ(settling.last_packet_id(), plain.last_packet_id());
  }
  EXPECT_TRUE(settling.counters() == plain.counters());
  EXPECT_TRUE(settling.offline_counters() == plain.offline_counters());
  EXPECT_EQ(settle_net.probes_injected(), plain_net.probes_injected());
  EXPECT_LT(settle_net.packets_forwarded(), plain_net.packets_forwarded());
  // Both tests settle probes, some of them ones whose reply came home.
  EXPECT_GT(settled[0], 1'000u);
  EXPECT_GT(settled[1], 1'000u);
  EXPECT_GT(settled_answered, 1'000u);
  EXPECT_GT(full_answered, settled_answered);
  // The loss stream is the same: a fresh probe on each reads alike.
  EXPECT_EQ(plain.ping(0, topo.hosts()[1].addr).responded,
            settling.ping(0, topo.hosts()[1].addr).responded);
}

struct EventLog : probing::ProbeObserver {
  std::vector<probing::ProbeEvent> events;
  void on_probe(const probing::ProbeEvent& event) override {
    events.push_back(event);
  }
};

// Nothing settles where it must not: on a prober with an observer or a
// fault policy, which see every probe as it goes without a settle test, or
// online, where the answer and duration drive a request. Every probe, the
// events and the simulated hops read as without the test.
TEST(DifferentialSettle, ObservedAndOnlineProbesNeverSettle) {
  const SettleStack stack;
  const Topology& topo = stack.topo;
  // Drops a fifth of the probes, by target.
  const probing::FaultPolicy drop = [](const probing::ProbeEvent& event) {
    return util::splitmix64(event.target.value()) % 5 == 0;
  };
  enum class Mode { kObserved, kObservedAndFaulted, kOnline };
  for (const Mode mode :
       {Mode::kObserved, Mode::kObservedAndFaulted, Mode::kOnline}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    Network plain_net(topo, stack.plane, 9);
    Network settle_net(topo, stack.plane, 9);
    probing::Prober plain(plain_net);
    probing::Prober settling(settle_net);
    EventLog plain_log;
    EventLog settling_log;
    std::optional<probing::Prober::OfflineScope> plain_offline;
    std::optional<probing::Prober::OfflineScope> settling_offline;
    if (mode != Mode::kOnline) {
      plain.set_observer(&plain_log);
      settling.set_observer(&settling_log);
      plain_offline.emplace(plain);
      settling_offline.emplace(settling);
    }
    if (mode == Mode::kObservedAndFaulted) {
      plain.set_fault_policy(drop);
      settling.set_fault_policy(drop);
    }

    util::Rng rng(31);
    std::size_t full = 0;
    for (int i = 0; i < 4'000; ++i) {
      const SettleCase c = random_settle_case(topo, rng, i);
      const RrSettle test = settle_test(c);
      const auto want = plain.rr_ping(c.sender, c.target, c.spoof_as);
      const auto got = settling.rr_ping(c.sender, c.target, c.spoof_as, &test);
      ASSERT_FALSE(got.settled) << "case " << i;
      EXPECT_EQ(got.responded, want.responded);
      EXPECT_EQ(got.slots, want.slots);
      EXPECT_EQ(got.duration_us, want.duration_us);
      full += got.slots.size() == 9 && test(got.slots);
    }
    EXPECT_GT(full, 500u) << "records an offline prober would settle";
    EXPECT_TRUE(settling_log.events == plain_log.events);
    EXPECT_EQ(settle_net.packets_forwarded(), plain_net.packets_forwarded());
  }
}

}  // namespace
}  // namespace revtr::sim
