#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "routing/bgp.h"
#include "routing/forwarding.h"
#include "routing/intra.h"
#include "topology/builder.h"

namespace revtr::routing {
namespace {

using topology::AsIndex;
using topology::Asn;
using topology::AsTier;
using topology::Topology;
using topology::TopologyBuilder;
using topology::TopologyConfig;

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 11;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 20;
  return config;
}

class RoutingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config()));
    bgp_ = std::make_unique<BgpTable>(*topo_);
    intra_ = std::make_unique<IntraRouting>(*topo_);
    plane_ = std::make_unique<ForwardingPlane>(*topo_, *bgp_, *intra_);
  }
  static void TearDownTestSuite() {
    plane_.reset();
    intra_.reset();
    bgp_.reset();
    topo_.reset();
  }

  static std::unique_ptr<Topology> topo_;
  static std::unique_ptr<BgpTable> bgp_;
  static std::unique_ptr<IntraRouting> intra_;
  static std::unique_ptr<ForwardingPlane> plane_;
};

std::unique_ptr<Topology> RoutingFixture::topo_;
std::unique_ptr<BgpTable> RoutingFixture::bgp_;
std::unique_ptr<IntraRouting> RoutingFixture::intra_;
std::unique_ptr<ForwardingPlane> RoutingFixture::plane_;

// --------------------------------------------------------------------------
// BGP
// --------------------------------------------------------------------------

TEST_F(RoutingFixture, EveryAsReachesEveryDestination) {
  // Sample destinations; full n^2 would be slow in a unit test.
  for (AsIndex dest = 0; dest < topo_->num_ases(); dest += 17) {
    const auto& column = bgp_->column(dest);
    for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
      if (from == dest) continue;
      EXPECT_NE(column.next(from), 0u)
          << "AS " << topo_->as_at(from).asn << " cannot reach AS "
          << topo_->as_at(dest).asn;
    }
  }
}

TEST_F(RoutingFixture, NextHopIsAnActualNeighbor) {
  const AsIndex dest = 3;
  const auto& column = bgp_->column(dest);
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (from == dest) continue;
    const Asn next = column.next(from);
    const auto& node = topo_->as_at(from);
    const bool neighbor =
        std::find(node.providers.begin(), node.providers.end(), next) !=
            node.providers.end() ||
        std::find(node.customers.begin(), node.customers.end(), next) !=
            node.customers.end() ||
        std::find(node.peers.begin(), node.peers.end(), next) !=
            node.peers.end();
    EXPECT_TRUE(neighbor) << "AS " << node.asn << " -> " << next;
  }
}

TEST_F(RoutingFixture, AsPathsAreLoopFree) {
  for (AsIndex dest = 0; dest < topo_->num_ases(); dest += 13) {
    for (AsIndex from = 0; from < topo_->num_ases(); from += 7) {
      const auto path = bgp_->as_path(from, dest);
      ASSERT_FALSE(path.empty());
      std::set<Asn> unique(path.begin(), path.end());
      EXPECT_EQ(unique.size(), path.size()) << "loop in AS path";
      EXPECT_EQ(path.front(), topo_->as_at(from).asn);
      EXPECT_EQ(path.back(), topo_->as_at(dest).asn);
    }
  }
}

TEST_F(RoutingFixture, PathLengthsConsistentWithNextHops) {
  // The lengths compute_column chose against the path its stored next hops
  // walk.
  const AsIndex dest = 5;
  const auto lengths = bgp_->path_lengths(dest);
  ASSERT_EQ(lengths.size(), topo_->num_ases());
  EXPECT_EQ(lengths[dest], 0u);
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (from == dest) continue;
    const auto path = bgp_->as_path(from, dest);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.size(), lengths[from] + 1u);
  }
}

TEST(BgpTableWidth, RefusesMoreAsesThanSixteenBitColumnsHold) {
  // ASNs run 1..num_ases and columns keep them in 16 bits.
  static_assert(BgpTable::kMaxAses == 65535);
  static_assert(sizeof(BgpTable::Column::Entry) == 4);
  EXPECT_NO_THROW(BgpTable::check_as_count(0));
  EXPECT_NO_THROW(BgpTable::check_as_count(65535));
  EXPECT_THROW(BgpTable::check_as_count(65536), std::length_error);
  EXPECT_THROW(BgpTable::check_as_count(std::size_t{1} << 32),
               std::length_error);
  // The widest ASN a column stores reads back whole.
  BgpTable::Column column;
  column.entries.push_back({65535, 65534});
  EXPECT_EQ(column.next(0), 65535u);
  EXPECT_EQ(column.alt(0), 65534u);
}

TEST_F(RoutingFixture, ValleyFreePaths) {
  // Gao-Rexford: once a path goes from provider-to-customer (down) or
  // across a peer link, it must keep going down.
  auto relationship = [&](Asn from, Asn to) -> int {
    const auto& node = topo_->as_node(from);
    if (std::find(node.customers.begin(), node.customers.end(), to) !=
        node.customers.end()) {
      return -1;  // down
    }
    if (std::find(node.peers.begin(), node.peers.end(), to) !=
        node.peers.end()) {
      return 0;  // across
    }
    return 1;  // up
  };
  for (AsIndex dest = 0; dest < topo_->num_ases(); dest += 29) {
    for (AsIndex from = 0; from < topo_->num_ases(); from += 11) {
      const auto path = bgp_->as_path(from, dest);
      ASSERT_FALSE(path.empty());
      bool descending = false;
      int peer_links = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const int rel = relationship(path[i], path[i + 1]);
        if (rel == 0) ++peer_links;
        if (descending) {
          EXPECT_EQ(rel, -1) << "valley in path";
        }
        if (rel <= 0) descending = true;
      }
      EXPECT_LE(peer_links, 1) << "multiple peer links in path";
    }
  }
}

TEST_F(RoutingFixture, AltRoutesShareClassAndLength) {
  const AsIndex dest = 2;
  const auto& column = bgp_->column(dest);
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (column.alt(from) == 0) continue;
    EXPECT_NE(column.alt(from), column.next(from));
  }
}

// FNV-1a over every next_hop / alt_next_hop pair, destinations outer.
std::uint64_t table_digest(const Topology& topo, const BgpTable& bgp) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (AsIndex dest = 0; dest < topo.num_ases(); ++dest) {
    for (AsIndex from = 0; from < topo.num_ases(); ++from) {
      mix(bgp.next_hop(dest, from));
      mix(bgp.alt_next_hop(dest, from));
    }
  }
  return hash;
}

// Pins every routing decision across changes to how columns are stored.
TEST_F(RoutingFixture, TableDigestIsPinned) {
  EXPECT_EQ(table_digest(*topo_, *bgp_), 390117000094392696ULL);
}

TEST(RoutingDigest, DaemonDeploymentTableDigestIsPinned) {
  // daemonbench's fixed deployment (daemonbench/daemon_bench.cpp).
  TopologyConfig config;
  config.seed = 7;
  config.num_ases = 800;
  config.num_vps = 30;
  config.num_vps_2016 = 10;
  config.num_probe_hosts = std::size_t{1} << 20;
  const Topology topo = TopologyBuilder::build(config);
  const BgpTable bgp(topo);
  bgp.build_all(2);
  EXPECT_EQ(table_digest(topo, bgp), 5697733948953508049ULL);
}

TEST_F(RoutingFixture, ColumnsAreLazilyCachedAndStable) {
  const std::size_t before = bgp_->computed_columns();
  const auto& col1 = bgp_->column(9);
  const auto& col2 = bgp_->column(9);
  EXPECT_EQ(&col1, &col2);
  EXPECT_GE(bgp_->computed_columns(), before);
}

TEST_F(RoutingFixture, SomePathsAreAsymmetric) {
  // The directional tiebreak must produce asymmetric AS routes; this is the
  // structural basis of the paper's §6.2 study.
  std::size_t asymmetric = 0, total = 0;
  for (AsIndex a = 0; a < topo_->num_ases(); a += 5) {
    for (AsIndex b = a + 3; b < topo_->num_ases(); b += 17) {
      auto forward = bgp_->as_path(a, b);
      auto backward = bgp_->as_path(b, a);
      std::reverse(backward.begin(), backward.end());
      ++total;
      if (forward != backward) ++asymmetric;
    }
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(asymmetric, total / 10);  // Plenty of asymmetry...
  EXPECT_LT(asymmetric, total);       // ...but not universal.
}

// --------------------------------------------------------------------------
// Intra-AS routing
// --------------------------------------------------------------------------

TEST_F(RoutingFixture, IntraNextHopsReachEveryPair) {
  for (const auto& node : topo_->ases()) {
    for (auto from : node.routers) {
      for (auto to : node.routers) {
        if (from == to) {
          EXPECT_EQ(intra_->distance(from, to), 0);
          continue;
        }
        const auto hops = intra_->next_hops(from, to);
        ASSERT_TRUE(hops.reachable())
            << "AS " << node.asn << ": " << from << " -> " << to;
        // The next hop must make progress.
        const auto next = topo_->far_end(from, hops.primary);
        EXPECT_EQ(intra_->distance(next, to) + 1, intra_->distance(from, to));
      }
    }
    if (node.asn > 40) break;  // Sampling is enough.
  }
}

TEST_F(RoutingFixture, IntraDistanceSymmetric) {
  const auto& node = topo_->as_at(0);
  for (auto a : node.routers) {
    for (auto b : node.routers) {
      EXPECT_EQ(intra_->distance(a, b), intra_->distance(b, a));
    }
  }
}

TEST_F(RoutingFixture, IntraEcmpAlternateAlsoShortest) {
  std::size_t checked = 0;
  for (const auto& node : topo_->ases()) {
    for (auto from : node.routers) {
      for (auto to : node.routers) {
        if (from == to) continue;
        const auto hops = intra_->next_hops(from, to);
        if (!hops.has_ecmp()) continue;
        const auto via_primary = topo_->far_end(from, hops.primary);
        const auto via_alt = topo_->far_end(from, hops.alternate);
        EXPECT_EQ(intra_->distance(via_primary, to),
                  intra_->distance(via_alt, to));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0u) << "topology has no ECMP at all";
}

TEST_F(RoutingFixture, CrossAsIntraQueriesRejected) {
  const auto& a = topo_->as_at(0);
  const auto& b = topo_->as_at(1);
  EXPECT_FALSE(intra_->next_hops(a.routers[0], b.routers[0]).reachable());
}

// --------------------------------------------------------------------------
// Forwarding plane
// --------------------------------------------------------------------------

PacketContext context_for(const Topology& topo, topology::HostId from,
                          net::Ipv4Addr dst, bool options = false) {
  PacketContext ctx;
  ctx.src = topo.host(from).addr;
  ctx.dst = dst;
  ctx.flow_key = 42;
  ctx.has_options = options;
  ctx.packet_salt = 7;
  return ctx;
}

TEST_F(RoutingFixture, WalkReachesRemoteHost) {
  const auto src_host = topo_->vantage_points()[0];
  const auto dst_host = topo_->probe_hosts()[0];
  const auto ctx =
      context_for(*topo_, src_host, topo_->host(dst_host).addr);
  auto current = plane_->origin_router(src_host);
  for (int hop = 0; hop < 80; ++hop) {
    const auto decision = plane_->decide(current, ctx);
    ASSERT_NE(decision.kind, Decision::Kind::kDrop);
    if (decision.kind == Decision::Kind::kDeliverHost) {
      EXPECT_EQ(decision.host, dst_host);
      return;
    }
    ASSERT_EQ(decision.kind, Decision::Kind::kForwardLink);
    current = decision.next_router;
  }
  FAIL() << "forwarding loop";
}

TEST_F(RoutingFixture, WalkReachesRouterInterface) {
  // Probe a /30 interface address of some interdomain link.
  const auto& link = [&]() -> const topology::Link& {
    for (const auto& l : topo_->links()) {
      if (l.interdomain) return l;
    }
    throw std::logic_error("no interdomain link");
  }();
  const auto src_host = topo_->vantage_points()[0];
  const auto ctx = context_for(*topo_, src_host, link.addr_a);
  auto current = plane_->origin_router(src_host);
  for (int hop = 0; hop < 80; ++hop) {
    const auto decision = plane_->decide(current, ctx);
    ASSERT_NE(decision.kind, Decision::Kind::kDrop) << "hop " << hop;
    if (decision.kind == Decision::Kind::kDeliverRouter) {
      EXPECT_EQ(current, link.router_a);
      return;
    }
    ASSERT_EQ(decision.kind, Decision::Kind::kForwardLink);
    current = decision.next_router;
  }
  FAIL() << "forwarding loop";
}

TEST_F(RoutingFixture, PrivateAddressesUnroutable) {
  const auto src_host = topo_->vantage_points()[0];
  const auto ctx =
      context_for(*topo_, src_host, net::Ipv4Addr(10, 1, 2, 3));
  const auto decision =
      plane_->decide(plane_->origin_router(src_host), ctx);
  EXPECT_EQ(decision.kind, Decision::Kind::kDrop);
}

TEST_F(RoutingFixture, AsLevelRouteMatchesWalk) {
  const auto src_host = topo_->vantage_points()[1];
  const auto dst_host = topo_->probe_hosts()[1];
  const auto src_as = topo_->index_of(topo_->host(src_host).asn);
  const auto dst_as = topo_->index_of(topo_->host(dst_host).asn);
  const auto route = plane_->as_level_route(
      src_as, dst_as, topo_->host(src_host).addr, topo_->host(dst_host).addr);
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(route.front(), topo_->host(src_host).asn);
  EXPECT_EQ(route.back(), topo_->host(dst_host).asn);

  // Walk the forwarding plane and collect the AS sequence.
  const auto ctx =
      context_for(*topo_, src_host, topo_->host(dst_host).addr);
  auto current = plane_->origin_router(src_host);
  std::vector<Asn> walked = {topo_->router(current).asn};
  for (int hop = 0; hop < 80; ++hop) {
    const auto decision = plane_->decide(current, ctx);
    if (decision.kind != Decision::Kind::kForwardLink) break;
    current = decision.next_router;
    if (topo_->router(current).asn != walked.back()) {
      walked.push_back(topo_->router(current).asn);
    }
  }
  EXPECT_EQ(route, walked);
}

TEST_F(RoutingFixture, SourceSensitivityOnlyAffectsFlaggedAses) {
  // For a non-source-sensitive AS the next hop must not depend on src.
  const AsIndex dest = 4;
  for (AsIndex from = 0; from < topo_->num_ases(); ++from) {
    if (from == dest) continue;
    const auto& node = topo_->as_at(from);
    if (node.source_sensitive) continue;
    // decide() is deterministic given ctx; vary src and verify stability via
    // as_level_route, which applies the same policy.
    const auto r1 = plane_->as_level_route(from, dest, net::Ipv4Addr(1, 0, 0, 1),
                                           net::Ipv4Addr(2, 0, 0, 2));
    const auto r2 = plane_->as_level_route(from, dest, net::Ipv4Addr(9, 9, 9, 9),
                                           net::Ipv4Addr(2, 0, 0, 2));
    if (r1.empty() || r2.empty()) continue;
    EXPECT_EQ(r1.front(), r2.front());
    if (topo_->as_node(r1[std::min<std::size_t>(1, r1.size() - 1)])
            .source_sensitive) {
      continue;  // Downstream AS may deviate; only check the first hop.
    }
    ASSERT_GE(r1.size(), 2u);
    ASSERT_GE(r2.size(), 2u);
    EXPECT_EQ(r1[1], r2[1]) << "AS " << node.asn;
  }
}

// --------------------------------------------------------------------------
// Concurrent lookups over cold tables (run under TSan by scripts/check.sh)
// --------------------------------------------------------------------------

class RoutingConcurrency : public RoutingFixture {};

// Every lookup both tables answer, in one fixed order: BGP next hops for
// every (destination, AS) pair, then intra next hops and distances for
// every router pair of every AS.
std::vector<std::uint32_t> all_lookups(const Topology& topo,
                                       const BgpTable& bgp,
                                       const IntraRouting& intra) {
  std::vector<std::uint32_t> out;
  for (AsIndex dest = 0; dest < topo.num_ases(); ++dest) {
    for (AsIndex from = 0; from < topo.num_ases(); ++from) {
      out.push_back(bgp.next_hop(dest, from));
      out.push_back(bgp.alt_next_hop(dest, from));
    }
  }
  for (const auto& node : topo.ases()) {
    for (const auto from : node.routers) {
      for (const auto to : node.routers) {
        const auto hops = intra.next_hops(from, to);
        out.push_back(hops.primary);
        out.push_back(hops.alternate);
        out.push_back(intra.distance(from, to));
      }
    }
  }
  return out;
}

TEST_F(RoutingConcurrency, TwoThreadsFillColdTablesIdentically) {
  // Fresh tables: every column and matrix is first built while two threads
  // race to read it, the way two daemon workers probe at once.
  const BgpTable bgp(*topo_);
  const IntraRouting intra(*topo_);
  ASSERT_EQ(bgp.computed_columns(), 0u);

  std::latch start(2);
  std::vector<std::uint32_t> seen[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = all_lookups(*topo_, bgp, intra);
    });
  }
  for (auto& thread : threads) thread.join();

  // Both threads saw exactly what a single-threaded table answers, and each
  // column was published once, whoever built it.
  const auto expected = all_lookups(*topo_, *bgp_, *intra_);
  EXPECT_EQ(seen[0], expected);
  EXPECT_EQ(seen[1], expected);
  EXPECT_EQ(bgp.computed_columns(), topo_->num_ases());
}

TEST_F(RoutingConcurrency, FannedOutTableBuildMatchesLazyTables) {
  // The reference: tables filled lazily by one thread's lookups.
  const auto expected = all_lookups(*topo_, *bgp_, *intra_);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const BgpTable bgp(*topo_);
    const IntraRouting intra(*topo_);
    const ForwardingPlane plane(*topo_, bgp, intra);
    plane.build_all(threads);
    // Every column is built before any lookup, each by the one thread that
    // claimed it; the lookups below only read them.
    EXPECT_EQ(bgp.computed_columns(), topo_->num_ases());
    EXPECT_EQ(all_lookups(*topo_, bgp, intra), expected);
    EXPECT_EQ(bgp.computed_columns(), topo_->num_ases());
  }
}

}  // namespace
}  // namespace revtr::routing
