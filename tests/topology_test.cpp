#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "topology/address_plan.h"
#include "topology/as_graph.h"
#include "topology/builder.h"
#include "topology/config.h"
#include "topology/topology.h"

namespace revtr::topology {
namespace {

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 7;
  config.num_ases = 120;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 30;
  return config;
}

class TopologyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config())); }
  static void TearDownTestSuite() {
    topo_.reset();
  }
  static std::unique_ptr<Topology> topo_;
};

std::unique_ptr<Topology> TopologyFixture::topo_;

// --------------------------------------------------------------------------
// AddressPlan
// --------------------------------------------------------------------------

TEST(AddressPlan, CustomerPrefixesSequentialAndDisjoint) {
  AddressPlan plan;
  const auto a = plan.allocate_customer_prefix();
  const auto b = plan.allocate_customer_prefix();
  EXPECT_EQ(a.length(), AddressPlan::kCustomerPrefixLen);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.contains(b.network()));
  EXPECT_FALSE(b.contains(a.network()));
}

TEST(AddressPlan, InfraCursorSeparatesLoopbacksAndP2p) {
  AddressPlan plan;
  AddressPlan::InfraCursor cursor{plan.allocate_infra_prefix()};
  const auto lo1 = cursor.take_loopback();
  const auto lo2 = cursor.take_loopback();
  const auto p2p = cursor.take_p2p_block();
  ASSERT_TRUE(lo1 && lo2 && p2p);
  EXPECT_NE(*lo1, *lo2);
  // The /30 block comes from the top of the prefix, loopbacks from the
  // bottom: they can never collide.
  EXPECT_GT(p2p->value(), lo2->value());
  EXPECT_TRUE(cursor.prefix.contains(*lo1));
  EXPECT_TRUE(cursor.prefix.contains(*p2p));
}

TEST(AddressPlan, InfraCursorExhausts) {
  AddressPlan plan;
  AddressPlan::InfraCursor cursor{plan.allocate_infra_prefix()};
  std::size_t blocks = 0;
  while (cursor.take_p2p_block()) ++blocks;
  // /18 = 16384 addresses -> just under 4096 /30 blocks.
  EXPECT_GT(blocks, 4000u);
  EXPECT_LT(blocks, 4096u);
  EXPECT_FALSE(cursor.take_p2p_block());
}

TEST(AddressPlan, PrivateAliasIsRfc1918) {
  EXPECT_TRUE(AddressPlan::private_alias(12345).is_private());
}

// --------------------------------------------------------------------------
// AS graph generation
// --------------------------------------------------------------------------

TEST(AsGraph, TierStructure) {
  util::Rng rng(1);
  const auto ases = generate_as_graph(small_config(), rng);
  std::size_t tier1 = 0, transit = 0, stub = 0;
  for (const auto& node : ases) {
    switch (node.tier) {
      case AsTier::kTier1:
        ++tier1;
        // Tier-1s have no providers and peer with all other tier-1s.
        EXPECT_TRUE(node.providers.empty());
        EXPECT_GE(node.peers.size(), tier1 > 0 ? 1u : 0u);
        break;
      case AsTier::kTransit:
        ++transit;
        EXPECT_FALSE(node.providers.empty());
        break;
      case AsTier::kStub:
        ++stub;
        EXPECT_FALSE(node.providers.empty());
        EXPECT_TRUE(node.customers.empty());
        break;
    }
  }
  EXPECT_EQ(tier1, small_config().num_tier1);
  EXPECT_GT(transit, 0u);
  EXPECT_GT(stub, transit);
}

TEST(AsGraph, RelationshipsAreMutual) {
  util::Rng rng(1);
  const auto ases = generate_as_graph(small_config(), rng);
  auto find = [&](Asn asn) -> const AsNode& { return ases[asn - 1]; };
  for (const auto& node : ases) {
    for (Asn p : node.providers) {
      const auto& provider = find(p);
      EXPECT_NE(std::find(provider.customers.begin(), provider.customers.end(),
                          node.asn),
                provider.customers.end());
    }
    for (Asn q : node.peers) {
      const auto& peer = find(q);
      EXPECT_NE(std::find(peer.peers.begin(), peer.peers.end(), node.asn),
                peer.peers.end());
    }
  }
}

TEST(AsGraph, NoSelfOrDuplicateRelations) {
  util::Rng rng(1);
  const auto ases = generate_as_graph(small_config(), rng);
  for (const auto& node : ases) {
    std::set<Asn> seen;
    for (Asn other : node.providers) {
      EXPECT_NE(other, node.asn);
      EXPECT_TRUE(seen.insert(other).second);
    }
    for (Asn other : node.customers) {
      EXPECT_NE(other, node.asn);
      EXPECT_TRUE(seen.insert(other).second) << "dup with " << other;
    }
    for (Asn other : node.peers) {
      EXPECT_NE(other, node.asn);
      EXPECT_TRUE(seen.insert(other).second) << "dup with " << other;
    }
  }
}

TEST(AsGraph, Deterministic) {
  util::Rng rng_a(5), rng_b(5);
  const auto a = generate_as_graph(small_config(), rng_a);
  const auto b = generate_as_graph(small_config(), rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].providers, b[i].providers);
    EXPECT_EQ(a[i].peers, b[i].peers);
    EXPECT_EQ(a[i].category, b[i].category);
  }
}

// --------------------------------------------------------------------------
// Built topology invariants
// --------------------------------------------------------------------------

TEST_F(TopologyFixture, CountsPlausible) {
  EXPECT_EQ(topo_->num_ases(), small_config().num_ases);
  EXPECT_GT(topo_->num_routers(), topo_->num_ases());
  EXPECT_GT(topo_->num_links(), 0u);
  EXPECT_GT(topo_->num_hosts(), 0u);
  EXPECT_EQ(topo_->vantage_points().size(), small_config().num_vps);
  EXPECT_EQ(topo_->vantage_points_2016().size(), small_config().num_vps_2016);
  EXPECT_EQ(topo_->probe_hosts().size(), small_config().num_probe_hosts);
}

TEST_F(TopologyFixture, EveryAsHasRoutersAndPrefixes) {
  for (const auto& node : topo_->ases()) {
    EXPECT_FALSE(node.routers.empty()) << "AS " << node.asn;
    EXPECT_FALSE(node.customer_prefixes.empty()) << "AS " << node.asn;
    EXPECT_NE(node.infra_prefix, kInvalidId) << "AS " << node.asn;
  }
}

TEST_F(TopologyFixture, InterfaceAddressesResolveToOwners) {
  for (const auto& link : topo_->links()) {
    const auto owner_a = topo_->interface_at(link.addr_a);
    const auto owner_b = topo_->interface_at(link.addr_b);
    ASSERT_TRUE(owner_a && owner_b);
    EXPECT_EQ(owner_a->router, link.router_a);
    EXPECT_EQ(owner_b->router, link.router_b);
    EXPECT_EQ(owner_a->link, link.id);
    // /30 neighbours.
    EXPECT_EQ(link.addr_b.value() - link.addr_a.value(), 1u);
  }
}

TEST_F(TopologyFixture, LoopbacksResolve) {
  for (const auto& router : topo_->routers()) {
    const auto owner = topo_->interface_at(router.loopback);
    ASSERT_TRUE(owner);
    EXPECT_EQ(owner->router, router.id);
    EXPECT_EQ(owner->link, kInvalidId);
  }
}

TEST_F(TopologyFixture, HostsResolveAndAttachInsideTheirAs) {
  for (const auto& host : topo_->hosts()) {
    const auto found = topo_->host_at(host.addr);
    ASSERT_TRUE(found);
    EXPECT_EQ(*found, host.id);
    EXPECT_EQ(topo_->router(host.attachment).asn, host.asn);
    const auto asn = topo_->as_of(host.addr);
    ASSERT_TRUE(asn);
    EXPECT_EQ(*asn, host.asn);
    if (host.stamp == HostStamp::kDoubleStamp ||
        host.stamp == HostStamp::kAliasStamp) {
      const auto alias_owner = topo_->host_at(host.alias);
      ASSERT_TRUE(alias_owner);
      EXPECT_EQ(*alias_owner, host.id);
    }
  }
}

TEST_F(TopologyFixture, BorderLinksExistForAllAdjacencies) {
  for (const auto& node : topo_->ases()) {
    auto check = [&](Asn other) {
      const auto link_id = topo_->border_link(node.asn, other);
      ASSERT_TRUE(link_id) << node.asn << " <-> " << other;
      const auto& link = topo_->link(*link_id);
      EXPECT_TRUE(link.interdomain);
      const Asn asn_a = topo_->router(link.router_a).asn;
      const Asn asn_b = topo_->router(link.router_b).asn;
      EXPECT_TRUE((asn_a == node.asn && asn_b == other) ||
                  (asn_b == node.asn && asn_a == other));
    };
    for (Asn p : node.providers) check(p);
    for (Asn c : node.customers) check(c);
    for (Asn q : node.peers) check(q);
  }
}

TEST_F(TopologyFixture, IntraAsConnected) {
  // Union-find over intradomain links: every AS's routers form one
  // component (guaranteed by the spanning-tree construction).
  std::vector<RouterId> parent(topo_->num_routers());
  for (RouterId i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<RouterId(RouterId)> find = [&](RouterId x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& link : topo_->links()) {
    if (link.interdomain) continue;
    parent[find(link.router_a)] = find(link.router_b);
  }
  for (const auto& node : topo_->ases()) {
    const RouterId root = find(node.routers.front());
    for (RouterId r : node.routers) {
      EXPECT_EQ(find(r), root) << "AS " << node.asn << " disconnected";
    }
  }
}

TEST_F(TopologyFixture, VantagePointsLiveOnDistinctAses) {
  std::set<Asn> ases;
  for (HostId vp : topo_->vantage_points()) {
    const auto& host = topo_->host(vp);
    EXPECT_TRUE(host.is_vantage_point);
    EXPECT_TRUE(host.ping_responsive);
    EXPECT_TRUE(ases.insert(host.asn).second) << "VPs share AS " << host.asn;
  }
}

TEST_F(TopologyFixture, PrefixLookupMatchesOrigin) {
  for (const auto& prefix : topo_->prefixes()) {
    const auto found = topo_->prefix_of(prefix.prefix.first_host());
    ASSERT_TRUE(found);
    EXPECT_EQ(topo_->prefix(*found).origin, prefix.origin);
  }
}

TEST_F(TopologyFixture, RouterAddressesIncludeAllInterfaces) {
  const auto& router = topo_->router(0);
  const auto addrs = topo_->router_addresses(0);
  EXPECT_NE(std::find(addrs.begin(), addrs.end(), router.loopback),
            addrs.end());
  for (LinkId link : router.links) {
    const auto addr = topo_->egress_addr(0, link);
    EXPECT_NE(std::find(addrs.begin(), addrs.end(), addr), addrs.end());
  }
}

TEST_F(TopologyFixture, SameRouterGroundTruth) {
  const auto& router = topo_->router(0);
  ASSERT_FALSE(router.links.empty());
  const auto iface = topo_->egress_addr(0, router.links.front());
  EXPECT_TRUE(topo_->same_router(router.loopback, iface));
  const auto& other = topo_->router(1);
  EXPECT_FALSE(topo_->same_router(router.loopback, other.loopback));
}

TEST_F(TopologyFixture, ResponsivenessRatesNearConfig) {
  // Statistical sanity on the behaviour mix (generous tolerances).
  std::size_t ping = 0, rr = 0, total = 0;
  for (const auto& host : topo_->hosts()) {
    if (host.is_vantage_point || host.is_probe_host) continue;
    ++total;
    ping += host.ping_responsive;
    rr += host.rr_responsive;
  }
  ASSERT_GT(total, 200u);
  const double ping_rate =
      static_cast<double>(ping) / static_cast<double>(total);
  const double rr_rate = static_cast<double>(rr) / static_cast<double>(total);
  EXPECT_NEAR(ping_rate, 0.77, 0.08);
  EXPECT_NEAR(rr_rate, 0.58, 0.08);
}

TEST_F(TopologyFixture, GatewayAddressesInsideCustomerPrefix) {
  for (const auto& host : topo_->hosts()) {
    const auto prefix = topo_->prefix_of(host.addr);
    ASSERT_TRUE(prefix);
    EXPECT_TRUE(topo_->prefix(*prefix).prefix.contains(host.gateway));
    EXPECT_EQ(topo_->prefix_of(host.gateway), prefix);
    // ...on the host's access router.
    const auto owner = topo_->interface_at(host.gateway);
    ASSERT_TRUE(owner);
    EXPECT_EQ(owner->router, host.attachment);
  }
}

TEST_F(TopologyFixture, AddressesInPrefixCoversHostsAndInfra) {
  // Customer prefixes list hosts first.
  for (const auto& node : topo_->ases()) {
    const PrefixId customer = node.customer_prefixes.front();
    const auto addrs = topo_->addresses_in_prefix(customer, 4);
    ASSERT_FALSE(addrs.empty());
    EXPECT_TRUE(topo_->host_at(addrs.front()).has_value());
    // Infra prefixes yield router interfaces.
    const auto infra = topo_->addresses_in_prefix(node.infra_prefix, 8);
    ASSERT_FALSE(infra.empty());
    for (const auto addr : infra) {
      const auto owner = topo_->interface_at(addr);
      ASSERT_TRUE(owner);
      EXPECT_EQ(topo_->router(owner->router).asn, node.asn);
    }
    break;
  }
}

TEST_F(TopologyFixture, ParallelBorderLinksBetweenBigAses) {
  std::size_t multi = 0;
  for (const auto& node : topo_->ases()) {
    if (node.tier == AsTier::kStub) continue;
    for (const Asn peer : node.peers) {
      if (topo_->as_node(peer).tier == AsTier::kStub) continue;
      multi += topo_->border_links(node.asn, peer).size() > 1;
    }
  }
  EXPECT_GT(multi, 0u) << "no parallel interconnects generated";
}

TEST_F(TopologyFixture, BorderLinksSymmetricLookup) {
  for (const auto& node : topo_->ases()) {
    for (const Asn p : node.providers) {
      const auto forward = topo_->border_links(node.asn, p);
      const auto backward = topo_->border_links(p, node.asn);
      ASSERT_EQ(forward.size(), backward.size());
      for (std::size_t i = 0; i < forward.size(); ++i) {
        EXPECT_EQ(forward[i], backward[i]);
      }
    }
  }
}

TEST_F(TopologyFixture, HostAliasesLiveInInfraSpace) {
  for (const auto& host : topo_->hosts()) {
    if (host.stamp != HostStamp::kDoubleStamp &&
        host.stamp != HostStamp::kAliasStamp) {
      continue;
    }
    const auto prefix = topo_->prefix_of(host.alias);
    ASSERT_TRUE(prefix);
    EXPECT_TRUE(topo_->prefix(*prefix).infrastructure);
    EXPECT_EQ(topo_->prefix(*prefix).origin, host.asn);
  }
}

TEST(TopologyDeterminism, SameSeedSameTopology) {
  const auto a = TopologyBuilder::build(small_config());
  const auto b = TopologyBuilder::build(small_config());
  ASSERT_EQ(a.num_routers(), b.num_routers());
  ASSERT_EQ(a.num_links(), b.num_links());
  ASSERT_EQ(a.num_hosts(), b.num_hosts());
  for (HostId i = 0; i < a.num_hosts(); ++i) {
    EXPECT_EQ(a.host(i).addr, b.host(i).addr);
    EXPECT_EQ(a.host(i).rr_responsive, b.host(i).rr_responsive);
  }
  for (LinkId i = 0; i < a.num_links(); ++i) {
    EXPECT_EQ(a.link(i).addr_a, b.link(i).addr_a);
    EXPECT_EQ(a.link(i).delay_us, b.link(i).delay_us);
  }
}

TEST(TopologyDeterminism, DifferentSeedDifferentTopology) {
  auto config = small_config();
  const auto a = TopologyBuilder::build(config);
  config.seed = 8;
  const auto b = TopologyBuilder::build(config);
  // Host behaviour assignments should differ somewhere.
  bool differs = a.num_hosts() != b.num_hosts();
  for (HostId i = 0; !differs && i < a.num_hosts(); ++i) {
    differs = a.host(i).rr_responsive != b.host(i).rr_responsive ||
              a.host(i).attachment != b.host(i).attachment;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace revtr::topology
