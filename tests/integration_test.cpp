// Cross-module integration tests: route churn, announcement policies,
// engine failure injection, and whole-stack invariants across seeds.
#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <set>

#include "core/revtr.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "net/wire.h"

namespace revtr {
namespace {

using topology::HostId;

topology::TopologyConfig small_config(std::uint64_t seed = 101) {
  topology::TopologyConfig config;
  config.seed = seed;
  config.num_ases = 180;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 50;
  return config;
}

// --------------------------------------------------------------------------
// Route churn (BgpTable::set_epoch)
// --------------------------------------------------------------------------

TEST(RouteChurn, ZeroChurnIsStable) {
  eval::Lab lab(small_config());
  const auto before = lab.bgp.as_path(3, 50);
  lab.bgp.set_epoch(5, 0.0);
  EXPECT_EQ(lab.bgp.as_path(3, 50), before);
}

TEST(RouteChurn, SmallChurnChangesFewRoutes) {
  eval::Lab lab(small_config());
  std::vector<std::vector<topology::Asn>> before;
  for (topology::AsIndex a = 0; a < lab.topo.num_ases(); a += 3) {
    before.push_back(lab.bgp.as_path(a, 7));
  }
  lab.bgp.set_epoch(1, 0.02);
  std::size_t changed = 0, index = 0;
  for (topology::AsIndex a = 0; a < lab.topo.num_ases(); a += 3) {
    if (lab.bgp.as_path(a, 7) != before[index++]) ++changed;
  }
  EXPECT_LT(changed, before.size() / 3) << "2% churn changed too much";
}

TEST(RouteChurn, FullChurnChangesManyRoutes) {
  eval::Lab lab(small_config());
  std::vector<std::vector<topology::Asn>> before;
  for (topology::AsIndex a = 0; a < lab.topo.num_ases(); a += 3) {
    before.push_back(lab.bgp.as_path(a, 7));
  }
  lab.bgp.set_epoch(1, 1.0);
  std::size_t changed = 0, index = 0;
  for (topology::AsIndex a = 0; a < lab.topo.num_ases(); a += 3) {
    if (lab.bgp.as_path(a, 7) != before[index++]) ++changed;
  }
  EXPECT_GT(changed, 0u);
}

TEST(RouteChurn, ChurnedRoutesStayValid) {
  eval::Lab lab(small_config());
  lab.bgp.set_epoch(3, 0.5);
  for (topology::AsIndex a = 0; a < lab.topo.num_ases(); a += 11) {
    const auto path = lab.bgp.as_path(a, 2);
    ASSERT_FALSE(path.empty());
    std::set<topology::Asn> unique(path.begin(), path.end());
    EXPECT_EQ(unique.size(), path.size()) << "loop under churn";
  }
}

TEST(RouteChurn, EpochsAreReproducible) {
  eval::Lab lab(small_config());
  lab.bgp.set_epoch(2, 0.3);
  const auto at_epoch2 = lab.bgp.as_path(5, 60);
  lab.bgp.set_epoch(3, 0.3);
  lab.bgp.set_epoch(2, 0.3);
  EXPECT_EQ(lab.bgp.as_path(5, 60), at_epoch2);
}

// --------------------------------------------------------------------------
// Announcement policies (BgpTable::set_no_export)
// --------------------------------------------------------------------------

TEST(NoExport, SuppressedProviderLosesDirectRoute) {
  eval::Lab lab(small_config());
  // Find a multihomed stub.
  for (const auto& node : lab.topo.ases()) {
    if (node.tier != topology::AsTier::kStub || node.providers.size() < 2) {
      continue;
    }
    const auto origin = lab.topo.index_of(node.asn);
    const topology::Asn p1 = node.providers[0];
    lab.bgp.set_no_export(origin, {p1});
    const auto& column = lab.bgp.column(origin);
    const auto p1_index = lab.topo.index_of(p1);
    // p1 must not route straight into the origin anymore.
    EXPECT_NE(column.next(p1_index), node.asn);
    // The origin is still reachable from p1 (via the other provider).
    EXPECT_NE(column.next(p1_index), 0u);
    // And cleanup restores the direct route... usually; at minimum the
    // column changes back deterministically.
    lab.bgp.clear_no_export(origin);
    const auto& restored = lab.bgp.column(origin);
    EXPECT_EQ(restored.next(p1_index), node.asn);
    return;
  }
  GTEST_SKIP() << "no multihomed stub";
}

TEST(NoExport, SuppressingAllProvidersOfSingleHomedStubKillsReachability) {
  eval::Lab lab(small_config());
  for (const auto& node : lab.topo.ases()) {
    if (node.tier != topology::AsTier::kStub || node.providers.size() != 1 ||
        !node.peers.empty()) {
      continue;
    }
    const auto origin = lab.topo.index_of(node.asn);
    lab.bgp.set_no_export(origin, {node.providers[0]});
    const auto& column = lab.bgp.column(origin);
    std::size_t reachable = 0;
    for (topology::AsIndex a = 0; a < lab.topo.num_ases(); ++a) {
      if (a == origin) continue;
      reachable += column.next(a) != 0;
    }
    EXPECT_EQ(reachable, 0u) << "withdrawn stub still reachable";
    lab.bgp.clear_no_export(origin);
    return;
  }
  GTEST_SKIP() << "no single-homed stub without peers";
}

TEST(NoExport, ShiftsForwardingPlaneCatchment) {
  eval::Lab lab(small_config());
  // Count, across many source ASes, the first hop used to reach a
  // multihomed stub, before and after no-export.
  for (const auto& node : lab.topo.ases()) {
    if (node.tier != topology::AsTier::kStub || node.providers.size() < 2) {
      continue;
    }
    const auto origin = lab.topo.index_of(node.asn);
    auto count_via = [&](topology::Asn provider) {
      std::size_t via = 0;
      const auto& column = lab.bgp.column(origin);
      for (topology::AsIndex a = 0; a < lab.topo.num_ases(); ++a) {
        // ASes whose best route's last hop is `provider`: approximate by
        // walking the path.
        const auto path = lab.bgp.as_path(a, origin);
        if (path.size() >= 2 && path[path.size() - 2] == provider) ++via;
      }
      (void)column;
      return via;
    };
    const topology::Asn p1 = node.providers[0];
    const auto before = count_via(p1);
    if (before == 0) continue;
    lab.bgp.set_no_export(origin, {p1});
    const auto after = count_via(p1);
    EXPECT_LT(after, before);
    lab.bgp.clear_no_export(origin);
    return;
  }
  GTEST_SKIP() << "no suitable stub";
}

// --------------------------------------------------------------------------
// Engine failure injection
// --------------------------------------------------------------------------

class FailureFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = std::make_unique<eval::Lab>(small_config(), core::EngineConfig::revtr2());
    source_ = lab_->topo.vantage_points()[0];
    lab_->bootstrap_source(source_, 40);
  }
  static void TearDownTestSuite() {
    lab_.reset();
  }
  static std::unique_ptr<eval::Lab> lab_;
  static HostId source_;
};

std::unique_ptr<eval::Lab> FailureFixture::lab_;
HostId FailureFixture::source_ = topology::kInvalidId;

TEST_F(FailureFixture, PingUnresponsiveDestinationFailsCleanly) {
  for (const auto& host : lab_->topo.hosts()) {
    if (host.ping_responsive) continue;
    util::SimClock clock;
    const auto result = lab_->engine.measure(host.id, source_, clock);
    EXPECT_NE(result.status, core::RevtrStatus::kComplete);
    EXPECT_EQ(result.hops.front().addr, host.addr);
    return;
  }
  GTEST_SKIP();
}

TEST_F(FailureFixture, RrUnresponsiveDestinationCanStillCompleteViaSymmetry) {
  // Ping-responsive but RR-unresponsive destinations can only be walked
  // with traceroute + intradomain symmetry or atlas hits; the engine must
  // either complete without RR provenance from the destination, abort, or
  // report unreachability — never crash or mislabel.
  std::size_t examined = 0;
  util::SimClock clock;
  for (const auto& host : lab_->topo.hosts()) {
    if (!host.ping_responsive || host.rr_responsive) continue;
    if (host.is_vantage_point || host.is_probe_host) continue;
    const auto result = lab_->engine.measure(host.id, source_, clock);
    if (result.complete()) {
      for (const auto& hop : result.hops) {
        if (hop.source == core::HopSource::kRecordRoute ||
            hop.source == core::HopSource::kSpoofedRecordRoute) {
          // RR hops may appear later in the path (from responsive routers),
          // but the *first* extension cannot be an RR reveal of the silent
          // destination itself.
          break;
        }
      }
    }
    if (++examined == 10) break;
  }
  EXPECT_GT(examined, 0u);
}

TEST_F(FailureFixture, MeasureToSelfIsTrivialComplete) {
  util::SimClock clock;
  const auto result = lab_->engine.measure(source_, source_, clock);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.hops.size(), 1u);
}

TEST_F(FailureFixture, UnboostrappedSourceStillMeasures) {
  // Without an atlas the engine leans on RR + symmetry alone.
  const HostId bare_source = lab_->topo.vantage_points()[2];
  util::SimClock clock;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto result = lab_->engine.measure(lab_->topo.probe_hosts()[i],
                                             bare_source, clock);
    completed += result.complete();
  }
  EXPECT_GT(completed, 0u);
}

TEST_F(FailureFixture, LatencyNeverNegativeAndBoundedByBatches) {
  util::SimClock clock;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto result = lab_->engine.measure(lab_->topo.probe_hosts()[i * 2],
                                             source_, clock);
    EXPECT_GE(result.span.duration(), 0);
    // Each spoofed batch adds exactly one 10 s timeout; latency must be at
    // least that.
    EXPECT_GE(result.span.duration(),
              static_cast<util::SimClock::Micros>(result.spoofed_batches) *
                  10 * util::SimClock::kSecond);
  }
}

TEST(PacketLoss, LossyNetworkDropsProbes) {
  eval::Lab lab(small_config());
  lab.network.set_loss_rate(1.0);
  const auto vp = lab.topo.vantage_points()[0];
  const auto result =
      lab.prober.ping(vp, lab.topo.host(lab.topo.probe_hosts()[0]).addr);
  EXPECT_FALSE(result.responded);
  lab.network.set_loss_rate(0.0);
  const auto retry =
      lab.prober.ping(vp, lab.topo.host(lab.topo.probe_hosts()[0]).addr);
  EXPECT_TRUE(retry.responded);
}

TEST(PacketLoss, ModerateLossStillAllowsMeasurement) {
  eval::Lab lab(small_config());
  lab.network.set_loss_rate(0.05);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 30);
  util::SimClock clock;
  std::size_t complete = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    complete +=
        lab.engine.measure(lab.topo.probe_hosts()[i], source, clock)
            .complete();
  }
  EXPECT_GT(complete, 5u) << "5% loss should not cripple the system";
}

TEST_F(FailureFixture, DbrVerificationOptionRuns) {
  // With verification on, measurements still complete; any dbr_suspect
  // flag must coincide with extra spoofed probes spent.
  auto config = core::EngineConfig::revtr2();
  config.verify_destination_based_routing = true;
  eval::Lab lab(small_config(), config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 30);
  util::SimClock clock;
  std::size_t complete = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    const auto result =
        lab.engine.measure(lab.topo.probe_hosts()[i], source, clock);
    complete += result.complete();
    if (result.dbr_suspect) {
      EXPECT_GT(result.probes.spoofed_rr, 0u);
    }
  }
  EXPECT_GT(complete, 5u);
}

// --------------------------------------------------------------------------
// Whole-stack invariants across seeds (property-style)
// --------------------------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EngineInvariantsHold) {
  eval::Lab lab(small_config(GetParam()), core::EngineConfig::revtr2(),
                GetParam());
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 30);
  util::SimClock clock;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto dest = lab.topo.probe_hosts()[i * 3 % 50];
    const auto result = lab.engine.measure(dest, source, clock);
    // Invariant 1: the path starts at the destination.
    ASSERT_FALSE(result.hops.empty());
    EXPECT_EQ(result.hops.front().addr, lab.topo.host(dest).addr);
    // Invariant 2: no duplicate concrete hops (loop freedom).
    std::set<std::uint32_t> seen;
    for (const auto& hop : result.hops) {
      if (hop.source == core::HopSource::kSuspiciousGap) continue;
      EXPECT_TRUE(seen.insert(hop.addr.value()).second)
          << "duplicate hop " << hop.addr.to_string();
    }
    // Invariant 3: revtr 2.0 never uses interdomain symmetry.
    EXPECT_FALSE(result.used_interdomain_symmetry);
    // Invariant 4: probe accounting is consistent.
    EXPECT_EQ(result.probes.ts + result.probes.spoofed_ts, 0u);
    // Invariant 5: a complete path's last hop is the source or an atlas
    // suffix hop.
    if (result.complete() && result.hops.size() > 1) {
      const auto last = result.hops.back();
      EXPECT_TRUE(last.addr == lab.topo.host(source).addr ||
                  last.source == core::HopSource::kAtlasIntersection ||
                  last.source == core::HopSource::kSuspiciousGap);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --------------------------------------------------------------------------
// Wire-format robustness: random buffers must never crash the decoder.
// --------------------------------------------------------------------------

TEST(WireFuzz, RandomBuffersNeverCrash) {
  util::Rng rng(424242);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> buffer(rng.below(96));
    for (auto& byte : buffer) {
      byte = static_cast<std::uint8_t>(rng.below(256));
    }
    // Must not crash; may or may not decode.
    (void)net::decode_packet(buffer);
  }
}

TEST(WireFuzz, BitFlippedRealPacketsNeverCrash) {
  util::Rng rng(777);
  net::Packet packet = net::make_echo_request(net::Ipv4Addr(1, 2, 3, 4),
                                              net::Ipv4Addr(5, 6, 7, 8), 9, 1);
  packet.rr = net::RecordRouteOption{};
  packet.rr->stamp(net::Ipv4Addr(9, 9, 9, 9));
  const auto bytes = net::encode_packet(packet);
  for (int round = 0; round < 2000; ++round) {
    auto corrupted = bytes;
    const auto flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      corrupted[rng.below(corrupted.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)net::decode_packet(corrupted);
  }
}

}  // namespace
}  // namespace revtr
