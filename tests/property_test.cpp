// Property-style parameter sweeps: the system must stay correct (not just
// calibrated) across the behaviour-mix space — stamping policies,
// responsiveness rates, topology shapes.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/revtr.h"
#include "eval/harness.h"

namespace revtr {
namespace {

using topology::HostId;

// (rr_nostamp_frac, rr_loopback_frac, host_rr_responsiveness).
using Mix = std::tuple<double, double, double>;

class BehaviourSweep : public ::testing::TestWithParam<Mix> {};

TEST_P(BehaviourSweep, EngineSurvivesBehaviourMix) {
  const auto [nostamp, loopback, rr_responsive] = GetParam();
  topology::TopologyConfig config;
  config.seed = 77;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 3;
  config.num_probe_hosts = 40;
  config.rr_nostamp_frac = nostamp;
  config.rr_loopback_frac = loopback;
  config.host_rr_responsive_given_ping = rr_responsive;

  eval::Lab lab(config, core::EngineConfig::revtr2(), config.seed);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 30);
  util::SimClock clock;
  std::size_t decided = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto result =
        lab.engine.measure(lab.topo.probe_hosts()[i], source, clock);
    // Whatever the mix, the engine must terminate with a classified
    // outcome, a loop-free path, and consistent accounting.
    ++decided;
    std::set<std::uint32_t> seen;
    for (const auto& hop : result.hops) {
      if (hop.source == core::HopSource::kSuspiciousGap) continue;
      EXPECT_TRUE(seen.insert(hop.addr.value()).second);
    }
    EXPECT_LE(result.hops.size(), core::kMaxReverseHops);
    EXPECT_FALSE(result.used_interdomain_symmetry);
  }
  EXPECT_EQ(decided, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, BehaviourSweep,
    ::testing::Values(
        Mix{0.00, 0.00, 1.00},  // Everything stamps, everything answers.
        Mix{0.05, 0.10, 0.76},  // Default calibration.
        Mix{0.30, 0.10, 0.76},  // A third of routers never stamp.
        Mix{0.05, 0.40, 0.76},  // Loopback stampers everywhere.
        Mix{0.05, 0.10, 0.20},  // Options mostly filtered at hosts.
        Mix{0.50, 0.40, 0.10}   // Hostile: RR almost useless.
        ));

class ShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(ShapeSweep, TopologyAndRoutingInvariants) {
  const auto [ases, tier1] = GetParam();
  topology::TopologyConfig config;
  config.seed = 88;
  config.num_ases = ases;
  config.num_tier1 = tier1;
  config.num_vps = 6;
  config.num_vps_2016 = 2;
  config.num_probe_hosts = 15;
  eval::Lab lab(config);

  // Universal reachability.
  const auto dest_step =
      static_cast<topology::AsIndex>(std::max<std::size_t>(1, ases / 10));
  for (topology::AsIndex dest = 0; dest < lab.topo.num_ases();
       dest += dest_step) {
    const auto& column = lab.bgp.column(dest);
    for (topology::AsIndex from = 0; from < lab.topo.num_ases(); ++from) {
      if (from == dest) continue;
      ASSERT_NE(column.next(from), 0u)
          << ases << " ASes: " << from << " cannot reach " << dest;
    }
  }
  // A probe works end to end.
  const auto ping = lab.prober.ping(
      lab.topo.vantage_points()[0],
      lab.topo.host(lab.topo.probe_hosts()[0]).addr);
  EXPECT_TRUE(ping.responded);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweep,
                         ::testing::Values(std::pair<std::size_t,
                                                     std::size_t>{20, 2},
                                           std::pair<std::size_t,
                                                     std::size_t>{60, 4},
                                           std::pair<std::size_t,
                                                     std::size_t>{150, 8},
                                           std::pair<std::size_t,
                                                     std::size_t>{400, 12}));

// Probe accounting invariant: the prober's counters equal the sum of all
// per-measurement deltas — online plus offline (on-demand ingress
// discovery runs inside the measurement but is charged as maintenance,
// Table 4) — nothing leaks or double counts.
TEST(Accounting, CountersPartitionExactly) {
  topology::TopologyConfig config;
  config.seed = 99;
  config.num_ases = 120;
  config.num_vps = 8;
  config.num_vps_2016 = 2;
  config.num_probe_hosts = 30;
  eval::Lab lab(config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 20);
  lab.prober.reset_counters();

  util::SimClock clock;
  probing::ProbeCounters accumulated;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto result =
        lab.engine.measure(lab.topo.probe_hosts()[i], source, clock);
    accumulated += result.probes;
    accumulated += result.offline_probes;
  }
  const auto& totals = lab.prober.counters();
  EXPECT_EQ(totals.ping, accumulated.ping);
  EXPECT_EQ(totals.rr, accumulated.rr);
  EXPECT_EQ(totals.spoofed_rr, accumulated.spoofed_rr);
  EXPECT_EQ(totals.ts, accumulated.ts);
  EXPECT_EQ(totals.traceroute_packets, accumulated.traceroute_packets);
  EXPECT_EQ(totals.total(), accumulated.total());
}

}  // namespace
}  // namespace revtr
