#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/invariants.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "sim/network.h"

namespace revtr::sched {
namespace {

using topology::HostId;

topology::TopologyConfig tiny_config() {
  topology::TopologyConfig config;
  config.seed = 17;
  config.num_ases = 60;
  config.num_vps = 6;
  config.num_vps_2016 = 2;
  config.num_probe_hosts = 20;
  return config;
}

constexpr std::uint64_t kLabSeed = 7;

class SchedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    lab_ = std::make_unique<eval::Lab>(
        tiny_config(), core::EngineConfig::revtr2(), kLabSeed);
  }

  ProbeDemand ping_demand(std::size_t vp_index, std::size_t host_index) {
    ProbeDemand demand;
    demand.type = probing::ProbeType::kPing;
    demand.from = lab_->topo.vantage_points()[vp_index];
    demand.target =
        lab_->topo.host(lab_->topo.probe_hosts()[host_index]).addr;
    return demand;
  }

  ProbeDemand rr_demand(std::size_t vp_index, std::size_t host_index) {
    ProbeDemand demand = ping_demand(vp_index, host_index);
    demand.type = probing::ProbeType::kRecordRoute;
    return demand;
  }

  ProbeDemand spoofed_demand(std::size_t host_index, net::Ipv4Addr ingress) {
    ProbeDemand demand;
    demand.type = probing::ProbeType::kSpoofedRecordRoute;
    demand.from = lab_->topo.vantage_points()[1];
    demand.target =
        lab_->topo.host(lab_->topo.probe_hosts()[host_index]).addr;
    demand.spoof_as =
        lab_->topo.host(lab_->topo.vantage_points()[0]).addr;
    demand.batch_ingress = ingress;
    return demand;
  }

  std::unique_ptr<eval::Lab> lab_;
};

TEST_F(SchedFixture, ExecuteDemandMirrorsProber) {
  // The staged stages see exactly what a direct prober call would return:
  // outcomes are content-addressed, so re-executing the same demand on the
  // same simulated world reproduces the reply byte for byte.
  const ProbeDemand demand = ping_demand(0, 0);
  const auto outcome = execute_demand(lab_->prober, demand);
  const auto direct = lab_->prober.ping(demand.from, demand.target);
  EXPECT_EQ(outcome.responded, direct.responded);
  EXPECT_EQ(outcome.duration_us, direct.duration_us);
  EXPECT_EQ(outcome.packets, 1u);

  ProbeDemand trace;
  trace.type = probing::ProbeType::kTraceroute;
  trace.from = demand.from;
  trace.target = demand.target;
  const auto tr_outcome = execute_demand(lab_->prober, trace);
  EXPECT_EQ(tr_outcome.packets, tr_outcome.traceroute.hops.size());
}

TEST_F(SchedFixture, CoalescesIdenticalInFlightDemands) {
  obs::MetricsRegistry registry;
  SchedMetrics metrics(registry);
  ProbeScheduler scheduler;
  scheduler.set_metrics(&metrics);

  // Two tasks want the same probe while it is in flight: one wire probe,
  // identical outcomes fanned out, exactly one copy marked coalesced.
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  const auto pumped = scheduler.pump(lab_->prober);
  EXPECT_EQ(pumped.issued, 1u);

  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  ASSERT_EQ(ready[0].outcomes.size(), 1u);
  ASSERT_EQ(ready[1].outcomes.size(), 1u);
  EXPECT_EQ(ready[0].outcomes[0].digest(), ready[1].outcomes[0].digest());
  EXPECT_NE(ready[0].outcomes[0].coalesced, ready[1].outcomes[0].coalesced);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.demanded, 2u);
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(metrics.demanded->total(), 2u);
  EXPECT_EQ(metrics.issued->total(), 1u);
  EXPECT_EQ(metrics.coalesced->total(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedFixture, TraceScopesCoalesceOnlyWithTheirOwnKind) {
  // A last-hop scan skips TTLs, so it cannot answer a full trace's demand;
  // the trace scope is part of the coalescing key.
  ProbeDemand full = ping_demand(0, 0);
  full.type = probing::ProbeType::kTraceroute;
  ProbeDemand scan = full;
  scan.trace_scope = probing::TraceScope::kLastHop;
  EXPECT_NE(full.coalesce_key(), scan.coalesce_key());

  ProbeScheduler scheduler;
  scheduler.submit(1, 0, {full});
  scheduler.submit(2, 0, {scan});
  scheduler.submit(3, 0, {scan});
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 2u);
  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 3u);
  std::sort(ready.begin(), ready.end(),
            [](const auto& a, const auto& b) { return a.task < b.task; });
  const ProbeOutcome& traced = ready[0].outcomes[0];
  const ProbeOutcome& scanned = ready[1].outcomes[0];
  const ProbeOutcome& rider = ready[2].outcomes[0];
  EXPECT_FALSE(traced.coalesced);
  EXPECT_NE(scanned.coalesced, rider.coalesced);
  EXPECT_EQ(scanned.digest(), rider.digest());
  EXPECT_EQ(traced.packets, traced.traceroute.hops.size());
  EXPECT_EQ(scanned.traceroute.reached, traced.traceroute.reached);
  EXPECT_EQ(scheduler.stats().coalesced, 1u);
}

TEST_F(SchedFixture, CoalescingDisabledIssuesEveryDemand) {
  SchedOptions options;
  options.coalesce = false;
  ProbeScheduler scheduler(options);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  const auto pumped = scheduler.pump(lab_->prober);
  EXPECT_EQ(pumped.issued, 2u);
  const auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_FALSE(ready[0].outcomes[0].coalesced);
  EXPECT_FALSE(ready[1].outcomes[0].coalesced);
  EXPECT_EQ(scheduler.stats().coalesced, 0u);
}

TEST_F(SchedFixture, PerVpWindowDefersToLaterRounds) {
  SchedOptions options;
  options.vp_window = 1;
  ProbeScheduler scheduler(options);
  // Three distinct probes from one vantage point, window 1: one issue per
  // round, the rest stay queued (deferred, not dropped — liveness).
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(0, 1),
                          ping_demand(0, 2)});
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_TRUE(scheduler.collect_ready(0).empty());
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  const auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].outcomes.size(), 3u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.throttled, 3u);  // Two deferred in round 1, one in round 2.
}

TEST_F(SchedFixture, TokenBucketPacesAcrossRounds) {
  SchedOptions options;
  options.vp_window = 8;  // Window alone would allow both at once.
  options.vp_tokens_per_round = 1;
  options.vp_token_burst = 1;
  ProbeScheduler scheduler(options);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(0, 1)});
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  EXPECT_EQ(scheduler.stats().rounds, 2u);
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedFixture, FractionalPacingIssuesOnExactCadence) {
  // A refill rate below one token per round is legal: 0.5 is exact in the
  // scheduler's fixed point, so the cadence is one probe every second round
  // with zero drift over the whole horizon.
  SchedOptions options;
  options.vp_window = 8;  // The window alone would allow everything at once.
  options.vp_tokens_per_round = 0.5;
  options.vp_token_burst = 1;
  ProbeScheduler scheduler(options);
  std::vector<ProbeDemand> demands;
  for (std::size_t i = 0; i < 15; ++i) demands.push_back(ping_demand(0, i));
  scheduler.submit(1, 0, std::move(demands));
  for (std::size_t probe = 0; probe < 15; ++probe) {
    EXPECT_EQ(scheduler.pump(lab_->prober).issued, 0u) << "probe " << probe;
    EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u) << "probe " << probe;
  }
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.stats().rounds, 30u);
}

TEST_F(SchedFixture, SubUnityPacingNeverStarvesOverLongHorizons) {
  // 1/3 token per round is NOT exact in fixed point (the refill rounds
  // down), which is precisely the drift hazard this test pins: queued
  // demands must still drain on an (almost exactly) three-round cadence —
  // deferred forever is the failure mode the ctor clamp rules out.
  SchedOptions options;
  options.vp_window = 8;
  options.vp_tokens_per_round = 1.0 / 3.0;
  options.vp_token_burst = 2;
  ProbeScheduler scheduler(options);
  std::vector<ProbeDemand> demands;
  for (std::size_t i = 0; i < 18; ++i) demands.push_back(ping_demand(0, i));
  scheduler.submit(1, 0, std::move(demands));
  std::size_t issued = 0;
  std::size_t rounds = 0;
  while (issued < 18 && rounds < 100) {
    issued += scheduler.pump(lab_->prober).issued;
    ++rounds;
  }
  EXPECT_EQ(issued, 18u);
  // Exactly ceil(k / (1/3 rounded down to fixed point)) rounds for the k-th
  // probe: 4, 7, 10, ... — the sub-token remainder carries across rounds
  // instead of being lost, so the long-horizon rate stays 1/3.
  EXPECT_EQ(rounds, 55u);
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedFixture, SpoofedBatchesGroupAcrossTasks) {
  const net::Ipv4Addr ingress_x(0x0a000001);
  const net::Ipv4Addr ingress_y(0x0a000002);
  ProbeScheduler scheduler;
  // Four same-ingress spoofed probes from two different tasks fill two
  // 3-probe wire batches (3 + 1); the other ingress gets its own batch.
  scheduler.submit(1, 0,
                   {spoofed_demand(0, ingress_x), spoofed_demand(1, ingress_x)});
  scheduler.submit(2, 0,
                   {spoofed_demand(2, ingress_x), spoofed_demand(3, ingress_x),
                    spoofed_demand(4, ingress_y)});
  const auto pumped = scheduler.pump(lab_->prober);
  EXPECT_EQ(pumped.issued, 5u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.wire_batches, 3u);
  EXPECT_EQ(scheduler.collect_ready(0).size(), 2u);
}

TEST_F(SchedFixture, AuditSatisfiesI7AndCatchesTampering) {
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1)});
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  scheduler.pump(lab_->prober);
  ASSERT_EQ(scheduler.collect_ready(0).size(), 2u);
  ASSERT_EQ(audit.issues.size(), 2u);
  ASSERT_EQ(audit.deliveries.size(), 1u);  // The coalesced rider.

  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());

  // A delivery whose outcome differs from the issued probe's breaks the
  // coalescing-is-invisible property I7 exists to catch.
  SchedulerAudit tampered = audit;
  tampered.deliveries[0].digest ^= 1;
  EXPECT_FALSE(analysis::check_scheduler(tampered, options).empty());

  // A delivery riding a probe that never went on the wire.
  tampered = audit;
  tampered.deliveries[0].issue_id = 9999;
  EXPECT_FALSE(analysis::check_scheduler(tampered, options).empty());

  // More same-round issues from one VP than the window permits.
  SchedulerAudit overdriven;
  for (std::uint64_t i = 0; i < 3; ++i) {
    overdriven.issues.push_back(SchedulerAudit::Issue{
        i, i, /*round=*/1, lab_->topo.vantage_points()[0], i});
  }
  SchedOptions narrow;
  narrow.vp_window = 2;
  EXPECT_FALSE(analysis::check_scheduler(overdriven, narrow).empty());
}

TEST_F(SchedFixture, OwnerScopedPumpLeavesOtherOwnersQueued) {
  SchedOptions options;
  options.vp_tokens_per_round = 1;
  options.vp_token_burst = 1;
  ProbeScheduler scheduler(options);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  scheduler.submit(2, 1, {ping_demand(0, 1)});
  // Owner 1 rides on owner 0's still-queued probe.
  scheduler.submit(3, 1, {ping_demand(0, 0)});

  // Owner 1's round claims only owner 1's demand, and owner 0's queued
  // demand spends none of the VP's single token.
  EXPECT_EQ(scheduler.pump(lab_->prober, 1).issued, 1u);
  EXPECT_TRUE(scheduler.collect_ready(0).empty());
  auto ready = scheduler.collect_ready(1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].task, 2u);
  EXPECT_FALSE(scheduler.idle());

  // Nothing of owner 1's is queued any more: its pump is not a round.
  const std::uint64_t rounds = scheduler.stats().rounds;
  EXPECT_EQ(scheduler.pump(lab_->prober, 1).issued, 0u);
  EXPECT_EQ(scheduler.stats().rounds, rounds);

  // Owner 0 executes its own demand; the outcome reaches owner 1's rider.
  EXPECT_EQ(scheduler.pump(lab_->prober, 0).issued, 1u);
  ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_FALSE(ready[0].outcomes[0].coalesced);
  auto rider = scheduler.collect_ready(1);
  ASSERT_EQ(rider.size(), 1u);
  EXPECT_EQ(rider[0].task, 3u);
  EXPECT_TRUE(rider[0].outcomes[0].coalesced);
  EXPECT_EQ(rider[0].outcomes[0].digest(), ready[0].outcomes[0].digest());
  EXPECT_TRUE(scheduler.idle());
}

// --- Probes executing outside the scheduler lock. --------------------------

// The concurrency suite: run under TSan by scripts/check.sh.
class SchedConcurrency : public SchedFixture {};

// A transport that submits `rider` as task 2 of owner 1 from inside its
// first execute(): a demand arriving while the probe is on the wire.
class ReentrantTransport final : public probing::ProbeTransport {
 public:
  ReentrantTransport(probing::Prober& prober, ProbeScheduler& scheduler,
                     ProbeDemand rider)
      : inner_(prober), scheduler_(scheduler), rider_(std::move(rider)) {}

  probing::ProbeReply execute(const probing::ProbeSpec& spec) override {
    ++probes;
    if (rider_.has_value()) {
      scheduler_.submit(2, 1, {*std::exchange(rider_, std::nullopt)});
    }
    return inner_.execute(spec);
  }

  void execute_batch(std::span<const probing::RrBatchItem> items,
                     std::vector<probing::RrProbeResult>& out) override {
    probes += items.size();
    inner_.execute_batch(items, out);
  }

  std::size_t probes = 0;

 private:
  probing::LocalProbeTransport inner_;
  ProbeScheduler& scheduler_;
  std::optional<ProbeDemand> rider_;
};

// Aborts the test binary if its scope is still running after `limit`: a
// deadlock must fail the suite, not hang it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: deadlock, aborting\n");
            std::abort();
          }
        }) {}

  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

TEST_F(SchedConcurrency, DemandSubmittedMidProbeRidesTheInFlightProbe) {
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  scheduler.submit(1, 0, {rr_demand(0, 0)});
  ReentrantTransport transport(lab_->prober, scheduler, rr_demand(0, 0));

  // Probing under the scheduler lock would deadlock on the re-entrant
  // submit.
  ProbeScheduler::PumpResult pumped;
  {
    const Watchdog watchdog(std::chrono::seconds(30));
    pumped = scheduler.pump(transport, 0);
  }

  // One wire probe served both demands.
  EXPECT_EQ(pumped.issued, 1u);
  EXPECT_EQ(transport.probes, 1u);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.demanded, 2u);
  EXPECT_EQ(stats.issued, 1u);
  EXPECT_EQ(stats.coalesced, 1u);

  auto first = scheduler.collect_ready(0);
  auto rider = scheduler.collect_ready(1);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(rider.size(), 1u);
  const ProbeOutcome& issued = first[0].outcomes[0];
  const ProbeOutcome& copy = rider[0].outcomes[0];
  EXPECT_FALSE(issued.coalesced);
  EXPECT_TRUE(copy.coalesced);
  EXPECT_EQ(copy.responded, issued.responded);
  EXPECT_EQ(copy.slots, issued.slots);
  EXPECT_EQ(copy.duration_us, issued.duration_us);
  EXPECT_EQ(copy.packets, issued.packets);
  EXPECT_EQ(copy.digest(), issued.digest());
  EXPECT_TRUE(scheduler.idle());

  ASSERT_EQ(audit.issues.size(), 1u);
  ASSERT_EQ(audit.deliveries.size(), 1u);
  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());
}

// Drives every task of `owner` through three demand sets, pumping only that
// owner's demands on `prober`, and records each outcome digest by (task,
// set). Demands overlap across tasks and owners, so some ride on probes the
// other owner has in flight.
class OwnerLoop {
 public:
  static constexpr std::size_t kTasks = 24;
  static constexpr std::size_t kSets = 3;

  using Digests = std::map<std::pair<std::uint64_t, std::size_t>,
                           std::vector<std::uint64_t>>;

  OwnerLoop(const eval::Lab& lab, std::size_t owner)
      : lab_(lab), owner_(owner) {}

  std::vector<ProbeDemand> demands(std::uint64_t task, std::size_t set) const {
    const auto vp = [&](std::size_t i) {
      return lab_.topo.vantage_points()[i % lab_.topo.vantage_points().size()];
    };
    const auto host = [&](std::size_t i) {
      return lab_.topo.host(lab_.topo.probe_hosts()[i % 8]).addr;
    };
    const net::Ipv4Addr ingress((task + set) % 2 == 0 ? 0x0a000001
                                                      : 0x0a000002);
    std::vector<ProbeDemand> out(3);
    out[0].type = probing::ProbeType::kPing;
    out[0].from = vp(task % 3);
    out[0].target = host(task + set);
    out[1].type = probing::ProbeType::kRecordRoute;
    out[1].from = vp(set);
    out[1].target = host(task / 2);
    out[2].type = probing::ProbeType::kSpoofedRecordRoute;
    out[2].from = vp(1 + task % 2);
    out[2].target = host(task + 2 * set);
    out[2].spoof_as = lab_.topo.host(vp(0)).addr;
    out[2].batch_ingress = ingress;
    return out;
  }

  // Runs `owner`'s tasks to completion: submit, pump, collect, resubmit.
  void run(ProbeScheduler& scheduler, probing::Prober& prober,
           std::size_t owners) {
    std::map<std::uint64_t, std::size_t> next_set;
    for (std::uint64_t task = owner_; task < kTasks; task += owners) {
      scheduler.submit(task, owner_, demands(task, 0));
      next_set[task] = 1;
    }
    while (!next_set.empty()) {
      const auto pumped = scheduler.pump(prober, owner_);
      auto ready = scheduler.collect_ready(owner_);
      for (auto& resolved : ready) {
        const std::size_t set = next_set.at(resolved.task);
        auto& digests = digests_[{resolved.task, set - 1}];
        for (const ProbeOutcome& outcome : resolved.outcomes) {
          digests.push_back(outcome.digest());
        }
        if (set == kSets) {
          next_set.erase(resolved.task);
          continue;
        }
        scheduler.submit(resolved.task, owner_, demands(resolved.task, set));
        next_set[resolved.task] = set + 1;
      }
      // Nothing moved: park until the other owner's pump delivers a rider
      // (a demand of ours the window deferred ends the wait at once).
      if (ready.empty() && pumped.issued == 0) {
        scheduler.wait_for_owner(owner_);
      }
    }
  }

  const Digests& digests() const { return digests_; }

 private:
  const eval::Lab& lab_;
  const std::size_t owner_;
  Digests digests_;
};

TEST_F(SchedConcurrency, ConcurrentOwnerPumpsMatchOneThreadAndKeepI7) {
  // Reference: one thread runs both owners' tasks in turn.
  ProbeScheduler reference;
  OwnerLoop::Digests expected;
  for (std::size_t owner = 0; owner < 2; ++owner) {
    OwnerLoop loop(*lab_, owner);
    loop.run(reference, lab_->prober, 2);
    expected.insert(loop.digests().begin(), loop.digests().end());
  }
  ASSERT_EQ(expected.size(), OwnerLoop::kTasks * OwnerLoop::kSets);

  // Two workers, each with its own Network and Prober over the same
  // simulated world, pump their own owners at once over one scheduler.
  SchedOptions options;
  options.vp_window = 4;  // Small enough that rounds defer demands.
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  struct Worker {
    sim::Network network;
    probing::Prober prober;
    OwnerLoop loop;
    Worker(const eval::Lab& lab, std::size_t owner)
        : network(lab.topo, lab.plane, kLabSeed),
          prober(network),
          loop(lab, owner) {}
  };
  Worker w0(*lab_, 0);
  Worker w1(*lab_, 1);
  std::thread t0([&] { w0.loop.run(scheduler, w0.prober, 2); });
  std::thread t1([&] { w1.loop.run(scheduler, w1.prober, 2); });
  t0.join();
  t1.join();
  EXPECT_TRUE(scheduler.idle());

  OwnerLoop::Digests got = w0.loop.digests();
  got.insert(w1.loop.digests().begin(), w1.loop.digests().end());
  EXPECT_EQ(got, expected);

  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.demanded, stats.issued + stats.coalesced);
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_EQ(audit.issues.size(), stats.issued);
  const auto violations = analysis::check_scheduler(audit, options);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << violations.front().detail;
}

// Runs wait_for_owner(owner, claims) on its own thread.
class ParkedOwner {
 public:
  ParkedOwner(ProbeScheduler& scheduler, std::size_t owner, bool claims)
      : thread_([this, &scheduler, owner, claims] {
          scheduler.wait_for_owner(owner, claims);
          returned_.store(true);
        }) {}
  ~ParkedOwner() { join(); }

  bool returned() const { return returned_.load(); }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> returned_{false};
  std::thread thread_;
};

// Time a parked owner gets to return early, which would be a bug.
constexpr std::chrono::milliseconds kParkGrace(50);

TEST_F(SchedConcurrency, ParkedOwnerWakesWhenAnotherThreadDeliversItsSet) {
  ProbeScheduler scheduler;
  // Owner 0's demand rides on owner 1's identical one: owner 0 has nothing
  // to claim and nothing ready until owner 1's pump delivers.
  scheduler.submit(1, 1, {rr_demand(0, 0)});
  scheduler.submit(2, 0, {rr_demand(0, 0)});
  const Watchdog watchdog(std::chrono::seconds(30));
  ParkedOwner parked(scheduler, 0, /*claims=*/true);
  std::this_thread::sleep_for(kParkGrace);
  EXPECT_FALSE(parked.returned());

  EXPECT_EQ(scheduler.pump(lab_->prober, 1).issued, 1u);
  parked.join();
  EXPECT_TRUE(parked.returned());
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  ASSERT_EQ(scheduler.collect_ready(1).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedConcurrency, ParkedOwnerWakesOnWakeWhileNothingIsReady) {
  ProbeScheduler scheduler;
  {
    const Watchdog watchdog(std::chrono::seconds(30));
    ParkedOwner parked(scheduler, 0, /*claims=*/true);
    std::this_thread::sleep_for(kParkGrace);
    EXPECT_FALSE(parked.returned());
    scheduler.wake();
    parked.join();
    EXPECT_TRUE(parked.returned());
  }
  EXPECT_TRUE(scheduler.idle());

  // A wake is not lost on a loop that checked its work but has not parked
  // yet: each owner's next wait returns at once, once.
  scheduler.wake();
  const Watchdog watchdog(std::chrono::seconds(30));
  scheduler.wait_for_owner(0);
  scheduler.wait_for_owner(1, /*claims=*/false);
}

// Blocks until the scheduler's waits have blocked `parks` times in all.
void await_parks(const SchedMetrics& metrics, std::uint64_t parks) {
  while (metrics.parks->total() < parks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Blocks until one of `owners` returned from its wait.
void await_any_return(const std::vector<const ParkedOwner*>& owners) {
  while (std::none_of(owners.begin(), owners.end(),
                      [](const ParkedOwner* owner) {
                        return owner->returned();
                      })) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST_F(SchedConcurrency, AdmissionWakeWakesExactlyOneOfTwoParkedOwners) {
  obs::MetricsRegistry registry;
  const SchedMetrics metrics(registry);
  ProbeScheduler scheduler;
  scheduler.set_metrics(&metrics);
  const Watchdog watchdog(std::chrono::seconds(30));
  ParkedOwner first(scheduler, 0, /*claims=*/true);
  ParkedOwner second(scheduler, 1, /*claims=*/true);
  await_parks(metrics, 2);

  scheduler.wake_one();
  await_any_return({&first, &second});
  std::this_thread::sleep_for(kParkGrace);
  EXPECT_NE(first.returned(), second.returned())
      << "one admission wake must end exactly one parked wait";
  // Ties go to the lower index.
  EXPECT_TRUE(first.returned());
  EXPECT_EQ(metrics.parks->total(), 2u);

  scheduler.wake();  // Hold release, drain and stop() still wake everyone.
  first.join();
  second.join();
  EXPECT_TRUE(second.returned());
}

TEST_F(SchedConcurrency, AdmissionWakeIsNotLostOnAnOwnerThatIsNotParked) {
  obs::MetricsRegistry registry;
  const SchedMetrics metrics(registry);
  ProbeScheduler scheduler;
  scheduler.set_metrics(&metrics);
  const Watchdog watchdog(std::chrono::seconds(30));
  // Both owners have waited before; a wake that came before an owner's
  // first wait ends that wait at once, which these consume.
  scheduler.wake();
  scheduler.wait_for_owner(0);
  scheduler.wait_for_owner(1);
  EXPECT_EQ(metrics.parks->total(), 0u);

  // Owner 0 parks. Owner 1 has checked for work and not parked yet.
  ParkedOwner parked(scheduler, 0, /*claims=*/true);
  await_parks(metrics, 1);
  scheduler.wake_one();
  parked.join();
  EXPECT_TRUE(parked.returned());

  // Owner 1 was not parked, so its next wait returns at once, without
  // blocking; the one after it parks again.
  scheduler.wait_for_owner(1);
  EXPECT_EQ(metrics.parks->total(), 1u);
  ParkedOwner again(scheduler, 1, /*claims=*/true);
  await_parks(metrics, 2);
  EXPECT_FALSE(again.returned());
  scheduler.wake_one(/*except=*/1);
  std::this_thread::sleep_for(kParkGrace);
  EXPECT_FALSE(again.returned()) << "the excepted owner is not woken";
  scheduler.wake_one();
  again.join();
}

TEST_F(SchedConcurrency, AdmissionWakePrefersTheParkedOwnerWithFewestSets) {
  obs::MetricsRegistry registry;
  const SchedMetrics metrics(registry);
  ProbeScheduler scheduler;
  scheduler.set_metrics(&metrics);
  // Owner 0 has a set in flight that nobody executes (remote agents would);
  // owner 1 has none, so it is the one with room for new work.
  scheduler.submit(1, 0, {rr_demand(0, 0)});
  const Watchdog watchdog(std::chrono::seconds(30));
  ParkedOwner busy(scheduler, 0, /*claims=*/false);
  ParkedOwner idle(scheduler, 1, /*claims=*/false);
  await_parks(metrics, 2);

  scheduler.wake_one();
  idle.join();
  EXPECT_TRUE(idle.returned());
  std::this_thread::sleep_for(kParkGrace);
  EXPECT_FALSE(busy.returned());

  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  busy.join();
  EXPECT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());
}

TEST_F(SchedConcurrency, NonClaimingWaitReturnsForResolvedSetsOnly) {
  ProbeScheduler scheduler;
  scheduler.submit(1, 0, {rr_demand(0, 0)});
  const Watchdog watchdog(std::chrono::seconds(30));
  // A loop that claims its demands has work: its queued demand.
  scheduler.wait_for_owner(0, /*claims=*/true);

  // A loop whose demands remote agents execute parks on the same queue.
  ParkedOwner parked(scheduler, 0, /*claims=*/false);
  std::this_thread::sleep_for(kParkGrace);
  EXPECT_FALSE(parked.returned());

  // Someone else executes it; the resolved set ends the wait.
  EXPECT_EQ(scheduler.pump(lab_->prober).issued, 1u);
  parked.join();
  EXPECT_TRUE(parked.returned());
  EXPECT_EQ(scheduler.collect_ready(0).size(), 1u);
}

// --- Remote dispatcher (controller/agent split, DESIGN.md §15). ------------

TEST_F(SchedFixture, DispatcherAssignsAndDeliversLikeAPump) {
  ProbeScheduler scheduler;
  const auto agent = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1)});

  const auto assignments = scheduler.next_assignments(agent);
  ASSERT_EQ(assignments.size(), 2u);
  // The wire spec is exactly what a local pump would have executed.
  EXPECT_EQ(assignments[0].spec, ping_demand(0, 0));
  EXPECT_EQ(assignments[1].spec, ping_demand(1, 1));
  EXPECT_EQ(scheduler.assigned_in_flight(), 2u);

  // An agent executes on its own prober; here the lab's stands in (the
  // outcome is content-addressed, so whose prober is irrelevant).
  for (const auto& assignment : assignments) {
    const auto reply = probing::execute_spec(lab_->prober, assignment.spec);
    EXPECT_TRUE(scheduler.deliver_assignment(agent, assignment.ticket, reply));
  }
  EXPECT_EQ(scheduler.assigned_in_flight(), 0u);
  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].outcomes.size(), 2u);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.stats().issued, 2u);
}

TEST_F(SchedFixture, DispatcherHonorsAgentWindowAcrossAgents) {
  ProbeScheduler scheduler;
  const auto narrow = scheduler.attach_agent(/*window=*/1);
  const auto wide = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1),
                          ping_demand(2, 2)});

  // The narrow agent holds one assignment; the rest spill to the wide one.
  const auto first = scheduler.next_assignments(narrow);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(scheduler.next_assignments(narrow).empty());  // Window full.
  const auto rest = scheduler.next_assignments(wide);
  ASSERT_EQ(rest.size(), 2u);

  // Delivering frees the narrow agent's slot for the next dispatch.
  const auto reply = probing::execute_spec(lab_->prober, first[0].spec);
  EXPECT_TRUE(scheduler.deliver_assignment(narrow, first[0].ticket, reply));
  scheduler.submit(2, 0, {ping_demand(3, 3)});
  EXPECT_EQ(scheduler.next_assignments(narrow).size(), 1u);
}

TEST_F(SchedFixture, DispatcherCoalescesRidersOntoAssignedProbes) {
  ProbeScheduler scheduler;
  const auto agent = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  const auto assignments = scheduler.next_assignments(agent);
  ASSERT_EQ(assignments.size(), 1u);

  // A second request wants the same probe while it is in flight on the
  // agent: it coalesces onto the assignment instead of dispatching again.
  scheduler.submit(2, 0, {ping_demand(0, 0)});
  EXPECT_TRUE(scheduler.next_assignments(agent).empty());

  const auto reply = probing::execute_spec(lab_->prober, assignments[0].spec);
  EXPECT_TRUE(
      scheduler.deliver_assignment(agent, assignments[0].ticket, reply));
  auto ready = scheduler.collect_ready(0);
  ASSERT_EQ(ready.size(), 2u);
  EXPECT_EQ(ready[0].outcomes[0].digest(), ready[1].outcomes[0].digest());
  EXPECT_NE(ready[0].outcomes[0].coalesced, ready[1].outcomes[0].coalesced);
  EXPECT_EQ(scheduler.stats().coalesced, 1u);
  EXPECT_EQ(scheduler.stats().issued, 1u);
}

TEST_F(SchedFixture, DetachRequeuesInFlightForReassignmentWithI7Intact) {
  SchedOptions options;
  ProbeScheduler scheduler(options);
  SchedulerAudit audit;
  scheduler.set_audit(&audit);
  const auto doomed = scheduler.attach_agent(/*window=*/8);
  scheduler.submit(1, 0, {ping_demand(0, 0), ping_demand(1, 1),
                          ping_demand(2, 2)});
  const auto lost = scheduler.next_assignments(doomed);
  ASSERT_EQ(lost.size(), 3u);

  // The agent dies with everything in flight: detaching requeues all three
  // at the head of the queue, in ticket order.
  EXPECT_EQ(scheduler.detach_agent(doomed), 3u);
  EXPECT_EQ(scheduler.stats().reassigned, 3u);
  EXPECT_EQ(scheduler.assigned_in_flight(), 0u);

  const auto heir = scheduler.attach_agent(/*window=*/8);
  const auto retried = scheduler.next_assignments(heir);
  ASSERT_EQ(retried.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(retried[i].spec, lost[i].spec) << "requeue reordered " << i;
    EXPECT_NE(retried[i].ticket, lost[i].ticket);  // Tickets never reused.
  }

  // A late reply from the dead agent is stale: dropped, not double-applied.
  const auto zombie = probing::execute_spec(lab_->prober, lost[0].spec);
  EXPECT_FALSE(scheduler.deliver_assignment(doomed, lost[0].ticket, zombie));
  EXPECT_EQ(scheduler.stats().stale_results, 1u);

  for (const auto& assignment : retried) {
    const auto reply = probing::execute_spec(lab_->prober, assignment.spec);
    EXPECT_TRUE(scheduler.deliver_assignment(heir, assignment.ticket, reply));
    // A duplicate delivery of the same ticket is also stale.
    EXPECT_FALSE(
        scheduler.deliver_assignment(heir, assignment.ticket, reply));
  }
  ASSERT_EQ(scheduler.collect_ready(0).size(), 1u);
  EXPECT_TRUE(scheduler.idle());

  // Each request resolved exactly once (no double delivery through the
  // crash) and the audit still satisfies I7: assignment rounds respect the
  // per-(round, VP) window even though delivery happened much later.
  EXPECT_EQ(audit.issues.size(), 3u);
  EXPECT_TRUE(analysis::check_scheduler(audit, options).empty());
}

TEST_F(SchedFixture, ExpireAgentsDetachesSilentOnes) {
  ProbeScheduler scheduler;
  const auto quiet = scheduler.attach_agent(/*window=*/8, /*now_us=*/0);
  const auto chatty = scheduler.attach_agent(/*window=*/8, /*now_us=*/0);
  scheduler.submit(1, 0, {ping_demand(0, 0)});
  ASSERT_EQ(scheduler.next_assignments(quiet).size(), 1u);

  scheduler.agent_heartbeat(chatty, 900'000);
  const auto expired =
      scheduler.expire_agents(/*now_us=*/1'000'000, /*timeout_us=*/500'000);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], quiet);
  EXPECT_EQ(scheduler.stats().agents_expired, 1u);
  EXPECT_EQ(scheduler.stats().reassigned, 1u);

  // The expired agent's probe requeued; the survivor picks it up.
  EXPECT_EQ(scheduler.next_assignments(chatty).size(), 1u);
  // Expiry is idempotent — the survivor heartbeated recently.
  EXPECT_TRUE(
      scheduler.expire_agents(1'000'000, 500'000).empty());
}

}  // namespace
}  // namespace revtr::sched
