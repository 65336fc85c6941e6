#include <gtest/gtest.h>
#include <memory>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <ostream>
#include <utility>
#include <vector>

#include "net/ip_options.h"
#include "probing/prober.h"
#include "probing/transport.h"
#include "routing/forwarding.h"
#include "sim/network.h"
#include "topology/builder.h"
#include "util/rng.h"

// Heap blocks allocated on the counting thread while an AllocationCount is
// alive. The replacement operator new below counts every ordinary and array
// allocation of this binary (the aligned forms are not used on these paths);
// under ASan/UBSan it still allocates through the sanitizer's malloc.
namespace {
thread_local bool counting_allocations = false;
thread_local std::size_t allocated_blocks = 0;
}  // namespace

// GCC sees free() release what its builtin operator new returned once the
// replacement pair is inlined; here both sides are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (counting_allocations) ++allocated_blocks;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#pragma GCC diagnostic pop

namespace revtr::probing {
namespace {

class AllocationCount {
 public:
  AllocationCount() {
    allocated_blocks = 0;
    counting_allocations = true;
  }
  ~AllocationCount() { counting_allocations = false; }
  AllocationCount(const AllocationCount&) = delete;
  AllocationCount& operator=(const AllocationCount&) = delete;

  std::size_t blocks() const noexcept { return allocated_blocks; }
};

using topology::HostId;
using topology::Topology;
using topology::TopologyBuilder;
using topology::TopologyConfig;

TopologyConfig small_config() {
  TopologyConfig config;
  config.seed = 33;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  return config;
}

class ProbingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = std::make_unique<Topology>(TopologyBuilder::build(small_config()));
    bgp_ = std::make_unique<routing::BgpTable>(*topo_);
    intra_ = std::make_unique<routing::IntraRouting>(*topo_);
    plane_ = std::make_unique<routing::ForwardingPlane>(*topo_, *bgp_, *intra_);
    network_ = std::make_unique<sim::Network>(*topo_, *plane_, 5);
  }
  static void TearDownTestSuite() {
    network_.reset();
    plane_.reset();
    intra_.reset();
    bgp_.reset();
    topo_.reset();
  }

  static HostId responsive_host() {
    for (const auto& host : topo_->hosts()) {
      if (!host.is_vantage_point && !host.is_probe_host &&
          host.rr_responsive && host.stamp == topology::HostStamp::kNormal) {
        return host.id;
      }
    }
    throw std::logic_error("no responsive host");
  }

  static std::unique_ptr<Topology> topo_;
  static std::unique_ptr<routing::BgpTable> bgp_;
  static std::unique_ptr<routing::IntraRouting> intra_;
  static std::unique_ptr<routing::ForwardingPlane> plane_;
  static std::unique_ptr<sim::Network> network_;
};

std::unique_ptr<Topology> ProbingFixture::topo_;
std::unique_ptr<routing::BgpTable> ProbingFixture::bgp_;
std::unique_ptr<routing::IntraRouting> ProbingFixture::intra_;
std::unique_ptr<routing::ForwardingPlane> ProbingFixture::plane_;
std::unique_ptr<sim::Network> ProbingFixture::network_;

TEST_F(ProbingFixture, PingCountsAndTimes) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto result = prober.ping(vp, topo_->host(responsive_host()).addr);
  EXPECT_TRUE(result.responded);
  EXPECT_GT(result.duration_us, 0);
  EXPECT_LT(result.duration_us, Prober::kProbeTimeoutUs);
  EXPECT_EQ(prober.counters().ping, 1u);
  EXPECT_EQ(prober.counters().total(), 1u);
}

TEST_F(ProbingFixture, UnansweredProbeChargedTimeout) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!host.ping_responsive) {
      const auto result = prober.ping(vp, host.addr);
      EXPECT_FALSE(result.responded);
      EXPECT_EQ(result.duration_us, Prober::kProbeTimeoutUs);
      return;
    }
  }
  GTEST_SKIP();
}

TEST_F(ProbingFixture, RrPingReturnsSlots) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto result = prober.rr_ping(vp, topo_->host(responsive_host()).addr);
  EXPECT_TRUE(result.responded);
  EXPECT_FALSE(result.slots.empty());
  EXPECT_LE(result.slots.size(), 9u);
  EXPECT_EQ(prober.counters().rr, 1u);
  EXPECT_EQ(prober.counters().spoofed_rr, 0u);
}

TEST_F(ProbingFixture, SpoofedRrCountsSeparately) {
  Prober prober(*network_);
  HostId spoofer = topology::kInvalidId;
  for (HostId vp : topo_->vantage_points()) {
    if (network_->can_spoof(vp)) spoofer = vp;
  }
  ASSERT_NE(spoofer, topology::kInvalidId);
  const HostId source = topo_->vantage_points()[0] == spoofer
                            ? topo_->vantage_points()[1]
                            : topo_->vantage_points()[0];
  const auto result = prober.rr_ping(spoofer,
                                     topo_->host(responsive_host()).addr,
                                     topo_->host(source).addr);
  EXPECT_EQ(prober.counters().spoofed_rr, 1u);
  EXPECT_EQ(prober.counters().rr, 0u);
  // Spoofed replies are observed at the source; the call still reports what
  // the source saw.
  if (result.responded) {
    EXPECT_FALSE(result.slots.empty());
  }
}

TEST_F(ProbingFixture, TracerouteReachesAndIsOrdered) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  const auto result = prober.traceroute(vp, topo_->host(dst).addr);
  ASSERT_TRUE(result.reached);
  ASSERT_GE(result.hops.size(), 2u);
  // Final hop is the destination itself.
  ASSERT_TRUE(result.hops.back().addr);
  EXPECT_EQ(*result.hops.back().addr, topo_->host(dst).addr);
  // Earlier hops are router interfaces (or silent).
  for (std::size_t i = 0; i + 1 < result.hops.size(); ++i) {
    if (result.hops[i].addr) {
      EXPECT_TRUE(topo_->interface_at(*result.hops[i].addr))
          << "hop " << i << " is not a router interface";
    }
  }
  EXPECT_EQ(prober.counters().traceroutes, 1u);
  EXPECT_EQ(prober.counters().traceroute_packets, result.hops.size());
}

TEST_F(ProbingFixture, TracerouteParisConsistency) {
  // Two traceroutes from the same host to the same destination follow the
  // same path (per-flow load balancing, fixed flow id per trace... but the
  // flow id differs between traces; destinations are the anchor here). We
  // verify the hop *count* and reached flag are stable, and that a repeated
  // run with the same prober state is deterministic.
  const auto vp = topo_->vantage_points()[1];
  const auto dst = responsive_host();
  Prober p1(*network_);
  const auto r1 = p1.traceroute(vp, topo_->host(dst).addr);
  const auto r2 = p1.traceroute(vp, topo_->host(dst).addr);
  EXPECT_EQ(r1.reached, r2.reached);
  EXPECT_EQ(r1.hops.size(), r2.hops.size());
}

TEST_F(ProbingFixture, TracerouteToUnresponsiveDestinationStops) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  for (const auto& host : topo_->hosts()) {
    if (!host.ping_responsive) {
      const auto result = prober.traceroute(vp, host.addr);
      EXPECT_FALSE(result.reached);
      EXPECT_LE(result.hops.size(),
                static_cast<std::size_t>(Prober::kMaxTracerouteTtl));
      return;
    }
  }
  GTEST_SKIP();
}

TEST_F(ProbingFixture, TsPingStampsOnPathRouter) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  const auto rr = prober.rr_ping(vp, topo_->host(dst).addr);
  ASSERT_TRUE(rr.responded);
  net::Ipv4Addr on_path;
  for (const auto addr : rr.slots) {
    if (topo_->interface_at(addr)) {
      on_path = addr;
      break;
    }
  }
  if (on_path.is_unspecified()) GTEST_SKIP() << "no mappable hop";
  const net::Ipv4Addr prespec[] = {on_path};
  const auto ts = prober.ts_ping(vp, topo_->host(dst).addr, prespec);
  if (!ts.responded) GTEST_SKIP() << "TS filtered";
  ASSERT_EQ(ts.stamped.size(), 1u);
  EXPECT_TRUE(ts.stamped[0]);
  EXPECT_EQ(prober.counters().ts, 1u);
}

TEST_F(ProbingFixture, TsPingOffPathAdjacencyNotStamped) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  // Prespecify <destination, bogus-far-away-loopback>: second must stay
  // unstamped because that router is not after the destination on the path.
  const auto far_router =
      topo_->as_at(static_cast<topology::AsIndex>(topo_->num_ases() - 1))
          .routers[0];
  const net::Ipv4Addr prespec[] = {topo_->host(dst).addr,
                                   topo_->router(far_router).loopback};
  const auto ts = prober.ts_ping(vp, topo_->host(dst).addr, prespec);
  if (!ts.responded) GTEST_SKIP() << "TS filtered";
  ASSERT_EQ(ts.stamped.size(), 2u);
  if (ts.stamped[0]) {
    EXPECT_FALSE(ts.stamped[1]) << "off-path adjacency stamped";
  }
}

// Regression companion to Timestamp.DecodeRejectsOversizedEntryCount: the
// stamped vector ts_ping sizes from the reply can never exceed the option's
// wire capacity, and for a responded probe it mirrors the prespec list.
TEST_F(ProbingFixture, TsPingStampedBoundedByOptionCapacity) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto dst = responsive_host();
  std::vector<net::Ipv4Addr> prespec(net::TimestampOption::kMaxEntries,
                                     topo_->host(dst).addr);
  const auto ts = prober.ts_ping(vp, topo_->host(dst).addr, prespec);
  EXPECT_LE(ts.stamped.size(), net::TimestampOption::kMaxEntries);
  if (ts.responded) {
    EXPECT_EQ(ts.stamped.size(), prespec.size());
  }
}

TEST_F(ProbingFixture, CounterArithmetic) {
  ProbeCounters a;
  a.rr = 10;
  a.spoofed_rr = 5;
  ProbeCounters b;
  b.rr = 3;
  b.traceroute_packets = 7;
  ProbeCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.rr, 13u);
  EXPECT_EQ(sum.traceroute_packets, 7u);
  const auto delta = sum - a;
  EXPECT_EQ(delta.rr, 3u);
  EXPECT_EQ(delta.spoofed_rr, 0u);
  EXPECT_EQ(sum.total(), 13u + 5u + 7u);
}

TEST_F(ProbingFixture, ResetCounters) {
  Prober prober(*network_);
  prober.ping(topo_->vantage_points()[0],
              topo_->host(responsive_host()).addr);
  EXPECT_GT(prober.counters().total(), 0u);
  prober.reset_counters();
  EXPECT_EQ(prober.counters().total(), 0u);
}

// --------------------------------------------------------------------------
// Last-hop scan
// --------------------------------------------------------------------------

// Half the routers never answer a TTL-limited probe, so silent runs often
// come before the target and the full trace's give-up rule decides
// `reached`.
TopologyConfig silent_config() {
  TopologyConfig config = small_config();
  config.num_ases = 80;
  config.num_vps = 6;
  config.num_vps_2016 = 2;
  config.num_probe_hosts = 30;
  config.router_ttl_responsive = 0.5;
  return config;
}

// What the symmetry step reads from a trace: whether it reached the
// target, whether the target is the first hop, and the last responsive hop
// before the target.
struct LastHop {
  bool reached = false;
  bool adjacent = false;
  std::optional<net::Ipv4Addr> hop;

  bool operator==(const LastHop&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LastHop& last) {
  return os << (last.reached ? "reached" : "not reached")
            << (last.adjacent ? ", adjacent" : "") << ", last hop "
            << (last.hop ? last.hop->to_string() : "none");
}

LastHop last_hop_of(const TracerouteResult& trace) {
  LastHop out;
  out.reached = trace.reached;
  if (!trace.reached) return out;
  out.adjacent = trace.hops.size() == 1;
  for (std::size_t i = trace.hops.size() - 1; i-- > 0;) {
    if (trace.hops[i].addr) {
      out.hop = trace.hops[i].addr;
      break;
    }
  }
  return out;
}

class PacketTally final : public ProbeObserver {
 public:
  void on_probe(const ProbeEvent& event) override { packets += event.packets; }
  std::uint64_t packets = 0;
};

TEST(LastHopScan, MatchesFullTraceWhereSilentRunsPrecedeTheTarget) {
  const Topology topo = TopologyBuilder::build(silent_config());
  const routing::BgpTable bgp(topo);
  const routing::IntraRouting intra(topo);
  const routing::ForwardingPlane plane(topo, bgp, intra);
  sim::Network network(topo, plane, 5);
  Prober full(network);
  Prober scan(network);
  PacketTally tally;
  scan.set_observer(&tally);

  std::vector<net::Ipv4Addr> targets;
  for (const HostId host : topo.probe_hosts()) {
    targets.push_back(topo.host(host).addr);
  }
  for (const auto& router : topo.routers()) targets.push_back(router.loopback);

  std::uint64_t full_packets = 0;
  std::uint64_t reached = 0;
  std::uint64_t gave_up = 0;
  for (const HostId vp : topo.vantage_points()) {
    for (const net::Ipv4Addr target : targets) {
      const TracerouteResult want = full.traceroute(vp, target);
      ProbeSpec spec;
      spec.type = ProbeType::kTraceroute;
      spec.from = vp;
      spec.target = target;
      spec.trace_scope = TraceScope::kLastHop;
      const ProbeCounters before = scan.counters();
      const ProbeReply reply = execute_spec(scan, spec);
      const TracerouteResult& got = reply.traceroute;

      ASSERT_EQ(last_hop_of(got), last_hop_of(want))
          << "vp " << vp << " target " << target.to_string();
      EXPECT_EQ(reply.responded, want.reached);
      EXPECT_LE(got.packets, want.packets + 2);
      EXPECT_LE(got.hops.size(), got.packets);
      EXPECT_EQ(reply.packets, got.packets);
      const ProbeCounters spent = scan.counters() - before;
      EXPECT_EQ(spent.traceroute_packets, got.packets);
      EXPECT_EQ(spent.traceroutes, 1u);
      EXPECT_EQ(want.packets, want.hops.size());
      full_packets += want.packets;
      reached += want.reached ? 1 : 0;
      const auto n = want.hops.size();
      if (!want.reached && n >= 3 && !want.hops[n - 1].addr &&
          !want.hops[n - 2].addr && !want.hops[n - 3].addr) {
        ++gave_up;
      }
    }
  }
  // The world exercises both outcomes, the give-up rule included.
  EXPECT_GT(reached, 100u);
  EXPECT_GT(gave_up, 100u);
  EXPECT_EQ(tally.packets, scan.counters().traceroute_packets);
  EXPECT_LE(scan.counters().traceroute_packets * 10, full_packets * 7);
}

TEST_F(ProbingFixture, LastHopScanListsProbedTtlsEndingAtTheTarget) {
  Prober prober(*network_);
  const auto vp = topo_->vantage_points()[0];
  const auto target = topo_->host(responsive_host()).addr;
  const TracerouteResult full = prober.traceroute(vp, target);
  const TracerouteResult scan = prober.last_hop_scan(vp, target);
  ASSERT_TRUE(full.reached);
  ASSERT_TRUE(scan.reached);
  ASSERT_TRUE(scan.hops.back().addr);
  EXPECT_EQ(*scan.hops.back().addr, target);
  // Every listed hop is one the full trace saw, in the same order.
  auto at = full.hops.begin();
  for (const TracerouteHop& hop : scan.hops) {
    at = std::find_if(at, full.hops.end(), [&hop](const TracerouteHop& h) {
      return h.addr == hop.addr;
    });
    ASSERT_NE(at, full.hops.end());
    ++at;
  }
  EXPECT_LT(scan.packets, full.packets);
  EXPECT_EQ(prober.counters().traceroutes, 2u);
  EXPECT_EQ(prober.counters().traceroute_packets,
            full.packets + scan.packets);
}

// --------------------------------------------------------------------------
// Warm single probes allocate nothing beyond their results
// --------------------------------------------------------------------------

// The blocks push_back takes to grow an empty vector of `T` to `n` elements.
template <typename T>
std::size_t push_back_blocks(std::size_t n) {
  std::vector<T> grown;
  const AllocationCount count;
  for (std::size_t i = 0; i < n; ++i) grown.emplace_back();
  return count.blocks();
}

class EventLog final : public ProbeObserver {
 public:
  void on_probe(const ProbeEvent& event) override { events.push_back(event); }
  std::vector<ProbeEvent> events;
};

// The transport's batch call sends each item as execute() would, in item
// order: on twin networks with loss, an observer and a stateful fault
// policy, replies, counters, packet ids and the event streams stay equal.
TEST_F(ProbingFixture, BatchesEqualSingleProbesUnderLossAndFaults) {
  constexpr std::uint64_t kSeed = 21;
  sim::Network batch_net(*topo_, *plane_, kSeed);
  sim::Network single_net(*topo_, *plane_, kSeed);
  batch_net.set_loss_rate(0.3);
  single_net.set_loss_rate(0.3);
  Prober batch_prober(batch_net);
  Prober single_prober(single_net);
  EventLog batch_log;
  EventLog single_log;
  batch_prober.set_observer(&batch_log);
  single_prober.set_observer(&single_log);
  // Drops every fifth RR probe each prober sees.
  const auto every_fifth = [] {
    return [seen = 0](const ProbeEvent&) mutable { return ++seen % 5 == 0; };
  };
  batch_prober.set_fault_policy(every_fifth());
  single_prober.set_fault_policy(every_fifth());
  LocalProbeTransport batch(batch_prober);
  LocalProbeTransport single(single_prober);

  util::Rng rng(8);
  const auto vps = topo_->vantage_points();
  std::vector<RrBatchItem> items;
  std::vector<RrProbeResult> replies;
  std::size_t answered = 0;
  for (int round = 0; round < 1000; ++round) {
    items.clear();
    for (int i = 0; i < 3; ++i) {
      items.push_back(RrBatchItem{
          vps[rng.below(vps.size())],
          topo_->hosts()[rng.below(topo_->num_hosts())].addr,
          topo_->host(vps[rng.below(vps.size())]).addr});
    }
    batch.execute_batch(items, replies);
    ASSERT_EQ(replies.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      ProbeSpec spec;
      spec.type = ProbeType::kSpoofedRecordRoute;
      spec.from = items[i].from;
      spec.target = items[i].target;
      spec.spoof_as = items[i].spoof_as;
      const ProbeReply want = single.execute(spec);
      EXPECT_EQ(replies[i].responded, want.responded);
      EXPECT_EQ(replies[i].slots, want.slots);
      EXPECT_EQ(replies[i].duration_us, want.duration_us);
      answered += want.responded;
    }
    ASSERT_EQ(batch_prober.last_packet_id(), single_prober.last_packet_id());
  }
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(batch_prober.counters(), single_prober.counters());
  EXPECT_EQ(batch_prober.counters().spoofed_rr, 3000u);
  EXPECT_TRUE(batch_log.events == single_log.events);
  EXPECT_EQ(single_log.events.size(), 3000u);
}

TEST_F(ProbingFixture, WarmSingleProbesAllocateOnlyTheirResults) {
  // A private network and prober: every allocation below is theirs.
  sim::Network network(*topo_, *plane_, 5);
  Prober prober(network);
  util::Rng rng(3);
  std::vector<std::pair<HostId, net::Ipv4Addr>> pairs;
  const auto vps = topo_->vantage_points();
  for (int i = 0; i < 1000; ++i) {
    pairs.emplace_back(
        vps[rng.below(vps.size())],
        topo_->hosts()[rng.below(topo_->num_hosts())].addr);
  }
  // Warm-up: every routing column and intra-AS matrix these probes cross
  // is built, and the prober's reply scratch has its capacity.
  for (const auto& [from, target] : pairs) {
    prober.rr_ping(from, target);
    prober.ping(from, target);
    prober.traceroute(from, target);
  }

  std::size_t with_slots = 0;
  std::size_t blocks = 0;
  {
    const AllocationCount count;
    for (const auto& [from, target] : pairs) {
      with_slots += !prober.rr_ping(from, target).slots.empty();
    }
    blocks = count.blocks();
  }
  // One block per RR ping whose reply carried slots: the result's slots.
  EXPECT_GT(with_slots, pairs.size() / 4);
  EXPECT_EQ(blocks, with_slots);

  // A transport spec takes over the prober's result instead of copying it:
  // an RR spec allocates its slots, a TS spec its stamps, nothing more.
  std::vector<ProbeSpec> specs;
  for (const auto& [from, target] : pairs) {
    ProbeSpec spec;
    spec.type = ProbeType::kRecordRoute;
    spec.from = from;
    spec.target = target;
    specs.push_back(spec);
    spec.type = ProbeType::kTimestamp;
    spec.prespec = {target, topo_->host(from).addr};
    specs.push_back(spec);
  }
  for (const ProbeSpec& spec : specs) (void)execute_spec(prober, spec);
  std::size_t result_blocks = 0;
  std::size_t stamped = 0;
  blocks = 0;
  for (const ProbeSpec& spec : specs) {
    ProbeReply reply;
    {
      const AllocationCount count;
      reply = execute_spec(prober, spec);
      blocks += count.blocks();
    }
    result_blocks += !reply.slots.empty() + !reply.stamped.empty();
    stamped += !reply.stamped.empty();
  }
  EXPECT_GT(stamped, 0u);
  EXPECT_EQ(blocks, result_blocks);

  std::size_t answered = 0;
  {
    const AllocationCount count;
    for (const auto& [from, target] : pairs) {
      answered += prober.ping(from, target).responded;
    }
    blocks = count.blocks();
  }
  EXPECT_GT(answered, pairs.size() / 4);
  EXPECT_EQ(blocks, 0u);

  // A traceroute allocates its result's hop list and nothing else.
  std::size_t trace_blocks = 0;
  std::size_t hop_list_blocks = 0;
  for (const auto& [from, target] : pairs) {
    TracerouteResult trace;
    {
      const AllocationCount count;
      trace = prober.traceroute(from, target);
      trace_blocks += count.blocks();
    }
    hop_list_blocks += push_back_blocks<TracerouteHop>(trace.hops.size());
  }
  EXPECT_GT(trace_blocks, 0u);
  EXPECT_EQ(trace_blocks, hop_list_blocks);

  // Inside sim::Network: none at all into a warm SendResult.
  sim::SendResult reply;
  for (int round = 0; round < 2; ++round) {  // A warm-up round, then the count.
    const AllocationCount count;
    for (const auto& [from, target] : pairs) {
      net::Packet probe = net::make_echo_request(topo_->host(from).addr,
                                                 target, 1, 1);
      probe.rr = net::RecordRouteOption{};
      network.send_into(probe, from, reply);
    }
    blocks = count.blocks();
  }
  EXPECT_EQ(blocks, 0u);
}

}  // namespace
}  // namespace revtr::probing
