#include <gtest/gtest.h>
#include <memory>

#include <algorithm>

#include "core/request_task.h"
#include "core/revtr.h"
#include "core/serialize.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "sched/scheduler.h"

namespace revtr::core {
namespace {

using net::Ipv4Addr;
using topology::HostId;

topology::TopologyConfig small_config() {
  topology::TopologyConfig config;
  config.seed = 81;
  config.num_ases = 200;
  config.num_vps = 12;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 60;
  return config;
}

// --------------------------------------------------------------------------
// extract_reverse_hops
// --------------------------------------------------------------------------

TEST(ExtractReverseHops, AfterExactStamp) {
  const Ipv4Addr current(5, 5, 5, 5);
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1), current,
                                       Ipv4Addr(2, 0, 0, 1),
                                       Ipv4Addr(3, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], Ipv4Addr(2, 0, 0, 1));
}

TEST(ExtractReverseHops, LastOccurrenceWins) {
  const Ipv4Addr current(5, 5, 5, 5);
  const std::vector<Ipv4Addr> slots = {current, Ipv4Addr(1, 0, 0, 1), current,
                                       Ipv4Addr(2, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], Ipv4Addr(2, 0, 0, 1));
}

TEST(ExtractReverseHops, DoubleStampFallback) {
  const Ipv4Addr current(5, 5, 5, 5);
  const Ipv4Addr alias(6, 6, 6, 6);
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1), alias, alias,
                                       Ipv4Addr(2, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], Ipv4Addr(2, 0, 0, 1));
}

TEST(ExtractReverseHops, LoopFallback) {
  const Ipv4Addr current(5, 5, 5, 5);
  const Ipv4Addr a(1, 0, 0, 1);
  const std::vector<Ipv4Addr> slots = {a, Ipv4Addr(2, 0, 0, 1), a,
                                       Ipv4Addr(3, 0, 0, 1)};
  const auto hops = RevtrEngine::extract_reverse_hops(slots, current);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], Ipv4Addr(3, 0, 0, 1));
}

TEST(ExtractReverseHops, NothingWithoutDelimiter) {
  const std::vector<Ipv4Addr> slots = {Ipv4Addr(1, 0, 0, 1),
                                       Ipv4Addr(2, 0, 0, 1)};
  EXPECT_TRUE(
      RevtrEngine::extract_reverse_hops(slots, Ipv4Addr(9, 9, 9, 9)).empty());
}

// --------------------------------------------------------------------------
// Engine end-to-end on the simulated Internet
// --------------------------------------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = std::make_unique<eval::Lab>(small_config(), EngineConfig::revtr2());
    source_ = lab_->topo.vantage_points()[0];
    lab_->bootstrap_source(source_, 50);
  }
  static void TearDownTestSuite() {
    lab_.reset();
  }
  static std::unique_ptr<eval::Lab> lab_;
  static HostId source_;
};

std::unique_ptr<eval::Lab> EngineFixture::lab_;
HostId EngineFixture::source_ = topology::kInvalidId;

TEST_F(EngineFixture, MeasuresCompletePathsEndingAtSource) {
  const auto dests = lab_->responsive_destinations(/*require_rr=*/true);
  ASSERT_GT(dests.size(), 20u);
  util::SimClock clock;
  std::size_t complete = 0, attempted = 0;
  for (std::size_t i = 0; i < dests.size() && attempted < 25; i += 7) {
    ++attempted;
    const auto result = lab_->engine.measure(dests[i], source_, clock);
    EXPECT_EQ(result.destination, dests[i]);
    EXPECT_FALSE(result.hops.empty());
    EXPECT_EQ(result.hops.front().addr, lab_->topo.host(dests[i]).addr);
    EXPECT_EQ(result.hops.front().source, HopSource::kDestination);
    if (result.complete()) {
      ++complete;
      // A complete path ends at the source (or its last atlas hop).
      const auto ips = result.ip_hops();
      ASSERT_GE(ips.size(), 2u);
    }
  }
  EXPECT_GT(complete, attempted / 2) << "revtr 2.0 should complete most";
}

TEST_F(EngineFixture, LatencyAndProbesAccounted) {
  const auto dests = lab_->responsive_destinations(true);
  util::SimClock clock;
  const auto before = clock.now();
  const auto result = lab_->engine.measure(dests[1], source_, clock);
  EXPECT_EQ(result.span.begin, before);
  EXPECT_EQ(result.span.end, clock.now());
  EXPECT_GE(result.span.duration(), 0);
  EXPECT_GT(result.probes.total(), 0u);
}

TEST_F(EngineFixture, CacheCutsProbesOnRepeat) {
  EngineConfig config = EngineConfig::revtr2();
  eval::Lab lab(small_config(), config);
  const HostId source = lab.topo.vantage_points()[1];
  lab.bootstrap_source(source, 40);
  const auto dests = lab.responsive_destinations(true);
  util::SimClock clock;
  const auto first = lab.engine.measure(dests[3], source, clock);
  const auto second = lab.engine.measure(dests[3], source, clock);
  EXPECT_EQ(first.complete(), second.complete());
  EXPECT_LE(second.probes.total(), first.probes.total());
}

TEST_F(EngineFixture, HopProvenanceIsPlausible) {
  const auto dests = lab_->responsive_destinations(true);
  util::SimClock clock;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto result = lab_->engine.measure(dests[i * 3 + 1], source_,
                                             clock);
    if (!result.complete()) continue;
    bool after_atlas = false;
    for (std::size_t h = 0; h < result.hops.size(); ++h) {
      const auto& hop = result.hops[h];
      if (h == 0) {
        EXPECT_EQ(hop.source, HopSource::kDestination);
        continue;
      }
      // Once the path intersects the atlas, everything after comes from
      // the atlas too (plus inserted "*" flags).
      if (after_atlas) {
        EXPECT_TRUE(hop.source == HopSource::kAtlasIntersection ||
                    hop.source == HopSource::kSuspiciousGap);
      }
      if (hop.source == HopSource::kAtlasIntersection) after_atlas = true;
    }
  }
}

TEST_F(EngineFixture, Revtr2NeverAssumesInterdomainSymmetry) {
  const auto dests = lab_->responsive_destinations(false);
  util::SimClock clock;
  for (std::size_t i = 0; i < dests.size() && i < 60; i += 3) {
    const auto result = lab_->engine.measure(dests[i], source_, clock);
    EXPECT_FALSE(result.used_interdomain_symmetry);
  }
}

TEST_F(EngineFixture, Revtr1CompletesMoreButUsesInterdomainGuesses) {
  eval::Lab lab1(small_config(), EngineConfig::revtr1());
  eval::Lab lab2(small_config(), EngineConfig::revtr2());
  const HostId source1 = lab1.topo.vantage_points()[0];
  const HostId source2 = lab2.topo.vantage_points()[0];
  lab1.bootstrap_source(source1, 40);
  lab2.bootstrap_source(source2, 40);
  // revtr 1.0 intersected via alias datasets (§5.2.1), not the Q2 RR index.
  util::Rng alias_rng(3);
  const auto midar = alias::midar_like_aliases(lab1.topo, alias_rng);
  lab1.engine.set_alias_store(&midar);
  const auto dests = lab1.responsive_destinations(false);

  util::SimClock clock1, clock2;
  std::size_t complete1 = 0, complete2 = 0, interdomain1 = 0;
  for (std::size_t i = 0; i < dests.size() && i < 120; ++i) {
    const auto r1 = lab1.engine.measure(dests[i], source1, clock1);
    const auto r2 = lab2.engine.measure(dests[i], source2, clock2);
    complete1 += r1.complete();
    complete2 += r2.complete();
    interdomain1 += r1.used_interdomain_symmetry;
  }
  EXPECT_GE(complete1, complete2);
  EXPECT_GT(complete2, 0u);
  EXPECT_GT(interdomain1, 0u)
      << "revtr 1.0 should have fallen back to interdomain symmetry";
}

TEST_F(EngineFixture, TimestampWithOracleAdjacenciesExtends) {
  eval::Lab lab(small_config(), [] {
    EngineConfig config = EngineConfig::revtr2();
    config.use_timestamp = true;
    return config;
  }());
  const HostId source = lab.topo.vantage_points()[2];
  lab.bootstrap_source(source, 40);
  // Oracle: ground-truth adjacencies from topology links.
  lab.engine.set_adjacency_provider([&](Ipv4Addr current) {
    std::vector<Ipv4Addr> result;
    const auto owner = lab.topo.interface_at(current);
    if (!owner) return result;
    for (const auto link : lab.topo.router(owner->router).links) {
      result.push_back(
          lab.topo.egress_addr(lab.topo.far_end(owner->router, link), link));
    }
    return result;
  });
  const auto dests = lab.responsive_destinations(true);
  util::SimClock clock;
  std::size_t ts_counted = 0;
  for (std::size_t i = 0; i < dests.size() && i < 30; ++i) {
    const auto result = lab.engine.measure(dests[i], source, clock);
    ts_counted += result.probes.ts + result.probes.spoofed_ts;
  }
  EXPECT_GT(ts_counted, 0u) << "TS technique never exercised";
}

TEST_F(EngineFixture, DeterministicAcrossRuns) {
  auto run = [&]() {
    eval::Lab lab(small_config(), EngineConfig::revtr2());
    const HostId source = lab.topo.vantage_points()[0];
    lab.bootstrap_source(source, 40);
    const auto dests = lab.responsive_destinations(true);
    util::SimClock clock;
    std::vector<std::string> summary;
    for (std::size_t i = 0; i < 10; ++i) {
      const auto result = lab.engine.measure(dests[i], source, clock);
      std::string line = to_string(result.status);
      for (const auto& hop : result.hops) {
        line += ' ';
        line += hop.addr.to_string();
      }
      summary.push_back(line);
    }
    return summary;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(EngineFixture, AccuracyAgainstDirectTraceroute) {
  // The headline property: complete revtr 2.0 paths agree with a direct
  // traceroute at the AS level for the vast majority of measured pairs.
  const auto probe_hosts = lab_->topo.probe_hosts();
  util::SimClock clock;
  std::size_t exact_or_missing = 0, complete = 0;
  for (std::size_t i = 0; i < probe_hosts.size() && complete < 20; ++i) {
    const HostId dest = probe_hosts[i];
    const auto result = lab_->engine.measure(dest, source_, clock);
    if (!result.complete()) continue;
    ++complete;
    const auto direct = lab_->prober.traceroute(
        dest, lab_->topo.host(source_).addr);
    const auto direct_as = lab_->ip2as.as_path(direct.responsive_hops());
    const auto revtr_as = lab_->ip2as.as_path(result.ip_hops());
    const auto match = eval::compare_as_paths(direct_as, revtr_as);
    if (match != eval::AsMatch::kMismatch) ++exact_or_missing;
  }
  ASSERT_GT(complete, 5u);
  EXPECT_GT(static_cast<double>(exact_or_missing) /
                static_cast<double>(complete),
            0.75);
}

TEST_F(EngineFixture, AtlasCheckedBeforeRecordRoute) {
  // Fig 2 control flow: if the destination itself sits on an atlas
  // traceroute, the measurement completes with no online RR probing at all.
  const auto& traceroutes = lab_->atlas.traceroutes(source_);
  for (const auto& tr : traceroutes) {
    const auto dest = lab_->topo.host_at(
        lab_->topo.host(tr.probe).addr);
    if (!dest) continue;
    util::SimClock clock;
    lab_->engine.clear_caches();
    const auto result = lab_->engine.measure(tr.probe, source_, clock);
    if (!result.complete()) continue;
    // When every hop came from the direct RR ping and the atlas (no
    // spoofed-rr / timestamp / symmetry provenance), no spoofed batch may
    // have been charged — the cheap techniques run first.
    bool cheap_only = true;
    for (std::size_t h = 1; h < result.hops.size(); ++h) {
      cheap_only &=
          result.hops[h].source == core::HopSource::kAtlasIntersection ||
          result.hops[h].source == core::HopSource::kRecordRoute ||
          result.hops[h].source == core::HopSource::kSuspiciousGap;
    }
    if (cheap_only) {
      EXPECT_EQ(result.spoofed_batches, 0u);
      EXPECT_EQ(result.probes.spoofed_rr, 0u);
      return;
    }
  }
  GTEST_SKIP() << "no destination resolved from direct RR + atlas alone";
}

TEST_F(EngineFixture, CacheExpiresAfterTtl) {
  EngineConfig config = EngineConfig::revtr2();
  eval::Lab lab(small_config(), config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 40);
  const auto dests = lab.responsive_destinations(true);
  util::SimClock clock;
  const auto first = lab.engine.measure(dests[5], source, clock);
  // Within the TTL the repeat is cheaper; after the TTL it pays full price
  // again.
  const auto cached = lab.engine.measure(dests[5], source, clock);
  clock.advance(2 * util::SimClock::kDay);
  const auto expired = lab.engine.measure(dests[5], source, clock);
  EXPECT_LE(cached.probes.total(), first.probes.total());
  EXPECT_GE(expired.probes.total(), cached.probes.total());
}

// --------------------------------------------------------------------------
// RequestExecutor
// --------------------------------------------------------------------------

// What a measurement reports, minus its probe accounting: a demand answered
// by another request's in-flight probe counts as coalesced, not issued.
std::string measured(const ReverseTraceroute& result,
                     const topology::Topology& topo) {
  util::Json json = to_json(result, topo);
  json["probes"] = nullptr;
  json["coalesced_probes"] = nullptr;
  return json.dump() + " span " + std::to_string(result.span.begin) + ".." +
         std::to_string(result.span.end) + " age " +
         std::to_string(result.intersected_age_us);
}

// Two executors with different owners share one scheduler and one engine.
// Their requests mix atlas hits (cache replays that end on the atlas, with
// no probe) with multi-round measurements, one of them started on both
// executors so that one copy rides on the other's probes. Every finish
// handler runs exactly once, inside a call on its own executor, with the
// trace given to start(); every result equals measure() of the same pair
// from the same RNG seed and start time.
TEST(RequestExecutor, FinishesEachRequestOnceAsMeasureWould) {
  eval::Lab lab(small_config(), EngineConfig::revtr2());
  const auto vps = lab.topo.vantage_points();
  lab.bootstrap_source(vps[0], 50);
  lab.precompute_all_ingresses();
  // Same collaborators, separate caches: `reference` runs measure(), the
  // executors drive `engine`.
  const auto make_engine = [&lab] {
    return std::make_unique<RevtrEngine>(
        lab.prober, lab.topo, lab.atlas, lab.ingress, lab.ip2as,
        lab.relationships, EngineConfig::revtr2());
  };
  const auto engine = make_engine();
  const auto reference = make_engine();
  const auto dests = lab.responsive_destinations();

  struct Request {
    HostId destination = topology::kInvalidId;
    HostId source = topology::kInvalidId;
    util::SimClock::Micros start_us = 0;
    std::uint64_t seed = 0;
    bool hit = false;
    ReverseTraceroute expected;
  };
  std::vector<Request> requests;
  // The next request for (destination, source), with what measure() makes
  // of it from its seed and start time.
  const auto measure_alone = [&](HostId destination, HostId source) {
    Request request;
    request.destination = destination;
    request.source = source;
    request.start_us =
        static_cast<util::SimClock::Micros>(requests.size() + 1) *
        util::SimClock::kMinute;
    request.seed = util::mix_hash(0xe5ec, requests.size());
    util::SimClock clock;
    clock.advance_to(request.start_us);
    reference->reseed(request.seed);
    request.expected = reference->measure(destination, source, clock);
    return request;
  };

  // Atlas hits: pairs from vps[0] that both engines measured once already.
  for (std::size_t i = 0; i < 40; ++i) {
    for (RevtrEngine* warmed : {engine.get(), reference.get()}) {
      util::SimClock clock;
      warmed->measure(dests[i], vps[0], clock);
    }
  }
  for (std::size_t i = 0; i < 40 && requests.size() < 4; ++i) {
    Request request = measure_alone(dests[i], vps[0]);
    const auto sources = request.expected.hops.sources();
    request.hit = request.expected.probes.total() == 0 &&
                  std::find(sources.begin(), sources.end(),
                            HopSource::kAtlasIntersection) != sources.end();
    if (request.hit) requests.push_back(std::move(request));
  }
  ASSERT_EQ(requests.size(), 4u);

  // Multi-round measurements: a direct RR ping, then spoofed batches. Each
  // comes from a source of its own, so no two share a cache entry and each
  // measures what it would measure alone.
  for (std::size_t v = 1, i = 40; v < 4; ++v) {
    for (; i < dests.size(); ++i) {
      reference->clear_caches();
      Request request = measure_alone(dests[i], vps[v]);
      if (request.expected.spoofed_batches > 0) {
        requests.push_back(std::move(request));
        ++i;
        break;
      }
    }
  }
  ASSERT_EQ(requests.size(), 7u);
  requests.push_back(requests.back());  // Started on the other executor.

  sched::ProbeScheduler scheduler;
  RequestExecutor first(*engine, scheduler, 0);
  RequestExecutor second(*engine, scheduler, 1);
  const RequestExecutor* calling = nullptr;
  bool starting = false;
  std::vector<int> finished(requests.size(), 0);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    RequestExecutor& executor = k % 2 == 0 ? first : second;
    const Request& request = requests[k];
    obs::Trace trace;
    trace.request_index = k;
    calling = &executor;
    starting = true;
    executor.start(
        request.destination, request.source, request.start_us, request.seed,
        std::move(trace),
        [&, k, owner = &executor](ReverseTraceroute result,
                                  std::optional<obs::Trace> back) {
          ++finished[k];
          EXPECT_EQ(calling, owner) << "request " << k;
          EXPECT_EQ(starting, requests[k].hit) << "request " << k;
          ASSERT_TRUE(back.has_value());
          EXPECT_EQ(back->request_index, k);
          EXPECT_EQ(result.span.begin, requests[k].start_us);
          EXPECT_EQ(measured(result, lab.topo),
                    measured(requests[k].expected, lab.topo))
              << "request " << k;
        });
  }
  starting = false;
  // One thread drives both owners, so it pumps each by hand: round() could
  // park on one owner while the other's probe is still unclaimed.
  while (first.active() + second.active() > 0) {
    scheduler.pump(lab.prober, 0);
    scheduler.pump(lab.prober, 1);
    calling = &first;
    first.resume_ready();
    calling = &second;
    second.resume_ready();
  }
  EXPECT_EQ(finished, std::vector<int>(requests.size(), 1));
  EXPECT_GT(scheduler.stats().coalesced, 0u);
  EXPECT_TRUE(scheduler.idle());
}

// --------------------------------------------------------------------------
// On-demand ingress survey
// --------------------------------------------------------------------------

// A request whose spoofed stage reaches a prefix with no ingress plan runs
// the offline survey (Q3) itself, inside its ingress-discovery span. The
// suite searches a lab whose source is bootstrapped but whose prefixes were
// never surveyed for the first request whose blocking measure() surveys;
// each test then replays that request on fresh labs built the same way.
class OnDemandSurvey : public ::testing::Test {
 protected:
  static constexpr util::SimClock::Micros kStartUs = util::SimClock::kMinute;

  static std::unique_ptr<eval::Lab> unsurveyed_lab() {
    auto lab = std::make_unique<eval::Lab>(small_config(),
                                           EngineConfig::revtr2());
    lab->bootstrap_source(lab->topo.vantage_points()[0], 50);
    return lab;
  }

  // What blocking measure() makes of the request on `lab`.
  static ReverseTraceroute measure(eval::Lab& lab, HostId destination,
                                   std::uint64_t seed) {
    util::SimClock clock;
    clock.advance_to(kStartUs);
    lab.engine.reseed(seed);
    return lab.engine.measure(destination, lab.topo.vantage_points()[0],
                              clock);
  }

  static void SetUpTestSuite() {
    const auto lab = unsurveyed_lab();
    for (const HostId destination : lab->responsive_destinations()) {
      const std::uint64_t seed = util::mix_hash(0x5e7e, destination);
      lab->engine.clear_caches();
      if (measure(*lab, destination, seed).offline_probes.total() > 0) {
        destination_ = destination;
        seed_ = seed;
        return;
      }
    }
  }

  static HostId destination_;
  static std::uint64_t seed_;
};

HostId OnDemandSurvey::destination_ = topology::kInvalidId;
std::uint64_t OnDemandSurvey::seed_ = 0;

// Staged, the survey runs where blocking runs it: the result, its offline
// probes and its RNG draws match measure(), and the scheduler saw wire
// probes only, so every demand was issued or coalesced.
TEST_F(OnDemandSurvey, StagedRequestSurveysInsideItsOwnSpan) {
  ASSERT_NE(destination_, topology::kInvalidId);
  const auto blocking = unsurveyed_lab();
  const ReverseTraceroute want = measure(*blocking, destination_, seed_);
  ASSERT_GT(want.offline_probes.total(), 0u);

  const auto staged = unsurveyed_lab();
  const HostId source = staged->topo.vantage_points()[0];
  sched::ProbeScheduler scheduler;
  RequestExecutor executor(staged->engine, scheduler, 0);
  std::optional<ReverseTraceroute> got;
  std::optional<obs::Trace> trace;
  executor.start(destination_, source, kStartUs, seed_, obs::Trace{},
                 [&](ReverseTraceroute result, std::optional<obs::Trace> back) {
                   got = std::move(result);
                   trace = std::move(back);
                 });
  while (executor.active() > 0) executor.round(&staged->prober);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_json(*got, staged->topo).dump(),
            to_json(want, blocking->topo).dump());
  EXPECT_EQ(got->span.begin, want.span.begin);
  EXPECT_EQ(got->span.end, want.span.end);
  EXPECT_EQ(got->offline_probes, want.offline_probes);

  ASSERT_TRUE(trace.has_value());
  const auto& spans = trace->spans();
  EXPECT_TRUE(std::any_of(spans.begin(), spans.end(), [](const auto& span) {
    return span.name == "ingress-discovery";
  }));

  const auto stats = scheduler.stats();
  EXPECT_GT(stats.demanded, 0u);
  EXPECT_EQ(stats.demanded, stats.issued + stats.coalesced);
  EXPECT_TRUE(scheduler.idle());
}

// An engine on a worker stack (its own Network and Prober over the Lab's
// topology, atlas and ingress, like the daemon's and parallel campaigns'
// workers) counts the survey it triggers, although the survey probes on
// the Lab's discovery prober, not on the worker's.
TEST_F(OnDemandSurvey, WorkerStackCountsTheSurveyItTriggered) {
  ASSERT_NE(destination_, topology::kInvalidId);
  const auto blocking = unsurveyed_lab();
  const ReverseTraceroute want = measure(*blocking, destination_, seed_);
  ASSERT_GT(want.offline_probes.total(), 0u);

  const auto lab = unsurveyed_lab();
  constexpr std::uint64_t kLabSeed = 7;  // eval::Lab's default seed.
  sim::Network network(lab->topo, lab->plane, kLabSeed);
  probing::Prober prober(network);
  RevtrEngine engine(prober, lab->topo, lab->atlas, lab->ingress, lab->ip2as,
                     lab->relationships, EngineConfig::revtr2(), kLabSeed);
  util::SimClock clock;
  clock.advance_to(kStartUs);
  engine.reseed(seed_);
  const ReverseTraceroute got =
      engine.measure(destination_, lab->topo.vantage_points()[0], clock);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(got.offline_probes, want.offline_probes);
  EXPECT_EQ(prober.offline_counters().total(), 0u);
}

// Two requests that reach the same unplanned prefix together survey it once:
// the first surveys, the second reads its plan, as consecutive blocking
// requests do. Both find the same path.
TEST_F(OnDemandSurvey, ConcurrentRequestsSurveyAPrefixOnce) {
  ASSERT_NE(destination_, topology::kInvalidId);
  const auto lab = unsurveyed_lab();
  const HostId source = lab->topo.vantage_points()[0];
  sched::ProbeScheduler scheduler;
  RequestExecutor executor(lab->engine, scheduler, 0);
  std::vector<ReverseTraceroute> results;
  for (int copy = 0; copy < 2; ++copy) {
    executor.start(destination_, source, kStartUs, seed_, std::nullopt,
                   [&](ReverseTraceroute result, std::optional<obs::Trace>) {
                     results.push_back(std::move(result));
                   });
  }
  while (executor.active() > 0) executor.round(&lab->prober);
  ASSERT_EQ(results.size(), 2u);
  const auto surveyed = std::count_if(
      results.begin(), results.end(), [](const ReverseTraceroute& result) {
        return result.offline_probes.total() > 0;
      });
  EXPECT_EQ(surveyed, 1);
  EXPECT_EQ(results[0].status, results[1].status);
  EXPECT_EQ(results[0].hops, results[1].hops);
}

// Last-hop symmetry traces change what a measurement costs, never what it
// finds: over every (destination, source) pair of a small world, revtr 2.0
// with and without them returns the same status and the same hops with the
// same provenance, from as many traceroutes and fewer traceroute packets.
TEST(LastHopTraces, SameHopsFromFewerPackets) {
  topology::TopologyConfig config = small_config();
  config.num_ases = 100;
  config.num_vps = 6;
  config.num_probe_hosts = 20;
  EngineConfig full_traces = EngineConfig::revtr2();
  full_traces.use_last_hop_traces = false;
  eval::Lab scans(config, EngineConfig::revtr2());
  eval::Lab traces(config, full_traces);
  const auto vps = scans.topo.vantage_points();
  for (const HostId vp : vps) {
    scans.bootstrap_source(vp, 20);
    traces.bootstrap_source(vp, 20);
  }
  const auto dests = scans.responsive_destinations();
  ASSERT_EQ(dests, traces.responsive_destinations());

  probing::ProbeCounters scan_probes;
  probing::ProbeCounters trace_probes;
  std::size_t assumed = 0;
  for (const HostId source : vps) {
    for (const HostId destination : dests) {
      util::SimClock scan_clock;
      util::SimClock trace_clock;
      const auto got = scans.engine.measure(destination, source, scan_clock);
      const auto want =
          traces.engine.measure(destination, source, trace_clock);
      ASSERT_EQ(got.status, want.status)
          << destination << " -> " << source;
      ASSERT_EQ(got.hops, want.hops) << destination << " -> " << source;
      scan_probes += got.probes;
      trace_probes += want.probes;
      assumed += got.symmetry_assumptions;
    }
  }
  EXPECT_GT(assumed, 0u);
  EXPECT_GT(scan_probes.traceroutes, 0u);
  EXPECT_LT(scan_probes.traceroute_packets, trace_probes.traceroute_packets);
  // Every other count, traceroutes included, is unchanged.
  probing::ProbeCounters rest = scan_probes;
  rest.traceroute_packets = trace_probes.traceroute_packets;
  EXPECT_EQ(rest, trace_probes);
}

// --------------------------------------------------------------------------
// AdjacencyMap
// --------------------------------------------------------------------------

TEST(AdjacencyMap, RecordsUndirectedPairs) {
  AdjacencyMap map;
  const std::vector<Ipv4Addr> path = {Ipv4Addr(1, 0, 0, 1),
                                      Ipv4Addr(2, 0, 0, 1),
                                      Ipv4Addr(3, 0, 0, 1)};
  map.add_path(path);
  const auto n2 = map.adjacent_to(Ipv4Addr(2, 0, 0, 1));
  EXPECT_EQ(n2.size(), 2u);
  const auto n1 = map.adjacent_to(Ipv4Addr(1, 0, 0, 1));
  ASSERT_EQ(n1.size(), 1u);
  EXPECT_EQ(n1[0], Ipv4Addr(2, 0, 0, 1));
  EXPECT_TRUE(map.adjacent_to(Ipv4Addr(9, 9, 9, 9)).empty());
}

TEST(AdjacencyMap, DeduplicatesAndCaps) {
  AdjacencyMap map;
  for (int i = 0; i < 30; ++i) {
    map.add_pair(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(2, 0, 0, static_cast<std::uint8_t>(i)));
    map.add_pair(Ipv4Addr(1, 0, 0, 1), Ipv4Addr(2, 0, 0, 5));  // Duplicate.
  }
  EXPECT_EQ(map.adjacent_to(Ipv4Addr(1, 0, 0, 1), 10).size(), 10u);
  EXPECT_EQ(map.adjacent_to(Ipv4Addr(1, 0, 0, 1), 100).size(), 30u);
  const auto provider = map.provider(4);
  EXPECT_EQ(provider(Ipv4Addr(1, 0, 0, 1)).size(), 4u);
}

}  // namespace
}  // namespace revtr::core
