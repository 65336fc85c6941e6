// Concurrency regression suite. Everything here is meant to run under TSan
// (scripts/check.sh builds the tsan preset and runs this binary): the tests
// exercise exactly the shared paths of a parallel campaign — the
// synchronized Distribution, the lock-striped caches, the sharded metrics —
// plus the end-to-end guarantee that a campaign's measurement set is
// independent of worker count and equal to the engine's own sequential
// loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/probe_log.h"
#include "core/worker_stack.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "service/parallel.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/striped_map.h"

namespace revtr {
namespace {

using topology::HostId;

// --- Distribution (the const_cast data race, fixed) ----------------------

// Regression for the ensure_sorted const_cast: quantile() used to sort the
// sample vector through a const_cast with no synchronization, so a reader
// racing a writer corrupted the vector. Under TSan this test fails on the
// old code; on any build it must not crash and must keep counts exact.
TEST(DistributionConcurrency, ReaderRacingWriterIsSafe) {
  util::Distribution dist;
  constexpr int kSamples = 20000;
  std::thread writer([&dist] {
    for (int i = 0; i < kSamples; ++i) dist.add(i);
  });
  std::thread reader([&dist] {
    // quantile() on an empty distribution is a contract violation, not the
    // race under test: start reading once the writer has begun.
    while (dist.count() == 0) std::this_thread::yield();
    for (int i = 0; i < 2000; ++i) {
      const double q = dist.quantile(0.5);
      EXPECT_GE(q, 0.0);
      EXPECT_GE(dist.cdf_at(static_cast<double>(kSamples)), 0.0);
      (void)dist.mean();
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(dist.count(), static_cast<std::size_t>(kSamples));
  EXPECT_DOUBLE_EQ(dist.max(), kSamples - 1.0);
  EXPECT_DOUBLE_EQ(dist.quantile(0.0), 0.0);
}

TEST(DistributionConcurrency, TwoQuantileReadersShareSafely) {
  // Two pure readers both trigger the lazy sort; the old code let them sort
  // the same vector simultaneously.
  util::Distribution dist;
  for (int i = 5000; i-- > 0;) dist.add(i);
  std::thread a([&dist] {
    for (int i = 0; i < 3000; ++i) (void)dist.quantile(0.9);
  });
  std::thread b([&dist] {
    for (int i = 0; i < 3000; ++i) (void)dist.median();
  });
  a.join();
  b.join();
  EXPECT_DOUBLE_EQ(dist.median(), 2499.5);
}

// --- StripedMap ----------------------------------------------------------

TEST(StripedMap, ConcurrentInsertAndLookup) {
  util::StripedMap<std::vector<int>> map;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto key =
            static_cast<std::uint64_t>(t) * kPerThread + static_cast<std::uint64_t>(i);
        map.insert_or_assign(key, std::vector<int>{t, i});
        // Read back own writes and probe other threads' keys.
        const auto mine = map.lookup(key);
        ASSERT_TRUE(mine.has_value());
        EXPECT_EQ((*mine)[0], t);
        (void)map.lookup(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kThreads * kPerThread));
  const auto probe = map.lookup(3 * kPerThread + 17);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ((*probe)[1], 17);
}

// Writers hammer a deliberately small overlapping key range so every stripe's
// FlatMap sees concurrent overwrites AND growth-triggered rehashes while
// readers walk the same stripes under shared locks. TSan validates that the
// stripe locks fully cover the flat tables' internal mutation (rehash moves
// every slot, backward pressure on the same cache lines readers scan).
TEST(StripedMap, OverlappingChurnWithConcurrentReaders) {
  util::StripedMap<std::uint64_t> map;
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr std::uint64_t kKeySpace = 512;  // Small => same-stripe collisions.
  constexpr int kOpsPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&map, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const auto key = static_cast<std::uint64_t>(i) % kKeySpace;
        map.insert_or_assign(key, static_cast<std::uint64_t>(t) << 32 |
                                      static_cast<std::uint64_t>(i));
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&map, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::uint64_t key = 0; key < kKeySpace; ++key) {
          const auto value = map.lookup(key);
          if (value.has_value()) {
            // Values are (writer << 32 | op); op stays within bounds.
            EXPECT_LT(*value & 0xffffffffu,
                      static_cast<std::uint64_t>(kOpsPerWriter));
          }
          (void)map.contains(key);
        }
        (void)map.size();
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<std::size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  // Every key in the space was written by every writer; the last write of
  // some writer won each slot, so all keys must be present.
  EXPECT_EQ(map.size(), kKeySpace);
  for (std::uint64_t key = 0; key < kKeySpace; ++key) {
    EXPECT_TRUE(map.contains(key)) << key;
  }
}

// --- Sharded metrics ------------------------------------------------------

// Runs `task(t)` for t in [0, tasks) on `thread_count` concurrent threads,
// each thread claiming task indices from a shared cursor, and joins them.
template <typename Task>
void run_tasks(std::size_t thread_count, int tasks, const Task& task) {
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < thread_count; ++w) {
    threads.emplace_back([&] {
      for (int t = next.fetch_add(1); t < tasks; t = next.fetch_add(1)) {
        task(t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

// Four threads running many tasks, plus one more thread, hammer the same
// counter cells; the merged total must equal the number of adds. TSan
// validates that the relaxed per-shard atomics really are race-free.
TEST(ShardedMetrics, ConcurrentCounterAddsMergeExactly) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("revtr_test_adds_total");
  constexpr int kTasks = 64;
  constexpr std::uint64_t kAddsPerTask = 5000;
  // One more thread writes its own shard concurrently with the four.
  std::thread outsider([&counter] {
    for (std::uint64_t i = 0; i < kAddsPerTask; ++i) counter.add(2);
  });
  run_tasks(4, kTasks, [&counter](int) {
    for (std::uint64_t i = 0; i < kAddsPerTask; ++i) counter.add();
  });
  outsider.join();
  EXPECT_EQ(counter.total(), (kTasks + 2) * kAddsPerTask);
}

TEST(ShardedMetrics, ConcurrentHistogramRecordsMergeExactly) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("revtr_test_latency_us");
  constexpr int kTasks = 32;
  constexpr std::uint64_t kSamplesPerTask = 2000;
  std::uint64_t want_sum = 0;
  for (std::uint64_t i = 0; i < kSamplesPerTask; ++i) want_sum += i * 7;
  run_tasks(4, kTasks, [&hist](int) {
    for (std::uint64_t i = 0; i < kSamplesPerTask; ++i) hist.record(i * 7);
  });
  EXPECT_EQ(hist.count(), kTasks * kSamplesPerTask);
  EXPECT_EQ(hist.sum(), static_cast<std::uint64_t>(kTasks) * want_sum);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    bucket_total += hist.bucket_count(b);
  }
  EXPECT_EQ(bucket_total, hist.count());
}

// The daemon's workers and net thread, campaign pumps and survey helpers are
// plain std::threads: each must write a shard of its own, kept for the
// thread's lifetime, and the merged totals stay exact.
TEST(ShardedMetrics, PlainThreadsGetTheirOwnShard) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("revtr_test_plain_adds_total");
  obs::Histogram& hist = registry.histogram("revtr_test_plain_us");
  constexpr std::uint64_t kAdds = 1000;
  std::array<std::size_t, 2> first{};
  std::array<std::size_t, 2> last{};
  const auto writer = [&](std::size_t t) {
    first[t] = obs::metric_shard();
    for (std::uint64_t i = 0; i < kAdds; ++i) {
      counter.add(t + 1);
      hist.record(i);
    }
    last[t] = obs::metric_shard();
  };
  std::thread a(writer, 0);
  a.join();  // One after the other: b draws its shard after a has.
  std::thread b(writer, 1);
  b.join();
  EXPECT_EQ(first[0], last[0]);
  EXPECT_EQ(first[1], last[1]);
  EXPECT_NE(first[0], first[1]);
  EXPECT_LT(first[0], obs::kMetricShards);
  EXPECT_LT(first[1], obs::kMetricShards);
  EXPECT_EQ(counter.total(), 3 * kAdds);
  EXPECT_EQ(hist.count(), 2 * kAdds);
  EXPECT_EQ(hist.sum(), kAdds * (kAdds - 1));
}

// Snapshots (the campaign's merge-at-barrier) run concurrently with
// writers and with get-or-create registration of fresh names. Mid-run
// snapshot values are racy by design; the invariants are: no TSan report,
// handles are stable, and the final merged totals are exact.
TEST(ShardedMetrics, SnapshotAndRegistrationDuringConcurrentWrites) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("revtr_test_probes_total");
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snapshot = registry.snapshot();
      EXPECT_GE(snapshot.counters.size(), 1u);
    }
  });
  constexpr int kTasks = 32;
  constexpr std::uint64_t kAddsPerTask = 3000;
  run_tasks(4, kTasks, [&registry, &counter](int t) {
    // Same-name registration from many threads must converge on one cell.
    obs::Counter& again = registry.counter("revtr_test_probes_total");
    EXPECT_EQ(&again, &counter);
    obs::Gauge& mine = registry.gauge(
        "revtr_test_worker_gauge{worker=\"" + std::to_string(t % 4) + "\"}");
    mine.set(t);
    for (std::uint64_t i = 0; i < kAddsPerTask; ++i) again.add();
  });
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(counter.total(), kTasks * kAddsPerTask);
  EXPECT_EQ(registry.size(), 1u + 4u);  // Counter + one gauge per worker id.
}

// --- TracerouteAtlas (refresh racing readers, fixed) ----------------------

// Regression for the atlas refresh-vs-read race: refresh() clears and
// re-measures a source's traceroute vector in place, and the old accessors
// handed out references into that vector, so a reader racing the daily
// refresh walked freed hop storage. Under TSan the old code reports here;
// the fix serializes content access through the per-source stripe and
// returns snapshots by value (atlas.h).
TEST(AtlasConcurrency, RefreshRacingReadersIsSafe) {
  topology::TopologyConfig config;
  config.seed = 77;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 50;
  eval::Lab lab(config);
  const HostId source = lab.topo.vantage_points()[0];
  static constexpr std::size_t kAtlasSize = 25;
  lab.atlas.build(source, kAtlasSize, lab.rng);
  lab.atlas.build_rr_alias_index(source);
  // Probe the initial snapshot's hop addresses: refresh keeps re-measuring
  // over them, so lookups keep hitting live and stale entries alike.
  std::vector<net::Ipv4Addr> addrs;
  for (const auto& tr : lab.atlas.traceroutes(source)) {
    for (const auto hop : tr.hops) addrs.push_back(hop);
  }
  ASSERT_FALSE(addrs.empty());

  std::atomic<bool> stop{false};
  // The Prober is not thread-safe: only the refresher thread measures.
  std::thread refresher([&lab, &stop, source] {
    util::Rng rng(123);
    for (int round = 1; round <= 6; ++round) {
      lab.atlas.refresh(source, rng, round * util::SimClock::kDay);
      lab.atlas.build_rr_alias_index(source);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&lab, &stop, &addrs, source] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto addr = addrs[i++ % addrs.size()];
        if (const auto hit = lab.atlas.intersect(source, addr, true)) {
          // A stale hit must degrade to an empty suffix, never a crash.
          (void)lab.atlas.suffix_after(source, *hit);
          (void)lab.atlas.touch(source, *hit, util::SimClock::kDay);
        }
        EXPECT_EQ(lab.atlas.traceroute_count(source), kAtlasSize);
        (void)lab.atlas.rr_index_size(source);
        // Snapshots stay internally consistent mid-refresh: right size,
        // every traceroute measured (refresh rewrites them in one critical
        // section, so a half-refreshed vector must never be visible).
        const auto snapshot = lab.atlas.traceroutes(source);
        EXPECT_EQ(snapshot.size(), kAtlasSize);
        for (const auto& tr : snapshot) {
          EXPECT_NE(tr.probe, topology::kInvalidId);
        }
      }
    });
  }
  refresher.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(lab.atlas.traceroute_count(source), kAtlasSize);
}

// --- IngressDiscovery (re-survey racing plan readers, fixed) ---------------

// Regression for the ingress plan rebuild-vs-read race revtr_lint's
// guard-escape pass flagged: discover() used to rebuild a prefix's
// PrefixPlan in place inside the guarded map and both it and plan_for()
// handed out references into that map, so a campaign worker reading a plan
// raced a concurrent re-survey of the same prefix. The fix builds each
// survey into a fresh shared_ptr<const PrefixPlan> and swaps the map entry,
// so an earlier snapshot stays internally consistent however many
// re-surveys land after it. Under TSan the old code reports here.
TEST(IngressConcurrency, RediscoveryRacingPlanReadersIsSafe) {
  topology::TopologyConfig config;
  config.seed = 83;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 50;
  eval::Lab lab(config);
  const auto prefixes = lab.customer_prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto prefix = prefixes[0];
  const auto vps = lab.topo.vantage_points();
  const auto first = lab.ingress.discover(prefix, vps, lab.rng);
  ASSERT_NE(first, nullptr);
  const std::size_t first_vps = first->vp_info.size();
  const std::size_t first_ingresses = first->ingresses.size();

  std::atomic<bool> stop{false};
  // The Prober is not thread-safe: only the surveyor thread re-discovers.
  std::thread surveyor([&lab, &stop, prefix, vps] {
    util::Rng rng(321);
    for (int round = 0; round < 6; ++round) {
      (void)lab.ingress.discover(prefix, vps, rng);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back(
        [&lab, &stop, &first, prefix, first_vps, first_ingresses] {
          while (!stop.load(std::memory_order_acquire)) {
            // The pre-survey snapshot never changes under re-discovery.
            EXPECT_EQ(first->vp_info.size(), first_vps);
            EXPECT_EQ(first->ingresses.size(), first_ingresses);
            (void)first->fallback_ranking();
            // plan_for hands out some complete survey (old or new), never
            // a half-built plan.
            const auto current = lab.ingress.plan_for(prefix);
            ASSERT_NE(current, nullptr);
            EXPECT_EQ(current->prefix, prefix);
            (void)vpselect::attempt_plan(*current);
          }
        });
  }
  surveyor.join();
  for (auto& t : readers) t.join();
}

// --- IngressDiscovery::discover_all (fan-out survey) -----------------------

topology::TopologyConfig survey_config() {
  topology::TopologyConfig config;
  config.seed = 83;
  config.num_ases = 150;
  config.num_vps = 8;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 50;
  return config;
}

std::vector<topology::PrefixId> all_prefixes(const eval::Lab& lab) {
  std::vector<topology::PrefixId> prefixes;
  for (const auto& prefix : lab.topo.prefixes()) prefixes.push_back(prefix.id);
  return prefixes;
}

// The reference survey: one discover() per prefix, in order.
void survey_loop(eval::Lab& lab) {
  for (const auto prefix : all_prefixes(lab)) {
    lab.ingress.discover(prefix, lab.topo.vantage_points(), lab.rng);
  }
}

// Everything a survey leaves behind.
struct SurveyOutcome {
  std::vector<vpselect::PrefixPlan> plans;
  std::uint64_t next_draw = 0;
  probing::ProbeCounters counters;
  probing::ProbeCounters offline;
  std::uint64_t surveys_total = 0;
  std::int64_t plans_gauge = 0;
  std::uint64_t covered_total = 0;
  // Pings through the discovery prober after the survey.
  std::vector<util::SimClock::Micros> ping_rtts;
};

// threads == 0 runs the survey_loop() reference.
SurveyOutcome run_survey(std::size_t threads) {
  eval::Lab lab(survey_config());
  obs::MetricsRegistry registry;
  const vpselect::IngressMetrics metrics(registry);
  lab.ingress.set_metrics(&metrics);
  if (threads == 0) {
    survey_loop(lab);
  } else {
    lab.ingress.discover_all(all_prefixes(lab), lab.topo.vantage_points(),
                             lab.rng, threads);
  }

  SurveyOutcome out;
  for (const auto prefix : all_prefixes(lab)) {
    const auto plan = lab.ingress.plan_for(prefix);
    EXPECT_NE(plan, nullptr) << "prefix " << prefix;
    if (plan != nullptr) out.plans.push_back(*plan);
  }
  out.next_draw = lab.rng();
  out.counters = lab.prober.counters();
  out.offline = lab.prober.offline_counters();
  const auto snapshot = registry.snapshot();
  out.surveys_total =
      snapshot.find_counter("revtr_ingress_surveys_total")->value;
  out.plans_gauge = snapshot.find_gauge("revtr_ingress_plans")->value;
  out.covered_total =
      snapshot.find_counter("revtr_ingress_prefixes_covered_total")->value;

  // The discovery prober carries on as if it had sent every survey probe
  // itself, packet ids included, so what it measures next is unchanged:
  // a plain ping's per-flow ECMP hash covers its packet id, and a few of
  // these pings cross a load balancer.
  for (const HostId dest : lab.responsive_destinations()) {
    for (const HostId vp : lab.topo.vantage_points()) {
      out.ping_rtts.push_back(
          lab.prober.ping(vp, lab.topo.host(dest).addr).duration_us);
    }
  }
  return out;
}

void expect_same_outcome(const SurveyOutcome& got, const SurveyOutcome& want,
                         std::size_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  ASSERT_EQ(got.plans.size(), want.plans.size());
  for (std::size_t p = 0; p < want.plans.size(); ++p) {
    // Ingress addresses, VP/distance lists and vp_info, field by field.
    EXPECT_TRUE(got.plans[p] == want.plans[p]) << "plan of prefix "
                                               << want.plans[p].prefix;
  }
  EXPECT_EQ(got.next_draw, want.next_draw);
  EXPECT_TRUE(got.counters == want.counters);
  EXPECT_TRUE(got.offline == want.offline);
  EXPECT_EQ(got.surveys_total, want.surveys_total);
  EXPECT_EQ(got.plans_gauge, want.plans_gauge);
  EXPECT_EQ(got.covered_total, want.covered_total);
  EXPECT_TRUE(got.ping_rtts == want.ping_rtts);
}

// The fan-out survey publishes exactly what the per-prefix loop does: the
// same plans, the same draws from the caller's rng, the same probe
// accounting and metrics. Run under TSan by check.sh (the `Ingress` filter).
TEST(IngressConcurrency, ParallelSurveyMatchesSerial) {
  const SurveyOutcome serial = run_survey(0);
  ASSERT_FALSE(serial.plans.empty());
  ASSERT_GT(serial.offline.rr, 0u);
  EXPECT_TRUE(serial.counters == serial.offline) << "survey probes are offline";
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    expect_same_outcome(run_survey(threads), serial, threads);
  }
}

// Surveys whose outcome depends on the order probes hit the wire stay the
// serial loop on the discovery prober, whatever `threads` says.
TEST(IngressConcurrency, WireOrderDependentSurveyStaysSerial) {
  const auto prefixes = [] {
    eval::Lab lab(survey_config());
    return all_prefixes(lab);
  }();

  // An observer sees the loop's event sequence.
  {
    eval::Lab loop_lab(survey_config());
    analysis::ProbeLog loop_log;
    loop_lab.prober.set_observer(&loop_log);
    survey_loop(loop_lab);

    eval::Lab lab(survey_config());
    analysis::ProbeLog log;
    lab.prober.set_observer(&log);
    lab.ingress.discover_all(prefixes, lab.topo.vantage_points(), lab.rng, 4);
    ASSERT_FALSE(loop_log.events().empty());
    EXPECT_TRUE(log.events() == loop_log.events());
  }

  // Loss draws come from the discovery network's one stream.
  {
    eval::Lab loop_lab(survey_config());
    loop_lab.network.set_loss_rate(0.3);
    survey_loop(loop_lab);

    eval::Lab lab(survey_config());
    lab.network.set_loss_rate(0.3);
    lab.ingress.discover_all(prefixes, lab.topo.vantage_points(), lab.rng, 4);
    for (const auto prefix : prefixes) {
      const auto got = lab.ingress.plan_for(prefix);
      const auto want = loop_lab.ingress.plan_for(prefix);
      ASSERT_NE(got, nullptr);
      ASSERT_NE(want, nullptr);
      EXPECT_TRUE(*got == *want) << "plan of prefix " << prefix;
    }
    EXPECT_EQ(lab.rng(), loop_lab.rng());
  }

  // A fault policy is offered every survey probe.
  {
    eval::Lab lab(survey_config());
    std::uint64_t offered = 0;
    lab.prober.set_fault_policy([&offered](const probing::ProbeEvent& event) {
      EXPECT_TRUE(event.offline);
      ++offered;
      return false;
    });
    lab.ingress.discover_all(prefixes, lab.topo.vantage_points(), lab.rng, 4);
    EXPECT_GT(offered, 0u);
    EXPECT_EQ(offered, lab.prober.counters().total());
  }
}

// --- TracerouteAtlas list builds (fan-out over sources) ------------------

constexpr std::size_t kAtlasTraces = 12;
// What RevtrService charges a bootstrap beside its traceroutes.
constexpr util::SimClock::Micros kBootstrapGap = 14 * util::SimClock::kMinute;

std::vector<HostId> atlas_sources(const eval::Lab& lab) {
  const auto vps = lab.topo.vantage_points();
  return {vps.begin(), vps.begin() + 5};
}

// Q1 then Q2 for every source. threads == 0 runs the reference: one
// single-source call per source, in order, each build stamped at a clock
// that advances by the build's duration plus kBootstrapGap.
void build_atlases(eval::Lab& lab, std::span<const HostId> sources,
                   std::size_t threads) {
  util::SimClock::Micros clock = 0;
  if (threads == 0) {
    for (const HostId source : sources) {
      const auto duration = lab.atlas.build(source, kAtlasTraces, lab.rng,
                                            clock);
      clock += duration + kBootstrapGap;
    }
    for (const HostId source : sources) lab.atlas.build_rr_alias_index(source);
    return;
  }
  lab.atlas.build(sources, kAtlasTraces, lab.rng, threads,
                  [&clock](std::size_t, util::SimClock::Micros duration) {
                    const auto at = clock;
                    clock += duration + kBootstrapGap;
                    return at;
                  });
  lab.atlas.build_rr_alias_index(sources, threads);
}

// A day later: refresh then Q2 for every source; threads == 0 as above.
void refresh_atlases(eval::Lab& lab, std::span<const HostId> sources,
                     std::size_t threads) {
  constexpr util::SimClock::Micros kNow = util::SimClock::kDay;
  if (threads == 0) {
    for (const HostId source : sources) {
      lab.atlas.refresh(source, lab.rng, kNow);
    }
    for (const HostId source : sources) lab.atlas.build_rr_alias_index(source);
    return;
  }
  lab.atlas.refresh(sources, lab.rng, threads,
                    [](std::size_t, util::SimClock::Micros) { return kNow; });
  lab.atlas.build_rr_alias_index(sources, threads);
}

// Everything the atlas of a source list holds, plus what maintaining it
// cost the atlas's prober and metrics.
struct AtlasState {
  std::vector<std::vector<atlas::AtlasTraceroute>> traceroutes;
  // The exact-hop index: a lookup of every traceroute hop.
  std::vector<std::vector<std::optional<atlas::Intersection>>> hop_index;
  std::vector<std::unordered_map<net::Ipv4Addr, atlas::Intersection>>
      rr_index;
  std::uint64_t builds = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t rr_index_builds = 0;
  std::int64_t rr_index_entries = 0;
  probing::ProbeCounters counters;
  probing::ProbeCounters offline;

  bool operator==(const AtlasState&) const = default;
};

AtlasState capture_atlas(eval::Lab& lab, std::span<const HostId> sources,
                         const obs::MetricsRegistry& registry) {
  AtlasState state;
  // Metrics first: the hop lookups below count intersections.
  const auto snapshot = registry.snapshot();
  state.builds = snapshot.find_counter("revtr_atlas_builds_total")->value;
  state.refreshes =
      snapshot.find_counter("revtr_atlas_refreshes_total")->value;
  state.rr_index_builds =
      snapshot.find_counter("revtr_atlas_rr_index_builds_total")->value;
  state.rr_index_entries =
      snapshot.find_gauge("revtr_atlas_rr_index_entries")->value;
  state.counters = lab.prober.counters();
  state.offline = lab.prober.offline_counters();
  for (const HostId source : sources) {
    state.traceroutes.push_back(lab.atlas.traceroutes(source));
    state.rr_index.push_back(lab.atlas.rr_index_entries(source));
    auto& lookups = state.hop_index.emplace_back();
    for (const auto& tr : state.traceroutes.back()) {
      for (const auto hop : tr.hops) {
        lookups.push_back(lab.atlas.intersect(source, hop, false));
      }
    }
  }
  return state;
}

struct AtlasRun {
  AtlasState built;
  AtlasState refreshed;
  std::uint64_t next_draw = 0;
  // Pings through the atlas prober afterwards: its packet-id sequence.
  std::vector<util::SimClock::Micros> ping_rtts;
};

// threads == 0 runs the per-source reference loop.
AtlasRun run_atlas(std::size_t threads) {
  eval::Lab lab(survey_config());
  obs::MetricsRegistry registry;
  const atlas::AtlasMetrics metrics(registry);
  lab.atlas.set_metrics(&metrics);
  const auto sources = atlas_sources(lab);

  AtlasRun run;
  build_atlases(lab, sources, threads);
  run.built = capture_atlas(lab, sources, registry);
  // Refresh keeps what requests found useful: mark every third trace.
  for (const HostId source : sources) {
    for (std::size_t t = 0; t < kAtlasTraces; t += 3) {
      lab.atlas.touch(source, atlas::Intersection{t, 0},
                      util::SimClock::kHour);
    }
  }
  refresh_atlases(lab, sources, threads);
  run.refreshed = capture_atlas(lab, sources, registry);
  run.next_draw = lab.rng();
  for (const HostId dest : lab.responsive_destinations()) {
    for (const HostId vp : lab.topo.vantage_points()) {
      run.ping_rtts.push_back(
          lab.prober.ping(vp, lab.topo.host(dest).addr).duration_us);
    }
  }
  return run;
}

// The atlas's list builds leave exactly what the per-source loop leaves:
// traceroutes with their measurement times, both indexes, the same draws
// from the caller's rng, the same probe accounting, packet ids and
// metrics. Run under TSan by check.sh (the `Atlas` filter).
TEST(AtlasConcurrency, FannedOutBuildAndRefreshMatchPerSourceLoop) {
  const AtlasRun serial = run_atlas(0);
  ASSERT_EQ(serial.built.traceroutes.size(), 5u);
  ASSERT_GT(serial.built.offline.traceroute_packets, 0u);
  ASSERT_GT(serial.built.offline.rr, 0u);
  ASSERT_GT(serial.built.rr_index_entries, 0);
  EXPECT_TRUE(serial.refreshed.counters == serial.refreshed.offline)
      << "atlas probes are offline";
  // Stamps follow the clock the builds advance: distinct per source.
  EXPECT_NE(serial.built.traceroutes[0][0].measured_at,
            serial.built.traceroutes[1][0].measured_at);
  EXPECT_NE(serial.built.traceroutes, serial.refreshed.traceroutes);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const AtlasRun run = run_atlas(threads);
    EXPECT_TRUE(run.built == serial.built);
    EXPECT_TRUE(run.refreshed == serial.refreshed);
    EXPECT_EQ(run.next_draw, serial.next_draw);
    EXPECT_TRUE(run.ping_rtts == serial.ping_rtts);
  }
}

// Builds whose outcome depends on the order probes hit the wire stay the
// per-source loop on the atlas's prober, whatever `threads` says.
TEST(AtlasConcurrency, WireOrderDependentBuildStaysSerial) {
  // An observer sees the loop's event sequence.
  {
    eval::Lab loop_lab(survey_config());
    analysis::ProbeLog loop_log;
    loop_lab.prober.set_observer(&loop_log);
    const auto sources = atlas_sources(loop_lab);
    build_atlases(loop_lab, sources, 0);
    refresh_atlases(loop_lab, sources, 0);

    eval::Lab lab(survey_config());
    analysis::ProbeLog log;
    lab.prober.set_observer(&log);
    build_atlases(lab, sources, 4);
    refresh_atlases(lab, sources, 4);
    ASSERT_FALSE(loop_log.events().empty());
    EXPECT_TRUE(log.events() == loop_log.events());
  }

  // Loss draws come from the atlas network's one stream.
  {
    eval::Lab loop_lab(survey_config());
    loop_lab.network.set_loss_rate(0.3);
    const auto sources = atlas_sources(loop_lab);
    build_atlases(loop_lab, sources, 0);

    eval::Lab lab(survey_config());
    lab.network.set_loss_rate(0.3);
    build_atlases(lab, sources, 4);
    for (const HostId source : sources) {
      EXPECT_TRUE(lab.atlas.traceroutes(source) ==
                  loop_lab.atlas.traceroutes(source));
      EXPECT_TRUE(lab.atlas.rr_index_entries(source) ==
                  loop_lab.atlas.rr_index_entries(source));
    }
    EXPECT_EQ(lab.rng(), loop_lab.rng());
  }

  // A fault policy is offered every Q2 RR ping (traceroutes never are).
  {
    eval::Lab lab(survey_config());
    std::uint64_t offered = 0;
    lab.prober.set_fault_policy([&offered](const probing::ProbeEvent& event) {
      EXPECT_TRUE(event.offline);
      ++offered;
      return false;
    });
    build_atlases(lab, atlas_sources(lab), 4);
    EXPECT_GT(offered, 0u);
    EXPECT_EQ(offered, lab.prober.counters().rr);
  }
}

// RevtrService::add_sources bootstraps what an add_source() loop over the
// same candidates bootstraps: the same hosts, records, service clock,
// atlases, draws and probe accounting.
TEST(AtlasConcurrency, ServiceBootstrapMatchesAddSourceLoop) {
  constexpr std::size_t kWant = 5;
  eval::Lab loop_lab(survey_config());
  service::RevtrService loop_service(loop_lab.engine, loop_lab.atlas,
                                     loop_lab.prober, loop_lab.topo);
  const auto candidates = loop_lab.topo.vantage_points();
  std::vector<HostId> looped;
  for (const HostId vp : candidates) {
    if (looped.size() == kWant) break;
    if (loop_service.add_source(vp, kAtlasTraces, loop_lab.rng)) {
      looped.push_back(vp);
    }
  }

  eval::Lab lab(survey_config());
  service::RevtrService service(lab.engine, lab.atlas, lab.prober, lab.topo);
  const auto added =
      service.add_sources(candidates, kAtlasTraces, lab.rng, kWant);
  ASSERT_EQ(added.size(), kWant);
  EXPECT_EQ(added, looped);
  EXPECT_EQ(service.clock().now(), loop_service.clock().now());
  for (const HostId host : added) {
    const service::SourceRecord* got = service.source_record(host);
    const service::SourceRecord* want = loop_service.source_record(host);
    ASSERT_NE(got, nullptr);
    ASSERT_NE(want, nullptr);
    EXPECT_TRUE(got->receives_rr);
    EXPECT_EQ(got->bootstrapped_at, want->bootstrapped_at);
    EXPECT_EQ(got->bootstrap_duration, want->bootstrap_duration);
    EXPECT_EQ(got->atlas_refreshed_at, want->atlas_refreshed_at);
    EXPECT_EQ(got->atlas_size, want->atlas_size);
    EXPECT_TRUE(lab.atlas.traceroutes(host) ==
                loop_lab.atlas.traceroutes(host));
    EXPECT_TRUE(lab.atlas.rr_index_entries(host) ==
                loop_lab.atlas.rr_index_entries(host));
  }
  EXPECT_TRUE(lab.prober.counters() == loop_lab.prober.counters());
  EXPECT_TRUE(lab.prober.offline_counters() ==
              loop_lab.prober.offline_counters());
  // Bootstrap is offline work, the sources' RR checks included.
  EXPECT_GT(lab.prober.counters().rr, 0u);
  EXPECT_TRUE(lab.prober.counters() == lab.prober.offline_counters());
  EXPECT_EQ(lab.rng(), loop_lab.rng());
}

// --- Start-up products on the daemon's deployment topology ----------------

// daemonbench's deployment (`deployment_topology()`): 800 ASes, 30 VPs and
// one probe host in every stub AS, seed 7, as the daemon starts it.
topology::TopologyConfig deployment_config() {
  topology::TopologyConfig config;
  config.seed = 7;
  config.num_ases = 800;
  config.num_vps = 30;
  config.num_vps_2016 = 10;
  config.num_probe_hosts = std::size_t{1} << 20;
  return config;
}

// Order-sensitive digest of a sequence of words.
struct Digest {
  std::uint64_t value = 0;
  void add(std::uint64_t word) { value = util::mix_hash(value, word); }
  void add_distance(int distance) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(distance)));
  }
};

// The survey that start-up runs (Lab::precompute_all_ingresses, over every
// CPU) yields these plans, draws and probes. The values were recorded from
// a survey that simulated every probe in full, so what the survey skips
// simulating must leave every one of them as it is. Runs under TSan by
// check.sh (the `Ingress` filter).
TEST(IngressDeployment, SurveyPlansDrawAndCountersArePinned) {
  eval::Lab lab(deployment_config());
  lab.precompute_all_ingresses();

  Digest digest;
  std::size_t plans = 0;
  std::size_t covered = 0;
  for (const auto& prefix : lab.topo.prefixes()) {
    const auto plan = lab.ingress.plan_for(prefix.id);
    ASSERT_NE(plan, nullptr) << "prefix " << prefix.id;
    ++plans;
    covered += plan->has_ingresses();
    digest.add(plan->prefix);
    digest.add(plan->ingresses.size());
    for (const auto& ingress : plan->ingresses) {
      digest.add(ingress.addr.value());
      digest.add(ingress.vps.size());
      for (const auto& vp : ingress.vps) {
        digest.add(vp.vp);
        digest.add_distance(vp.distance);
      }
    }
    digest.add(plan->vp_info.size());
    for (const auto& info : plan->vp_info) {
      digest.add(info.vp);
      digest.add_distance(info.dist_d1);
      digest.add_distance(info.dist_d2);
    }
  }
  EXPECT_EQ(plans, 1806u);
  EXPECT_EQ(covered, 1608u);
  EXPECT_EQ(digest.value, 4823818559237389804u);
  EXPECT_EQ(lab.rng(), 1319855219901105308u);

  probing::ProbeCounters survey;
  survey.rr = 108'240;
  EXPECT_TRUE(lab.prober.offline_counters() == survey);
  EXPECT_TRUE(lab.prober.counters() == survey);
  EXPECT_EQ(lab.prober.last_packet_id(), 108'240 % 65'536);
}

// Q1 and Q2 as start-up runs them after the survey, for 30 sources with
// atlas 50 (Lab::bootstrap_sources, over every CPU): every source's Q2
// index, the bootstrap's offline probes and the owner prober's packet ids
// after the fan-out's absorb. Recorded like the survey pin above; runs
// under TSan by check.sh (the `Atlas` filter).
TEST(AtlasDeployment, RrIndexCountersAndPacketIdsArePinned) {
  eval::Lab lab(deployment_config());
  const auto vps = lab.topo.vantage_points();
  ASSERT_EQ(vps.size(), 30u);
  const std::vector<HostId> sources(vps.begin(), vps.end());
  lab.precompute_all_ingresses();
  const probing::ProbeCounters survey = lab.prober.offline_counters();
  lab.bootstrap_sources(sources, 50);

  Digest digest;
  std::size_t entries = 0;
  for (const HostId source : sources) {
    const auto index = lab.atlas.rr_index_entries(source);
    std::vector<std::pair<net::Ipv4Addr, atlas::Intersection>> sorted(
        index.begin(), index.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    digest.add(source);
    digest.add(sorted.size());
    for (const auto& [addr, at] : sorted) {
      digest.add(addr.value());
      digest.add(at.traceroute_index);
      digest.add(at.hop_index);
    }
    entries += sorted.size();
  }
  EXPECT_EQ(entries, 1200u);
  EXPECT_EQ(digest.value, 11016650888210712710u);

  probing::ProbeCounters bootstrap;
  bootstrap.rr = 21'874;
  bootstrap.traceroute_packets = 22'637;
  bootstrap.traceroutes = 1'500;
  EXPECT_TRUE(lab.prober.offline_counters() - survey == bootstrap);
  EXPECT_TRUE(lab.prober.counters() == lab.prober.offline_counters());
  // Survey and Q2 RR pings draw one packet id each; traceroutes none.
  EXPECT_EQ(lab.prober.last_packet_id(), (108'240 + 21'874) % 65'536);
}

// What an observer sees: every probe event, folded in order.
struct EventDigest : probing::ProbeObserver {
  Digest digest;
  std::size_t events = 0;

  void on_probe(const probing::ProbeEvent& event) override {
    ++events;
    digest.add(static_cast<std::uint64_t>(event.type));
    digest.add(event.from);
    digest.add(event.target.value());
    digest.add(event.spoof_as ? std::uint64_t{event.spoof_as->value()} + 1
                              : 0);
    digest.add(event.responded);
    digest.add(event.offline);
    digest.add(event.suppressed);
    digest.add(event.packets);
    digest.add(event.slots.size());
    for (const auto addr : event.slots) digest.add(addr.value());
    digest.add(event.tr_hops.size());
    for (const auto addr : event.tr_hops) digest.add(addr.value());
    digest.add(event.tr_reached);
  }
};

// An observer watches the survey's and Q2's probes one by one and a fault
// policy is offered each, so neither lets a probe settle: the event
// streams equal the ones recorded from a start-up that simulated every
// probe in full.
TEST(IngressConcurrency, ObservedStartUpSettlesNothing) {
  const auto start_up = [](eval::Lab& lab,
                           const probing::ProbeMetrics& metrics) {
    lab.prober.set_metrics(&metrics);
    lab.precompute_all_ingresses();
    lab.bootstrap_sources(atlas_sources(lab), kAtlasTraces);
  };
  for (const bool fault : {false, true}) {
    SCOPED_TRACE(fault ? "observer and fault policy" : "observer");
    eval::Lab lab(survey_config());
    obs::MetricsRegistry registry;
    const probing::ProbeMetrics metrics(registry);
    EventDigest log;
    lab.prober.set_observer(&log);
    if (fault) {
      lab.prober.set_fault_policy([](const probing::ProbeEvent& event) {
        return util::splitmix64(event.target.value()) % 5 == 0;
      });
    }
    start_up(lab, metrics);
    EXPECT_EQ(metrics.settled->total(), 0u);
    EXPECT_EQ(log.events, fault ? 6'274u : 6'293u);
    EXPECT_EQ(log.digest.value,
              fault ? 8546394592710014711u : 15118977562420831867u);
  }
  // Unobserved, the same start-up settles probes.
  eval::Lab lab(survey_config());
  obs::MetricsRegistry registry;
  const probing::ProbeMetrics metrics(registry);
  start_up(lab, metrics);
  EXPECT_GT(metrics.settled->total(), 0u);
}

// --- ParallelCampaignDriver ----------------------------------------------

// The driver's sequential reference: RevtrEngine::measure(), request by
// request, on one core::WorkerStack built with the campaign seed (the
// simulator's ECMP salt derives from it), each request reseeded from
// (seed, index) and clocked from 0 as the driver's executors do.
std::vector<core::ReverseTraceroute> measure_sequentially(
    const core::StackDeps& deps, const core::EngineConfig& config,
    std::uint64_t seed, std::span<const std::pair<HostId, HostId>> pairs) {
  core::WorkerStack stack(deps, config, seed,
                          std::make_shared<core::EngineCaches>());
  std::vector<core::ReverseTraceroute> results;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    stack.engine.reseed(util::mix_hash(seed, i, 0xca3aULL));
    util::SimClock clock;
    results.push_back(
        stack.engine.measure(pairs[i].first, pairs[i].second, clock));
  }
  return results;
}

class ParallelCampaignTest : public ::testing::Test {
 protected:
  static topology::TopologyConfig small_config() {
    topology::TopologyConfig config;
    config.seed = 91;
    config.num_ases = 150;
    config.num_vps = 10;
    config.num_vps_2016 = 4;
    config.num_probe_hosts = 40;
    return config;
  }

  void SetUp() override {
    lab_ = std::make_unique<eval::Lab>(small_config());
    source_ = lab_->topo.vantage_points()[0];
    lab_->bootstrap_source(source_, 30);
    // Every plan up front: the driver's runs and the sequential reference
    // then read the same ingress plans.
    lab_->precompute_all_ingresses();
    const auto dests = lab_->responsive_destinations(true);
    for (std::size_t i = 0; i < 16 && i < dests.size(); ++i) {
      pairs_.emplace_back(dests[i], source_);
    }
    ASSERT_GE(pairs_.size(), 8u);
  }

  core::StackDeps deps() {
    return {lab_->topo,  lab_->plane, lab_->atlas,
            lab_->ingress, lab_->ip2as, lab_->relationships};
  }

  static core::EngineConfig engine_config(bool use_cache) {
    core::EngineConfig config = core::EngineConfig::revtr2();
    config.use_cache = use_cache;
    return config;
  }

  service::ParallelCampaignReport run_with(std::size_t workers,
                                           bool use_cache = true,
                                           bool coalesce = true) {
    service::ParallelCampaignOptions options;
    options.workers = workers;
    options.seed = kSeed;
    options.engine = engine_config(use_cache);
    options.sched.coalesce = coalesce;
    service::ParallelCampaignDriver driver(deps(), options);
    return driver.run(pairs_);
  }

  std::vector<core::ReverseTraceroute> reference(bool use_cache) {
    return measure_sequentially(deps(), engine_config(use_cache), kSeed,
                                pairs_);
  }

  // The measurement identity the driver promises is worker-count-invariant:
  // endpoints, status, and the exact hop sequence (address + provenance).
  static std::string signature(const core::ReverseTraceroute& r) {
    std::string s = std::to_string(r.destination) + ">" +
                    std::to_string(r.source) + ":" + core::to_string(r.status);
    for (const auto& hop : r.hops) {
      s += '|';
      s += hop.addr.to_string();
      s += '/';
      s += core::to_string(hop.source);
    }
    return s;
  }

  static constexpr std::uint64_t kSeed = 7;
  std::unique_ptr<eval::Lab> lab_;
  HostId source_ = topology::kInvalidId;
  std::vector<std::pair<HostId, HostId>> pairs_;
};

TEST_F(ParallelCampaignTest, MatchesSingleThreadedMeasurements) {
  const auto solo = run_with(1);
  const auto fleet = run_with(3);
  ASSERT_EQ(solo.results.size(), pairs_.size());
  ASSERT_EQ(fleet.results.size(), pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    EXPECT_EQ(signature(solo.results[i]), signature(fleet.results[i]))
        << "request " << i << " measured differently on 3 workers";
  }
  EXPECT_EQ(solo.stats.completed, fleet.stats.completed);
  EXPECT_EQ(solo.stats.aborted, fleet.stats.aborted);
  EXPECT_EQ(solo.stats.unreachable, fleet.stats.unreachable);
}

TEST_F(ParallelCampaignTest, SharedCacheDoesNotChangeResults) {
  const auto cold = run_with(2, /*use_cache=*/false);
  const auto warm = run_with(2, /*use_cache=*/true);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    EXPECT_EQ(signature(cold.results[i]), signature(warm.results[i]))
        << "cache changed the outcome of request " << i;
  }
  // Caching can only save probes, never spend more.
  EXPECT_LE(warm.stats.probes.total(), cold.stats.probes.total());
}

TEST_F(ParallelCampaignTest, MergedStatsAreConsistent) {
  const auto report = run_with(4);
  const auto& stats = report.stats;
  EXPECT_EQ(stats.requested, pairs_.size());
  EXPECT_EQ(stats.completed + stats.aborted + stats.unreachable,
            pairs_.size());
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.latency_seconds.count(), pairs_.size());
  EXPECT_GT(stats.probes.total(), 0u);
  ASSERT_EQ(report.worker_busy_seconds.size(), 4u);
  double busy_sum = 0;
  double busiest = 0;
  for (const double b : report.worker_busy_seconds) {
    busy_sum += b;
    busiest = std::max(busiest, b);
  }
  EXPECT_NEAR(stats.busy_seconds, busy_sum, 1e-9);
  EXPECT_NEAR(stats.duration_seconds, busiest, 1e-9);
  EXPECT_LE(stats.duration_seconds, stats.busy_seconds + 1e-9);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(stats.processed_per_second(), 0.0);
  EXPECT_GE(stats.processed_per_second(), stats.completed_per_second());
}

// The executor equivalence: the driver's scheduler-multiplexed requests must
// measure the exact same paths as the engine's own blocking loop
// (RevtrEngine::measure(), request by request), for every worker count, with
// coalescing on or off. Probe *accounting* may differ under coalescing (a
// coalesced demand moves to coalesced_probes instead of the issued-probe
// counters); with coalescing off even the probe counters must match.
TEST_F(ParallelCampaignTest, StagedMatchesBlockingAcrossWorkersAndCoalescing) {
  // Caches off for the strict comparison: with the shared cache on, probe
  // totals are legitimately schedule-dependent (the driver admits every
  // request before the cache warms; the sequential loop warms it request by
  // request).
  const auto blocking = reference(/*use_cache=*/false);
  ASSERT_EQ(blocking.size(), pairs_.size());
  service::CampaignStats blocking_stats;
  for (const auto& result : blocking) blocking_stats.record(result);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool coalesce : {true, false}) {
      const auto staged = run_with(workers, /*use_cache=*/false, coalesce);
      ASSERT_EQ(staged.results.size(), pairs_.size());
      for (std::size_t i = 0; i < pairs_.size(); ++i) {
        const auto& b = blocking[i];
        const auto& s = staged.results[i];
        EXPECT_EQ(signature(b), signature(s))
            << "request " << i << " diverged (workers=" << workers
            << " coalesce=" << coalesce << ")";
        EXPECT_EQ(b.spoofed_batches, s.spoofed_batches) << "request " << i;
        EXPECT_EQ(b.symmetry_assumptions, s.symmetry_assumptions)
            << "request " << i;
        if (coalesce) {
          // Coalescing can only save a request probes, never spend more.
          EXPECT_LE(s.probes.total(), b.probes.total()) << "request " << i;
        } else {
          // Without coalescing every demand issues: accounting must be
          // byte-identical to the blocking engine.
          EXPECT_EQ(s.probes.total(), b.probes.total()) << "request " << i;
          EXPECT_EQ(s.coalesced_probes, 0u) << "request " << i;
        }
      }
      EXPECT_EQ(blocking_stats.completed, staged.stats.completed);
      EXPECT_EQ(blocking_stats.aborted, staged.stats.aborted);
      EXPECT_EQ(blocking_stats.unreachable, staged.stats.unreachable);
      // Every demand is a wire probe, accounted exactly once: issued or
      // coalesced.
      EXPECT_EQ(staged.sched.demanded,
                staged.sched.issued + staged.sched.coalesced);
    }
  }
  // With the shared cache on, the measurement *set* must still match the
  // sequential loop even though probe accounting shifts with replay
  // scheduling.
  const auto warm_blocking = reference(/*use_cache=*/true);
  const auto warm_staged = run_with(2, /*use_cache=*/true);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    EXPECT_EQ(signature(warm_blocking[i]), signature(warm_staged.results[i]))
        << "request " << i << " diverged with warm caches";
  }
}

// Duplicate-heavy workload: many requests over few destinations. The staged
// scheduler must recognize the identical in-flight demands and answer them
// with shared wire probes, and the per-request/coalesced accounting must
// reconcile exactly with the scheduler's own counters.
TEST_F(ParallelCampaignTest, StagedCoalescesDuplicateDemands) {
  std::vector<std::pair<HostId, HostId>> dup_pairs;
  for (std::size_t i = 0; i < 24; ++i) {
    dup_pairs.emplace_back(pairs_[i % 3].first, source_);
  }
  service::ParallelCampaignOptions options;
  options.workers = 4;
  options.seed = 7;
  // Cache off: replay would otherwise hide duplicates from the scheduler.
  options.engine.use_cache = false;
  service::ParallelCampaignDriver driver(deps(), options);
  const auto report = driver.run(dup_pairs);

  EXPECT_GT(report.sched.coalesced, 0u);
  EXPECT_LT(report.sched.issued, report.sched.demanded);
  std::uint64_t charged = 0;
  std::uint64_t coalesced = 0;
  for (const auto& result : report.results) {
    charged += result.probes.total();
    coalesced += result.coalesced_probes;
  }
  // Wire probes all land in some worker's prober; merged counters must see
  // exactly the probes the requests charged themselves — no more, no less.
  EXPECT_EQ(charged, report.stats.probes.total());
  EXPECT_EQ(coalesced, report.sched.coalesced);
  // All 24 requests are the same 3 measurements.
  for (std::size_t i = 3; i < dup_pairs.size(); ++i) {
    EXPECT_EQ(signature(report.results[i]), signature(report.results[i % 3]));
  }
}

// Cache replay racing an in-flight duplicate: with the lock-striped
// EngineCaches shared across workers, one request's rr-cache insert races
// another's lookup of the same key while a third holds the identical demand
// in the scheduler. TSan (scripts/check.sh) validates the striping; the
// measurement set must stay equal to the engine's sequential loop.
TEST(StripedMapEngineCaches, ReplayHitRacesInFlightDuplicate) {
  topology::TopologyConfig config;
  config.seed = 91;
  config.num_ases = 150;
  config.num_vps = 10;
  config.num_vps_2016 = 4;
  config.num_probe_hosts = 40;
  eval::Lab lab(config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 30);
  // The driver's runs and the sequential reference read the same plans.
  lab.precompute_all_ingresses();
  const auto dests = lab.responsive_destinations(true);
  ASSERT_GE(dests.size(), 4u);
  std::vector<std::pair<HostId, HostId>> pairs;
  for (std::size_t i = 0; i < 32; ++i) {
    pairs.emplace_back(dests[i % 4], source);
  }
  const core::StackDeps deps{lab.topo,    lab.plane, lab.atlas,
                             lab.ingress, lab.ip2as, lab.relationships};
  service::ParallelCampaignOptions options;
  options.workers = 4;
  options.seed = 11;
  options.engine.use_cache = true;  // Shared striped caches on the hot path.
  service::ParallelCampaignDriver staged_driver(deps, options);
  const auto staged = staged_driver.run(pairs);

  const auto blocking =
      measure_sequentially(deps, options.engine, options.seed, pairs);

  ASSERT_EQ(staged.results.size(), blocking.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(blocking[i].status, staged.results[i].status);
    ASSERT_EQ(blocking[i].hops.size(), staged.results[i].hops.size())
        << "request " << i;
    for (std::size_t h = 0; h < blocking[i].hops.size(); ++h) {
      EXPECT_EQ(blocking[i].hops[h].addr, staged.results[i].hops[h].addr);
      EXPECT_EQ(blocking[i].hops[h].source, staged.results[i].hops[h].source)
          << "request " << i << " hop " << h;
    }
  }
}

// A replayed RR entry carries each hop's provenance as a live measurement of
// the key would have labelled it, whichever request filled the entry. On this
// topology a direct RR reveals a private hop without making progress and the
// spoofed round that follows does: the request that measured the key labels
// that hop `rr`, and a replay of a spoofed-only entry used to label it
// `spoofed-rr`. So which request filled the key first (input order in the
// sequential loop, thread timing across workers) changed results.
TEST(StripedMapEngineCaches, ReplayedProvenanceIsFillOrderIndependent) {
  topology::TopologyConfig config;
  config.seed = 7;
  config.num_ases = 800;
  config.num_vps = 30;
  config.num_vps_2016 = 10;
  config.num_probe_hosts = 250;
  eval::Lab lab(config);
  const HostId source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, 60);
  lab.precompute_all_ingresses();
  const auto dests = lab.responsive_destinations(true);
  std::vector<std::pair<HostId, HostId>> pairs;
  for (std::size_t i = 0; i < 500; ++i) {
    pairs.emplace_back(dests[i % dests.size()], source);
  }
  const core::StackDeps deps{lab.topo,    lab.plane, lab.atlas,
                             lab.ingress, lab.ip2as, lab.relationships};
  service::ParallelCampaignOptions options;
  options.seed = 7;
  const auto sequential =
      measure_sequentially(deps, options.engine, options.seed, pairs);
  std::size_t private_rr_hops = 0;
  for (const std::size_t workers : {1u, 4u}) {
    options.workers = workers;
    service::ParallelCampaignDriver driver(deps, options);
    const auto report = driver.run(pairs);
    ASSERT_EQ(report.results.size(), sequential.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& a = sequential[i].hops;
      const auto& b = report.results[i].hops;
      ASSERT_EQ(a.size(), b.size()) << "request " << i;
      for (std::size_t h = 0; h < a.size(); ++h) {
        EXPECT_EQ(a[h].addr, b[h].addr) << "request " << i << " hop " << h;
        EXPECT_EQ(a[h].source, b[h].source)
            << "request " << i << " hop " << h << " (" << workers
            << " workers)";
        if (a[h].source == core::HopSource::kRecordRoute &&
            a[h].addr.is_private()) {
          ++private_rr_hops;
        }
      }
    }
  }
  // The topology still holds the case this test exists for.
  EXPECT_GT(private_rr_hops, 0u);
}

}  // namespace
}  // namespace revtr
