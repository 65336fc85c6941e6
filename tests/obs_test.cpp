// Observability subsystem tests: histogram bucketing edge cases, registry
// get-or-create semantics, exporter determinism, trace span trees, the
// bounded TraceSink, and the pinned acceptance criterion that a campaign's
// metrics snapshot is byte-identical across runs and across worker counts
// (with the shared cache off — the cache makes probe totals depend on
// request interleaving, which is the caller's nondeterminism, not the
// registry's).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/parallel.h"

namespace revtr {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::Trace;
using obs::TraceSink;

// --- Histogram bucketing --------------------------------------------------

TEST(ObsHistogram, EmptyHistogramHasNoSamples) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(h.bucket_count(b), 0u);
  }
}

TEST(ObsHistogram, SingleSampleLandsInExactlyOneBucket) {
  Histogram h;
  h.record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1234u);
  std::size_t nonempty = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.bucket_count(b) > 0) {
      ++nonempty;
      EXPECT_EQ(b, Histogram::bucket_of(1234));
    }
  }
  EXPECT_EQ(nonempty, 1u);
}

TEST(ObsHistogram, SmallValuesGetExactBuckets) {
  // Values 0..3 are exact: distinct buckets, each its own le bound.
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), v) << "value " << v;
    EXPECT_EQ(Histogram::bucket_le(v), v) << "value " << v;
  }
  EXPECT_EQ(Histogram::bucket_of(4), 4u);
}

TEST(ObsHistogram, BucketBoundariesRoundTrip) {
  // For every finite bucket, its inclusive upper bound maps back into it
  // and the next integer maps into a strictly later bucket.
  for (std::size_t b = 0; b < Histogram::kOverflowBucket; ++b) {
    const std::uint64_t le = Histogram::bucket_le(b);
    EXPECT_EQ(Histogram::bucket_of(le), b) << "bucket " << b;
    EXPECT_GT(Histogram::bucket_of(le + 1), b) << "bucket " << b;
  }
  // Bounds are strictly increasing — no empty bucket ranges.
  for (std::size_t b = 1; b < Histogram::kOverflowBucket; ++b) {
    EXPECT_LT(Histogram::bucket_le(b - 1), Histogram::bucket_le(b));
  }
}

TEST(ObsHistogram, HugeValuesLandInOverflowBucket) {
  const std::uint64_t edge = 1ULL << 48;
  EXPECT_LT(Histogram::bucket_of(edge - 1), Histogram::kOverflowBucket);
  EXPECT_EQ(Histogram::bucket_of(edge), Histogram::kOverflowBucket);
  EXPECT_EQ(Histogram::bucket_of(~0ULL), Histogram::kOverflowBucket);

  Histogram h;
  h.record(edge);
  h.record(~0ULL);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::kOverflowBucket), 2u);
  EXPECT_EQ(h.sum(), edge + ~0ULL);  // Wraps; sum is modular u64 on purpose.
}

TEST(ObsHistogram, CountAndSumAggregateAcrossBuckets) {
  Histogram h;
  std::uint64_t want_sum = 0;
  const std::vector<std::uint64_t> samples = {0, 1, 3, 4, 7, 100, 1000, 1000};
  for (const auto v : samples) {
    h.record(v);
    want_sum += v;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.sum(), want_sum);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1000)), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// --- Quantile estimation edges --------------------------------------------

TEST(ObsQuantile, EmptyHistogramReturnsZeroForAnyQuantile) {
  obs::HistogramSample sample;
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(obs::histogram_quantile(sample, q), 0.0) << "q=" << q;
  }
}

TEST(ObsQuantile, QuantileIsClampedToUnitInterval) {
  obs::HistogramSample sample;
  sample.count = 4;
  sample.buckets = {{10, 0}, {20, 4}};
  EXPECT_EQ(obs::histogram_quantile(sample, -0.5),
            obs::histogram_quantile(sample, 0.0));
  EXPECT_EQ(obs::histogram_quantile(sample, 1.5),
            obs::histogram_quantile(sample, 1.0));
}

TEST(ObsQuantile, SingleSampleInterpolatesWithinItsBucket) {
  obs::HistogramSample sample;
  sample.count = 1;
  sample.buckets = {{8, 0}, {10, 1}};
  // The one sample lives in (8, 10]: q sweeps linearly across that bucket
  // and never escapes it.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.5), 9.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 1.0), 10.0);
}

TEST(ObsQuantile, QuantileZeroSkipsEmptyLeadingBuckets) {
  // Regression: q = 0 used to land in the first bucket (cum 0 >= rank 0)
  // and return its bound — claiming a minimum far below any sample.
  obs::HistogramSample sample;
  sample.count = 5;
  sample.buckets = {{0, 0}, {1, 0}, {100, 0}, {200, 5}};
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 1.0), 200.0);
}

TEST(ObsQuantile, RankPastFiniteBucketsClampsToLastFiniteBound) {
  obs::HistogramSample sample;
  sample.count = 10;   // 6 finite + 4 overflow samples.
  sample.overflow = 4;
  sample.buckets = {{100, 6}};
  // p50 lands inside the finite mass; p99 lands in overflow and clamps.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.5),
                   100.0 * (5.0 / 6.0));
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.99), 100.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 1.0), 100.0);
}

TEST(ObsQuantile, AllMassInOverflowClampsToLargestFiniteBound) {
  // Regression: a histogram whose every sample overflowed used to snapshot
  // an empty bucket list, making every quantile collapse to 0. The snapshot
  // now keeps the largest finite bound for exactly this case.
  MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("overflow_only_us");
  h.record(~0ULL);
  h.record(1ULL << 60);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& sample = snap.histograms[0];
  EXPECT_EQ(sample.count, 2u);
  EXPECT_EQ(sample.overflow, 2u);
  ASSERT_FALSE(sample.buckets.empty());
  const double last_finite = static_cast<double>(
      Histogram::bucket_le(Histogram::kOverflowBucket - 1));
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.0), last_finite);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 0.5), last_finite);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(sample, 1.0), last_finite);
}

// --- Registry -------------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  obs::Counter& a = registry.counter("revtr_test_total");
  obs::Counter& b = registry.counter("revtr_test_total");
  EXPECT_EQ(&a, &b);
  registry.gauge("revtr_test_size");
  registry.histogram("revtr_test_latency_us");
  EXPECT_EQ(registry.size(), 3u);
}

TEST(ObsRegistry, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry registry;
  registry.counter("revtr_a_total").add(5);
  registry.gauge("revtr_b").set(-7);
  registry.histogram("revtr_c_us").record(42);
  registry.reset();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.counter("revtr_a_total").total(), 0u);
  EXPECT_EQ(registry.gauge("revtr_b").value(), 0);
  EXPECT_EQ(registry.histogram("revtr_c_us").count(), 0u);
}

TEST(ObsRegistryDeathTest, KindMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry registry;
  registry.counter("revtr_kind_total");
  EXPECT_DEATH(registry.gauge("revtr_kind_total"), "");
}

// --- Exporters ------------------------------------------------------------

// Two registries fed the same values in different insertion orders must
// render byte-identical text in every format.
TEST(ObsExporters, RenderingIsInsertionOrderIndependent) {
  MetricsRegistry first;
  first.counter("revtr_z_total").add(3);
  first.counter("revtr_a_total{type=\"rr\"}").add(1);
  first.counter("revtr_a_total{type=\"ping\"}").add(2);
  first.gauge("revtr_m_size").set(9);
  first.histogram("revtr_lat_us").record(5);
  first.histogram("revtr_lat_us").record(500);

  MetricsRegistry second;
  second.histogram("revtr_lat_us").record(500);
  second.gauge("revtr_m_size").set(9);
  second.counter("revtr_a_total{type=\"ping\"}").add(2);
  second.counter("revtr_z_total").add(2);
  second.counter("revtr_z_total").add(1);
  second.counter("revtr_a_total{type=\"rr\"}").add(1);
  second.histogram("revtr_lat_us").record(5);

  EXPECT_EQ(first.snapshot().to_prometheus(), second.snapshot().to_prometheus());
  EXPECT_EQ(first.snapshot().to_json().dump(), second.snapshot().to_json().dump());
  EXPECT_EQ(first.snapshot().to_table(), second.snapshot().to_table());
}

TEST(ObsExporters, PrometheusTextIsWellFormed) {
  MetricsRegistry registry;
  registry.counter("revtr_probes_total{type=\"rr\"}").add(4);
  registry.counter("revtr_probes_total{type=\"ping\"}").add(2);
  registry.histogram("revtr_request_latency_us").record(10);
  const std::string text = registry.snapshot().to_prometheus();

  // One TYPE line per family, not per labeled series.
  std::size_t type_lines = 0, pos = 0;
  while ((pos = text.find("# TYPE revtr_probes_total ", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("# TYPE revtr_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("revtr_probes_total{type=\"rr\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("revtr_request_latency_us_count 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("revtr_request_latency_us_sum 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1\n"), std::string::npos);
}

// --- Trace ----------------------------------------------------------------

TEST(ObsTrace, SpansFormATreeWithLifoNesting) {
  Trace trace;
  const auto root = trace.start_span("request", 0);
  const auto child = trace.start_span("rr-direct", 10);
  trace.end_span(child, 40, 6);
  const auto sibling = trace.start_span("symmetry", 40);
  trace.annotate(sibling, "outcome", "intradomain");
  trace.end_span(sibling, 50, 0);
  trace.end_span(root, 50, 0);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].parent, obs::Span::kNoParent);
  EXPECT_EQ(trace.spans()[1].parent, 0u);
  EXPECT_EQ(trace.spans()[2].parent, 0u);
  EXPECT_FALSE(trace.spans()[0].open);
  EXPECT_EQ(trace.spans()[1].probes, 6u);
  EXPECT_EQ(trace.attributed_probes(), 6u);
  ASSERT_EQ(trace.spans()[2].annotations.size(), 1u);
  EXPECT_EQ(trace.spans()[2].annotations[0].second, "intradomain");
  EXPECT_FALSE(trace.overflowed());
}

TEST(ObsTrace, EventIsAZeroDurationClosedSpan) {
  Trace trace;
  const auto root = trace.start_span("request", 0);
  trace.event("ts-skipped", 25);
  trace.end_span(root, 30, 0);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].begin, trace.spans()[1].end);
  EXPECT_FALSE(trace.spans()[1].open);
  EXPECT_EQ(trace.spans()[1].parent, 0u);
}

TEST(ObsTrace, OverflowLatchesAndDropsSpansSafely) {
  Trace trace(/*max_spans=*/2);
  const auto a = trace.start_span("request", 0);
  const auto b = trace.start_span("rr-direct", 1);
  const auto dropped = trace.start_span("one-too-many", 2);
  EXPECT_EQ(dropped, Trace::kDroppedSpan);
  EXPECT_TRUE(trace.overflowed());
  // Operations on the dropped id are no-ops, not crashes.
  trace.annotate(dropped, "k", "v");
  trace.end_span(dropped, 3, 99);
  trace.end_span(b, 4, 2);
  trace.end_span(a, 5, 0);
  EXPECT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.attributed_probes(), 2u);
}

// --- TraceSink ------------------------------------------------------------

TEST(ObsTraceSink, RingEvictsOldestAndCountsDrops) {
  TraceSink sink(/*capacity=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Trace trace;
    trace.request_index = i;
    sink.publish(std::move(trace));
  }
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto kept = sink.published();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].request_index, 2u);
  EXPECT_EQ(kept[2].request_index, 4u);
}

TEST(ObsTraceSink, PublishedIsSortedByRequestIndex) {
  TraceSink sink;
  for (const std::uint64_t i : {4u, 1u, 3u, 0u, 2u}) {
    Trace trace;
    trace.request_index = i;
    sink.publish(std::move(trace));
  }
  const auto traces = sink.published();
  ASSERT_EQ(traces.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(traces[i].request_index, i);
  }
  EXPECT_EQ(sink.dropped(), 0u);
}

// --- Campaign snapshot determinism (acceptance criterion) -----------------

class ObsCampaignTest : public ::testing::Test {
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
    const auto dests = lab_->responsive_destinations(true);
    for (std::size_t i = 0; i < 12 && i < dests.size(); ++i) {
      pairs_.emplace_back(dests[i], source_);
    }
    ASSERT_GE(pairs_.size(), 8u);
  }

  core::StackDeps deps() {
    return {lab_->topo,  lab_->plane, lab_->atlas,
            lab_->ingress, lab_->ip2as, lab_->relationships};
  }

  // One instrumented campaign run; returns the Prometheus rendering of its
  // metrics snapshot. The shared cache and coalescing are off: with either
  // on, which request pays for a probe (fills the cache entry, or issues the
  // demand the others ride on) depends on scheduling, so probe totals would
  // be legitimately worker-count-dependent.
  std::string run_instrumented(std::size_t workers, MetricsRegistry& registry,
                               TraceSink* sink = nullptr,
                               std::size_t sample_every = 0) {
    service::ParallelCampaignOptions options;
    options.workers = workers;
    options.seed = 7;
    options.engine.use_cache = false;
    options.sched.coalesce = false;
    options.metrics = &registry;
    options.trace_sink = sink;
    options.trace_sample_every = sample_every;
    service::ParallelCampaignDriver driver(deps(), options);
    const auto report = driver.run(pairs_);
    EXPECT_TRUE(report.metrics.has_value());
    EXPECT_EQ(report.metrics->to_prometheus(),
              registry.snapshot().to_prometheus());
    return registry.snapshot().to_prometheus();
  }

  std::unique_ptr<eval::Lab> lab_;
  topology::HostId source_ = topology::kInvalidId;
  std::vector<std::pair<topology::HostId, topology::HostId>> pairs_;
};

// The snapshot text without one metric family's lines.
std::string without_family(const std::string& text, const std::string& name) {
  std::string out;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string line = text.substr(begin, end - begin);
    if (line.find(name) == std::string::npos) out += line + '\n';
    begin = end + 1;
  }
  return out;
}

TEST_F(ObsCampaignTest, SnapshotIsByteIdenticalAcrossRunsAndWorkerCounts) {
  MetricsRegistry solo_a, solo_b, fleet;
  const std::string text_solo_a = run_instrumented(1, solo_a);
  const std::string text_solo_b = run_instrumented(1, solo_b);
  const std::string text_fleet = run_instrumented(4, fleet);

  EXPECT_FALSE(text_solo_a.empty());
  EXPECT_EQ(text_solo_a, text_solo_b) << "same seed, same workers: not stable";
  // One family is exempt across worker counts: a spoofed-RR wire batch
  // forms from the demands one worker's executor submitted in one pump
  // round, so how many batches a campaign puts on the wire depends on how
  // its requests are spread over workers. Every other family, the
  // scheduler's demanded/issued/coalesced/throttled counters included, must
  // match byte for byte.
  const std::string batches = "revtr_sched_spoof_batches_total";
  ASSERT_NE(text_solo_a.find(batches), std::string::npos);
  EXPECT_EQ(without_family(text_solo_a, batches),
            without_family(text_fleet, batches))
      << "1 vs 4 workers changed the snapshot";

  // The snapshot carries the series check.sh's smoke stage requires.
  for (const char* required :
       {"revtr_requests_total", "revtr_probes_total",
        "revtr_request_latency_us_count", "revtr_engine_stage_total"}) {
    EXPECT_NE(text_solo_a.find(required), std::string::npos)
        << "missing metric family " << required;
  }
}

TEST_F(ObsCampaignTest, TraceSamplingPublishesEveryNthRequest) {
  MetricsRegistry registry;
  TraceSink sink;
  const std::size_t sample_every = 3;
  run_instrumented(2, registry, &sink, sample_every);

  const std::size_t want =
      (pairs_.size() + sample_every - 1) / sample_every;  // indices 0,3,6,...
  EXPECT_EQ(sink.size(), want);
  EXPECT_EQ(sink.dropped(), 0u);
  for (const auto& trace : sink.published()) {
    EXPECT_EQ(trace.request_index % sample_every, 0u);
    ASSERT_FALSE(trace.spans().empty());
    EXPECT_EQ(trace.spans()[0].name, "request");
    // Root carries no probes of its own (I6 leaves attribution to leaves).
    EXPECT_EQ(trace.spans()[0].probes, 0u);
  }
}

TEST_F(ObsCampaignTest, SampledTracesAreWorkerCountInvariant) {
  MetricsRegistry solo_reg, fleet_reg;
  TraceSink solo_sink, fleet_sink;
  run_instrumented(1, solo_reg, &solo_sink, 2);
  run_instrumented(4, fleet_reg, &fleet_sink, 2);

  // A worker's sim clock accumulates across the requests it happens to
  // serve, so absolute timestamps are scheduling-dependent. Everything
  // request-local — span structure, durations, and probe attribution — is
  // not, and that is what the comparison pins.
  const auto shape = [](const TraceSink& sink) {
    std::string out;
    for (const auto& trace : sink.published()) {
      out += "trace " + std::to_string(trace.request_index) + " " +
             std::to_string(trace.destination) + ">" +
             std::to_string(trace.source) + "\n";
      for (const auto& span : trace.spans()) {
        out += "  " + span.name + " parent=" + std::to_string(span.parent) +
               " us=" + std::to_string(span.end - span.begin) +
               " probes=" + std::to_string(span.probes) + "\n";
      }
    }
    return out;
  };
  EXPECT_EQ(shape(solo_sink), shape(fleet_sink));
}

}  // namespace
}  // namespace revtr
