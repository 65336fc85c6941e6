// Observability: process-wide metrics registry with sharded hot-path cells.
//
// The deployed system lives or dies by its probe budget (the paper dropped
// the whole Timestamp primitive once measurement showed ~34% of probes buying
// <1% coverage, Insight 1.9). This module gives every subsystem a uniform
// way to account where probes and simulated time go:
//
//   * Counter    monotonically increasing u64 (probes sent, stages entered).
//   * Gauge      settable i64 (cache sizes, plan counts); control-plane only.
//   * Histogram  log-linear-bucketed u64 samples (latency in micros, probes
//                per request). Integer sum + integer buckets, so merged
//                totals are independent of accumulation order.
//
// Hot-path cost: one relaxed atomic add into a per-thread shard. Every
// thread — pool workers and plain std::threads (daemon workers, campaign
// pumps, survey helpers) alike — takes the next shard round-robin on first
// use and keeps it. Reads (snapshots) sum all shards — the "merge at the
// barrier" the campaign driver performs is exactly a snapshot.
//
// Determinism: a snapshot is rendered in sorted metric order with
// integer-only arithmetic, so two campaigns that perform the same
// measurement work produce byte-identical Prometheus/JSON text regardless of
// worker count or scheduling (pinned by tests/obs_test.cpp). Metrics whose
// values depend on scheduling (e.g. probe counts under a shared cache) are
// the caller's business — the registry itself never introduces
// nondeterminism.
//
// Naming scheme (DESIGN.md §9): `revtr_<area>_<noun>[_<unit>]`, with
// Prometheus-style labels baked into the registered name, e.g.
// `revtr_probes_total{scope="online",type="rr"}`. The family (name up to
// '{') groups series in the text exposition.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotate.h"
#include "util/json.h"

namespace revtr::obs {

// Shard count. A process with more threads than shards folds them onto
// shared shards; correctness is unaffected (cells are atomic), only
// contention grows.
inline constexpr std::size_t kMetricShards = 17;

// The calling thread's shard index, in [0, kMetricShards): assigned
// round-robin on the thread's first call and stable for its lifetime.
std::size_t metric_shard();

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[metric_shard()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() noexcept {
    for (auto& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kMetricShards> cells_;
};

// Settable value for sizes and configuration facts. Last write wins; not
// sharded — gauges are control-plane (set at barriers, not per probe).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Log-linear histogram over u64 samples (HdrHistogram-style): values 0..3
// get exact buckets; every octave [2^k, 2^{k+1}) above that is split into 4
// linear sub-buckets; values >= 2^48 land in one overflow bucket. Bucket
// boundaries are fixed at compile time, so two histograms fed the same
// multiset of samples render identically.
class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 4;       // Per octave.
  static constexpr int kFirstOctave = 2;              // Values 0..3 exact.
  static constexpr int kLastOctave = 47;              // Then overflow.
  static constexpr std::size_t kBuckets =
      kSubBuckets /* exact 0..3 */ +
      static_cast<std::size_t>(kLastOctave - kFirstOctave + 1) * kSubBuckets +
      1 /* overflow */;
  static constexpr std::size_t kOverflowBucket = kBuckets - 1;

  // Bucket index a value lands in; exposed for boundary tests.
  static std::size_t bucket_of(std::uint64_t value) noexcept;
  // Inclusive upper bound of a bucket (its Prometheus `le`); the overflow
  // bucket has no finite bound and renders as +Inf.
  static std::uint64_t bucket_le(std::size_t bucket) noexcept;

  void record(std::uint64_t value) noexcept {
    Shard& shard = shards_[metric_shard()];
    shard.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  std::uint64_t bucket_count(std::size_t bucket) const noexcept;
  void reset() noexcept;

 private:
  // One shard owns a contiguous bucket row (padding per bucket would cost
  // 64x the memory; a row per worker already avoids cross-worker sharing).
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

// --- Snapshots. -------------------------------------------------------------

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  // (le, cumulative count) up to the highest non-empty bucket — plus the
  // largest finite bucket whenever overflow is non-zero, so quantile
  // estimation keeps a finite bound to clamp to; the +Inf entry is implicit
  // (== count).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  // Samples that landed in the overflow bucket (rendered only under +Inf).
  std::uint64_t overflow = 0;
};

// Quantile estimate (q in [0, 1]) from a histogram sample's cumulative
// buckets, linearly interpolated inside the bucket the rank lands in —
// the same estimate promql's histogram_quantile() would produce from the
// exposition. q is clamped to [0, 1]. Returns 0 for an empty histogram;
// q = 0 yields the lower edge of the first occupied bucket; ranks landing
// in the overflow bucket (including all-mass-in-overflow) clamp to the
// largest finite bucket bound.
double histogram_quantile(const HistogramSample& sample, double q);

// A consistent-enough point-in-time view (each metric is read atomically per
// cell; cross-metric skew is possible while writers run, which campaign
// callers avoid by snapshotting after the barrier). Rendering is
// deterministic: sorted by name, integers only.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  // Exact-name lookups (full name including labels); nullptr when absent.
  // Consumers that report on specific series — the daemon's STATS reply,
  // the concurrency tests' survey counters — use these instead of
  // re-scanning the vectors.
  const CounterSample* find_counter(std::string_view name) const;
  const GaugeSample* find_gauge(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;

  // Prometheus text exposition (families sorted, TYPE line per family).
  std::string to_prometheus() const;
  util::Json to_json() const;
  // Human view: one util::TextTable per metric kind.
  std::string to_table() const;
};

// Get-or-create registry of named metrics. Handles returned by
// counter()/gauge()/histogram() are stable for the registry's lifetime —
// callers cache them once and pay no lookup on the hot path. Registering
// the same name with a different kind is a programming error (aborts).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  // Zeroes every registered metric (names stay registered). Test helper.
  void reset();
  std::size_t size() const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable util::SharedMutex mu_;
  // std::map: stable node addresses and sorted snapshot order for free.
  std::map<std::string, Entry, std::less<>> entries_ REVTR_GUARDED_BY(mu_);
};

}  // namespace revtr::obs
