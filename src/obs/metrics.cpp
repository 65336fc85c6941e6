#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/table.h"

namespace revtr::obs {

std::size_t metric_shard() {
  // Drawn once per thread, round-robin, on the thread's first add.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard = next.fetch_add(1) % kMetricShards;
  return shard;
}

// --- Histogram. -------------------------------------------------------------

std::size_t Histogram::bucket_of(std::uint64_t value) noexcept {
  if (value < (1u << kFirstOctave)) return static_cast<std::size_t>(value);
  const int octave =
      static_cast<int>(std::bit_width(value)) - 1;  // value in [2^o, 2^{o+1}).
  if (octave > kLastOctave) return kOverflowBucket;
  // Two bits below the leading bit select one of 4 linear sub-buckets.
  const auto sub = static_cast<std::size_t>(
      (value >> (octave - 2)) & (kSubBuckets - 1));
  return kSubBuckets +
         static_cast<std::size_t>(octave - kFirstOctave) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_le(std::size_t bucket) noexcept {
  if (bucket < kSubBuckets) return bucket;  // Exact buckets: le == value.
  if (bucket >= kOverflowBucket) return ~0ull;  // Rendered as +Inf.
  const std::size_t rel = bucket - kSubBuckets;
  const int octave = kFirstOctave + static_cast<int>(rel / kSubBuckets);
  const std::uint64_t sub = rel % kSubBuckets;
  const std::uint64_t base = 1ull << octave;
  // Upper bound of sub-bucket `sub`: base + (sub+1) * base/4 - 1.
  return base + (sub + 1) * (base >> 2) - 1;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& bucket : shard.buckets) {
      total += bucket.load(std::memory_order_relaxed);
    }
  }
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::bucket_count(std::size_t bucket) const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

// --- Registry. --------------------------------------------------------------

// entries_ is a node-based map whose values hold the instrument behind a
// unique_ptr; entries are never erased, so the returned reference outlives
// the lock and stays valid across concurrent inserts.
// lint: stable-ref(never-erased node map, instrument behind unique_ptr)
Counter& MetricsRegistry::counter(std::string_view name) {
  {
    const util::SharedLock lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      REVTR_CHECK(it->second.counter != nullptr);
      return *it->second.counter;
    }
  }
  const util::ExclusiveLock lock(mu_);
  auto& entry = entries_[std::string(name)];
  if (!entry.counter) {
    REVTR_CHECK(!entry.gauge && !entry.histogram);
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

// lint: stable-ref(same contract as counter(): stable node, stable target)
Gauge& MetricsRegistry::gauge(std::string_view name) {
  {
    const util::SharedLock lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      REVTR_CHECK(it->second.gauge != nullptr);
      return *it->second.gauge;
    }
  }
  const util::ExclusiveLock lock(mu_);
  auto& entry = entries_[std::string(name)];
  if (!entry.gauge) {
    REVTR_CHECK(!entry.counter && !entry.histogram);
    entry.gauge = std::make_unique<Gauge>();
  }
  return *entry.gauge;
}

// lint: stable-ref(same contract as counter(): stable node, stable target)
Histogram& MetricsRegistry::histogram(std::string_view name) {
  {
    const util::SharedLock lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      REVTR_CHECK(it->second.histogram != nullptr);
      return *it->second.histogram;
    }
  }
  const util::ExclusiveLock lock(mu_);
  auto& entry = entries_[std::string(name)];
  if (!entry.histogram) {
    REVTR_CHECK(!entry.counter && !entry.gauge);
    entry.histogram = std::make_unique<Histogram>();
  }
  return *entry.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const util::SharedLock lock(mu_);
  for (const auto& [name, entry] : entries_) {
    if (entry.counter) {
      snap.counters.push_back({name, entry.counter->total()});
    } else if (entry.gauge) {
      snap.gauges.push_back({name, entry.gauge->value()});
    } else if (entry.histogram) {
      HistogramSample sample;
      sample.name = name;
      sample.count = entry.histogram->count();
      sample.sum = entry.histogram->sum();
      sample.overflow =
          entry.histogram->bucket_count(Histogram::kOverflowBucket);
      std::uint64_t cumulative = 0;
      std::size_t highest = 0;
      std::vector<std::uint64_t> raw(Histogram::kOverflowBucket);
      for (std::size_t b = 0; b < Histogram::kOverflowBucket; ++b) {
        raw[b] = entry.histogram->bucket_count(b);
        if (raw[b] != 0) highest = b + 1;
      }
      for (std::size_t b = 0; b < highest; ++b) {
        cumulative += raw[b];
        sample.buckets.emplace_back(Histogram::bucket_le(b), cumulative);
      }
      // Overflow samples render only under +Inf, so trimming at the highest
      // non-empty finite bucket would leave quantile estimation with no
      // finite bound to fall back on when the rank lands in the overflow
      // mass. Keep the largest finite bound in the sample for that case.
      if (sample.overflow != 0 && highest < Histogram::kOverflowBucket) {
        sample.buckets.emplace_back(
            Histogram::bucket_le(Histogram::kOverflowBucket - 1), cumulative);
      }
      snap.histograms.push_back(std::move(sample));
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  const util::ExclusiveLock lock(mu_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    if (entry.counter) entry.counter->reset();
    if (entry.gauge) entry.gauge->reset();
    if (entry.histogram) entry.histogram->reset();
  }
}

std::size_t MetricsRegistry::size() const {
  const util::SharedLock lock(mu_);
  return entries_.size();
}

// --- Exporters. -------------------------------------------------------------

namespace {

// Family name = series name up to the label block, e.g.
// "revtr_probes_total{type=...}" -> "revtr_probes_total".
std::string_view family_of(std::string_view name) {
  const auto brace = name.find('{');
  return brace == std::string_view::npos ? name : name.substr(0, brace);
}

// Splice a label into a (possibly already labelled) series name:
// splice_label("a_total", "le", "7") -> a_total{le="7"}
// splice_label("a_total{x=\"1\"}", "le", "7") -> a_total{x="1",le="7"}
std::string splice_label(std::string_view name, std::string_view key,
                         std::string_view value) {
  std::string out;
  const auto brace = name.find('{');
  if (brace == std::string_view::npos) {
    out.append(name);
    out.push_back('{');
  } else {
    out.append(name.substr(0, name.size() - 1));  // Drop trailing '}'.
    out.push_back(',');
  }
  out.append(key);
  out.append("=\"");
  out.append(value);
  out.append("\"}");
  return out;
}

void emit_type_line(std::string& out, std::string_view family,
                    std::string_view kind, std::string& last_family) {
  if (family == last_family) return;
  last_family = std::string(family);
  out.append("# TYPE ");
  out.append(family);
  out.push_back(' ');
  out.append(kind);
  out.push_back('\n');
}

}  // namespace

const CounterSample* MetricsSnapshot::find_counter(
    std::string_view name) const {
  for (const auto& sample : counters) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::find_gauge(std::string_view name) const {
  for (const auto& sample : gauges) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  for (const auto& sample : histograms) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string last_family;
  for (const auto& c : counters) {
    emit_type_line(out, family_of(c.name), "counter", last_family);
    out.append(c.name);
    out.push_back(' ');
    out.append(std::to_string(c.value));
    out.push_back('\n');
  }
  last_family.clear();
  for (const auto& g : gauges) {
    emit_type_line(out, family_of(g.name), "gauge", last_family);
    out.append(g.name);
    out.push_back(' ');
    out.append(std::to_string(g.value));
    out.push_back('\n');
  }
  last_family.clear();
  for (const auto& h : histograms) {
    emit_type_line(out, family_of(h.name), "histogram", last_family);
    const std::string bucket_name = std::string(family_of(h.name)) + "_bucket";
    for (const auto& [le, cumulative] : h.buckets) {
      out.append(splice_label(bucket_name, "le", std::to_string(le)));
      out.push_back(' ');
      out.append(std::to_string(cumulative));
      out.push_back('\n');
    }
    out.append(splice_label(bucket_name, "le", "+Inf"));
    out.push_back(' ');
    out.append(std::to_string(h.count));
    out.push_back('\n');
    out.append(family_of(h.name));
    out.append("_sum ");
    out.append(std::to_string(h.sum));
    out.push_back('\n');
    out.append(family_of(h.name));
    out.append("_count ");
    out.append(std::to_string(h.count));
    out.push_back('\n');
  }
  return out;
}

double histogram_quantile(const HistogramSample& sample, double q) {
  if (sample.count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(sample.count);
  std::uint64_t prev_le = 0;
  std::uint64_t prev_cum = 0;
  for (const auto& [le, cum] : sample.buckets) {
    // Only a bucket with mass can contain the rank. An empty bucket passing
    // `cum >= rank` happens exactly at q == 0, where the right estimate is
    // the lower edge of the first *occupied* bucket — not the bound of
    // whichever empty bucket precedes it.
    if (cum > prev_cum && static_cast<double>(cum) >= rank) {
      const std::uint64_t in_bucket = cum - prev_cum;
      const double fraction =
          (rank - static_cast<double>(prev_cum)) /
          static_cast<double>(in_bucket);
      return static_cast<double>(prev_le) +
             fraction * static_cast<double>(le - prev_le);
    }
    prev_le = le;
    prev_cum = cum;
  }
  // The rank lands past the last finite bucket (overflow samples): the
  // best finite statement is the largest recorded finite bound.
  return static_cast<double>(prev_le);
}

util::Json MetricsSnapshot::to_json() const {
  util::Json root = util::Json::object();
  util::Json jc = util::Json::object();
  for (const auto& c : counters) jc[c.name] = util::Json(c.value);
  util::Json jg = util::Json::object();
  for (const auto& g : gauges) jg[g.name] = util::Json(g.value);
  util::Json jh = util::Json::object();
  for (const auto& h : histograms) {
    util::Json entry = util::Json::object();
    entry["count"] = util::Json(h.count);
    entry["sum"] = util::Json(h.sum);
    entry["overflow"] = util::Json(h.overflow);
    util::Json buckets = util::Json::array();
    for (const auto& [le, cumulative] : h.buckets) {
      util::Json b = util::Json::object();
      b["le"] = util::Json(le);
      b["count"] = util::Json(cumulative);
      buckets.push_back(std::move(b));
    }
    entry["buckets"] = std::move(buckets);
    jh[h.name] = std::move(entry);
  }
  root["counters"] = std::move(jc);
  root["gauges"] = std::move(jg);
  root["histograms"] = std::move(jh);
  return root;
}

std::string MetricsSnapshot::to_table() const {
  std::string out;
  if (!counters.empty() || !gauges.empty()) {
    util::TextTable table({"metric", "value"});
    for (const auto& c : counters) {
      table.add_row({c.name, util::cell_count(c.value)});
    }
    for (const auto& g : gauges) {
      table.add_row({g.name, std::to_string(g.value)});
    }
    out += table.render();
  }
  if (!histograms.empty()) {
    if (!out.empty()) out += "\n";
    util::TextTable table({"histogram", "count", "sum", "mean"});
    for (const auto& h : histograms) {
      const double mean =
          h.count == 0 ? 0.0
                       : static_cast<double>(h.sum) /
                             static_cast<double>(h.count);
      table.add_row({h.name, util::cell_count(h.count),
                     util::cell_count(h.sum), util::cell(mean)});
    }
    out += table.render();
  }
  return out;
}

}  // namespace revtr::obs
