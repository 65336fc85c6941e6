#include "atlas/atlas.h"

#include <algorithm>
#include <stdexcept>

#include "probing/fan_out.h"

namespace revtr::atlas {

namespace {
using net::Ipv4Addr;
using topology::HostId;
}  // namespace

AtlasMetrics::AtlasMetrics(obs::MetricsRegistry& registry) {
  builds = &registry.counter("revtr_atlas_builds_total");
  refreshes = &registry.counter("revtr_atlas_refreshes_total");
  rr_index_builds = &registry.counter("revtr_atlas_rr_index_builds_total");
  const auto kind = [&registry](const char* value) {
    return &registry.counter(
        std::string("revtr_atlas_intersections_total{kind=\"") + value +
        "\"}");
  };
  intersect_hop = kind("hop");
  intersect_rr_index = kind("rr-index");
  intersect_alias = kind("alias");
  intersect_miss = kind("miss");
  rr_index_entries = &registry.gauge("revtr_atlas_rr_index_entries");
}

TracerouteAtlas::TracerouteAtlas(probing::Prober& prober,
                                 const topology::Topology& topo)
    : prober_(prober), topo_(topo) {}

TracerouteAtlas::Measured TracerouteAtlas::measure(
    HostId source, std::span<const HostId> probes,
    probing::Prober& prober) const {
  const Ipv4Addr source_addr = topo_.host(source).addr;
  Measured out;
  out.traceroutes.reserve(probes.size());
  for (const HostId probe : probes) {
    const auto result = prober.traceroute(probe, source_addr);
    AtlasTraceroute tr;
    tr.probe = probe;
    tr.hops = result.responsive_hops();
    tr.reached_source = result.reached;
    out.traceroutes.push_back(std::move(tr));
    // Probe hosts measure concurrently; the build takes as long as the
    // slowest traceroute (matching the ~15 min bootstrap of Appx A).
    out.duration = std::max(out.duration, result.duration_us);
  }
  return out;
}

void TracerouteAtlas::index_hops(SourceAtlas& atlas) {
  atlas.hop_index.clear();
  for (std::size_t t = 0; t < atlas.traceroutes.size(); ++t) {
    // Traceroutes that never reached the source are kept (refresh may retry
    // their probes) but must not be intersected: adopting their suffix
    // yields a "complete" path that stops short of the source.
    if (!atlas.traceroutes[t].reached_source) continue;
    const auto& hops = atlas.traceroutes[t].hops;
    for (std::size_t h = 0; h < hops.size(); ++h) {
      // Keep the entry closest to the source so suffixes are shortest and
      // therefore most conservative.
      const auto it = atlas.hop_index.find(hops[h]);
      if (it == atlas.hop_index.end()) {
        atlas.hop_index[hops[h]] = Intersection{t, h};
      }
    }
  }
}

// sources_ entries are never erased and unordered_map node references are
// stable; the atlas contents behind the pointer are additionally guarded by
// the per-source stripe the callers take before reading.
// lint: stable-ref(never-erased node map; contents striped per source)
const TracerouteAtlas::SourceAtlas* TracerouteAtlas::find_atlas(
    HostId source) const {
  const util::SharedLock lock(sources_mu_);
  const auto it = sources_.find(source);
  return it == sources_.end() ? nullptr : &it->second;
}

// lint: stable-ref(never-erased node map; contents striped per source)
TracerouteAtlas::SourceAtlas& TracerouteAtlas::slot_of(HostId source) {
  const util::ExclusiveLock lock(sources_mu_);
  return sources_[source];
}

// lint: stable-ref(never-erased node map; contents striped per source)
TracerouteAtlas::SourceAtlas& TracerouteAtlas::existing_slot(HostId source) {
  const util::SharedLock lock(sources_mu_);
  return sources_.at(source);
}

void TracerouteAtlas::rebuild(std::span<const HostId> sources,
                              std::span<const std::vector<HostId>> probes,
                              std::size_t threads, const Stamp& stamp,
                              bool is_refresh) {
  probing::offline_fan_out(
      prober_, sources.size(), threads,
      [&](std::size_t i, probing::Prober& prober) {
        return measure(sources[i], probes[i], prober);
      },
      [&](std::size_t i, Measured measured) {
        const util::SimClock::Micros at = stamp(i, measured.duration);
        for (auto& tr : measured.traceroutes) tr.measured_at = at;
        SourceAtlas& atlas = slot_of(sources[i]);
        // The new atlas is installed in one critical section, so readers
        // see the old traceroutes or the new ones, never a mix.
        const util::ExclusiveLock lock(stripe_of(sources[i]));
        if (const AtlasMetrics* metrics =
                metrics_.load(std::memory_order_acquire);
            metrics != nullptr) {
          (is_refresh ? metrics->refreshes : metrics->builds)->add();
          metrics->rr_index_entries->add(
              -static_cast<std::int64_t>(atlas.rr_index.size()));
        }
        atlas.traceroutes = std::move(measured.traceroutes);
        atlas.rr_index.clear();
        index_hops(atlas);
      });
}

void TracerouteAtlas::build(std::span<const HostId> sources,
                            std::size_t count, util::Rng& rng,
                            std::size_t threads, const Stamp& stamp) {
  const auto probes_span = topo_.probe_hosts();
  const std::vector<HostId> pool(probes_span.begin(), probes_span.end());
  std::vector<std::vector<HostId>> probes;
  probes.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    probes.push_back(rng.sample(pool, count));
  }
  rebuild(sources, probes, threads, stamp, /*is_refresh=*/false);
}

util::SimClock::Micros TracerouteAtlas::build(HostId source,
                                              std::size_t count,
                                              util::Rng& rng,
                                              util::SimClock::Micros now) {
  util::SimClock::Micros duration = 0;
  build({&source, 1}, count, rng, 1,
        [&](std::size_t, util::SimClock::Micros measured) {
          duration = measured;
          return now;
        });
  return duration;
}

void TracerouteAtlas::refresh(std::span<const HostId> sources,
                              util::Rng& rng, std::size_t threads,
                              const Stamp& stamp) {
  std::vector<std::vector<HostId>> probes;
  probes.reserve(sources.size());
  for (const HostId source : sources) {
    const SourceAtlas& atlas = existing_slot(source);
    // Keep useful probes, re-measuring them; replace the rest.
    std::vector<HostId> keep;
    std::unordered_set<HostId> keep_set;
    std::size_t target = 0;
    {
      const util::SharedLock lock(stripe_of(source));
      target = atlas.traceroutes.size();
      for (const auto& tr : atlas.traceroutes) {
        if (tr.useful) {
          keep.push_back(tr.probe);
          keep_set.insert(tr.probe);
        }
      }
    }
    std::vector<HostId> fresh_pool;
    for (const HostId probe : topo_.probe_hosts()) {
      if (!keep_set.contains(probe)) fresh_pool.push_back(probe);
    }
    const auto fresh = rng.sample(
        fresh_pool, target > keep.size() ? target - keep.size() : 0);
    keep.insert(keep.end(), fresh.begin(), fresh.end());
    probes.push_back(std::move(keep));
  }
  rebuild(sources, probes, threads, stamp, /*is_refresh=*/true);
}

util::SimClock::Micros TracerouteAtlas::refresh(HostId source, util::Rng& rng,
                                                util::SimClock::Micros now) {
  util::SimClock::Micros duration = 0;
  refresh({&source, 1}, rng, 1,
          [&](std::size_t, util::SimClock::Micros measured) {
            duration = measured;
            return now;
          });
  return duration;
}

bool lacks_reverse_slots(std::span<const Ipv4Addr> record, Ipv4Addr probed) {
  const auto self = std::find(record.begin(), record.end(), probed);
  return self == record.end() || self + 1 == record.end();
}

TracerouteAtlas::RrEntries TracerouteAtlas::measure_rr_index(
    HostId source, std::span<const AtlasTraceroute> traceroutes,
    probing::Prober& prober) const {
  RrEntries entries;
  for (std::size_t t = 0; t < traceroutes.size(); ++t) {
    if (!traceroutes[t].reached_source) continue;
    const auto& hops = traceroutes[t].hops;
    for (std::size_t h = 0; h < hops.size(); ++h) {
      // A full record without reverse slots adds no entry, so such a probe
      // may stop where its record fills (DESIGN.md §8).
      const Ipv4Addr probed = hops[h];
      const sim::RrSettle settle = [probed](std::span<const Ipv4Addr> record) {
        return lacks_reverse_slots(record, probed);
      };
      const auto result = prober.rr_ping(source, probed, std::nullopt, &settle);
      if (!result.responded) continue;
      // Find the probed hop's own stamp; slots after it lie on the reverse
      // path toward the source and align with successive traceroute hops.
      const auto self = std::find(result.slots.begin(), result.slots.end(),
                                  hops[h]);
      if (self == result.slots.end()) continue;
      std::size_t offset = 1;
      for (auto it = self + 1; it != result.slots.end(); ++it, ++offset) {
        // Clamping slots that align past the traceroute tail onto the final
        // hop used to register the source's own aliases here; the adopted
        // suffix was empty, so the engine declared paths "complete" at an
        // RR alias that is not the source. Map only slots that align
        // strictly before the final (source) hop, so every adopted suffix
        // still terminates at the source.
        if (h + offset + 1 >= hops.size()) break;
        entries.emplace_back(*it, Intersection{t, h + offset});
      }
    }
  }
  return entries;
}

void TracerouteAtlas::build_rr_alias_index(std::span<const HostId> sources,
                                           std::size_t threads) {
  // The lanes probe from snapshots, so lookups keep running meanwhile.
  std::vector<std::vector<AtlasTraceroute>> snapshots;
  snapshots.reserve(sources.size());
  for (const HostId source : sources) {
    const SourceAtlas& atlas = existing_slot(source);
    const util::SharedLock lock(stripe_of(source));
    snapshots.push_back(atlas.traceroutes);
  }
  // RR-alias indexing is offline work like the atlas build itself (Q2 runs
  // during source bootstrap, not per request).
  probing::offline_fan_out(
      prober_, sources.size(), threads,
      [&](std::size_t i, probing::Prober& prober) {
        return measure_rr_index(sources[i], snapshots[i], prober);
      },
      [&](std::size_t i, RrEntries entries) {
        SourceAtlas& atlas = existing_slot(sources[i]);
        const util::ExclusiveLock lock(stripe_of(sources[i]));
        const AtlasMetrics* metrics = metrics_.load(std::memory_order_acquire);
        if (metrics != nullptr) {
          metrics->rr_index_builds->add();
          metrics->rr_index_entries->add(
              -static_cast<std::int64_t>(atlas.rr_index.size()));
        }
        atlas.rr_index.clear();
        // First mapping wins: it is the one farthest from the source, which
        // yields the longest (and in our alignment, safest) suffix.
        for (const auto& [addr, at] : entries) {
          atlas.rr_index.try_emplace(addr, at);
        }
        if (metrics != nullptr) {
          metrics->rr_index_entries->add(
              static_cast<std::int64_t>(atlas.rr_index.size()));
        }
      });
}

void TracerouteAtlas::build_rr_alias_index(HostId source) {
  build_rr_alias_index({&source, 1}, 1);
}

std::optional<Intersection> TracerouteAtlas::intersect(
    HostId source, Ipv4Addr addr, bool use_rr_index) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) return std::nullopt;
  const AtlasMetrics* metrics = metrics_.load(std::memory_order_acquire);
  const util::SharedLock lock(stripe_of(source));
  if (const auto hit = atlas->hop_index.find(addr);
      hit != atlas->hop_index.end()) {
    if (metrics != nullptr) metrics->intersect_hop->add();
    return hit->second;
  }
  if (use_rr_index) {
    if (const auto hit = atlas->rr_index.find(addr);
        hit != atlas->rr_index.end()) {
      if (metrics != nullptr) metrics->intersect_rr_index->add();
      return hit->second;
    }
  }
  if (metrics != nullptr) metrics->intersect_miss->add();
  return std::nullopt;
}

std::optional<Intersection> TracerouteAtlas::intersect_with_aliases(
    HostId source, Ipv4Addr addr, const alias::AliasStore& aliases) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) return std::nullopt;
  const AtlasMetrics* metrics = metrics_.load(std::memory_order_acquire);
  // The exact hop_index probe is inlined (rather than calling intersect())
  // so the stripe's shared lock is taken once; shared_mutex does not
  // guarantee recursive shared acquisition.
  const util::SharedLock lock(stripe_of(source));
  if (const auto hit = atlas->hop_index.find(addr);
      hit != atlas->hop_index.end()) {
    if (metrics != nullptr) metrics->intersect_hop->add();
    return hit->second;
  }
  if (aliases.knows(addr)) {
    for (const auto& [hop_addr, where] : atlas->hop_index) {
      if (aliases.same_router(addr, hop_addr)) {
        if (metrics != nullptr) metrics->intersect_alias->add();
        return where;
      }
    }
  }
  if (metrics != nullptr) metrics->intersect_miss->add();
  return std::nullopt;
}

std::vector<Ipv4Addr> TracerouteAtlas::suffix_after(
    HostId source, const Intersection& at) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) {
    throw std::out_of_range("TracerouteAtlas::suffix_after: unknown source");
  }
  const util::SharedLock lock(stripe_of(source));
  const auto& hops = atlas->traceroutes.at(at.traceroute_index).hops;
  if (at.hop_index + 1 >= hops.size()) return {};
  return {hops.begin() + static_cast<long>(at.hop_index) + 1, hops.end()};
}

util::SimClock::Micros TracerouteAtlas::touch(HostId source,
                                              const Intersection& at,
                                              util::SimClock::Micros now) {
  SourceAtlas& atlas = existing_slot(source);
  // The useful-flag write needs the stripe exclusively: concurrent workers
  // may touch the same traceroute, and readers walk the same vector.
  const util::ExclusiveLock lock(stripe_of(source));
  auto& tr = atlas.traceroutes.at(at.traceroute_index);
  tr.useful = true;
  return now - tr.measured_at;
}

std::vector<AtlasTraceroute> TracerouteAtlas::traceroutes(
    HostId source) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) return {};
  const util::SharedLock lock(stripe_of(source));
  return atlas->traceroutes;
}

std::size_t TracerouteAtlas::traceroute_count(HostId source) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) return 0;
  const util::SharedLock lock(stripe_of(source));
  return atlas->traceroutes.size();
}

std::size_t TracerouteAtlas::rr_index_size(HostId source) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) return 0;
  const util::SharedLock lock(stripe_of(source));
  return atlas->rr_index.size();
}

std::unordered_map<Ipv4Addr, Intersection> TracerouteAtlas::rr_index_entries(
    HostId source) const {
  const SourceAtlas* atlas = find_atlas(source);
  if (atlas == nullptr) return {};
  const util::SharedLock lock(stripe_of(source));
  // Cold path: copy the flat table into the node-based snapshot type the
  // validation tooling consumes.
  std::unordered_map<Ipv4Addr, Intersection> snapshot;
  snapshot.reserve(atlas->rr_index.size());
  for (const auto& [addr, at] : atlas->rr_index) snapshot.emplace(addr, at);
  return snapshot;
}

std::vector<std::size_t> greedy_optimal_selection(
    std::span<const AtlasTraceroute> pool, std::size_t k) {
  return greedy_optimal_selection(pool, k, pool);
}

std::vector<std::size_t> greedy_optimal_selection(
    std::span<const AtlasTraceroute> pool, std::size_t k,
    std::span<const AtlasTraceroute> weight_pool) {
  // Address weight = summed hops-to-source across the weighting set.
  std::unordered_map<Ipv4Addr, double> weight;
  for (const auto& tr : weight_pool) {
    for (std::size_t h = 0; h < tr.hops.size(); ++h) {
      weight[tr.hops[h]] +=
          static_cast<double>(tr.hops.size() - 1 - h);
    }
  }

  std::vector<std::size_t> selected;
  std::unordered_set<Ipv4Addr> covered;
  std::vector<bool> taken(pool.size(), false);
  k = std::min(k, pool.size());
  selected.reserve(k);
  for (std::size_t round = 0; round < k; ++round) {
    double best_gain = -1.0;
    std::size_t best = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      double gain = 0;
      for (const auto hop : pool[i].hops) {
        if (!covered.contains(hop)) gain += weight[hop];
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == pool.size()) break;
    taken[best] = true;
    selected.push_back(best);
    for (const auto hop : pool[best].hops) covered.insert(hop);
  }
  return selected;
}

double intersected_fraction(std::span<const Ipv4Addr> path,
                            const std::unordered_set<Ipv4Addr>& covered) {
  if (path.empty()) return 0.0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (covered.contains(path[i])) {
      return static_cast<double>(path.size() - i) /
             static_cast<double>(path.size());
    }
  }
  return 0.0;
}

}  // namespace revtr::atlas
