// Traceroute atlas (design questions Q1 and Q2).
//
// Q1: for each Reverse Traceroute source S the system maintains an atlas of
// traceroutes from distributed probe hosts (RIPE-Atlas-like) toward S,
// refreshed daily, with traceroutes that proved useless replaced by fresh
// random ones (Insights 1.4/1.5).
//
// Q2: to detect intersections without runtime alias resolution, the system
// sends background RR pings to every atlas traceroute hop; the reply's RR
// slots reveal the addresses that same router path exposes to RR probes
// toward S. A later reverse traceroute that uncovers one of those addresses
// intersects the atlas at a known hop (Insight 1.6, §4.2, Fig 3).
//
// The module also implements the greedy weighted-max-coverage "optimal"
// atlas selection used as the upper bound in the Appx D.2.1 study (Fig 9).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alias/alias.h"
#include "net/ipv4.h"
#include "obs/metrics.h"
#include "probing/prober.h"
#include "topology/topology.h"
#include "util/annotate.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace revtr::atlas {

struct AtlasTraceroute {
  topology::HostId probe = topology::kInvalidId;
  // Responsive hops in probe->source order; the source address is last when
  // the traceroute reached it.
  std::vector<net::Ipv4Addr> hops;
  util::SimClock::Micros measured_at = 0;
  bool reached_source = false;
  bool useful = false;  // Intersected by some reverse traceroute.

  bool operator==(const AtlasTraceroute&) const = default;
};

struct Intersection {
  std::size_t traceroute_index = 0;
  std::size_t hop_index = 0;

  bool operator==(const Intersection&) const = default;
};

// Registry handles for atlas maintenance and lookup accounting.
struct AtlasMetrics {
  explicit AtlasMetrics(obs::MetricsRegistry& registry);

  obs::Counter* builds;
  obs::Counter* refreshes;
  obs::Counter* rr_index_builds;
  // revtr_atlas_intersections_total{kind=...}
  obs::Counter* intersect_hop;
  obs::Counter* intersect_rr_index;
  obs::Counter* intersect_alias;
  obs::Counter* intersect_miss;
  // Entries across all sources' Q2 indexes, updated after each (re)index.
  obs::Gauge* rr_index_entries;
};

// Thread safety: lookups (intersect, suffix_after, touch and the
// snapshot accessors) may run concurrently with each other and with the
// maintenance calls (build, refresh, build_rr_alias_index). Per-source
// state is guarded by lock stripes (shared for reads, exclusive for
// touch()'s useful-flag write and for installing a measured atlas or Q2
// index); the source map itself has its own shared mutex. Lock order:
// sources_mu_ before a stripe; never two stripes at once.
// traceroutes()/rr_index_entries() return snapshots by value under the
// stripe's shared lock, so holding one across a concurrent refresh() is
// safe — it just may be stale (pinned by tests/concurrency_test.cpp).
// Maintenance probes through the atlas's prober, so maintenance calls must
// not overlap one another or anything else probing through that prober.
class TracerouteAtlas {
 public:
  TracerouteAtlas(probing::Prober& prober, const topology::Topology& topo);

  // nullptr (default) = no instrumentation; handles must outlive their use.
  void set_metrics(const AtlasMetrics* metrics) noexcept {
    metrics_.store(metrics, std::memory_order_release);
  }

  // Called once per source of a list build or refresh, in list order and
  // on the calling thread, as that source's atlas is installed. `index` is the source's position in
  // the list and `duration` the simulated duration of its measurement (the
  // slowest traceroute: probe hosts measure concurrently). Returns the time
  // its traceroutes count as measured at.
  using Stamp = std::function<util::SimClock::Micros(
      std::size_t index, util::SimClock::Micros duration)>;

  // Q1: (re)builds the atlas of every source of `sources` from `count`
  // random probe hosts each. Every source's probe hosts are drawn from
  // `rng` in list order before any probe is sent; the sources are then
  // measured over up to `threads` threads (probing::offline_fan_out) and
  // installed in list order, each with its `stamp`. Atlases, draws, probe
  // counters and metrics come out as from building the sources one by one
  // in list order, for any `threads`.
  void build(std::span<const topology::HostId> sources, std::size_t count,
             util::Rng& rng, std::size_t threads, const Stamp& stamp);
  // One source, measured at `now`. Returns the simulated duration.
  util::SimClock::Micros build(topology::HostId source, std::size_t count,
                               util::Rng& rng,
                               util::SimClock::Micros now = 0);

  // Daily refresh of every source of `sources`: keep each source's
  // traceroutes marked useful, re-measure them, and replace the rest with
  // fresh random probe hosts (Appx D.2.1 policy). Draws, fan-out and
  // installation as for build(); a source must have an atlas.
  void refresh(std::span<const topology::HostId> sources, util::Rng& rng,
               std::size_t threads, const Stamp& stamp);
  // One source, measured at `now`. Returns the simulated duration.
  util::SimClock::Micros refresh(topology::HostId source, util::Rng& rng,
                                 util::SimClock::Micros now);

  // Q2: for every source of `sources`, issue RR pings from the source to
  // every hop of its reached traceroutes and index the addresses revealed
  // on the reverse slots (the pings settle by lacks_reverse_slots). Fanned
  // out and installed as for build(); a source must have an atlas.
  void build_rr_alias_index(std::span<const topology::HostId> sources,
                            std::size_t threads);
  void build_rr_alias_index(topology::HostId source);

  // Exact-address intersection; with use_rr_index also matches addresses
  // learned by the Q2 background probes.
  std::optional<Intersection> intersect(topology::HostId source,
                                        net::Ipv4Addr addr,
                                        bool use_rr_index) const;

  // revtr 1.0-style intersection through an external alias dataset: the
  // address intersects if the dataset says it shares a router with a hop.
  std::optional<Intersection> intersect_with_aliases(
      topology::HostId source, net::Ipv4Addr addr,
      const alias::AliasStore& aliases) const;

  // Hops strictly after the intersection, ending at the source.
  std::vector<net::Ipv4Addr> suffix_after(topology::HostId source,
                                          const Intersection& at) const;

  // Marks the intersected traceroute as useful (refresh keeps it) and
  // returns its age relative to `now`.
  util::SimClock::Micros touch(topology::HostId source, const Intersection& at,
                               util::SimClock::Micros now);

  // Snapshot of the source's traceroutes, taken under the stripe's shared
  // lock. Returned by value: a reference into the atlas would dangle (or
  // worse, be read mid-rebuild) the moment a concurrent refresh() clears
  // and re-measures the vector. Empty for unknown sources.
  std::vector<AtlasTraceroute> traceroutes(topology::HostId source) const;
  // Cheap size query (no snapshot copy) for budget/report code.
  std::size_t traceroute_count(topology::HostId source) const;
  std::size_t rr_index_size(topology::HostId source) const;
  // Q2 index contents, exposed so validation tooling and tests can assert
  // structural properties (every entry's suffix must reach the source).
  // Snapshot by value, same rationale as traceroutes().
  std::unordered_map<net::Ipv4Addr, Intersection> rr_index_entries(
      topology::HostId source) const;

 private:
  struct SourceAtlas {
    std::vector<AtlasTraceroute> traceroutes;
    // Exact traceroute hop address -> location. Open addressing: these two
    // are probed once per revealed hop on the engine's intersection path.
    util::FlatMap<net::Ipv4Addr, Intersection> hop_index;
    // Q2: RR-revealed address -> location.
    util::FlatMap<net::Ipv4Addr, Intersection> rr_index;
  };

  // One source's traceroutes, measured on a fan-out lane and waiting to be
  // installed.
  struct Measured {
    std::vector<AtlasTraceroute> traceroutes;
    util::SimClock::Micros duration = 0;  // The slowest traceroute.
  };
  // A source's Q2 index entries, in insertion order.
  using RrEntries = std::vector<std::pair<net::Ipv4Addr, Intersection>>;

  // The (re)build both build() and refresh() run: traces `probes[i]`
  // toward `sources[i]` for every i over the fan-out, then installs each
  // source in list order.
  void rebuild(std::span<const topology::HostId> sources,
               std::span<const std::vector<topology::HostId>> probes,
               std::size_t threads, const Stamp& stamp, bool is_refresh);
  // Probe phase: traceroutes from every probe host toward `source`. Takes
  // no lock; the caller owns `prober`.
  Measured measure(topology::HostId source,
                   std::span<const topology::HostId> probes,
                   probing::Prober& prober) const;
  // Q2 probe phase over a snapshot of the source's traceroutes.
  RrEntries measure_rr_index(topology::HostId source,
                             std::span<const AtlasTraceroute> traceroutes,
                             probing::Prober& prober) const;
  // The source's atlas slot, created when absent.
  SourceAtlas& slot_of(topology::HostId source);
  // The source's atlas slot; throws std::out_of_range when absent.
  SourceAtlas& existing_slot(topology::HostId source);
  void index_hops(SourceAtlas& atlas);

  // Lookup under sources_mu_ (shared). Returns nullptr when absent; the
  // pointer stays valid across later insertions (node-based map).
  const SourceAtlas* find_atlas(topology::HostId source) const;

  // Stripe guarding one source's SourceAtlas contents. Lock order:
  // sources_mu_ before a stripe; never two stripes at once.
  util::SharedMutex& stripe_of(topology::HostId source) const {
    return stripes_[util::splitmix64(source) % kStripes];
  }

  probing::Prober& prober_;
  const topology::Topology& topo_;
  // Atomic, not guarded: set_metrics() races benignly with lookups (the
  // handle is a pointer to registry-owned counters, themselves atomic).
  std::atomic<const AtlasMetrics*> metrics_{nullptr};
  mutable util::SharedMutex sources_mu_;
  static constexpr std::size_t kStripes = 16;
  mutable std::array<util::SharedMutex, kStripes> stripes_;
  // The map (key set) is guarded by sources_mu_; each value's *contents*
  // are guarded dynamically by stripe_of(source), which the static analysis
  // cannot express — the lint lock-order pass checks the acquisition order.
  std::unordered_map<topology::HostId, SourceAtlas> sources_
      REVTR_GUARDED_BY(sources_mu_);
};

// Q2's settle test (probing::Prober::rr_ping): `record` holds no slot after
// the probed hop's first stamp, because the hop is absent or stamped only
// last. Q2 indexes nothing from such a full record, answered or not.
bool lacks_reverse_slots(std::span<const net::Ipv4Addr> record,
                         net::Ipv4Addr probed);

// Greedy weighted max-coverage selection over a pool of traceroutes: the
// weight of an address is the summed distance-to-source over traceroutes
// containing it (covering far-from-source addresses saves more probing).
// Returns indices of the selected traceroutes, best first.
std::vector<std::size_t> greedy_optimal_selection(
    std::span<const AtlasTraceroute> pool, std::size_t k);

// Variant with the address weights computed from a different traceroute
// set — the "Optimal revtr" oracle of Fig 9a, which knows the reverse
// traceroutes that will be measured.
std::vector<std::size_t> greedy_optimal_selection(
    std::span<const AtlasTraceroute> pool, std::size_t k,
    std::span<const AtlasTraceroute> weight_pool);

// Savings metric of Appx D.2.1: the fraction of `path`'s hops (ordered
// destination->source) that an atlas covering `covered` short-circuits:
// from the earliest covered hop onward, everything is known.
double intersected_fraction(std::span<const net::Ipv4Addr> path,
                            const std::unordered_set<net::Ipv4Addr>& covered);

}  // namespace revtr::atlas
