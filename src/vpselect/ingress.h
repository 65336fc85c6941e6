// Record Route vantage point selection (design question Q3, §4.3).
//
// Offline, the system probes two destinations in every BGP prefix from every
// vantage point with RR pings and extracts *ingress candidates*: addresses
// appearing on both paths, up to and including the first address inside the
// destination prefix. Two heuristics rescue prefixes whose destinations do
// not stamp RR packets (Appx C): the double-stamp rule and the loop rule.
// A greedy set cover then picks ingresses that cover the vantage points;
// each ingress keeps its VPs ranked by RR distance, closest first.
//
// Online, revtr 2.0 probes a destination only from the closest VP per
// ingress, in batches of 3, ordered by ingress coverage — this is the main
// source of the paper's probe savings (Insight 1.8, Table 4).
//
// The module also implements the evaluation baselines of §5.3: the revtr 1.0
// per-prefix set cover, the Global ranking, and the Optimal (closest-VP)
// oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "obs/metrics.h"
#include "probing/prober.h"
#include "topology/topology.h"
#include "util/annotate.h"
#include "util/rng.h"

namespace revtr::vpselect {

// Result of one offline RR probe from a VP toward a destination.
struct RrReach {
  bool responded = false;
  // 1-based number of RR slots consumed to reach the destination prefix
  // (the "RR distance"); -1 when the probe shows no evidence of reaching.
  int reach_distance = -1;
  std::vector<net::Ipv4Addr> slots;

  bool in_range() const noexcept { return reach_distance >= 0; }
};

// Analyzes one RR reply against the destination prefix, applying the
// Appx C heuristics. Exposed for direct unit testing.
//  * direct: a slot address inside the prefix.
//  * double-stamp: equal adjacent slots (destination alias stamped twice).
//  * loop: pattern a ... a; the packet reached the destination in between.
struct ReachAnalysis {
  int reach_slot = -1;  // Index of the reach point, -1 if unreached.
  enum class Via : std::uint8_t { kNone, kDirect, kDoubleStamp, kLoop } via =
      Via::kNone;
  // Candidate ingress addresses: slots up to and including the reach point
  // (for loops: the loop body).
  std::vector<net::Ipv4Addr> candidates;
};

ReachAnalysis analyze_reach(std::span<const net::Ipv4Addr> slots,
                            const net::Ipv4Prefix& prefix,
                            bool enable_double_stamp = true,
                            bool enable_loop = true);

struct VpDistance {
  topology::HostId vp = topology::kInvalidId;
  int distance = 0;  // RR slots to the ingress (or to the destination).

  bool operator==(const VpDistance&) const = default;
};

struct Ingress {
  net::Ipv4Addr addr;
  std::vector<VpDistance> vps;  // Closest first.

  bool operator==(const Ingress&) const = default;
};

struct PrefixPlan {
  topology::PrefixId prefix = topology::kInvalidId;
  // Chosen ingresses, ordered by number of covering VPs (descending).
  std::vector<Ingress> ingresses;
  // Per-VP summary used by the fallback path and the §5.3 baselines.
  struct VpInfo {
    topology::HostId vp = topology::kInvalidId;
    int dist_d1 = -1;
    int dist_d2 = -1;

    bool in_range() const noexcept { return dist_d1 >= 0 || dist_d2 >= 0; }
    double mean_distance() const noexcept {
      if (dist_d1 >= 0 && dist_d2 >= 0) return (dist_d1 + dist_d2) / 2.0;
      return dist_d1 >= 0 ? dist_d1 : dist_d2;
    }
    bool operator==(const VpInfo&) const = default;
  };
  std::vector<VpInfo> vp_info;

  bool operator==(const PrefixPlan&) const = default;
  bool has_ingresses() const noexcept { return !ingresses.empty(); }
  // VPs within 8 RR hops ranked by mean distance (fallback ordering).
  std::vector<VpDistance> fallback_ranking() const;
};

struct DiscoveryOptions {
  bool enable_double_stamp = true;
  bool enable_loop = true;
};

// The survey's settle test (Prober::rr_ping): analyze_reach finds no reach
// point in `record`. The survey keeps nothing from a full record that has
// none, whether or not its reply comes home.
bool lacks_reach_point(std::span<const net::Ipv4Addr> record,
                       const net::Ipv4Prefix& prefix,
                       const DiscoveryOptions& options);

// Registry handles for the offline ingress-survey path.
struct IngressMetrics {
  explicit IngressMetrics(obs::MetricsRegistry& registry);

  obs::Counter* surveys;           // revtr_ingress_surveys_total
  obs::Gauge* plans;               // Prefix plans currently held.
  obs::Counter* prefixes_covered;  // Surveys that found >= 1 ingress.
};

class IngressDiscovery {
 public:
  using Options = DiscoveryOptions;

  IngressDiscovery(probing::Prober& prober, const topology::Topology& topo,
                   Options options = Options());

  // nullptr (default) = no instrumentation; handles must outlive their use.
  void set_metrics(const IngressMetrics* metrics) noexcept {
    metrics_.store(metrics, std::memory_order_release);
  }

  // Runs the offline survey for one prefix; uses the prefix's first
  // RR-responsive hosts as survey destinations (callers can exclude hosts,
  // e.g. the evaluation destination, via `exclude`). Re-discovering an
  // already-surveyed prefix re-runs the survey and replaces its plan.
  //
  // A survey has two phases: the probe phase RR-pings the destinations
  // from every VP (its probes settle by lacks_reach_point), intersects
  // each VP's ingress candidates and indexes them for the set cover; the
  // commit phase runs the greedy set cover (the only consumer of `rng`)
  // and publishes the plan and the revtr_ingress_* metrics.
  //
  // `offline`, when set, receives what the survey sent: the discovery
  // prober's offline-counter change, taken under the lock. A caller probing
  // on another prober (a campaign or daemon worker) has no other way to
  // see the survey it triggered.
  //
  // Thread safety: discover() runs both phases on the discovery prober
  // under an internal mutex; plan_for() takes it shared, so concurrent
  // campaign workers can read plans freely. Both return an immutable
  // snapshot: a re-discovery of the same prefix builds a fresh plan and
  // swaps the map entry, so holders of an earlier snapshot keep reading a
  // consistent (if stale) plan instead of racing an in-place rebuild.
  std::shared_ptr<const PrefixPlan> discover(
      topology::PrefixId prefix, std::span<const topology::HostId> vps,
      util::Rng& rng, std::span<const topology::HostId> exclude = {},
      probing::ProbeCounters* offline = nullptr);

  // Surveys every prefix of `prefixes` (no exclusions). The plans, the
  // draws taken from `rng` and the discovery prober's counters and
  // packet-id sequence come out exactly as from calling discover() on each
  // prefix in order, for any `threads`.
  //
  // The probe phases fan out over up to `threads` threads, each on a
  // private copy of the discovery prober (probing::offline_fan_out, which
  // also holds the serial rule: loss, an observer or a fault policy keeps
  // the survey on the discovery prober). Finished surveys are committed
  // under the internal mutex strictly in prefix order, so plan_for() may
  // run alongside. When it surveys more than one prefix it first builds
  // every routing table (ForwardingPlane::build_all over `threads`).
  //
  // Thread safety: the fan-out owns the discovery prober for the call, so
  // it must not overlap discover() or another discover_all(); start-up and
  // the campaign driver run it before any worker exists.
  void discover_all(std::span<const topology::PrefixId> prefixes,
                    std::span<const topology::HostId> vps, util::Rng& rng,
                    std::size_t threads);

  std::shared_ptr<const PrefixPlan> plan_for(topology::PrefixId prefix) const;

  const Options& options() const noexcept { return options_; }

 private:
  // One prefix's probe-phase outcome, ready for the set cover.
  struct Survey;

  // Probe phase: picks the destinations, RR-pings them from every VP
  // through `prober` and builds the set cover's index. Takes no lock; the
  // caller owns `prober`.
  Survey probe(topology::PrefixId prefix,
               std::span<const topology::HostId> vps,
               std::span<const topology::HostId> exclude,
               probing::Prober& prober) const;
  // Commit phase: set cover, then publication of the plan and metrics.
  std::shared_ptr<const PrefixPlan> commit_locked(Survey survey,
                                                  util::Rng& rng)
      REVTR_REQUIRES(mu_);

  probing::Prober& prober_;
  const topology::Topology& topo_;
  const Options options_;
  // Atomic, not guarded: set_metrics() races benignly with surveys (the
  // handle is a pointer to registry-owned counters, themselves atomic).
  std::atomic<const IngressMetrics*> metrics_{nullptr};
  mutable util::SharedMutex mu_;
  std::unordered_map<topology::PrefixId, std::shared_ptr<const PrefixPlan>>
      plans_ REVTR_GUARDED_BY(mu_);
};

// One (vp, expected ingress) probing attempt in the online plan.
struct Attempt {
  topology::HostId vp = topology::kInvalidId;
  net::Ipv4Addr expected_ingress;  // Unspecified for fallback attempts.
  std::size_t ingress_rank = 0;    // Which ingress this attempt belongs to.
};

// Flattens a PrefixPlan into the ordered attempt list the engine batches:
// round-robin over ingresses (by coverage), up to `max_per_ingress` backup
// VPs each; falls back to the mean-distance ranking when no ingresses.
std::vector<Attempt> attempt_plan(const PrefixPlan& plan,
                                  std::size_t max_per_ingress = 5);

// --- §5.3 baselines -------------------------------------------------------

// revtr 1.0: per prefix, order VPs by how many of the prefix's surveyed
// destinations they can reach within RR range (greedy set cover), then try
// them all in that order.
std::vector<topology::HostId> revtr1_vp_order(const PrefixPlan& plan);

// Global: one ranking for all prefixes — VPs ordered by the number of
// surveyed prefixes they are in range of.
std::vector<topology::HostId> global_vp_order(
    std::span<const PrefixPlan* const> plans);

// Optimal oracle: the closest in-range VP for this prefix (by mean
// distance), or nullopt when no VP is in range.
std::optional<VpDistance> optimal_vp(const PrefixPlan& plan);

}  // namespace revtr::vpselect
