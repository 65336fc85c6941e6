// The Reverse Traceroute engine: the paper's primary contribution.
//
// Implements the Fig 2 control flow. Starting from the destination D, the
// engine repeatedly extends the path toward the source S:
//   1. If the current hop intersects a traceroute in S's atlas (exactly, via
//      the Q2 RR index, or — revtr 1.0 style — via external alias data),
//      adopt the traceroute's suffix and finish.
//   2. Otherwise try Record Route: a direct RR ping from S, then spoofed RR
//      pings from the vantage points chosen by Q3 ingress selection
//      (revtr 2.0) or by the revtr 1.0 set-cover order, in batches of 3,
//      each batch charging the 10-second spoof timeout (§5.2.4).
//   3. Optionally (revtr 1.0 / Q4 ablation) test traceroute adjacencies of
//      the current hop with IP timestamp prespec probes.
//   4. Otherwise run a forward traceroute to the current hop and assume the
//      last link is symmetric — unconditionally for revtr 1.0, only when the
//      link is intradomain for revtr 2.0 (Q5, §4.4); an interdomain link
//      aborts the measurement instead of risking a wrong path.
//
// Config presets reproduce the Table 4 ablation chain:
//   revtr 2.0 = revtr 1.0 + ingress + cache - TS + RR atlas,
// and revtr2() adds one extension step, last-hop symmetry traces.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alias/alias.h"
#include "asmap/asmap.h"
#include "atlas/atlas.h"
#include "core/adjacency.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probing/prober.h"
#include "topology/topology.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "util/striped_map.h"
#include "vpselect/ingress.h"

namespace revtr::core {

// Where each reverse hop came from; results carry full provenance so users
// can judge trust hop by hop (the operational requirement of Insight 1.10).
enum class HopSource : std::uint8_t {
  kDestination,         // The starting point D.
  kRecordRoute,         // Direct RR ping from the source.
  kSpoofedRecordRoute,  // Spoofed RR ping from a vantage point.
  kTimestamp,           // tsprespec-confirmed adjacency.
  kAtlasIntersection,   // Suffix of an atlas traceroute.
  kAssumedSymmetric,    // Penultimate hop of a forward traceroute.
  kSuspiciousGap,       // Flagged "*": a hop is probably missing here.
};

std::string to_string(HopSource source);

struct ReverseHop {
  net::Ipv4Addr addr;  // Unspecified for kSuspiciousGap.
  HopSource source = HopSource::kDestination;

  bool operator==(const ReverseHop&) const = default;
};

// Reverse-path hop storage, flattened structure-of-arrays (DESIGN.md §13):
// parallel address and provenance arrays instead of a vector of ReverseHop.
// The hot consumer is RequestTask::already_in_path — a linear scan per
// revealed hop — which now walks a dense 4-byte address array. The API
// stays hop-shaped: iteration and operator[] materialize ReverseHop values,
// so range-for call sites and the serializer are unchanged (and the JSON
// encoding is byte-identical, pinned by serialize_test's golden test).
//
// Accessors return *const values*, not references: assigning through a
// temporary (hops.front().source = ...) would silently mutate nothing, and
// the const qualifier turns that mistake into a compile error. Mutation
// goes through set_source()/set_addr().
class HopList {
 public:
  std::size_t size() const noexcept { return addrs_.size(); }
  bool empty() const noexcept { return addrs_.empty(); }
  void reserve(std::size_t n) {
    addrs_.reserve(n);
    sources_.reserve(n);
  }
  void clear() noexcept {
    addrs_.clear();
    sources_.clear();
  }

  void push_back(ReverseHop hop) {
    addrs_.push_back(hop.addr);
    sources_.push_back(hop.source);
  }
  // Inserts before position `index` (the finalize_flags "*" insertion).
  void insert(std::size_t index, ReverseHop hop) {
    REVTR_CHECK(index <= addrs_.size());
    addrs_.insert(addrs_.begin() + static_cast<std::ptrdiff_t>(index),
                  hop.addr);
    sources_.insert(sources_.begin() + static_cast<std::ptrdiff_t>(index),
                    hop.source);
  }

  const ReverseHop operator[](std::size_t index) const {
    return ReverseHop{addrs_[index], sources_[index]};
  }
  const ReverseHop front() const { return (*this)[0]; }
  const ReverseHop back() const { return (*this)[addrs_.size() - 1]; }

  void set_source(std::size_t index, HopSource source) {
    sources_[index] = source;
  }
  void set_addr(std::size_t index, net::Ipv4Addr addr) {
    addrs_[index] = addr;
  }

  // Dense columns for scan-heavy consumers (already_in_path, ip_hops).
  std::span<const net::Ipv4Addr> addrs() const noexcept { return addrs_; }
  std::span<const HopSource> sources() const noexcept { return sources_; }

  class const_iterator {
   public:
    using value_type = ReverseHop;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const HopList* list, std::size_t index)
        : list_(list), index_(index) {}
    const ReverseHop operator*() const { return (*list_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator copy = *this;
      ++index_;
      return copy;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    const HopList* list_ = nullptr;
    std::size_t index_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, addrs_.size()); }

  bool operator==(const HopList&) const = default;

 private:
  std::vector<net::Ipv4Addr> addrs_;
  std::vector<HopSource> sources_;
};

enum class RevtrStatus : std::uint8_t {
  kComplete,
  kAbortedInterdomainSymmetry,  // Q5: refused to guess (revtr 2.0 only).
  kUnreachable,                 // No technique could make progress.
};

std::string to_string(RevtrStatus status);

struct ReverseTraceroute {
  topology::HostId destination = topology::kInvalidId;
  topology::HostId source = topology::kInvalidId;
  RevtrStatus status = RevtrStatus::kUnreachable;
  HopList hops;  // destination ... source order (SoA storage).

  util::SimSpan span;                // Simulated wall-clock of the request.
  probing::ProbeCounters probes;     // Online packets spent on this request.
  // Background packets triggered by this request (on-demand ingress
  // discovery); Table 4 accounts these separately from the online budget.
  probing::ProbeCounters offline_probes;
  // Demands answered by another request's in-flight duplicate under the
  // probe scheduler (DESIGN.md §10): the path benefited, but no wire probe
  // was issued — `probes` counts uniquely-issued packets only. Always 0 on
  // the blocking path.
  std::uint64_t coalesced_probes = 0;
  std::size_t spoofed_batches = 0;   // Each charged the 10 s timeout.
  std::size_t symmetry_assumptions = 0;
  bool used_interdomain_symmetry = false;
  bool has_suspicious_gap = false;   // "*" inserted (§5.2.2 flagging).
  bool has_private_hops = false;
  // Appx E: a redundant re-probe observed a different next hop somewhere
  // on this path (possible destination-based-routing violation).
  bool dbr_suspect = false;
  bool used_stale_traceroute = false;
  util::SimClock::Micros intersected_age_us = 0;

  bool complete() const noexcept { return status == RevtrStatus::kComplete; }
  // Concrete IP hops in order (skips "*").
  std::vector<net::Ipv4Addr> ip_hops() const;
};

// The engine's fixed parameters; every preset uses the same values.
inline constexpr std::size_t kMaxTsAdjacencies = 10;  // Per stuck hop.
inline constexpr std::size_t kMaxReverseHops = 64;
// Empirical wait for a spoofed batch's replies (§5.2.4).
inline constexpr util::SimClock::Micros kSpoofBatchTimeout =
    10 * util::SimClock::kSecond;
// Cached RR and traceroute results are reused this long.
inline constexpr util::SimClock::Micros kCacheTtl = util::SimClock::kDay;

struct EngineConfig {
  bool use_ingress_selection = true;  // Q3 (else revtr 1.0 VP order).
  bool use_cache = true;              // Reuse RR/traceroute results 24 h.
  bool use_timestamp = false;         // Q4.
  bool use_rr_atlas = true;           // Q2 intersection index.
  bool allow_interdomain_symmetry = false;  // Q5 (revtr 1.0: true).
  // revtr 1.0 pressed on from the last responsive traceroute hop even when
  // the traceroute never reached the current hop — part of how it returned
  // an answer for 100% of requests (and part of why some were wrong).
  bool assume_from_unreachable_traceroute = false;
  bool flag_suspicious_links = true;        // §5.2.2 "*" insertion.
  // Appx E option: re-probe each RR-revealed hop from a second vantage
  // point and flag the measurement if the next reverse hop disagrees —
  // catching destination-based-routing violations at the cost of extra
  // spoofed probes.
  bool verify_destination_based_routing = false;
  // Symmetry traceroutes as last-hop scans (DESIGN.md §16): the same
  // `reached` and penultimate hop as a full Paris trace from about half the
  // packets. An extension beyond the paper, so Table 4's paper rows turn it
  // off. Incompatible with assume_from_unreachable_traceroute, which reads
  // the last hop of a trace that fell short — a scan never learns it.
  bool use_last_hop_traces = true;

  static EngineConfig revtr1();
  static EngineConfig revtr2();
  std::string name() const;
};

// Cached outcome of the RR technique at one (hop, source) key: every reveal
// the stage appended, in order — the direct RR reveal, then each spoofed
// round — up to the one that made progress. Each reveal is a pure function
// of the key (content-addressed probes over a fixed attempt plan), so a
// replay that walks the rounds and stops at the first that progresses
// appends what a live measurement of the key would have appended, with the
// same provenance, whichever request filled the entry. Replays must keep
// the original provenance: a direct-RR hop must not resurface labelled as
// spoofed (Insight 1.10 — users judge trust hop by hop).
struct RrCacheEntry {
  struct Hop {
    net::Ipv4Addr addr;
    HopSource source = HopSource::kSpoofedRecordRoute;  // Of its round.
    bool ends_round = false;  // Last hop of its round's reveal.
  };
  std::vector<Hop> hops;  // The rounds' reveals, concatenated in order.
  util::SimClock::Micros expires_at = 0;
};

// Cached outcome of the symmetry-assumption traceroute at one key.
struct TrCacheEntry {
  std::optional<net::Ipv4Addr> penultimate;
  bool reached = false;
  util::SimClock::Micros expires_at = 0;
};

// The engine's probe-result caches, lock-striped so one instance can be
// shared by every engine of a parallel campaign: any worker's RR probe or
// symmetry traceroute saves every other worker the packets (the Doubletree
// shared-stop-set idea applied to reverse traceroute).
struct EngineCaches {
  util::StripedMap<RrCacheEntry> rr;
  util::StripedMap<TrCacheEntry> tr;

  void clear() {
    rr.clear();
    tr.clear();
  }
};

// Registry handles for the engine's per-request and per-stage accounting
// (DESIGN.md §9). Resolved once at construction; shared across all worker
// engines of a campaign (the counters are internally sharded).
struct EngineMetrics {
  explicit EngineMetrics(obs::MetricsRegistry& registry);

  // revtr_requests_total{status=...}
  obs::Counter* requests_complete;
  obs::Counter* requests_aborted;
  obs::Counter* requests_unreachable;

  // revtr_engine_stage_total{stage=...,outcome=...}
  obs::Counter* atlas_hit;
  obs::Counter* atlas_miss;
  obs::Counter* rr_cache_replay;
  obs::Counter* rr_direct_hit;
  obs::Counter* rr_spoofed_hit;
  obs::Counter* rr_miss;
  obs::Counter* rr_ingress_discovery;
  obs::Counter* ts_hit;
  obs::Counter* ts_miss;
  obs::Counter* ts_skipped;
  obs::Counter* symmetry_cached;
  obs::Counter* symmetry_extended;
  obs::Counter* symmetry_aborted;
  obs::Counter* symmetry_stuck;

  obs::Counter* dbr_suspects;

  obs::Histogram* latency_us;
  obs::Histogram* request_probes;
  obs::Histogram* request_hops;
  obs::Histogram* spoofed_batches;
};

class RequestTask;

class RevtrEngine {
 public:
  RevtrEngine(probing::Prober& prober, const topology::Topology& topo,
              atlas::TracerouteAtlas& atlas,
              vpselect::IngressDiscovery& ingress, const asmap::IpToAs& ip2as,
              const asmap::AsRelationships& relationships,
              EngineConfig config, std::uint64_t seed = 99);

  // revtr 1.0-style atlas intersection through an alias dataset (used when
  // the Q2 RR index is disabled). Not owned; may be nullptr.
  void set_alias_store(const alias::AliasStore* aliases) {
    aliases_ = aliases;
  }
  // Adjacency source for the timestamp technique. Empty = technique skipped.
  void set_adjacency_provider(AdjacencyProvider provider) {
    adjacencies_ = std::move(provider);
  }

  // Measures the reverse path from `destination` back to `source`,
  // advancing `clock` by the simulated time the measurement takes.
  // Blocking executor over the staged machine: drives a RequestTask to
  // completion, fulfilling every demand set inline (core/request_task.h).
  ReverseTraceroute measure(topology::HostId destination,
                            topology::HostId source, util::SimClock& clock);

  // Staged entry point: a resumable task for this request, driven by a
  // RequestExecutor (core/request_task.h). `clock`/`rng`/`trace` belong to
  // the request and must outlive the task; multiplexed requests need their
  // own clock and RNG stream each (the campaign driver seeds per request
  // from (campaign seed, index), as a sequential measure() loop does via
  // reseed()).
  std::unique_ptr<RequestTask> start_request(topology::HostId destination,
                                             topology::HostId source,
                                             util::SimClock& clock,
                                             util::Rng& rng,
                                             obs::Trace* trace = nullptr);

  const EngineConfig& config() const noexcept { return config_; }
  void clear_caches();

  // Replaces this engine's caches with a (possibly shared) instance. The
  // parallel campaign driver points every worker engine at one EngineCaches
  // so discoveries propagate across workers.
  void set_shared_caches(std::shared_ptr<EngineCaches> caches) {
    REVTR_CHECK(caches != nullptr);
    caches_ = std::move(caches);
  }

  // Metrics handles; nullptr (default) = no instrumentation. The handles
  // must outlive the engine's use of them.
  void set_metrics(const EngineMetrics* metrics) noexcept {
    metrics_ = metrics;
  }
  // Trace for the *next* measure() call(s); nullptr detaches. The engine
  // never owns the trace — the campaign driver attaches a fresh one per
  // sampled request and publishes it after the measurement returns.
  void set_trace(obs::Trace* trace) noexcept { trace_ = trace; }

  // Restarts the engine's private RNG stream. A sequential measure() loop
  // reseeds per request from (campaign seed, request index) to draw the
  // streams the campaign driver gives its requests.
  void reseed(std::uint64_t seed) noexcept { rng_.reseed(seed); }

  // Extracts the reverse hops that follow `current`'s stamp in an RR reply,
  // using the same double-stamp/loop fallbacks as ingress discovery.
  // Exposed for unit tests.
  static std::vector<net::Ipv4Addr> extract_reverse_hops(
      std::span<const net::Ipv4Addr> slots, net::Ipv4Addr current);

 private:
  // The staged machine is the engine's control flow; it reads the
  // collaborators and config directly.
  friend class RequestTask;

  probing::Prober& prober_;
  const topology::Topology& topo_;
  atlas::TracerouteAtlas& atlas_;
  vpselect::IngressDiscovery& ingress_;
  const asmap::IpToAs& ip2as_;
  const asmap::AsRelationships& relationships_;
  EngineConfig config_;
  util::Rng rng_;

  const alias::AliasStore* aliases_ = nullptr;
  AdjacencyProvider adjacencies_;
  const EngineMetrics* metrics_ = nullptr;
  obs::Trace* trace_ = nullptr;

  std::shared_ptr<EngineCaches> caches_;
};

}  // namespace revtr::core
