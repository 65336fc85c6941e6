// Real parallel batch-campaign execution (§5.1, Fig 5c).
//
// RevtrService::run_campaign only *models* parallelism (simulated-time
// division). This driver runs a campaign on N genuine worker threads, the
// way the deployed system serves batched measurement requests. The design
// splits state into three tiers:
//
//   Per worker (no locks): a private Network + Prober + RevtrEngine +
//   SimClock + stats accumulator. Every worker's Network is seeded with the
//   same campaign-derived seed, and probe outcomes are pure functions of
//   probe content (stateless ECMP salt, endpoint-derived Paris flow ids), so
//   a request measures the same path on any worker.
//
//   Shared, lock-striped (read-mostly): one EngineCaches instance wired into
//   every worker engine — any worker's RR probe or symmetry traceroute
//   spares every other worker those packets (Doubletree-style shared
//   stop-set). The traceroute atlas and ingress plans are shared read-only
//   during the campaign (the driver pre-discovers every ingress plan so no
//   worker triggers an on-demand survey mid-campaign).
//
//   Merged at the barrier: per-worker CampaignStats/ProbeCounters combine
//   after every future resolves — never shared mutable counters.
//
// Determinism: per-request engine RNG reseeding from (campaign seed, request
// index) makes the measurement *set* — (destination, source, status, hops) —
// identical whether the campaign runs on 1 thread or N, provided network
// loss is off. Timing and probe totals legitimately differ: cache sharing
// depends on scheduling.
//
// Pacing: `pacing_scale` holds each worker slot for real wall-clock time
// proportional to the request's simulated latency. The deployment's
// throughput is latency-bound — workers spend most of a request inside the
// 10 s spoofed-batch timeouts, not on CPU — and pacing models exactly that,
// which is what makes N workers faster in wall-clock terms even on one core
// (bench/bench_parallel_campaign.cpp).
//
// Engine modes: kBlocking runs one engine.measure() per worker slot, the
// request occupying its worker for its whole latency. kStaged multiplexes
// *all* of a worker's requests through a core::RequestExecutor over one
// shared sched::ProbeScheduler: each worker loop pumps only the demands its
// own requests submitted, executing them on its own stack, then resumes
// its requests whose outcome sets are complete. A demand identical to one
// in flight on any worker rides on that probe; per-VP windows and
// spoofed-RR cross-request batching apply (DESIGN.md §10). Results are byte-identical
// to blocking mode modulo probe accounting: a coalesced request records the
// demand in coalesced_probes instead of its issued-probe counters. In staged
// mode pacing holds the worker per pump *round* (probes in a round are
// concurrent), not per request.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "asmap/asmap.h"
#include "atlas/atlas.h"
#include "core/revtr.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/forwarding.h"
#include "sched/scheduler.h"
#include "service/service.h"
#include "topology/topology.h"
#include "vpselect/ingress.h"

namespace revtr::service {

// Everything a worker measurement stack hangs off. The atlas and ingress
// survey must already be built/buildable through their own (control-plane)
// prober; worker probers are created internally.
struct CampaignDeps {
  const topology::Topology& topo;
  const routing::ForwardingPlane& plane;
  atlas::TracerouteAtlas& atlas;
  vpselect::IngressDiscovery& ingress;
  const asmap::IpToAs& ip2as;
  const asmap::AsRelationships& relationships;
};

enum class EngineMode {
  kBlocking,  // One engine.measure() call per worker slot.
  kStaged,    // Resumable RequestTasks multiplexed over a ProbeScheduler.
};

struct ParallelCampaignOptions {
  std::size_t workers = 4;
  std::uint64_t seed = 7;
  core::EngineConfig engine = core::EngineConfig::revtr2();
  // Real seconds each worker slot is held per simulated second of request
  // latency. 0 disables pacing (tests); the scaling bench uses ~1e-3.
  double pacing_scale = 0.0;
  EngineMode mode = EngineMode::kBlocking;
  sched::SchedOptions sched;  // Staged mode only.

  // --- Observability (all optional; nullptr/0 = off). ---
  // Registry shared by every worker stack: probe and engine counters are
  // registered once and shard internally per worker thread, so the hot path
  // stays a relaxed atomic add. The report carries a snapshot taken at the
  // barrier, after all workers joined (merge-at-barrier).
  obs::MetricsRegistry* metrics = nullptr;
  // Every trace_sample_every-th request (by input index, so the sampled set
  // is scheduling-independent) records a span tree into trace_sink.
  // trace_sample_every == 0 disables tracing.
  obs::TraceSink* trace_sink = nullptr;
  std::size_t trace_sample_every = 0;
};

struct ParallelCampaignReport {
  // One entry per input pair, in input order regardless of scheduling.
  std::vector<core::ReverseTraceroute> results;
  CampaignStats stats;          // Merged across workers at the barrier.
  double wall_seconds = 0;      // Real elapsed time of run().
  std::vector<double> worker_busy_seconds;  // Simulated, per worker.
  // Present when options.metrics was set: registry snapshot taken after the
  // barrier, so every worker's sharded counters are fully merged.
  std::optional<obs::MetricsSnapshot> metrics;
  // Staged mode only: the shared scheduler's lifetime counters (probes
  // demanded vs issued vs coalesced, throttling, batching).
  std::optional<sched::SchedulerStats> sched;
};

class ParallelCampaignDriver {
 public:
  ParallelCampaignDriver(const CampaignDeps& deps,
                         ParallelCampaignOptions options);

  // Executes one campaign. Reentrant-unsafe: one run() at a time.
  ParallelCampaignReport run(
      std::span<const std::pair<topology::HostId, topology::HostId>> pairs);

 private:
  // Surveys every prefix that has no ingress plan yet
  // (IngressDiscovery::discover_all, fanned out over the process's CPUs),
  // so workers never hit the on-demand discovery path concurrently.
  void precompute_ingress_plans();

  CampaignDeps deps_;
  ParallelCampaignOptions options_;
};

}  // namespace revtr::service
