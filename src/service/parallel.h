// Real parallel batch-campaign execution (§5.1, Fig 5c).
//
// RevtrService::run_campaign only *models* parallelism (simulated-time
// division). This driver runs a campaign on N genuine worker threads, the
// way the deployed system serves batched measurement requests. The design
// splits state into three tiers:
//
//   Per worker (no locks): a core::WorkerStack (private Network + Prober +
//   RevtrEngine) and a stats accumulator. Every worker's Network is seeded
//   from the campaign seed, and probe outcomes are pure functions of probe
//   content (stateless ECMP salt, endpoint-derived Paris flow ids), so a
//   request measures the same path on any worker.
//
//   Shared: one EngineCaches instance (lock-striped) wired into every worker
//   engine — any worker's RR probe or symmetry traceroute spares every
//   other worker those packets (Doubletree-style shared stop-set) — and one
//   sched::ProbeScheduler. Each worker multiplexes the requests it owns
//   through a core::RequestExecutor over that scheduler, pumping only the
//   demands its own requests submitted, on its own stack; a demand identical
//   to one in flight on any worker rides on that probe, and per-VP windows
//   and spoofed-RR cross-request batching apply (DESIGN.md §10). The
//   traceroute atlas and ingress plans are shared read-only during the
//   campaign (the driver pre-discovers every ingress plan so no worker
//   triggers an on-demand survey mid-campaign).
//
//   Merged at the barrier: per-worker CampaignStats/ProbeCounters combine
//   after every worker joins — never shared mutable counters.
//
// Determinism: per-request RNG seeds from (campaign seed, request index) make
// the measurement *set* — (destination, source, status, hops) — identical
// whether the campaign runs on 1 thread or N, provided network loss is off,
// and identical to RevtrEngine::measure() run request by request. Probe
// accounting legitimately differs: a request whose demand rode on another's
// in-flight probe records it in coalesced_probes instead of its issued-probe
// counters, and cache sharing depends on scheduling.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/revtr.h"
#include "core/worker_stack.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "service/service.h"
#include "topology/topology.h"

namespace revtr::service {

struct ParallelCampaignOptions {
  std::size_t workers = 4;
  std::uint64_t seed = 7;
  core::EngineConfig engine = core::EngineConfig::revtr2();
  sched::SchedOptions sched;

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
  // The shared scheduler's lifetime counters (probes demanded vs issued vs
  // coalesced, throttling, batching).
  sched::SchedulerStats sched;
};

class ParallelCampaignDriver {
 public:
  ParallelCampaignDriver(const core::StackDeps& deps,
                         ParallelCampaignOptions options);

  // Executes one campaign. Reentrant-unsafe: one run() at a time.
  ParallelCampaignReport run(
      std::span<const std::pair<topology::HostId, topology::HostId>> pairs);

  // Surveys every prefix that has no ingress plan yet
  // (IngressDiscovery::discover_all, fanned out over the process's CPUs),
  // so workers never hit the on-demand discovery path concurrently. run()
  // calls it first; a caller that times run() can call it beforehand, and
  // the plans come out the same (the survey's rng derives from the seed).
  void precompute_ingress_plans();

 private:

  core::StackDeps deps_;
  ParallelCampaignOptions options_;
};

}  // namespace revtr::service
