// Async probe scheduling with cross-request coalescing (DESIGN.md §10).
//
// The staged engine (core::RequestTask) never touches the Prober. Each stage
// yields a *demand set* — the probes it needs before it can resume — and
// suspends. This layer turns demand sets from many in-flight requests into
// wire probes. It carries wire probes only: a demand is a probing::ProbeSpec,
// and offline work (the on-demand ingress survey) runs inside the request.
//
//   * Coalescing: two demands with identical content (same probe type,
//     vantage point, target, spoof source, prespec list, trace scope)
//     share one wire probe while the first is queued *or executing*; the
//     outcome fans out to every waiter. The paper's RR-atlas exists to
//     avoid re-measuring what another request already learned — coalescing
//     applies the same idea at in-flight granularity.
//   * Per-VP windows: at most `vp_window` probes issue from one vantage
//     point per pump round, plus a token bucket refilled every round, so no
//     VP is hammered no matter how many requests want it (§5.2.4's rate
//     concerns). Deferred demands stay queued; refill guarantees progress.
//   * Spoofed-RR batching: spoofed demands that expect the same ingress are
//     issued in the paper's 3-probe batches *across* requests (§4.3) — all
//     that one executor claims in a round — not just within one; batching
//     changes issue order and the batch metric only — each request still
//     charges its own spoof-batch timeout.
//
// Determinism: simulated probe outcomes are content-addressed (stateless
// ECMP salt, endpoint-derived flow ids — DESIGN.md §8), so a demand answered
// by someone else's in-flight duplicate resolves to exactly the outcome the
// waiter would have measured itself. That is what makes staged results
// byte-identical to the blocking path (pinned by tests/concurrency_test.cpp)
// and is re-checked adversarially by invariant I7 over the SchedulerAudit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "obs/metrics.h"
#include "probing/prober.h"
#include "probing/transport.h"
#include "topology/topology.h"
#include "util/annotate.h"
#include "util/flat_map.h"
#include "util/sim_clock.h"

namespace revtr::sched {

// One probe a request stage needs before it can resume: the wire-complete
// probing::ProbeSpec — everything the wire probe depends on, which is what
// makes the coalescing key sound — plus batch_ingress, which only schedules
// and never crosses the transport. Set `type` explicitly: ProbeSpec defaults
// it to kPing.
struct ProbeDemand : probing::ProbeSpec {
  // Spoofed-RR only: the ingress this attempt expects, used to group
  // same-ingress demands from different requests into one wire batch.
  net::Ipv4Addr batch_ingress;

  // Content hash: demands with equal keys are satisfied by one wire probe.
  // A last-hop scan and a full trace answer different questions, so the
  // trace scope is part of the key.
  std::uint64_t coalesce_key() const;
};

// The resolved outcome of one demand: the transport's probing::ProbeReply
// plus the scheduler's fan-out bookkeeping. A coalesced copy reports the
// issuing probe's packets but is not charged again.
struct ProbeOutcome : probing::ProbeReply {
  // True when this demand was answered by another request's in-flight
  // duplicate: no wire probe was issued for it.
  bool coalesced = false;

  // Content digest for the I7 audit: every fan-out copy of one issued probe
  // must digest identically.
  std::uint64_t digest() const;
};

// Executes one demand synchronously. The only place outside the simulator
// where probes are issued on behalf of the engine — src/core/ stage code is
// lint-forbidden from calling the Prober directly (revtr_lint
// core-probe-issue), so the blocking executor inside RevtrEngine::measure()
// funnels through here too. The transport overload is the seam; the Prober
// overload wraps it in a LocalProbeTransport (bit-for-bit the old behavior).
ProbeOutcome execute_demand(probing::ProbeTransport& transport,
                            const ProbeDemand& demand);
ProbeOutcome execute_demand(probing::Prober& prober, const ProbeDemand& demand);

struct SchedOptions {
  // Max wire probes issued from one vantage point per pump round.
  std::size_t vp_window = 64;
  // Token bucket per VP: refilled by `vp_tokens_per_round` each round up to
  // `vp_token_burst` whole tokens. Rates below 1 are legal — the scheduler
  // accumulates them in fixed point, so e.g. 0.25 issues one probe every
  // fourth round with no float drift. Non-positive rates clamp to 1 and the
  // burst clamps to >= the refill so every queued demand eventually issues
  // (liveness).
  double vp_tokens_per_round = 256;
  std::uint32_t vp_token_burst = 1024;
  bool coalesce = true;
};

// Wire batch size for spoofed-RR demands that expect the same ingress: the
// paper's batch (§4.3).
inline constexpr std::size_t kSpoofBatchSize = 3;

// Registry handles for the scheduler; resolved once, shared by all pumps.
struct SchedMetrics {
  explicit SchedMetrics(obs::MetricsRegistry& registry);

  obs::Counter* demanded;      // revtr_sched_probes_demanded_total
  obs::Counter* issued;        // revtr_sched_probes_issued_total
  obs::Counter* coalesced;     // revtr_probes_coalesced_total
  obs::Counter* throttled;     // revtr_sched_vp_throttled_total
  obs::Counter* spoof_batches; // revtr_sched_spoof_batches_total
  obs::Counter* parks;         // revtr_sched_parks_total
  obs::Gauge* queue_depth;     // revtr_sched_queue_depth
};

// Plain snapshot of the scheduler's lifetime counters, for reports/benches.
struct SchedulerStats {
  std::uint64_t demanded = 0;
  std::uint64_t issued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t throttled = 0;
  std::uint64_t wire_batches = 0;  // Spoofed-RR batches put on the wire.
  std::uint64_t rounds = 0;
  std::uint64_t max_queue_depth = 0;
  // Remote dispatch (distributed controller mode, DESIGN.md §15).
  std::uint64_t reassigned = 0;      // Assignments requeued off dead agents.
  std::uint64_t stale_results = 0;   // Results for already-requeued tickets.
  std::uint64_t agents_expired = 0;  // Agents detached for missed heartbeats.
};

// Raw facts for invariant I7 (analysis::check_scheduler): every issued wire
// probe and every coalesced delivery, plus enough identity to match them up
// and to re-check the per-VP window offline.
struct SchedulerAudit {
  struct Issue {
    std::uint64_t issue_id = 0;  // Unique per wire probe.
    std::uint64_t key = 0;       // ProbeDemand::coalesce_key().
    std::uint64_t round = 0;
    topology::HostId vp = topology::kInvalidId;
    std::uint64_t digest = 0;    // ProbeOutcome::digest() as issued.
  };
  struct Delivery {
    std::uint64_t issue_id = 0;  // The wire probe that satisfied the waiter.
    std::uint64_t key = 0;
    std::uint64_t digest = 0;    // Digest of the outcome the waiter received.
  };
  std::vector<Issue> issues;
  std::vector<Delivery> deliveries;
};

// Collects demand sets from resumable requests, issues deduplicated wire
// probes under the per-VP limits, and hands each task its completed outcome
// set in demand order. Thread-safe: workers submit and pump concurrently.
// One mutex guards the bookkeeping, never the probing: every wire probe goes
// through the same three steps, whoever executes it.
//
//   1. Claim (under mu_): one scheduler round takes eligible demands out of
//      the FIFO under the per-VP window and token rules. A claimed demand
//      stays in the coalescing tables, so an identical demand submitted
//      while it is in flight rides on it instead of probing again.
//   2. Execute (no lock): a pumping worker runs its claims through its own
//      transport; a remote agent runs its assignments in its own process.
//   3. Deliver (under mu_): the outcome is audited against the claim round
//      and fans out to every waiter, riders that attached mid-flight included.
class ProbeScheduler {
 public:
  using TaskId = std::uint64_t;
  // pump() owner filter meaning "claim every owner's demands".
  static constexpr std::size_t kAnyOwner = SIZE_MAX;

  struct Ready {
    TaskId task = 0;
    std::vector<ProbeOutcome> outcomes;  // Demand order of the submit() set.
  };

  struct PumpResult {
    std::size_t issued = 0;  // Wire probes put on the network this round.
  };

  explicit ProbeScheduler(SchedOptions options = {});

  // Handles must outlive the scheduler's use of them; nullptr detaches.
  void set_metrics(const SchedMetrics* metrics) REVTR_EXCLUDES(mu_);
  void set_audit(SchedulerAudit* audit) REVTR_EXCLUDES(mu_);

  // Registers a task's next demand set. `owner` tags which pump loop will
  // resume the task; collect_ready(owner) only returns that owner's tasks.
  // One set per task at a time: submit again only after its Ready arrived.
  void submit(TaskId task, std::size_t owner, std::vector<ProbeDemand> demands);

  // One local round with the calling thread as executor: claims `owner`'s
  // eligible demands (kAnyOwner: everyone's), executes them on `transport`
  // with no lock held — spoofed-RR claims in same-ingress batches of
  // kSpoofBatchSize — and delivers the outcomes.
  // A worker passes its own owner index, so the demands it submitted run on
  // its own stack; outcomes are content-addressed, so the executor never
  // changes a result. The transport may call back into the scheduler. The
  // Prober overload wraps a LocalProbeTransport.
  PumpResult pump(probing::Prober& prober, std::size_t owner = kAnyOwner)
      REVTR_EXCLUDES(mu_);
  PumpResult pump(probing::ProbeTransport& transport,
                  std::size_t owner = kAnyOwner) REVTR_EXCLUDES(mu_);

  // ---- Distributed dispatch (DESIGN.md §15) ----------------------------
  //
  // In remote mode the scheduler is a dispatcher: wire probes leave as
  // ticketed assignments to registered VP agents instead of executing on
  // the pumping worker's prober. Dispatch is the local pump's claim and
  // deliver with an agent as the executor: an assigned demand keeps its
  // place in the coalescing tables, so cross-request coalescing — and
  // invariant I7 over the audit — hold across process boundaries.

  using AgentId = std::uint64_t;

  struct Assignment {
    std::uint64_t ticket = 0;  // Unique per dispatch; stale after requeue.
    probing::ProbeSpec spec;
  };

  // Registers an agent with a per-agent in-flight window (clamped >= 1).
  // `now_us` seeds the heartbeat clock so a fresh agent is not instantly
  // expirable. Ids are never reused.
  AgentId attach_agent(std::size_t window, std::int64_t now_us = 0)
      REVTR_EXCLUDES(mu_);

  // Detaches an agent (disconnect or heartbeat timeout): every assignment
  // still in flight on it is requeued at the head of the probe queue for
  // reassignment. Returns the number requeued. Idempotent.
  std::size_t detach_agent(AgentId agent) REVTR_EXCLUDES(mu_);

  void agent_heartbeat(AgentId agent, std::int64_t now_us)
      REVTR_EXCLUDES(mu_);

  // Detaches every agent whose last heartbeat is older than `timeout_us`
  // (their assignments requeue) and returns the detached ids.
  std::vector<AgentId> expire_agents(std::int64_t now_us,
                                     std::int64_t timeout_us)
      REVTR_EXCLUDES(mu_);

  // One dispatch round for `agent`: moves eligible queued wire demands into
  // its in-flight set, honoring the per-VP window/token pacing (each call is
  // a scheduler round, exactly like a pump) and the agent's own window.
  // Unknown agents get nothing.
  std::vector<Assignment> next_assignments(AgentId agent)
      REVTR_EXCLUDES(mu_);

  // Delivers an agent's reply for `ticket`. Returns false — and drops the
  // reply — when the ticket is stale (requeued off a detached agent, or
  // already delivered), so a slow agent's late duplicate can never fan out
  // twice or double-charge a request. The audit Issue records the round the
  // assignment was dispatched in, keeping I7's per-round window check exact.
  // Any result, stale or not, is liveness: a still-attached agent's
  // heartbeat clock advances to `now_us`.
  bool deliver_assignment(AgentId agent, std::uint64_t ticket,
                          const probing::ProbeReply& reply,
                          std::int64_t now_us = 0) REVTR_EXCLUDES(mu_);

  // Assignments currently in flight across all agents.
  std::size_t assigned_in_flight() const REVTR_EXCLUDES(mu_);

  // Tasks of `owner` whose whole demand set resolved since the last call.
  std::vector<Ready> collect_ready(std::size_t owner);

  // Parks the calling pump loop until `owner` has a resolved demand set to
  // collect, or — when it `claims` its own demands — a queued demand to
  // claim; returns at once if it has either. For a loop whose demands all
  // ride on probes that someone else executes: the delivery that resolves
  // one of its sets wakes it, where a yield() loop would keep a core busy.
  // A loop whose demands remote agents execute passes claims = false. Every
  // owner's loop that claims must keep pumping its own demands, since riders
  // on them park until they are delivered. A wake meant for this owner since
  // its last wait returned also ends the wait. Each time the wait blocks
  // counts one park (SchedMetrics::parks). One thread at a time per owner.
  void wait_for_owner(std::size_t owner, bool claims = true)
      REVTR_EXCLUDES(mu_);

  // Ends every wait_for_owner, current or next, of every owner: work for
  // every pump loop arrived from outside the scheduler (a daemon's drain,
  // stop or hold release). No wake is lost to a loop that checks that work
  // and then parks.
  void wake() REVTR_EXCLUDES(mu_);

  // Work for one pump loop arrived from outside the scheduler (a request
  // admitted into a daemon's empty queue). Ends the wait of one parked
  // owner other than `except` — of those not already woken, the one with
  // the fewest unresolved demand sets (the likeliest to have room), ties
  // to the lowest index — and the next wait of every other owner that is
  // not parked, so a loop that checked the work before the call and parks
  // after it returns at once: no wake is lost. `except` is a caller's own
  // loop, which needs no wake.
  void wake_one(std::size_t except = kAnyOwner) REVTR_EXCLUDES(mu_);

  bool idle() const;  // No queued probes and no undelivered sets.
  // Unfinished demand sets currently inside the scheduler (submitted, not
  // yet collected). The admission controller's backpressure signal: demand
  // the workers have already handed over that the bounded submission queue
  // cannot see.
  std::size_t backlog() const;
  SchedulerStats stats() const;
  const SchedOptions& options() const noexcept { return options_; }

 private:
  struct Waiter {
    std::uint64_t set = 0;     // Index into sets_.
    std::size_t slot = 0;      // Index into the set's outcome vector.
  };
  struct Pending {
    ProbeDemand demand;
    std::uint64_t key = 0;
    std::size_t owner = 0;        // The original demander's owner.
    std::vector<Waiter> waiters;  // First waiter is the original demander.
  };
  struct DemandSet {
    TaskId task = 0;
    std::size_t owner = 0;
    std::vector<ProbeOutcome> outcomes;
    std::size_t remaining = 0;
  };
  struct VpState {
    std::uint64_t tokens = 0;  // Fixed point, kTokenScale per whole token.
    std::size_t issued_this_round = 0;
    std::uint64_t last_refill_round = 0;
  };

  struct AgentState {
    std::size_t window = 1;       // Max assignments in flight at once.
    std::size_t inflight = 0;     // Currently assigned, result not back.
    std::int64_t last_heartbeat_us = 0;
  };
  struct Assigned {
    std::uint64_t pending_id = 0;
    AgentId agent = 0;
    std::uint64_t round = 0;  // Dispatch round, recorded in the audit Issue.
  };

  // All private helpers run with mu_ held (declared by REVTR_REQUIRES).
  bool issuable_locked(const Pending& pending) REVTR_REQUIRES(mu_);
  // The claim step shared by local pumps and agent dispatch: one scheduler
  // round over the FIFO. Takes up to `limit` demands of `owner` (kAnyOwner:
  // any); each must also pass the per-VP window and token bucket. Skipped
  // and deferred demands keep their queue order and cost no tokens. Claimed
  // demands leave the queue but stay in pending_ and in_flight_ until
  // delivered. The round is counted only if some demand was eligible.
  std::vector<std::uint64_t> claim_round_locked(std::size_t owner,
                                                std::size_t limit)
      REVTR_REQUIRES(mu_);
  // The deliver step shared by every executor: removes the claimed pending
  // entry, accounts and audits its wire probe, and fans the outcome out to
  // every waiter. `issue_round` is the round the demand was claimed in — the
  // audit records it for I7's per-round window check.
  void account_and_deliver_locked(std::uint64_t pending_id,
                                  ProbeOutcome outcome,
                                  std::uint64_t issue_round,
                                  PumpResult& result) REVTR_REQUIRES(mu_);
  void deliver_locked(std::uint64_t set_id, std::size_t slot,
                      ProbeOutcome outcome) REVTR_REQUIRES(mu_);
  // wait_for_owner's wake condition, wake() aside.
  bool owner_has_work_locked(std::size_t owner, bool claims) const
      REVTR_REQUIRES(mu_);
  // Requeues every assignment in flight on `agent` (detach/expiry path).
  std::size_t requeue_agent_locked(AgentId agent) REVTR_REQUIRES(mu_);

  // Liveness clamps applied once, so options_ can be const (a zero window
  // or zero refill would park queued demands forever).
  static SchedOptions clamp_options(SchedOptions options);

  const SchedOptions options_;
  // Token-bucket arithmetic in fixed point: fractional refill rates
  // accumulate exactly across rounds (one rounding when the options are
  // converted, none per round), so sub-1 pacing neither drifts nor starves.
  static constexpr std::uint64_t kTokenScale = 1u << 20;
  const std::uint64_t refill_scaled_;  // vp_tokens_per_round * kTokenScale.
  const std::uint64_t burst_scaled_;   // vp_token_burst * kTokenScale.

  mutable util::Mutex mu_;
  const SchedMetrics* metrics_ REVTR_GUARDED_BY(mu_) = nullptr;
  SchedulerAudit* audit_ REVTR_GUARDED_BY(mu_) = nullptr;
  std::uint64_t next_pending_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t next_set_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t next_issue_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t round_ REVTR_GUARDED_BY(mu_) = 0;
  // Hot per-probe tables: open addressing (util::FlatMap) — the scheduler
  // inserts and erases one pending entry per wire probe, which is exactly
  // the churn pattern backward-shift erase keeps cheap.
  util::FlatMap<std::uint64_t, Pending> pending_ REVTR_GUARDED_BY(mu_);
  // FIFO of un-issued pending ids.
  std::deque<std::uint64_t> queue_ REVTR_GUARDED_BY(mu_);
  // Coalesce key -> pending id.
  util::FlatMap<std::uint64_t, std::uint64_t> in_flight_
      REVTR_GUARDED_BY(mu_);
  util::FlatMap<std::uint64_t, DemandSet> sets_ REVTR_GUARDED_BY(mu_);
  util::FlatMap<topology::HostId, VpState> vp_state_
      REVTR_GUARDED_BY(mu_);
  // Completed set ids awaiting collection.
  std::deque<std::uint64_t> ready_ REVTR_GUARDED_BY(mu_);
  // An owner's pump loop runs on one thread, so at most one loop waits per
  // owner, and a set turning ready wakes only the loop that owns it.
  struct OwnerWait {
    std::condition_variable_any cv;
    bool parked = false;
    bool woken = false;  // A wake is pending: the next wait returns at once.
  };
  // Node-based: a parked loop's entry stays put while other owners join.
  std::unordered_map<std::size_t, OwnerWait> waits_ REVTR_GUARDED_BY(mu_);
  // Some wake() or wake_one() came: an owner's first wait returns at once,
  // since the owner had no entry to record it.
  bool woken_before_ REVTR_GUARDED_BY(mu_) = false;
  // Remote dispatch state: registered agents and ticketed assignments.
  util::FlatMap<AgentId, AgentState> agents_ REVTR_GUARDED_BY(mu_);
  util::FlatMap<std::uint64_t, Assigned> assigned_ REVTR_GUARDED_BY(mu_);
  std::uint64_t next_agent_ REVTR_GUARDED_BY(mu_) = 1;
  std::uint64_t next_ticket_ REVTR_GUARDED_BY(mu_) = 1;
  SchedulerStats stats_ REVTR_GUARDED_BY(mu_);
};

}  // namespace revtr::sched
