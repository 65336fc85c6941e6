#include "sched/scheduler.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace revtr::sched {

namespace {

constexpr std::uint64_t kNoSpoof = 0xffffffffffff0001ULL;

std::uint64_t hash_addr_list(std::uint64_t seed,
                             std::span<const net::Ipv4Addr> addrs) {
  std::uint64_t h = seed;
  for (const net::Ipv4Addr addr : addrs) {
    h = util::mix_hash(h, addr.value(), 0xad5ULL);
  }
  return h;
}

}  // namespace

std::uint64_t ProbeDemand::coalesce_key() const {
  std::uint64_t h = util::mix_hash(static_cast<std::uint64_t>(type), from,
                                   target.value());
  h = util::mix_hash(h, spoof_as ? spoof_as->value() : kNoSpoof, 0x5c4edULL);
  h = util::mix_hash(h, static_cast<std::uint64_t>(trace_scope));
  return hash_addr_list(h, prespec);
}

std::uint64_t ProbeOutcome::digest() const {
  std::uint64_t h = util::mix_hash(responded ? 1 : 0,
                                   static_cast<std::uint64_t>(duration_us),
                                   packets);
  h = hash_addr_list(h, slots);
  for (const bool stamp : stamped) h = util::mix_hash(h, stamp ? 1 : 0);
  h = util::mix_hash(h, traceroute.reached ? 1 : 0, traceroute.hops.size());
  for (const auto& hop : traceroute.hops) {
    h = util::mix_hash(h, hop.addr ? hop.addr->value() : kNoSpoof,
                       static_cast<std::uint64_t>(hop.rtt_us));
  }
  return h;
}

ProbeOutcome execute_demand(probing::ProbeTransport& transport,
                            const ProbeDemand& demand) {
  return ProbeOutcome{transport.execute(demand)};
}

ProbeOutcome execute_demand(probing::Prober& prober,
                            const ProbeDemand& demand) {
  probing::LocalProbeTransport transport(prober);
  return execute_demand(transport, demand);
}

SchedMetrics::SchedMetrics(obs::MetricsRegistry& registry) {
  demanded = &registry.counter("revtr_sched_probes_demanded_total");
  issued = &registry.counter("revtr_sched_probes_issued_total");
  coalesced = &registry.counter("revtr_probes_coalesced_total");
  throttled = &registry.counter("revtr_sched_vp_throttled_total");
  spoof_batches = &registry.counter("revtr_sched_spoof_batches_total");
  parks = &registry.counter("revtr_sched_parks_total");
  queue_depth = &registry.gauge("revtr_sched_queue_depth");
}

SchedOptions ProbeScheduler::clamp_options(SchedOptions options) {
  // Liveness: a zero window or a zero refill would park queued demands
  // forever. Clamp rather than abort — callers tune these from CLI flags.
  options.vp_window = std::max<std::size_t>(options.vp_window, 1);
  // Fractional refill rates are legal (they accumulate in fixed point), but
  // zero, negative, or NaN rates would park queued demands forever.
  if (!(options.vp_tokens_per_round > 0.0)) options.vp_tokens_per_round = 1.0;
  options.vp_token_burst = std::max<std::uint32_t>(options.vp_token_burst, 1);
  return options;
}

namespace {

std::uint64_t scale_refill(double tokens_per_round, std::uint64_t scale) {
  // One rounding here, none per round: even 1e-9 tokens/round stays a
  // positive integer refill, so accumulation is exact and drains eventually.
  const double scaled = tokens_per_round * static_cast<double>(scale);
  if (scaled >= 0x1p63) return std::uint64_t{1} << 63;
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(scaled), 1);
}

}  // namespace

ProbeScheduler::ProbeScheduler(SchedOptions options)
    : options_(clamp_options(options)),
      refill_scaled_(scale_refill(options_.vp_tokens_per_round, kTokenScale)),
      burst_scaled_(std::max<std::uint64_t>(
          std::uint64_t{options_.vp_token_burst} * kTokenScale,
          refill_scaled_)) {}

void ProbeScheduler::set_metrics(const SchedMetrics* metrics) {
  const util::MutexLock lock(mu_);
  metrics_ = metrics;
}

void ProbeScheduler::set_audit(SchedulerAudit* audit) {
  const util::MutexLock lock(mu_);
  audit_ = audit;
}

void ProbeScheduler::submit(TaskId task, std::size_t owner,
                            std::vector<ProbeDemand> demands) {
  REVTR_CHECK(!demands.empty());
  const util::MutexLock lock(mu_);
  const std::uint64_t set_id = next_set_++;
  DemandSet& set = sets_[set_id];
  set.task = task;
  set.owner = owner;
  set.outcomes.resize(demands.size());
  set.remaining = demands.size();

  for (std::size_t slot = 0; slot < demands.size(); ++slot) {
    ProbeDemand& demand = demands[slot];
    ++stats_.demanded;
    if (metrics_ != nullptr) metrics_->demanded->add();
    const std::uint64_t key = demand.coalesce_key();
    if (options_.coalesce) {
      if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
        // Identical probe already pending: ride along, no second wire probe.
        pending_.at(it->second).waiters.push_back(Waiter{set_id, slot});
        ++stats_.coalesced;
        if (metrics_ != nullptr) metrics_->coalesced->add();
        continue;
      }
    }
    const std::uint64_t pending_id = next_pending_++;
    Pending& pending = pending_[pending_id];
    pending.demand = std::move(demand);
    pending.key = key;
    pending.owner = owner;
    pending.waiters.push_back(Waiter{set_id, slot});
    queue_.push_back(pending_id);
    if (options_.coalesce) in_flight_[key] = pending_id;
  }
  stats_.max_queue_depth = std::max<std::uint64_t>(stats_.max_queue_depth,
                                                   queue_.size());
  if (metrics_ != nullptr) {
    metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
}

bool ProbeScheduler::issuable_locked(const Pending& pending) {
  VpState& vp = vp_state_[pending.demand.from];
  if (vp.last_refill_round != round_) {
    vp.last_refill_round = round_;
    vp.issued_this_round = 0;
    vp.tokens = std::min(vp.tokens + refill_scaled_, burst_scaled_);
  }
  if (vp.issued_this_round >= options_.vp_window ||
      vp.tokens < kTokenScale) {
    return false;
  }
  ++vp.issued_this_round;
  vp.tokens -= kTokenScale;
  return true;
}

void ProbeScheduler::deliver_locked(std::uint64_t set_id, std::size_t slot,
                                    ProbeOutcome outcome) {
  DemandSet& set = sets_.at(set_id);
  set.outcomes[slot] = std::move(outcome);
  REVTR_CHECK(set.remaining > 0);
  if (--set.remaining == 0) {
    ready_.push_back(set_id);
    if (const auto it = waits_.find(set.owner);
        it != waits_.end() && it->second.parked) {
      it->second.cv.notify_one();
    }
  }
}

bool ProbeScheduler::owner_has_work_locked(std::size_t owner,
                                           bool claims) const {
  for (const std::uint64_t set_id : ready_) {
    if (sets_.at(set_id).owner == owner) return true;
  }
  if (!claims) return false;
  for (const std::uint64_t pending_id : queue_) {
    if (pending_.at(pending_id).owner == owner) return true;
  }
  return false;
}

void ProbeScheduler::wait_for_owner(std::size_t owner, bool claims) {
  util::MutexLock lock(mu_);
  const auto [it, first] = waits_.try_emplace(owner);
  OwnerWait& wait = it->second;
  if (first) wait.woken = woken_before_;
  wait.parked = true;
  while (!wait.woken && !owner_has_work_locked(owner, claims)) {
    if (metrics_ != nullptr) metrics_->parks->add();
    wait.cv.wait(lock);
  }
  wait.parked = false;
  wait.woken = false;
}

void ProbeScheduler::wake() {
  const util::MutexLock lock(mu_);
  woken_before_ = true;
  for (auto& [owner, wait] : waits_) {
    wait.woken = true;
    if (wait.parked) wait.cv.notify_one();
  }
}

void ProbeScheduler::wake_one(std::size_t except) {
  const util::MutexLock lock(mu_);
  woken_before_ = true;
  // Unresolved demand sets per parked candidate: a parked loop's requests
  // all wait in the scheduler, so this is how many it has in flight.
  OwnerWait* chosen = nullptr;
  std::size_t chosen_owner = 0;
  std::size_t chosen_sets = 0;
  for (auto& [owner, wait] : waits_) {
    if (owner == except) continue;
    if (!wait.parked) {
      wait.woken = true;
      continue;
    }
    if (wait.woken) continue;  // Already on its way out of the wait.
    std::size_t sets = 0;
    if (!sets_.empty()) {  // An empty table still scans every slot.
      for (const auto& entry : sets_) {
        if (entry.second.owner == owner) ++sets;
      }
    }
    if (chosen == nullptr || sets < chosen_sets ||
        (sets == chosen_sets && owner < chosen_owner)) {
      chosen = &wait;
      chosen_owner = owner;
      chosen_sets = sets;
    }
  }
  if (chosen != nullptr) {
    chosen->woken = true;
    chosen->cv.notify_one();
  }
}

std::vector<std::uint64_t> ProbeScheduler::claim_round_locked(
    std::size_t owner, std::size_t limit) {
  // One pass over the queue in FIFO order. Demands this claimer may not take
  // are skipped before the VP check, so they spend no tokens; demands over a
  // VP's window or bucket are throttled and stay queued for a later round.
  std::vector<std::uint64_t> claimed;
  std::deque<std::uint64_t> deferred;
  bool counted = false;
  for (const std::uint64_t pending_id : queue_) {
    const Pending& pending = pending_.at(pending_id);
    if ((owner != kAnyOwner && pending.owner != owner) ||
        claimed.size() >= limit) {
      deferred.push_back(pending_id);
      continue;
    }
    if (!counted) {
      counted = true;
      ++round_;
      ++stats_.rounds;
    }
    if (!issuable_locked(pending)) {
      ++stats_.throttled;
      if (metrics_ != nullptr) metrics_->throttled->add();
      deferred.push_back(pending_id);
      continue;
    }
    claimed.push_back(pending_id);
  }
  queue_ = std::move(deferred);
  if (metrics_ != nullptr) {
    metrics_->queue_depth->set(static_cast<std::int64_t>(queue_.size()));
  }
  return claimed;
}

void ProbeScheduler::account_and_deliver_locked(std::uint64_t pending_id,
                                                ProbeOutcome outcome,
                                                std::uint64_t issue_round,
                                                PumpResult& result) {
  Pending pending = std::move(pending_.at(pending_id));
  pending_.erase(pending_id);
  if (const auto it = in_flight_.find(pending.key);
      it != in_flight_.end() && it->second == pending_id) {
    in_flight_.erase(it);
  }

  const std::uint64_t issue_id = next_issue_++;
  ++stats_.issued;
  if (metrics_ != nullptr) metrics_->issued->add();
  ++result.issued;
  // Only the audit reads digests; hashing every outcome without one is waste.
  if (audit_ != nullptr) {
    audit_->issues.push_back(SchedulerAudit::Issue{issue_id, pending.key,
                                                   issue_round,
                                                   pending.demand.from,
                                                   outcome.digest()});
  }

  // First waiter is the demand that caused the wire probe; the rest are
  // coalesced riders and receive byte-identical copies marked as such.
  REVTR_CHECK(!pending.waiters.empty());
  for (std::size_t i = pending.waiters.size(); i-- > 1;) {
    const Waiter& waiter = pending.waiters[i];
    ProbeOutcome copy = outcome;
    copy.coalesced = true;
    if (audit_ != nullptr) {
      audit_->deliveries.push_back(
          SchedulerAudit::Delivery{issue_id, pending.key, copy.digest()});
    }
    deliver_locked(waiter.set, waiter.slot, std::move(copy));
  }
  deliver_locked(pending.waiters.front().set, pending.waiters.front().slot,
                 std::move(outcome));
}

namespace {

// A demand claimed by a local pump, copied out of the scheduler so it can
// execute without the lock, and the outcome it measured.
struct Claim {
  std::uint64_t pending_id = 0;
  ProbeDemand demand;
  ProbeOutcome outcome;
  std::size_t group = 0;  // Spoofed-RR ingress group, 1-based; 0 otherwise.
};

bool spoofed(const ProbeDemand& demand) {
  return demand.type == probing::ProbeType::kSpoofedRecordRoute;
}

// Puts claims in issue order: non-spoofed probes in FIFO order, then
// spoofed-RR demands grouped by expected ingress (groups in first-seen
// order, FIFO within a group), so requests that share an ingress fill the
// same 3-probe batches.
void order_for_issue(std::vector<Claim>& claims) {
  util::FlatMap<std::uint64_t, std::size_t> groups;
  for (Claim& claim : claims) {
    if (!spoofed(claim.demand)) continue;
    claim.group = groups
                      .try_emplace(claim.demand.batch_ingress.value(),
                                   groups.size() + 1)
                      .first->second;
  }
  std::stable_sort(claims.begin(), claims.end(),
                   [](const Claim& a, const Claim& b) {
                     return a.group < b.group;
                   });
}

// The execute step of a local pump. Runs with no scheduler lock held and
// touches nothing but the claims and the caller's transport. Claims must be
// in issue order; each same-ingress run of spoofed demands goes out in
// batches of kSpoofBatchSize through the transport's batch call, which is
// outcome-equivalent to issuing each probe alone (ProbeTransport).
// Returns the number of spoofed-RR wire batches.
std::size_t execute_claims(probing::ProbeTransport& transport,
                           std::vector<Claim>& claims) {
  std::size_t batches = 0;
  std::vector<probing::RrBatchItem> items;
  std::vector<probing::RrProbeResult> replies;
  for (std::size_t begin = 0; begin < claims.size();) {
    const ProbeDemand& head = claims[begin].demand;
    if (!spoofed(head)) {
      claims[begin].outcome = execute_demand(transport, head);
      ++begin;
      continue;
    }
    std::size_t end = begin;
    items.clear();
    while (end < claims.size() && end - begin < kSpoofBatchSize &&
           spoofed(claims[end].demand) &&
           claims[end].demand.batch_ingress == head.batch_ingress) {
      const ProbeDemand& demand = claims[end].demand;
      items.push_back(
          probing::RrBatchItem{demand.from, demand.target, demand.spoof_as});
      ++end;
    }
    transport.execute_batch(items, replies);
    ++batches;
    for (std::size_t i = begin; i < end; ++i) {
      probing::RrProbeResult& reply = replies[i - begin];
      ProbeOutcome& outcome = claims[i].outcome;
      outcome.responded = reply.responded;
      outcome.slots = std::move(reply.slots);
      outcome.duration_us = reply.duration_us;
      outcome.packets = 1;
    }
    begin = end;
  }
  return batches;
}

}  // namespace

ProbeScheduler::PumpResult ProbeScheduler::pump(probing::Prober& prober,
                                                std::size_t owner) {
  probing::LocalProbeTransport transport(prober);
  return pump(transport, owner);
}

ProbeScheduler::PumpResult ProbeScheduler::pump(
    probing::ProbeTransport& transport, std::size_t owner) {
  // Claim. The demands are copied out; their pending entries stay behind,
  // so identical demands keep coalescing onto them while they execute.
  std::vector<Claim> claims;
  std::uint64_t round = 0;
  {
    const util::MutexLock lock(mu_);
    const auto claimed = claim_round_locked(owner, SIZE_MAX);
    claims.resize(claimed.size());
    for (std::size_t i = 0; i < claimed.size(); ++i) {
      claims[i].pending_id = claimed[i];
      claims[i].demand = pending_.at(claimed[i]).demand;
    }
    round = round_;
  }
  PumpResult result;
  if (claims.empty()) return result;

  // Execute, with no lock held.
  order_for_issue(claims);
  const std::size_t batches = execute_claims(transport, claims);

  // Deliver, to the original demanders and every rider.
  const util::MutexLock lock(mu_);
  stats_.wire_batches += batches;
  if (metrics_ != nullptr) metrics_->spoof_batches->add(batches);
  for (Claim& claim : claims) {
    account_and_deliver_locked(claim.pending_id, std::move(claim.outcome),
                               round, result);
  }
  return result;
}

ProbeScheduler::AgentId ProbeScheduler::attach_agent(std::size_t window,
                                                     std::int64_t now_us) {
  const util::MutexLock lock(mu_);
  const AgentId id = next_agent_++;
  AgentState& state = agents_[id];
  state.window = std::max<std::size_t>(window, 1);
  state.inflight = 0;
  state.last_heartbeat_us = now_us;
  return id;
}

std::size_t ProbeScheduler::requeue_agent_locked(AgentId agent) {
  // Requeue in ticket order at the head of the queue, so a dead agent's
  // probes reissue before anything newer (they have been waiting longest).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> requeue;
  for (const auto& [ticket, assigned] : assigned_) {
    if (assigned.agent == agent) {
      requeue.emplace_back(ticket, assigned.pending_id);
    }
  }
  std::sort(requeue.begin(), requeue.end());
  for (std::size_t i = requeue.size(); i-- > 0;) {
    assigned_.erase(requeue[i].first);
    queue_.push_front(requeue[i].second);
  }
  stats_.reassigned += requeue.size();
  return requeue.size();
}

std::size_t ProbeScheduler::detach_agent(AgentId agent) {
  const util::MutexLock lock(mu_);
  if (agents_.find(agent) == agents_.end()) return 0;
  agents_.erase(agent);
  return requeue_agent_locked(agent);
}

void ProbeScheduler::agent_heartbeat(AgentId agent, std::int64_t now_us) {
  const util::MutexLock lock(mu_);
  if (const auto it = agents_.find(agent); it != agents_.end()) {
    it->second.last_heartbeat_us =
        std::max(it->second.last_heartbeat_us, now_us);
  }
}

std::vector<ProbeScheduler::AgentId> ProbeScheduler::expire_agents(
    std::int64_t now_us, std::int64_t timeout_us) {
  const util::MutexLock lock(mu_);
  std::vector<AgentId> expired;
  for (const auto& [id, state] : agents_) {
    if (now_us - state.last_heartbeat_us > timeout_us) expired.push_back(id);
  }
  for (const AgentId id : expired) {
    agents_.erase(id);
    requeue_agent_locked(id);
    ++stats_.agents_expired;
  }
  return expired;
}

std::vector<ProbeScheduler::Assignment> ProbeScheduler::next_assignments(
    AgentId agent) {
  const util::MutexLock lock(mu_);
  std::vector<Assignment> out;
  const auto agent_it = agents_.find(agent);
  if (agent_it == agents_.end() || queue_.empty()) return out;
  AgentState& state = agent_it->second;
  if (state.inflight >= state.window) return out;

  // The local pump's claim step with the agent as executor: each dispatch
  // call IS a round — the audit records it, so I7's per-round VP window
  // check is exactly as strict as in the monolith. The agent's free window
  // caps the claim before any VP token is spent.
  for (const std::uint64_t pending_id :
       claim_round_locked(kAnyOwner, state.window - state.inflight)) {
    const std::uint64_t ticket = next_ticket_++;
    assigned_[ticket] = Assigned{pending_id, agent, round_};
    ++state.inflight;
    out.push_back(Assignment{ticket, pending_.at(pending_id).demand});
  }
  return out;
}

bool ProbeScheduler::deliver_assignment(AgentId agent, std::uint64_t ticket,
                                        const probing::ProbeReply& reply,
                                        std::int64_t now_us) {
  const util::MutexLock lock(mu_);
  const auto agent_it = agents_.find(agent);
  if (agent_it != agents_.end()) {
    // A result proves the agent alive as well as a heartbeat does: a busy
    // agent must not be expired while it is answering.
    agent_it->second.last_heartbeat_us =
        std::max(agent_it->second.last_heartbeat_us, now_us);
  }
  const auto it = assigned_.find(ticket);
  if (it == assigned_.end() || it->second.agent != agent) {
    // Requeued off a detached agent (or already delivered): dropping the
    // late duplicate is what keeps fan-out and quota single-charged.
    ++stats_.stale_results;
    return false;
  }
  const Assigned assigned = it->second;
  assigned_.erase(ticket);
  if (agent_it != agents_.end()) {
    REVTR_CHECK(agent_it->second.inflight > 0);
    --agent_it->second.inflight;
  }
  PumpResult ignored;
  account_and_deliver_locked(assigned.pending_id, ProbeOutcome{reply},
                             assigned.round, ignored);
  return true;
}

std::size_t ProbeScheduler::assigned_in_flight() const {
  const util::MutexLock lock(mu_);
  return assigned_.size();
}

std::vector<ProbeScheduler::Ready> ProbeScheduler::collect_ready(
    std::size_t owner) {
  const util::MutexLock lock(mu_);
  std::vector<Ready> out;
  std::deque<std::uint64_t> keep;
  for (const std::uint64_t set_id : ready_) {
    DemandSet& set = sets_.at(set_id);
    if (set.owner != owner) {
      keep.push_back(set_id);
      continue;
    }
    out.push_back(Ready{set.task, std::move(set.outcomes)});
    sets_.erase(set_id);
  }
  ready_ = std::move(keep);
  return out;
}

bool ProbeScheduler::idle() const {
  const util::MutexLock lock(mu_);
  return pending_.empty() && ready_.empty() && sets_.empty();
}

std::size_t ProbeScheduler::backlog() const {
  const util::MutexLock lock(mu_);
  return sets_.size();
}

SchedulerStats ProbeScheduler::stats() const {
  const util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace revtr::sched
