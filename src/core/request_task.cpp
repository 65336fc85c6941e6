#include "core/request_task.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace revtr::core {

namespace {
using net::Ipv4Addr;
using topology::HostId;

std::uint64_t cache_key(Ipv4Addr addr, HostId source) {
  return util::mix_hash(addr.value(), source, 0xcace);
}
}  // namespace

RequestTask::RequestTask(RevtrEngine& engine, HostId destination,
                         HostId source, util::SimClock& clock, util::Rng& rng,
                         obs::Trace* trace)
    : engine_(engine),
      clock_(clock),
      rng_(rng),
      trace_(trace),
      source_(source) {
  result_.destination = destination;
  result_.source = source;
  result_.span.begin = clock_.now();
  if (trace_ != nullptr) {
    trace_->destination = destination;
    trace_->source = source;
    root_span_ = trace_->start_span("request", clock_.now());
  }
  src_addr_ = engine_.topo_.host(source).addr;
  current_ = engine_.topo_.host(destination).addr;
  result_.hops.push_back(ReverseHop{current_, HopSource::kDestination});
}

const EngineConfig& RequestTask::config() const noexcept {
  return engine_.config_;
}

const EngineMetrics* RequestTask::metrics() const noexcept {
  return engine_.metrics_;
}

ReverseTraceroute RequestTask::take_result() {
  REVTR_CHECK(done());
  return std::move(result_);
}

void RequestTask::open_stage(const char* name) {
  stage_probes_ = 0;
  if (trace_ != nullptr) stage_span_ = trace_->start_span(name, clock_.now());
}

void RequestTask::annotate_stage(const char* key, std::string value) {
  if (trace_ != nullptr) trace_->annotate(stage_span_, key, std::move(value));
}

void RequestTask::close_stage() {
  if (trace_ != nullptr) {
    trace_->end_span(stage_span_, clock_.now(), stage_probes_);
  }
  stage_probes_ = 0;
}

void RequestTask::charge(const sched::ProbeDemand& demand,
                         const sched::ProbeOutcome& outcome) {
  if (outcome.coalesced) {
    // Answered by another request's in-flight duplicate: no wire probe was
    // issued for this demand, so it costs the request (and its spans)
    // nothing — only the coalesced tally moves.
    ++result_.coalesced_probes;
    return;
  }
  stage_probes_ += outcome.packets;
  // A non-traceroute demand is one packet, also when an agent refused its
  // spec and reported none.
  const bool trace = demand.type == probing::ProbeType::kTraceroute;
  result_.probes.add(demand.type, trace ? outcome.packets : 1);
  if (trace) ++result_.probes.traceroutes;
}

std::span<const sched::ProbeDemand> RequestTask::advance() {
  // A supply() handler may already have emitted the next demand set (e.g.
  // rr-direct miss flowing straight into the spoofed technique); in that
  // case the pending set is returned as-is.
  while (stage_ != Stage::kDone && demands_.empty()) {
    switch (stage_) {
      case Stage::kLoopHead:
        step_loop_head();
        break;
      case Stage::kSpoofEmit:
        step_spoof_emit();
        break;
      case Stage::kDbrEmit:
        step_dbr_emit();
        break;
      case Stage::kAfterRr:
        step_after_rr();
        break;
      case Stage::kTsNext:
        step_ts_next();
        break;
      case Stage::kTsSpoofEmit:
        step_ts_spoof_emit();
        break;
      case Stage::kSymmetryEmit:
        step_symmetry_emit();
        break;
      case Stage::kRrDirectWait:
      case Stage::kSpoofBatchWait:
      case Stage::kDbrVerifyWait:
      case Stage::kTsDirectWait:
      case Stage::kTsSpoofWait:
      case Stage::kSymmetryWait:
      case Stage::kDone:
        REVTR_CHECK(false);  // advance() while awaiting outcomes.
    }
  }
  return demands_;
}

void RequestTask::supply(std::span<const sched::ProbeOutcome> outcomes) {
  REVTR_CHECK(outcomes.size() == demands_.size());
  // Handlers may emit the next demand set into demands_, so the consumed
  // one moves aside first (charge() still needs it for cost attribution).
  consumed_ = std::move(demands_);
  demands_.clear();
  switch (stage_) {
    case Stage::kRrDirectWait:
      on_rr_direct(outcomes);
      break;
    case Stage::kSpoofBatchWait:
      on_spoof_batch(outcomes);
      break;
    case Stage::kDbrVerifyWait:
      on_dbr_verify(outcomes);
      break;
    case Stage::kTsDirectWait:
      on_ts_direct(outcomes);
      break;
    case Stage::kTsSpoofWait:
      on_ts_spoofed(outcomes);
      break;
    case Stage::kSymmetryWait:
      on_symmetry(outcomes);
      break;
    case Stage::kLoopHead:
    case Stage::kSpoofEmit:
    case Stage::kDbrEmit:
    case Stage::kAfterRr:
    case Stage::kTsNext:
    case Stage::kTsSpoofEmit:
    case Stage::kSymmetryEmit:
    case Stage::kDone:
      REVTR_CHECK(false);  // supply() without an outstanding demand set.
  }
}

// --- Main loop head: termination, atlas, RR entry ---------------------------

void RequestTask::step_loop_head() {
  // All scratch from the previous technique round is dead here: start the
  // round empty, keeping the capacity.
  attempts_.clear();
  batch_attempts_.clear();
  revealed_.clear();
  ts_candidates_.clear();
  if (result_.hops.size() >= kMaxReverseHops) {
    finish();  // Undecided loop exit: status stays kUnreachable.
    return;
  }
  if (current_ == src_addr_) {
    result_.status = RevtrStatus::kComplete;
    finish();
    return;
  }
  if (try_atlas()) {
    result_.status = RevtrStatus::kComplete;
    finish();
    return;
  }
  begin_record_route();
}

bool RequestTask::try_atlas() {
  auto hit =
      engine_.atlas_.intersect(source_, current_, config().use_rr_atlas);
  if (!hit && engine_.aliases_ != nullptr) {
    hit = engine_.atlas_.intersect_with_aliases(source_, current_,
                                                *engine_.aliases_);
  }
  if (!hit) {
    if (metrics() != nullptr) metrics()->atlas_miss->add();
    return false;
  }
  if (metrics() != nullptr) metrics()->atlas_hit->add();
  open_stage("atlas-intersection");
  const auto age = engine_.atlas_.touch(source_, *hit, clock_.now());
  result_.intersected_age_us = age;
  result_.used_stale_traceroute = age > kCacheTtl;
  annotate_stage("age_us", std::to_string(age));
  if (result_.used_stale_traceroute) annotate_stage("stale", "1");
  const auto suffix = engine_.atlas_.suffix_after(source_, *hit);
  for (const Ipv4Addr addr : suffix) {
    if (already_in_path(addr)) continue;
    result_.hops.push_back(ReverseHop{addr, HopSource::kAtlasIntersection});
    if (addr.is_private()) result_.has_private_hops = true;
  }
  close_stage();
  return true;
}

// --- Record Route -----------------------------------------------------------

void RequestTask::begin_record_route() {
  rr_key_ = cache_key(current_, source_);
  if (config().use_cache) {
    if (const auto entry = engine_.caches_->rr.lookup(rr_key_);
        entry && entry->expires_at > clock_.now()) {
      if (metrics() != nullptr) metrics()->rr_cache_replay->add();
      open_stage("rr-cache-replay");
      // Walk the rounds as the live stage did: stop at the first that
      // makes progress for this request.
      auto& round = revealed_;
      std::size_t hops = 0;
      bool progressed = false;
      const auto end = entry->hops.end();
      for (auto hop = entry->hops.begin(); hop != end && !progressed;) {
        const HopSource source = hop->source;
        round.clear();
        for (bool last = false; !last && hop != end; ++hop) {
          round.push_back(hop->addr);
          last = hop->ends_round;
        }
        hops += round.size();
        progressed = append_reverse_hops(round, source);
      }
      annotate_stage("hops", std::to_string(hops));
      close_stage();
      stage_ = progressed ? Stage::kLoopHead : Stage::kAfterRr;
      return;
    }
  }

  // Direct RR ping from the source (Fig 1b).
  rr_reveals_.clear();
  open_stage("rr-direct");
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kRecordRoute;
  demand.from = source_;
  demand.target = current_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kRrDirectWait;
}

bool RequestTask::append_rr_round(std::span<const Ipv4Addr> revealed,
                                  HopSource how) {
  const bool progressed = append_reverse_hops(revealed, how);
  if (config().use_cache) {
    for (const Ipv4Addr addr : revealed) {
      rr_reveals_.push_back(RrCacheEntry::Hop{addr, how, false});
    }
    if (!revealed.empty()) rr_reveals_.back().ends_round = true;
    if (progressed) {
      engine_.caches_->rr.insert_or_assign(
          rr_key_,
          RrCacheEntry{{rr_reveals_.begin(), rr_reveals_.end()},
                       clock_.now() + kCacheTtl});
    }
  }
  return progressed;
}

void RequestTask::on_rr_direct(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& probe = outcomes[0];
  charge(consumed_[0], probe);
  clock_.advance(probe.duration_us);
  if (probe.responded) {
    const auto revealed =
        RevtrEngine::extract_reverse_hops(probe.slots, current_);
    if (!revealed.empty() &&
        append_rr_round(revealed, HopSource::kRecordRoute)) {
      annotate_stage("hit", "1");
      if (metrics() != nullptr) metrics()->rr_direct_hit->add();
      close_stage();
      stage_ = Stage::kLoopHead;
      return;
    }
  }
  close_stage();
  begin_spoofed();
}

void RequestTask::begin_spoofed() {
  const auto prefix = engine_.topo_.prefix_of(current_);
  if (!prefix) {
    if (metrics() != nullptr) metrics()->rr_miss->add();
    stage_ = Stage::kAfterRr;
    return;
  }
  auto plan = engine_.ingress_.plan_for(*prefix);
  if (plan == nullptr) {
    // The offline Q3 survey, run on demand on the discovery prober
    // (discover() scopes its probes as offline): neither its time nor its
    // packets are charged to the online budget; Table 4 counts surveys
    // separately. discover() reports what the survey sent, since this
    // engine's own prober may not be the discovery prober.
    if (metrics() != nullptr) metrics()->rr_ingress_discovery->add();
    open_stage("ingress-discovery");
    probing::ProbeCounters offline;
    plan = engine_.ingress_.discover(*prefix, engine_.topo_.vantage_points(),
                                     rng_, {}, &offline);
    result_.offline_probes += offline;
    annotate_stage("offline_probes", std::to_string(offline.total()));
    close_stage();
  }
  setup_attempts(*plan);
}

void RequestTask::setup_attempts(const vpselect::PrefixPlan& plan) {
  attempts_.clear();
  if (config().use_ingress_selection) {
    const auto planned = vpselect::attempt_plan(plan);
    attempts_.assign(planned.begin(), planned.end());
  } else {
    // revtr 1.0: try every vantage point in per-prefix set-cover order.
    const auto order = vpselect::revtr1_vp_order(plan);
    attempts_.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      attempts_.push_back(vpselect::Attempt{order[i], Ipv4Addr{}, i});
    }
  }
  rank_failures_.clear();
  next_attempt_ = 0;
  stage_ = Stage::kSpoofEmit;
}

void RequestTask::step_spoof_emit() {
  if (next_attempt_ >= attempts_.size()) {
    if (metrics() != nullptr) metrics()->rr_miss->add();
    stage_ = Stage::kAfterRr;
    return;
  }
  open_stage("rr-spoof-batch");
  batch_attempts_.clear();
  while (next_attempt_ < attempts_.size() &&
         batch_attempts_.size() < sched::kSpoofBatchSize) {
    const auto& attempt = attempts_[next_attempt_++];
    if (rank_failures_[attempt.ingress_rank] >= 5) continue;  // §4.3.
    batch_attempts_.push_back(attempt);
    sched::ProbeDemand demand;
    demand.type = probing::ProbeType::kSpoofedRecordRoute;
    demand.from = attempt.vp;
    demand.target = current_;
    demand.spoof_as = src_addr_;
    demand.batch_ingress = attempt.expected_ingress;
    demands_.push_back(std::move(demand));
  }
  if (batch_attempts_.empty()) {
    // Every remaining attempt was over its failure budget: a zero-sent
    // batch, after which the attempt list is exhausted.
    close_stage();
    return;  // Back into kSpoofEmit, which now reports rr-miss.
  }
  stage_ = Stage::kSpoofBatchWait;
}

void RequestTask::on_spoof_batch(
    std::span<const sched::ProbeOutcome> outcomes) {
  revealed_.clear();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& attempt = batch_attempts_[i];
    const auto& probe = outcomes[i];
    charge(consumed_[i], probe);
    if (!probe.responded) {
      ++rank_failures_[attempt.ingress_rank];
      continue;
    }
    if (!attempt.expected_ingress.is_unspecified() &&
        std::find(probe.slots.begin(), probe.slots.end(),
                  attempt.expected_ingress) == probe.slots.end()) {
      // Route did not transit the expected ingress; the next-closest VP for
      // this ingress will be tried in a later batch.
      ++rank_failures_[attempt.ingress_rank];
    }
    const auto hops = RevtrEngine::extract_reverse_hops(probe.slots, current_);
    if (hops.size() > revealed_.size()) {
      revealed_.assign(hops.begin(), hops.end());
    }
  }
  // Spoofed replies land at the source; the controller always waits out the
  // batch timeout for stragglers (§5.2.4).
  clock_.advance(kSpoofBatchTimeout);
  ++result_.spoofed_batches;
  annotate_stage("sent", std::to_string(batch_attempts_.size()));
  close_stage();
  if (revealed_.empty()) {
    stage_ = Stage::kSpoofEmit;
    return;
  }
  if (config().verify_destination_based_routing && revealed_.size() >= 2 &&
      !revealed_[0].is_private()) {
    stage_ = Stage::kDbrEmit;
    return;
  }
  finish_spoof_round();
}

void RequestTask::step_dbr_emit() {
  // Appx E redundancy: confirm the first revealed hop's next hop from an
  // independent vantage point.
  open_stage("rr-dbr-verify");
  const auto vps = engine_.topo_.vantage_points();
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kSpoofedRecordRoute;
  demand.from = vps[rng_.below(vps.size())];
  demand.target = revealed_[0];
  demand.spoof_as = src_addr_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kDbrVerifyWait;
}

void RequestTask::on_dbr_verify(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& check = outcomes[0];
  charge(consumed_[0], check);
  clock_.advance(check.duration_us);
  if (check.responded) {
    const auto recheck =
        RevtrEngine::extract_reverse_hops(check.slots, revealed_[0]);
    if (!recheck.empty() && recheck.front() != revealed_[1]) {
      result_.dbr_suspect = true;
      annotate_stage("suspect", "1");
    }
  }
  close_stage();
  finish_spoof_round();
}

void RequestTask::finish_spoof_round() {
  if (append_rr_round(revealed_, HopSource::kSpoofedRecordRoute)) {
    if (metrics() != nullptr) metrics()->rr_spoofed_hit->add();
    stage_ = Stage::kLoopHead;
    return;
  }
  stage_ = Stage::kSpoofEmit;
}

// --- Timestamp technique ----------------------------------------------------

void RequestTask::step_after_rr() {
  if (config().use_timestamp) {
    if (!engine_.adjacencies_) {
      // No adjacency source: the technique silently yields (no span, no
      // metric — same as the blocking engine's early return).
      stage_ = Stage::kSymmetryEmit;
      return;
    }
    open_stage("timestamp");
    const auto adjacent = engine_.adjacencies_(current_);
    ts_candidates_.assign(adjacent.begin(), adjacent.end());
    ts_index_ = 0;
    ts_tried_ = 0;
    stage_ = Stage::kTsNext;
    return;
  }
  // RR made no progress and the TS technique is compiled out of the preset
  // (Insight 1.9): record the decision, it costs nothing.
  if (metrics() != nullptr) metrics()->ts_skipped->add();
  if (trace_ != nullptr) trace_->event("ts-skipped", clock_.now());
  stage_ = Stage::kSymmetryEmit;
}

void RequestTask::step_ts_next() {
  while (ts_index_ < ts_candidates_.size()) {
    const Ipv4Addr adjacent = ts_candidates_[ts_index_++];
    if (ts_tried_++ >= kMaxTsAdjacencies) break;
    if (adjacent.is_private() || already_in_path(adjacent)) continue;
    ts_adjacent_ = adjacent;
    sched::ProbeDemand demand;
    demand.type = probing::ProbeType::kTimestamp;
    demand.from = source_;
    demand.target = current_;
    demand.prespec = {current_, adjacent};
    demands_.push_back(std::move(demand));
    stage_ = Stage::kTsDirectWait;
    return;
  }
  if (metrics() != nullptr) metrics()->ts_miss->add();
  close_stage();
  stage_ = Stage::kSymmetryEmit;
}

void RequestTask::on_ts_direct(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& probe = outcomes[0];
  charge(consumed_[0], probe);
  clock_.advance(probe.duration_us);
  if (!probe.responded && !engine_.topo_.vantage_points().empty()) {
    // Direct TS filtered: retry once spoofed from a vantage point, as the
    // 2010 system did (Table 4's "Spoof TS" column).
    stage_ = Stage::kTsSpoofEmit;
    return;
  }
  evaluate_ts(probe);
}

void RequestTask::step_ts_spoof_emit() {
  const auto vps = engine_.topo_.vantage_points();
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kSpoofedTimestamp;
  demand.from = vps[rng_.below(vps.size())];
  demand.target = current_;
  demand.prespec = {current_, ts_adjacent_};
  demand.spoof_as = src_addr_;
  demands_.push_back(std::move(demand));
  stage_ = Stage::kTsSpoofWait;
}

void RequestTask::on_ts_spoofed(std::span<const sched::ProbeOutcome> outcomes) {
  charge(consumed_[0], outcomes[0]);
  clock_.advance(kSpoofBatchTimeout / 2);
  evaluate_ts(outcomes[0]);
}

void RequestTask::evaluate_ts(const sched::ProbeOutcome& probe) {
  if (probe.responded && probe.stamped.size() == 2 && probe.stamped[0] &&
      probe.stamped[1]) {
    result_.hops.push_back(ReverseHop{ts_adjacent_, HopSource::kTimestamp});
    current_ = ts_adjacent_;
    annotate_stage("hit", "1");
    if (metrics() != nullptr) metrics()->ts_hit->add();
    close_stage();
    stage_ = Stage::kLoopHead;
    return;
  }
  stage_ = Stage::kTsNext;
}

// --- Symmetry assumption ----------------------------------------------------

void RequestTask::step_symmetry_emit() {
  open_stage("symmetry");
  const std::uint64_t key = cache_key(current_, source_);
  const auto cached =
      config().use_cache ? engine_.caches_->tr.lookup(key) : std::nullopt;
  if (cached && cached->expires_at > clock_.now()) {
    annotate_stage("cached", "1");
    if (metrics() != nullptr) metrics()->symmetry_cached->add();
    apply_symmetry(cached->penultimate, cached->reached);
    return;
  }
  sched::ProbeDemand demand;
  demand.type = probing::ProbeType::kTraceroute;
  demand.from = source_;
  demand.target = current_;
  if (config().use_last_hop_traces) {
    demand.trace_scope = probing::TraceScope::kLastHop;
  }
  demands_.push_back(std::move(demand));
  stage_ = Stage::kSymmetryWait;
}

void RequestTask::on_symmetry(std::span<const sched::ProbeOutcome> outcomes) {
  const auto& probe = outcomes[0];
  charge(consumed_[0], probe);
  const auto& tr = probe.traceroute;
  clock_.advance(tr.duration_us);
  bool reached = tr.reached;
  std::optional<Ipv4Addr> penultimate;
  if (!tr.reached && config().assume_from_unreachable_traceroute) {
    // 2010 behaviour: treat the last responsive hop as the next reverse hop
    // even though the traceroute fell short of the current hop.
    for (std::size_t i = tr.hops.size(); i-- > 0;) {
      if (tr.hops[i].addr) {
        penultimate = tr.hops[i].addr;
        reached = true;
        break;
      }
    }
  }
  if (tr.reached && tr.hops.size() >= 2) {
    // Last responsive hop before the destination.
    for (std::size_t i = tr.hops.size() - 1; i-- > 0;) {
      if (tr.hops[i].addr) {
        penultimate = tr.hops[i].addr;
        break;
      }
    }
  } else if (tr.reached && tr.hops.size() == 1) {
    // The current hop is directly adjacent to the source: the reverse path
    // is done once we step onto the source itself.
    penultimate = src_addr_;
  }
  if (config().use_cache) {
    engine_.caches_->tr.insert_or_assign(
        cache_key(current_, source_),
        TrCacheEntry{penultimate, reached, clock_.now() + kCacheTtl});
  }
  apply_symmetry(penultimate, reached);
}

void RequestTask::apply_symmetry(std::optional<Ipv4Addr> penultimate,
                                 bool reached) {
  const auto report = [this](const char* outcome, obs::Counter* counter) {
    annotate_stage("outcome", outcome);
    if (metrics() != nullptr) counter->add();
  };
  if (!reached || !penultimate || already_in_path(*penultimate)) {
    report("stuck",
           metrics() != nullptr ? metrics()->symmetry_stuck : nullptr);
    close_stage();
    result_.status = RevtrStatus::kUnreachable;
    finish();
    return;
  }
  const auto as_p = engine_.ip2as_.lookup(*penultimate);
  const auto as_c = engine_.ip2as_.lookup(current_);
  const bool intradomain = as_p && as_c && *as_p == *as_c;
  if (!intradomain && !config().allow_interdomain_symmetry) {
    // Q5: interdomain symmetry is right only ~57% of the time — abort
    // rather than return an untrustworthy path (Insight 1.10).
    report("aborted",
           metrics() != nullptr ? metrics()->symmetry_aborted : nullptr);
    close_stage();
    result_.status = RevtrStatus::kAbortedInterdomainSymmetry;
    finish();
    return;
  }
  if (!intradomain) result_.used_interdomain_symmetry = true;
  ++result_.symmetry_assumptions;
  result_.hops.push_back(
      ReverseHop{*penultimate, HopSource::kAssumedSymmetric});
  current_ = *penultimate;
  annotate_stage("intradomain", intradomain ? "1" : "0");
  report("extended",
         metrics() != nullptr ? metrics()->symmetry_extended : nullptr);
  close_stage();
  stage_ = Stage::kLoopHead;
}

// --- Shared helpers ---------------------------------------------------------

bool RequestTask::already_in_path(Ipv4Addr addr) const {
  // Scan the SoA address column directly: a contiguous run of 4-byte
  // addresses, so the common miss case stays in one cache line per 16 hops.
  const auto addrs = result_.hops.addrs();
  const auto sources = result_.hops.sources();
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] == addr && sources[i] != HopSource::kSuspiciousGap) {
      return true;
    }
  }
  return false;
}

bool RequestTask::append_reverse_hops(std::span<const Ipv4Addr> revealed,
                                      HopSource source) {
  bool progressed = false;
  for (const Ipv4Addr addr : revealed) {
    if (addr.is_unspecified() || already_in_path(addr)) continue;
    result_.hops.push_back(ReverseHop{addr, source});
    if (addr.is_private()) {
      result_.has_private_hops = true;
      continue;  // Cannot continue the measurement from private space.
    }
    current_ = addr;
    progressed = true;
    if (addr == src_addr_) break;  // Reached the source.
  }
  return progressed;
}

void RequestTask::finalize_flags() {
  if (!config().flag_suspicious_links || !result_.complete()) return;
  const auto addrs = result_.ip_hops();
  const auto as_path = engine_.ip2as_.as_path(addrs);
  const auto suspicious =
      engine_.relationships_.suspicious_links_in(as_path);
  if (suspicious.empty()) return;
  result_.has_suspicious_gap = true;
  // Insert a "*" at the IP-level boundary of each suspicious AS pair.
  for (const std::size_t link : suspicious) {
    const topology::Asn from_as = as_path[link];
    const topology::Asn to_as = as_path[link + 1];
    for (std::size_t h = 0; h + 1 < result_.hops.size(); ++h) {
      if (result_.hops[h].source == HopSource::kSuspiciousGap ||
          result_.hops[h + 1].source == HopSource::kSuspiciousGap) {
        continue;
      }
      const auto a = engine_.ip2as_.lookup(result_.hops[h].addr);
      const auto b = engine_.ip2as_.lookup(result_.hops[h + 1].addr);
      if (a && b && *a == from_as && *b == to_as) {
        result_.hops.insert(h + 1,
                            ReverseHop{Ipv4Addr{}, HopSource::kSuspiciousGap});
        break;
      }
    }
  }
}

void RequestTask::finish() {
  result_.span.end = clock_.now();
  finalize_flags();
  if (trace_ != nullptr) {
    trace_->annotate(root_span_, "status", to_string(result_.status));
    // The root carries no cost of its own; stage spans own every probe
    // (I6: sum over spans == result.probes.total()).
    trace_->end_span(root_span_, clock_.now(), 0);
  }
  if (metrics() != nullptr) {
    switch (result_.status) {
      case RevtrStatus::kComplete:
        metrics()->requests_complete->add();
        break;
      case RevtrStatus::kAbortedInterdomainSymmetry:
        metrics()->requests_aborted->add();
        break;
      case RevtrStatus::kUnreachable:
        metrics()->requests_unreachable->add();
        break;
    }
    if (result_.dbr_suspect) metrics()->dbr_suspects->add();
    metrics()->latency_us->record(
        static_cast<std::uint64_t>(result_.span.duration()));
    metrics()->request_probes->record(result_.probes.total());
    metrics()->request_hops->record(result_.hops.size());
    metrics()->spoofed_batches->record(result_.spoofed_batches);
  }
  stage_ = Stage::kDone;
}

std::unique_ptr<RequestTask> RevtrEngine::start_request(HostId destination,
                                                        HostId source,
                                                        util::SimClock& clock,
                                                        util::Rng& rng,
                                                        obs::Trace* trace) {
  return std::make_unique<RequestTask>(*this, destination, source, clock, rng,
                                       trace);
}

RequestExecutor::RequestExecutor(RevtrEngine& engine,
                                 sched::ProbeScheduler& scheduler,
                                 std::size_t owner)
    : engine_(engine), scheduler_(scheduler), owner_(owner) {}

void RequestExecutor::start(HostId destination, HostId source,
                            util::SimClock::Micros start_us,
                            std::uint64_t rng_seed,
                            std::optional<obs::Trace> trace,
                            FinishHandler on_finish) {
  const auto id = next_id_++;
  Request& request = active_.try_emplace(id, rng_seed).first->second;
  request.clock.advance_to(start_us);
  request.trace = std::move(trace);
  request.on_finish = std::move(on_finish);
  request.task = engine_.start_request(
      destination, source, request.clock, request.rng,
      request.trace ? &*request.trace : nullptr);
  step(id, request);
}

std::size_t RequestExecutor::resume_ready() {
  auto ready = scheduler_.collect_ready(owner_);
  for (auto& resolved : ready) {
    Request& request = active_.at(resolved.task);
    request.task->supply(resolved.outcomes);
    step(resolved.task, request);
  }
  return ready.size();
}

std::size_t RequestExecutor::round(probing::Prober* prober) {
  const std::size_t issued =
      prober != nullptr ? scheduler_.pump(*prober, owner_).issued : 0;
  const std::size_t resumed = resume_ready();
  if (issued == 0 && resumed == 0) {
    // Our outcomes ride on a probe someone else executes (another owner's
    // pump, or a remote agent), or our demands are throttled until the next
    // round's token refill: then the wait returns at once and the next pump
    // is that round.
    scheduler_.wait_for_owner(owner_, /*claims=*/prober != nullptr);
  }
  return resumed;
}

void RequestExecutor::step(sched::ProbeScheduler::TaskId id,
                           Request& request) {
  const auto demands = request.task->advance();
  if (!request.task->done()) {
    scheduler_.submit(id, owner_, {demands.begin(), demands.end()});
    return;
  }
  auto result = request.task->take_result();
  auto trace = std::move(request.trace);
  const FinishHandler on_finish = std::move(request.on_finish);
  active_.erase(id);
  on_finish(std::move(result), std::move(trace));
}

}  // namespace revtr::core
