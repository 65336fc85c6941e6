// Operating Reverse Traceroute as a service (Appx A).
//
// The paper's deployment is open to external users: users register, add
// their own hosts as sources (a ~15-minute bootstrap builds the source's
// traceroute atlas and Q2 RR index and verifies the source can receive RR
// packets), and issue rate-limited measurement requests. This module models
// that operational layer on top of the engine, including the batch campaign
// driver whose simulated-time accounting backs the throughput and latency
// numbers (§5.1, §5.2.4, Fig 5c).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/revtr.h"
#include "obs/metrics.h"
#include "util/sim_clock.h"
#include "util/stats.h"

namespace revtr::service {

using UserId = std::uint32_t;

struct UserLimits {
  std::size_t daily_limit = 100000;
  // Per-day wire-probe budget. Requests are also metered by the packets
  // they cost, not just their count: a single request can demand hundreds
  // of probes (RR fan-out, spoofed batches), and the deployment's scarce
  // resource is vantage-point probing capacity.
  std::uint64_t daily_probe_budget = 1'000'000;
};

// The probe cost of one measurement against a user's daily probe budget.
// `demanded` counts every probe the measurement asked for; `refunded`
// counts the demands the scheduler satisfied by coalescing onto another
// request's in-flight probe — no wire packet was spent on those, so they
// are handed back and the net charge covers uniquely-issued probes only.
struct ProbeCharge {
  std::uint64_t demanded = 0;  // Issued + coalesced.
  std::uint64_t refunded = 0;  // Coalesced duplicates (no wire cost).
  std::uint64_t net() const noexcept { return demanded - refunded; }
};
ProbeCharge probe_cost_of(const core::ReverseTraceroute& result) noexcept;

struct SourceRecord {
  topology::HostId host = topology::kInvalidId;
  bool receives_rr = false;
  util::SimClock::Micros bootstrapped_at = 0;
  util::SimClock::Micros bootstrap_duration = 0;
  util::SimClock::Micros atlas_refreshed_at = 0;
  std::size_t atlas_size = 0;
};

// Per-request tuning knobs the real API exposes (Appx A): how stale the
// atlas may be, and whether to bundle a forward traceroute.
struct RequestOptions {
  // 0 = accept any staleness. Otherwise the source's atlas is refreshed
  // before measuring if it is older than this.
  util::SimClock::Micros max_atlas_age = 0;
  bool with_forward_traceroute = false;
};

struct ServedMeasurement {
  core::ReverseTraceroute reverse;
  std::optional<probing::TracerouteResult> forward;
  bool atlas_refreshed = false;  // Request triggered an atlas refresh.
};

struct CampaignStats {
  std::size_t requested = 0;
  std::size_t completed = 0;
  std::size_t aborted = 0;
  std::size_t unreachable = 0;
  probing::ProbeCounters probes;
  util::Distribution latency_seconds;
  double busy_seconds = 0;      // Summed measurement latencies.
  // Modelled campaigns: busy / parallelism. Real parallel campaigns
  // (service/parallel.h): the busiest worker's simulated time.
  double duration_seconds = 0;

  // Folds one finished measurement in: its status, latency and busy time.
  void record(const core::ReverseTraceroute& result);

  double coverage() const noexcept {
    return requested == 0 ? 0.0
                          : static_cast<double>(completed) /
                                static_cast<double>(requested);
  }
  // Requests disposed of per second of campaign duration, whatever their
  // outcome. The old throughput_per_second() reported this number as "the"
  // throughput, which inflated Fig 5c-style results: aborted and
  // unreachable requests counted the same as delivered paths while
  // coverage() counted only completed ones. Callers now pick explicitly.
  double processed_per_second() const noexcept {
    return duration_seconds <= 0
               ? 0.0
               : static_cast<double>(completed + aborted + unreachable) /
                     duration_seconds;
  }
  // Completed reverse traceroutes per second — the paper-comparable rate
  // (Fig 5c reports delivered measurements).
  double completed_per_second() const noexcept {
    return duration_seconds <= 0
               ? 0.0
               : static_cast<double>(completed) / duration_seconds;
  }
};

// Registry handles for the operational layer: quota accounting, NDT load
// shedding, and maintenance activity.
struct ServiceMetrics {
  explicit ServiceMetrics(obs::MetricsRegistry& registry);

  // revtr_service_quota_total{event=...}: charge on accept, refund when the
  // measurement fails to deliver a path, reject when over the daily limit.
  obs::Counter* quota_charges;
  obs::Counter* quota_refunds;
  obs::Counter* quota_rejections;
  // revtr_service_probe_quota_total{event=...}: probe-budget accounting.
  // Every demanded probe is charged, then coalesced duplicates are refunded
  // (net = uniquely-issued probes); reject when a user's budget is spent.
  obs::Counter* probe_quota_charged;
  obs::Counter* probe_quota_refunded;
  obs::Counter* probe_quota_rejections;
  // revtr_service_ndt_total{outcome=...}
  obs::Counter* ndt_accepted;
  obs::Counter* ndt_shed;
  obs::Counter* request_atlas_refreshes;
  obs::Counter* daily_refreshes;
  obs::Counter* sources_bootstrapped;
};

class RevtrService {
 public:
  RevtrService(core::RevtrEngine& engine, atlas::TracerouteAtlas& atlas,
               probing::Prober& prober, const topology::Topology& topo);

  // nullptr (default) = no instrumentation; handles must outlive their use.
  void set_metrics(const ServiceMetrics* metrics) noexcept {
    metrics_ = metrics;
  }

  // --- Users (manual registration in the real system). ---
  UserId add_user(std::string name, UserLimits limits = {});

  // --- Sources. ---
  // Bootstraps sources from `candidates`, in order: verifies RR packets
  // reach each candidate (offline probes on the service prober) until
  // `max_sources` have passed, then builds every passing host's atlas from
  // `atlas_size` probe hosts (Q1) and indexes its RR aliases (Q2), both
  // fanned out over the process's CPUs (TracerouteAtlas's list builds).
  // Each source's bootstrap is charged to the service clock in order, so
  // records, atlases, draws from `rng` and the clock read as if the hosts
  // had been added one by one. Returns the bootstrapped hosts.
  std::vector<topology::HostId> add_sources(
      std::span<const topology::HostId> candidates, std::size_t atlas_size,
      util::Rng& rng,
      std::size_t max_sources = std::numeric_limits<std::size_t>::max());
  // One candidate; false when the host cannot receive RR probes.
  bool add_source(topology::HostId host, std::size_t atlas_size,
                  util::Rng& rng);
  bool is_source(topology::HostId host) const {
    return sources_.contains(host);
  }
  const SourceRecord* source_record(topology::HostId host) const;

  // --- Quota surface (used directly by revtr_serverd, which runs the
  // measurement itself on its own staged workers and only needs the
  // tenant accounting). All three mirror exactly what request() does
  // around its engine call. Not thread-safe; the daemon serializes calls
  // under its own mutex. ---
  // Outcome of a try_charge_request() admission check.
  enum class QuotaDecision : std::uint8_t {
    kCharged,               // One request charged; pair with refund_request
                            // if no path is delivered.
    kUnknownUser,
    kQuotaExhausted,        // Daily request-count limit spent.
    kProbeBudgetExhausted,  // Daily probe budget spent.
  };
  // Charges one request against `user`'s daily limit (counted up front, the
  // same pre-charge request() performs).
  QuotaDecision try_charge_request(UserId user);
  // Hands back one pre-charged request that delivered no path (shed, or a
  // measurement that came back without a complete reverse route).
  void refund_request(UserId user);
  // Charges a finished measurement's probe cost (net of coalescing refunds)
  // against `user`'s daily probe budget.
  void charge_probes_for(UserId user, const core::ReverseTraceroute& result);
  // Requests currently charged against the daily limit. 0 for unknown users.
  std::size_t requests_charged_today(UserId user) const;

  // --- Measurements. ---
  // On-demand request. Fails (nullopt) on unknown user, unregistered
  // source, or exceeded daily quota.
  std::optional<core::ReverseTraceroute> request(UserId user,
                                                 topology::HostId destination,
                                                 topology::HostId source);

  // Probes charged against `user`'s daily probe budget so far, net of
  // coalescing refunds (see ProbeCharge). 0 for unknown users.
  std::uint64_t probes_charged_today(UserId user) const;

  // Full-featured request honouring RequestOptions (Appx A API).
  std::optional<ServedMeasurement> request_with_options(
      UserId user, topology::HostId destination, topology::HostId source,
      const RequestOptions& options, util::Rng& rng);

  // --- NDT-triggered measurements (Appx A). ---
  // When an NDT speed-test client connects to an M-Lab server, the service
  // opportunistically measures the reverse path from the client. Requests
  // are accepted only while the per-day NDT budget lasts (load shedding).
  struct NdtStats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_load = 0;
  };
  void set_ndt_daily_budget(std::size_t budget) { ndt_budget_ = budget; }
  std::optional<ServedMeasurement> on_ndt_measurement(
      topology::HostId client, topology::HostId server);
  const NdtStats& ndt_stats() const noexcept { return ndt_stats_; }

  // --- Validation. Every served measurement (user-driven, campaign, or
  // NDT) is handed to this inspector (paranoid mode:
  // analysis::ResultValidator re-checks the invariant catalog and counts
  // violations). ---
  using ResultInspector = std::function<void(const core::ReverseTraceroute&)>;
  void set_inspector(ResultInspector inspector) {
    inspector_ = std::move(inspector);
  }

  // Batch campaign: measurements run on `parallelism` concurrent slots; the
  // campaign duration is the summed busy time divided by the slot count.
  CampaignStats run_campaign(
      std::span<const std::pair<topology::HostId, topology::HostId>> pairs,
      std::size_t parallelism);

  // Daily maintenance: refresh every source's atlas and rebuild its RR
  // index (fanned out like add_sources), reset user quotas, drop engine
  // caches.
  void daily_refresh(util::Rng& rng);

  util::SimClock& clock() noexcept { return clock_; }
  const util::SimClock& clock() const noexcept { return clock_; }

 private:
  struct UserState {
    std::string name;
    UserLimits limits;
    std::size_t issued_today = 0;
    std::uint64_t probes_charged_today = 0;  // Net of coalescing refunds.
  };

  // Charges `result`'s probe cost to `state` and counts the charge/refund
  // metrics. Probes were spent on the wire whether or not the measurement
  // delivered a path, so (unlike the request-count quota) there is no
  // failure refund — only coalesced duplicates are handed back.
  void charge_probes(UserState& state, const core::ReverseTraceroute& result);

  core::RevtrEngine& engine_;
  atlas::TracerouteAtlas& atlas_;
  probing::Prober& prober_;
  const topology::Topology& topo_;
  util::SimClock clock_;

  std::unordered_map<UserId, UserState> users_;
  std::unordered_map<topology::HostId, SourceRecord> sources_;
  UserId next_user_ = 1;
  void inspect(const core::ReverseTraceroute& measurement) {
    if (inspector_) inspector_(measurement);
  }

  const ServiceMetrics* metrics_ = nullptr;
  std::size_t ndt_budget_ = 1000;
  std::size_t ndt_issued_today_ = 0;
  NdtStats ndt_stats_;
  ResultInspector inspector_;
};

}  // namespace revtr::service
