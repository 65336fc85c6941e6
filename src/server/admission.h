// Admission control for the measurement daemon: per-tenant token buckets,
// bounded queues, scheduler backpressure, and deadline-aware load shedding.
//
// The controller generalizes the engine's NDT shed path (give up on a
// request whose deadline cannot be met) from one measurement to the whole
// submission pipeline: a request that would sit in queue past its deadline
// is refused at the door (kDeadlineUnmeetable) instead of wasting probe
// budget on an answer nobody will read — the rationing argument of Donnet
// et al. applied at the service boundary.
//
// The controller holds no lock of its own; ServerDaemon owns one instance
// and calls it under the daemon mutex. Quota checks (daily request/probe
// budgets) stay in RevtrService — admission decides whether the *system*
// can take the request, the service decides whether the *tenant* may.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "server/frame.h"

namespace revtr::server {

struct TokenBucketOptions {
  double rate_per_sec = 2000.0;  // Sustained submits per second.
  double burst = 256.0;          // Bucket depth.
};

// Standard token bucket on a microsecond clock. Not thread-safe; callers
// synchronize externally (the daemon serializes all admission decisions).
class TokenBucket {
 public:
  explicit TokenBucket(TokenBucketOptions options)
      : options_(options), tokens_(options.burst) {}

  // Consumes one token if available, refilling for elapsed time first.
  bool try_take(std::int64_t now_us);

  double tokens() const { return tokens_; }

 private:
  TokenBucketOptions options_;
  double tokens_;
  std::int64_t last_refill_us_ = 0;
};

struct AdmissionConfig {
  // Bounded submission queue (all priorities combined). Beyond this the
  // daemon refuses rather than buffering unboundedly.
  std::size_t queue_capacity = 1024;
  // Refuse new work while the ProbeScheduler holds more unfinished demand
  // sets than this — the queue bound alone cannot see demand the workers
  // have already handed to the scheduler.
  std::size_t sched_backlog_limit = 4096;
  std::size_t workers = 2;
};

// Instantaneous load the daemon samples before each decision.
struct AdmissionLoad {
  std::size_t queued = 0;         // Requests waiting in the daemon queue.
  std::size_t inflight = 0;       // Requests being measured right now.
  std::size_t sched_backlog = 0;  // ProbeScheduler::backlog().
  bool draining = false;
};

// Weighted fair queue over (priority level, tenant): strict priority across
// levels, start-time fair queuing across the tenants within one level. Each
// pushed item gets a finish tag `max(level virtual time, flow's last tag) +
// 1/weight`; pop takes the minimum head tag in the highest non-empty level
// (ties break toward the smaller flow id, keeping pops deterministic). A
// flooding tenant therefore interleaves ~weight-proportionally with everyone
// else at its level instead of starving them (tests/server_test.cpp pins
// this). Not thread-safe; the daemon holds its mutex around every call.
template <typename T>
class FairQueue {
 public:
  // Weight for a flow (tenant) id; clamped to a small positive floor so a
  // zero/negative weight cannot park a flow forever. Flows never registered
  // get weight 1.
  void set_weight(std::uint32_t flow, double weight) {
    if (weights_.size() <= flow) weights_.resize(flow + 1, 1.0);
    weights_[flow] = weight > 1e-6 ? weight : 1e-6;
  }

  void push(std::size_t level, std::uint32_t flow, T item) {
    Level& lvl = levels_[level];
    Flow& f = lvl.flows[flow];
    const double tag =
        (f.last_tag > lvl.vtime ? f.last_tag : lvl.vtime) + 1.0 / weight(flow);
    f.last_tag = tag;
    f.items.emplace_back(tag, std::move(item));
    ++lvl.size;
    ++size_;
  }

  // Pops the next item, or nullopt when empty.
  std::optional<T> pop() {
    for (Level& lvl : levels_) {
      if (lvl.size == 0) continue;
      auto best = lvl.flows.end();
      for (auto it = lvl.flows.begin(); it != lvl.flows.end(); ++it) {
        if (it->second.items.empty()) continue;
        if (best == lvl.flows.end() ||
            it->second.items.front().first < best->second.items.front().first) {
          best = it;
        }
      }
      auto [tag, item] = std::move(best->second.items.front());
      best->second.items.pop_front();
      if (tag > lvl.vtime) lvl.vtime = tag;
      // Idle flows are dropped so tag state cannot grow unboundedly; their
      // next push restarts at the level's virtual time.
      if (best->second.items.empty()) lvl.flows.erase(best);
      --lvl.size;
      --size_;
      return std::move(item);
    }
    return std::nullopt;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Flow {
    std::deque<std::pair<double, T>> items;  // (finish tag, item), FIFO.
    double last_tag = 0.0;
  };
  struct Level {
    std::map<std::uint32_t, Flow> flows;
    double vtime = 0.0;
    std::size_t size = 0;
  };

  double weight(std::uint32_t flow) const {
    return flow < weights_.size() ? weights_[flow] : 1.0;
  }

  std::array<Level, kPriorityLevels> levels_;
  std::vector<double> weights_;
  std::size_t size_ = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  // Registers a tenant's token bucket; tenant ids are dense and small
  // (RevtrService user ids start at 1).
  void add_tenant(std::uint32_t tenant, TokenBucketOptions bucket);

  // Returns the reason to refuse, or nullopt to admit. Checks in order:
  // draining, deadline already expired, tenant rate limit, queue capacity,
  // scheduler backpressure, deadline unmeetable under estimated wait.
  std::optional<RejectReason> decide(std::uint32_t tenant,
                                     std::int64_t deadline_us,
                                     std::int64_t now_us,
                                     const AdmissionLoad& load);

  // Feeds one finished request's wall latency into the wait estimator.
  void observe_latency(std::int64_t wall_us);

  // Estimated queue wait for a newly admitted request, in micros: smoothed
  // per-request latency times queue depth ahead of it, divided across the
  // worker pool. Zero until the first completion is observed.
  std::int64_t estimated_wait_us(const AdmissionLoad& load) const;

  double smoothed_latency_us() const { return ewma_latency_us_; }

 private:
  AdmissionConfig config_;
  std::vector<TokenBucket> buckets_;  // Indexed by tenant id.
  double ewma_latency_us_ = 0.0;
};

}  // namespace revtr::server
