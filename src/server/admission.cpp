#include "server/admission.h"

#include <algorithm>

#include "util/check.h"

namespace revtr::server {

namespace {
// EWMA smoothing for the observed per-request wall latency that feeds the
// deadline-unmeetable estimate.
constexpr double kLatencyEwmaAlpha = 0.2;
}  // namespace

bool TokenBucket::try_take(std::int64_t now_us) {
  if (now_us > last_refill_us_) {
    const double elapsed_sec =
        static_cast<double>(now_us - last_refill_us_) / 1e6;
    tokens_ = std::min(options_.burst,
                       tokens_ + elapsed_sec * options_.rate_per_sec);
    last_refill_us_ = now_us;
  }
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void AdmissionController::add_tenant(std::uint32_t tenant,
                                     TokenBucketOptions bucket) {
  if (buckets_.size() <= tenant)
    buckets_.resize(tenant + 1, TokenBucket(TokenBucketOptions{}));
  buckets_[tenant] = TokenBucket(bucket);
}

std::optional<RejectReason> AdmissionController::decide(
    std::uint32_t tenant, std::int64_t deadline_us, std::int64_t now_us,
    const AdmissionLoad& load) {
  if (load.draining) return RejectReason::kDraining;
  if (deadline_us != 0 && deadline_us <= now_us)
    return RejectReason::kDeadlineExpired;
  REVTR_CHECK(tenant < buckets_.size());
  if (!buckets_[tenant].try_take(now_us)) return RejectReason::kRateLimited;
  if (load.queued >= config_.queue_capacity) return RejectReason::kQueueFull;
  if (load.sched_backlog > config_.sched_backlog_limit)
    return RejectReason::kBackpressure;
  if (deadline_us != 0 && now_us + estimated_wait_us(load) > deadline_us)
    return RejectReason::kDeadlineUnmeetable;
  return std::nullopt;
}

void AdmissionController::observe_latency(std::int64_t wall_us) {
  const double sample = static_cast<double>(std::max<std::int64_t>(wall_us, 0));
  if (ewma_latency_us_ == 0.0) {
    ewma_latency_us_ = sample;
    return;
  }
  ewma_latency_us_ += kLatencyEwmaAlpha * (sample - ewma_latency_us_);
}

std::int64_t AdmissionController::estimated_wait_us(
    const AdmissionLoad& load) const {
  if (ewma_latency_us_ == 0.0) return 0;
  const double ahead = static_cast<double>(load.queued + load.inflight);
  const double workers =
      static_cast<double>(std::max<std::size_t>(config_.workers, 1));
  return static_cast<std::int64_t>(ewma_latency_us_ * ahead / workers);
}

}  // namespace revtr::server
