#include "service/parallel.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "core/request_task.h"
#include "util/cpus.h"

namespace revtr::service {

ParallelCampaignDriver::ParallelCampaignDriver(const core::StackDeps& deps,
                                               ParallelCampaignOptions options)
    : deps_(deps), options_(options) {}

void ParallelCampaignDriver::precompute_ingress_plans() {
  std::vector<topology::PrefixId> unplanned;
  for (const auto& prefix : deps_.topo.prefixes()) {
    if (deps_.ingress.plan_for(prefix.id) == nullptr) {
      unplanned.push_back(prefix.id);
    }
  }
  util::Rng rng(util::mix_hash(options_.seed, 0x1a9e55ULL));
  deps_.ingress.discover_all(unplanned, deps_.topo.vantage_points(), rng,
                             util::available_cpus());
}

ParallelCampaignReport ParallelCampaignDriver::run(
    std::span<const std::pair<topology::HostId, topology::HostId>> pairs) {
  const auto wall_begin = std::chrono::steady_clock::now();

  // Every prefix gets its ingress plan now, before any worker starts.
  // Workers then only ever *read* plans, and a plan pointer held across a
  // spoofed batch cannot be invalidated by a concurrent on-demand survey.
  precompute_ingress_plans();

  const std::size_t workers = std::max<std::size_t>(options_.workers, 1);
  // All workers share one cache and one network seed: identical seeds plus
  // content-addressed probe outcomes mean a request's result is independent
  // of which worker runs it.
  auto caches = std::make_shared<core::EngineCaches>();
  std::vector<std::unique_ptr<core::WorkerStack>> stacks;
  stacks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    stacks.push_back(std::make_unique<core::WorkerStack>(
        deps_, options_.engine, options_.seed, caches));
  }
  std::vector<CampaignStats> local(workers);  // Merged at the barrier.

  // One scheduler shared by every worker: coalescing and per-VP windows
  // apply across the whole campaign, not per worker.
  sched::ProbeScheduler scheduler(options_.sched);

  // Metric handles are registered once, up front, and shared by every
  // worker: the counters shard internally per worker thread, so attaching
  // the same handle set to all stacks is both correct and the cheap path.
  std::optional<probing::ProbeMetrics> probe_metrics;
  std::optional<core::EngineMetrics> engine_metrics;
  std::optional<sched::SchedMetrics> sched_metrics;
  if (options_.metrics != nullptr) {
    probe_metrics.emplace(*options_.metrics);
    engine_metrics.emplace(*options_.metrics);
    sched_metrics.emplace(*options_.metrics);
    for (const auto& stack : stacks) {
      stack->prober.set_metrics(&*probe_metrics);
      stack->engine.set_metrics(&*engine_metrics);
    }
    scheduler.set_metrics(&*sched_metrics);
  }

  ParallelCampaignReport report;
  report.results.resize(pairs.size());

  // Sampling by input index keeps the sampled *set* independent of which
  // worker runs the request; a Trace is thread-private until published.
  const auto sampled = [this](std::size_t i) {
    return options_.trace_sink != nullptr && options_.trace_sample_every > 0 &&
           i % options_.trace_sample_every == 0;
  };

  // Each worker loop multiplexes the requests it owns (input index ≡ worker
  // mod workers) through its own RequestExecutor and pumps only its own
  // demands, executing them on its own stack outside the scheduler lock.
  const auto pump_loop = [&](std::size_t w) {
    core::WorkerStack& stack = *stacks[w];
    core::RequestExecutor executor(stack.engine, scheduler, w);
    // Admission: every owned request starts (and submits its first demand
    // set) before the first pump, so overlapping initial demands coalesce.
    // Each request's RNG is seeded from (campaign seed, request index) and
    // its clock starts at 0, so its result and simulated latency do not
    // depend on the worker or on what else is in flight.
    for (std::size_t i = w; i < pairs.size(); i += workers) {
      std::optional<obs::Trace> trace;
      if (sampled(i)) {
        trace.emplace();
        trace->request_index = i;
      }
      executor.start(
          pairs[i].first, pairs[i].second, /*start_us=*/0,
          util::mix_hash(options_.seed, i, 0xca3aULL), std::move(trace),
          [&, w, i](core::ReverseTraceroute result,
                    std::optional<obs::Trace> finished) {
            if (finished) options_.trace_sink->publish(*std::move(finished));
            local[w].record(result);
            report.results[i] = std::move(result);
          });
    }

    while (executor.active() > 0) executor.round(&stack.prober);
  };

  // A worker exception is rethrown after the barrier.
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(workers);
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        pump_loop(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  report.sched = scheduler.stats();

  // Merge per-worker accumulators. Workers are joined; no locks needed.
  CampaignStats& stats = report.stats;
  stats.requested = pairs.size();
  double slowest_worker = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    stats.completed += local[w].completed;
    stats.aborted += local[w].aborted;
    stats.unreachable += local[w].unreachable;
    stats.latency_seconds.add_all(local[w].latency_seconds.samples());
    stats.busy_seconds += local[w].busy_seconds;
    stats.probes += stacks[w]->prober.counters();  // Overflow-checked merge.
    report.worker_busy_seconds.push_back(local[w].busy_seconds);
    slowest_worker = std::max(slowest_worker, local[w].busy_seconds);
  }
  // The campaign is as long (in simulated time) as its busiest worker.
  stats.duration_seconds = slowest_worker;

  // Merge-at-barrier snapshot: workers are joined, so the sharded counters
  // hold every request's contribution.
  if (options_.metrics != nullptr) {
    report.metrics = options_.metrics->snapshot();
  }

  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_begin)
          .count();
  return report;
}

}  // namespace revtr::service
