#include "service/parallel.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "core/request_task.h"
#include "probing/prober.h"
#include "sim/network.h"
#include "util/thread_pool.h"

namespace revtr::service {

namespace {

// One worker's private measurement stack. Members reference earlier members
// (prober holds the network, engine holds the prober), so stacks live behind
// unique_ptr and never move.
struct WorkerStack {
  sim::Network network;
  probing::Prober prober;
  core::RevtrEngine engine;
  util::SimClock clock;
  CampaignStats local;  // This worker's accumulator; merged at the barrier.

  WorkerStack(const CampaignDeps& deps, const core::EngineConfig& config,
              std::uint64_t net_seed,
              std::shared_ptr<core::EngineCaches> caches)
      : network(deps.topo, deps.plane, net_seed),
        prober(network),
        engine(prober, deps.topo, deps.atlas, deps.ingress, deps.ip2as,
               deps.relationships, config, net_seed) {
    engine.set_shared_caches(std::move(caches));
  }
};

}  // namespace

ParallelCampaignDriver::ParallelCampaignDriver(const CampaignDeps& deps,
                                              ParallelCampaignOptions options)
    : deps_(deps), options_(options) {}

void ParallelCampaignDriver::precompute_ingress_plans() {
  util::Rng rng(util::mix_hash(options_.seed, 0x1a9e55ULL));
  for (const auto& prefix : deps_.topo.prefixes()) {
    if (deps_.ingress.plan_for(prefix.id) == nullptr) {
      deps_.ingress.discover(prefix.id, deps_.topo.vantage_points(), rng);
    }
  }
}

ParallelCampaignReport ParallelCampaignDriver::run(
    std::span<const std::pair<topology::HostId, topology::HostId>> pairs) {
  const auto wall_begin = std::chrono::steady_clock::now();

  // Every prefix gets its ingress plan now, on this thread, through the
  // ingress module's own prober. Workers then only ever *read* plans, and a
  // plan pointer held across a spoofed batch cannot be invalidated by a
  // concurrent on-demand survey.
  precompute_ingress_plans();

  const std::size_t workers = std::max<std::size_t>(options_.workers, 1);
  // All workers share one cache and one network seed: identical seeds plus
  // content-addressed probe outcomes mean a request's result is independent
  // of which worker runs it.
  auto caches = std::make_shared<core::EngineCaches>();
  const std::uint64_t net_seed = util::mix_hash(options_.seed, 0x6e7ULL);
  std::vector<std::unique_ptr<WorkerStack>> stacks;
  stacks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    stacks.push_back(std::make_unique<WorkerStack>(deps_, options_.engine,
                                                   net_seed, caches));
  }

  // Metric handles are registered once, up front, and shared by every
  // worker: the counters shard internally per worker thread, so attaching
  // the same handle set to all stacks is both correct and the cheap path.
  std::optional<probing::ProbeMetrics> probe_metrics;
  std::optional<core::EngineMetrics> engine_metrics;
  if (options_.metrics != nullptr) {
    probe_metrics.emplace(*options_.metrics);
    engine_metrics.emplace(*options_.metrics);
    for (const auto& stack : stacks) {
      stack->prober.set_metrics(&*probe_metrics);
      stack->engine.set_metrics(&*engine_metrics);
    }
  }

  ParallelCampaignReport report;
  report.results.resize(pairs.size());

  // Shared by both modes: fold one finished measurement into a worker's
  // private accumulator (merged at the barrier below).
  const auto account = [](CampaignStats& local,
                          const core::ReverseTraceroute& result) {
    const double latency = result.span.seconds();
    local.latency_seconds.add(latency);
    local.busy_seconds += latency;
    switch (result.status) {
      case core::RevtrStatus::kComplete:
        ++local.completed;
        break;
      case core::RevtrStatus::kAbortedInterdomainSymmetry:
        ++local.aborted;
        break;
      case core::RevtrStatus::kUnreachable:
        ++local.unreachable;
        break;
    }
  };

  if (options_.mode == EngineMode::kStaged) {
    // One scheduler shared by every worker: coalescing and per-VP windows
    // apply across the whole campaign, not per worker. Each worker loop
    // multiplexes the requests it owns (input index ≡ worker mod workers)
    // as resumable tasks and pumps only its own demands, executing them on
    // its own stack outside the scheduler lock; a demand identical to one
    // in flight on another worker rides on that probe.
    sched::ProbeScheduler scheduler(options_.sched);
    std::optional<sched::SchedMetrics> sched_metrics;
    if (options_.metrics != nullptr) {
      sched_metrics.emplace(*options_.metrics);
      scheduler.set_metrics(&*sched_metrics);
    }

    const auto pump_loop = [&](std::size_t w) {
      WorkerStack& stack = *stacks[w];
      // A task holds references into its ActiveRequest for the whole
      // measurement; unordered_map keeps element addresses stable.
      struct ActiveRequest {
        std::size_t index = 0;
        util::SimClock clock;
        util::Rng rng;
        std::optional<obs::Trace> trace;
        std::unique_ptr<core::RequestTask> task;
        explicit ActiveRequest(std::uint64_t rng_seed) : rng(rng_seed) {}
      };
      std::unordered_map<sched::ProbeScheduler::TaskId, ActiveRequest> active;
      std::size_t outstanding = 0;

      const auto finalize = [&](ActiveRequest& request) {
        auto result = request.task->take_result();
        if (request.trace) {
          options_.trace_sink->publish(*std::move(request.trace));
        }
        account(stack.local, result);
        report.results[request.index] = std::move(result);
      };

      // Admission: every owned request starts (and submits its first demand
      // set) before the first pump, so overlapping initial demands coalesce.
      // The per-request RNG seed matches blocking mode's per-request reseed,
      // and each request gets a fresh clock — its simulated latency is its
      // own probes' durations, same as a blocking slot.
      for (std::size_t i = w; i < pairs.size(); i += stacks.size()) {
        auto [it, inserted] = active.try_emplace(
            i, util::mix_hash(options_.seed, i, 0xca3aULL));
        ActiveRequest& request = it->second;
        request.index = i;
        if (options_.trace_sink != nullptr && options_.trace_sample_every > 0 &&
            i % options_.trace_sample_every == 0) {
          request.trace.emplace();
          request.trace->request_index = i;
        }
        request.task = stack.engine.start_request(
            pairs[i].first, pairs[i].second, request.clock, request.rng,
            request.trace ? &*request.trace : nullptr);
        const auto demands = request.task->advance();
        if (request.task->done()) {  // Atlas hit or trivial request.
          finalize(request);
          active.erase(it);
          continue;
        }
        scheduler.submit(i, w, {demands.begin(), demands.end()});
        ++outstanding;
      }

      while (outstanding > 0) {
        const auto pumped = scheduler.pump(stack.prober, w);
        auto ready = scheduler.collect_ready(w);
        for (auto& resolved : ready) {
          const auto it = active.find(resolved.task);
          REVTR_CHECK(it != active.end());
          ActiveRequest& request = it->second;
          request.task->supply(resolved.outcomes);
          const auto demands = request.task->advance();
          if (request.task->done()) {
            finalize(request);
            active.erase(it);
            --outstanding;
            continue;
          }
          scheduler.submit(resolved.task, w, {demands.begin(), demands.end()});
        }
        if (options_.pacing_scale > 0 && pumped.round_duration_us > 0) {
          // Probes within a pump round are concurrent: the round costs its
          // longest probe, not the sum (contrast blocking mode, which holds
          // a slot for a whole request's latency).
          std::this_thread::sleep_for(std::chrono::duration<double>(
              static_cast<double>(pumped.round_duration_us) * 1e-6 *
              options_.pacing_scale));
        } else if (ready.empty() && pumped.issued == 0) {
          // Nothing issued, nothing resumed: our outcomes ride on another
          // worker's in-flight probe or our demands are throttled until the
          // next round's token refill. Yield rather than spin hot.
          std::this_thread::yield();
        }
      }
    };

    // Plain threads, not the pool: each worker runs exactly one long-lived
    // pump loop. A worker exception is rethrown after the barrier.
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
  } else {
    util::ThreadPool pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const topology::HostId destination = pairs[i].first;
      const topology::HostId source = pairs[i].second;
      futures.push_back(pool.submit([this, &stacks, &report, &account, i,
                                     destination, source] {
        const std::size_t w = util::ThreadPool::current_worker();
        REVTR_CHECK(w != util::ThreadPool::kNotAWorker);
        WorkerStack& stack = *stacks[w];
        // Per-request reseed from (campaign seed, request index): any
        // residual RNG use in the engine draws the same stream no matter
        // which worker runs the request or what ran before it.
        stack.engine.reseed(util::mix_hash(options_.seed, i, 0xca3aULL));
        // Sampling by input index keeps the sampled *set* independent of
        // which worker picks the task up; the Trace itself is thread-private
        // until published.
        const bool sampled = options_.trace_sink != nullptr &&
                             options_.trace_sample_every > 0 &&
                             i % options_.trace_sample_every == 0;
        std::optional<obs::Trace> trace;
        if (sampled) {
          trace.emplace();
          trace->request_index = i;
          stack.engine.set_trace(&*trace);
        }
        auto result = stack.engine.measure(destination, source, stack.clock);
        if (sampled) {
          stack.engine.set_trace(nullptr);
          options_.trace_sink->publish(*std::move(trace));
        }
        account(stack.local, result);
        const double latency = result.span.seconds();
        report.results[i] = std::move(result);
        // Latency pacing: hold this worker slot for real time proportional
        // to the simulated request latency, modelling the deployment's
        // latency-bound slots (most of a request is spent waiting out 10 s
        // spoofed-batch timeouts, §5.2.4).
        if (options_.pacing_scale > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              latency * options_.pacing_scale));
        }
      }));
    }
    // The barrier: get() rethrows anything a worker task threw.
    for (auto& future : futures) future.get();
  }

  // Merge per-worker accumulators. Workers are joined; no locks needed.
  CampaignStats& stats = report.stats;
  stats.requested = pairs.size();
  double slowest_worker = 0;
  for (const auto& stack : stacks) {
    const CampaignStats& local = stack->local;
    stats.completed += local.completed;
    stats.aborted += local.aborted;
    stats.unreachable += local.unreachable;
    stats.latency_seconds.add_all(local.latency_seconds.samples());
    stats.busy_seconds += local.busy_seconds;
    stats.probes += stack->prober.counters();  // Overflow-checked merge.
    report.worker_busy_seconds.push_back(local.busy_seconds);
    slowest_worker = std::max(slowest_worker, local.busy_seconds);
  }
  // The campaign is as long (in simulated time) as its busiest worker.
  stats.duration_seconds = slowest_worker;

  // Merge-at-barrier snapshot: workers are joined, so the sharded counters
  // hold every request's contribution and the snapshot is deterministic for
  // a given measurement set.
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
