// Parallel campaign scaling: one batch campaign on 1/2/4/8 real worker
// threads (service/parallel.h), every worker multiplexing its requests over
// one shared probe scheduler.
//
// Wall time here is CPU time: the simulator answers a probe at once, so a
// request's simulated 10 s spoofed-batch waits (§5.2.4) cost no real time,
// and extra workers help only as far as the host has cores for them. The
// bench asserts the driver's core promise: every worker count measures the
// *same* set of reverse traceroutes (per-request signature over endpoints,
// status, and hop sequence). A duplicate-heavy campaign then shows what
// cross-request coalescing saves. scripts/bench_delta.py gates three
// figures from here besides simulated latency: a single-worker campaign's
// wire probes per request (exact for a fixed seed) and CPU per request, and
// the CPU per request of the 4-worker overhead runs (each a median over
// --overhead-reps runs). The final line is a machine-readable JSON object.
#include <algorithm>
#include <ctime>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/parallel.h"
#include "util/json.h"

using namespace revtr;

namespace {

std::uint64_t campaign_signature(
    const std::vector<core::ReverseTraceroute>& results) {
  // Order-sensitive hash over each request's identity: results are indexed
  // by input position, so equal hashes mean equal measurement sets.
  std::uint64_t acc = 0x9e3779b97f4a7c15ULL;
  for (const auto& r : results) {
    std::string s = std::to_string(r.destination) + ">" +
                    std::to_string(r.source) + ":" + core::to_string(r.status);
    for (const auto& hop : r.hops) {
      s += '|';
      s += hop.addr.to_string();
      s += '/';
      s += core::to_string(hop.source);
    }
    acc = util::mix_hash(acc, std::hash<std::string>{}(s));
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  auto setup = bench::parse_setup(flags);
  setup.revtrs = static_cast<std::size_t>(flags.get_int("revtrs", 500));
  const auto dup_revtrs =
      static_cast<std::size_t>(flags.get_int("dup-revtrs", 96));
  const std::size_t sample_every = static_cast<std::size_t>(
      flags.get_int("trace-sample", 8));
  const int overhead_reps =
      std::max(1, static_cast<int>(flags.get_int("overhead-reps", 5)));
  const auto overhead_revtrs =
      static_cast<std::size_t>(flags.get_int("overhead-revtrs", 4000));
  bench::warn_unknown_flags(flags);
  bench::print_header("Parallel campaign scaling (real threads)", setup);

  eval::Lab lab(setup.topo);
  const auto source = lab.topo.vantage_points()[0];
  lab.bootstrap_source(source, setup.atlas_size);
  std::vector<std::pair<topology::HostId, topology::HostId>> pairs;
  const auto dests = lab.responsive_destinations(true);
  for (std::size_t i = 0; i < setup.revtrs; ++i) {
    pairs.emplace_back(dests[i % dests.size()], source);
  }

  const core::StackDeps deps{lab.topo,    lab.plane, lab.atlas,
                             lab.ingress, lab.ip2as, lab.relationships};
  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  {
    // Survey every prefix once, untimed, as the first run() would with the
    // same seed: the scaling table then times campaigns alone, not the
    // 1-worker run's survey.
    service::ParallelCampaignOptions options;
    options.seed = setup.seed;
    service::ParallelCampaignDriver(deps, options).precompute_ingress_plans();
  }

  util::TextTable table({"workers", "wall (s)", "speedup", "revtr/s (wall)",
                         "completed", "probes"});
  util::Json runs = util::Json::array();
  double baseline_wall = 0;
  std::uint64_t baseline_signature = 0;
  bool identical_sets = true;
  double speedup_at_4 = 0;

  for (const std::size_t workers : worker_counts) {
    service::ParallelCampaignOptions options;
    options.workers = workers;
    options.seed = setup.seed;
    service::ParallelCampaignDriver driver(deps, options);
    const auto report = driver.run(pairs);

    const std::uint64_t sig = campaign_signature(report.results);
    if (baseline_wall == 0) {
      baseline_wall = report.wall_seconds;
      baseline_signature = sig;
    }
    identical_sets = identical_sets && (sig == baseline_signature);
    const double speedup = baseline_wall / report.wall_seconds;
    if (workers == 4) speedup_at_4 = speedup;
    const double rate =
        static_cast<double>(pairs.size()) / report.wall_seconds;

    table.add_row({std::to_string(workers), util::cell(report.wall_seconds, 2),
                   util::cell(speedup, 2), util::cell(rate, 1),
                   std::to_string(report.stats.completed),
                   util::cell_count(report.stats.probes.total())});

    util::Json run = util::Json::object();
    run["workers"] = static_cast<double>(workers);
    run["wall_seconds"] = report.wall_seconds;
    run["speedup"] = speedup;
    run["revtrs_per_second"] = rate;
    run["completed"] = static_cast<double>(report.stats.completed);
    run["aborted"] = static_cast<double>(report.stats.aborted);
    run["unreachable"] = static_cast<double>(report.stats.unreachable);
    run["probes"] = static_cast<double>(report.stats.probes.total());
    run["signature"] = std::to_string(sig);
    runs.push_back(std::move(run));
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("identical measurement sets across worker counts: %s\n",
              identical_sets ? "yes" : "NO — DETERMINISM BROKEN");

  // --- Duplicate-heavy workload: coalescing off vs on. -------------------
  // Many requests over few destinations is the cross-request coalescing
  // sweet spot (think a campaign re-measuring a small target set from one
  // source). Engine caches are off on BOTH sides so every probe a request
  // wants is genuinely demanded — the shared RR cache would otherwise hide
  // the comparison. With coalescing off every demand issues its own wire
  // probe; with it on, a demand identical to one in flight rides on it.
  const std::size_t dup_dests = std::min<std::size_t>(4, dests.size());
  std::vector<std::pair<topology::HostId, topology::HostId>> dup_pairs;
  for (std::size_t i = 0; i < dup_revtrs; ++i) {
    dup_pairs.emplace_back(dests[i % dup_dests], source);
  }
  const auto dup_run = [&](bool coalesce) {
    service::ParallelCampaignOptions options;
    options.workers = 4;
    options.seed = setup.seed;
    options.engine.use_cache = false;
    options.sched.coalesce = coalesce;
    service::ParallelCampaignDriver driver(deps, options);
    return driver.run(dup_pairs);
  };
  const auto dup_off = dup_run(false);
  const auto dup_on = dup_run(true);
  const bool dup_identical = campaign_signature(dup_off.results) ==
                             campaign_signature(dup_on.results);
  const std::uint64_t off_issued = dup_off.stats.probes.total();
  const std::uint64_t on_issued = dup_on.stats.probes.total();
  const double issued_reduction =
      on_issued == 0 ? 0.0
                     : static_cast<double>(off_issued) /
                           static_cast<double>(on_issued);
  std::printf("\nduplicate-heavy (%zu requests over %zu destinations, "
              "caches off, 4 workers):\n",
              dup_pairs.size(), dup_dests);
  std::printf("  coalescing off: %llu probes issued, %.3f s wall\n",
              static_cast<unsigned long long>(off_issued),
              dup_off.wall_seconds);
  std::printf("  coalescing on:  %llu probes issued (%llu demands, %llu "
              "coalesced), %.3f s wall\n",
              static_cast<unsigned long long>(on_issued),
              static_cast<unsigned long long>(dup_on.sched.demanded),
              static_cast<unsigned long long>(dup_on.sched.coalesced),
              dup_on.wall_seconds);
  std::printf("  probes-issued reduction: %.2fx; identical measurement "
              "sets: %s\n",
              issued_reduction,
              dup_identical ? "yes" : "NO — DETERMINISM BROKEN");

  // --- Instrumentation overhead: metrics-off vs metrics-on. ---------------
  // A pure CPU race through the probe path is the worst case for the
  // sharded counters. The ratio is
  // taken over process CPU time, not wall: on a loaded shared box, wall
  // time folds in whatever else the scheduler ran, while CPU time charges
  // exactly the cycles this campaign burned — which is what the
  // instrumentation adds to and what its wall-time cost is on a quiet host.
  // A sub-5% effect needs runs well clear of scheduler jitter: give the
  // overhead section its own workload of at least --overhead-revtrs
  // requests (default 4000), whatever the scaling section used.
  std::vector<std::pair<topology::HostId, topology::HostId>> overhead_pairs =
      pairs;
  while (overhead_pairs.size() < overhead_revtrs) {
    overhead_pairs.emplace_back(
        dests[overhead_pairs.size() % dests.size()], source);
  }
  obs::MetricsRegistry registry;
  obs::TraceSink sink;
  struct OverheadRun {
    double wall = 0;
    double cpu = 0;
    std::uint64_t probes = 0;
  };
  const auto timed_run = [&](std::size_t workers, bool with_metrics) {
    service::ParallelCampaignOptions options;
    options.workers = workers;
    options.seed = setup.seed;
    if (with_metrics) {
      options.metrics = &registry;
      options.trace_sink = &sink;
      options.trace_sample_every = sample_every;
    }
    service::ParallelCampaignDriver driver(deps, options);
    timespec begin{}, end{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &begin);
    OverheadRun run;
    const auto report = driver.run(overhead_pairs);
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &end);
    run.wall = report.wall_seconds;
    run.probes = report.stats.probes.total();
    run.cpu = static_cast<double>(end.tv_sec - begin.tv_sec) +
              static_cast<double>(end.tv_nsec - begin.tv_nsec) * 1e-9;
    return run;
  };
  // Interleaved pairs: each rep times off then on back to back, so slow
  // drift (CPU frequency, background load) hits both sides of the same
  // pair equally. The median of the per-pair CPU ratios is then robust to
  // the occasional rep landing on a busy scheduler slot.
  OverheadRun best_off, best_on;
  std::vector<double> ratios;
  std::vector<double> four_worker_cpu;  // Metrics-on reps, for the median.
  for (int rep = 0; rep < overhead_reps; ++rep) {
    const OverheadRun off = timed_run(4, false);
    const OverheadRun on = timed_run(4, true);
    if (rep == 0 || off.cpu < best_off.cpu) best_off = off;
    if (rep == 0 || on.cpu < best_on.cpu) best_on = on;
    if (off.cpu > 0) ratios.push_back(on.cpu / off.cpu);
    four_worker_cpu.push_back(on.cpu);
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct =
      ratios.empty() ? 0.0 : (ratios[ratios.size() / 2] - 1.0) * 100.0;
  std::sort(four_worker_cpu.begin(), four_worker_cpu.end());
  std::printf("instrumentation: %.3f s CPU off, %.3f s CPU on (metrics + "
              "1/%zu trace sampling) -> %+.1f%% overhead\n",
              best_off.cpu, best_on.cpu, sample_every, overhead_pct);

  // --- Single worker: the two gated figures. -----------------------------
  // One worker, metrics on. One thread fills the shared caches in one order,
  // so its wire-probe count is a pure function of the seed: it moves only
  // when the engine sends different probes, and every rep must agree. CPU
  // per request is process CPU time over the campaign, taken from the
  // median rep, which a single slow rep cannot move.
  std::vector<OverheadRun> singles;
  for (int rep = 0; rep < overhead_reps; ++rep) {
    singles.push_back(timed_run(1, true));
  }
  const bool single_probes_exact =
      std::all_of(singles.begin(), singles.end(), [&](const OverheadRun& r) {
        return r.probes == singles.front().probes;
      });
  std::sort(singles.begin(), singles.end(),
            [](const OverheadRun& a, const OverheadRun& b) {
              return a.cpu < b.cpu;
            });
  const OverheadRun& single = singles[singles.size() / 2];
  const double requests = static_cast<double>(overhead_pairs.size());
  const double single_worker_probes_per_request =
      static_cast<double>(single.probes) / requests;
  const double single_worker_cpu_us_per_request = single.cpu * 1e6 / requests;
  const double single_worker_rps =
      single.wall > 0 ? requests / single.wall : 0.0;
  const double single_worker_pps =
      single.wall > 0 ? static_cast<double>(single.probes) / single.wall
                      : 0.0;
  std::printf("single worker (metrics on, median of %zu): %.2f probes and "
              "%.1f us CPU per request; %.1f requests/s, %.0f probes/s%s\n",
              singles.size(), single_worker_probes_per_request,
              single_worker_cpu_us_per_request, single_worker_rps,
              single_worker_pps,
              single_probes_exact ? "" : " — PROBE COUNT VARIED ACROSS REPS");

  // Headline throughput and latency: the best metrics-on overhead rep (4
  // workers) is the wall-clock service rate, which swings by tens of percent
  // between identical runs on a shared host and so is reported, not gated;
  // the median metrics-on rep gives the 4-worker CPU per request, which
  // includes what workers spend waiting on each other's probes; simulated
  // request latency quantiles come from the revtr_request_latency_us
  // histogram every metrics-on run populated in `registry`.
  const double requests_per_second =
      best_on.wall > 0 ? requests / best_on.wall : 0.0;
  const double probes_per_second =
      best_on.wall > 0 ? static_cast<double>(best_on.probes) / best_on.wall
                       : 0.0;
  const double four_worker_cpu_us_per_request =
      four_worker_cpu[four_worker_cpu.size() / 2] * 1e6 / requests;
  double sim_latency_p50_us = 0.0;
  double sim_latency_p99_us = 0.0;
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name.rfind("revtr_request_latency_us", 0) == 0) {
      sim_latency_p50_us = obs::histogram_quantile(h, 0.50);
      sim_latency_p99_us = obs::histogram_quantile(h, 0.99);
      break;
    }
  }
  std::printf("4 workers: %.1f requests/s, %.0f probes/s, %.1f us CPU per "
              "request | simulated request latency p50 %.0f us, p99 %.0f us "
              "| peak RSS %.1f MiB\n",
              requests_per_second, probes_per_second,
              four_worker_cpu_us_per_request, sim_latency_p50_us,
              sim_latency_p99_us,
              static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0));

  util::Json out = util::Json::object();
  out["revtrs"] = static_cast<double>(pairs.size());
  out["identical_sets"] = identical_sets;
  out["speedup_at_4_workers"] = speedup_at_4;
  out["requests_per_second"] = requests_per_second;
  out["probes_per_second"] = probes_per_second;
  out["four_worker_cpu_us_per_request"] = four_worker_cpu_us_per_request;
  out["single_worker_probes_per_request"] = single_worker_probes_per_request;
  out["single_worker_cpu_us_per_request"] = single_worker_cpu_us_per_request;
  out["single_worker_probes_exact"] = single_probes_exact;
  out["single_worker_requests_per_second"] = single_worker_rps;
  out["single_worker_probes_per_second"] = single_worker_pps;
  out["sim_latency_p50_us"] = sim_latency_p50_us;
  out["sim_latency_p99_us"] = sim_latency_p99_us;
  out["peak_rss_bytes"] = static_cast<double>(bench::peak_rss_bytes());
  out["runs"] = std::move(runs);
  util::Json instrumentation = util::Json::object();
  instrumentation["metrics_off_seconds"] = best_off.wall;
  instrumentation["metrics_on_seconds"] = best_on.wall;
  instrumentation["metrics_off_cpu_seconds"] = best_off.cpu;
  instrumentation["metrics_on_cpu_seconds"] = best_on.cpu;
  instrumentation["overhead_pct"] = overhead_pct;
  instrumentation["trace_sample_every"] = static_cast<double>(sample_every);
  out["instrumentation"] = std::move(instrumentation);
  util::Json duplicate_heavy = util::Json::object();
  duplicate_heavy["requests"] = static_cast<double>(dup_pairs.size());
  duplicate_heavy["destinations"] = static_cast<double>(dup_dests);
  duplicate_heavy["coalesce_off_probes_issued"] =
      static_cast<double>(off_issued);
  duplicate_heavy["coalesce_on_probes_issued"] = static_cast<double>(on_issued);
  duplicate_heavy["coalesce_on_probes_demanded"] =
      static_cast<double>(dup_on.sched.demanded);
  duplicate_heavy["coalesce_on_probes_coalesced"] =
      static_cast<double>(dup_on.sched.coalesced);
  duplicate_heavy["coalesce_off_wall_seconds"] = dup_off.wall_seconds;
  duplicate_heavy["coalesce_on_wall_seconds"] = dup_on.wall_seconds;
  duplicate_heavy["issued_reduction"] = issued_reduction;
  duplicate_heavy["identical_sets"] = dup_identical;
  out["duplicate_heavy"] = std::move(duplicate_heavy);
  std::printf("%s\n", out.dump().c_str());
  bench::write_bench_artifact("parallel_campaign", out);
  // A duplicate-heavy campaign that fails to at least halve issued probes
  // means coalescing regressed; fail loudly, like a determinism break. So
  // does a single-worker probe count that varies: the gate on it assumes it
  // is exact.
  const bool ok = identical_sets && dup_identical && issued_reduction >= 2.0 &&
                  single_probes_exact;
  return ok ? 0 : 1;
}
