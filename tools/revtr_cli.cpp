// revtr_cli — command-line front end to the whole system.
//
//   revtr_cli <command> [--ases=N --seed=N ...]
//
// Commands:
//   topology   summarize the generated Internet
//   measure    one reverse traceroute (--dest=K --source=K [--json])
//   campaign   batch measurement run on real worker threads, requests
//              multiplexed over one probe scheduler (--revtrs=N --parallel=K
//              [--archive=FILE] writes an NDJSON archive; the scheduler is
//              tuned by [--sched-window=N] [--sched-pacing=TOKENS]
//              [--sched-no-coalesce])
//   atlas      show a source's traceroute atlas (--source=K)
//   ingress    show a prefix's ingress plan (--prefix=K)
//   client     submit one request to a running revtr_serverd
//              (--socket=PATH --dest=K [--source=K] [--key=S]
//              [--deadline-ms=N] [--priority=high|normal|low] [--pull]
//              [--timeout=MS] gives up waiting for the RESULT after MS
//              milliseconds instead of blocking forever)
//
// A flag the command never reads is reported on stderr after it runs.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage, 3 daemon rejected the
// request, 4 campaign finished with incomplete measurements, 5 daemon
// disconnected while waiting for the result, 6 --timeout expired.
//
// Everything runs against the simulated Internet; the same binary on the
// real system would differ only in the probing backend.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/serialize.h"
#include "eval/harness.h"
#include "server/client.h"
#include "service/archive.h"
#include "service/parallel.h"
#include "service/service.h"
#include "util/flags.h"

using namespace revtr;

namespace {

topology::TopologyConfig config_from(const util::Flags& flags) {
  topology::TopologyConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  config.num_ases = static_cast<std::size_t>(flags.get_int("ases", 400));
  config.num_vps = static_cast<std::size_t>(flags.get_int("vps", 20));
  config.num_probe_hosts =
      static_cast<std::size_t>(flags.get_int("probes", 150));
  return config;
}

int cmd_topology(eval::Lab& lab) {
  std::size_t tier1 = 0, transit = 0, stub = 0, nren = 0, colo = 0;
  for (const auto& node : lab.topo.ases()) {
    switch (node.tier) {
      case topology::AsTier::kTier1:
        ++tier1;
        break;
      case topology::AsTier::kTransit:
        ++transit;
        break;
      case topology::AsTier::kStub:
        ++stub;
        break;
    }
    nren += node.category == topology::AsCategory::kNren;
    colo += node.category == topology::AsCategory::kColo;
  }
  std::size_t interdomain_links = 0;
  for (const auto& link : lab.topo.links()) {
    interdomain_links += link.interdomain;
  }
  std::printf("ASes:      %zu (tier-1 %zu, transit %zu, stub %zu; "
              "%zu NREN, %zu colo)\n",
              lab.topo.num_ases(), tier1, transit, stub, nren, colo);
  std::printf("routers:   %zu\n", lab.topo.num_routers());
  std::printf("links:     %zu (%zu interdomain)\n", lab.topo.num_links(),
              interdomain_links);
  std::printf("prefixes:  %zu announced\n", lab.topo.num_prefixes());
  std::printf("hosts:     %zu (%zu vantage points, %zu probe hosts)\n",
              lab.topo.num_hosts(), lab.topo.vantage_points().size(),
              lab.topo.probe_hosts().size());
  return 0;
}

int cmd_measure(eval::Lab& lab, const util::Flags& flags) {
  const auto dest_index =
      static_cast<std::size_t>(flags.get_int("dest", 0));
  const auto source_index =
      static_cast<std::size_t>(flags.get_int("source", 0));
  const bool as_json = flags.get_bool("json", false);
  if (source_index >= lab.topo.vantage_points().size() ||
      dest_index >= lab.topo.probe_hosts().size()) {
    std::fprintf(stderr, "index out of range\n");
    return 1;
  }
  const auto source = lab.topo.vantage_points()[source_index];
  const auto dest = lab.topo.probe_hosts()[dest_index];
  lab.bootstrap_source(source, 50);
  util::SimClock clock;
  const auto result = lab.engine.measure(dest, source, clock);
  if (as_json) {
    std::printf("%s\n", core::to_json(result, lab.topo).dump().c_str());
    return 0;
  }
  std::printf("reverse traceroute %s -> %s: %s (%.1f s, %llu probes)\n",
              lab.topo.host(dest).addr.to_string().c_str(),
              lab.topo.host(source).addr.to_string().c_str(),
              core::to_string(result.status).c_str(), result.span.seconds(),
              static_cast<unsigned long long>(result.probes.total()));
  int index = 0;
  for (const auto& hop : result.hops) {
    if (hop.source == core::HopSource::kSuspiciousGap) {
      std::printf("  %2d  *\n", index++);
      continue;
    }
    const auto asn = lab.ip2as.lookup(hop.addr);
    std::printf("  %2d  %-15s AS%-6s %s\n", index++,
                hop.addr.to_string().c_str(),
                asn ? std::to_string(*asn).c_str() : "?",
                core::to_string(hop.source).c_str());
  }
  return 0;
}

int cmd_campaign(eval::Lab& lab, const util::Flags& flags) {
  const auto revtrs = static_cast<std::size_t>(flags.get_int("revtrs", 100));
  const auto parallel =
      static_cast<std::size_t>(flags.get_int("parallel", 4));
  const std::string archive_path = flags.get_string("archive", "");
  const std::string metrics_path = flags.get_string("metrics-out", "");
  const std::string trace_path = flags.get_string("trace-out", "");
  const auto trace_sample =
      static_cast<std::size_t>(flags.get_int("trace-sample", 0));
  service::ParallelCampaignOptions options;
  options.workers = parallel == 0 ? 1 : parallel;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  // The sched-* knobs tune the probe scheduler (DESIGN.md §10): its per-VP
  // window, token refill, and cross-request coalescing.
  options.sched.vp_window = static_cast<std::size_t>(flags.get_int(
      "sched-window", static_cast<std::int64_t>(options.sched.vp_window)));
  // Fractional rates are legal: e.g. --sched-pacing=0.5 issues one probe
  // from a VP every second pump round.
  options.sched.vp_tokens_per_round =
      flags.get_double("sched-pacing", options.sched.vp_tokens_per_round);
  if (flags.get_bool("sched-no-coalesce", false)) {
    options.sched.coalesce = false;
  }

  // One registry covers the whole campaign: control-plane activity (source
  // bootstrap, atlas builds, ingress surveys) and the worker probe/engine
  // counters all land in the same snapshot.
  obs::MetricsRegistry registry;
  obs::TraceSink trace_sink;
  const service::ServiceMetrics svc_metrics(registry);
  const atlas::AtlasMetrics atlas_metrics(registry);
  const vpselect::IngressMetrics ingress_metrics(registry);
  const probing::ProbeMetrics probe_metrics(registry);
  lab.atlas.set_metrics(&atlas_metrics);
  lab.ingress.set_metrics(&ingress_metrics);
  // The lab's control-plane prober serves bootstrap and ingress surveys; the
  // campaign workers' probers are instrumented by the driver and resolve to
  // the same registry counters.
  lab.prober.set_metrics(&probe_metrics);

  service::RevtrService svc(lab.engine, lab.atlas, lab.prober, lab.topo);
  svc.set_metrics(&svc_metrics);
  service::MeasurementArchive archive(lab.topo);

  const auto source = lab.topo.vantage_points()[0];
  if (!svc.add_source(source, 50, lab.rng)) {
    std::fprintf(stderr, "source bootstrap failed\n");
    return 1;
  }
  std::vector<std::pair<topology::HostId, topology::HostId>> pairs;
  const auto probes = lab.topo.probe_hosts();
  for (std::size_t i = 0; i < revtrs; ++i) {
    pairs.emplace_back(probes[i % probes.size()], source);
  }

  // The campaign itself runs on real threads: each worker owns a private
  // measurement stack and the workers share the lock-striped engine caches.
  const core::StackDeps deps{lab.topo,    lab.plane, lab.atlas,
                             lab.ingress, lab.ip2as, lab.relationships};
  options.metrics = &registry;
  options.trace_sink = &trace_sink;
  options.trace_sample_every = trace_sample;
  service::ParallelCampaignDriver driver(deps, options);
  const auto report = driver.run(pairs);
  for (const auto& result : report.results) {
    archive.record(result, result.span.end);
  }

  const auto& stats = report.stats;
  std::printf("campaign: %zu requested, %zu complete (%.0f%%), "
              "%zu aborted, %zu unreachable\n",
              stats.requested, stats.completed, stats.coverage() * 100,
              stats.aborted, stats.unreachable);
  std::printf("latency: median %.1f s, p90 %.1f s; %zu workers, "
              "%.3f s wall\n",
              stats.latency_seconds.median(),
              stats.latency_seconds.quantile(0.9), options.workers,
              report.wall_seconds);
  std::printf("throughput: %.2f processed/s, %.2f completed/s "
              "(simulated time, busiest worker)\n",
              stats.processed_per_second(), stats.completed_per_second());
  std::printf("probes: %llu total (%llu spoofed RR)\n",
              static_cast<unsigned long long>(stats.probes.total()),
              static_cast<unsigned long long>(stats.probes.spoofed_rr));
  const auto& sched = report.sched;
  std::printf("sched: %llu demanded, %llu issued, %llu coalesced; "
              "%llu throttled, %llu spoof batches, %llu rounds\n",
              static_cast<unsigned long long>(sched.demanded),
              static_cast<unsigned long long>(sched.issued),
              static_cast<unsigned long long>(sched.coalesced),
              static_cast<unsigned long long>(sched.throttled),
              static_cast<unsigned long long>(sched.wire_batches),
              static_cast<unsigned long long>(sched.rounds));
  const auto archive_stats = archive.stats();
  std::printf("archive: %zu measurements, %zu flagged\n",
              archive_stats.total, archive_stats.flagged);
  // Partial campaigns exit 4 (after all the reporting below) so scripted
  // callers can distinguish "ran but some measurements fell short" from
  // clean runs instead of always seeing 0.
  const int exit_code = stats.completed < stats.requested ? 4 : 0;
  if (!archive_path.empty()) {
    std::ofstream out(archive_path);
    out << archive.export_ndjson();
    std::printf("archive written to %s\n", archive_path.c_str());
  }
  if (report.metrics.has_value()) {
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      out << report.metrics->to_prometheus();
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      std::printf("\n%s", report.metrics->to_table().c_str());
    }
  }
  if (trace_sample > 0) {
    std::printf("\ntraces: %zu retained, %llu evicted (sampling 1/%zu)\n",
                trace_sink.size(),
                static_cast<unsigned long long>(trace_sink.dropped()),
                trace_sample);
    std::printf("%s", trace_sink.to_table().c_str());
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      out << trace_sink.to_json().dump() << '\n';
      std::printf("traces written to %s\n", trace_path.c_str());
    }
  }
  return exit_code;
}

// Talks to a running revtr_serverd: HELLO, one SUBMIT, wait for the RESULT,
// print the path. Needs no Lab of its own — the daemon owns the topology.
int cmd_client(const util::Flags& flags) {
  const std::string socket_path =
      flags.get_string("socket", "/tmp/revtr_serverd.sock");
  const std::string api_key = flags.get_string("key", "demo-key");
  const std::string priority_name = flags.get_string("priority", "normal");
  const bool pull = flags.get_bool("pull", false);
  const auto deadline_ms = flags.get_int("deadline-ms", 0);
  // --timeout bounds the whole wait for the RESULT; 0 waits forever.
  const auto timeout_ms = static_cast<int>(flags.get_int("timeout", 0));

  server::Submit request;
  request.request_id = 1;
  request.dest_index =
      static_cast<std::uint32_t>(flags.get_int("dest", 0));
  request.source_index =
      static_cast<std::uint32_t>(flags.get_int("source", 0));
  if (priority_name == "high") {
    request.priority = server::Priority::kHigh;
  } else if (priority_name == "low") {
    request.priority = server::Priority::kLow;
  } else if (priority_name == "normal") {
    request.priority = server::Priority::kNormal;
  } else {
    std::fprintf(stderr, "bad --priority: %s\n", priority_name.c_str());
    return 2;
  }

  server::DaemonClient client;
  if (!client.connect(socket_path, /*retries=*/10)) {
    std::fprintf(stderr, "cannot connect to %s\n", socket_path.c_str());
    return 1;
  }
  const auto welcome = client.hello(api_key, /*push_results=*/!pull);
  if (!welcome.has_value()) {
    if (client.reject_reason().has_value()) {
      std::fprintf(stderr, "hello rejected: %s\n",
                   std::string(to_string(*client.reject_reason())).c_str());
      return 3;
    }
    std::fprintf(stderr, "hello failed (daemon gone?)\n");
    return 1;
  }
  if (deadline_ms > 0) {
    request.deadline_us = welcome->server_now_us + deadline_ms * 1000;
  }

  if (!client.submit(request)) {
    if (client.reject_reason().has_value()) {
      std::fprintf(stderr, "submit rejected: %s\n",
                   std::string(to_string(*client.reject_reason())).c_str());
      return 3;
    }
    std::fprintf(stderr, "submit failed (daemon gone?)\n");
    return 1;
  }
  // The daemon vanishing mid-wait is exit 5 either way — distinct from the
  // generic runtime failure so scripts can retry connect-level trouble
  // without re-submitting a request the daemon may still be measuring.
  std::optional<server::Result> result;
  if (pull) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms);
    while (!result.has_value()) {
      if (client.stashed_results() > 0) {
        result = client.next_result();
        break;
      }
      if (timeout_ms > 0 && std::chrono::steady_clock::now() >= give_up) {
        std::fprintf(stderr, "timed out after %d ms\n", timeout_ms);
        return 6;
      }
      if (!client.poll_results().has_value()) {
        std::fprintf(stderr, "daemon disconnected while polling\n");
        return 5;
      }
    }
  } else {
    switch (client.next_result_for(result, timeout_ms)) {
      case server::DaemonClient::WaitStatus::kOk:
        break;
      case server::DaemonClient::WaitStatus::kTimeout:
        std::fprintf(stderr, "timed out after %d ms\n", timeout_ms);
        return 6;
      case server::DaemonClient::WaitStatus::kDisconnected:
        std::fprintf(stderr, "daemon disconnected while waiting\n");
        return 5;
    }
  }
  if (!result.has_value()) {
    std::fprintf(stderr, "no result (daemon gone?)\n");
    return 1;
  }

  std::printf("tenant %s (id %u), request %llu: %s%s%s\n",
              welcome->tenant_name.c_str(), welcome->tenant,
              static_cast<unsigned long long>(result->request_id),
              result->shed ? "shed"
                           : core::to_string(result->status).c_str(),
              result->deadline_missed ? " (deadline missed)" : "",
              result->shed ? " (not measured)" : "");
  if (!result->shed) {
    std::printf("latency: %.3f s simulated; probes: %llu (%llu coalesced)\n",
                static_cast<double>(result->sim_latency_us) / 1e6,
                static_cast<unsigned long long>(result->probes),
                static_cast<unsigned long long>(result->coalesced_probes));
    int index = 0;
    for (const auto& hop : result->hops) {
      if (hop.source == core::HopSource::kSuspiciousGap) {
        std::printf("  %2d  *\n", index++);
        continue;
      }
      std::printf("  %2d  %-15s %s\n", index++, hop.addr.to_string().c_str(),
                  core::to_string(hop.source).c_str());
    }
  }
  // A shed or incomplete measurement is still a successful client exchange;
  // scripted callers key off the printed status.
  return 0;
}

int cmd_atlas(eval::Lab& lab, const util::Flags& flags) {
  const auto source_index =
      static_cast<std::size_t>(flags.get_int("source", 0));
  const auto size = static_cast<std::size_t>(flags.get_int("size", 50));
  if (source_index >= lab.topo.vantage_points().size()) {
    std::fprintf(stderr, "index out of range\n");
    return 1;
  }
  const auto source = lab.topo.vantage_points()[source_index];
  lab.bootstrap_source(source, size);
  const auto& traceroutes = lab.atlas.traceroutes(source);
  std::printf("atlas for %s: %zu traceroutes, %zu RR-learned addresses\n",
              lab.topo.host(source).addr.to_string().c_str(),
              traceroutes.size(), lab.atlas.rr_index_size(source));
  util::Distribution lengths;
  std::size_t reached = 0;
  for (const auto& tr : traceroutes) {
    lengths.add(static_cast<double>(tr.hops.size()));
    reached += tr.reached_source;
  }
  if (!lengths.empty()) {
    std::printf("hops per traceroute: median %.0f, max %.0f; "
                "%zu reached the source\n",
                lengths.median(), lengths.max(), reached);
  }
  return 0;
}

int cmd_ingress(eval::Lab& lab, const util::Flags& flags) {
  const auto prefix_index =
      static_cast<std::size_t>(flags.get_int("prefix", 0));
  const auto prefixes = lab.customer_prefixes();
  if (prefix_index >= prefixes.size()) {
    std::fprintf(stderr, "index out of range\n");
    return 1;
  }
  const auto prefix = prefixes[prefix_index];
  const auto plan_snap =
      lab.ingress.discover(prefix, lab.topo.vantage_points(), lab.rng);
  const auto& plan = *plan_snap;
  std::printf("prefix %s (AS%u): %zu ingresses\n",
              lab.topo.prefix(prefix).prefix.to_string().c_str(),
              lab.topo.prefix(prefix).origin, plan.ingresses.size());
  for (const auto& ingress : plan.ingresses) {
    std::printf("  ingress %-15s covers %zu VPs, closest at %d RR hops\n",
                ingress.addr.to_string().c_str(), ingress.vps.size(),
                ingress.vps.empty() ? -1 : ingress.vps.front().distance);
  }
  if (!plan.has_ingresses()) {
    const auto fallback = plan.fallback_ranking();
    std::printf("  no ingresses; %zu VPs in fallback ranking\n",
                fallback.size());
  }
  return 0;
}

int run_command(const std::string& command, const util::Flags& flags) {
  // `client` talks to a daemon that already owns the simulated Internet —
  // don't spend seconds building a second one here.
  if (command == "client") return cmd_client(flags);

  eval::Lab lab(config_from(flags));
  if (command == "topology") return cmd_topology(lab);
  if (command == "measure") return cmd_measure(lab, flags);
  if (command == "campaign") return cmd_campaign(lab, flags);
  if (command == "atlas") return cmd_atlas(lab, flags);
  if (command == "ingress") return cmd_ingress(lab, flags);
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: revtr_cli "
                 "<topology|measure|campaign|atlas|ingress|client> "
                 "[--ases=N --seed=N ...]\n");
    return 2;
  }
  const util::Flags flags(argc, argv);
  const int status = run_command(argv[1], flags);
  // Each command reads its flags before its first early return, so a flag
  // still unread here is one no command takes (a typo, or a retired one).
  for (const auto& name : flags.unknown()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", name.c_str());
  }
  return status;
}
