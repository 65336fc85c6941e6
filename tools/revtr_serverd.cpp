// revtr_serverd — the long-running measurement daemon (src/server/).
//
//   revtr_serverd [--socket=PATH] [--workers=N] [--ases=N --vps=N --probes=N
//                  --seed=N] [--sources=N] [--atlas=N] [--name=S --key=S]
//                  [--daily-limit=N] [--probe-budget=N] [--rate=R --burst=B]
//                  [--queue-cap=N] [--backlog-limit=N] [--max-inflight=N]
//                  [--weight=W] [--remote-probing] [--agent-timeout-ms=N]
//
// Builds the simulated Internet once, binds the AF_UNIX socket, and serves
// framed requests (server/frame.h) until SIGTERM/SIGINT, which drain
// gracefully: every accepted request finishes before exit.
//
// --remote-probing runs the daemon as a distributed controller (DESIGN.md
// §15): probes are dispatched to revtr_agentd processes that register over
// the same socket, and nothing executes until at least one agent joins.
#include <cstdio>
#include <string>

#include "server/daemon.h"
#include "util/flags.h"

using namespace revtr;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);

  server::ServerOptions options;
  options.socket_path =
      flags.get_string("socket", "/tmp/revtr_serverd.sock");
  options.topo.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  options.topo.num_ases =
      static_cast<std::size_t>(flags.get_int("ases", 400));
  options.topo.num_vps = static_cast<std::size_t>(flags.get_int("vps", 20));
  options.topo.num_probe_hosts =
      static_cast<std::size_t>(flags.get_int("probes", 150));
  options.seed = options.topo.seed;
  options.workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  options.sources = static_cast<std::size_t>(flags.get_int("sources", 1));
  options.atlas_size = static_cast<std::size_t>(flags.get_int("atlas", 50));
  options.max_inflight_per_worker =
      static_cast<std::size_t>(flags.get_int("max-inflight", 16));

  options.remote_probing = flags.get_bool("remote-probing", false);
  options.agent_timeout_us =
      static_cast<std::int64_t>(flags.get_int("agent-timeout-ms", 2000)) *
      1000;

  options.admission.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue-cap", 1024));
  options.admission.sched_backlog_limit =
      static_cast<std::size_t>(flags.get_int("backlog-limit", 4096));
  options.admission.workers = options.workers;

  server::TenantConfig tenant;
  tenant.name = flags.get_string("name", "demo");
  tenant.api_key = flags.get_string("key", "demo-key");
  tenant.limits.daily_limit =
      static_cast<std::size_t>(flags.get_int("daily-limit", 10'000'000));
  tenant.limits.daily_probe_budget = static_cast<std::uint64_t>(
      flags.get_int("probe-budget", 1'000'000'000));
  tenant.bucket.rate_per_sec = flags.get_double("rate", 100000.0);
  tenant.bucket.burst = flags.get_double("burst", 10000.0);
  tenant.weight = flags.get_double("weight", 1.0);
  options.tenants.push_back(tenant);

  server::ServerDaemon daemon(options);
  if (!daemon.start()) {
    std::fprintf(stderr, "revtr_serverd: start failed\n");
    return 1;
  }
  server::ServerDaemon::install_signal_handlers(&daemon);
  const server::StartupTimings startup = daemon.startup_timings();
  std::printf("revtr_serverd: listening on %s (%zu workers, tenant %s%s); "
              "started in lab %.3f s + tables %.3f s + survey %.3f s + "
              "atlas %.3f s\n",
              options.socket_path.c_str(), options.workers,
              tenant.name.c_str(),
              options.remote_probing ? ", remote probing" : "",
              startup.lab_s, startup.tables_s, startup.survey_s,
              startup.atlas_s);
  std::fflush(stdout);

  daemon.wait_until_drained();
  const auto counters = daemon.counters();
  daemon.stop();
  server::ServerDaemon::install_signal_handlers(nullptr);
  std::printf("revtr_serverd: drained; %llu accepted, %llu rejected, "
              "%llu completed, %llu shed, %llu deadline-missed\n",
              static_cast<unsigned long long>(counters.accepted),
              static_cast<unsigned long long>(counters.rejected),
              static_cast<unsigned long long>(counters.completed),
              static_cast<unsigned long long>(counters.shed_queued),
              static_cast<unsigned long long>(counters.deadline_missed));
  return 0;
}
