// revtr_serverd: the long-running measurement daemon.
//
// The paper's revtr 2.0 is a deployed on-demand *service*: a controller
// that stays up, keeps the traceroute atlas and engine caches hot, and
// serves third-party measurement requests under a probe budget. ServerDaemon
// is that controller over the simulated Internet — it owns one RevtrService
// (tenant quotas), one staged ProbeScheduler (cross-request coalescing
// across *connections*, not just within one campaign), one TracerouteAtlas,
// and one shared EngineCaches for the daemon's whole lifetime, and speaks
// the framed protocol in server/frame.h over a local AF_UNIX stream socket.
//
// Thread architecture (three kinds of threads; the daemon mutex and one
// output lock per connection):
//
//   net thread    poll() event loop over the listening socket, a self-pipe,
//                 and every client and agent connection. Owns each
//                 connection's input and session state (read buffer, auth,
//                 tenant, agent id) and reads it without a lock. Parses
//                 frames, runs admission, enqueues accepted requests, and
//                 queues every reply but RESULT. In remote mode it also
//                 hands out agent work: every loop iteration expires silent
//                 agents and queues each live agent's next assignments, in
//                 registration order, as AGENT_PROBE frames.
//   workers       each own a core::WorkerStack (private Network + Prober
//                 + RevtrEngine), pop queued requests, and drive them with
//                 core::RequestExecutor::round() over the shared scheduler,
//                 as campaign workers do: a round executes the probes the
//                 worker's own requests demanded on its own stack (outside
//                 the scheduler lock; in remote mode the agents do),
//                 resumes what resolved, and parks in the scheduler when
//                 nothing moved. A worker runs a round only when it has
//                 nothing to admit. A SUBMIT into an empty queue wakes one
//                 parked worker (ProbeScheduler::wake_one()); a worker that
//                 admits and still leaves requests queued passes the wake
//                 on; the hold's release, a drain and stop() wake every
//                 worker (ProbeScheduler::wake()). The worker that finishes
//                 a request writes its RESULT: it appends the frame to the
//                 connection's output and sends it (push mode), or keeps it
//                 for POLL (pull mode). A remote-mode worker wakes the net
//                 thread through the self-pipe once it may have submitted
//                 demands.
//   caller        start() / request_drain() / wait_until_drained() / stop().
//   start-up      transient: start() fans its offline work out over the
//                 process's CPUs — the routing tables
//                 (ForwardingPlane::build_all), the ingress survey
//                 (IngressDiscovery::discover_all) and every source's atlas
//                 and Q2 index (RevtrService::add_sources) — one fan-out
//                 after another, each joined before the next starts and
//                 all before the net thread and workers exist.
//
// So the net thread does not own all connection state: a connection's
// output (queued bytes, push/pull mode, pull-mode RESULTs and the socket
// for sending) is an Outbox that the net thread and the workers share under
// its own mutex. The self-pipe wakes the net thread for a drain, stop(),
// agent work, and a RESULT the socket could not take at once (POLLOUT then
// sends the rest); a RESULT that fits costs the net thread nothing.
//
// Lock order: registry lookups (rank 10) and scheduler calls (rank 60) are
// resolved or made BEFORE taking mu_, never under it. mu_ (rank 110, above
// every library mutex) guards the submission queue, the admission
// controller, the quota service and the counters. An Outbox mutex is a leaf
// (rank 130): it may be taken under mu_ — admission queues SUBMIT_OK before
// a worker can see the request, so every RESULT follows its SUBMIT_OK — and
// nothing is taken under it. It is held only around buffer and send calls,
// never across decoding a connection's input. The net thread takes a
// socket from the workers (under that mutex) before it closes it, so no
// worker sends to a closed socket.
//
// Shutdown: request_drain() is async-signal-safe (SIGTERM handler calls it:
// one atomic store + one write() to the self-pipe). The net thread then
// flips the daemon into draining — admission refuses with kDraining, the
// workers finish every queued + in-flight request, and when the last one
// completes the daemon is drained: DRAIN_DONE goes to every client that
// asked, wait_until_drained() returns, and stop() joins everything. A
// worker queues a RESULT before its request leaves inflight, so DRAIN_DONE
// and stop()'s final flush come after the last RESULT on each connection.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/revtr.h"
#include "core/worker_stack.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "server/admission.h"
#include "server/frame.h"
#include "service/service.h"
#include "topology/builder.h"
#include "util/annotate.h"

namespace revtr::server {

struct TenantConfig {
  std::string name = "demo";
  std::string api_key = "demo-key";
  service::UserLimits limits;
  TokenBucketOptions bucket;
  // WFQ share against other tenants at the same priority level (see
  // FairQueue in server/admission.h). Relative, not absolute: 2.0 dequeues
  // twice as often as 1.0 under contention.
  double weight = 1.0;
};

struct ServerOptions {
  std::string socket_path = "/tmp/revtr_serverd.sock";
  topology::TopologyConfig topo;
  core::EngineConfig engine = core::EngineConfig::revtr2();
  sched::SchedOptions sched;
  AdmissionConfig admission;
  std::uint64_t seed = 7;
  std::size_t workers = 2;
  // Vantage points bootstrapped as sources at startup (SUBMIT source_index
  // addresses them in order).
  std::size_t sources = 1;
  std::size_t atlas_size = 50;
  // Requests a worker multiplexes concurrently over the scheduler.
  std::size_t max_inflight_per_worker = 16;
  // Tenants provisioned at startup; empty = one default TenantConfig{}.
  std::vector<TenantConfig> tenants;
  // Distributed controller mode (DESIGN.md §15): workers
  // never execute probes locally; wire demands are dispatched as AGENT_PROBE
  // frames to VP agents that joined with AGENT_REGISTER. With no agent
  // connected, accepted requests wait in the scheduler until one registers.
  bool remote_probing = false;
  // Remote mode: an agent silent (no heartbeat, result, or register) for
  // longer than this is declared dead and its in-flight assignments requeue
  // for reassignment. 0 disables expiry (EOF still detaches).
  std::int64_t agent_timeout_us = 2'000'000;
  // Test hook: when set, the scheduler records its issue/delivery audit
  // here so tests can run invariant I7 over a daemon campaign. Must outlive
  // the daemon; the caller reads it only after stop().
  sched::SchedulerAudit* sched_audit = nullptr;
};

// Wall time of start()'s four phases, in seconds. The STATS reply carries
// them as startup_lab_s / startup_tables_s / startup_survey_s /
// startup_atlas_s, beside offline_settled_probes: the offline RR pings of
// the survey and the Q2 index that stopped where their record filled
// (probing::Prober::rr_ping).
struct StartupTimings {
  double lab_s = 0;     // eval::Lab: topology, simulator.
  double tables_s = 0;  // Every BGP column and intra-AS matrix.
  double survey_s = 0;  // Offline ingress survey of every prefix (Q3).
  double atlas_s = 0;   // Source bootstrap: atlas + RR alias index (Q1/Q2).
};

// Lifetime totals, copied out under the daemon mutex. The same numbers back
// the STATS reply and the Prometheus counters; this plain struct is for
// tests and revtr_serverd's drain summary.
struct ServerCounters {
  std::uint64_t connections = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;        // Measured (not shed).
  std::uint64_t shed_queued = 0;      // Accepted, then shed from the queue.
  std::uint64_t deadline_missed = 0;  // Measured but past deadline.
  std::uint64_t protocol_errors = 0;
};

class ServerDaemon {
 public:
  explicit ServerDaemon(ServerOptions options);
  ~ServerDaemon();

  ServerDaemon(const ServerDaemon&) = delete;
  ServerDaemon& operator=(const ServerDaemon&) = delete;

  // Builds the Lab (topology + routing + atlas + ingress survey), provisions
  // tenants and sources, binds the socket, and spawns the net thread and
  // workers. False on socket errors (message on stderr).
  bool start();
  // Phase wall times of the last start(); zeros before it.
  StartupTimings startup_timings() const noexcept { return startup_; }

  // Begins a graceful drain. Async-signal-safe: an atomic flag plus a
  // write() to the self-pipe; the net thread does the actual transition.
  void request_drain() noexcept;

  // Blocks until every accepted request has completed or been shed after a
  // drain was requested.
  void wait_until_drained();

  // Joins all threads and closes the socket. Implies request_drain() —
  // accepted work is finished, not dropped. Idempotent.
  void stop();

  bool draining() const;
  ServerCounters counters() const;
  // Scheduler counters (remote-mode tests assert on reassigned /
  // stale_results). Valid between start() and stop().
  sched::SchedulerStats sched_stats() const;
  obs::MetricsRegistry& registry() noexcept { return registry_; }

  // Micros since start() on the daemon's steady clock — the timebase
  // HELLO_OK advertises and SUBMIT deadlines are expressed in.
  std::int64_t now_us() const;

  // Test hook: while held, workers park instead of popping the queue, so a
  // test can pile up queued requests (expiring deadlines, exhausting
  // quotas) deterministically before releasing the workers.
  void set_worker_hold(bool hold);

  // Routes SIGTERM/SIGINT to daemon->request_drain(). One daemon per
  // process; passing nullptr uninstalls.
  static void install_signal_handlers(ServerDaemon* daemon);

 private:
  // A connection's output, shared with the workers (daemon.cpp).
  struct Outbox;

  struct QueuedRequest {
    std::uint64_t index = 0;       // Daemon-internal, dense; seeds the RNG.
    std::shared_ptr<Outbox> out;   // Where the RESULT goes.
    std::uint64_t request_id = 0;  // Client-chosen, echoed in replies.
    service::UserId tenant = 0;
    topology::HostId destination = topology::kInvalidId;
    topology::HostId source = topology::kInvalidId;
    Priority priority = Priority::kNormal;
    std::int64_t deadline_us = 0;
    std::int64_t accepted_us = 0;
  };

  // Per-tenant counter handles, resolved once at start() (registry lookups
  // take the rank-10 registry mutex and must never run under mu_).
  struct TenantMetrics {
    obs::Counter* requests = nullptr;
  };

  void net_loop();
  void worker_loop(std::size_t w);
  // Handles one decoded frame from a connection. Defined in daemon.cpp on
  // the net thread's connection table.
  struct Conn;
  void handle_message(Conn& conn, Message message);
  // Snapshot of counters + SLO quantiles as JSON text. Takes the registry
  // snapshot before mu_ (rank 10 under rank 110 — never nested).
  std::string build_stats_json();
  void wake_net() noexcept;

  const ServerOptions options_;

  // --- Measurement stack, built by start(), immutable afterwards. The
  // pointed-to objects do their own locking (sharded metrics, the scheduler
  // and service mutexes); the pointers themselves never change. ---
  obs::MetricsRegistry registry_;  // lint: lock-free(internally synchronized)
  std::unique_ptr<eval::Lab> lab_;  // lint: lock-free(immutable after start)
  std::unique_ptr<service::ServiceMetrics>
      service_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<service::RevtrService>
      service_;  // lint: lock-free(internally synchronized)
  std::unique_ptr<core::EngineMetrics>
      engine_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<probing::ProbeMetrics>
      probe_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<sched::SchedMetrics>
      sched_metrics_;  // lint: lock-free(immutable after start)
  std::unique_ptr<sched::ProbeScheduler>
      scheduler_;  // lint: lock-free(internally synchronized)
  std::shared_ptr<core::EngineCaches>
      caches_;  // lint: lock-free(internally synchronized)
  std::vector<std::unique_ptr<core::WorkerStack>>
      stacks_;  // lint: lock-free(each stack private to one worker)
  std::vector<topology::HostId>
      source_hosts_;  // lint: lock-free(immutable after start)
  // Effective tenant set (options_.tenants, or one default when empty) and
  // the UserIds RevtrService assigned them, index-parallel.
  std::vector<TenantConfig>
      tenant_configs_;  // lint: lock-free(immutable after start)
  std::vector<service::UserId>
      tenant_ids_;  // lint: lock-free(immutable after start)
  // Indexed by UserId.
  std::vector<TenantMetrics>
      tenant_metrics_;  // lint: lock-free(immutable after start)

  // Metric handles, resolved once at start(); counters/histograms are
  // sharded relaxed atomics, safe from any thread.
  obs::Counter* requests_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* completed_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* sheds_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* deadline_miss_total_ =
      nullptr;  // lint: lock-free(set at start)
  obs::Counter* connections_total_ = nullptr;  // lint: lock-free(set at start)
  obs::Counter* protocol_errors_total_ =
      nullptr;  // lint: lock-free(set at start)
  obs::Counter* net_wakeups_total_ = nullptr;  // lint: lock-free(set at start)
  // Indexed by RejectReason.
  std::vector<obs::Counter*> reject_reasons_;  // lint: lock-free(set at start)
  obs::Histogram* wall_latency_us_ = nullptr;  // lint: lock-free(set at start)
  obs::Histogram* sim_latency_us_ = nullptr;  // lint: lock-free(set at start)
  obs::Gauge* queue_depth_ = nullptr;  // lint: lock-free(set at start)
  obs::Gauge* inflight_ = nullptr;  // lint: lock-free(set at start)

  // --- Sockets (owned by start()/stop(); the net loop reads them). ---
  int listen_fd_ = -1;  // lint: lock-free(set at start, read by net thread)
  int wake_pipe_[2] = {-1, -1};  // lint: lock-free(set at start)
  // steady_clock at start().
  std::int64_t epoch_ns_ = 0;  // lint: lock-free(set once at start)
  StartupTimings startup_;  // lint: lock-free(set once at start)

  // Set by request_drain() (possibly from a signal handler); the net thread
  // converts it into the guarded draining_ transition.
  std::atomic<bool> drain_requested_{false};

  // --- The daemon mutex (lock rank 110; see tools/revtr_lint.cpp). ---
  mutable util::Mutex mu_;
  std::condition_variable_any drained_cv_;  // drained_ flipped true.
  FairQueue<QueuedRequest> queue_ REVTR_GUARDED_BY(mu_);
  std::size_t queued_ REVTR_GUARDED_BY(mu_) = 0;
  std::size_t inflight_count_ REVTR_GUARDED_BY(mu_) = 0;
  std::uint64_t next_request_index_ REVTR_GUARDED_BY(mu_) = 0;
  AdmissionController admission_ REVTR_GUARDED_BY(mu_);
  ServerCounters counters_ REVTR_GUARDED_BY(mu_);
  bool draining_ REVTR_GUARDED_BY(mu_) = false;
  bool drained_ REVTR_GUARDED_BY(mu_) = false;
  bool stopping_ REVTR_GUARDED_BY(mu_) = false;
  bool worker_hold_ REVTR_GUARDED_BY(mu_) = false;

  bool started_ = false;  // lint: lock-free(caller thread only)
  std::vector<std::thread> threads_;  // lint: lock-free(start/stop only)
};

}  // namespace revtr::server
