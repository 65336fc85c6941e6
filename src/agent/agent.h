// revtr_agentd: the VP-agent half of the controller/agent split (ROADMAP
// item 5, DESIGN.md §15).
//
// The paper's deployment runs the controller and the vantage points as
// separate machines: VPs execute probes, the controller plans them. This
// module is the VP side over the simulated Internet — an AgentDaemon owns
// its own Prober (over a Network built from the same topology config and
// net seed as the controller's, so every spec resolves to the byte-identical
// reply; see the determinism contract in probing/transport.h) and speaks the
// agent frames of server/frame.h over the controller's AF_UNIX socket:
//
//   agent  -> controller   AGENT_REGISTER (ack: HELLO_OK with the agent id)
//   controller -> agent    AGENT_PROBE    (ticketed assignment)
//   agent  -> controller   AGENT_PROBE_RESULT
//   agent  -> controller   AGENT_HEARTBEAT (liveness, every interval)
//   either direction       AGENT_DRAIN    (finish up, then part ways)
//
// The agent is single-threaded: run() owns the socket and executes each
// assignment synchronously in arrival order, pacing per-VP with a local
// token bucket (pacing delays execution on the wall clock; it can never
// change a simulated outcome). Its mutex (lock rank 120, above the daemon's
// 110 — the two never nest in one process, but in-process tests run both)
// only guards the counters the test/CLI threads read.
//
// Shutdown: SIGTERM/SIGINT routes to request_drain() (one atomic store);
// the loop notices within one heartbeat interval, answers everything it has
// read, sends AGENT_DRAIN with its lifetime executed count, and exits
// cleanly. The controller requeues whatever was still in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "eval/harness.h"
#include "server/frame.h"
#include "server/stream.h"
#include "topology/builder.h"
#include "util/annotate.h"

namespace revtr::agent {

struct AgentOptions {
  std::string socket_path = "/tmp/revtr_serverd.sock";
  std::string name = "vp-agent";
  // Must match the controller's topology config and seed exactly — the
  // byte-equality of remote campaigns rests on both sides simulating the
  // same Internet (the controller cannot verify this; it trusts REGISTER).
  topology::TopologyConfig topo;
  std::uint64_t seed = 7;
  // In-flight assignment window requested at REGISTER.
  std::size_t window = 16;
  // Local per-VP rate limit: sustained probes per second per vantage point,
  // enforced on the wall clock before executing. 0 = unlimited. Burst is
  // the window size.
  double probes_per_sec = 0.0;
  std::int64_t heartbeat_interval_ms = 200;
  // Test hook: after executing this many probes, close the socket abruptly
  // — no drain, unanswered assignments left in flight — so tests can
  // exercise the controller's failure/reassignment path deterministically.
  // 0 = never.
  std::uint64_t die_after_probes = 0;
};

struct AgentCounters {
  std::uint64_t executed = 0;       // Assignments answered.
  std::uint64_t invalid_specs = 0;  // Assignments refused (bad vantage
                                    // point); answered unresponsive.
  std::uint64_t heartbeats = 0;
};

class AgentDaemon {
 public:
  explicit AgentDaemon(AgentOptions options);
  ~AgentDaemon();

  AgentDaemon(const AgentDaemon&) = delete;
  AgentDaemon& operator=(const AgentDaemon&) = delete;

  // Builds the measurement stack, connects, registers, and serves until a
  // drain (AGENT_DRAIN, SIGTERM) or the controller hangs up. Blocks the
  // calling thread. True on a clean exit (registered, then drained, or the
  // controller hung up — seen on a read or on a send); false on
  // connect/register failure, protocol error, or the die_after_probes crash
  // hook.
  bool run();

  // Begins a graceful drain. Async-signal-safe (one atomic store); the
  // run() loop notices within one heartbeat interval.
  void request_drain() noexcept;

  AgentCounters counters() const REVTR_EXCLUDES(mu_);

  // Agent id the controller assigned at REGISTER (0 before registration).
  // Atomic so a test thread can spin-wait for registration while run()
  // owns the socket.
  std::uint64_t agent_id() const noexcept {
    return agent_id_.load(std::memory_order_acquire);
  }

  // Routes SIGTERM/SIGINT to agent->request_drain(). One agent per
  // process; passing nullptr uninstalls.
  static void install_signal_handlers(AgentDaemon* agent);

 private:
  // Wall-clock token bucket for one vantage point.
  struct Pacer {
    double tokens = 0.0;
    std::int64_t last_refill_us = 0;
  };

  // Executes one assignment (validation, pacing, probe, result frame).
  // False when the send failed or the crash hook fired.
  bool handle_assignment(const server::AgentProbe& probe);
  void pace(topology::HostId vp);

  const AgentOptions options_;

  // Measurement stack, built by run(). The Lab carries topology + routing;
  // the agent's own Network + Prober execute the probes (same net seed
  // derivation as the controller's worker stacks).
  std::unique_ptr<eval::Lab> lab_;  // lint: lock-free(run thread only)
  std::unique_ptr<sim::Network>
      network_;  // lint: lock-free(run thread only)
  std::unique_ptr<probing::Prober>
      prober_;  // lint: lock-free(run thread only)

  server::FrameStream stream_;  // lint: lock-free(run thread only)
  std::unordered_map<topology::HostId, Pacer>
      pacers_;  // lint: lock-free(run thread only)
  std::atomic<std::uint64_t> agent_id_{0};  // Set once at register.

  // Set by request_drain() (possibly from a signal handler).
  std::atomic<bool> drain_requested_{false};

  // --- The agent mutex (lock rank 120; see tools/revtr_lint.cpp). Guards
  // only the counters — the run loop is otherwise single-threaded. ---
  mutable util::Mutex mu_;
  AgentCounters counters_ REVTR_GUARDED_BY(mu_);
};

}  // namespace revtr::agent
