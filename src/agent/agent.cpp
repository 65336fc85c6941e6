#include "agent/agent.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>
#include <utility>
#include <variant>

#include "core/worker_stack.h"
#include "probing/transport.h"

namespace revtr::agent {

using server::AgentDrain;
using server::AgentHeartbeat;
using server::AgentProbe;
using server::AgentProbeResult;
using server::AgentRegister;
using server::FrameStream;
using server::HelloOk;
using server::Message;

namespace {

// One agent per process for signal routing (install_signal_handlers).
std::atomic<AgentDaemon*> g_signal_agent{nullptr};

void drain_signal_handler(int /*signum*/) {
  AgentDaemon* a = g_signal_agent.load(std::memory_order_acquire);
  if (a != nullptr) a->request_drain();
}

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AgentDaemon::AgentDaemon(AgentOptions options)
    : options_(std::move(options)) {}

AgentDaemon::~AgentDaemon() {
  if (g_signal_agent.load(std::memory_order_acquire) == this) {
    install_signal_handlers(nullptr);
  }
}

void AgentDaemon::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
}

void AgentDaemon::install_signal_handlers(AgentDaemon* agent) {
  g_signal_agent.store(agent, std::memory_order_release);
  if (agent != nullptr) {
    std::signal(SIGTERM, drain_signal_handler);
    std::signal(SIGINT, drain_signal_handler);
  } else {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

AgentCounters AgentDaemon::counters() const {
  const util::MutexLock lock(mu_);
  return counters_;
}

void AgentDaemon::pace(topology::HostId vp) {
  if (options_.probes_per_sec <= 0.0) return;
  Pacer& pacer = pacers_[vp];
  const double burst = static_cast<double>(std::max<std::size_t>(
      options_.window, 1));
  for (;;) {
    const std::int64_t now = wall_now_us();
    if (pacer.last_refill_us == 0) {
      pacer.last_refill_us = now;
      pacer.tokens = burst;
    }
    const double elapsed_s =
        static_cast<double>(now - pacer.last_refill_us) / 1e6;
    pacer.tokens = std::min(burst,
                            pacer.tokens + elapsed_s * options_.probes_per_sec);
    pacer.last_refill_us = now;
    if (pacer.tokens >= 1.0) {
      pacer.tokens -= 1.0;
      return;
    }
    // Sleep out the deficit (bounded so a drain signal is noticed soon).
    const double wait_s = (1.0 - pacer.tokens) / options_.probes_per_sec;
    const auto wait_us = static_cast<std::int64_t>(wait_s * 1e6) + 1;
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min<std::int64_t>(wait_us, 50'000)));
    if (drain_requested_.load(std::memory_order_acquire)) {
      // Drain beats pacing: execute immediately rather than stall the
      // controller's drain on a rate limit.
      return;
    }
  }
}

bool AgentDaemon::handle_assignment(const AgentProbe& probe) {
  probing::ProbeReply reply;
  // The spec arrived off the wire: the codec bounded every field, but only
  // the agent knows its own topology — refuse a vantage point outside it
  // (answered unresponsive, so the controller's request still resolves).
  if (probe.spec.from == topology::kInvalidId ||
      probe.spec.from >= lab_->topo.num_hosts()) {
    const util::MutexLock lock(mu_);
    ++counters_.invalid_specs;
  } else {
    pace(probe.spec.from);
    reply = probing::execute_spec(*prober_, probe.spec);
  }
  std::uint64_t executed = 0;
  {
    const util::MutexLock lock(mu_);
    executed = ++counters_.executed;
  }
  if (stream_.send(AgentProbeResult{probe.ticket, std::move(reply)}) !=
      FrameStream::Status::kOk) {
    return false;
  }
  if (options_.die_after_probes > 0 && executed >= options_.die_after_probes) {
    // Crash hook: vanish abruptly, leaving every unanswered assignment in
    // flight for the controller to reassign.
    stream_.close();
    return false;
  }
  return true;
}

bool AgentDaemon::run() {
  // The agent's half of the simulated Internet: same topology config, same
  // seed derivation as ServerDaemon::start(), so execute_spec here returns
  // byte-identical replies to a controller-local prober.
  lab_ = std::make_unique<eval::Lab>(options_.topo,
                                     core::EngineConfig::revtr2(),
                                     options_.seed);
  network_ = std::make_unique<sim::Network>(
      lab_->topo, lab_->plane, core::WorkerStack::network_seed(options_.seed));
  prober_ = std::make_unique<probing::Prober>(*network_);

  // Retry while the controller is still binding, like DaemonClient.
  if (!stream_.connect(options_.socket_path, /*retries=*/50)) {
    std::fprintf(stderr, "revtr_agentd: cannot connect to %s\n",
                 options_.socket_path.c_str());
    return false;
  }
  AgentRegister reg;
  reg.proto_version = server::kProtoVersion;
  reg.window = static_cast<std::uint32_t>(options_.window);
  reg.name = options_.name;
  std::optional<Message> ack;
  if (stream_.send(reg) != FrameStream::Status::kOk ||
      stream_.read(ack, /*timeout_ms=*/-1) != FrameStream::Status::kOk ||
      !std::holds_alternative<HelloOk>(*ack)) {
    std::fprintf(stderr, "revtr_agentd: register rejected\n");
    stream_.close();
    return false;
  }
  agent_id_.store(std::get<HelloOk>(*ack).tenant, std::memory_order_release);

  const int heartbeat_ms =
      static_cast<int>(std::max<std::int64_t>(options_.heartbeat_interval_ms,
                                              1));
  auto last_beat = std::chrono::steady_clock::now();
  // Exit rule: a drain either way, or a controller hang-up whether a read
  // or a send saw it, is a clean end (assignments run synchronously, so
  // nothing is half-answered). A protocol error and the crash hook are not.
  bool draining = false;
  bool clean = false;
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire)) draining = true;
    if (draining) {
      // Everything read has been answered; say goodbye and leave. The
      // controller detaches us and requeues anything it still had queued
      // for this connection.
      std::uint64_t executed = 0;
      {
        const util::MutexLock lock(mu_);
        executed = counters_.executed;
      }
      stream_.send(AgentDrain{executed});
      clean = true;
      break;
    }
    // A timeout yields no message; a drain signal is seen at the loop top
    // within one heartbeat interval.
    std::optional<Message> message;
    const auto status = stream_.read(message, heartbeat_ms);
    if (status == FrameStream::Status::kHungUp) {
      clean = true;
      break;
    }
    if (status == FrameStream::Status::kProtocolError) break;
    if (message.has_value()) {
      if (const AgentProbe* probe = std::get_if<AgentProbe>(&*message)) {
        if (!handle_assignment(*probe)) {
          clean = stream_.hung_up();  // The crash hook closed the stream.
          break;
        }
      } else if (std::holds_alternative<AgentDrain>(*message)) {
        draining = true;
      } else {
        break;  // Anything else from the controller is a protocol error.
      }
    }
    // Heartbeat every interval, busy or idle: an agent that always has an
    // assignment waiting never times out its read.
    const auto now = std::chrono::steady_clock::now();
    if (now - last_beat >= std::chrono::milliseconds(heartbeat_ms)) {
      std::uint64_t executed = 0;
      {
        const util::MutexLock lock(mu_);
        ++counters_.heartbeats;
        executed = counters_.executed;
      }
      if (stream_.send(AgentHeartbeat{0, executed}) !=
          FrameStream::Status::kOk) {
        clean = true;  // A blocking send fails only when the peer hung up.
        break;
      }
      last_beat = now;
    }
  }
  stream_.close();
  return clean;
}

}  // namespace revtr::agent
