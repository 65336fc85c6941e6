// Controller/agent split end-to-end (DESIGN.md §15): a daemon in
// --remote-probing mode with in-process AgentDaemon threads over a real
// AF_UNIX socket. Pins the distributed-mode correctness bar from ROADMAP
// item 5: remote campaigns are byte-identical to the monolith, agent death
// mid-campaign reassigns work without losing or double-delivering requests,
// and invariant I7 holds over the dispatcher's audit trail.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agent/agent.h"
#include "analysis/invariants.h"
#include "sched/scheduler.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/frame.h"
#include "server/stream.h"

namespace revtr {
namespace {

server::ServerOptions controller_options(const std::string& test_name) {
  server::ServerOptions options;
  options.socket_path = "/tmp/revtr_agent_test_" + test_name + ".sock";
  options.topo.seed = 11;
  options.topo.num_ases = 100;
  options.topo.num_vps = 6;
  options.topo.num_probe_hosts = 24;
  options.seed = 11;
  options.workers = 2;
  options.atlas_size = 20;
  return options;
}

// An agent configured to execute probes for `controller`: same simulated
// Internet (topology config + seed), which is what makes its probe outcomes
// byte-identical to the controller's own prober.
agent::AgentOptions agent_options(const server::ServerOptions& controller,
                                  const std::string& name,
                                  std::size_t window) {
  agent::AgentOptions options;
  options.socket_path = controller.socket_path;
  options.name = name;
  options.topo = controller.topo;
  options.seed = controller.seed;
  options.window = window;
  options.heartbeat_interval_ms = 50;
  return options;
}

// The per-request facts the monolith and the distributed deployment must
// agree on exactly. Simulated latency is excluded on purpose: round timing
// differs between a pump and a dispatch round, and the paper's bar is
// "same measurements", not "same clock".
struct Signature {
  std::uint64_t request_id = 0;
  core::RevtrStatus status = core::RevtrStatus::kUnreachable;
  bool shed = false;
  std::uint64_t probes = 0;
  std::vector<server::ResultHop> hops;

  bool operator==(const Signature&) const = default;
};

// Polls `done` every millisecond for up to 30 s; true once it holds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Submits `count` requests one at a time (submit, wait, next) and returns
// their signatures. Sequential submission keeps the scheduler's coalescing
// deterministic so the monolith/remote comparison is exact.
std::vector<Signature> run_campaign(const std::string& socket_path,
                                    std::size_t count) {
  std::vector<Signature> signatures;
  server::DaemonClient client;
  if (!client.connect(socket_path)) return signatures;
  if (!client.hello("demo-key").has_value()) return signatures;
  for (std::size_t i = 0; i < count; ++i) {
    server::Submit request;
    request.request_id = 100 + i;
    request.dest_index = static_cast<std::uint32_t>(i);
    if (!client.submit(request)) return signatures;
    std::optional<server::Result> result;
    if (client.next_result_for(result, /*timeout_ms=*/30'000) !=
        server::DaemonClient::WaitStatus::kOk) {
      return signatures;
    }
    signatures.push_back(Signature{result->request_id, result->status,
                                   result->shed, result->probes,
                                   std::move(result->hops)});
  }
  return signatures;
}

TEST(AgentSplit, RemoteCampaignByteIdenticalToMonolithAndI7Holds) {
  constexpr std::size_t kRequests = 4;

  // Monolith reference: workers execute probes on their own probers.
  std::vector<Signature> monolith;
  {
    server::ServerDaemon daemon(controller_options("monolith"));
    ASSERT_TRUE(daemon.start());
    monolith = run_campaign(controller_options("monolith").socket_path,
                            kRequests);
    daemon.stop();
  }
  ASSERT_EQ(monolith.size(), kRequests);

  // Distributed deployment: same requests through a controller plus two VP
  // agents. Both register before the first request, and the net thread
  // hands out work in registration order, so a small agent window spreads
  // wire probes across both: a 3-demand spoofed batch splits 2/1.
  sched::SchedulerAudit audit;
  auto options = controller_options("remote");
  options.remote_probing = true;
  options.sched_audit = &audit;
  std::vector<Signature> remote;
  agent::AgentDaemon agent_a(agent_options(options, "vp-a", 2));
  agent::AgentDaemon agent_b(agent_options(options, "vp-b", 2));
  bool a_clean = false;
  bool b_clean = false;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    std::thread thread_a([&] { a_clean = agent_a.run(); });
    std::thread thread_b([&] { b_clean = agent_b.run(); });
    EXPECT_TRUE(eventually([&] {
      return agent_a.agent_id() != 0 && agent_b.agent_id() != 0;
    })) << "agents never registered";
    remote = run_campaign(options.socket_path, kRequests);
    // Drain: the controller finishes accepted work, then sends AGENT_DRAIN
    // to both agents, which exit their run loops cleanly.
    daemon.request_drain();
    daemon.wait_until_drained();
    thread_a.join();
    thread_b.join();
    daemon.stop();
  }
  ASSERT_EQ(remote.size(), kRequests);

  // The distributed campaign IS the monolith campaign, bit for bit.
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(remote[i], monolith[i]) << "request " << i;
  }

  EXPECT_TRUE(a_clean) << "agent a did not drain cleanly";
  EXPECT_TRUE(b_clean) << "agent b did not drain cleanly";
  // Every wire probe crossed the wire: the agents did all the probing, and
  // the small window made both of them do some of it.
  EXPECT_GT(agent_a.counters().executed, 0u);
  EXPECT_GT(agent_b.counters().executed, 0u);

  // I7 over the dispatcher's audit: every coalesced delivery matches an
  // issued wire probe's digest and the per-VP window held — across process
  // boundaries.
  EXPECT_FALSE(audit.issues.empty());
  const auto violations = analysis::check_scheduler(audit, options.sched);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << violations.front().detail;
}

TEST(AgentSplit, AgentDeathMidCampaignReassignsWithoutDoubleDelivery) {
  constexpr std::size_t kRequests = 4;

  sched::SchedulerAudit audit;
  auto options = controller_options("kill");
  options.remote_probing = true;
  options.sched_audit = &audit;
  // Exactly enough quota for the campaign: a double-charged request would
  // turn one of the submits below into kQuotaExhausted.
  server::TenantConfig tenant;
  tenant.limits.daily_limit = kRequests;
  options.tenants.push_back(tenant);

  // Agent a takes a big window of assignments, executes ONE probe, then
  // vanishes without a goodbye (abrupt socket close, answers lost). The
  // controller must detach it, requeue its in-flight assignments, and let
  // agent b finish the campaign.
  auto doomed = agent_options(options, "vp-doomed", 8);
  doomed.die_after_probes = 1;
  agent::AgentDaemon agent_a(doomed);
  agent::AgentDaemon agent_b(agent_options(options, "vp-survivor", 8));

  bool a_clean = true;
  bool b_clean = false;
  server::ServerCounters counters;
  sched::SchedulerStats stats;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    server::DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    // A fixed schedule: every request is submitted, and every first demand
    // set queued, before any agent exists. The doomed agent registers
    // alone, so its first dispatch takes every queued demand (up to its
    // window) and it dies holding unanswered ones; the survivor registers
    // after it.
    for (std::size_t i = 0; i < kRequests; ++i) {
      server::Submit request;
      request.request_id = 200 + i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    EXPECT_TRUE(eventually(
        [&] { return daemon.sched_stats().demanded >= kRequests; }))
        << "first demand sets never queued";
    std::thread thread_a([&] { a_clean = agent_a.run(); });
    EXPECT_TRUE(eventually([&] { return agent_a.agent_id() != 0; }))
        << "doomed agent never registered";
    std::thread thread_b([&] { b_clean = agent_b.run(); });

    // Every request resolves exactly once despite the mid-campaign death.
    std::vector<bool> seen(kRequests, false);
    for (std::size_t i = 0; i < kRequests; ++i) {
      std::optional<server::Result> result;
      ASSERT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
                server::DaemonClient::WaitStatus::kOk)
          << "campaign stalled after agent death";
      ASSERT_GE(result->request_id, 200u);
      const std::size_t index = result->request_id - 200;
      ASSERT_LT(index, kRequests);
      EXPECT_FALSE(seen[index]) << "request delivered twice";
      seen[index] = true;
      EXPECT_FALSE(result->shed);
      EXPECT_GT(result->probes, 0u);
    }

    thread_a.join();
    daemon.request_drain();
    daemon.wait_until_drained();
    thread_b.join();
    counters = daemon.counters();
    stats = daemon.sched_stats();
    daemon.stop();
  }

  EXPECT_FALSE(a_clean) << "die_after_probes must look like a crash";
  EXPECT_TRUE(b_clean);
  EXPECT_EQ(agent_a.counters().executed, 1u);
  EXPECT_GT(agent_b.counters().executed, 0u);

  // The controller noticed the death: the dead agent's in-flight
  // assignments were requeued and reissued, not lost.
  EXPECT_GT(stats.reassigned, 0u);
  // Exactly one completion per accepted request — no double delivery, no
  // double quota charge (the daily limit above would have tripped).
  EXPECT_EQ(counters.accepted, kRequests);
  EXPECT_EQ(counters.completed, kRequests);
  EXPECT_EQ(counters.shed_queued, 0u);

  // I7 still holds over the detach/requeue/reassign history.
  const auto violations = analysis::check_scheduler(audit, options.sched);
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations, e.g. "
                                  << violations.front().detail;
}

// A remote-mode worker parks while its demands wait for an agent, and new
// admission work still wakes it: with one worker and no agent attached, a
// second SUBMIT is started while the first request's demands sit queued,
// and both results arrive once an agent registers.
TEST(AgentSplit, ParkedRemoteWorkerStartsNewWorkBeforeAnyAgent) {
  auto options = controller_options("parked");
  options.remote_probing = true;
  options.workers = 1;
  agent::AgentDaemon agent(agent_options(options, "vp-late", 8));

  bool clean = false;
  std::vector<std::uint64_t> answered;
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    server::DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    const auto submit = [&client](std::uint64_t id, std::uint32_t dest) {
      server::Submit request;
      request.request_id = id;
      request.dest_index = dest;
      return client.submit(request);
    };

    // The first request's demands queue with no agent to take them, so the
    // only worker parks.
    ASSERT_TRUE(submit(400, 0));
    ASSERT_TRUE(eventually([&] { return daemon.sched_stats().demanded > 0; }))
        << "the first request never submitted demands";
    const std::uint64_t first = daemon.sched_stats().demanded;
    // A second SUBMIT wakes it, and it starts the second request.
    ASSERT_TRUE(submit(401, 1));
    EXPECT_TRUE(eventually(
        [&] { return daemon.sched_stats().demanded > first; }))
        << "the parked worker never started the second request";
    EXPECT_EQ(daemon.sched_stats().issued, 0u);

    std::thread thread([&] { clean = agent.run(); });
    for (int i = 0; i < 2; ++i) {
      std::optional<server::Result> result;
      const auto status = client.next_result_for(result, /*timeout_ms=*/30'000);
      EXPECT_EQ(status, server::DaemonClient::WaitStatus::kOk)
          << "a request stayed stranded after the agent registered";
      if (status != server::DaemonClient::WaitStatus::kOk) break;
      EXPECT_FALSE(result->shed);
      answered.push_back(result->request_id);
    }
    daemon.request_drain();
    daemon.wait_until_drained();
    thread.join();
    daemon.stop();
  }
  std::sort(answered.begin(), answered.end());
  EXPECT_EQ(answered, (std::vector<std::uint64_t>{400, 401}));
  EXPECT_TRUE(clean);
  EXPECT_GT(agent.counters().executed, 0u);
}

TEST(AgentSplit, BusyAgentStaysAliveOnResultsAlone) {
  constexpr std::size_t kRequests = 6;
  constexpr std::int64_t kTimeoutUs = 500'000;

  // The controller expires an agent silent for 0.5 s. The agent would
  // heartbeat only once a minute, and its wall-clock pacing keeps it busy
  // for several timeouts: the results it streams back are its only sign of
  // life, and they must be enough.
  auto options = controller_options("busy");
  options.remote_probing = true;
  options.agent_timeout_us = kTimeoutUs;
  auto busy = agent_options(options, "vp-busy", 2);
  busy.heartbeat_interval_ms = 60'000;
  busy.probes_per_sec = 20;
  agent::AgentDaemon agent(busy);

  bool clean = false;
  sched::SchedulerStats stats;
  std::chrono::steady_clock::duration busy_for{};
  {
    server::ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    std::thread thread([&] { clean = agent.run(); });
    while (agent.agent_id() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    server::DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kRequests; ++i) {
      server::Submit request;
      request.request_id = 300 + i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
      std::optional<server::Result> result;
      ASSERT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
                server::DaemonClient::WaitStatus::kOk)
          << "requests stranded on an expired agent";
      EXPECT_FALSE(result->shed);
    }
    busy_for = std::chrono::steady_clock::now() - begin;

    daemon.request_drain();
    daemon.wait_until_drained();
    thread.join();
    stats = daemon.sched_stats();
    daemon.stop();
  }

  // The campaign outlasted the timeout, so expiry had every chance to fire.
  EXPECT_GT(busy_for, std::chrono::microseconds(2 * kTimeoutUs));
  EXPECT_EQ(agent.counters().heartbeats, 0u);
  EXPECT_EQ(stats.agents_expired, 0u);
  EXPECT_EQ(stats.reassigned, 0u);
  EXPECT_TRUE(clean);
}

// revtr_agentd exits 0 on a controller hang-up whether a read or a send
// sees it first. A fake controller takes the REGISTER, shuts its read side
// down, and then assigns one probe (from a vantage point the agent does not
// have, so it answers at once): the agent's result send fails with EPIPE.
TEST(AgentSplit, ControllerHangUpSeenOnSendIsACleanExit) {
  const auto options = controller_options("hangup");
  unlink(options.socket_path.c_str());
  const int listener = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(options.socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ASSERT_EQ(bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 1), 0);

  agent::AgentDaemon agent(agent_options(options, "vp-hangup", 2));
  bool clean = false;
  std::thread thread([&] { clean = agent.run(); });

  server::FrameStream controller;
  controller.adopt(accept4(listener, nullptr, nullptr, SOCK_CLOEXEC));
  std::optional<server::Message> reg;
  const bool registered =
      controller.read(reg, /*timeout_ms=*/30'000) ==
          server::FrameStream::Status::kOk &&
      std::holds_alternative<server::AgentRegister>(*reg);
  EXPECT_TRUE(registered);
  if (registered) {
    EXPECT_EQ(shutdown(controller.fd(), SHUT_RD), 0);
    server::HelloOk ack;
    ack.tenant = 1;
    controller.queue(ack);
    server::AgentProbe probe;
    probe.ticket = 1;
    probe.spec.from = topology::kInvalidId;
    controller.queue(probe);
    EXPECT_EQ(controller.flush(), server::FrameStream::Status::kOk);
  } else {
    controller.close();  // Releases the agent with an EOF.
  }

  thread.join();
  EXPECT_TRUE(clean) << "a controller hang-up seen on a send is a clean end";
  EXPECT_EQ(agent.counters().executed, 1u);
  EXPECT_EQ(agent.counters().invalid_specs, 1u);
  controller.close();
  close(listener);
  unlink(options.socket_path.c_str());
}

}  // namespace
}  // namespace revtr
