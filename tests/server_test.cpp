// revtr_serverd subsystem tests: admission policy in isolation, quota
// charge/refund semantics on RevtrService, and the daemon end-to-end over a
// real AF_UNIX socket — auth, submit/result, pull mode, deadline edge
// cases, graceful DRAIN with staged tasks in flight, and SIGTERM shutdown.
//
// Suite names matter: scripts/check.sh re-runs ServerDaemon* under TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "eval/harness.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/frame.h"
#include "server/stream.h"
#include "service/service.h"
#include "util/json.h"

namespace revtr::server {
namespace {

// --- AdmissionController in isolation (externally synchronized). ----------

TEST(Admission, TokenBucketRefillsAtRate) {
  TokenBucketOptions options;
  options.rate_per_sec = 10;
  options.burst = 2;
  TokenBucket bucket(options);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0)) << "burst exhausted";
  // 100 ms at 10/s refills exactly one token.
  EXPECT_TRUE(bucket.try_take(100'000));
  EXPECT_FALSE(bucket.try_take(100'000));
}

TEST(Admission, TokenBucketCapsAtBurst) {
  TokenBucketOptions options;
  options.rate_per_sec = 1000;
  options.burst = 3;
  TokenBucket bucket(options);
  // A long idle period must not bank more than `burst` tokens.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.try_take(10'000'000));
  EXPECT_FALSE(bucket.try_take(10'000'000));
}

class AdmissionDecide : public ::testing::Test {
 protected:
  AdmissionDecide() : controller_(AdmissionConfig{}) {
    TokenBucketOptions generous;
    generous.rate_per_sec = 1e9;
    generous.burst = 1e9;
    controller_.add_tenant(1, generous);
  }
  AdmissionController controller_;
  AdmissionLoad load_;
};

TEST_F(AdmissionDecide, AdmitsByDefault) {
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), std::nullopt);
}

TEST_F(AdmissionDecide, DrainingRefusesEverything) {
  load_.draining = true;
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), RejectReason::kDraining);
}

TEST_F(AdmissionDecide, ExpiredDeadlineRejectedUpFront) {
  EXPECT_EQ(controller_.decide(1, /*deadline_us=*/500, /*now_us=*/1000, load_),
            RejectReason::kDeadlineExpired);
  // Zero means "no deadline", never "expired".
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), std::nullopt);
}

TEST_F(AdmissionDecide, TokenBucketRateLimits) {
  TokenBucketOptions stingy;
  stingy.rate_per_sec = 0;
  stingy.burst = 1;
  controller_.add_tenant(2, stingy);
  EXPECT_EQ(controller_.decide(2, 0, 0, load_), std::nullopt);
  EXPECT_EQ(controller_.decide(2, 0, 0, load_), RejectReason::kRateLimited);
}

TEST_F(AdmissionDecide, FullQueueSheds) {
  load_.queued = AdmissionConfig{}.queue_capacity;
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_), RejectReason::kQueueFull);
}

TEST_F(AdmissionDecide, SchedulerBacklogBackpressures) {
  load_.sched_backlog = AdmissionConfig{}.sched_backlog_limit + 1;
  EXPECT_EQ(controller_.decide(1, 0, 1000, load_),
            RejectReason::kBackpressure);
}

TEST_F(AdmissionDecide, UnmeetableDeadlineShedsEarly) {
  // Teach the controller that a request takes ~1 s, then offer a deadline
  // only 100 ms away with a deep queue in front of it.
  for (int i = 0; i < 8; ++i) controller_.observe_latency(1'000'000);
  load_.queued = 10;
  load_.inflight = 4;
  EXPECT_GT(controller_.estimated_wait_us(load_), 0);
  EXPECT_EQ(controller_.decide(1, /*deadline_us=*/100'000, /*now_us=*/0,
                               load_),
            RejectReason::kDeadlineUnmeetable);
  // The same load with a far deadline is fine.
  EXPECT_EQ(controller_.decide(1, /*deadline_us=*/3'600'000'000LL,
                               /*now_us=*/0, load_),
            std::nullopt);
}

TEST_F(AdmissionDecide, LatencyEwmaTracksSamples) {
  controller_.observe_latency(1000);
  EXPECT_DOUBLE_EQ(controller_.smoothed_latency_us(), 1000);
  controller_.observe_latency(2000);
  // alpha = 0.2: 1000 + 0.2 * (2000 - 1000).
  EXPECT_DOUBLE_EQ(controller_.smoothed_latency_us(), 1200);
}

// --- Weighted fair queuing across tenants (FairQueue in isolation). -------

TEST(FairQueuing, FloodingTenantCannotStarvePeer) {
  // Tenant 1 floods 100 requests before tenant 2 submits 10, all at the
  // same priority and equal weight. FIFO would make tenant 2 wait out the
  // whole flood; start-time fair queuing interleaves instead.
  FairQueue<std::uint32_t> queue;
  for (std::uint32_t i = 0; i < 100; ++i) queue.push(1, /*flow=*/1, i);
  for (std::uint32_t i = 0; i < 10; ++i) queue.push(1, /*flow=*/2, 100 + i);
  // Within the first 30 pops, every one of tenant 2's 10 items must have
  // been served (round-robin at equal weight drains the short flow fast).
  std::size_t tenant2_served = 0;
  for (int i = 0; i < 30; ++i) {
    const auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    if (*item >= 100) ++tenant2_served;
  }
  EXPECT_EQ(tenant2_served, 10u) << "late tenant starved behind the flood";
  // The remaining items all belong to tenant 1 and drain in FIFO order.
  std::uint32_t expect_next = 20;
  while (!queue.empty()) EXPECT_EQ(*queue.pop(), expect_next++);
}

TEST(FairQueuing, WeightsSkewServiceProportionally) {
  // Tenant 1 at weight 2, tenant 2 at weight 1, both backlogged: tenant 1
  // should receive ~2/3 of the service while both queues are non-empty.
  FairQueue<std::uint32_t> queue;
  queue.set_weight(1, 2.0);
  queue.set_weight(2, 1.0);
  for (std::uint32_t i = 0; i < 60; ++i) {
    queue.push(0, 1, /*tenant 1 marker=*/0);
    queue.push(0, 2, /*tenant 2 marker=*/1);
  }
  std::size_t tenant1 = 0;
  for (int i = 0; i < 60; ++i) {
    if (*queue.pop() == 0) ++tenant1;
  }
  EXPECT_GE(tenant1, 38u) << "weight-2 tenant under-served";
  EXPECT_LE(tenant1, 42u) << "weight-2 tenant over-served";
}

TEST(FairQueuing, StrictPriorityBeatsFairnessAcrossLevels) {
  // Fairness applies within a level; across levels, a lower level number
  // always wins no matter how backlogged the flows below it are.
  FairQueue<int> queue;
  for (int i = 0; i < 50; ++i) queue.push(2, 1, 1000 + i);
  queue.push(1, 2, 7);
  queue.push(0, 3, 3);
  EXPECT_EQ(queue.size(), 52u);
  EXPECT_EQ(*queue.pop(), 3);
  EXPECT_EQ(*queue.pop(), 7);
  EXPECT_EQ(*queue.pop(), 1000);
}

TEST(FairQueuing, IdleFlowDoesNotBankCredit) {
  // A flow that went idle restarts at the level's virtual time: it cannot
  // burst ahead of an always-busy flow by "saving up" unused service.
  FairQueue<int> queue;
  for (int i = 0; i < 4; ++i) queue.push(0, 1, 10 + i);
  // Flow 2 was idle while flow 1 consumed service...
  EXPECT_EQ(*queue.pop(), 10);
  EXPECT_EQ(*queue.pop(), 11);
  // ...then shows up. It gets its fair share from now on, not a burst of
  // four back-to-back pops to "catch up".
  for (int i = 0; i < 4; ++i) queue.push(0, 2, 20 + i);
  EXPECT_EQ(*queue.pop(), 12);
  EXPECT_EQ(*queue.pop(), 20);
  EXPECT_EQ(*queue.pop(), 13);
  EXPECT_EQ(*queue.pop(), 21);
}

// --- Quota charge/refund semantics on RevtrService directly. --------------

TEST(ServiceQuota, ChargeRefundRoundTrip) {
  topology::TopologyConfig topo;
  topo.seed = 11;
  topo.num_ases = 60;
  topo.num_vps = 5;
  topo.num_probe_hosts = 20;
  eval::Lab lab(topo);
  service::RevtrService service(lab.engine, lab.atlas, lab.prober, lab.topo);
  service::UserLimits limits;
  limits.daily_limit = 2;
  const auto user = service.add_user("capped", limits);

  using Decision = service::RevtrService::QuotaDecision;
  EXPECT_EQ(service.try_charge_request(999), Decision::kUnknownUser);
  EXPECT_EQ(service.try_charge_request(user), Decision::kCharged);
  EXPECT_EQ(service.try_charge_request(user), Decision::kCharged);
  EXPECT_EQ(service.requests_charged_today(user), 2u);
  EXPECT_EQ(service.try_charge_request(user), Decision::kQuotaExhausted);
  // A refund (request shed / incomplete) reopens the window.
  service.refund_request(user);
  EXPECT_EQ(service.requests_charged_today(user), 1u);
  EXPECT_EQ(service.try_charge_request(user), Decision::kCharged);
  EXPECT_EQ(service.try_charge_request(user), Decision::kQuotaExhausted);
}

// --- Daemon end-to-end over a real socket. --------------------------------

ServerOptions small_daemon_options(const std::string& test_name) {
  ServerOptions options;
  options.socket_path = "/tmp/revtr_server_test_" + test_name + ".sock";
  options.topo.seed = 11;
  options.topo.num_ases = 100;
  options.topo.num_vps = 6;
  options.topo.num_probe_hosts = 24;
  options.seed = 11;
  options.workers = 2;
  options.atlas_size = 20;
  return options;
}

TEST(ServerDaemon, HelloAuthRejectsBadKeyAndVersion) {
  const auto options = small_daemon_options("auth");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    EXPECT_FALSE(client.hello("wrong-key").has_value());
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kBadApiKey);
    // Same connection can retry with the right key.
    const auto welcome = client.hello("demo-key");
    ASSERT_TRUE(welcome.has_value());
    EXPECT_EQ(welcome->tenant_name, "demo");
    EXPECT_GT(welcome->server_now_us, 0);
  }
  daemon.stop();
}

TEST(ServerDaemon, SubmitWithoutHelloRejected) {
  ServerDaemon daemon(small_daemon_options("unauth"));
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(small_daemon_options("unauth").socket_path));
    Submit request;
    request.request_id = 1;
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kNotAuthenticated);
  }
  daemon.stop();
}

TEST(ServerDaemon, SubmitMeasuresAndPushesResults) {
  const auto options = small_daemon_options("measure");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    for (std::uint64_t i = 0; i < 3; ++i) {
      Submit request;
      request.request_id = 100 + i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    for (int i = 0; i < 3; ++i) {
      const auto result = client.next_result();
      ASSERT_TRUE(result.has_value());
      EXPECT_GE(result->request_id, 100u);
      EXPECT_FALSE(result->shed);
      EXPECT_GT(result->probes, 0u);
      if (result->status == core::RevtrStatus::kComplete) {
        EXPECT_FALSE(result->hops.empty());
      }
    }
    // Out-of-range destination index is a bad request, not a crash.
    Submit bad;
    bad.request_id = 999;
    bad.dest_index = 1 << 20;
    EXPECT_FALSE(client.submit(bad));
    EXPECT_EQ(*client.reject_reason(), RejectReason::kBadRequest);
  }
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.accepted, 3u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(daemon.registry()
                .snapshot()
                .find_counter("revtr_server_requests_total")
                ->value,
            3u);
  daemon.stop();
}

TEST(ServerDaemon, PullModeReturnsResultsOnPoll) {
  const auto options = small_daemon_options("pull");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key", /*push_results=*/false).has_value());
    for (std::uint64_t i = 0; i < 2; ++i) {
      Submit request;
      request.request_id = i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request));
    }
    std::size_t received = 0;
    while (received < 2) {
      const auto pending = client.poll_results();
      ASSERT_TRUE(pending.has_value());
      while (client.stashed_results() > 0) {
        ASSERT_TRUE(client.next_result().has_value());
        ++received;
      }
    }
    EXPECT_EQ(received, 2u);
  }
  daemon.stop();
}

TEST(ServerDaemon, StatsReplyIsParseableJson) {
  const auto options = small_daemon_options("stats");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    const auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    const auto parsed = util::Json::parse(*stats);
    ASSERT_TRUE(parsed.has_value()) << *stats;
    EXPECT_NE(parsed->find("accepted"), nullptr);
    EXPECT_NE(parsed->find("queued"), nullptr);
  }
  daemon.stop();
}

// An operator can tell where start-up went from STATS alone: the lab build,
// the routing tables, the ingress survey and the atlas bootstrap, each a
// part of start()'s wall time, and how many of the survey's and Q2's
// offline probes settled.
TEST(ServerDaemon, StatsReportStartupPhases) {
  const auto options = small_daemon_options("startup");
  ServerDaemon daemon(options);
  const auto begin = std::chrono::steady_clock::now();
  ASSERT_TRUE(daemon.start());
  const double start_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    const auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    const auto parsed = util::Json::parse(*stats);
    ASSERT_TRUE(parsed.has_value()) << *stats;
    double sum = 0;
    for (const char* field :
         {"startup_lab_s", "startup_tables_s", "startup_survey_s",
          "startup_atlas_s"}) {
      const util::Json* value = parsed->find(field);
      ASSERT_NE(value, nullptr) << field;
      ASSERT_TRUE(value->is_number()) << field;
      EXPECT_GE(value->as_double(), 0.0) << field;
      sum += value->as_double();
    }
    EXPECT_GT(sum, 0.0);
    EXPECT_LE(sum, start_s);
    const util::Json* settled = parsed->find("offline_settled_probes");
    ASSERT_NE(settled, nullptr);
    ASSERT_TRUE(settled->is_number());
    EXPECT_GT(settled->as_double(), 0.0);
  }
  // Start-up probes are all offline: no online probe before the first
  // SUBMIT.
  std::uint64_t online = 0;
  std::uint64_t offline = 0;
  for (const auto& counter : daemon.registry().snapshot().counters) {
    if (counter.name.starts_with("revtr_probes_total{scope=\"online\"")) {
      online += counter.value;
    }
    if (counter.name.starts_with("revtr_probes_total{scope=\"offline\"")) {
      offline += counter.value;
    }
  }
  EXPECT_GT(offline, 0u);
  EXPECT_EQ(online, 0u);
  daemon.stop();
}

TEST(ServerDaemon, DeadlineExpiredAtSubmitIsRejectedWithoutCharge) {
  const auto options = small_daemon_options("deadline");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    Submit request;
    request.request_id = 1;
    request.deadline_us = 1;  // Hours before "now" on the daemon clock.
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kDeadlineExpired);
    // The rejection consumed no quota: a normal submit still works.
    request.request_id = 2;
    request.deadline_us = 0;
    EXPECT_TRUE(client.submit(request));
    EXPECT_TRUE(client.next_result().has_value());
  }
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.rejected, 1u);
  EXPECT_EQ(counters.accepted, 1u);
  daemon.stop();
}

TEST(ServerDaemon, QuotaExhaustedMidFlightThenRefundedBySheds) {
  auto options = small_daemon_options("quota");
  // One worker that admits one request at a time: after each shed it must
  // go back to the queue, not park while the rest wait there.
  options.workers = 1;
  options.max_inflight_per_worker = 1;
  TenantConfig tenant;  // Default name/key, tight request quota.
  tenant.limits.daily_limit = 3;
  options.tenants.push_back(tenant);
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  // Park the workers so accepted requests sit in the queue while their
  // deadlines expire — the deterministic version of "shed under overload".
  daemon.set_worker_hold(true);
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    const auto welcome = client.hello("demo-key");
    ASSERT_TRUE(welcome.has_value());
    Submit request;
    for (std::uint64_t i = 0; i < 3; ++i) {
      request.request_id = i;
      request.deadline_us = welcome->server_now_us + 50'000;  // +50 ms.
      ASSERT_TRUE(client.submit(request)) << "request " << i;
    }
    // The 4th hits the daily cap while the first three are still queued.
    request.request_id = 99;
    request.deadline_us = 0;
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kQuotaExhausted);

    // Let the deadlines lapse, then release the workers: all three must
    // come back shed, and each shed refunds its quota charge.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    daemon.set_worker_hold(false);
    for (int i = 0; i < 3; ++i) {
      std::optional<Result> result;
      ASSERT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
                DaemonClient::WaitStatus::kOk)
          << "shed " << i << " never came back";
      EXPECT_TRUE(result->shed);
      EXPECT_TRUE(result->hops.empty());
    }
    // Refunds reopened the window: the retry is admitted and measured.
    request.request_id = 100;
    EXPECT_TRUE(client.submit(request));
    const auto result = client.next_result();
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->shed);
  }
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.shed_queued, 3u);
  EXPECT_EQ(counters.completed, 1u);
  daemon.stop();
}

TEST(ServerDaemon, DrainCompletesInFlightThenRefusesNewWork) {
  const auto options = small_daemon_options("drain");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    daemon.set_worker_hold(true);
    Submit request;
    for (std::uint64_t i = 0; i < 3; ++i) {
      request.request_id = i;
      request.dest_index = static_cast<std::uint32_t>(i);
      ASSERT_TRUE(client.submit(request));
    }
    EXPECT_EQ(daemon.counters().completed, 0u) << "workers are parked";
    // Release the workers and drain: every queued request must be measured
    // (not dropped) before DRAIN_DONE.
    daemon.set_worker_hold(false);
    const auto done = client.drain();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->completed, 3u);
    EXPECT_EQ(done->shed, 0u);
    EXPECT_TRUE(daemon.draining());
    // The three results were pushed before DRAIN_DONE; they are stashed.
    EXPECT_EQ(client.stashed_results(), 3u);
    // New work is refused while draining.
    request.request_id = 50;
    EXPECT_FALSE(client.submit(request));
    ASSERT_TRUE(client.reject_reason().has_value());
    EXPECT_EQ(*client.reject_reason(), RejectReason::kDraining);
  }
  daemon.wait_until_drained();
  daemon.stop();
}

TEST(ServerDaemon, SigtermDrainsThenExits) {
  const auto options = small_daemon_options("sigterm");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  ServerDaemon::install_signal_handlers(&daemon);
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    Submit request;
    request.request_id = 7;
    ASSERT_TRUE(client.submit(request));
    // SIGTERM arrives with the request in flight; the handler only flags a
    // drain, so the measurement still completes and is delivered.
    std::raise(SIGTERM);
    const auto result = client.next_result();
    ASSERT_TRUE(result.has_value());
    EXPECT_FALSE(result->shed);
  }
  daemon.wait_until_drained();
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.completed, 1u);
  daemon.stop();
  ServerDaemon::install_signal_handlers(nullptr);
}

// Undecodable bytes cost only the connection that sent them: the daemon
// counts one protocol error and closes it, and a well-behaved client on
// another connection is still served.
TEST(ServerDaemon, GarbageClosesOnlyItsConnection) {
  const auto options = small_daemon_options("garbage");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());

    FrameStream garbage;
    ASSERT_TRUE(garbage.connect(options.socket_path, /*retries=*/0));
    const std::string junk = "not a frame, not even close";
    garbage.queue(std::span(reinterpret_cast<const std::uint8_t*>(junk.data()),
                            junk.size()));
    ASSERT_EQ(garbage.flush(), FrameStream::Status::kOk);
    std::optional<Message> reply;
    EXPECT_EQ(garbage.read(reply, /*timeout_ms=*/10'000),
              FrameStream::Status::kHungUp)
        << "the daemon must close a connection that sent garbage";

    Submit request;
    request.request_id = 1;
    ASSERT_TRUE(client.submit(request));
    std::optional<Result> result;
    ASSERT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
              DaemonClient::WaitStatus::kOk);
    EXPECT_EQ(result->request_id, 1u);
    const auto stats = client.stats();
    ASSERT_TRUE(stats.has_value());
    const auto parsed = util::Json::parse(*stats);
    ASSERT_TRUE(parsed.has_value()) << *stats;
    const util::Json* errors = parsed->find("protocol_errors");
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(errors->as_double(), 1.0);
  }
  EXPECT_EQ(daemon.counters().protocol_errors, 1u);
  daemon.stop();
}

// stop() lands in the same net-loop iteration as the last completion often
// enough to matter: the RESULT must still reach its client, once per
// accepted request, before the daemon closes the connection.
TEST(ServerDaemon, StopDeliversTheLastResult) {
  constexpr int kRounds = 10;
  const auto options = small_daemon_options("stop_last");
  for (int round = 0; round < kRounds; ++round) {
    ServerDaemon daemon(options);
    ASSERT_TRUE(daemon.start());
    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    daemon.set_worker_hold(true);
    Submit request;
    request.request_id = 40 + static_cast<std::uint64_t>(round);
    request.dest_index = static_cast<std::uint32_t>(round);
    ASSERT_TRUE(client.submit(request));
    std::thread stopper([&daemon] { daemon.stop(); });
    while (!daemon.draining()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    daemon.set_worker_hold(false);
    std::optional<Result> result;
    EXPECT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
              DaemonClient::WaitStatus::kOk)
        << "round " << round << ": stop() dropped the last RESULT";
    stopper.join();
    if (result.has_value()) {
      EXPECT_EQ(result->request_id, request.request_id);
    }
  }
}

// Replies read off a raw connection, checked for order: each request's
// SUBMIT_OK comes once, and its RESULT once, after it.
class ReplyOrder {
 public:
  explicit ReplyOrder(std::size_t requests) : seen_(requests, kNone) {}

  // Reads one frame, waiting up to 30 s. False on a timeout or hang-up.
  bool read_one(FrameStream& stream) {
    std::optional<Message> message;
    if (stream.read(message, /*timeout_ms=*/30'000) !=
        FrameStream::Status::kOk) {
      return false;
    }
    if (const auto* ok = std::get_if<SubmitOk>(&*message)) {
      step(ok->request_id, kNone, kAcked);
    } else if (const auto* result = std::get_if<Result>(&*message)) {
      step(result->request_id, kAcked, kAnswered);
      ++results_;
    } else if (std::holds_alternative<PollDone>(*message)) {
      ++polls_done_;
    }
    return true;
  }
  // Reads until `results` RESULTs in all have arrived.
  bool read_results(FrameStream& stream, std::size_t results) {
    while (results_ < results) {
      if (!read_one(stream)) return false;
    }
    return true;
  }

  std::size_t results() const { return results_; }
  std::size_t polls_done() const { return polls_done_; }
  std::size_t out_of_order() const { return out_of_order_; }

 private:
  enum State : std::uint8_t { kNone, kAcked, kAnswered };
  void step(std::uint64_t id, State from, State to) {
    if (id >= seen_.size() || seen_[id] != from) {
      ++out_of_order_;
      return;
    }
    seen_[id] = to;
  }

  std::vector<State> seen_;
  std::size_t results_ = 0;
  std::size_t polls_done_ = 0;
  std::size_t out_of_order_ = 0;
};

// Joins stop() on another thread; a stop() that hangs ends the test binary.
void stop_or_abort(ServerDaemon& daemon) {
  auto stopped = std::async(std::launch::async, [&daemon] { daemon.stop(); });
  if (stopped.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "ServerDaemon::stop() did not return\n");
    std::abort();
  }
}

// Three SUBMITs arrive in one write while each of two workers can hold one
// request: the admission wake wakes one worker, which takes one request and
// passes the wake on; the third waits for a free worker. All are answered.
TEST(ServerDaemon, ThreeSubmitsInOneWriteReachTwoSingleSlotWorkers) {
  auto options = small_daemon_options("one_write");
  options.workers = 2;
  options.max_inflight_per_worker = 1;
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    FrameStream stream;
    ASSERT_TRUE(stream.connect(options.socket_path, /*retries=*/50));
    Hello hello;
    hello.api_key = "demo-key";
    stream.queue(hello);
    for (std::uint32_t i = 0; i < 3; ++i) {
      Submit request;
      request.request_id = i;
      request.dest_index = i;
      stream.queue(request);
    }
    ASSERT_EQ(stream.flush(), FrameStream::Status::kOk);
    ReplyOrder order(3);
    ASSERT_TRUE(order.read_results(stream, 3));
    EXPECT_EQ(order.out_of_order(), 0u);
  }
  EXPECT_EQ(daemon.counters().completed, 3u);
  daemon.stop();
}

// 1,000 SUBMITs of one warm pair pipelined on one connection: the workers
// send the RESULTs themselves, often before the net thread is done with the
// burst, and each must still follow its SUBMIT_OK. In pull mode the RESULTs
// come back through POLL.
void run_pipelined_warm_pair(const std::string& name, bool push) {
  constexpr std::uint64_t kRequests = 1000;
  auto options = small_daemon_options(name);
  TenantConfig tenant;
  tenant.bucket.rate_per_sec = 1e9;
  tenant.bucket.burst = 1e9;
  options.tenants.push_back(tenant);
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    FrameStream stream;
    ASSERT_TRUE(stream.connect(options.socket_path, /*retries=*/50));
    Hello hello;
    hello.api_key = "demo-key";
    hello.push_results = push;
    stream.queue(hello);
    ReplyOrder order(kRequests + 1);
    // Request 0 warms the pair's caches; the rest repeat it.
    for (std::uint64_t id = 0; id <= kRequests; ++id) {
      Submit request;
      request.request_id = id;
      stream.queue(request);
      if (id != 0) continue;
      ASSERT_EQ(stream.flush(), FrameStream::Status::kOk);
      if (push) {
        ASSERT_TRUE(order.read_results(stream, 1));
      }
    }
    ASSERT_EQ(stream.flush(), FrameStream::Status::kOk);
    if (push) {
      ASSERT_TRUE(order.read_results(stream, kRequests + 1));
    } else {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (order.results() < kRequests + 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        stream.queue(Poll{64});
        ASSERT_EQ(stream.flush(), FrameStream::Status::kOk);
        const std::size_t polls = order.polls_done();
        while (order.polls_done() == polls) {
          ASSERT_TRUE(order.read_one(stream));
        }
      }
    }
    EXPECT_EQ(order.results(), kRequests + 1);
    EXPECT_EQ(order.out_of_order(), 0u);
  }
  EXPECT_EQ(daemon.counters().completed, kRequests + 1);
  daemon.stop();
}

TEST(ServerDaemon, PipelinedWarmPairResultsFollowTheirSubmitOk) {
  run_pipelined_warm_pair("pipelined_push", /*push=*/true);
}

TEST(ServerDaemon, PipelinedWarmPairPolledResultsFollowTheirSubmitOk) {
  run_pipelined_warm_pair("pipelined_pull", /*push=*/false);
}

// A client that hangs up with requests in flight costs only itself: the
// workers finish its requests and send their RESULTs nowhere (the net thread
// took the socket from them before closing it), another client is served,
// and stop() returns.
TEST(ServerDaemon, ClientHangUpMidFlightLeavesOthersServedAndStopReturns) {
  constexpr std::uint32_t kLeft = 8;
  const auto options = small_daemon_options("hang_up");
  ServerDaemon daemon(options);
  ASSERT_TRUE(daemon.start());
  {
    FrameStream leaver;
    ASSERT_TRUE(leaver.connect(options.socket_path, /*retries=*/50));
    Hello hello;
    hello.api_key = "demo-key";
    leaver.queue(hello);
    for (std::uint32_t i = 0; i < kLeft; ++i) {
      Submit request;
      request.request_id = i;
      request.dest_index = i;  // Never-seen pairs: they take a while.
      leaver.queue(request);
    }
    ASSERT_EQ(leaver.flush(), FrameStream::Status::kOk);
    // Wait for the first SUBMIT_OK, then leave without reading on.
    std::optional<Message> reply;
    do {
      ASSERT_EQ(leaver.read(reply, /*timeout_ms=*/30'000),
                FrameStream::Status::kOk);
    } while (!std::holds_alternative<SubmitOk>(*reply));
    leaver.close();

    DaemonClient client;
    ASSERT_TRUE(client.connect(options.socket_path));
    ASSERT_TRUE(client.hello("demo-key").has_value());
    Submit request;
    request.request_id = 100;
    request.dest_index = kLeft;
    ASSERT_TRUE(client.submit(request));
    std::optional<Result> result;
    ASSERT_EQ(client.next_result_for(result, /*timeout_ms=*/30'000),
              DaemonClient::WaitStatus::kOk);
    EXPECT_EQ(result->request_id, 100u);
  }
  stop_or_abort(daemon);
  const auto counters = daemon.counters();
  EXPECT_EQ(counters.accepted, kLeft + 1);
  EXPECT_EQ(counters.completed + counters.shed_queued, kLeft + 1);
}

}  // namespace
}  // namespace revtr::server
