#include "server/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "core/request_task.h"
#include "server/stream.h"
#include "util/check.h"
#include "util/cpus.h"
#include "util/json.h"

namespace revtr::server {

namespace {

// One daemon per process for signal routing (install_signal_handlers).
std::atomic<ServerDaemon*> g_signal_daemon{nullptr};

void drain_signal_handler(int /*signum*/) {
  // Async-signal-safe: request_drain is an atomic store + one write().
  ServerDaemon* daemon = g_signal_daemon.load(std::memory_order_acquire);
  if (daemon != nullptr) daemon->request_drain();
}

}  // namespace

// A connection's output, shared by the net thread and the workers: a worker
// sends each RESULT it finishes itself. `mu` is a leaf (nothing is acquired
// under it; it may be taken under the daemon's mu_) and is held only around
// buffer and send calls, never across decoding the connection's input.
struct ServerDaemon::Outbox {
  util::Mutex mu;
  // The connection's socket; -1 once the net thread has closed it, after
  // which nothing is queued or sent (the descriptor may already name a
  // later connection).
  int fd REVTR_GUARDED_BY(mu) = -1;
  FrameStream::Output frames REVTR_GUARDED_BY(mu);
  bool push REVTR_GUARDED_BY(mu) = true;
  // Pull mode: encoded RESULT frames buffered until the client POLLs.
  std::deque<std::vector<std::uint8_t>> pull_queue REVTR_GUARDED_BY(mu);

  void queue(const Message& message) {
    const util::MutexLock lock(mu);
    frames.queue(message);
  }
  bool has_output() {
    const util::MutexLock lock(mu);
    return !frames.empty();
  }
  // Sends what the socket takes now; the rest waits for POLLOUT.
  FrameStream::Status flush() {
    const util::MutexLock lock(mu);
    return frames.flush(fd);
  }
  // A worker's RESULT: sent at once in push mode, kept for POLL in pull
  // mode, dropped once the client has left. True when part of it is still
  // queued because the socket is full.
  bool send_result(std::vector<std::uint8_t> frame) {
    const util::MutexLock lock(mu);
    if (fd < 0) return false;
    if (!push) {
      pull_queue.push_back(std::move(frame));
      return false;
    }
    frames.queue(frame);
    return frames.flush(fd) == FrameStream::Status::kWouldBlock;
  }
};

// Per-connection state, owned by the net thread, which reads the socket
// without a lock. Only the output is shared (with the workers).
struct ServerDaemon::Conn {
  FrameStream stream;  // Reads only: every byte sent goes through `out`.
  std::shared_ptr<Outbox> out = std::make_shared<Outbox>();
  bool authed = false;
  bool awaiting_drain = false;
  bool closed = false;
  service::UserId tenant = 0;
  // Remote mode: this connection is a registered VP agent (AGENT_REGISTER
  // accepted); `agent` is its scheduler id. drain_sent keeps the drained
  // net loop from re-sending AGENT_DRAIN every poll iteration.
  bool is_agent = false;
  bool drain_sent = false;
  sched::ProbeScheduler::AgentId agent = 0;
};

ServerDaemon::ServerDaemon(ServerOptions options)
    : options_(std::move(options)), admission_(options_.admission) {}

ServerDaemon::~ServerDaemon() {
  stop();
  if (g_signal_daemon.load(std::memory_order_acquire) == this) {
    install_signal_handlers(nullptr);
  }
}

std::int64_t ServerDaemon::now_us() const {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  return (ns - epoch_ns_) / 1000;
}

void ServerDaemon::wake_net() noexcept {
  if (wake_pipe_[1] < 0) return;
  const char byte = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] const ssize_t rc = write(wake_pipe_[1], &byte, 1);
}

void ServerDaemon::request_drain() noexcept {
  drain_requested_.store(true, std::memory_order_release);
  wake_net();
}

void ServerDaemon::install_signal_handlers(ServerDaemon* daemon) {
  g_signal_daemon.store(daemon, std::memory_order_release);
  if (daemon != nullptr) {
    std::signal(SIGTERM, drain_signal_handler);
    std::signal(SIGINT, drain_signal_handler);
  } else {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

bool ServerDaemon::start() {
  REVTR_CHECK(!started_);
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point begin) {
    return std::chrono::duration<double>(Clock::now() - begin).count();
  };

  // --- Measurement stack: built once, hot for the daemon's lifetime. ---
  Clock::time_point phase = Clock::now();
  lab_ = std::make_unique<eval::Lab>(options_.topo, options_.engine,
                                     options_.seed);
  startup_.lab_s = seconds_since(phase);
  // Probe accounting covers start-up's offline probes too.
  probe_metrics_ = std::make_unique<probing::ProbeMetrics>(registry_);
  lab_->prober.set_metrics(&*probe_metrics_);
  // The survey crosses every routing table: build them all first, fanned
  // out over the process's CPUs, each table slot on one thread.
  phase = Clock::now();
  lab_->plane.build_all(util::available_cpus());
  startup_.tables_s = seconds_since(phase);
  // Every ingress plan is surveyed now so no worker ever triggers an
  // on-demand discovery mid-request (same rule as the campaign driver).
  phase = Clock::now();
  lab_->precompute_all_ingresses();
  startup_.survey_s = seconds_since(phase);

  service_metrics_ = std::make_unique<service::ServiceMetrics>(registry_);
  engine_metrics_ = std::make_unique<core::EngineMetrics>(registry_);
  sched_metrics_ = std::make_unique<sched::SchedMetrics>(registry_);

  phase = Clock::now();
  service_ = std::make_unique<service::RevtrService>(lab_->engine, lab_->atlas,
                                                     lab_->prober, lab_->topo);
  service_->set_metrics(&*service_metrics_);

  // The first `sources` vantage points that receive RR, each atlas and Q2
  // index fanned out over the process's CPUs.
  source_hosts_ = service_->add_sources(
      lab_->topo.vantage_points(), options_.atlas_size, lab_->rng,
      std::max<std::size_t>(options_.sources, 1));
  startup_.atlas_s = seconds_since(phase);
  if (source_hosts_.empty()) {
    std::fprintf(stderr, "revtr_serverd: no vantage point bootstrapped\n");
    return false;
  }

  tenant_configs_ = options_.tenants;
  if (tenant_configs_.empty()) tenant_configs_.emplace_back();
  for (const TenantConfig& tenant : tenant_configs_) {
    const service::UserId id = service_->add_user(tenant.name, tenant.limits);
    tenant_ids_.push_back(id);
    {
      const util::MutexLock lock(mu_);
      admission_.add_tenant(id, tenant.bucket);
    }
    {
      const util::MutexLock lock(mu_);
      queue_.set_weight(id, tenant.weight);
    }
    if (tenant_metrics_.size() <= id) tenant_metrics_.resize(id + 1);
    tenant_metrics_[id].requests = &registry_.counter(
        std::string("revtr_server_tenant_requests_total{tenant=\"") +
        tenant.name + "\"}");
  }

  scheduler_ = std::make_unique<sched::ProbeScheduler>(options_.sched);
  scheduler_->set_metrics(&*sched_metrics_);
  if (options_.sched_audit != nullptr) {
    scheduler_->set_audit(options_.sched_audit);
  }

  caches_ = std::make_shared<core::EngineCaches>();
  const core::StackDeps deps{lab_->topo,    lab_->plane, lab_->atlas,
                             lab_->ingress, lab_->ip2as, lab_->relationships};
  const std::size_t workers = std::max<std::size_t>(options_.workers, 1);
  for (std::size_t w = 0; w < workers; ++w) {
    stacks_.push_back(std::make_unique<core::WorkerStack>(
        deps, options_.engine, options_.seed, caches_));
    stacks_.back()->prober.set_metrics(&*probe_metrics_);
    stacks_.back()->engine.set_metrics(&*engine_metrics_);
  }

  // Metric handles resolved once: the registry mutex (rank 10) must never
  // be taken under the daemon mutex (rank 110).
  requests_total_ = &registry_.counter("revtr_server_requests_total");
  completed_total_ = &registry_.counter("revtr_server_completed_total");
  sheds_total_ = &registry_.counter("revtr_server_sheds_total");
  deadline_miss_total_ =
      &registry_.counter("revtr_server_deadline_miss_total");
  connections_total_ = &registry_.counter("revtr_server_connections_total");
  protocol_errors_total_ =
      &registry_.counter("revtr_server_protocol_errors_total");
  net_wakeups_total_ = &registry_.counter("revtr_server_net_wakeups_total");
  for (std::uint8_t r = 0; r <= kMaxRejectReason; ++r) {
    reject_reasons_.push_back(&registry_.counter(
        std::string("revtr_server_rejects_total{reason=\"") +
        std::string(to_string(static_cast<RejectReason>(r))) + "\"}"));
  }
  wall_latency_us_ = &registry_.histogram("revtr_server_request_wall_us");
  sim_latency_us_ = &registry_.histogram("revtr_server_request_sim_us");
  queue_depth_ = &registry_.gauge("revtr_server_queue_depth");
  inflight_ = &registry_.gauge("revtr_server_inflight");

  // --- Socket + self-pipe. ---
  if (pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    std::fprintf(stderr, "revtr_serverd: pipe2: %s\n", std::strerror(errno));
    return false;
  }
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "revtr_serverd: socket: %s\n", std::strerror(errno));
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "revtr_serverd: socket path too long: %s\n",
                 options_.socket_path.c_str());
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  unlink(options_.socket_path.c_str());
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    std::fprintf(stderr, "revtr_serverd: bind %s: %s\n",
                 options_.socket_path.c_str(), std::strerror(errno));
    return false;
  }
  if (listen(listen_fd_, 64) != 0) {
    std::fprintf(stderr, "revtr_serverd: listen: %s\n", std::strerror(errno));
    return false;
  }

  threads_.emplace_back([this] { net_loop(); });
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  started_ = true;
  return true;
}

void ServerDaemon::wait_until_drained() {
  util::MutexLock lock(mu_);
  while (!drained_ && !stopping_) drained_cv_.wait(lock);
}

void ServerDaemon::stop() {
  if (!started_) return;
  request_drain();
  wait_until_drained();
  {
    const util::MutexLock lock(mu_);
    stopping_ = true;
  }
  scheduler_->wake();
  drained_cv_.notify_all();
  wake_net();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
  unlink(options_.socket_path.c_str());
  started_ = false;
}

bool ServerDaemon::draining() const {
  const util::MutexLock lock(mu_);
  return draining_;
}

ServerCounters ServerDaemon::counters() const {
  const util::MutexLock lock(mu_);
  return counters_;
}

sched::SchedulerStats ServerDaemon::sched_stats() const {
  return scheduler_ ? scheduler_->stats() : sched::SchedulerStats{};
}

void ServerDaemon::set_worker_hold(bool hold) {
  {
    const util::MutexLock lock(mu_);
    worker_hold_ = hold;
  }
  if (scheduler_) scheduler_->wake();
}

std::string ServerDaemon::build_stats_json() {
  const obs::MetricsSnapshot snapshot = registry_.snapshot();
  ServerCounters c;
  std::size_t queued = 0;
  std::size_t inflight = 0;
  bool draining = false;
  bool drained = false;
  {
    const util::MutexLock lock(mu_);
    c = counters_;
    queued = queued_;
    inflight = inflight_count_;
    draining = draining_;
    drained = drained_;
  }
  util::Json json = util::Json::object();
  json["connections"] = c.connections;
  json["accepted"] = c.accepted;
  json["rejected"] = c.rejected;
  json["completed"] = c.completed;
  json["shed"] = c.shed_queued;
  json["deadline_missed"] = c.deadline_missed;
  json["protocol_errors"] = c.protocol_errors;
  json["queued"] = static_cast<std::uint64_t>(queued);
  json["inflight"] = static_cast<std::uint64_t>(inflight);
  json["draining"] = draining;
  json["drained"] = drained;
  json["startup_lab_s"] = startup_.lab_s;
  json["startup_tables_s"] = startup_.tables_s;
  json["startup_survey_s"] = startup_.survey_s;
  json["startup_atlas_s"] = startup_.atlas_s;
  // Offline RR pings that settled; thread wake-ups: every return from the
  // net thread's poll(), and every time a worker's wait in the scheduler
  // blocked.
  for (const auto& [field, counter] :
       {std::pair{"offline_settled_probes",
                  "revtr_probes_settled_total{scope=\"offline\"}"},
        std::pair{"net_wakeups", "revtr_server_net_wakeups_total"},
        std::pair{"worker_parks", "revtr_sched_parks_total"}}) {
    const auto* sample = snapshot.find_counter(counter);
    json[field] = sample != nullptr ? sample->value : std::uint64_t{0};
  }
  if (const auto* wall =
          snapshot.find_histogram("revtr_server_request_wall_us")) {
    json["wall_count"] = wall->count;
    json["wall_p50_us"] = obs::histogram_quantile(*wall, 0.5);
    json["wall_p99_us"] = obs::histogram_quantile(*wall, 0.99);
    json["wall_p999_us"] = obs::histogram_quantile(*wall, 0.999);
  }
  if (const auto* sim =
          snapshot.find_histogram("revtr_server_request_sim_us")) {
    json["sim_p50_us"] = obs::histogram_quantile(*sim, 0.5);
    json["sim_p99_us"] = obs::histogram_quantile(*sim, 0.99);
  }
  return json.dump();
}

// --- Net thread. ------------------------------------------------------------

void ServerDaemon::handle_message(Conn& conn, Message message) {
  if (const Hello* hello = std::get_if<Hello>(&message)) {
    if (hello->proto_version != kProtoVersion) {
      conn.out->queue(HelloErr{RejectReason::kBadRequest});
      reject_reasons_[static_cast<std::size_t>(RejectReason::kBadRequest)]
          ->add();
      return;
    }
    std::size_t tenant_index = tenant_ids_.size();
    for (std::size_t i = 0; i < tenant_configs_.size(); ++i) {
      if (tenant_configs_[i].api_key == hello->api_key) {
        tenant_index = i;
        break;
      }
    }
    if (tenant_index >= tenant_ids_.size()) {
      conn.out->queue(HelloErr{RejectReason::kBadApiKey});
      reject_reasons_[static_cast<std::size_t>(RejectReason::kBadApiKey)]
          ->add();
      return;
    }
    conn.authed = true;
    conn.tenant = tenant_ids_[tenant_index];
    HelloOk ok;
    ok.tenant = conn.tenant;
    ok.server_now_us = now_us();
    ok.tenant_name = tenant_configs_[tenant_index].name;
    const util::MutexLock lock(conn.out->mu);
    conn.out->push = hello->push_results;
    conn.out->frames.queue(ok);
    return;
  }

  if (const Submit* submit = std::get_if<Submit>(&message)) {
    std::optional<RejectReason> reject;
    bool was_empty = false;
    if (!conn.authed) {
      reject = RejectReason::kNotAuthenticated;
    } else if (submit->dest_index >= lab_->topo.probe_hosts().size() ||
               submit->source_index >= source_hosts_.size()) {
      reject = RejectReason::kBadRequest;
    }
    if (!reject.has_value()) {
      // Both samples are taken before mu_: the scheduler lock is rank 60,
      // the daemon mutex rank 110 — never nested.
      const std::size_t backlog = scheduler_->backlog();
      const std::int64_t now = now_us();
      const util::MutexLock lock(mu_);
      AdmissionLoad load;
      load.queued = queued_;
      load.inflight = inflight_count_;
      load.sched_backlog = backlog;
      load.draining = draining_;
      reject = admission_.decide(conn.tenant, submit->deadline_us, now, load);
      if (!reject.has_value()) {
        switch (service_->try_charge_request(conn.tenant)) {
          case service::RevtrService::QuotaDecision::kCharged:
            break;
          case service::RevtrService::QuotaDecision::kUnknownUser:
            reject = RejectReason::kBadRequest;
            break;
          case service::RevtrService::QuotaDecision::kQuotaExhausted:
            reject = RejectReason::kQuotaExhausted;
            break;
          case service::RevtrService::QuotaDecision::kProbeBudgetExhausted:
            reject = RejectReason::kProbeBudgetExhausted;
            break;
        }
      }
      if (!reject.has_value()) {
        QueuedRequest queued;
        queued.index = next_request_index_++;
        queued.out = conn.out;
        queued.request_id = submit->request_id;
        queued.tenant = conn.tenant;
        queued.destination = lab_->topo.probe_hosts()[submit->dest_index];
        queued.source = source_hosts_[submit->source_index];
        queued.priority = submit->priority;
        queued.deadline_us = submit->deadline_us;
        queued.accepted_us = now;
        // A worker sends the RESULT as soon as it pops the request: the
        // SUBMIT_OK and the request counters go first.
        {
          const util::MutexLock out_lock(conn.out->mu);
          conn.out->frames.queue(SubmitOk{submit->request_id});
        }
        requests_total_->add();
        tenant_metrics_[conn.tenant].requests->add();
        queue_.push(static_cast<std::size_t>(submit->priority), conn.tenant,
                    std::move(queued));
        was_empty = queued_ == 0;
        ++queued_;
        ++counters_.accepted;
        queue_depth_->set(static_cast<std::int64_t>(queued_));
      } else {
        ++counters_.rejected;
      }
    } else {
      const util::MutexLock lock(mu_);
      ++counters_.rejected;
    }
    if (reject.has_value()) {
      reject_reasons_[static_cast<std::size_t>(*reject)]->add();
      conn.out->queue(SubmitErr{submit->request_id, *reject});
    } else if (was_empty) {
      // Only a queue that was empty needs a wake, and only one worker's: a
      // worker parks only after it found nothing to admit (an empty queue,
      // itself full, or the hold, whose release wakes every worker), a
      // full worker looks again once a request of its own finishes, a
      // worker that admits and leaves requests queued passes the wake on,
      // and a worker that is not parked returns from its next wait.
      scheduler_->wake_one();
    }
    return;
  }

  if (const Poll* poll_msg = std::get_if<Poll>(&message)) {
    Outbox& out = *conn.out;
    const util::MutexLock lock(out.mu);
    std::uint32_t returned = 0;
    while (returned < poll_msg->max_results && !out.pull_queue.empty()) {
      out.frames.queue(out.pull_queue.front());
      out.pull_queue.pop_front();
      ++returned;
    }
    PollDone done;
    done.returned = returned;
    done.pending = static_cast<std::uint32_t>(
        std::min<std::size_t>(out.pull_queue.size(), UINT32_MAX));
    out.frames.queue(done);
    return;
  }

  if (std::holds_alternative<Stats>(message)) {
    conn.out->queue(StatsReply{build_stats_json()});
    return;
  }

  if (std::holds_alternative<Drain>(message)) {
    {
      const util::MutexLock lock(mu_);
      draining_ = true;
      if (queued_ == 0 && inflight_count_ == 0 && !drained_) {
        drained_ = true;
        drained_cv_.notify_all();
      }
    }
    scheduler_->wake();
    conn.awaiting_drain = true;
    return;
  }

  // --- Controller <-> VP-agent frames (DESIGN.md §15). ---

  if (const AgentRegister* reg = std::get_if<AgentRegister>(&message)) {
    if (!options_.remote_probing || reg->proto_version != kProtoVersion ||
        conn.is_agent) {
      conn.out->queue(HelloErr{RejectReason::kBadRequest});
      reject_reasons_[static_cast<std::size_t>(RejectReason::kBadRequest)]
          ->add();
      return;
    }
    // Scheduler lock is rank 60, below mu_ (110): attach before taking mu_.
    const auto agent = scheduler_->attach_agent(reg->window, now_us());
    conn.is_agent = true;
    conn.agent = agent;
    // The REGISTER ack reuses HELLO_OK with the agent id in the tenant
    // field (agents are not tenants; see the frame grammar).
    HelloOk ok;
    ok.tenant = static_cast<std::uint32_t>(agent);
    ok.server_now_us = now_us();
    ok.tenant_name = reg->name;
    conn.out->queue(ok);
    return;
  }

  if (const AgentProbeResult* res = std::get_if<AgentProbeResult>(&message)) {
    if (conn.is_agent) {
      // Stale tickets (requeued off an expired agent) are dropped inside
      // deliver_assignment; either way the result counts as liveness.
      scheduler_->deliver_assignment(conn.agent, res->ticket, res->reply,
                                     now_us());
      return;
    }
    // Fall through to the protocol-violation path below.
  } else if (const AgentHeartbeat* hb = std::get_if<AgentHeartbeat>(&message)) {
    (void)hb;
    if (conn.is_agent) {
      scheduler_->agent_heartbeat(conn.agent, now_us());
      return;
    }
  } else if (std::holds_alternative<AgentDrain>(message)) {
    if (conn.is_agent) {
      // The agent's parting message: it has flushed every result it will
      // ever send. Close; the net loop's close path detaches it.
      conn.closed = true;
      return;
    }
  }

  // Server->client message types arriving at the server are a protocol
  // violation, same as undecodable bytes.
  {
    const util::MutexLock lock(mu_);
    ++counters_.protocol_errors;
  }
  protocol_errors_total_->add();
  conn.closed = true;
}

void ServerDaemon::net_loop() {
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn_ids;
  std::vector<Conn*> agents;

  const auto protocol_error = [this](Conn& conn) {
    {
      const util::MutexLock lock(mu_);
      ++counters_.protocol_errors;
    }
    protocol_errors_total_->add();
    conn.closed = true;
  };

  // Sends what the socket takes now; the rest waits for POLLOUT.
  const auto flush = [](Conn& conn) {
    if (!conn.closed && conn.out->flush() == FrameStream::Status::kHungUp) {
      conn.closed = true;
    }
  };

  // Takes the socket from the workers before closing it, so none sends to
  // it, or to a later connection that reuses its descriptor.
  const auto close_conn = [](Conn& conn) {
    {
      const util::MutexLock lock(conn.out->mu);
      conn.out->fd = -1;
    }
    conn.stream.close();
  };

  for (;;) {
    // Convert a (possibly signal-context) drain request into the guarded
    // draining transition, once per request.
    if (drain_requested_.exchange(false, std::memory_order_acq_rel)) {
      {
        const util::MutexLock lock(mu_);
        draining_ = true;
        if (queued_ == 0 && inflight_count_ == 0 && !drained_) {
          drained_ = true;
          drained_cv_.notify_all();
        }
      }
      scheduler_->wake();
    }

    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.closed) {
        // A departing agent's in-flight assignments requeue for
        // reassignment (scheduler lock rank 60 — mu_ is not held here).
        if (it->second.is_agent) scheduler_->detach_agent(it->second.agent);
        close_conn(it->second);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }

    // Agent work: detach the silent agents, then hand each live agent its
    // next assignments in registration order (agent ids rise with it), on
    // its own stream. An expired agent's connection stays open; the
    // scheduler gives it nothing and drops its late results as stale.
    if (options_.remote_probing) {
      if (options_.agent_timeout_us > 0) {
        scheduler_->expire_agents(now_us(), options_.agent_timeout_us);
      }
      agents.clear();
      for (auto& [id, conn] : conns) {
        if (conn.is_agent) agents.push_back(&conn);
      }
      std::sort(agents.begin(), agents.end(), [](const Conn* a, const Conn* b) {
        return a->agent < b->agent;
      });
      for (Conn* agent : agents) {
        for (auto& assignment : scheduler_->next_assignments(agent->agent)) {
          agent->out->queue(
              AgentProbe{assignment.ticket, std::move(assignment.spec)});
        }
      }
    }

    bool drained_now = false;
    bool stopping_now = false;
    {
      const util::MutexLock lock(mu_);
      drained_now = drained_;
      stopping_now = stopping_;
    }
    if (drained_now) {
      ServerCounters c;
      {
        const util::MutexLock lock(mu_);
        c = counters_;
      }
      for (auto& [id, conn] : conns) {
        // Tell each agent to finish up and part ways — once; drained_now
        // stays true on every later iteration.
        if (conn.is_agent && !conn.drain_sent) {
          conn.out->queue(AgentDrain{});
          conn.drain_sent = true;
        }
        if (!conn.awaiting_drain) continue;
        // A worker queues its RESULT before the request leaves inflight, so
        // every RESULT of the drained daemon is ahead of this DRAIN_DONE.
        conn.out->queue(DrainDone{c.completed, c.shed_queued});
        conn.awaiting_drain = false;
      }
    }
    // stop() sets stopping_ only once drained, so the last RESULT, DRAIN_DONE
    // and AGENT_DRAIN are queued by now: send them before closing.
    for (auto& [id, conn] : conns) flush(conn);
    if (stopping_now) break;

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (auto& [id, conn] : conns) {
      const short events = conn.out->has_output() ? POLLIN | POLLOUT : POLLIN;
      fds.push_back(pollfd{conn.stream.fd(), events, 0});
      fd_conn_ids.push_back(id);
    }
    const int rc = poll(fds.data(), static_cast<nfds_t>(fds.size()), 250);
    net_wakeups_total_->add();
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      // Drain the self-pipe; the actual work happens at the loop top.
      std::array<char, 4096> wakes;
      while (read(wake_pipe_[0], wakes.data(), wakes.size()) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;
        Conn& conn = conns[next_conn_id++];
        conn.stream.adopt(fd);
        {
          const util::MutexLock lock(conn.out->mu);
          conn.out->fd = fd;
        }
        {
          const util::MutexLock lock(mu_);
          ++counters_.connections;
        }
        connections_total_->add();
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const auto it = conns.find(fd_conn_ids[i - 2]);
      if (it == conns.end()) continue;
      Conn& conn = it->second;
      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        conn.closed = true;
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        conn.stream.fill();
        // A peer that hung up is served no more: what came with its hang-up
        // is dropped unread, and a dead agent's assignments all requeue.
        while (!conn.closed && !conn.stream.hung_up()) {
          auto message = conn.stream.next();
          if (!message.has_value()) break;
          handle_message(conn, *std::move(message));
        }
        if (conn.stream.protocol_error()) {
          protocol_error(conn);
        } else if (conn.stream.hung_up()) {
          conn.closed = true;
        }
      }
      flush(conn);
    }
  }
  for (auto& [id, conn] : conns) close_conn(conn);
}

// --- Workers. ---------------------------------------------------------------

void ServerDaemon::worker_loop(std::size_t w) {
  core::WorkerStack& stack = *stacks_[w];
  core::RequestExecutor executor(stack.engine, *scheduler_, w);

  // Folds one finished request into the daemon state and sends its RESULT.
  // Everything passed in is computed outside mu_. The counters move before
  // the RESULT leaves, so a client that asks after its RESULT sees them;
  // the request leaves inflight only after, so the DRAIN_DONE that a
  // drained daemon queues follows the RESULT on its connection.
  const auto deliver = [this](const QueuedRequest& meta, Message result,
                              bool shed, bool refund, bool missed,
                              const core::ReverseTraceroute* measured,
                              std::int64_t wall_us) {
    {
      const util::MutexLock lock(mu_);
      if (refund) service_->refund_request(meta.tenant);
      if (measured != nullptr) {
        service_->charge_probes_for(meta.tenant, *measured);
        admission_.observe_latency(wall_us);
      }
      if (shed) {
        ++counters_.shed_queued;
      } else {
        ++counters_.completed;
        if (missed) ++counters_.deadline_missed;
      }
    }
    if (shed) {
      sheds_total_->add();
    } else {
      completed_total_->add();
      if (missed) deadline_miss_total_->add();
      wall_latency_us_->record(
          static_cast<std::uint64_t>(std::max<std::int64_t>(wall_us, 0)));
    }
    // The socket is full: the net thread sends the rest once it polls it.
    if (meta.out->send_result(encode_frame(result))) wake_net();
    const util::MutexLock lock(mu_);
    --inflight_count_;
    inflight_->set(static_cast<std::int64_t>(inflight_count_));
    if (draining_ && queued_ == 0 && inflight_count_ == 0 && !drained_) {
      drained_ = true;
      drained_cv_.notify_all();
    }
  };

  const auto finalize = [this, &deliver](
                            const QueuedRequest& meta,
                            const core::ReverseTraceroute& measured) {
    const std::int64_t done_us = now_us();
    const std::int64_t wall_us = done_us - meta.accepted_us;
    const bool missed = meta.deadline_us != 0 && done_us > meta.deadline_us;
    Result result;
    result.request_id = meta.request_id;
    result.status = measured.status;
    result.deadline_missed = missed;
    result.sim_latency_us = measured.span.duration();
    result.probes = measured.probes.total();
    result.coalesced_probes = measured.coalesced_probes;
    for (const auto& hop : measured.hops) {
      if (result.hops.size() >= kMaxResultHops) break;
      ResultHop out_hop;
      out_hop.addr = hop.addr;
      out_hop.source = hop.source;
      result.hops.push_back(out_hop);
    }
    sim_latency_us_->record(
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            measured.span.duration(), 0)));
    deliver(meta, std::move(result), /*shed=*/false,
            /*refund=*/!measured.complete(), missed, &measured, wall_us);
  };

  // Remote mode: agents execute this worker's demands, so it claims none.
  probing::Prober* const prober =
      options_.remote_probing ? nullptr : &stack.prober;
  for (;;) {
    std::vector<QueuedRequest> popped;
    bool pass_on = false;
    {
      const util::MutexLock lock(mu_);
      if (!worker_hold_) {
        while (queued_ > 0 && executor.active() + popped.size() <
                                  options_.max_inflight_per_worker) {
          auto next = queue_.pop();
          if (!next.has_value()) break;
          popped.push_back(*std::move(next));
          --queued_;
        }
      }
      if (popped.empty() && executor.active() == 0 &&
          (stopping_ || (draining_ && queued_ == 0))) {
        return;
      }
      // Full, with requests left behind: the wake that brought this worker
      // here goes on to one that may have room.
      pass_on = !popped.empty() && queued_ > 0;
      inflight_count_ += popped.size();
      queue_depth_->set(static_cast<std::int64_t>(queued_));
      inflight_->set(static_cast<std::int64_t>(inflight_count_));
    }
    if (pass_on) scheduler_->wake_one(w);

    if (popped.empty()) {
      // Nothing to admit (the queue is empty, this worker is full, or the
      // hold is on): drive the requests in flight. A round that moves
      // nothing parks until one of its sets resolves or admission work
      // wakes the scheduler. Remote mode: what resumed may have submitted
      // demands, which the net thread hands to the agents once woken.
      if (executor.round(prober) > 0 && prober == nullptr) wake_net();
      continue;
    }
    for (const QueuedRequest& meta : popped) {
      if (meta.deadline_us != 0 && now_us() >= meta.deadline_us) {
        // Deadline expired while queued: shed without measuring and hand
        // the request-count charge back (no probes were spent).
        Result result;
        result.request_id = meta.request_id;
        result.status = core::RevtrStatus::kUnreachable;
        result.shed = true;
        deliver(meta, std::move(result), /*shed=*/true, /*refund=*/true,
                /*missed=*/false, nullptr, 0);
        continue;
      }
      executor.start(meta.destination, meta.source, /*start_us=*/0,
                     util::mix_hash(options_.seed, meta.index, 0xca3aULL),
                     std::nullopt,
                     [&finalize, meta](core::ReverseTraceroute measured,
                                       std::optional<obs::Trace> /*trace*/) {
                       finalize(meta, measured);
                     });
    }
    // Remote mode: the new requests' first demands go to the agents.
    if (prober == nullptr) wake_net();
  }
}

}  // namespace revtr::server
