#include "analysis/model_checker.h"

#include <array>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/oracle.h"
#include "analysis/probe_log.h"
#include "asmap/asmap.h"
#include "atlas/atlas.h"
#include "core/adjacency.h"
#include "core/request_task.h"
#include "probing/prober.h"
#include "routing/forwarding.h"
#include "sched/scheduler.h"
#include "sim/network.h"
#include "topology/builder.h"
#include "util/rng.h"
#include "util/sim_clock.h"
#include "vpselect/ingress.h"

namespace revtr::analysis {

namespace {
using probing::ProbeEvent;
using probing::ProbeType;
using topology::HostId;

// Base for every shape: a handful of single-router ASes, everything
// responsive and deterministic. Shapes below perturb one dimension each.
// Source sensitivity and per-packet load balancing stay off so the oracle's
// salt union is a sound over-approximation of the feasible path set.
topology::TopologyConfig tiny_config() {
  topology::TopologyConfig c;
  c.num_ases = 4;
  c.num_tier1 = 1;
  c.transit_fraction = 0.5;
  c.nren_fraction = 0.0;
  c.tier1_routers_min = 1;
  c.tier1_routers_max = 2;
  c.transit_routers_min = 1;
  c.transit_routers_max = 2;
  c.stub_routers_min = 1;
  c.stub_routers_max = 1;
  c.intra_extra_edge_prob = 0.1;
  c.rr_ingress_frac = 0.0;
  c.rr_loopback_frac = 0.0;
  c.rr_private_frac = 0.0;
  c.rr_nostamp_frac = 0.0;
  c.router_ttl_responsive = 1.0;
  c.router_ping_responsive = 1.0;
  c.router_per_packet_lb = 0.0;
  c.router_source_sensitive = 0.0;
  c.hosts_per_prefix = 2;
  c.host_ping_responsive = 1.0;
  c.host_rr_responsive_given_ping = 1.0;
  c.host_nostamp_frac = 0.0;
  c.host_doublestamp_frac = 0.0;
  c.host_aliasstamp_frac = 0.0;
  c.num_vps = 3;
  c.num_vps_2016 = 2;
  c.vp_as_allows_spoofing = 1.0;
  c.num_probe_hosts = 3;
  c.as_filters_options = 0.0;
  c.as_source_sensitive = 0.0;
  return c;
}

std::vector<ShapeSpec> make_shapes() {
  std::vector<ShapeSpec> shapes;
  {
    ShapeSpec s{"line3", tiny_config()};
    s.config.num_ases = 3;
    s.config.tier1_routers_max = 1;
    s.config.transit_routers_max = 1;
    shapes.push_back(s);
  }
  {
    ShapeSpec s{"mesh4", tiny_config()};
    s.config.transit_peer_prob = 0.9;
    s.config.intra_extra_edge_prob = 0.5;
    shapes.push_back(s);
  }
  {
    ShapeSpec s{"stampmix5", tiny_config()};
    s.config.num_ases = 5;
    s.config.tier1_routers_max = 1;
    s.config.transit_routers_max = 1;
    s.config.rr_ingress_frac = 0.3;
    s.config.rr_loopback_frac = 0.2;
    s.config.rr_private_frac = 0.1;
    s.config.host_doublestamp_frac = 0.2;
    s.config.host_aliasstamp_frac = 0.2;
    shapes.push_back(s);
  }
  {
    ShapeSpec s{"nostamp4", tiny_config()};
    s.config.rr_nostamp_frac = 0.4;
    s.config.host_nostamp_frac = 0.4;
    shapes.push_back(s);
  }
  {
    ShapeSpec s{"filtered5", tiny_config()};
    s.config.num_ases = 5;
    s.config.tier1_routers_max = 1;
    s.config.transit_routers_max = 1;
    s.config.as_filters_options = 0.3;
    shapes.push_back(s);
  }
  {
    ShapeSpec s{"sparse6", tiny_config()};
    s.config.num_ases = 6;
    s.config.tier1_routers_max = 1;
    s.config.transit_routers_max = 1;
    s.config.router_ttl_responsive = 0.8;
    s.config.router_ping_responsive = 0.8;
    s.config.host_ping_responsive = 0.7;
    s.config.host_rr_responsive_given_ping = 0.6;
    shapes.push_back(s);
  }
  {
    ShapeSpec s{"ecmp4", tiny_config()};
    s.config.intra_extra_edge_prob = 0.9;
    s.config.tier1_routers_min = 2;
    s.config.tier1_routers_max = 2;
    s.config.transit_routers_min = 2;
    s.config.transit_routers_max = 2;
    shapes.push_back(s);
  }
  return shapes;
}

std::vector<PresetSpec> make_presets() {
  std::vector<PresetSpec> presets;
  presets.push_back({"revtr2", core::EngineConfig::revtr2()});
  presets.push_back({"revtr1", core::EngineConfig::revtr1()});
  {
    PresetSpec p{"revtr2-nocache", core::EngineConfig::revtr2()};
    p.config.use_cache = false;
    presets.push_back(p);
  }
  {
    PresetSpec p{"revtr2+ts", core::EngineConfig::revtr2()};
    p.config.use_timestamp = true;
    presets.push_back(p);
  }
  {
    PresetSpec p{"revtr2-norratlas", core::EngineConfig::revtr2()};
    p.config.use_rr_atlas = false;
    presets.push_back(p);
  }
  {
    PresetSpec p{"revtr2+interdomain", core::EngineConfig::revtr2()};
    p.config.allow_interdomain_symmetry = true;
    presets.push_back(p);
  }
  {
    PresetSpec p{"revtr1+ingress", core::EngineConfig::revtr1()};
    p.config.use_ingress_selection = true;
    presets.push_back(p);
  }
  {
    PresetSpec p{"revtr2+dbrverify", core::EngineConfig::revtr2()};
    p.config.verify_destination_based_routing = true;
    presets.push_back(p);
  }
  return presets;
}

std::vector<FaultSchedule> make_schedules() {
  return {
      FaultSchedule{"none", 0.0, false, 0, false, 0},
      FaultSchedule{"loss2", 0.02, false, 0, false, 0},
      FaultSchedule{"loss10", 0.10, false, 0, false, 0},
      FaultSchedule{"spoof-dead", 0.0, true, 0, false, 0},
      FaultSchedule{"rr-limit1", 0.0, false, 1, false, 0},
      FaultSchedule{"rr-limit3", 0.0, false, 3, false, 0},
      FaultSchedule{"stale-atlas", 0.0, false, 0, true, 0},
      FaultSchedule{"vp-filter2", 0.0, false, 0, false, 2},
      FaultSchedule{"vp-filter3", 0.0, false, 0, false, 3},
      FaultSchedule{"spoof-dead+stale", 0.0, true, 0, true, 0},
      FaultSchedule{"loss5+rr-limit2", 0.05, false, 2, false, 0},
      FaultSchedule{"stale+vp-filter2", 0.0, false, 0, true, 2},
  };
}

probing::FaultPolicy make_policy(const FaultSchedule& schedule,
                                 const topology::Topology& topo) {
  if (!schedule.drop_spoofed && schedule.rr_rate_limit == 0 &&
      schedule.filtered_vp_stride == 0) {
    return {};
  }
  std::unordered_set<HostId> filtered;
  if (schedule.filtered_vp_stride > 0) {
    const auto vps = topo.vantage_points();
    // Never filter vps[0]: it doubles as the measurement source, and the
    // schedule models losing *other* vantage points.
    for (std::size_t i = schedule.filtered_vp_stride - 1; i < vps.size();
         i += schedule.filtered_vp_stride) {
      filtered.insert(vps[i]);
    }
  }
  return [schedule, filtered = std::move(filtered),
          option_probes = std::unordered_map<std::uint32_t, std::uint32_t>{}](
             const ProbeEvent& event) mutable {
    if (schedule.drop_spoofed && event.spoof_as.has_value()) return true;
    if (!filtered.empty() && filtered.contains(event.from)) return true;
    if (schedule.rr_rate_limit > 0 && event.type != ProbeType::kPing) {
      auto& count = option_probes[event.target.value()];
      if (++count > schedule.rr_rate_limit) return true;
    }
    return false;
  };
}

// The per-topology tower, shared across every (preset, schedule) state that
// runs on it. Declaration order matters (members reference earlier ones),
// mirroring eval::Lab without depending on the eval layer.
struct Tower {
  explicit Tower(const topology::TopologyConfig& config)
      : topo(topology::TopologyBuilder::build(config)),
        bgp(topo),
        intra(topo),
        plane(topo, bgp, intra),
        ip2as(topo),
        relationships(topo) {}

  topology::Topology topo;
  routing::BgpTable bgp;
  routing::IntraRouting intra;
  routing::ForwardingPlane plane;
  asmap::IpToAs ip2as;
  asmap::AsRelationships relationships;
};

struct Endpoints {
  HostId source = topology::kInvalidId;
  HostId destination = topology::kInvalidId;
  bool valid() const noexcept {
    return source != topology::kInvalidId &&
           destination != topology::kInvalidId && source != destination;
  }
};

Endpoints pick_endpoints(const topology::Topology& topo) {
  Endpoints e;
  const auto vps = topo.vantage_points();
  if (!vps.empty()) e.source = vps[0];
  for (const auto& host : topo.hosts()) {
    if (host.id == e.source || host.is_vantage_point || host.is_probe_host) {
      continue;
    }
    if (!host.ping_responsive) continue;
    e.destination = host.id;
    break;
  }
  if (e.destination == topology::kInvalidId) {
    for (const auto& host : topo.hosts()) {
      if (host.id != e.source) {
        e.destination = host.id;
        break;
      }
    }
  }
  return e;
}

// Everything a result asserts about the measured path: status plus the hop
// sequence with provenance. Two results with equal signatures told the user
// the same thing, whatever their probe accounting looked like.
std::string signature_of(const core::ReverseTraceroute& result) {
  std::string sig = core::to_string(result.status);
  for (const auto& hop : result.hops) {
    sig += '|';
    sig += hop.addr.to_string();
    sig += '#';
    sig += core::to_string(hop.source);
  }
  return sig;
}

void record_violations(std::vector<Violation>&& violations,
                       const std::string& state_label,
                       const CheckerOptions& options, CheckerSummary& out) {
  for (auto& violation : violations) {
    ++out.total_violations;
    ++out.by_invariant[static_cast<std::size_t>(violation.id)];
    if (out.samples.size() < options.max_reported) {
      out.samples.push_back(state_label + ": " + to_string(violation.id) +
                            ": " + violation.detail);
    }
  }
}

// One state's measurement stack on a tower: the blocking run and the staged
// twins each build one from the same seeds, so both start from the same
// atlas, RR alias index and TS adjacencies. Declaration order matters
// (members reference earlier ones).
struct World {
  World(const Tower& tower, const Endpoints& endpoints,
        const PresetSpec& preset, const FaultSchedule& schedule,
        std::uint64_t state_seed, ProbeLog* log)
      : network(tower.topo, tower.plane, state_seed),
        prober(network),
        atlas(prober, tower.topo),
        ingress(prober, tower.topo),
        engine(prober, tower.topo, atlas, ingress, tower.ip2as,
               tower.relationships, preset.config, state_seed) {
    network.set_loss_rate(schedule.loss_rate);
    prober.set_observer(log);
    if (auto policy = make_policy(schedule, tower.topo)) {
      prober.set_fault_policy(std::move(policy));
    }
    util::Rng rng(util::mix_hash(state_seed, 0xa77a5));
    atlas.build(endpoints.source, 3, rng, 0);
    atlas.build_rr_alias_index(endpoints.source);
    if (preset.config.use_timestamp) {
      for (const auto& tr : atlas.traceroutes(endpoints.source)) {
        adjacencies.add_path(tr.hops);
      }
      engine.set_adjacency_provider(adjacencies.provider());
    }
  }

  sim::Network network;
  probing::Prober prober;
  atlas::TracerouteAtlas atlas;
  vpselect::IngressDiscovery ingress;
  core::RevtrEngine engine;
  core::AdjacencyMap adjacencies;
};

void run_state(const Tower& tower, const Endpoints& endpoints,
               const PresetSpec& preset, const FaultSchedule& schedule,
               std::uint64_t state_seed, const std::string& state_label,
               const CheckerOptions& options, CheckerSummary& out) {
  ProbeLog log;
  World world(tower, endpoints, preset, schedule, state_seed, &log);
  // A stale-atlas schedule starts measuring a TTL after the atlas was built.
  const util::SimClock::Micros start_us =
      schedule.stale_atlas ? core::kCacheTtl + util::SimClock::kSecond
                           : 0;
  util::SimClock clock;
  clock.advance_to(start_us);

  // Two measurements of the same pair per state: the first populates the RR
  // cache, the second replays it (when the preset caches), so cache-replay
  // provenance is inside the explored state space.
  const char* const round_names[] = {"", " (cached)"};
  const std::size_t rounds = preset.config.use_cache ? 2 : 1;
  std::optional<core::ReverseTraceroute> blocking_result;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto mark = log.mark();
    // Every explored state is traced, so I6 (span probe attribution) runs
    // across the full (shape × preset × schedule) grid.
    obs::Trace trace;
    trace.request_index = round;
    world.engine.set_trace(&trace);
    const auto result =
        world.engine.measure(endpoints.destination, endpoints.source, clock);
    world.engine.set_trace(nullptr);
    if (round == 0) {
      blocking_result = result;
      switch (result.status) {
        case core::RevtrStatus::kComplete:
          ++out.completed;
          break;
        case core::RevtrStatus::kAbortedInterdomainSymmetry:
          ++out.aborted;
          break;
        case core::RevtrStatus::kUnreachable:
          ++out.unreachable;
          break;
      }
    }

    CheckContext ctx;
    ctx.topo = &tower.topo;
    ctx.ip2as = &tower.ip2as;
    ctx.config = &world.engine.config();
    ctx.window = log.since(mark);
    ctx.lifetime = log.lifetime();
    ctx.trace = &trace;
    auto violations = check_result(result, ctx);

    auto oracle =
        check_against_truth(result, world.network, options.oracle_salts);
    out.oracle_pairs += oracle.pairs_checked;
    out.oracle_permitted += oracle.permitted_divergences;
    for (auto& violation : oracle.violations) {
      violations.push_back(std::move(violation));
    }
    record_violations(std::move(violations), state_label + round_names[round],
                      options, out);
  }

  // --- Staged twins (I7). --------------------------------------------------
  // Replay the request as two identical resumable RequestTasks multiplexed
  // over one ProbeScheduler, on a fresh but identically-seeded world. The
  // deliberately tiny window/token settings force throttling and multi-round
  // scheduling; the twins' identical demand streams make every wire probe a
  // coalescing opportunity. I7 re-checks the audit adversarially. For
  // order-insensitive fault schedules the signatures must also match the
  // blocking run exactly — loss draws and RR rate-limit counters depend on
  // wire order, which staging legitimately changes, so those schedules only
  // get the audit checks.
  World twin_world(tower, endpoints, preset, schedule, state_seed, nullptr);
  sched::SchedOptions sched_options;
  sched_options.vp_window = 2;
  sched_options.vp_tokens_per_round = 2;
  sched_options.vp_token_burst = 4;
  sched::ProbeScheduler scheduler(sched_options);
  sched::SchedulerAudit audit;
  scheduler.set_audit(&audit);

  // Each twin's RNG stream starts where the blocking engine's did
  // (rng_(state_seed) in the ctor), and its clock where the blocking clock
  // did, so a twin's demand sequence replays the blocking measurement.
  core::RequestExecutor executor(twin_world.engine, scheduler, 0);
  std::array<std::optional<core::ReverseTraceroute>, 2> twins;
  for (auto& twin : twins) {
    executor.start(endpoints.destination, endpoints.source, start_us,
                   state_seed, std::nullopt,
                   [&twin](core::ReverseTraceroute result,
                           std::optional<obs::Trace> /*trace*/) {
                     twin = std::move(result);
                   });
  }
  while (executor.active() > 0) executor.round(&twin_world.prober);

  ++out.staged_twins;
  out.staged_coalesced += scheduler.stats().coalesced;

  auto violations = check_scheduler(audit, sched_options);
  const bool order_insensitive =
      schedule.loss_rate == 0.0 && schedule.rr_rate_limit == 0;
  if (order_insensitive) {
    const std::string sig_a = signature_of(*twins[0]);
    const std::string sig_b = signature_of(*twins[1]);
    if (sig_a != sig_b) {
      violations.push_back(
          Violation{InvariantId::kSchedulerConsistency,
                    "staged twins diverged: " + sig_a + " vs " + sig_b});
    }
    if (const std::string blocking_sig = signature_of(*blocking_result);
        sig_a != blocking_sig) {
      violations.push_back(Violation{
          InvariantId::kSchedulerConsistency,
          "staged result " + sig_a + " diverges from blocking " +
              blocking_sig});
    }
  }
  record_violations(std::move(violations), state_label + " (staged)", options,
                    out);
}

}  // namespace

std::span<const FaultSchedule> default_fault_schedules() {
  static const std::vector<FaultSchedule> schedules = make_schedules();
  return schedules;
}

std::span<const PresetSpec> default_presets() {
  static const std::vector<PresetSpec> presets = make_presets();
  return presets;
}

std::span<const ShapeSpec> default_shapes() {
  static const std::vector<ShapeSpec> shapes = make_shapes();
  return shapes;
}

CheckerSummary run_model_checker(const CheckerOptions& options) {
  CheckerSummary out;
  const auto shapes = default_shapes();
  const auto presets = default_presets();
  const auto schedules = default_fault_schedules();

  for (std::size_t shape_idx = 0; shape_idx < shapes.size(); ++shape_idx) {
    for (std::size_t seed_idx = 0; seed_idx < options.seeds_per_shape;
         ++seed_idx) {
      topology::TopologyConfig config = shapes[shape_idx].config;
      config.seed = util::mix_hash(0x5eed, shape_idx, seed_idx);
      const Tower tower(config);
      const Endpoints endpoints = pick_endpoints(tower.topo);
      if (!endpoints.valid()) continue;

      for (std::size_t preset_idx = 0; preset_idx < presets.size();
           ++preset_idx) {
        for (std::size_t sched_idx = 0; sched_idx < schedules.size();
             ++sched_idx) {
          if (options.max_states > 0 && out.states >= options.max_states) {
            return out;
          }
          ++out.states;
          const auto state_seed = util::mix_hash(
              util::mix_hash(shape_idx, seed_idx), preset_idx, sched_idx);
          const std::string label =
              std::string(shapes[shape_idx].name) + "/s" +
              std::to_string(seed_idx) + "/" + presets[preset_idx].name + "/" +
              schedules[sched_idx].name;
          run_state(tower, endpoints, presets[preset_idx],
                    schedules[sched_idx], state_seed, label, options, out);
        }
      }
    }
  }
  return out;
}

}  // namespace revtr::analysis
