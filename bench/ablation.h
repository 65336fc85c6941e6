// Shared runner for the §5.2 comparison between revtr 1.0, revtr 2.0, and
// the intermediate ablations of Table 4 / Fig 5.
//
// Each configuration gets a fresh, identically-seeded world. The offline
// phase (atlas build, Q2 RR index, Q3 ingress survey, adjacency corpus) runs
// first and its packets are excluded from the per-request accounting, as in
// the paper's packet budget. Then the same (destination, source) request
// list is measured and per-request latency, packets, and outcomes recorded.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/revtr.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "util/cpus.h"
#include "util/stats.h"

namespace revtr::bench {

enum class AdjacencySource {
  kNone,       // Timestamp technique disabled / starved.
  kAtlas,      // Adjacencies mined from the traceroute atlas (Ark-like).
  kGroundTruth,  // Oracle adjacencies from the topology (Appx D.1).
};

struct AblationConfig {
  std::string label;
  core::EngineConfig engine;
  bool use_alias_store = false;  // revtr 1.0 style atlas intersection.
  AdjacencySource adjacency = AdjacencySource::kNone;
  // Also measure a direct traceroute per pair and fill PathMetrics
  // (needed by the Fig 5a accuracy comparison).
  bool record_accuracy = false;
};

// §5.2.2 accuracy of one measured path against its direct traceroute.
struct PathMetrics {
  bool has_truth = false;
  double router_fraction = 0;             // Fig 5a "router level".
  double router_optimistic_fraction = 0;  // Fig 5a shaded upper bound.
  double as_fraction = 0;                 // Fig 5a "AS level".
  eval::AsMatch as_match = eval::AsMatch::kMismatch;
};

struct MeasuredPath {
  topology::HostId destination = topology::kInvalidId;
  topology::HostId source = topology::kInvalidId;
  core::RevtrStatus status = core::RevtrStatus::kUnreachable;
  std::vector<net::Ipv4Addr> hops;
  double latency_seconds = 0;
  bool has_suspicious_gap = false;
  bool has_private_hops = false;
  std::size_t symmetry_assumptions = 0;
  bool used_interdomain_symmetry = false;
  PathMetrics metrics;
};

struct AblationResult {
  std::string label;
  probing::ProbeCounters online;
  util::Distribution latency_seconds;
  std::size_t attempted = 0;
  std::size_t complete = 0;
  std::size_t aborted = 0;
  std::size_t unreachable = 0;
  std::vector<MeasuredPath> paths;

  double coverage() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(complete) /
                                static_cast<double>(attempted);
  }
};

struct RequestList {
  // (destination, source) pairs; destinations are probe hosts so a direct
  // traceroute ground truth exists (§5.2.1).
  std::vector<std::pair<topology::HostId, topology::HostId>> pairs;
};

inline RequestList make_requests(eval::Lab& lab, const BenchSetup& setup) {
  RequestList list;
  const auto probes = lab.topo.probe_hosts();
  const auto vps = lab.topo.vantage_points();
  const std::size_t sources = std::min(setup.sources, vps.size());
  util::Rng rng(setup.seed * 13 + 5);
  for (std::size_t i = 0; i < setup.revtrs; ++i) {
    const auto dest = probes[rng.below(probes.size())];
    const auto source = vps[i % sources];
    list.pairs.emplace_back(dest, source);
  }
  return list;
}

inline AblationResult run_ablation(const BenchSetup& setup,
                                   const AblationConfig& config) {
  eval::Lab lab(setup.topo, config.engine, setup.seed);
  const auto requests = make_requests(lab, setup);

  // --- Offline phase. ---
  const auto vps = lab.topo.vantage_points();
  const std::size_t sources = std::min(setup.sources, vps.size());
  lab.atlas.build(vps.first(sources), setup.atlas_size, lab.rng,
                  util::available_cpus(),
                  [](std::size_t, util::SimClock::Micros) { return 0; });
  if (config.engine.use_rr_atlas) {
    lab.atlas.build_rr_alias_index(vps.first(sources), util::available_cpus());
  }
  lab.precompute_all_ingresses();

  auto aliases = std::make_unique<alias::AliasStore>();
  if (config.use_alias_store) {
    util::Rng alias_rng(setup.seed + 3);
    *aliases = alias::midar_like_aliases(lab.topo, alias_rng);
    lab.engine.set_alias_store(aliases.get());
  }

  core::AdjacencyMap adjacency;
  switch (config.adjacency) {
    case AdjacencySource::kNone:
      break;
    case AdjacencySource::kAtlas:
      for (std::size_t s = 0; s < sources; ++s) {
        for (const auto& tr : lab.atlas.traceroutes(vps[s])) {
          adjacency.add_path(tr.hops);
        }
      }
      lab.engine.set_adjacency_provider(adjacency.provider());
      break;
    case AdjacencySource::kGroundTruth:
      lab.engine.set_adjacency_provider([&lab](net::Ipv4Addr current) {
        std::vector<net::Ipv4Addr> result;
        const auto owner = lab.topo.interface_at(current);
        if (!owner) return result;
        for (const auto link : lab.topo.router(owner->router).links) {
          result.push_back(lab.topo.egress_addr(
              lab.topo.far_end(owner->router, link), link));
        }
        return result;
      });
      break;
  }

  // --- Online phase. ---
  lab.prober.reset_counters();
  AblationResult result;
  result.label = config.label;
  util::SimClock clock;
  for (const auto& [dest, source] : requests.pairs) {
    const auto measured = lab.engine.measure(dest, source, clock);
    ++result.attempted;
    MeasuredPath path;
    path.destination = dest;
    path.source = source;
    path.status = measured.status;
    path.hops = measured.ip_hops();
    path.latency_seconds = measured.span.seconds();
    path.has_suspicious_gap = measured.has_suspicious_gap;
    path.has_private_hops = measured.has_private_hops;
    path.symmetry_assumptions = measured.symmetry_assumptions;
    path.used_interdomain_symmetry = measured.used_interdomain_symmetry;
    result.paths.push_back(std::move(path));
    result.latency_seconds.add(measured.span.seconds());
    switch (measured.status) {
      case core::RevtrStatus::kComplete:
        ++result.complete;
        break;
      case core::RevtrStatus::kAbortedInterdomainSymmetry:
        ++result.aborted;
        break;
      case core::RevtrStatus::kUnreachable:
        ++result.unreachable;
        break;
    }
  }
  result.online = lab.prober.counters();

  // --- Ground truth for Fig 5a: direct traceroutes, out of budget. ---
  if (config.record_accuracy) {
    util::Rng alias_rng(setup.seed + 3);
    const auto midar = alias::midar_like_aliases(lab.topo, alias_rng);
    const alias::SnmpResolver snmp(lab.topo);
    const eval::HopMatcher matcher(&midar, &snmp);
    eval::MatcherOptions optimistic_options;
    optimistic_options.optimistic = true;
    const eval::HopMatcher optimistic(&midar, &snmp, optimistic_options);

    for (auto& path : result.paths) {
      if (path.status != core::RevtrStatus::kComplete) continue;
      const auto direct = lab.prober.traceroute(
          path.destination, lab.topo.host(path.source).addr);
      if (!direct.reached) continue;
      const auto direct_hops = direct.responsive_hops();
      path.metrics.has_truth = true;
      path.metrics.router_fraction =
          eval::fraction_hops_matched(direct_hops, path.hops, matcher);
      path.metrics.router_optimistic_fraction =
          eval::fraction_hops_matched(direct_hops, path.hops, optimistic);
      const auto direct_as = lab.ip2as.as_path(direct_hops);
      const auto revtr_as = lab.ip2as.as_path(path.hops);
      std::size_t matched = 0;
      for (const auto asn : direct_as) {
        if (std::find(revtr_as.begin(), revtr_as.end(), asn) !=
            revtr_as.end()) {
          ++matched;
        }
      }
      path.metrics.as_fraction =
          direct_as.empty() ? 0.0
                            : static_cast<double>(matched) /
                                  static_cast<double>(direct_as.size());
      path.metrics.as_match = eval::compare_as_paths(direct_as, revtr_as);
    }
  }
  return result;
}

// The Table 4 incremental chain, as the paper measured it:
//   revtr 2.0 = revtr 1.0 + ingress + cache - TS + RR atlas.
inline std::vector<AblationConfig> table4_chain() {
  std::vector<AblationConfig> chain;

  AblationConfig revtr1;
  revtr1.label = "revtr 1.0";
  revtr1.engine = core::EngineConfig::revtr1();
  revtr1.use_alias_store = true;
  revtr1.adjacency = AdjacencySource::kAtlas;
  chain.push_back(revtr1);

  AblationConfig ingress = revtr1;
  ingress.label = "revtr 1.0 + ingress";
  ingress.engine.use_ingress_selection = true;
  chain.push_back(ingress);

  AblationConfig cache = ingress;
  cache.label = "revtr 1.0 + ingress + cache";
  cache.engine.use_cache = true;
  chain.push_back(cache);

  AblationConfig no_ts = cache;
  no_ts.label = "revtr 1.0 + ingress + cache - TS";
  no_ts.engine.use_timestamp = false;
  no_ts.adjacency = AdjacencySource::kNone;
  chain.push_back(no_ts);

  AblationConfig revtr2 = no_ts;
  revtr2.label = "revtr 2.0 (+ RR atlas)";
  revtr2.engine = core::EngineConfig::revtr2();
  revtr2.engine.use_last_hop_traces = false;  // The paper's system.
  revtr2.use_alias_store = false;
  chain.push_back(revtr2);

  return chain;
}

// The row after the paper's chain: revtr 2.0 with last-hop symmetry traces
// (DESIGN.md §16), an extension beyond the paper. Same paths, fewer
// traceroute packets.
inline AblationConfig last_hop_row(const AblationConfig& revtr2) {
  AblationConfig row = revtr2;
  row.label = "revtr 2.0 + last-hop traces";
  row.engine.use_last_hop_traces = true;
  return row;
}

}  // namespace revtr::bench
