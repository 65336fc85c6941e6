#include "eval/harness.h"

#include "util/cpus.h"

namespace revtr::eval {

Lab::Lab(const topology::TopologyConfig& topo_config,
         core::EngineConfig engine_config, std::uint64_t seed)
    : topo(topology::TopologyBuilder::build(topo_config)),
      bgp(topo),
      intra(topo),
      plane(topo, bgp, intra),
      network(topo, plane, seed),
      prober(network),
      ip2as(topo),
      relationships(topo),
      atlas(prober, topo),
      ingress(prober, topo),
      engine(prober, topo, atlas, ingress, ip2as, relationships,
             engine_config, seed),
      rng(seed) {}

void Lab::bootstrap_sources(std::span<const topology::HostId> sources,
                            std::size_t atlas_size) {
  atlas.build(sources, atlas_size, rng, util::available_cpus(),
              [](std::size_t, util::SimClock::Micros) { return 0; });
  atlas.build_rr_alias_index(sources, util::available_cpus());
}

void Lab::precompute_ingresses(
    std::span<const topology::PrefixId> prefixes) {
  ingress.discover_all(prefixes, topo.vantage_points(), rng,
                       util::available_cpus());
}

void Lab::precompute_all_ingresses() {
  // Include infrastructure prefixes: most current hops during a reverse
  // traceroute are router interfaces, whose covering prefix is infra.
  std::vector<topology::PrefixId> prefixes;
  for (const auto& prefix : topo.prefixes()) prefixes.push_back(prefix.id);
  precompute_ingresses(prefixes);
}

std::vector<topology::HostId> Lab::responsive_destinations(
    bool require_rr) const {
  std::vector<topology::HostId> hosts;
  for (const auto& host : topo.hosts()) {
    if (host.is_vantage_point || host.is_probe_host) continue;
    if (!host.ping_responsive) continue;
    if (require_rr && !host.rr_responsive) continue;
    hosts.push_back(host.id);
  }
  return hosts;
}

std::vector<topology::PrefixId> Lab::customer_prefixes() const {
  std::vector<topology::PrefixId> prefixes;
  for (const auto& prefix : topo.prefixes()) {
    if (!prefix.infrastructure) prefixes.push_back(prefix.id);
  }
  return prefixes;
}

}  // namespace revtr::eval
