// Shared bidirectional measurement campaign for the §6.2 asymmetry study
// (Fig 8, Fig 12, Fig 13/14, Table 7).
//
// Pairs an M-Lab-like source with destinations across prefixes, measures
// the forward path with traceroute and the reverse path with revtr 2.0,
// and keeps only pairs where both completed — the same filtering as the
// paper's 30M-pair study.
#pragma once

#include <vector>

#include "ablation.h"
#include "bench_common.h"
#include "eval/metrics.h"

namespace revtr::bench {

struct BidirPair {
  topology::HostId source = topology::kInvalidId;
  topology::HostId destination = topology::kInvalidId;
  std::vector<net::Ipv4Addr> forward_hops;   // source -> destination.
  std::vector<net::Ipv4Addr> reverse_hops;   // destination -> source.
  std::vector<topology::Asn> forward_as;
  std::vector<topology::Asn> reverse_as;     // Reversed into forward order.
  double router_fraction = 0;  // Forward hops also on the reverse path.
  double as_fraction = 0;
  bool as_symmetric = false;
  std::size_t symmetry_assumptions = 0;
};

struct AsymmetryCampaign {
  std::vector<BidirPair> pairs;  // Complete in both directions.
  std::size_t attempted = 0;
};

inline AsymmetryCampaign run_asymmetry_campaign(eval::Lab& lab,
                                                const BenchSetup& setup) {
  AsymmetryCampaign campaign;
  const auto vps = lab.topo.vantage_points();
  const std::size_t sources = std::min(setup.sources, vps.size());
  lab.bootstrap_sources(vps.first(sources), setup.atlas_size);
  lab.precompute_all_ingresses();
  lab.prober.reset_counters();

  util::Rng rng(setup.seed * 7 + 11);
  util::Rng alias_rng(setup.seed + 3);
  const auto midar = alias::midar_like_aliases(lab.topo, alias_rng);
  const alias::SnmpResolver snmp(lab.topo);
  const eval::HopMatcher matcher(&midar, &snmp);

  // One destination per customer prefix (hitlist style), paired with
  // sources round-robin, up to the requested campaign size.
  std::vector<topology::HostId> dests;
  for (const auto prefix : lab.customer_prefixes()) {
    for (const auto host : lab.topo.hosts_in_prefix(prefix)) {
      if (lab.topo.host(host).ping_responsive) {
        dests.push_back(host);
        break;
      }
    }
  }
  rng.shuffle(dests);
  if (dests.size() > setup.revtrs) dests.resize(setup.revtrs);

  util::SimClock clock;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const topology::HostId source = vps[i % sources];
    const topology::HostId dest = dests[i];
    ++campaign.attempted;

    const auto reverse = lab.engine.measure(dest, source, clock);
    if (!reverse.complete()) continue;
    const auto forward =
        lab.prober.traceroute(source, lab.topo.host(dest).addr);
    if (!forward.reached) continue;

    BidirPair pair;
    pair.source = source;
    pair.destination = dest;
    pair.forward_hops = forward.responsive_hops();
    pair.reverse_hops = reverse.ip_hops();
    pair.symmetry_assumptions = reverse.symmetry_assumptions;
    const auto symmetry = eval::path_symmetry(
        pair.forward_hops, pair.reverse_hops, matcher, lab.ip2as);
    pair.router_fraction = symmetry.router_fraction;
    pair.as_fraction = symmetry.as_fraction;
    pair.as_symmetric = symmetry.as_symmetric;
    pair.forward_as = lab.ip2as.as_path(pair.forward_hops);
    pair.reverse_as = lab.ip2as.as_path(pair.reverse_hops);
    std::reverse(pair.reverse_as.begin(), pair.reverse_as.end());
    campaign.pairs.push_back(std::move(pair));
  }
  return campaign;
}

}  // namespace revtr::bench
