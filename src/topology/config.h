// Knobs of the topology generator.
//
// Defaults are tuned so the measured behaviour of the synthetic Internet
// matches the paper's reported environment: ~77% ping responsiveness, ~58%
// RR responsiveness (Table 6), the RR-stamping artifact mix of §4.3/§5.2.2,
// a small rate of destination-based-routing violations (Appx E), and VP
// placement that puts most prefixes within 9 RR hops of a colo AS
// (Insight 1.7).
#pragma once

#include <cstddef>
#include <cstdint>

namespace revtr::topology {

struct TopologyConfig {
  std::uint64_t seed = 42;

  // --- AS-level structure. ---
  std::size_t num_ases = 1200;
  std::size_t num_tier1 = 8;
  double transit_fraction = 0.25;     // Of non-tier1 ASes.
  double nren_fraction = 0.02;        // Of transit ASes.
  double stub_multihome_prob = 0.70;  // Stubs with 2+ providers.
  double transit_peer_prob = 0.45;    // Peering among transits.

  // --- Router-level structure. ---
  std::size_t tier1_routers_min = 12, tier1_routers_max = 24;
  std::size_t transit_routers_min = 5, transit_routers_max = 12;
  std::size_t stub_routers_min = 2, stub_routers_max = 6;
  double intra_extra_edge_prob = 0.20;  // Redundancy beyond the spanning tree.

  // --- Behaviour mix (router stamping policies; must sum to <= 1, the
  // remainder is kEgress). ---
  double rr_ingress_frac = 0.08;
  double rr_loopback_frac = 0.10;
  double rr_private_frac = 0.04;
  double rr_nostamp_frac = 0.05;

  double router_ttl_responsive = 0.95;  // Shows up in traceroute.
  double router_ping_responsive = 0.93;
  double router_snmp_responder = 0.30;  // §4.4 dataset basis.
  double router_per_packet_lb = 0.02;
  double router_source_sensitive = 0.05;  // Appx E violation sources.

  // --- Hosts. ---
  std::size_t hosts_per_prefix = 6;
  double host_ping_responsive = 0.77;           // Table 6.
  double host_rr_responsive_given_ping = 0.76;  // 0.77*0.76 ~ 0.58 overall.
  double host_nostamp_frac = 0.10;
  double host_doublestamp_frac = 0.06;
  double host_aliasstamp_frac = 0.06;

  // --- Vantage points and probe hosts. ---
  std::size_t num_vps = 40;        // "2020" era, colo-hosted (M-Lab-like).
  std::size_t num_vps_2016 = 14;   // Edu-hosted subset for Table 6 / Fig 11.
  double vp_as_allows_spoofing = 0.92;
  std::size_t num_probe_hosts = 300;  // RIPE-Atlas-like.

  // --- AS-level behaviours. ---
  double as_filters_options = 0.03;
  double as_source_sensitive = 0.08;  // Violates destination-based routing.

  // --- Link delays (microseconds). ---
  std::int64_t intra_delay_min_us = 100, intra_delay_max_us = 2000;
  std::int64_t inter_delay_min_us = 1000, inter_delay_max_us = 30000;
};

}  // namespace revtr::topology
