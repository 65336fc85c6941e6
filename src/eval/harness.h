// Experiment harness: assembles the full stack in one object.
//
// Every bench/example needs the same tower — topology, routing, simulator,
// prober, AS datasets, atlas, ingress discovery, engine. Lab wires it
// together in declaration order (members reference earlier members) and
// offers the common setup steps: bootstrapping sources and precomputing the
// offline ingress survey.
#pragma once

#include <span>
#include <vector>

#include "asmap/asmap.h"
#include "atlas/atlas.h"
#include "core/revtr.h"
#include "probing/prober.h"
#include "routing/forwarding.h"
#include "sim/network.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace revtr::eval {

class Lab {
 public:
  explicit Lab(const topology::TopologyConfig& topo_config,
               core::EngineConfig engine_config = core::EngineConfig::revtr2(),
               std::uint64_t seed = 7);

  // Builds the atlas (Q1) and RR alias index (Q2) of every source, measured
  // at time 0 and fanned out over every CPU the process may use
  // (TracerouteAtlas's list builds).
  void bootstrap_sources(std::span<const topology::HostId> sources,
                         std::size_t atlas_size);
  void bootstrap_source(topology::HostId source, std::size_t atlas_size) {
    bootstrap_sources({&source, 1}, atlas_size);
  }

  // Runs the offline ingress survey (Q3) for the given prefixes on every
  // CPU the process may use (IngressDiscovery::discover_all). Its probes
  // count as offline, so online accounting stays clean.
  void precompute_ingresses(std::span<const topology::PrefixId> prefixes);
  void precompute_all_ingresses();

  // Hosts suitable as measurement destinations (hitlist-style).
  std::vector<topology::HostId> responsive_destinations(
      bool require_rr = false) const;

  // Customer prefixes (where destinations live).
  std::vector<topology::PrefixId> customer_prefixes() const;

  topology::Topology topo;
  routing::BgpTable bgp;
  routing::IntraRouting intra;
  routing::ForwardingPlane plane;
  sim::Network network;
  probing::Prober prober;
  asmap::IpToAs ip2as;
  asmap::AsRelationships relationships;
  atlas::TracerouteAtlas atlas;
  vpselect::IngressDiscovery ingress;
  core::RevtrEngine engine;
  util::Rng rng;
};

}  // namespace revtr::eval
