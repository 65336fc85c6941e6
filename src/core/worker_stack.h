// One worker's private measurement stack: its own simulated network and
// prober under a RevtrEngine that shares one EngineCaches with every other
// worker (DESIGN.md §8). The daemon's workers, the parallel campaign
// driver's workers and the tests' sequential reference loops all build it.
//
// Every stack of one daemon or campaign derives its network from the same
// seed (network_seed), and simulated probe outcomes are pure functions of
// probe content, so a request measures the same path on any worker.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "asmap/asmap.h"
#include "atlas/atlas.h"
#include "core/revtr.h"
#include "probing/prober.h"
#include "routing/forwarding.h"
#include "sim/network.h"
#include "topology/topology.h"
#include "util/rng.h"
#include "vpselect/ingress.h"

namespace revtr::core {

// Everything a worker stack hangs off. The atlas and the ingress survey
// keep their own (control-plane) prober; each stack brings its own.
struct StackDeps {
  const topology::Topology& topo;
  const routing::ForwardingPlane& plane;
  atlas::TracerouteAtlas& atlas;
  vpselect::IngressDiscovery& ingress;
  const asmap::IpToAs& ip2as;
  const asmap::AsRelationships& relationships;
};

// Members reference earlier members (the prober holds the network, the
// engine holds the prober), so a stack never moves: keep it behind
// unique_ptr.
struct WorkerStack {
  // The simulated network's seed for a daemon or campaign seeded `seed`.
  static std::uint64_t network_seed(std::uint64_t seed) {
    return util::mix_hash(seed, 0x6e7ULL);
  }

  WorkerStack(const StackDeps& deps, const EngineConfig& config,
              std::uint64_t seed, std::shared_ptr<EngineCaches> caches)
      : network(deps.topo, deps.plane, network_seed(seed)),
        prober(network),
        engine(prober, deps.topo, deps.atlas, deps.ingress, deps.ip2as,
               deps.relationships, config, network_seed(seed)) {
    engine.set_shared_caches(std::move(caches));
  }
  WorkerStack(const WorkerStack&) = delete;
  WorkerStack& operator=(const WorkerStack&) = delete;

  sim::Network network;
  probing::Prober prober;
  RevtrEngine engine;
};

}  // namespace revtr::core
