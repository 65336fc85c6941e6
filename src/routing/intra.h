// Intra-AS routing: hop-count shortest paths among an AS's routers.
//
// Real networks run an IGP; hop-count shortest paths over the generated
// internal topology are a faithful stand-in at our scale. Equal-cost paths
// are preserved (up to two next hops per pair): the second next hop is what
// per-packet load balancers and source-sensitive routers use, producing the
// load-balancing and destination-based-routing-violation phenomena of
// Appx E.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.h"
#include "util/lazy_slots.h"

namespace revtr::routing {

// Per-AS matrices are built on first use (util::LazySlots), so lookups are
// safe from any number of threads at once.
class IntraRouting {
 public:
  explicit IntraRouting(const topology::Topology& topo);

  struct NextHops {
    topology::LinkId primary = topology::kInvalidId;
    topology::LinkId alternate = topology::kInvalidId;

    bool reachable() const noexcept {
      return primary != topology::kInvalidId;
    }
    bool has_ecmp() const noexcept {
      return alternate != topology::kInvalidId;
    }
  };

  // Next hop(s) from `from` toward `to`; both must be routers of the same
  // AS. Returns unreachable NextHops when from == to or disconnected.
  NextHops next_hops(topology::RouterId from, topology::RouterId to) const;

  // Hop distance between two routers of the same AS (0 when identical,
  // UINT16_MAX when disconnected).
  std::uint16_t distance(topology::RouterId from, topology::RouterId to) const;

 private:
  struct AsMatrix {
    // local_index(from) * size + local_index(to) -> NextHops / distance.
    std::vector<NextHops> hops;
    std::vector<std::uint16_t> dist;
    std::size_t size = 0;
  };

  const AsMatrix& matrix(topology::AsIndex as) const;
  void compute(topology::AsIndex as, AsMatrix& m) const;
  std::uint32_t local_index(topology::RouterId router) const {
    return local_index_[router];
  }

  const topology::Topology& topo_;
  std::vector<std::uint32_t> local_index_;  // RouterId -> index within AS.
  util::LazySlots<AsMatrix> matrices_;
};

}  // namespace revtr::routing
