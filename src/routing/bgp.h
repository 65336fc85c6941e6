// AS-level route computation with Gao-Rexford policies.
//
// For each destination AS we compute, for every other AS, the preferred
// next-hop AS under the standard policy model: prefer customer routes over
// peer routes over provider routes, then shorter AS paths, then a
// deterministic direction-sensitive tiebreak. The tiebreak hashes
// (chooser, candidate, destination), so the route from A to B need not be
// the reverse of the route from B to A — interdomain asymmetry emerges from
// policy, exactly as the paper measures in §6.2 (DESIGN.md §4.1).
//
// Each AS also records an *alternate* equally-preferred next hop when one
// exists; source-sensitive routers use it to violate destination-based
// routing at a controlled rate (Appx E).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "topology/topology.h"
#include "util/lazy_slots.h"

namespace revtr::routing {

// Route preference classes, higher is better.
enum class RouteClass : std::uint8_t {
  kNone = 0,
  kProvider = 1,
  kPeer = 2,
  kCustomer = 3,
  kOrigin = 4,
};

// Lookups are safe from any number of threads at once: each column is built
// on first use and published once (util::LazySlots). The policy setters
// (set_no_export, clear_no_export, set_epoch) drop cached columns and must
// not race any lookup.
class BgpTable {
 public:
  explicit BgpTable(const topology::Topology& topo);

  // The per-destination routing column; computed lazily and cached.
  struct Column {
    // Indexed by AS index; the ASN of the preferred next-hop AS toward the
    // destination, 0 when unreachable, own ASN at the origin.
    std::vector<topology::Asn> next;
    // Equally-preferred alternate next hop, 0 when none.
    std::vector<topology::Asn> alt;
    // AS-path length of the chosen route (0 at the origin).
    std::vector<std::uint16_t> path_len;
    std::vector<RouteClass> route_class;
  };

  const Column& column(topology::AsIndex dest) const;

  // Preferred next-hop ASN from `from` toward destination AS `dest`;
  // 0 when unreachable.
  topology::Asn next_hop(topology::AsIndex dest, topology::AsIndex from) const;
  topology::Asn alt_next_hop(topology::AsIndex dest,
                             topology::AsIndex from) const;

  // The AS-level path from `from` to `dest` by walking next-hop pointers.
  // Empty when unreachable. Includes both endpoints.
  std::vector<topology::Asn> as_path(topology::AsIndex from,
                                     topology::AsIndex dest) const;

  // Number of columns computed so far (for tests / memory awareness).
  std::size_t computed_columns() const noexcept { return columns_.built(); }

  // --- Announcement policies (§6.1 traffic engineering). ---
  // Suppresses the origin's announcement toward specific neighbors — the
  // effect of a "no-export" community or prepending/poisoning aimed at one
  // upstream. Traffic toward `origin` then cannot take a first hop through
  // those neighbors. Cached columns for `origin` are dropped.
  void set_no_export(topology::AsIndex origin,
                     std::vector<topology::Asn> suppressed_neighbors);
  void clear_no_export(topology::AsIndex origin);

  // --- Route churn (Appx D.2.2 staleness experiments). ---
  // Advancing the epoch makes a fraction `flip_fraction` of (AS,
  // destination) decisions re-roll their tiebreak, modelling the slow
  // background churn of interdomain routes. All cached columns are dropped.
  void set_epoch(std::uint32_t epoch, double flip_fraction);
  std::uint32_t epoch() const noexcept { return epoch_; }

 private:
  void compute_column(topology::AsIndex dest, Column& column) const;
  std::uint64_t tiebreak(topology::Asn chooser, topology::Asn candidate,
                         topology::Asn dest) const;

  const topology::Topology& topo_;
  util::LazySlots<Column> columns_;
  std::uint32_t epoch_ = 0;
  std::uint32_t flip_per_million_ = 0;
  std::unordered_map<topology::AsIndex, std::vector<topology::Asn>>
      no_export_;
};

}  // namespace revtr::routing
