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

// Lookups are safe from any number of threads at once: each column is built
// on first use and published once (util::LazySlots). The policy setters
// (set_no_export, clear_no_export, set_epoch) drop cached columns and must
// not race any lookup.
class BgpTable {
 public:
  // Columns hold ASNs in 16 bits, and ASNs run 1..num_ases, so a table
  // covers at most this many ASes.
  static constexpr std::size_t kMaxAses = 0xffff;

  // Throws std::length_error when the topology has more than kMaxAses ASes.
  explicit BgpTable(const topology::Topology& topo);

  // The width rule the constructor applies to `num_ases`.
  static void check_as_count(std::size_t num_ases);

  // The per-destination routing column; computed lazily and cached. Only
  // the next hops are kept: one 4-byte entry per AS, so a lookup touches
  // one cache line. The route classes and path lengths that choose them
  // are compute_column's scratch.
  struct Column {
    struct Entry {
      // ASN of the preferred next-hop AS toward the destination, 0 when
      // unreachable, own ASN at the origin.
      std::uint16_t next = 0;
      // Equally-preferred alternate next hop, 0 when none.
      std::uint16_t alt = 0;
    };
    std::vector<Entry> entries;  // Indexed by AS index.

    topology::Asn next(topology::AsIndex from) const {
      return entries[from].next;
    }
    topology::Asn alt(topology::AsIndex from) const {
      return entries[from].alt;
    }
  };

  const Column& column(topology::AsIndex dest) const;

  // Computes every column not built yet, each on one of `threads` threads
  // (util::LazySlots::fill_all: storage allocated on the calling thread).
  void build_all(std::size_t threads) const;

  // Preferred next-hop ASN from `from` toward destination AS `dest`;
  // 0 when unreachable.
  topology::Asn next_hop(topology::AsIndex dest, topology::AsIndex from) const;
  topology::Asn alt_next_hop(topology::AsIndex dest,
                             topology::AsIndex from) const;

  // The AS-level path from `from` to `dest` by walking next-hop pointers.
  // Empty when unreachable. Includes both endpoints.
  std::vector<topology::Asn> as_path(topology::AsIndex from,
                                     topology::AsIndex dest) const;

  // The AS-path length of every AS's chosen route toward `dest`, indexed
  // by AS index: 0 at the origin, UINT16_MAX when unreachable. Columns do
  // not keep lengths, so this computes the column afresh (for tests).
  std::vector<std::uint16_t> path_lengths(topology::AsIndex dest) const;

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
  // Fills `column`; returns the path lengths it chose (see path_lengths).
  std::vector<std::uint16_t> compute_column(topology::AsIndex dest,
                                            Column& column) const;
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
