#include "routing/bgp.h"

#include <algorithm>
#include <limits>

#include "util/rng.h"

namespace revtr::routing {

namespace {

using topology::AsIndex;
using topology::Asn;

constexpr std::uint16_t kUnreachableLen =
    std::numeric_limits<std::uint16_t>::max();

struct CandidateSet {
  Asn best = 0;
  Asn alt = 0;
  std::uint64_t best_weight = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t alt_weight = std::numeric_limits<std::uint64_t>::max();

  void offer(Asn candidate, std::uint64_t w) {
    if (w < best_weight) {
      alt = best;
      alt_weight = best_weight;
      best = candidate;
      best_weight = w;
    } else if (w < alt_weight && candidate != best) {
      alt = candidate;
      alt_weight = w;
    }
  }
};

}  // namespace

BgpTable::BgpTable(const topology::Topology& topo)
    : topo_(topo), columns_(topo.num_ases()) {}

// Deterministic, direction-sensitive tiebreak weight: the AS `chooser`
// ranks equally-preferred candidates by this hash, so choices differ per
// destination and are not symmetric between directions. Under churn, a
// per-epoch salt re-rolls a small fraction of (chooser, dest) decisions.
std::uint64_t BgpTable::tiebreak(Asn chooser, Asn candidate,
                                 Asn dest) const {
  std::uint64_t salt = 0;
  if (flip_per_million_ > 0 &&
      util::mix_hash(chooser, dest, 0xc4a11) % 1000000 < flip_per_million_) {
    salt = util::mix_hash(epoch_, chooser, dest);
  }
  return util::mix_hash(chooser, candidate, dest ^ salt);
}

void BgpTable::set_no_export(AsIndex origin,
                             std::vector<Asn> suppressed_neighbors) {
  no_export_[origin] = std::move(suppressed_neighbors);
  columns_.reset(origin);
}

void BgpTable::clear_no_export(AsIndex origin) {
  no_export_.erase(origin);
  columns_.reset(origin);
}

void BgpTable::set_epoch(std::uint32_t epoch, double flip_fraction) {
  epoch_ = epoch;
  flip_per_million_ = static_cast<std::uint32_t>(
      std::clamp(flip_fraction, 0.0, 1.0) * 1000000.0);
  columns_.reset_all();
}

const BgpTable::Column& BgpTable::column(AsIndex dest) const {
  return columns_.get(dest,
                      [&](Column& column) { compute_column(dest, column); });
}

Asn BgpTable::next_hop(AsIndex dest, AsIndex from) const {
  return column(dest).next[from];
}

Asn BgpTable::alt_next_hop(AsIndex dest, AsIndex from) const {
  return column(dest).alt[from];
}

std::vector<Asn> BgpTable::as_path(AsIndex from, AsIndex dest) const {
  std::vector<Asn> path;
  const Column& col = column(dest);
  AsIndex current = from;
  const Asn dest_asn = topo_.as_at(dest).asn;
  // Bounded walk; policy routing is loop-free but stay defensive.
  for (std::size_t steps = 0; steps <= topo_.num_ases(); ++steps) {
    const Asn current_asn = topo_.as_at(current).asn;
    path.push_back(current_asn);
    if (current_asn == dest_asn) return path;
    const Asn next = col.next[current];
    if (next == 0) return {};  // Unreachable.
    current = topo_.index_of(next);
  }
  return {};
}

void BgpTable::compute_column(AsIndex dest, Column& column) const {
  const std::size_t n = topo_.num_ases();
  column.next.assign(n, 0);
  column.alt.assign(n, 0);
  column.path_len.assign(n, kUnreachableLen);
  column.route_class.assign(n, RouteClass::kNone);

  const Asn dest_asn = topo_.as_at(dest).asn;
  column.route_class[dest] = RouteClass::kOrigin;
  column.path_len[dest] = 0;
  column.next[dest] = dest_asn;

  // §6.1 announcement policy: the origin withholds its route from these
  // neighbors entirely.
  const auto no_export_it = no_export_.find(dest);
  auto suppressed = [&](AsIndex u, Asn neighbor) {
    if (u != dest || no_export_it == no_export_.end()) return false;
    const auto& list = no_export_it->second;
    return std::find(list.begin(), list.end(), neighbor) != list.end();
  };

  // --- Phase 1: customer routes propagate "up" provider links. ---
  // Level-synchronous BFS so all equally-short candidates are visible for
  // the tiebreak at finalization time.
  std::vector<AsIndex> frontier = {dest};
  std::uint16_t level = 0;
  std::vector<CandidateSet> candidates(n);
  while (!frontier.empty()) {
    ++level;
    std::vector<AsIndex> offered;
    for (AsIndex u : frontier) {
      const Asn via = topo_.as_at(u).asn;
      for (Asn provider_asn : topo_.as_at(u).providers) {
        if (suppressed(u, provider_asn)) continue;
        const AsIndex p = topo_.index_of(provider_asn);
        if (column.route_class[p] != RouteClass::kNone) continue;
        if (candidates[p].best == 0) offered.push_back(p);
        candidates[p].offer(via, tiebreak(provider_asn, via, dest_asn));
      }
    }
    std::vector<AsIndex> next_frontier;
    for (AsIndex p : offered) {
      if (column.route_class[p] != RouteClass::kNone) continue;
      column.route_class[p] = RouteClass::kCustomer;
      column.path_len[p] = level;
      column.next[p] = candidates[p].best;
      column.alt[p] = candidates[p].alt;
      candidates[p] = CandidateSet{};
      next_frontier.push_back(p);
    }
    frontier = std::move(next_frontier);
  }

  // --- Phase 2: customer routes advertised across peer links. ---
  std::vector<std::pair<std::uint16_t, AsIndex>> peer_candidates_order;
  for (AsIndex u = 0; u < n; ++u) {
    if (column.route_class[u] != RouteClass::kCustomer &&
        column.route_class[u] != RouteClass::kOrigin) {
      continue;
    }
    const Asn via = topo_.as_at(u).asn;
    const std::uint16_t len = column.path_len[u];
    for (Asn peer_asn : topo_.as_at(u).peers) {
      if (suppressed(u, peer_asn)) continue;
      const AsIndex q = topo_.index_of(peer_asn);
      if (column.route_class[q] == RouteClass::kCustomer ||
          column.route_class[q] == RouteClass::kOrigin) {
        continue;
      }
      // Track the minimum candidate length per peer, then tiebreak among
      // candidates at that length.
      if (column.path_len[q] > len + 1 ||
          column.route_class[q] == RouteClass::kNone) {
        if (column.route_class[q] != RouteClass::kPeer ||
            column.path_len[q] > len + 1) {
          column.route_class[q] = RouteClass::kPeer;
          column.path_len[q] = len + 1;
          candidates[q] = CandidateSet{};
          peer_candidates_order.emplace_back(len + 1, q);
        }
      }
      if (column.route_class[q] == RouteClass::kPeer &&
          column.path_len[q] == len + 1) {
        candidates[q].offer(via, tiebreak(peer_asn, via, dest_asn));
      }
    }
  }
  for (const auto& [len, q] : peer_candidates_order) {
    if (column.route_class[q] == RouteClass::kPeer &&
        column.path_len[q] == len && candidates[q].best != 0) {
      column.next[q] = candidates[q].best;
      column.alt[q] = candidates[q].alt;
    }
  }

  // --- Phase 3: routes advertised "down" to customers (provider routes),
  // propagating through customer chains in path-length order. ---
  const std::uint16_t max_len = static_cast<std::uint16_t>(n + 2);
  std::vector<std::vector<std::pair<AsIndex, Asn>>> buckets(max_len + 2);
  auto seed_customers = [&](AsIndex u) {
    const std::uint16_t len = column.path_len[u];
    if (len + 1 > max_len) return;
    const Asn via = topo_.as_at(u).asn;
    for (Asn customer_asn : topo_.as_at(u).customers) {
      if (suppressed(u, customer_asn)) continue;
      const AsIndex c = topo_.index_of(customer_asn);
      if (column.route_class[c] >= RouteClass::kPeer) continue;
      buckets[len + 1].emplace_back(c, via);
    }
  };
  for (AsIndex u = 0; u < n; ++u) {
    if (column.route_class[u] >= RouteClass::kPeer) seed_customers(u);
  }
  for (std::uint16_t len = 1; len <= max_len; ++len) {
    auto& bucket = buckets[len];
    // First pass: collect candidates for not-yet-finalized ASes.
    std::vector<AsIndex> touched;
    for (const auto& [c, via] : bucket) {
      if (column.route_class[c] != RouteClass::kNone) continue;
      if (candidates[c].best == 0) touched.push_back(c);
      candidates[c].offer(via,
                          tiebreak(topo_.as_at(c).asn, via, dest_asn));
    }
    // Second pass: finalize and cascade to their customers.
    for (AsIndex c : touched) {
      if (column.route_class[c] != RouteClass::kNone) continue;
      column.route_class[c] = RouteClass::kProvider;
      column.path_len[c] = len;
      column.next[c] = candidates[c].best;
      column.alt[c] = candidates[c].alt;
      candidates[c] = CandidateSet{};
      seed_customers(c);
    }
    bucket.clear();
  }
}

}  // namespace revtr::routing
