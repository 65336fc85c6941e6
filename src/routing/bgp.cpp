#include "routing/bgp.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace revtr::routing {

namespace {

using topology::AsIndex;
using topology::Asn;

constexpr std::uint16_t kUnreachableLen =
    std::numeric_limits<std::uint16_t>::max();

// Route preference classes, higher is better.
enum class RouteClass : std::uint8_t {
  kNone = 0,
  kProvider = 1,
  kPeer = 2,
  kCustomer = 3,
  kOrigin = 4,
};

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
    : topo_(topo), columns_(topo.num_ases()) {
  check_as_count(topo.num_ases());
}

void BgpTable::check_as_count(std::size_t num_ases) {
  if (num_ases > kMaxAses) {
    throw std::length_error("BgpTable: " + std::to_string(num_ases) +
                            " ASes exceed the 16-bit column width (" +
                            std::to_string(kMaxAses) + ")");
  }
}

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

void BgpTable::build_all(std::size_t threads) const {
  const std::size_t n = topo_.num_ases();
  columns_.fill_all(
      threads,
      // compute_column() assigns n entries.
      [n](std::size_t, Column& column) { column.entries.reserve(n); },
      [this](std::size_t dest, Column& column) {
        compute_column(static_cast<AsIndex>(dest), column);
      });
}

Asn BgpTable::next_hop(AsIndex dest, AsIndex from) const {
  return column(dest).next(from);
}

Asn BgpTable::alt_next_hop(AsIndex dest, AsIndex from) const {
  return column(dest).alt(from);
}

std::vector<std::uint16_t> BgpTable::path_lengths(AsIndex dest) const {
  Column scratch;
  return compute_column(dest, scratch);
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
    const Asn next = col.next(current);
    if (next == 0) return {};  // Unreachable.
    current = topo_.index_of(next);
  }
  return {};
}

std::vector<std::uint16_t> BgpTable::compute_column(AsIndex dest,
                                                    Column& column) const {
  const std::size_t n = topo_.num_ases();
  column.entries.assign(n, Column::Entry{});
  std::vector<std::uint16_t> path_len(n, kUnreachableLen);
  std::vector<RouteClass> route_class(n, RouteClass::kNone);
  // ASNs run 1..n, which the constructor's width rule keeps in 16 bits.
  const auto choose = [&column](AsIndex as, Asn next, Asn alt) {
    column.entries[as] = {util::checked_cast<std::uint16_t>(next),
                          util::checked_cast<std::uint16_t>(alt)};
  };

  const Asn dest_asn = topo_.as_at(dest).asn;
  route_class[dest] = RouteClass::kOrigin;
  path_len[dest] = 0;
  choose(dest, dest_asn, 0);

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
        if (route_class[p] != RouteClass::kNone) continue;
        if (candidates[p].best == 0) offered.push_back(p);
        candidates[p].offer(via, tiebreak(provider_asn, via, dest_asn));
      }
    }
    std::vector<AsIndex> next_frontier;
    for (AsIndex p : offered) {
      if (route_class[p] != RouteClass::kNone) continue;
      route_class[p] = RouteClass::kCustomer;
      path_len[p] = level;
      choose(p, candidates[p].best, candidates[p].alt);
      candidates[p] = CandidateSet{};
      next_frontier.push_back(p);
    }
    frontier = std::move(next_frontier);
  }

  // --- Phase 2: customer routes advertised across peer links. ---
  std::vector<std::pair<std::uint16_t, AsIndex>> peer_candidates_order;
  for (AsIndex u = 0; u < n; ++u) {
    if (route_class[u] != RouteClass::kCustomer &&
        route_class[u] != RouteClass::kOrigin) {
      continue;
    }
    const Asn via = topo_.as_at(u).asn;
    const std::uint16_t len = path_len[u];
    for (Asn peer_asn : topo_.as_at(u).peers) {
      if (suppressed(u, peer_asn)) continue;
      const AsIndex q = topo_.index_of(peer_asn);
      if (route_class[q] == RouteClass::kCustomer ||
          route_class[q] == RouteClass::kOrigin) {
        continue;
      }
      // Track the minimum candidate length per peer, then tiebreak among
      // candidates at that length.
      if (path_len[q] > len + 1 || route_class[q] == RouteClass::kNone) {
        if (route_class[q] != RouteClass::kPeer || path_len[q] > len + 1) {
          route_class[q] = RouteClass::kPeer;
          path_len[q] = len + 1;
          candidates[q] = CandidateSet{};
          peer_candidates_order.emplace_back(len + 1, q);
        }
      }
      if (route_class[q] == RouteClass::kPeer && path_len[q] == len + 1) {
        candidates[q].offer(via, tiebreak(peer_asn, via, dest_asn));
      }
    }
  }
  for (const auto& [len, q] : peer_candidates_order) {
    if (route_class[q] == RouteClass::kPeer && path_len[q] == len &&
        candidates[q].best != 0) {
      choose(q, candidates[q].best, candidates[q].alt);
    }
  }

  // --- Phase 3: routes advertised "down" to customers (provider routes),
  // propagating through customer chains in path-length order. ---
  // A path visits each AS at most once, so every length is at most n - 1
  // and fits path_len's 16 bits beside kUnreachableLen; the bound and the
  // loop below count in size_t so they cannot wrap at the width limit.
  const std::size_t max_len = n + 2;
  std::vector<std::vector<std::pair<AsIndex, Asn>>> buckets(max_len + 2);
  auto seed_customers = [&](AsIndex u) {
    const std::size_t len = path_len[u];
    if (len + 1 > max_len) return;
    const Asn via = topo_.as_at(u).asn;
    for (Asn customer_asn : topo_.as_at(u).customers) {
      if (suppressed(u, customer_asn)) continue;
      const AsIndex c = topo_.index_of(customer_asn);
      if (route_class[c] >= RouteClass::kPeer) continue;
      buckets[len + 1].emplace_back(c, via);
    }
  };
  for (AsIndex u = 0; u < n; ++u) {
    if (route_class[u] >= RouteClass::kPeer) seed_customers(u);
  }
  for (std::size_t len = 1; len <= max_len; ++len) {
    auto& bucket = buckets[len];
    // First pass: collect candidates for not-yet-finalized ASes.
    std::vector<AsIndex> touched;
    for (const auto& [c, via] : bucket) {
      if (route_class[c] != RouteClass::kNone) continue;
      if (candidates[c].best == 0) touched.push_back(c);
      candidates[c].offer(via,
                          tiebreak(topo_.as_at(c).asn, via, dest_asn));
    }
    // Second pass: finalize and cascade to their customers.
    for (AsIndex c : touched) {
      if (route_class[c] != RouteClass::kNone) continue;
      route_class[c] = RouteClass::kProvider;
      path_len[c] = static_cast<std::uint16_t>(len);
      choose(c, candidates[c].best, candidates[c].alt);
      candidates[c] = CandidateSet{};
      seed_customers(c);
    }
    bucket.clear();
  }
  return path_len;
}

}  // namespace revtr::routing
