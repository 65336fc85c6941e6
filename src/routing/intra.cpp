#include "routing/intra.h"

#include <limits>
#include <queue>

namespace revtr::routing {

namespace {
constexpr std::uint16_t kUnreachable = std::numeric_limits<std::uint16_t>::max();
}

IntraRouting::IntraRouting(const topology::Topology& topo)
    : topo_(topo),
      local_index_(topo.num_routers(), 0),
      matrices_(topo.num_ases()) {
  for (const auto& node : topo_.ases()) {
    for (std::size_t i = 0; i < node.routers.size(); ++i) {
      local_index_[node.routers[i]] = static_cast<std::uint32_t>(i);
    }
  }
}

const IntraRouting::AsMatrix& IntraRouting::matrix(
    topology::AsIndex as) const {
  return matrices_.get(as, [&](AsMatrix& m) { compute(as, m); });
}

void IntraRouting::build_all(std::size_t threads) const {
  matrices_.fill_all(
      threads,
      // compute() assigns n * n entries to both vectors.
      [this](std::size_t as, AsMatrix& m) {
        const std::size_t n =
            topo_.as_at(static_cast<topology::AsIndex>(as)).routers.size();
        m.hops.reserve(n * n);
        m.dist.reserve(n * n);
      },
      [this](std::size_t as, AsMatrix& m) {
        compute(static_cast<topology::AsIndex>(as), m);
      });
}

void IntraRouting::compute(topology::AsIndex as, AsMatrix& m) const {
  const auto& routers = topo_.as_at(as).routers;
  const std::size_t n = routers.size();
  m.size = n;
  m.hops.assign(n * n, NextHops{});
  m.dist.assign(n * n, kUnreachable);

  // Dijkstra from every destination `to` with lexicographic cost
  // (hop count, accumulated delay). Link delays are distinct with high
  // probability, so the optimal path between two routers is unique — and
  // an undirected unique shortest path is traversed symmetrically, which is
  // what makes intradomain symmetry assumptions safe (§4.4, Table 2).
  // Equal-hop non-optimal neighbors are kept as the ECMP alternate that
  // per-packet load balancers and source-sensitive routers may use.
  struct Cost {
    std::uint16_t hops = kUnreachable;
    std::int64_t delay = 0;

    bool operator<(const Cost& other) const noexcept {
      return hops != other.hops ? hops < other.hops : delay < other.delay;
    }
    bool operator==(const Cost& other) const noexcept {
      return hops == other.hops && delay == other.delay;
    }
  };

  std::vector<Cost> dist(n);
  for (std::size_t to = 0; to < n; ++to) {
    std::fill(dist.begin(), dist.end(), Cost{});
    dist[to] = Cost{0, 0};
    std::vector<bool> done(n, false);
    for (std::size_t round = 0; round < n; ++round) {
      // O(n^2) extraction is fine: ASes have at most a few dozen routers.
      std::size_t u = n;
      for (std::size_t c = 0; c < n; ++c) {
        if (!done[c] && dist[c].hops != kUnreachable &&
            (u == n || dist[c] < dist[u])) {
          u = c;
        }
      }
      if (u == n) break;
      done[u] = true;
      for (topology::LinkId link_id : topo_.router(routers[u]).links) {
        const auto& link = topo_.link(link_id);
        if (link.interdomain) continue;
        const std::size_t v =
            local_index_[topo_.far_end(routers[u], link_id)];
        const Cost via{static_cast<std::uint16_t>(dist[u].hops + 1),
                       dist[u].delay + link.delay_us};
        if (via < dist[v]) dist[v] = via;
      }
    }
    for (std::size_t from = 0; from < n; ++from) {
      m.dist[from * n + to] = dist[from].hops;
      if (from == to || dist[from].hops == kUnreachable) continue;
      NextHops& hops = m.hops[from * n + to];
      for (topology::LinkId link_id : topo_.router(routers[from]).links) {
        const auto& link = topo_.link(link_id);
        if (link.interdomain) continue;
        const std::size_t v =
            local_index_[topo_.far_end(routers[from], link_id)];
        const Cost via{static_cast<std::uint16_t>(dist[v].hops + 1),
                       dist[v].delay + link.delay_us};
        if (via == dist[from] && hops.primary == topology::kInvalidId) {
          hops.primary = link_id;
        } else if (dist[v].hops + 1 == dist[from].hops &&
                   hops.alternate == topology::kInvalidId &&
                   link_id != hops.primary) {
          hops.alternate = link_id;
        }
      }
      // Guard against an alternate recorded before the primary was seen.
      if (hops.alternate == hops.primary) {
        hops.alternate = topology::kInvalidId;
      }
    }
  }
}

IntraRouting::NextHops IntraRouting::next_hops(topology::RouterId from,
                                               topology::RouterId to) const {
  const auto& from_router = topo_.router(from);
  const auto& to_router = topo_.router(to);
  if (from_router.asn != to_router.asn) return NextHops{};
  const AsMatrix& m = matrix(from_router.as_index);
  return m.hops[local_index_[from] * m.size + local_index_[to]];
}

std::uint16_t IntraRouting::distance(topology::RouterId from,
                                     topology::RouterId to) const {
  const auto& from_router = topo_.router(from);
  const auto& to_router = topo_.router(to);
  if (from_router.asn != to_router.asn) return kUnreachable;
  const AsMatrix& m = matrix(from_router.as_index);
  return m.dist[local_index_[from] * m.size + local_index_[to]];
}

}  // namespace revtr::routing
