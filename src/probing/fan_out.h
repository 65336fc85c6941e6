// Offline measurement fanned out over private probers (DESIGN.md §8).
//
// Start-up work sends thousands of offline probes whose replies do not
// depend on one another: the ingress survey's RR pings and the atlas's
// traceroutes and Q2 RR pings. An RR ping's path is a pure function of the
// salt seed and its endpoints, and a traceroute's flow id a function of its
// endpoints, never of the packet ids a prober drew before them. So a
// private copy of a prober's Network (same topology, plane and salt seed)
// gets the replies that prober would, and a list of such measurements can
// run on one copy per thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "probing/prober.h"
#include "sim/network.h"
#include "util/fan_out.h"

namespace revtr::probing {

// Runs `measure(i, prober)` for every item i in [0, count) inside an
// OfflineScope, on up to `threads` threads, and `commit(i, result)` with
// each result in item order on the calling thread (util::ordered_fan_out).
// Each thread probes through its own Prober over a private copy of
// `owner`'s network, sharing `owner`'s metrics handle. At the join those
// probers are absorbed into `owner` (Prober::absorb), whose counters and
// packet-id sequence then read as if it had sent every probe itself;
// `owner`'s network does not count the fanned-out packets.
//
// Serial rule: when the outcome depends on the order probes hit the wire
// (`owner`'s network drops packets, from one loss stream per Network, or an
// observer or fault policy watches `owner` probe by probe), and for one
// thread or one item, every item is measured on `owner` itself and
// committed before the next is measured, on the calling thread.
//
// The caller owns `owner` for the call: nothing else may probe through it,
// or change its network, until the fan-out returns.
template <typename Measure, typename Commit>
void offline_fan_out(Prober& owner, std::size_t count, std::size_t threads,
                     Measure&& measure, Commit&& commit) {
  const bool wire_order =
      owner.network().loss_rate() > 0.0 || owner.observed();
  const std::size_t lanes = wire_order ? 1 : std::min(threads, count);
  if (lanes <= 1) {
    const Prober::OfflineScope offline(owner);
    for (std::size_t i = 0; i < count; ++i) commit(i, measure(i, owner));
    return;
  }
  // Whole cache lines per lane: the lanes are allocated back to back and
  // probe on different threads, so one lane's reply scratch must not share
  // a line with the next lane's network.
  struct alignas(64) Lane {
    sim::Network network;
    Prober prober;

    Lane(const sim::Network& owner_network, const ProbeMetrics* metrics)
        : network(owner_network), prober(network) {
      prober.set_metrics(metrics);
    }
  };
  std::vector<std::unique_ptr<Lane>> probers;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    probers.push_back(
        std::make_unique<Lane>(owner.network(), owner.metrics()));
  }
  util::ordered_fan_out(
      lanes, count,
      [&](std::size_t lane, std::size_t i) {
        Prober& prober = probers[lane]->prober;
        const Prober::OfflineScope offline(prober);
        return measure(i, prober);
      },
      commit);
  for (const auto& lane : probers) owner.absorb(lane->prober);
}

}  // namespace revtr::probing
