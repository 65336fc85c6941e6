#include "vpselect/ingress.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "probing/fan_out.h"

namespace revtr::vpselect {

namespace {
using net::Ipv4Addr;
using topology::HostId;
using topology::PrefixId;

// Hitlist destinations the survey probes per prefix.
constexpr std::size_t kDestinationsPerPrefix = 2;
}  // namespace

ReachAnalysis analyze_reach(std::span<const Ipv4Addr> slots,
                            const net::Ipv4Prefix& prefix,
                            bool enable_double_stamp, bool enable_loop) {
  ReachAnalysis analysis;

  // Direct: first slot inside the destination prefix.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (prefix.contains(slots[i])) {
      analysis.reach_slot = static_cast<int>(i);
      analysis.via = ReachAnalysis::Via::kDirect;
      analysis.candidates.assign(slots.begin(),
                                 slots.begin() + static_cast<long>(i) + 1);
      return analysis;
    }
  }

  // Double stamp: equal adjacent slots without the destination appearing —
  // either an alias of the destination or the penultimate hop seen on both
  // directions. Either way, treat it as the reach point (Appx C).
  if (enable_double_stamp) {
    for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
      if (slots[i] == slots[i + 1]) {
        analysis.reach_slot = static_cast<int>(i);
        analysis.via = ReachAnalysis::Via::kDoubleStamp;
        analysis.candidates.assign(slots.begin(),
                                   slots.begin() + static_cast<long>(i) + 1);
        return analysis;
      }
    }
  }

  // Loop: a ... a with a loop-free body in between. The packet reached the
  // destination somewhere inside the body; every address up to the second
  // `a` is a potential forward-path hop, hence an ingress candidate.
  if (enable_loop) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      for (std::size_t j = i + 2; j < slots.size(); ++j) {
        if (slots[i] == slots[j]) {
          analysis.reach_slot = static_cast<int>(i) + 1;
          analysis.via = ReachAnalysis::Via::kLoop;
          for (std::size_t k = 0; k < j; ++k) {
            if (std::find(analysis.candidates.begin(),
                          analysis.candidates.end(),
                          slots[k]) == analysis.candidates.end()) {
              analysis.candidates.push_back(slots[k]);
            }
          }
          return analysis;
        }
      }
    }
  }

  return analysis;
}

bool lacks_reach_point(std::span<const Ipv4Addr> record,
                       const net::Ipv4Prefix& prefix,
                       const DiscoveryOptions& options) {
  return analyze_reach(record, prefix, options.enable_double_stamp,
                       options.enable_loop)
             .reach_slot < 0;
}

std::vector<VpDistance> PrefixPlan::fallback_ranking() const {
  std::vector<VpDistance> ranking;
  for (const auto& info : vp_info) {
    if (!info.in_range()) continue;
    const double mean = info.mean_distance();
    if (mean > 8.0) continue;  // Out of useful RR range.
    ranking.push_back(VpDistance{info.vp, static_cast<int>(mean + 0.5)});
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const VpDistance& a, const VpDistance& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.vp < b.vp;
            });
  return ranking;
}

IngressMetrics::IngressMetrics(obs::MetricsRegistry& registry) {
  surveys = &registry.counter("revtr_ingress_surveys_total");
  plans = &registry.gauge("revtr_ingress_plans");
  prefixes_covered = &registry.counter("revtr_ingress_prefixes_covered_total");
}

IngressDiscovery::IngressDiscovery(probing::Prober& prober,
                                   const topology::Topology& topo,
                                   Options options)
    : prober_(prober), topo_(topo), options_(options) {}

std::shared_ptr<const PrefixPlan> IngressDiscovery::plan_for(
    PrefixId prefix) const {
  const util::SharedLock lock(mu_);
  const auto it = plans_.find(prefix);
  return it == plans_.end() ? nullptr : it->second;
}

struct IngressDiscovery::Survey {
  // One VP with ingress candidates on every responding path.
  struct Reached {
    HostId vp;
    std::vector<Ipv4Addr> candidates;  // Intersection across destinations.
    std::vector<Ipv4Addr> slots_d1;    // For candidate distances.
  };

  PrefixId prefix = topology::kInvalidId;
  std::vector<PrefixPlan::VpInfo> vp_info;  // One per VP, in VP order.
  std::vector<Reached> reached;
  // The set cover's index: a (candidate, index into `reached`) pair for
  // every candidate of every reached VP, sorted by address, then index.
  std::vector<std::pair<Ipv4Addr, std::uint32_t>> covering;
};

IngressDiscovery::Survey IngressDiscovery::probe(
    PrefixId prefix, std::span<const HostId> vps,
    std::span<const HostId> exclude, probing::Prober& prober) const {
  Survey survey;
  survey.prefix = prefix;

  // Pick survey destinations: ping-responsive hosts of the prefix (the
  // hitlist view), excluding any caller-reserved hosts. Infrastructure
  // prefixes have no hosts; there the hitlist entries are responsive router
  // interfaces.
  std::vector<Ipv4Addr> dests;
  for (const HostId host_id : topo_.hosts_in_prefix(prefix)) {
    if (std::find(exclude.begin(), exclude.end(), host_id) != exclude.end()) {
      continue;
    }
    const auto& host = topo_.host(host_id);
    if (!host.ping_responsive) continue;
    dests.push_back(host.addr);
    if (dests.size() == kDestinationsPerPrefix) break;
  }
  if (dests.size() < kDestinationsPerPrefix) {
    for (const auto addr : topo_.addresses_in_prefix(prefix, 32)) {
      if (dests.size() >= kDestinationsPerPrefix) break;
      if (std::find(dests.begin(), dests.end(), addr) != dests.end()) {
        continue;
      }
      const auto owner = topo_.interface_at(addr);
      if (!owner || !topo_.router(owner->router).responds_ping) continue;
      dests.push_back(addr);
    }
  }
  if (dests.empty()) return survey;

  const net::Ipv4Prefix& bgp_prefix = topo_.prefix(prefix).prefix;
  // The survey keeps nothing from a full record without a reach point, so
  // such a probe may stop where its record fills (DESIGN.md §8).
  const sim::RrSettle settle = [&](std::span<const Ipv4Addr> record) {
    return lacks_reach_point(record, bgp_prefix, options_);
  };

  // Probe every VP toward each destination; collect reach + candidates.
  for (const HostId vp : vps) {
    PrefixPlan::VpInfo info;
    info.vp = vp;
    std::vector<std::vector<Ipv4Addr>> candidate_sets;
    std::vector<Ipv4Addr> first_slots;
    for (std::size_t d = 0; d < dests.size(); ++d) {
      const auto result = prober.rr_ping(vp, dests[d], std::nullopt, &settle);
      if (!result.responded) continue;
      const auto analysis =
          analyze_reach(result.slots, bgp_prefix,
                        options_.enable_double_stamp, options_.enable_loop);
      if (analysis.reach_slot < 0) continue;
      const int distance = analysis.reach_slot + 1;
      if (d == 0) {
        info.dist_d1 = distance;
        first_slots = result.slots;
      } else {
        info.dist_d2 = distance;
      }
      candidate_sets.push_back(analysis.candidates);
    }
    survey.vp_info.push_back(info);
    if (candidate_sets.empty()) continue;

    // Ingress candidates must appear on every responding path.
    std::vector<Ipv4Addr> common = candidate_sets.front();
    for (std::size_t s = 1; s < candidate_sets.size(); ++s) {
      std::vector<Ipv4Addr> next;
      for (const auto addr : common) {
        if (std::find(candidate_sets[s].begin(), candidate_sets[s].end(),
                      addr) != candidate_sets[s].end()) {
          next.push_back(addr);
        }
      }
      common = std::move(next);
    }
    if (!common.empty()) {
      survey.reached.push_back(
          Survey::Reached{vp, std::move(common), std::move(first_slots)});
    }
  }

  // Built here, on the probe lane, so the serial commit runs only the
  // greedy loop. A candidate listed twice for one VP keeps both pairs: the
  // cover counts it twice.
  for (std::size_t s = 0; s < survey.reached.size(); ++s) {
    for (const auto addr : survey.reached[s].candidates) {
      survey.covering.emplace_back(addr, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(survey.covering.begin(), survey.covering.end());
  return survey;
}

std::shared_ptr<const PrefixPlan> IngressDiscovery::commit_locked(
    Survey survey, util::Rng& rng) {
  // Built fresh and swapped in, never rebuilt in place: holders of the old
  // snapshot keep a consistent plan across a re-discovery.
  const auto snapshot = std::make_shared<PrefixPlan>();
  PrefixPlan& plan = *snapshot;
  plan.prefix = survey.prefix;
  plan.vp_info = std::move(survey.vp_info);
  const std::vector<Survey::Reached>& surveys = survey.reached;

  // Greedy set cover: ingress candidates covering the most uncovered VPs
  // win; ties break randomly (§4.3), drawn over the tied addresses in
  // ascending order. Each address is a run of `covering`.
  const auto& covering = survey.covering;
  const auto in_run = [&covering](std::size_t i, Ipv4Addr addr) {
    return i < covering.size() && covering[i].first == addr;
  };
  std::vector<bool> covered(surveys.size(), false);
  std::size_t remaining = surveys.size();
  std::vector<std::size_t> best_runs;  // Where each tied address starts.
  while (remaining > 0) {
    best_runs.clear();
    std::size_t best_count = 0;
    for (std::size_t run = 0, end = 0; run < covering.size(); run = end) {
      std::size_t count = 0;
      for (end = run; in_run(end, covering[run].first); ++end) {
        count += !covered[covering[end].second];
      }
      if (count > best_count) {
        best_count = count;
        best_runs.assign(1, run);
      } else if (count == best_count && count > 0) {
        best_runs.push_back(run);
      }
    }
    if (best_count == 0) break;
    const std::size_t chosen_run = best_runs[rng.below(best_runs.size())];
    const Ipv4Addr chosen = covering[chosen_run].first;

    Ingress ingress;
    ingress.addr = chosen;
    for (std::size_t i = chosen_run; in_run(i, chosen); ++i) {
      const std::size_t s = covering[i].second;
      if (covered[s]) continue;
      covered[s] = true;
      --remaining;
      // Distance of this VP to the ingress: position in its observed path.
      const auto& slots = surveys[s].slots_d1;
      const auto it = std::find(slots.begin(), slots.end(), chosen);
      const int distance =
          it == slots.end() ? 9 : static_cast<int>(it - slots.begin()) + 1;
      ingress.vps.push_back(VpDistance{surveys[s].vp, distance});
    }
    std::sort(ingress.vps.begin(), ingress.vps.end(),
              [](const VpDistance& a, const VpDistance& b) {
                return a.distance != b.distance ? a.distance < b.distance
                                                : a.vp < b.vp;
              });
    plan.ingresses.push_back(std::move(ingress));
  }

  // Greedy picks in decreasing coverage already; keep that order stable.
  std::stable_sort(plan.ingresses.begin(), plan.ingresses.end(),
                   [](const Ingress& a, const Ingress& b) {
                     return a.vps.size() > b.vps.size();
                   });

  plans_[plan.prefix] = snapshot;
  if (const IngressMetrics* metrics = metrics_.load(std::memory_order_acquire);
      metrics != nullptr) {
    metrics->surveys->add();
    metrics->plans->set(static_cast<std::int64_t>(plans_.size()));
    if (plan.has_ingresses()) metrics->prefixes_covered->add();
  }
  return snapshot;
}

std::shared_ptr<const PrefixPlan> IngressDiscovery::discover(
    PrefixId prefix, std::span<const HostId> vps, util::Rng& rng,
    std::span<const HostId> exclude, probing::ProbeCounters* offline) {
  // Surveys go through the shared control-plane prober, so serializing the
  // whole survey (not just the map insert) is required for correctness, not
  // merely convenience.
  const util::ExclusiveLock lock(mu_);
  // The survey is offline measurement (Q3): its probes must never appear in
  // a request's online budget, whichever caller triggers it.
  const probing::Prober::OfflineScope scope(prober_);
  const probing::ProbeCounters before = prober_.offline_counters();
  auto plan = commit_locked(probe(prefix, vps, exclude, prober_), rng);
  if (offline != nullptr) *offline = prober_.offline_counters() - before;
  return plan;
}

void IngressDiscovery::discover_all(std::span<const PrefixId> prefixes,
                                    std::span<const HostId> vps,
                                    util::Rng& rng, std::size_t threads) {
  // A survey of many prefixes crosses every routing table: build them all
  // first, each slot on one thread, so the lanes never build cold slots.
  if (prefixes.size() > 1) prober_.network().plane().build_all(threads);
  probing::offline_fan_out(
      prober_, prefixes.size(), threads,
      [&](std::size_t i, probing::Prober& prober) {
        return probe(prefixes[i], vps, {}, prober);
      },
      [&](std::size_t /*i*/, Survey survey) {
        const util::ExclusiveLock lock(mu_);
        commit_locked(std::move(survey), rng);
      });
}

std::vector<Attempt> attempt_plan(const PrefixPlan& plan,
                                  std::size_t max_per_ingress) {
  std::vector<Attempt> attempts;
  if (plan.has_ingresses()) {
    // Round-robin over ingresses: first the closest VP of each ingress (in
    // coverage order), then the backups.
    for (std::size_t round = 0; round < max_per_ingress; ++round) {
      for (std::size_t rank = 0; rank < plan.ingresses.size(); ++rank) {
        const auto& ingress = plan.ingresses[rank];
        if (round >= ingress.vps.size()) continue;
        attempts.push_back(
            Attempt{ingress.vps[round].vp, ingress.addr, rank});
      }
    }
    return attempts;
  }
  const auto ranking = plan.fallback_ranking();
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    attempts.push_back(Attempt{ranking[i].vp, Ipv4Addr{}, i});
  }
  return attempts;
}

std::vector<HostId> revtr1_vp_order(const PrefixPlan& plan) {
  // The 2010 system's per-prefix set cover: order by the number of
  // surveyed destinations each VP can reach. It optimizes coverage, not
  // proximity — it does not know which in-range VP is *closest*, which is
  // exactly the weakness Fig 6b exposes.
  std::vector<PrefixPlan::VpInfo> infos = plan.vp_info;
  std::sort(infos.begin(), infos.end(),
            [](const PrefixPlan::VpInfo& a, const PrefixPlan::VpInfo& b) {
              const int ra = (a.dist_d1 >= 0) + (a.dist_d2 >= 0);
              const int rb = (b.dist_d1 >= 0) + (b.dist_d2 >= 0);
              if (ra != rb) return ra > rb;
              return a.vp < b.vp;
            });
  std::vector<HostId> order;
  order.reserve(infos.size());
  for (const auto& info : infos) order.push_back(info.vp);
  return order;
}

std::vector<HostId> global_vp_order(
    std::span<const PrefixPlan* const> plans) {
  std::map<HostId, std::size_t> coverage;
  for (const PrefixPlan* plan : plans) {
    if (plan == nullptr) continue;
    for (const auto& info : plan->vp_info) {
      coverage.try_emplace(info.vp, 0);
      if (info.in_range()) ++coverage[info.vp];
    }
  }
  std::vector<std::pair<HostId, std::size_t>> ranked(coverage.begin(),
                                                     coverage.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<HostId> order;
  order.reserve(ranked.size());
  for (const auto& [vp, count] : ranked) order.push_back(vp);
  return order;
}

std::optional<VpDistance> optimal_vp(const PrefixPlan& plan) {
  std::optional<VpDistance> best;
  for (const auto& info : plan.vp_info) {
    if (!info.in_range()) continue;
    const int distance = static_cast<int>(info.mean_distance() + 0.5);
    if (!best || distance < best->distance) {
      best = VpDistance{info.vp, distance};
    }
  }
  return best;
}

}  // namespace revtr::vpselect
