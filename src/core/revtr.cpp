#include "core/revtr.h"

#include "core/request_task.h"
#include "sched/scheduler.h"

namespace revtr::core {

namespace {
using net::Ipv4Addr;
using topology::HostId;
}  // namespace

std::string to_string(HopSource source) {
  switch (source) {
    case HopSource::kDestination:
      return "destination";
    case HopSource::kRecordRoute:
      return "rr";
    case HopSource::kSpoofedRecordRoute:
      return "spoofed-rr";
    case HopSource::kTimestamp:
      return "timestamp";
    case HopSource::kAtlasIntersection:
      return "atlas";
    case HopSource::kAssumedSymmetric:
      return "assumed-symmetric";
    case HopSource::kSuspiciousGap:
      return "*";
  }
  return "?";
}

std::string to_string(RevtrStatus status) {
  switch (status) {
    case RevtrStatus::kComplete:
      return "complete";
    case RevtrStatus::kAbortedInterdomainSymmetry:
      return "aborted-interdomain";
    case RevtrStatus::kUnreachable:
      return "unreachable";
  }
  return "?";
}

std::vector<Ipv4Addr> ReverseTraceroute::ip_hops() const {
  const auto addr_col = hops.addrs();
  const auto source_col = hops.sources();
  std::vector<Ipv4Addr> addrs;
  addrs.reserve(addr_col.size());
  for (std::size_t i = 0; i < addr_col.size(); ++i) {
    if (source_col[i] != HopSource::kSuspiciousGap) {
      addrs.push_back(addr_col[i]);
    }
  }
  return addrs;
}

EngineConfig EngineConfig::revtr1() {
  EngineConfig config;
  config.use_ingress_selection = false;
  config.use_cache = false;
  config.use_timestamp = true;
  config.use_rr_atlas = false;
  config.allow_interdomain_symmetry = true;
  config.assume_from_unreachable_traceroute = true;
  config.flag_suspicious_links = false;
  config.use_last_hop_traces = false;
  return config;
}

EngineConfig EngineConfig::revtr2() { return EngineConfig{}; }

std::string EngineConfig::name() const {
  std::string name = use_ingress_selection ? "ingress" : "setcover";
  name += use_cache ? "+cache" : "";
  name += use_timestamp ? "+ts" : "";
  name += use_rr_atlas ? "+rratlas" : "";
  name += allow_interdomain_symmetry ? "+interdomain" : "";
  name += use_last_hop_traces ? "+lasthop" : "";
  return name;
}

EngineMetrics::EngineMetrics(obs::MetricsRegistry& registry) {
  const auto status = [&registry](const char* value) {
    return &registry.counter(std::string("revtr_requests_total{status=\"") +
                             value + "\"}");
  };
  requests_complete = status("complete");
  requests_aborted = status("aborted-interdomain");
  requests_unreachable = status("unreachable");

  const auto stage = [&registry](const char* name, const char* outcome) {
    return &registry.counter(std::string("revtr_engine_stage_total{stage=\"") +
                             name + "\",outcome=\"" + outcome + "\"}");
  };
  atlas_hit = stage("atlas", "hit");
  atlas_miss = stage("atlas", "miss");
  rr_cache_replay = stage("rr", "cache-replay");
  rr_direct_hit = stage("rr", "direct-hit");
  rr_spoofed_hit = stage("rr", "spoofed-hit");
  rr_miss = stage("rr", "miss");
  rr_ingress_discovery = stage("rr", "ingress-discovery");
  ts_hit = stage("ts", "hit");
  ts_miss = stage("ts", "miss");
  ts_skipped = stage("ts", "skipped");
  symmetry_cached = stage("symmetry", "cached");
  symmetry_extended = stage("symmetry", "extended");
  symmetry_aborted = stage("symmetry", "aborted");
  symmetry_stuck = stage("symmetry", "stuck");

  dbr_suspects = &registry.counter("revtr_dbr_suspects_total");

  latency_us = &registry.histogram("revtr_request_latency_us");
  request_probes = &registry.histogram("revtr_request_probes");
  request_hops = &registry.histogram("revtr_request_hops");
  spoofed_batches = &registry.histogram("revtr_request_spoofed_batches");
}

RevtrEngine::RevtrEngine(probing::Prober& prober,
                         const topology::Topology& topo,
                         atlas::TracerouteAtlas& atlas,
                         vpselect::IngressDiscovery& ingress,
                         const asmap::IpToAs& ip2as,
                         const asmap::AsRelationships& relationships,
                         EngineConfig config, std::uint64_t seed)
    : prober_(prober),
      topo_(topo),
      atlas_(atlas),
      ingress_(ingress),
      ip2as_(ip2as),
      relationships_(relationships),
      config_(config),
      rng_(seed),
      caches_(std::make_shared<EngineCaches>()) {
  REVTR_CHECK(!(config_.use_last_hop_traces &&
                config_.assume_from_unreachable_traceroute));
}

void RevtrEngine::clear_caches() { caches_->clear(); }

std::vector<Ipv4Addr> RevtrEngine::extract_reverse_hops(
    std::span<const Ipv4Addr> slots, Ipv4Addr current) {
  // The reverse hops are the slots recorded after the probed hop stamped
  // itself on the way back to the (spoofed) source.
  for (std::size_t i = slots.size(); i-- > 0;) {
    if (slots[i] == current) {
      return {slots.begin() + static_cast<long>(i) + 1, slots.end()};
    }
  }
  // Destination stamped an alias twice (Appx C double-stamp).
  for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
    if (slots[i] == slots[i + 1]) {
      return {slots.begin() + static_cast<long>(i) + 2, slots.end()};
    }
  }
  // Loop a ... a: everything after the second `a` is on the reverse path.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 2; j < slots.size(); ++j) {
      if (slots[i] == slots[j]) {
        return {slots.begin() + static_cast<long>(j) + 1, slots.end()};
      }
    }
  }
  return {};
}

ReverseTraceroute RevtrEngine::measure(HostId destination, HostId source,
                                       util::SimClock& clock) {
  // Blocking executor over the staged machine (core/request_task.h): drive
  // the same RequestTask the async scheduler drives, fulfilling each demand
  // set inline and in demand order. sched::execute_demand is the single
  // probe-issuing funnel (revtr_lint forbids direct Prober probe calls in
  // src/core/), so blocking behaviour is staged behaviour with a trivial
  // scheduler — the equivalence the concurrency tests pin is by
  // construction, not by parallel maintenance of two code paths.
  RequestTask task(*this, destination, source, clock, rng_, trace_);
  std::vector<sched::ProbeOutcome> outcomes;
  while (!task.done()) {
    const auto demands = task.advance();
    if (task.done()) break;
    outcomes.clear();
    outcomes.reserve(demands.size());
    for (const auto& demand : demands) {
      outcomes.push_back(sched::execute_demand(prober_, demand));
    }
    task.supply(outcomes);
  }
  return task.take_result();
}

}  // namespace revtr::core
