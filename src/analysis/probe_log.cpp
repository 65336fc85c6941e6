#include "analysis/probe_log.h"

namespace revtr::analysis {

probing::ProbeCounters ProbeLog::tally(
    std::span<const probing::ProbeEvent> events, bool offline) {
  probing::ProbeCounters counters;
  for (const auto& event : events) {
    if (event.offline != offline) continue;
    counters.add(event.type, event.packets);
    if (event.type == probing::ProbeType::kTraceroute) ++counters.traceroutes;
  }
  return counters;
}

}  // namespace revtr::analysis
