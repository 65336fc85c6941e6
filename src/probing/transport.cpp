#include "probing/transport.h"

#include <utility>

namespace revtr::probing {

ProbeReply execute_spec(Prober& prober, const ProbeSpec& spec) {
  ProbeReply reply;
  switch (spec.type) {
    case ProbeType::kPing: {
      const auto result = prober.ping(spec.from, spec.target);
      reply.responded = result.responded;
      reply.duration_us = result.duration_us;
      reply.packets = 1;
      break;
    }
    case ProbeType::kRecordRoute:
    case ProbeType::kSpoofedRecordRoute: {
      auto result = prober.rr_ping(spec.from, spec.target, spec.spoof_as);
      reply.responded = result.responded;
      reply.slots = std::move(result.slots);
      reply.duration_us = result.duration_us;
      reply.packets = 1;
      break;
    }
    case ProbeType::kTimestamp:
    case ProbeType::kSpoofedTimestamp: {
      auto result =
          prober.ts_ping(spec.from, spec.target, spec.prespec, spec.spoof_as);
      reply.responded = result.responded;
      reply.stamped = std::move(result.stamped);
      reply.duration_us = result.duration_us;
      reply.packets = 1;
      break;
    }
    case ProbeType::kTraceroute: {
      auto result = spec.trace_scope == TraceScope::kLastHop
                        ? prober.last_hop_scan(spec.from, spec.target)
                        : prober.traceroute(spec.from, spec.target);
      reply.responded = result.reached;
      reply.duration_us = result.duration_us;
      reply.packets = result.packets;
      reply.traceroute = std::move(result);
      break;
    }
  }
  return reply;
}

}  // namespace revtr::probing
