#include "probing/prober.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace revtr::probing {

namespace {
using net::Ipv4Addr;
using net::Packet;

// Counter merges happen at the parallel-campaign barrier after billions of
// simulated packets; a silent wrap there would corrupt every Table 4 row
// downstream, so the merge is overflow-checked rather than trusted.
std::uint64_t checked_add(std::uint64_t a, std::uint64_t b) {
  REVTR_CHECK(a <= std::numeric_limits<std::uint64_t>::max() - b);
  return a + b;
}

// Window deltas (`after - before`) must never go negative: `before` is a
// snapshot of the same monotonically increasing counters.
std::uint64_t checked_sub(std::uint64_t a, std::uint64_t b) {
  REVTR_CHECK(a >= b);
  return a - b;
}
}  // namespace

std::string to_string(ProbeType type) {
  switch (type) {
    case ProbeType::kPing:
      return "ping";
    case ProbeType::kRecordRoute:
      return "rr";
    case ProbeType::kSpoofedRecordRoute:
      return "spoof-rr";
    case ProbeType::kTimestamp:
      return "ts";
    case ProbeType::kSpoofedTimestamp:
      return "spoof-ts";
    case ProbeType::kTraceroute:
      return "traceroute";
  }
  return "?";
}

ProbeMetrics::ProbeMetrics(obs::MetricsRegistry& registry) {
  for (std::size_t t = 0; t < probes.size(); ++t) {
    const auto type_name = to_string(static_cast<ProbeType>(t));
    probes[t][0] = &registry.counter("revtr_probes_total{scope=\"online\",type=\"" +
                                     type_name + "\"}");
    probes[t][1] = &registry.counter(
        "revtr_probes_total{scope=\"offline\",type=\"" + type_name + "\"}");
  }
  traceroutes[0] =
      &registry.counter("revtr_traceroutes_total{scope=\"online\"}");
  traceroutes[1] =
      &registry.counter("revtr_traceroutes_total{scope=\"offline\"}");
  settled = &registry.counter("revtr_probes_settled_total{scope=\"offline\"}");
}

void ProbeCounters::add(ProbeType type, std::uint64_t packets) noexcept {
  switch (type) {
    case ProbeType::kPing:
      ping += packets;
      break;
    case ProbeType::kRecordRoute:
      rr += packets;
      break;
    case ProbeType::kSpoofedRecordRoute:
      spoofed_rr += packets;
      break;
    case ProbeType::kTimestamp:
      ts += packets;
      break;
    case ProbeType::kSpoofedTimestamp:
      spoofed_ts += packets;
      break;
    case ProbeType::kTraceroute:
      traceroute_packets += packets;
      break;
  }
}

ProbeCounters& ProbeCounters::operator+=(const ProbeCounters& other) {
  ping = checked_add(ping, other.ping);
  rr = checked_add(rr, other.rr);
  spoofed_rr = checked_add(spoofed_rr, other.spoofed_rr);
  ts = checked_add(ts, other.ts);
  spoofed_ts = checked_add(spoofed_ts, other.spoofed_ts);
  traceroute_packets = checked_add(traceroute_packets,
                                   other.traceroute_packets);
  traceroutes = checked_add(traceroutes, other.traceroutes);
  return *this;
}

ProbeCounters ProbeCounters::operator-(const ProbeCounters& other) const {
  ProbeCounters delta;
  delta.ping = checked_sub(ping, other.ping);
  delta.rr = checked_sub(rr, other.rr);
  delta.spoofed_rr = checked_sub(spoofed_rr, other.spoofed_rr);
  delta.ts = checked_sub(ts, other.ts);
  delta.spoofed_ts = checked_sub(spoofed_ts, other.spoofed_ts);
  delta.traceroute_packets =
      checked_sub(traceroute_packets, other.traceroute_packets);
  delta.traceroutes = checked_sub(traceroutes, other.traceroutes);
  return delta;
}

std::vector<Ipv4Addr> TracerouteResult::responsive_hops() const {
  std::vector<Ipv4Addr> addrs;
  for (const auto& hop : hops) {
    if (hop.addr) addrs.push_back(*hop.addr);
  }
  return addrs;
}

Prober::Prober(sim::Network& network) : network_(network) {}

void Prober::absorb(const Prober& other) {
  counters_ += other.counters_;
  offline_counters_ += other.offline_counters_;
  // Ids wrap at 16 bits, so sequential sends and sends split across probers
  // land on the same next id.
  sequence_ = static_cast<std::uint16_t>(sequence_ + other.sequence_);
}

void Prober::charge(ProbeType type) {
  counters_.add(type, 1);
  if (offline()) offline_counters_.add(type, 1);
  if (metrics_ != nullptr) {
    metrics_->probes[static_cast<std::size_t>(type)][offline() ? 1 : 0]->add();
  }
}

void Prober::charge_traceroute_head() {
  ++counters_.traceroutes;
  if (offline()) ++offline_counters_.traceroutes;
  if (metrics_ != nullptr) {
    metrics_->traceroutes[offline() ? 1 : 0]->add();
  }
}

bool Prober::vetoed(ProbeEvent& event) {
  if (!fault_policy_) return false;
  if (!fault_policy_(event)) return false;
  event.suppressed = true;
  return true;
}

PingResult Prober::ping(topology::HostId from, Ipv4Addr target) {
  charge(ProbeType::kPing);
  ProbeEvent event;
  event.type = ProbeType::kPing;
  event.from = from;
  event.target = target;
  event.offline = offline();
  PingResult out;
  if (vetoed(event)) {
    out.duration_us = kProbeTimeoutUs;
    notify(event);
    return out;
  }
  const auto& sender = topo().host(from);
  Packet probe = net::make_echo_request(sender.addr, target, next_id(), 1);
  network_.send_into(probe, from, reply_);
  out.responded = reply_.answered();
  out.duration_us = out.responded ? reply_.rtt_us : kProbeTimeoutUs;
  event.responded = out.responded;
  notify(event);
  return out;
}

RrProbeResult Prober::rr_ping(topology::HostId from, Ipv4Addr target,
                              std::optional<Ipv4Addr> spoof_as,
                              const sim::RrSettle* settle) {
  charge(spoof_as ? ProbeType::kSpoofedRecordRoute : ProbeType::kRecordRoute);
  ProbeEvent event;
  event.type =
      spoof_as ? ProbeType::kSpoofedRecordRoute : ProbeType::kRecordRoute;
  event.from = from;
  event.target = target;
  event.spoof_as = spoof_as;
  event.offline = offline();
  RrProbeResult out;
  if (vetoed(event)) {
    out.duration_us = kProbeTimeoutUs;
    notify(event);
    return out;
  }
  const auto& sender = topo().host(from);
  const Ipv4Addr src = spoof_as.value_or(sender.addr);
  Packet probe = net::make_echo_request(src, target, next_id(), 1);
  probe.rr = net::RecordRouteOption{};
  network_.send_into(probe, from, reply_,
                     offline() && !observed() ? settle : nullptr);
  if (reply_.settled_rr) {
    out.settled = true;
    out.slots = reply_.settled_rr->to_vector();
    if (metrics_ != nullptr) metrics_->settled->add();
    return out;
  }
  out.responded = reply_.answered() && reply_.reply->rr.has_value();
  if (out.responded) {
    out.slots = reply_.reply->rr->to_vector();
    out.duration_us = reply_.rtt_us;
  } else {
    out.duration_us = kProbeTimeoutUs;
  }
  event.responded = out.responded;
  if (observer_ != nullptr) event.slots = out.slots;
  notify(event);
  return out;
}

TsProbeResult Prober::ts_ping(topology::HostId from, Ipv4Addr target,
                              std::span<const Ipv4Addr> prespec,
                              std::optional<Ipv4Addr> spoof_as) {
  charge(spoof_as ? ProbeType::kSpoofedTimestamp : ProbeType::kTimestamp);
  ProbeEvent event;
  event.type = spoof_as ? ProbeType::kSpoofedTimestamp : ProbeType::kTimestamp;
  event.from = from;
  event.target = target;
  event.spoof_as = spoof_as;
  event.offline = offline();
  if (observed()) event.prespec.assign(prespec.begin(), prespec.end());
  TsProbeResult out;
  if (vetoed(event)) {
    out.duration_us = kProbeTimeoutUs;
    notify(event);
    return out;
  }
  const auto& sender = topo().host(from);
  const Ipv4Addr src = spoof_as.value_or(sender.addr);
  Packet probe = net::make_echo_request(src, target, next_id(), 1);
  probe.ts = net::TimestampOption::prespecified(prespec);
  network_.send_into(probe, from, reply_);
  out.responded = reply_.answered() && reply_.reply->ts.has_value();
  if (out.responded) {
    const auto entries = reply_.reply->ts->entries();
    // The reply's option is decoded from attacker-reachable wire bytes: a
    // TS option can never carry more than kMaxEntries slots, so anything
    // larger is a codec bug, not a size to allocate.
    REVTR_CHECK(entries.size() <= net::TimestampOption::kMaxEntries);
    out.stamped.reserve(entries.size());
    for (const auto& entry : entries) out.stamped.push_back(entry.stamped);
    out.duration_us = reply_.rtt_us;
  } else {
    out.duration_us = kProbeTimeoutUs;
  }
  event.responded = out.responded;
  if (observer_ != nullptr) event.stamped = out.stamped;
  notify(event);
  return out;
}

Prober::TtlReply Prober::probe_ttl(topology::HostId from, Ipv4Addr target,
                                   int ttl, TracerouteResult& trace) {
  charge(ProbeType::kTraceroute);
  ++trace.packets;
  const auto& sender = topo().host(from);
  // Paris flow id: constant across TTLs so per-flow load balancers keep the
  // probes on one path, and a pure function of the endpoints so re-tracing a
  // flow takes the *same* path regardless of how many probes any prober sent
  // before — probe outcomes must be content-addressed for the shared caches
  // of a parallel campaign to be transparent (DESIGN.md §8). It is also what
  // lets a last-hop scan's TTL-t probe meet the full trace's TTL-t router.
  const auto flow_id = util::truncate_cast<std::uint16_t>(
      util::mix_hash(sender.addr.value(), target.value(), 0x7aceULL));
  Packet probe = net::make_echo_request(sender.addr, target, flow_id, 7,
                                        static_cast<std::uint8_t>(ttl));
  network_.send_into(probe, from, reply_);
  TtlReply reply;
  if (reply_.answered()) {
    reply.hop.addr = reply_.reply->src;
    reply.hop.rtt_us = reply_.rtt_us;
    reply.echo = reply_.reply->type == net::IcmpType::kEchoReply;
    trace.duration_us += reply_.rtt_us;
  } else {
    trace.duration_us += kProbeTimeoutUs;
  }
  return reply;
}

void Prober::notify_trace(topology::HostId from, Ipv4Addr target,
                          const TracerouteResult& trace) {
  if (observer_ == nullptr) return;
  ProbeEvent event;
  event.type = ProbeType::kTraceroute;
  event.from = from;
  event.target = target;
  event.offline = offline();
  event.packets = trace.packets;
  event.tr_hops = trace.responsive_hops();
  event.responded = !event.tr_hops.empty();
  event.tr_reached = trace.reached;
  notify(event);
}

TracerouteResult Prober::traceroute(topology::HostId from, Ipv4Addr target) {
  charge_traceroute_head();
  TracerouteResult out;
  int silent = 0;
  for (int ttl = 1; ttl <= kMaxTracerouteTtl; ++ttl) {
    const TtlReply reply = probe_ttl(from, target, ttl, out);
    out.hops.push_back(reply.hop);
    if (reply.echo) {
      out.reached = true;
      break;
    }
    silent = reply.hop.addr ? 0 : silent + 1;
    if (silent == kSilentTtlsBeforeGiveUp) break;
  }
  notify_trace(from, target, out);
  return out;
}

TracerouteResult Prober::last_hop_scan(topology::HostId from,
                                       Ipv4Addr target) {
  charge_traceroute_head();
  TracerouteResult out;
  // Replies by TTL: each TTL goes on the wire at most once.
  std::array<std::optional<TtlReply>, kMaxTracerouteTtl + 1> replies{};
  const auto at = [&](int ttl) -> const TtlReply& {
    auto& reply = replies[static_cast<std::size_t>(ttl)];
    if (!reply) reply = probe_ttl(from, target, ttl, out);
    return *reply;
  };
  // Anchors: from the highest TTL known to answer (0 is the source), probe
  // kSilentTtlsBeforeGiveUp TTLs further and step back to the highest TTL
  // that answers. When none does, traceroute() meets a silent run (or its
  // TTL cap) here and gives up without reaching the target.
  int answered = 0;
  int echo = 0;  // Lowest TTL seen drawing the target's echo reply.
  while (echo == 0 && answered < kMaxTracerouteTtl) {
    int ttl = std::min(answered + kSilentTtlsBeforeGiveUp, kMaxTracerouteTtl);
    while (ttl > answered && !at(ttl).hop.addr) --ttl;
    if (ttl == answered) break;
    if (at(ttl).echo) {
      echo = ttl;
    } else {
      answered = ttl;
    }
  }
  if (echo != 0) {
    // The target sits at most kSilentTtlsBeforeGiveUp TTLs above
    // `answered`: walk down to its first echo reply and to the last
    // responsive hop below it (`answered` itself if nothing in between
    // answers).
    out.reached = true;
    for (int ttl = echo - 1; ttl > answered; --ttl) {
      const TtlReply& reply = at(ttl);
      if (reply.echo) {
        echo = ttl;
      } else if (reply.hop.addr) {
        break;
      }
    }
  }
  const int last = out.reached ? echo : kMaxTracerouteTtl;
  for (int ttl = 1; ttl <= last; ++ttl) {
    const auto& reply = replies[static_cast<std::size_t>(ttl)];
    if (reply) out.hops.push_back(reply->hop);
  }
  notify_trace(from, target, out);
  return out;
}

}  // namespace revtr::probing
