#include "server/frame.h"

#include "util/check.h"

namespace revtr::server {
namespace {

// --- Encoding helpers (big-endian, appended to a growing buffer). -----------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(util::truncate_cast<std::uint8_t>(v >> 8));
  out.push_back(util::truncate_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(util::truncate_cast<std::uint8_t>(v >> 24));
  out.push_back(util::truncate_cast<std::uint8_t>(v >> 16));
  out.push_back(util::truncate_cast<std::uint8_t>(v >> 8));
  out.push_back(util::truncate_cast<std::uint8_t>(v));
}

// ByteReader has no u64 on purpose (the packet codec never needs one);
// compose the two halves here rather than widening the reader.
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, util::truncate_cast<std::uint32_t>(v >> 32));
  put_u32(out, util::truncate_cast<std::uint32_t>(v));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

std::uint64_t read_u64(util::ByteReader& reader) {
  const std::uint64_t hi = reader.u32();
  const std::uint64_t lo = reader.u32();
  return (hi << 32) | lo;
}

std::int64_t read_i64(util::ByteReader& reader) {
  return static_cast<std::int64_t>(read_u64(reader));
}

std::string read_string(util::ByteReader& reader, std::size_t len) {
  const auto view = reader.bytes(len);
  return std::string(view.begin(), view.end());
}

void encode_payload(const Message& message, std::vector<std::uint8_t>& out) {
  std::visit(
      [&out](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, Hello>) {
          REVTR_CHECK(msg.api_key.size() <= kMaxApiKeyLen);
          put_u32(out, msg.proto_version);
          put_u8(out, msg.push_results ? 1 : 0);
          put_u8(out, util::checked_cast<std::uint8_t>(msg.api_key.size()));
          put_string(out, msg.api_key);
        } else if constexpr (std::is_same_v<T, HelloOk>) {
          REVTR_CHECK(msg.tenant_name.size() <= kMaxTenantNameLen);
          put_u32(out, msg.tenant);
          put_i64(out, msg.server_now_us);
          put_u8(out,
                 util::checked_cast<std::uint8_t>(msg.tenant_name.size()));
          put_string(out, msg.tenant_name);
        } else if constexpr (std::is_same_v<T, HelloErr>) {
          put_u8(out, static_cast<std::uint8_t>(msg.reason));
        } else if constexpr (std::is_same_v<T, Submit>) {
          put_u64(out, msg.request_id);
          put_u32(out, msg.dest_index);
          put_u32(out, msg.source_index);
          put_u8(out, static_cast<std::uint8_t>(msg.priority));
          put_i64(out, msg.deadline_us);
        } else if constexpr (std::is_same_v<T, SubmitOk>) {
          put_u64(out, msg.request_id);
        } else if constexpr (std::is_same_v<T, SubmitErr>) {
          put_u64(out, msg.request_id);
          put_u8(out, static_cast<std::uint8_t>(msg.reason));
        } else if constexpr (std::is_same_v<T, Result>) {
          REVTR_CHECK(msg.hops.size() <= kMaxResultHops);
          put_u64(out, msg.request_id);
          put_u8(out, static_cast<std::uint8_t>(msg.status));
          const std::uint8_t flags =
              static_cast<std::uint8_t>((msg.shed ? 1u : 0u) |
                                        (msg.deadline_missed ? 2u : 0u));
          put_u8(out, flags);
          put_i64(out, msg.sim_latency_us);
          put_u64(out, msg.probes);
          put_u64(out, msg.coalesced_probes);
          put_u16(out, util::checked_cast<std::uint16_t>(msg.hops.size()));
          for (const ResultHop& hop : msg.hops) {
            put_u32(out, hop.addr.value());
            put_u8(out, static_cast<std::uint8_t>(hop.source));
          }
        } else if constexpr (std::is_same_v<T, Poll>) {
          put_u32(out, msg.max_results);
        } else if constexpr (std::is_same_v<T, PollDone>) {
          put_u32(out, msg.returned);
          put_u32(out, msg.pending);
        } else if constexpr (std::is_same_v<T, Stats>) {
          // Empty payload.
        } else if constexpr (std::is_same_v<T, StatsReply>) {
          REVTR_CHECK(msg.json.size() <= kMaxFramePayload - 4);
          put_u32(out, util::checked_cast<std::uint32_t>(msg.json.size()));
          put_string(out, msg.json);
        } else if constexpr (std::is_same_v<T, Drain>) {
          // Empty payload.
        } else if constexpr (std::is_same_v<T, DrainDone>) {
          put_u64(out, msg.completed);
          put_u64(out, msg.shed);
        } else if constexpr (std::is_same_v<T, AgentRegister>) {
          REVTR_CHECK(msg.name.size() <= kMaxTenantNameLen);
          put_u32(out, msg.proto_version);
          put_u32(out, msg.window);
          put_u8(out, util::checked_cast<std::uint8_t>(msg.name.size()));
          put_string(out, msg.name);
        } else if constexpr (std::is_same_v<T, AgentProbe>) {
          REVTR_CHECK(msg.spec.prespec.size() <= kMaxAgentPrespec);
          put_u64(out, msg.ticket);
          put_u8(out, static_cast<std::uint8_t>(msg.spec.type));
          put_u8(out, static_cast<std::uint8_t>(msg.spec.trace_scope));
          put_u32(out, msg.spec.from);
          put_u32(out, msg.spec.target.value());
          put_u8(out, msg.spec.spoof_as.has_value() ? 1 : 0);
          if (msg.spec.spoof_as.has_value()) {
            put_u32(out, msg.spec.spoof_as->value());
          }
          put_u8(out,
                 util::checked_cast<std::uint8_t>(msg.spec.prespec.size()));
          for (const net::Ipv4Addr addr : msg.spec.prespec) {
            put_u32(out, addr.value());
          }
        } else if constexpr (std::is_same_v<T, AgentProbeResult>) {
          REVTR_CHECK(msg.reply.slots.size() <= kMaxAgentSlots);
          REVTR_CHECK(msg.reply.stamped.size() <= kMaxAgentPrespec);
          REVTR_CHECK(msg.reply.traceroute.hops.size() <= kMaxAgentTrHops);
          put_u64(out, msg.ticket);
          put_u8(out, msg.reply.responded ? 1 : 0);
          put_u8(out, util::checked_cast<std::uint8_t>(msg.reply.slots.size()));
          for (const net::Ipv4Addr addr : msg.reply.slots) {
            put_u32(out, addr.value());
          }
          put_u8(out,
                 util::checked_cast<std::uint8_t>(msg.reply.stamped.size()));
          for (const bool stamp : msg.reply.stamped) {
            put_u8(out, stamp ? 1 : 0);
          }
          put_u8(out, msg.reply.traceroute.reached ? 1 : 0);
          put_i64(out, msg.reply.traceroute.duration_us);
          put_u8(out, util::checked_cast<std::uint8_t>(
                          msg.reply.traceroute.hops.size()));
          for (const probing::TracerouteHop& hop : msg.reply.traceroute.hops) {
            put_u8(out, hop.addr.has_value() ? 1 : 0);
            if (hop.addr.has_value()) put_u32(out, hop.addr->value());
            put_i64(out, hop.rtt_us);
          }
          put_u64(out, msg.reply.traceroute.packets);
          put_i64(out, msg.reply.duration_us);
          put_u64(out, msg.reply.packets);
        } else if constexpr (std::is_same_v<T, AgentHeartbeat>) {
          put_u32(out, msg.inflight);
          put_u64(out, msg.executed);
        } else {
          static_assert(std::is_same_v<T, AgentDrain>);
          put_u64(out, msg.executed);
        }
      },
      message);
}

std::optional<RejectReason> read_reject_reason(util::ByteReader& reader) {
  const std::uint8_t raw = reader.u8();
  if (!reader.ok() || raw > kMaxRejectReason) return std::nullopt;
  return static_cast<RejectReason>(raw);
}

std::optional<Message> fail(FrameError* error, FrameError reason) {
  if (error != nullptr) *error = reason;
  return std::nullopt;
}

}  // namespace

std::string_view to_string(FrameError error) {
  switch (error) {
    case FrameError::kNone:
      return "none";
    case FrameError::kTruncatedHeader:
      return "truncated-header";
    case FrameError::kBadMagic:
      return "bad-magic";
    case FrameError::kBadVersion:
      return "bad-version";
    case FrameError::kUnknownType:
      return "unknown-type";
    case FrameError::kOversizedPayload:
      return "oversized-payload";
    case FrameError::kTruncatedPayload:
      return "truncated-payload";
    case FrameError::kBadPayload:
      return "bad-payload";
    case FrameError::kTrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kHelloOk:
      return "HELLO_OK";
    case FrameType::kHelloErr:
      return "HELLO_ERR";
    case FrameType::kSubmit:
      return "SUBMIT";
    case FrameType::kSubmitOk:
      return "SUBMIT_OK";
    case FrameType::kSubmitErr:
      return "SUBMIT_ERR";
    case FrameType::kResult:
      return "RESULT";
    case FrameType::kPoll:
      return "POLL";
    case FrameType::kPollDone:
      return "POLL_DONE";
    case FrameType::kStats:
      return "STATS";
    case FrameType::kStatsReply:
      return "STATS_REPLY";
    case FrameType::kDrain:
      return "DRAIN";
    case FrameType::kDrainDone:
      return "DRAIN_DONE";
    case FrameType::kAgentRegister:
      return "AGENT_REGISTER";
    case FrameType::kAgentProbe:
      return "AGENT_PROBE";
    case FrameType::kAgentProbeResult:
      return "AGENT_PROBE_RESULT";
    case FrameType::kAgentHeartbeat:
      return "AGENT_HEARTBEAT";
    case FrameType::kAgentDrain:
      return "AGENT_DRAIN";
  }
  return "unknown";
}

std::string_view to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kBadApiKey:
      return "bad-api-key";
    case RejectReason::kNotAuthenticated:
      return "not-authenticated";
    case RejectReason::kDraining:
      return "draining";
    case RejectReason::kRateLimited:
      return "rate-limited";
    case RejectReason::kQuotaExhausted:
      return "quota-exhausted";
    case RejectReason::kProbeBudgetExhausted:
      return "probe-budget-exhausted";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kBackpressure:
      return "backpressure";
    case RejectReason::kDeadlineExpired:
      return "deadline-expired";
    case RejectReason::kDeadlineUnmeetable:
      return "deadline-unmeetable";
    case RejectReason::kBadRequest:
      return "bad-request";
  }
  return "unknown";
}

FrameType frame_type_of(const Message& message) {
  return std::visit(
      [](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, Hello>) {
          return FrameType::kHello;
        } else if constexpr (std::is_same_v<T, HelloOk>) {
          return FrameType::kHelloOk;
        } else if constexpr (std::is_same_v<T, HelloErr>) {
          return FrameType::kHelloErr;
        } else if constexpr (std::is_same_v<T, Submit>) {
          return FrameType::kSubmit;
        } else if constexpr (std::is_same_v<T, SubmitOk>) {
          return FrameType::kSubmitOk;
        } else if constexpr (std::is_same_v<T, SubmitErr>) {
          return FrameType::kSubmitErr;
        } else if constexpr (std::is_same_v<T, Result>) {
          return FrameType::kResult;
        } else if constexpr (std::is_same_v<T, Poll>) {
          return FrameType::kPoll;
        } else if constexpr (std::is_same_v<T, PollDone>) {
          return FrameType::kPollDone;
        } else if constexpr (std::is_same_v<T, Stats>) {
          return FrameType::kStats;
        } else if constexpr (std::is_same_v<T, StatsReply>) {
          return FrameType::kStatsReply;
        } else if constexpr (std::is_same_v<T, Drain>) {
          return FrameType::kDrain;
        } else if constexpr (std::is_same_v<T, DrainDone>) {
          return FrameType::kDrainDone;
        } else if constexpr (std::is_same_v<T, AgentRegister>) {
          return FrameType::kAgentRegister;
        } else if constexpr (std::is_same_v<T, AgentProbe>) {
          return FrameType::kAgentProbe;
        } else if constexpr (std::is_same_v<T, AgentProbeResult>) {
          return FrameType::kAgentProbeResult;
        } else if constexpr (std::is_same_v<T, AgentHeartbeat>) {
          return FrameType::kAgentHeartbeat;
        } else {
          static_assert(std::is_same_v<T, AgentDrain>);
          return FrameType::kAgentDrain;
        }
      },
      message);
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + 64);
  put_u16(out, kFrameMagic);
  put_u8(out, kProtoVersion);
  put_u8(out, static_cast<std::uint8_t>(frame_type_of(message)));
  put_u32(out, 0);  // Placeholder; patched below.
  encode_payload(message, out);
  const std::size_t payload_len = out.size() - kFrameHeaderSize;
  REVTR_CHECK(payload_len <= kMaxFramePayload);
  out[4] = util::truncate_cast<std::uint8_t>(payload_len >> 24);
  out[5] = util::truncate_cast<std::uint8_t>(payload_len >> 16);
  out[6] = util::truncate_cast<std::uint8_t>(payload_len >> 8);
  out[7] = util::truncate_cast<std::uint8_t>(payload_len);
  return out;
}

std::optional<FrameHeader> decode_frame_header(
    std::span<const std::uint8_t> bytes, FrameError* error) {
  if (error != nullptr) *error = FrameError::kNone;
  util::ByteReader reader(bytes);
  const std::uint16_t magic = reader.u16();
  const std::uint8_t version = reader.u8();
  const std::uint8_t type = reader.u8();
  const std::uint32_t payload_len = reader.u32();
  if (!reader.ok()) {
    fail(error, FrameError::kTruncatedHeader);
    return std::nullopt;
  }
  if (magic != kFrameMagic) {
    fail(error, FrameError::kBadMagic);
    return std::nullopt;
  }
  if (version != kProtoVersion) {
    fail(error, FrameError::kBadVersion);
    return std::nullopt;
  }
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kAgentDrain)) {
    fail(error, FrameError::kUnknownType);
    return std::nullopt;
  }
  if (payload_len > kMaxFramePayload) {
    fail(error, FrameError::kOversizedPayload);
    return std::nullopt;
  }
  return FrameHeader{static_cast<FrameType>(type), payload_len};
}

std::optional<Message> decode_payload(FrameType type,
                                      std::span<const std::uint8_t> payload,
                                      FrameError* error) {
  if (error != nullptr) *error = FrameError::kNone;
  util::ByteReader reader(payload);
  std::optional<Message> decoded;
  switch (type) {
    case FrameType::kHello: {
      Hello msg;
      msg.proto_version = reader.u32();
      const std::uint8_t flags = reader.u8();
      const std::uint8_t key_len = reader.u8();
      if (flags > 1 || key_len > kMaxApiKeyLen)
        return fail(error, FrameError::kBadPayload);
      msg.push_results = flags != 0;
      msg.api_key = read_string(reader, key_len);
      decoded = std::move(msg);
      break;
    }
    case FrameType::kHelloOk: {
      HelloOk msg;
      msg.tenant = reader.u32();
      msg.server_now_us = read_i64(reader);
      const std::uint8_t name_len = reader.u8();
      if (name_len > kMaxTenantNameLen)
        return fail(error, FrameError::kBadPayload);
      msg.tenant_name = read_string(reader, name_len);
      decoded = std::move(msg);
      break;
    }
    case FrameType::kHelloErr: {
      const auto reason = read_reject_reason(reader);
      if (!reason.has_value()) return fail(error, FrameError::kBadPayload);
      decoded = HelloErr{*reason};
      break;
    }
    case FrameType::kSubmit: {
      Submit msg;
      msg.request_id = read_u64(reader);
      msg.dest_index = reader.u32();
      msg.source_index = reader.u32();
      const std::uint8_t priority = reader.u8();
      if (priority >= kPriorityLevels)
        return fail(error, FrameError::kBadPayload);
      msg.priority = static_cast<Priority>(priority);
      msg.deadline_us = read_i64(reader);
      if (msg.deadline_us < 0) return fail(error, FrameError::kBadPayload);
      decoded = msg;
      break;
    }
    case FrameType::kSubmitOk: {
      decoded = SubmitOk{read_u64(reader)};
      break;
    }
    case FrameType::kSubmitErr: {
      SubmitErr msg;
      msg.request_id = read_u64(reader);
      const auto reason = read_reject_reason(reader);
      if (!reason.has_value()) return fail(error, FrameError::kBadPayload);
      msg.reason = *reason;
      decoded = msg;
      break;
    }
    case FrameType::kResult: {
      Result msg;
      msg.request_id = read_u64(reader);
      const std::uint8_t status = reader.u8();
      if (status > static_cast<std::uint8_t>(core::RevtrStatus::kUnreachable))
        return fail(error, FrameError::kBadPayload);
      msg.status = static_cast<core::RevtrStatus>(status);
      const std::uint8_t flags = reader.u8();
      if (flags > 3) return fail(error, FrameError::kBadPayload);
      msg.shed = (flags & 1) != 0;
      msg.deadline_missed = (flags & 2) != 0;
      msg.sim_latency_us = read_i64(reader);
      msg.probes = read_u64(reader);
      msg.coalesced_probes = read_u64(reader);
      const std::uint16_t hop_count = reader.u16();
      if (hop_count > kMaxResultHops)
        return fail(error, FrameError::kBadPayload);
      // Bound the reserve by what the payload can actually hold, so a lying
      // count on a short buffer cannot balloon the allocation before the
      // reader latches the overrun.
      if (reader.remaining() < std::size_t{hop_count} * 5)
        return fail(error, FrameError::kBadPayload);
      msg.hops.reserve(hop_count);
      for (std::uint16_t i = 0; i < hop_count; ++i) {
        ResultHop hop;
        hop.addr = net::Ipv4Addr(reader.u32());
        const std::uint8_t source = reader.u8();
        if (source >
            static_cast<std::uint8_t>(core::HopSource::kSuspiciousGap))
          return fail(error, FrameError::kBadPayload);
        hop.source = static_cast<core::HopSource>(source);
        msg.hops.push_back(hop);
      }
      decoded = std::move(msg);
      break;
    }
    case FrameType::kPoll: {
      decoded = Poll{reader.u32()};
      break;
    }
    case FrameType::kPollDone: {
      PollDone msg;
      msg.returned = reader.u32();
      msg.pending = reader.u32();
      decoded = msg;
      break;
    }
    case FrameType::kStats: {
      decoded = Stats{};
      break;
    }
    case FrameType::kStatsReply: {
      const std::uint32_t len = reader.u32();
      if (!reader.ok() || len != reader.remaining())
        return fail(error, FrameError::kBadPayload);
      decoded = StatsReply{read_string(reader, len)};
      break;
    }
    case FrameType::kDrain: {
      decoded = Drain{};
      break;
    }
    case FrameType::kDrainDone: {
      DrainDone msg;
      msg.completed = read_u64(reader);
      msg.shed = read_u64(reader);
      decoded = msg;
      break;
    }
    case FrameType::kAgentRegister: {
      AgentRegister msg;
      msg.proto_version = reader.u32();
      msg.window = reader.u32();
      const std::uint8_t name_len = reader.u8();
      if (name_len > kMaxTenantNameLen)
        return fail(error, FrameError::kBadPayload);
      msg.name = read_string(reader, name_len);
      decoded = std::move(msg);
      break;
    }
    case FrameType::kAgentProbe: {
      AgentProbe msg;
      msg.ticket = read_u64(reader);
      const std::uint8_t type_raw = reader.u8();
      if (type_raw > static_cast<std::uint8_t>(probing::ProbeType::kTraceroute))
        return fail(error, FrameError::kBadPayload);
      msg.spec.type = static_cast<probing::ProbeType>(type_raw);
      const std::uint8_t scope_raw = reader.u8();
      if (scope_raw > static_cast<std::uint8_t>(probing::TraceScope::kLastHop))
        return fail(error, FrameError::kBadPayload);
      msg.spec.trace_scope = static_cast<probing::TraceScope>(scope_raw);
      msg.spec.from = reader.u32();
      msg.spec.target = net::Ipv4Addr(reader.u32());
      const std::uint8_t has_spoof = reader.u8();
      if (has_spoof > 1) return fail(error, FrameError::kBadPayload);
      if (has_spoof != 0) msg.spec.spoof_as = net::Ipv4Addr(reader.u32());
      const std::uint8_t prespec_count = reader.u8();
      if (prespec_count > kMaxAgentPrespec ||
          reader.remaining() < std::size_t{prespec_count} * 4)
        return fail(error, FrameError::kBadPayload);
      msg.spec.prespec.reserve(prespec_count);
      for (std::uint8_t i = 0; i < prespec_count; ++i) {
        msg.spec.prespec.push_back(net::Ipv4Addr(reader.u32()));
      }
      decoded = std::move(msg);
      break;
    }
    case FrameType::kAgentProbeResult: {
      AgentProbeResult msg;
      msg.ticket = read_u64(reader);
      const std::uint8_t responded = reader.u8();
      if (responded > 1) return fail(error, FrameError::kBadPayload);
      msg.reply.responded = responded != 0;
      const std::uint8_t slot_count = reader.u8();
      if (slot_count > kMaxAgentSlots ||
          reader.remaining() < std::size_t{slot_count} * 4)
        return fail(error, FrameError::kBadPayload);
      msg.reply.slots.reserve(slot_count);
      for (std::uint8_t i = 0; i < slot_count; ++i) {
        msg.reply.slots.push_back(net::Ipv4Addr(reader.u32()));
      }
      const std::uint8_t stamp_count = reader.u8();
      if (stamp_count > kMaxAgentPrespec)
        return fail(error, FrameError::kBadPayload);
      msg.reply.stamped.reserve(stamp_count);
      for (std::uint8_t i = 0; i < stamp_count; ++i) {
        const std::uint8_t stamp = reader.u8();
        if (stamp > 1) return fail(error, FrameError::kBadPayload);
        msg.reply.stamped.push_back(stamp != 0);
      }
      const std::uint8_t reached = reader.u8();
      if (reached > 1) return fail(error, FrameError::kBadPayload);
      msg.reply.traceroute.reached = reached != 0;
      msg.reply.traceroute.duration_us = read_i64(reader);
      const std::uint8_t hop_count = reader.u8();
      // Bound the reserve by what the payload can actually hold (a hop is
      // at least 9 bytes), so a lying count cannot balloon the allocation.
      if (hop_count > kMaxAgentTrHops ||
          reader.remaining() < std::size_t{hop_count} * 9)
        return fail(error, FrameError::kBadPayload);
      msg.reply.traceroute.hops.reserve(hop_count);
      for (std::uint8_t i = 0; i < hop_count; ++i) {
        probing::TracerouteHop hop;
        const std::uint8_t has_addr = reader.u8();
        if (has_addr > 1) return fail(error, FrameError::kBadPayload);
        if (has_addr != 0) hop.addr = net::Ipv4Addr(reader.u32());
        hop.rtt_us = read_i64(reader);
        if (hop.rtt_us < 0) return fail(error, FrameError::kBadPayload);
        msg.reply.traceroute.hops.push_back(hop);
      }
      msg.reply.traceroute.packets = read_u64(reader);
      msg.reply.duration_us = read_i64(reader);
      msg.reply.packets = read_u64(reader);
      if (msg.reply.duration_us < 0 || msg.reply.traceroute.duration_us < 0)
        return fail(error, FrameError::kBadPayload);
      decoded = std::move(msg);
      break;
    }
    case FrameType::kAgentHeartbeat: {
      AgentHeartbeat msg;
      msg.inflight = reader.u32();
      msg.executed = read_u64(reader);
      decoded = msg;
      break;
    }
    case FrameType::kAgentDrain: {
      decoded = AgentDrain{read_u64(reader)};
      break;
    }
  }
  if (!decoded.has_value()) return fail(error, FrameError::kUnknownType);
  if (!reader.ok()) return fail(error, FrameError::kBadPayload);
  if (!reader.at_end()) return fail(error, FrameError::kTrailingBytes);
  return decoded;
}

std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    FrameError* error) {
  FrameError header_error = FrameError::kNone;
  const auto header = decode_frame_header(bytes, &header_error);
  if (!header.has_value()) {
    fail(error, header_error);
    return std::nullopt;
  }
  if (bytes.size() < kFrameHeaderSize + header->payload_len)
    return fail(error, FrameError::kTruncatedPayload);
  if (bytes.size() > kFrameHeaderSize + header->payload_len)
    return fail(error, FrameError::kTrailingBytes);
  return decode_payload(header->type,
                        bytes.subspan(kFrameHeaderSize, header->payload_len),
                        error);
}

}  // namespace revtr::server
