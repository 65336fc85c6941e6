#include "server/frame.h"

#include <array>
#include <concepts>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace revtr::server {
namespace {

// Each message's payload layout is written once, as a `layout(io, msg)`
// overload below, and runs in both directions: a Writer appends the fields
// of a const message, a Reader fills a default one and validates each field
// as it reads it. Fields are big-endian; a Reader method takes its field by
// reference, so a layout compiles only when every field has its wire width.

// Appends fields to a frame under construction. Encoding is infallible for
// messages within the documented caps; an oversize field is a programming
// error (REVTR_CHECK), never a wire error.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void non_negative(std::int64_t v) { i64(v); }
  void flag(bool v) { u8(v ? 1 : 0); }
  // Two flags in one byte: bit 0, bit 1.
  void flags(bool bit0, bool bit1) {
    u8(static_cast<std::uint8_t>((bit0 ? 1u : 0u) | (bit1 ? 2u : 0u)));
  }
  template <typename Enum>
  void enumerator(Enum v, Enum /*last*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  void addr(net::Ipv4Addr v) { u32(v.value()); }
  // A 0/1 presence byte, then the address when present.
  void optional_addr(const std::optional<net::Ipv4Addr>& v) {
    flag(v.has_value());
    if (v.has_value()) addr(*v);
  }
  // A u8 length (<= cap), then the bytes.
  void string(const std::string& s, std::size_t cap) {
    REVTR_CHECK(s.size() <= cap);
    u8(util::checked_cast<std::uint8_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  // A u32 length, then the bytes, which fill the rest of the payload.
  void text(const std::string& s) {
    REVTR_CHECK(s.size() <= kMaxFramePayload - 4);
    u32(util::checked_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  // A list's element count (<= cap) as a u8 or a u16; the layout then
  // writes each element, `min_bytes` or more apiece.
  template <typename T>
  void count8(const std::vector<T>& items, std::size_t cap,
              std::size_t /*min_bytes*/) {
    REVTR_CHECK(items.size() <= cap);
    u8(util::checked_cast<std::uint8_t>(items.size()));
  }
  template <typename T>
  void count16(const std::vector<T>& items, std::size_t cap,
               std::size_t /*min_bytes*/) {
    REVTR_CHECK(items.size() <= cap);
    u16(util::checked_cast<std::uint16_t>(items.size()));
  }

 private:
  // Appends `v` big-endian with one insert.
  template <typename T>
  void put(T v) {
    std::array<std::uint8_t, sizeof(T)> bytes{};
    for (std::size_t i = sizeof(T); i > 0; --i) {
      bytes[i - 1] = util::truncate_cast<std::uint8_t>(v);
      v = static_cast<T>(v >> 8);
    }
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  std::vector<std::uint8_t>& out_;
};

// Fills a default message from one payload. Every read is bounds-checked
// (util::ByteReader), and every field is validated as it is read: caps,
// enum ranges, 0/1 flag bytes, non-negative i64s, and list counts the
// remaining bytes can hold. The first violation latches ok() == false, and
// the message is discarded.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> payload) : in_(payload) {}

  bool ok() const { return ok_ && in_.ok(); }
  bool at_end() const { return in_.at_end(); }

  void u32(std::uint32_t& v) { v = in_.u32(); }
  // ByteReader has no u64 on purpose (the packet codec never needs one).
  void u64(std::uint64_t& v) {
    const std::uint64_t hi = in_.u32();
    v = (hi << 32) | in_.u32();
  }
  void i64(std::int64_t& v) {
    std::uint64_t raw = 0;
    u64(raw);
    v = static_cast<std::int64_t>(raw);
  }
  void non_negative(std::int64_t& v) {
    i64(v);
    require(v >= 0);
  }
  void flag(bool& v) { v = byte_at_most(1) != 0; }
  void flag(std::vector<bool>::reference v) { v = byte_at_most(1) != 0; }
  void flags(bool& bit0, bool& bit1) {
    const std::uint8_t raw = byte_at_most(3);
    bit0 = (raw & 1) != 0;
    bit1 = (raw & 2) != 0;
  }
  template <typename Enum>
  void enumerator(Enum& v, Enum last) {
    v = static_cast<Enum>(byte_at_most(static_cast<std::uint8_t>(last)));
  }
  void addr(net::Ipv4Addr& v) { v = net::Ipv4Addr(in_.u32()); }
  void optional_addr(std::optional<net::Ipv4Addr>& v) {
    if (byte_at_most(1) != 0) addr(v.emplace());
  }
  void string(std::string& s, std::size_t cap) {
    const auto bytes =
        in_.bytes(byte_at_most(util::checked_cast<std::uint8_t>(cap)));
    s.assign(bytes.begin(), bytes.end());
  }
  void text(std::string& s) {
    const std::size_t len = in_.u32();
    if (!require(in_.ok() && len == in_.remaining())) return;
    const auto bytes = in_.bytes(len);
    s.assign(bytes.begin(), bytes.end());
  }
  template <typename T>
  void count8(std::vector<T>& items, std::size_t cap, std::size_t min_bytes) {
    items.resize(count(in_.u8(), cap, min_bytes));
  }
  template <typename T>
  void count16(std::vector<T>& items, std::size_t cap, std::size_t min_bytes) {
    items.resize(count(in_.u16(), cap, min_bytes));
  }

 private:
  bool require(bool holds) {
    if (!holds) ok_ = false;
    return holds;
  }
  // One byte that must not exceed `max`; 0 when it does.
  std::uint8_t byte_at_most(std::uint8_t max) {
    const std::uint8_t raw = in_.u8();
    return require(raw <= max) ? raw : 0;
  }
  // Bounds the allocation by what the payload can still hold, so a lying
  // count on a short buffer cannot balloon it.
  std::size_t count(std::size_t n, std::size_t cap, std::size_t min_bytes) {
    return require(n <= cap && in_.remaining() >= n * min_bytes) ? n : 0;
  }

  util::ByteReader in_;
  bool ok_ = true;
};

// `M` is `T` or `const T`: one layout serves the Reader and the Writer.
template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

void layout(auto& io, Is<Hello> auto& m) {
  io.u32(m.proto_version);
  io.flag(m.push_results);
  io.string(m.api_key, kMaxApiKeyLen);
}

void layout(auto& io, Is<HelloOk> auto& m) {
  io.u32(m.tenant);
  io.i64(m.server_now_us);
  io.string(m.tenant_name, kMaxTenantNameLen);
}

void layout(auto& io, Is<HelloErr> auto& m) {
  io.enumerator(m.reason, RejectReason{kMaxRejectReason});
}

static_assert(static_cast<std::size_t>(Priority::kLow) + 1 == kPriorityLevels);

void layout(auto& io, Is<Submit> auto& m) {
  io.u64(m.request_id);
  io.u32(m.dest_index);
  io.u32(m.source_index);
  io.enumerator(m.priority, Priority::kLow);
  io.non_negative(m.deadline_us);
}

void layout(auto& io, Is<SubmitOk> auto& m) { io.u64(m.request_id); }

void layout(auto& io, Is<SubmitErr> auto& m) {
  io.u64(m.request_id);
  io.enumerator(m.reason, RejectReason{kMaxRejectReason});
}

void layout(auto& io, Is<ResultHop> auto& m) {  // 5 bytes.
  io.addr(m.addr);
  io.enumerator(m.source, core::HopSource::kSuspiciousGap);
}

void layout(auto& io, Is<Result> auto& m) {
  io.u64(m.request_id);
  io.enumerator(m.status, core::RevtrStatus::kUnreachable);
  io.flags(m.shed, m.deadline_missed);
  io.i64(m.sim_latency_us);
  io.u64(m.probes);
  io.u64(m.coalesced_probes);
  io.count16(m.hops, kMaxResultHops, /*min_bytes=*/5);
  for (auto& hop : m.hops) layout(io, hop);
}

void layout(auto& io, Is<Poll> auto& m) { io.u32(m.max_results); }

void layout(auto& io, Is<PollDone> auto& m) {
  io.u32(m.returned);
  io.u32(m.pending);
}

void layout(auto& /*io*/, Is<Stats> auto& /*m*/) {}

void layout(auto& io, Is<StatsReply> auto& m) { io.text(m.json); }

void layout(auto& /*io*/, Is<Drain> auto& /*m*/) {}

void layout(auto& io, Is<DrainDone> auto& m) {
  io.u64(m.completed);
  io.u64(m.shed);
}

void layout(auto& io, Is<AgentRegister> auto& m) {
  io.u32(m.proto_version);
  io.u32(m.window);
  io.string(m.name, kMaxTenantNameLen);
}

void layout(auto& io, Is<AgentProbe> auto& m) {
  io.u64(m.ticket);
  io.enumerator(m.spec.type, probing::ProbeType::kTraceroute);
  io.enumerator(m.spec.trace_scope, probing::TraceScope::kLastHop);
  io.u32(m.spec.from);
  io.addr(m.spec.target);
  io.optional_addr(m.spec.spoof_as);
  io.count8(m.spec.prespec, kMaxAgentPrespec, /*min_bytes=*/4);
  for (auto& addr : m.spec.prespec) io.addr(addr);
}

void layout(auto& io, Is<probing::TracerouteHop> auto& m) {  // >= 9 bytes.
  io.optional_addr(m.addr);
  io.non_negative(m.rtt_us);
}

void layout(auto& io, Is<AgentProbeResult> auto& m) {
  io.u64(m.ticket);
  io.flag(m.reply.responded);
  io.count8(m.reply.slots, kMaxAgentSlots, /*min_bytes=*/4);
  for (auto& addr : m.reply.slots) io.addr(addr);
  io.count8(m.reply.stamped, kMaxAgentPrespec, /*min_bytes=*/1);
  for (auto&& stamp : m.reply.stamped) io.flag(stamp);
  io.flag(m.reply.traceroute.reached);
  io.non_negative(m.reply.traceroute.duration_us);
  io.count8(m.reply.traceroute.hops, kMaxAgentTrHops, /*min_bytes=*/9);
  for (auto& hop : m.reply.traceroute.hops) layout(io, hop);
  io.u64(m.reply.traceroute.packets);
  io.non_negative(m.reply.duration_us);
  io.u64(m.reply.packets);
}

void layout(auto& io, Is<AgentHeartbeat> auto& m) {
  io.u32(m.inflight);
  io.u64(m.executed);
}

void layout(auto& io, Is<AgentDrain> auto& m) { io.u64(m.executed); }

// FrameType numbers Message's alternatives from 1, in order: the type byte
// is the alternative index + 1, both ways.
static_assert(std::variant_size_v<Message> ==
              static_cast<std::size_t>(FrameType::kAgentDrain));
static_assert(std::is_same_v<std::variant_alternative_t<0, Message>, Hello>);
static_assert(
    std::is_same_v<std::variant_alternative_t<
                       static_cast<std::size_t>(FrameType::kResult) - 1,
                       Message>,
                   Result>);

// One decoder per alternative, indexed by FrameType - 1: each fills a
// default message through its layout.
template <std::size_t... I>
constexpr auto decoder_table(std::index_sequence<I...> /*indices*/) {
  return std::array<std::optional<Message> (*)(Reader&), sizeof...(I)>{
      [](Reader& reader) {
        std::optional<Message> decoded(std::in_place, std::in_place_index<I>);
        layout(reader, std::get<I>(*decoded));
        return decoded;
      }...};
}
constexpr auto kDecoders = decoder_table(
    std::make_index_sequence<std::variant_size_v<Message>>{});

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
  return static_cast<FrameType>(message.index() + 1);
}

void append_frame(std::vector<std::uint8_t>& out, const Message& message) {
  const std::size_t start = out.size();
  Writer writer(out);
  writer.u16(kFrameMagic);
  writer.u8(kProtoVersion);
  writer.u8(static_cast<std::uint8_t>(frame_type_of(message)));
  writer.u32(0);  // Payload length; patched below.
  std::visit([&writer](const auto& msg) { layout(writer, msg); }, message);
  const std::size_t payload_len = out.size() - start - kFrameHeaderSize;
  REVTR_CHECK(payload_len <= kMaxFramePayload);
  for (std::size_t i = 0; i < 4; ++i) {
    out[start + 4 + i] =
        util::truncate_cast<std::uint8_t>(payload_len >> (24 - 8 * i));
  }
}

std::vector<std::uint8_t> encode_frame(const Message& message) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + 64);
  append_frame(out, message);
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
  // Wraps to a huge index for type 0.
  const std::size_t index = static_cast<std::size_t>(type) - 1;
  if (index >= kDecoders.size()) return fail(error, FrameError::kUnknownType);
  Reader reader(payload);
  std::optional<Message> decoded = kDecoders[index](reader);
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
