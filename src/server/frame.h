// Length-framed binary wire protocol for the measurement daemon.
//
// revtr_serverd speaks this protocol over local stream sockets. Every frame
// is an 8-byte fixed header followed by a payload:
//
//   u16 magic    0x5256 ("RV")
//   u8  version  kProtoVersion
//   u8  type     FrameType
//   u32 length   payload bytes (big-endian, <= kMaxFramePayload)
//
// The decoder is total in the same sense as net::decode_packet: any byte
// string either decodes to a Message or is rejected with a FrameError naming
// the first violated invariant — never a crash, never an out-of-bounds read
// (everything flows through util::ByteReader). The frame grammar and the
// tenant/priority/deadline model are documented in DESIGN.md §14; ROADMAP
// item 5 (controller / VP-agent split) reuses this codec.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/revtr.h"
#include "net/ipv4.h"
#include "probing/transport.h"

namespace revtr::server {

inline constexpr std::uint16_t kFrameMagic = 0x5256;  // "RV"
inline constexpr std::uint8_t kProtoVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 8;
// Generous for every message we define (the largest is a STATS_REPLY
// carrying a metrics snapshot); anything bigger is a protocol violation, so
// a lying length field cannot make the server buffer unboundedly.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;
inline constexpr std::size_t kMaxApiKeyLen = 128;
inline constexpr std::size_t kMaxTenantNameLen = 64;
inline constexpr std::size_t kMaxResultHops = 1024;
// Agent-frame caps (DESIGN.md §15). Comfortably above what the probers
// produce (TS prespec <= 4, RR record <= 9 slots, traceroute <= 40 TTLs) so
// the caps are a wire-safety bound, not a behavior limit.
inline constexpr std::size_t kMaxAgentPrespec = 8;
inline constexpr std::size_t kMaxAgentSlots = 16;
inline constexpr std::size_t kMaxAgentTrHops = 64;

enum class FrameType : std::uint8_t {
  kHello = 1,       // client -> server: auth with an API key
  kHelloOk = 2,     // server -> client: tenant id + server clock
  kHelloErr = 3,    // server -> client: auth rejected
  kSubmit = 4,      // client -> server: one measurement request
  kSubmitOk = 5,    // server -> client: admitted
  kSubmitErr = 6,   // server -> client: rejected (RejectReason)
  kResult = 7,      // server -> client: one finished measurement
  kPoll = 8,        // client -> server: fetch buffered results (pull mode)
  kPollDone = 9,    // server -> client: end of a poll batch
  kStats = 10,      // client -> server: request a stats snapshot
  kStatsReply = 11, // server -> client: JSON stats text
  kDrain = 12,      // client -> server: stop admitting, finish in-flight
  kDrainDone = 13,  // server -> client: drain complete
  // Controller <-> VP-agent frames (DESIGN.md §15).
  kAgentRegister = 14,     // agent -> controller: join as a remote prober
  kAgentProbe = 15,        // controller -> agent: one ticketed assignment
  kAgentProbeResult = 16,  // agent -> controller: the assignment's reply
  kAgentHeartbeat = 17,    // agent -> controller: liveness + load
  kAgentDrain = 18,        // either way: finish in-flight, then part ways
};

// First invariant violated by a rejected buffer, in validation order.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kTruncatedHeader,   // Shorter than the 8-byte fixed header.
  kBadMagic,          // First two bytes are not kFrameMagic.
  kBadVersion,        // Version byte != kProtoVersion.
  kUnknownType,       // Type byte outside the FrameType range.
  kOversizedPayload,  // Declared length > kMaxFramePayload.
  kTruncatedPayload,  // Buffer shorter than header + declared length.
  kBadPayload,        // Payload grammar violated (length, range, cap).
  kTrailingBytes,     // Payload longer than its message grammar.
};

std::string_view to_string(FrameError error);
std::string_view to_string(FrameType type);

// Why a HELLO or SUBMIT was refused. Carried on the wire as one byte; the
// decoder validates the range so a forged reason cannot leave the enum.
enum class RejectReason : std::uint8_t {
  kBadApiKey = 0,          // HELLO: key matches no tenant.
  kNotAuthenticated = 1,   // SUBMIT before a successful HELLO.
  kDraining = 2,           // Server is draining; no new admissions.
  kRateLimited = 3,        // Tenant token bucket empty.
  kQuotaExhausted = 4,     // Tenant daily request quota spent.
  kProbeBudgetExhausted = 5,  // Tenant daily probe budget spent.
  kQueueFull = 6,          // Bounded submission queue at capacity.
  kBackpressure = 7,       // ProbeScheduler backlog over the limit.
  kDeadlineExpired = 8,    // Deadline already in the past at submit.
  kDeadlineUnmeetable = 9, // Estimated queue wait overruns the deadline.
  kBadRequest = 10,        // Destination/source index out of range.
};
inline constexpr std::uint8_t kMaxRejectReason =
    static_cast<std::uint8_t>(RejectReason::kBadRequest);

std::string_view to_string(RejectReason reason);

// Request priorities; affect dequeue order only, never admission itself.
enum class Priority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
inline constexpr std::size_t kPriorityLevels = 3;

// --- Messages (one struct per FrameType). -----------------------------------

struct Hello {
  std::uint32_t proto_version = kProtoVersion;
  bool push_results = true;  // false: client pulls with POLL.
  std::string api_key;       // <= kMaxApiKeyLen bytes.

  bool operator==(const Hello&) const = default;
};

struct HelloOk {
  std::uint32_t tenant = 0;
  // Server monotonic clock at reply time, in micros. SUBMIT deadlines are
  // absolute instants on this clock: the client computes
  // `server_now_us + budget` so client/server clock skew never shifts a
  // deadline.
  std::int64_t server_now_us = 0;
  std::string tenant_name;  // <= kMaxTenantNameLen bytes.

  bool operator==(const HelloOk&) const = default;
};

struct HelloErr {
  RejectReason reason = RejectReason::kBadApiKey;

  bool operator==(const HelloErr&) const = default;
};

struct Submit {
  std::uint64_t request_id = 0;    // Client-chosen; echoed on every reply.
  std::uint32_t dest_index = 0;    // Index into the topology's probe hosts.
  std::uint32_t source_index = 0;  // Index into the bootstrapped sources.
  Priority priority = Priority::kNormal;
  std::int64_t deadline_us = 0;    // Absolute server clock; 0 = none.

  bool operator==(const Submit&) const = default;
};

struct SubmitOk {
  std::uint64_t request_id = 0;

  bool operator==(const SubmitOk&) const = default;
};

struct SubmitErr {
  std::uint64_t request_id = 0;
  RejectReason reason = RejectReason::kBadRequest;

  bool operator==(const SubmitErr&) const = default;
};

struct ResultHop {
  net::Ipv4Addr addr;  // Unspecified for suspicious-gap hops.
  core::HopSource source = core::HopSource::kDestination;

  bool operator==(const ResultHop&) const = default;
};

struct Result {
  std::uint64_t request_id = 0;
  core::RevtrStatus status = core::RevtrStatus::kUnreachable;
  // True when admission accepted the request but it was shed from the queue
  // before measuring (deadline expired while queued). Shed results carry no
  // hops and the request-count quota charge is refunded.
  bool shed = false;
  // True when the measurement finished after its deadline (it still carries
  // the full path — the deadline is an SLO, not a kill switch).
  bool deadline_missed = false;
  std::int64_t sim_latency_us = 0;  // Simulated measurement latency.
  std::uint64_t probes = 0;
  std::uint64_t coalesced_probes = 0;
  std::vector<ResultHop> hops;  // <= kMaxResultHops.

  bool operator==(const Result&) const = default;
};

struct Poll {
  std::uint32_t max_results = 16;

  bool operator==(const Poll&) const = default;
};

struct PollDone {
  std::uint32_t returned = 0;  // RESULT frames sent before this one.
  std::uint32_t pending = 0;   // Results still buffered server-side.

  bool operator==(const PollDone&) const = default;
};

struct Stats {
  bool operator==(const Stats&) const = default;
};

struct StatsReply {
  std::string json;  // Server counters + metrics snapshot (util::Json text).

  bool operator==(const StatsReply&) const = default;
};

struct Drain {
  bool operator==(const Drain&) const = default;
};

struct DrainDone {
  std::uint64_t completed = 0;  // Requests measured over the server's life.
  std::uint64_t shed = 0;       // Accepted-then-shed requests.

  bool operator==(const DrainDone&) const = default;
};

// --- Agent frames (controller <-> VP agent, DESIGN.md §15). -----------------

struct AgentRegister {
  std::uint32_t proto_version = kProtoVersion;
  std::uint32_t window = 16;  // Requested in-flight assignment window.
  std::string name;           // <= kMaxTenantNameLen bytes.

  bool operator==(const AgentRegister&) const = default;
};

// The controller acks a REGISTER with a HELLO_OK whose `tenant` field
// carries the scheduler-assigned agent id (agents are not tenants; reusing
// the ack frame keeps the grammar small).
struct AgentProbe {
  std::uint64_t ticket = 0;  // Scheduler assignment ticket; echoed back.
  // prespec <= kMaxAgentPrespec addresses; type within the ProbeType range;
  // trace_scope one byte within the TraceScope range.
  probing::ProbeSpec spec;

  bool operator==(const AgentProbe&) const = default;
};

struct AgentProbeResult {
  std::uint64_t ticket = 0;
  // slots <= kMaxAgentSlots, stamped <= kMaxAgentPrespec, traceroute hops
  // <= kMaxAgentTrHops; durations are non-negative simulated micros.
  probing::ProbeReply reply;

  bool operator==(const AgentProbeResult&) const = default;
};

struct AgentHeartbeat {
  std::uint32_t inflight = 0;   // Assignments held but not yet answered.
  std::uint64_t executed = 0;   // Lifetime probes executed.

  bool operator==(const AgentHeartbeat&) const = default;
};

struct AgentDrain {
  // Agent -> controller: lifetime probes executed (a parting stats line).
  // Controller -> agent: 0.
  std::uint64_t executed = 0;

  bool operator==(const AgentDrain&) const = default;
};

using Message = std::variant<Hello, HelloOk, HelloErr, Submit, SubmitOk,
                             SubmitErr, Result, Poll, PollDone, Stats,
                             StatsReply, Drain, DrainDone, AgentRegister,
                             AgentProbe, AgentProbeResult, AgentHeartbeat,
                             AgentDrain>;

// The type byte of `message`: FrameType numbers Message's alternatives from
// 1, in order.
FrameType frame_type_of(const Message& message);

// Serializes one message as a complete frame (header + payload). Encoding
// is infallible for messages within the documented caps; oversize fields
// are a programming error (REVTR_CHECK).
std::vector<std::uint8_t> encode_frame(const Message& message);
// encode_frame appended to `out` (a stream's output buffer).
void append_frame(std::vector<std::uint8_t>& out, const Message& message);

struct FrameHeader {
  FrameType type = FrameType::kHello;
  std::uint32_t payload_len = 0;
};

// Validates the fixed 8-byte header. `bytes` may be the front of a stream
// buffer; only kFrameHeaderSize bytes are examined. Rejections set `error`
// (kTruncatedHeader when fewer than kFrameHeaderSize bytes are available).
std::optional<FrameHeader> decode_frame_header(
    std::span<const std::uint8_t> bytes, FrameError* error = nullptr);

// Total decode of one payload of known type. The whole span must be
// consumed (kTrailingBytes otherwise); every length and enum byte is
// validated (kBadPayload).
std::optional<Message> decode_payload(FrameType type,
                                      std::span<const std::uint8_t> payload,
                                      FrameError* error = nullptr);

// Total decode of exactly one whole frame. Convenience for tests and the
// fuzzer; stream readers go through FrameStream (server/stream.h), which
// pairs decode_frame_header + decode_payload so a partial read is "wait for
// more bytes", not an error.
std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    FrameError* error = nullptr);

}  // namespace revtr::server
