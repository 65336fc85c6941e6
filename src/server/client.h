// Blocking client for the revtr_serverd framed protocol (server/frame.h).
//
// One DaemonClient owns one AF_UNIX stream connection (a FrameStream, so
// the client reads, writes and fails like the daemon does). All calls run on
// the caller's thread with blocking I/O — a caller with several threads gives
// each its own client; nothing here is shared or locked. RESULT frames
// interleave with other replies in push mode, so every wait_* helper
// stashes Results it passes by; next_result() consumes the stash before
// touching the socket.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "server/frame.h"
#include "server/stream.h"

namespace revtr::server {

class DaemonClient {
 public:
  DaemonClient() = default;

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  // Connects to the daemon's socket, retrying (20 ms apart) while the
  // daemon is still binding. False after all retries fail.
  bool connect(const std::string& socket_path, int retries = 50);
  bool connected() const noexcept { return stream_.is_open(); }
  void close();

  // HELLO handshake. Empty result on transport error or HELLO_ERR
  // (reject_reason() says why).
  std::optional<HelloOk> hello(const std::string& api_key,
                               bool push_results = true);

  // Submits one request and waits for the SUBMIT_OK / SUBMIT_ERR ack.
  // True = accepted; false with reject_reason() set = rejected; false with
  // reject_reason() empty = transport error.
  bool submit(const Submit& request);

  // Next RESULT: from the stash, else blocking-read until one arrives.
  std::optional<Result> next_result();

  // Outcome of a bounded wait. Distinguishes "the daemon is slow" from
  // "the daemon is gone" so callers never hang forever or conflate the two
  // (revtr_cli client maps these to distinct exit codes).
  enum class WaitStatus : std::uint8_t {
    kOk = 0,        // A RESULT arrived; `out` is set.
    kTimeout,       // timeout elapsed; connection still usable.
    kDisconnected,  // EOF or undecodable bytes; connection closed.
  };

  // next_result() with a bounded wait: polls the socket so a vanished
  // daemon surfaces as kDisconnected instead of a hang. timeout_ms <= 0
  // waits forever (kTimeout is never returned).
  WaitStatus next_result_for(std::optional<Result>& out, int timeout_ms);

  // Pull mode: one POLL round trip. Appends up to `max_results` stashed
  // results and returns the server's remaining-pending count (empty on
  // transport error).
  std::optional<std::uint32_t> poll_results(std::uint32_t max_results = 16);

  // STATS round trip: the daemon's JSON snapshot text.
  std::optional<std::string> stats();

  // DRAIN: waits until the daemon finished every accepted request.
  std::optional<DrainDone> drain();

  // Reason from the most recent HELLO_ERR / SUBMIT_ERR.
  std::optional<RejectReason> reject_reason() const noexcept {
    return reject_reason_;
  }
  std::size_t stashed_results() const noexcept { return results_.size(); }

 private:
  bool send_frame(const Message& message);
  // Reads frames until one satisfies `want` (by FrameType), stashing
  // RESULTs encountered on the way. Empty on EOF or undecodable bytes.
  std::optional<Message> wait_for(FrameType a, FrameType b);

  FrameStream stream_;
  std::deque<Result> results_;
  std::optional<RejectReason> reject_reason_;
};

}  // namespace revtr::server
