// One framed connection: the wire layer every speaker of server/frame.h
// shares. The daemon's net loop, DaemonClient and AgentDaemon all read and
// write frames through it.
//
// A FrameStream owns a connected AF_UNIX stream socket, the bytes read but
// not yet decoded (with a consumed offset, so decoding a burst of frames
// moves no memory), and the bytes queued but not yet sent. One error policy
// holds for every caller:
//
//   - a partial frame waits for more bytes; it is never an error;
//   - undecodable bytes are a protocol error: next() stops there, nothing
//     more is read, and protocol_error() stays true;
//   - EOF, EPIPE and ECONNRESET (any failed read or send) mean the peer
//     hung up, and hung_up() stays true. Frames that arrived before the
//     hang-up can still be decoded: read() returns them first.
//
// The daemon drives non-blocking sockets under its own poll(): fill(), then
// next() until it is empty. It sends through one FrameStream::Output per
// connection, which it shares with its workers under a lock, so a worker
// sends the RESULT it finished while the net thread reads the same socket.
// Blocking callers use send() and read(timeout). Not thread-safe: a stream
// belongs to one thread at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "server/frame.h"

namespace revtr::server {

class FrameStream {
 public:
  enum class Status : std::uint8_t {
    kOk = 0,         // read: a message arrived; flush/send: all bytes sent.
    kWouldBlock,     // flush: the socket is full; the rest stays queued.
    kTimeout,        // read: no whole frame within the timeout.
    kHungUp,         // The peer hung up (EOF, EPIPE, ECONNRESET).
    kProtocolError,  // Undecodable bytes arrived.
  };

  // The sending half: encoded frames queued until flush() puts them on a
  // socket it does not own. Each FrameStream sends through its own.
  class Output {
   public:
    void queue(const Message& message) { append_frame(bytes_, message); }
    void queue(std::span<const std::uint8_t> frame);
    bool empty() const noexcept { return bytes_.empty(); }
    // Sends queued bytes on `fd` until none are left (kOk), the socket
    // would block (kWouldBlock), or the peer hung up (kHungUp).
    Status flush(int fd);

   private:
    std::vector<std::uint8_t> bytes_;
  };

  FrameStream() = default;
  ~FrameStream() { close(); }
  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;

  // Connects a blocking socket to `socket_path`, retrying (20 ms apart) up
  // to `retries` times while the daemon is still binding.
  bool connect(const std::string& socket_path, int retries);
  // Takes ownership of an already connected socket (the daemon's accept4).
  void adopt(int fd) noexcept {
    close();
    fd_ = fd;
  }
  bool is_open() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  // Closes the socket and resets the buffers and the hang-up/error state.
  void close() noexcept;

  bool hung_up() const noexcept { return hung_up_; }
  bool protocol_error() const noexcept { return protocol_error_; }

  // --- Output. ---
  void queue(const Message& message) { out_.queue(message); }
  // An already-encoded frame.
  void queue(std::span<const std::uint8_t> frame) { out_.queue(frame); }
  // Sends queued bytes until none are left (kOk), the socket would block
  // (kWouldBlock), or the peer hung up (kHungUp).
  Status flush();
  // queue + flush, for blocking sockets.
  Status send(const Message& message);

  // --- Input. ---
  // Non-blocking sockets: reads until the socket would block or the peer
  // hangs up.
  void fill();
  // The next whole buffered frame; nullopt when none is (or after a
  // protocol error).
  std::optional<Message> next();
  // Blocking sockets: the next frame, reading as needed for up to
  // `timeout_ms` (< 0 waits forever). `out` is set only on kOk.
  Status read(std::optional<Message>& out, int timeout_ms);

 private:
  // One read(2) into a stack buffer, appending only the bytes read; marks
  // the peer hung up on EOF or a hard error. True when bytes arrived.
  bool read_once();
  // Drops the decoded prefix of in_ (once per read, not once per frame).
  void drop_consumed();

  int fd_ = -1;
  std::vector<std::uint8_t> in_;
  std::size_t consumed_ = 0;  // Bytes of in_ already decoded.
  Output out_;
  bool hung_up_ = false;
  bool protocol_error_ = false;
};

}  // namespace revtr::server
