#include "server/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <span>
#include <thread>
#include <utility>

namespace revtr::server {

DaemonClient::~DaemonClient() { close(); }

void DaemonClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

bool DaemonClient::connect(const std::string& socket_path, int retries) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt <= retries; ++attempt) {
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      fd_ = fd;
      return true;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

bool DaemonClient::send_frame(const Message& message) {
  if (fd_ < 0) return false;
  const auto frame = encode_frame(message);
  std::size_t written = 0;
  while (written < frame.size()) {
    // MSG_NOSIGNAL: a daemon that hung up fails the send, not the process.
    const ssize_t n = send(fd_, frame.data() + written,
                           frame.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<Message> DaemonClient::read_frame() {
  if (fd_ < 0) return std::nullopt;
  std::array<std::uint8_t, 16384> buf;
  for (;;) {
    // Try to decode a whole frame from what we have.
    const std::span<const std::uint8_t> avail(in_);
    if (avail.size() >= kFrameHeaderSize) {
      FrameError error = FrameError::kNone;
      const auto header = decode_frame_header(avail, &error);
      if (!header.has_value()) return std::nullopt;
      const std::size_t total = kFrameHeaderSize + header->payload_len;
      if (avail.size() >= total) {
        auto decoded = decode_payload(
            header->type, avail.subspan(kFrameHeaderSize, header->payload_len),
            &error);
        in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(total));
        return decoded;
      }
    }
    const ssize_t n = read(fd_, buf.data(), buf.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;  // EOF or hard error.
    }
    in_.insert(in_.end(), buf.data(), buf.data() + n);
  }
}

std::optional<Message> DaemonClient::wait_for(FrameType a, FrameType b) {
  for (;;) {
    auto message = read_frame();
    if (!message.has_value()) return std::nullopt;
    const FrameType type = frame_type_of(*message);
    if (type == a || type == b) return message;
    if (Result* result = std::get_if<Result>(&*message)) {
      results_.push_back(std::move(*result));
      continue;
    }
    return std::nullopt;  // Unexpected interleaved frame: protocol error.
  }
}

std::optional<HelloOk> DaemonClient::hello(const std::string& api_key,
                                           bool push_results) {
  reject_reason_.reset();
  Hello request;
  request.proto_version = kProtoVersion;
  request.push_results = push_results;
  request.api_key = api_key;
  if (!send_frame(request)) return std::nullopt;
  auto reply = wait_for(FrameType::kHelloOk, FrameType::kHelloErr);
  if (!reply.has_value()) return std::nullopt;
  if (const HelloErr* err = std::get_if<HelloErr>(&*reply)) {
    reject_reason_ = err->reason;
    return std::nullopt;
  }
  return std::get<HelloOk>(*std::move(reply));
}

bool DaemonClient::submit(const Submit& request) {
  reject_reason_.reset();
  if (!send_frame(request)) return false;
  auto reply = wait_for(FrameType::kSubmitOk, FrameType::kSubmitErr);
  if (!reply.has_value()) return false;
  if (const SubmitErr* err = std::get_if<SubmitErr>(&*reply)) {
    reject_reason_ = err->reason;
    return false;
  }
  return true;
}

std::optional<Result> DaemonClient::next_result() {
  if (!results_.empty()) {
    Result result = std::move(results_.front());
    results_.pop_front();
    return result;
  }
  for (;;) {
    auto message = read_frame();
    if (!message.has_value()) return std::nullopt;
    if (Result* result = std::get_if<Result>(&*message)) {
      return std::move(*result);
    }
    // Any other frame here is unexpected (we only read results between
    // round trips); drop it rather than desynchronize.
  }
}

DaemonClient::WaitStatus DaemonClient::next_result_for(
    std::optional<Result>& out, int timeout_ms) {
  out.reset();
  if (!results_.empty()) {
    out = std::move(results_.front());
    results_.pop_front();
    return WaitStatus::kOk;
  }
  if (fd_ < 0) return WaitStatus::kDisconnected;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::array<std::uint8_t, 16384> buf;
  for (;;) {
    // Decode every whole frame already buffered before touching the socket.
    for (;;) {
      const std::span<const std::uint8_t> avail(in_);
      if (avail.size() < kFrameHeaderSize) break;
      FrameError error = FrameError::kNone;
      const auto header = decode_frame_header(avail, &error);
      if (!header.has_value()) {
        close();
        return WaitStatus::kDisconnected;
      }
      const std::size_t total = kFrameHeaderSize + header->payload_len;
      if (avail.size() < total) break;
      auto decoded = decode_payload(
          header->type, avail.subspan(kFrameHeaderSize, header->payload_len),
          &error);
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(total));
      if (!decoded.has_value()) {
        close();
        return WaitStatus::kDisconnected;
      }
      if (Result* result = std::get_if<Result>(&*decoded)) {
        out = std::move(*result);
        return WaitStatus::kOk;
      }
      // Other frames between round trips are dropped, like next_result().
    }
    int wait_ms = -1;
    if (timeout_ms > 0) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (left <= 0) return WaitStatus::kTimeout;
      wait_ms = static_cast<int>(
          std::min<long long>(left, std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc == 0) return WaitStatus::kTimeout;
    if (rc < 0) {
      if (errno == EINTR) continue;
      close();
      return WaitStatus::kDisconnected;
    }
    const ssize_t n = read(fd_, buf.data(), buf.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close();  // EOF or hard error: the daemon went away mid-wait.
      return WaitStatus::kDisconnected;
    }
    in_.insert(in_.end(), buf.data(), buf.data() + n);
  }
}

std::optional<std::uint32_t> DaemonClient::poll_results(
    std::uint32_t max_results) {
  Poll request;
  request.max_results = max_results;
  if (!send_frame(request)) return std::nullopt;
  auto reply = wait_for(FrameType::kPollDone, FrameType::kPollDone);
  if (!reply.has_value()) return std::nullopt;
  return std::get<PollDone>(*reply).pending;
}

std::optional<std::string> DaemonClient::stats() {
  if (!send_frame(Stats{})) return std::nullopt;
  auto reply = wait_for(FrameType::kStatsReply, FrameType::kStatsReply);
  if (!reply.has_value()) return std::nullopt;
  return std::get<StatsReply>(*std::move(reply)).json;
}

std::optional<DrainDone> DaemonClient::drain() {
  if (!send_frame(Drain{})) return std::nullopt;
  auto reply = wait_for(FrameType::kDrainDone, FrameType::kDrainDone);
  if (!reply.has_value()) return std::nullopt;
  return std::get<DrainDone>(*reply);
}

}  // namespace revtr::server
