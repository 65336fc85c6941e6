#include "server/stream.h"

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
#include <thread>

namespace revtr::server {

namespace {

// Large enough that one read drains a burst of frames.
constexpr std::size_t kReadChunk = 65536;

}  // namespace

bool FrameStream::connect(const std::string& socket_path, int retries) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      adopt(fd);
      return true;
    }
    ::close(fd);
  }
  return false;
}

void FrameStream::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
  consumed_ = 0;
  out_ = Output{};
  hung_up_ = false;
  protocol_error_ = false;
}

void FrameStream::Output::queue(std::span<const std::uint8_t> frame) {
  bytes_.insert(bytes_.end(), frame.begin(), frame.end());
}

FrameStream::Status FrameStream::Output::flush(int fd) {
  std::size_t sent = 0;
  Status status = Status::kOk;
  while (sent < bytes_.size()) {
    // MSG_NOSIGNAL: a peer that hung up fails the send with EPIPE instead
    // of killing this process with SIGPIPE.
    const ssize_t n = ::send(fd, bytes_.data() + sent, bytes_.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    status = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)
                 ? Status::kWouldBlock
                 : Status::kHungUp;
    break;
  }
  bytes_.erase(bytes_.begin(),
               bytes_.begin() + static_cast<std::ptrdiff_t>(sent));
  return status;
}

FrameStream::Status FrameStream::flush() {
  const Status status = out_.flush(fd_);
  if (status == Status::kHungUp) hung_up_ = true;
  return status;
}

FrameStream::Status FrameStream::send(const Message& message) {
  if (fd_ < 0 || hung_up_) return Status::kHungUp;
  queue(message);
  return flush();
}

bool FrameStream::read_once() {
  std::array<std::uint8_t, kReadChunk> buf;
  const ssize_t n = ::read(fd_, buf.data(), buf.size());
  if (n > 0) {
    in_.insert(in_.end(), buf.data(), buf.data() + n);
    return true;
  }
  if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
    hung_up_ = true;
  }
  return false;
}

void FrameStream::drop_consumed() {
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
}

void FrameStream::fill() {
  if (protocol_error_) return;
  drop_consumed();
  while (read_once()) {
  }
}

std::optional<Message> FrameStream::next() {
  if (protocol_error_) return std::nullopt;
  const auto avail = std::span<const std::uint8_t>(in_).subspan(consumed_);
  if (avail.size() < kFrameHeaderSize) return std::nullopt;
  const auto header = decode_frame_header(avail);
  if (!header.has_value()) {
    protocol_error_ = true;
    return std::nullopt;
  }
  const std::size_t total = kFrameHeaderSize + header->payload_len;
  if (avail.size() < total) return std::nullopt;
  auto message = decode_payload(
      header->type, avail.subspan(kFrameHeaderSize, header->payload_len));
  if (!message.has_value()) {
    protocol_error_ = true;
    return std::nullopt;
  }
  consumed_ += total;
  return message;
}

FrameStream::Status FrameStream::read(std::optional<Message>& out,
                                      int timeout_ms) {
  out.reset();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(timeout_ms, 0));
  for (;;) {
    out = next();
    if (out.has_value()) return Status::kOk;
    if (protocol_error_) return Status::kProtocolError;
    if (hung_up_ || fd_ < 0) return Status::kHungUp;
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      wait_ms = static_cast<int>(std::clamp<long long>(
          left, 0, std::numeric_limits<int>::max()));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc == 0) return Status::kTimeout;
    if (rc < 0) {
      if (errno != EINTR) hung_up_ = true;
      continue;
    }
    drop_consumed();
    read_once();
  }
}

}  // namespace revtr::server
