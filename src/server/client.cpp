#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

namespace revtr::server {

bool DaemonClient::connect(const std::string& socket_path, int retries) {
  return stream_.connect(socket_path, retries);
}

void DaemonClient::close() { stream_.close(); }

bool DaemonClient::send_frame(const Message& message) {
  return stream_.send(message) == FrameStream::Status::kOk;
}

std::optional<Message> DaemonClient::wait_for(FrameType a, FrameType b) {
  for (;;) {
    std::optional<Message> message;
    if (stream_.read(message, /*timeout_ms=*/-1) != FrameStream::Status::kOk) {
      return std::nullopt;
    }
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
  std::optional<Result> out;
  next_result_for(out, /*timeout_ms=*/0);
  return out;
}

DaemonClient::WaitStatus DaemonClient::next_result_for(
    std::optional<Result>& out, int timeout_ms) {
  out.reset();
  if (!results_.empty()) {
    out = std::move(results_.front());
    results_.pop_front();
    return WaitStatus::kOk;
  }
  if (!stream_.is_open()) return WaitStatus::kDisconnected;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wait_ms = -1;
    if (timeout_ms > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      wait_ms = static_cast<int>(std::clamp<long long>(
          left, 0, std::numeric_limits<int>::max()));
    }
    std::optional<Message> message;
    const FrameStream::Status status = stream_.read(message, wait_ms);
    if (status == FrameStream::Status::kTimeout) return WaitStatus::kTimeout;
    if (status != FrameStream::Status::kOk) {
      close();  // EOF or undecodable bytes: the daemon went away mid-wait.
      return WaitStatus::kDisconnected;
    }
    if (Result* result = std::get_if<Result>(&*message)) {
      out = std::move(*result);
      return WaitStatus::kOk;
    }
    // Any other frame here is unexpected (results are read between round
    // trips); drop it rather than desynchronize.
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
