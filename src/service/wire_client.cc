#include "service/wire_client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace remi {

Result<WireClient> WireClient::Connect(const std::string& host, int port,
                                       std::chrono::milliseconds recv_timeout) {
  auto fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  WireClient client(*fd);
  if (recv_timeout.count() > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(recv_timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>(recv_timeout.count() % 1000 * 1000);
    if (::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
      return Status::IoError(std::string("setsockopt SO_RCVTIMEO: ") +
                             std::strerror(errno));
    }
  }
  return client;
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      lines_(std::move(other.lines_)),
      frames_(std::move(other.frames_)) {}

Status WireClient::Send(std::string_view bytes) const {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status WireClient::SendLine(std::string_view line) const {
  return Send(std::string(line) + '\n');
}

Status WireClient::SendFrame(FrameVerb verb, uint64_t request_id,
                             std::string_view payload) const {
  std::string wire;
  AppendFrame(static_cast<uint8_t>(verb), request_id, payload, &wire);
  return Send(wire);
}

Result<size_t> WireClient::Receive(char* chunk, size_t size) const {
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, size, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n == 0) return Status::IoError("connection closed by the server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("no response within the receive timeout");
    }
    return Status::IoError(std::string("recv: ") + std::strerror(errno));
  }
}

Result<std::string> WireClient::ReadLine() {
  char chunk[16384];
  size_t scanned = 0;  // a long line is searched once, not once per recv
  for (;;) {
    const std::string_view pending = lines_.Pending();
    const size_t newline = pending.find('\n', scanned);
    if (newline != std::string_view::npos) {
      std::string line(pending.substr(0, newline));
      lines_.Consume(newline + 1);
      return line;
    }
    scanned = pending.size();
    auto n = Receive(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    lines_.Append(chunk, *n);
  }
}

Result<WireFrame> WireClient::ReadFrame() {
  char chunk[16384];
  for (;;) {
    FrameView frame;
    switch (frames_.Next(&frame)) {
      case FrameDecoder::Result::kFrame:
        return WireFrame{frame.verb, frame.request_id,
                         std::string(frame.payload)};
      case FrameDecoder::Result::kError:
        return frames_.status();
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    auto n = Receive(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    frames_.Feed(std::string_view(chunk, *n));
  }
}

Result<std::string> WireClient::LineRoundTrip(std::string_view request) {
  if (Status sent = SendLine(request); !sent.ok()) return sent;
  return ReadLine();
}

Result<std::string> WireClient::FrameRoundTrip(FrameVerb verb,
                                               std::string_view payload,
                                               uint64_t request_id) {
  if (Status sent = SendFrame(verb, request_id, payload); !sent.ok()) {
    return sent;
  }
  for (;;) {
    auto frame = ReadFrame();
    if (!frame.ok()) return frame.status();
    if (frame->request_id == request_id || frame->verb == 0) {
      return std::move(frame->payload);
    }
  }
}

void WireClient::ShutdownWrite() const { ::shutdown(fd_, SHUT_WR); }

bool WireClient::AtEof() {
  if (!lines_.Empty() || frames_.buffered_bytes() != 0) return false;
  char byte = 0;
  ssize_t n;
  do {
    n = ::recv(fd_, &byte, 1, 0);
  } while (n < 0 && errno == EINTR);
  return n == 0;
}

}  // namespace remi
