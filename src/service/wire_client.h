// The one blocking client of remi_server's two wire protocols: NDJSON
// lines and length-prefixed frames (frame_codec.h). remi_cli, the load
// generator, the chaos soak and the service tests all use it.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "service/frame_codec.h"
#include "service/socket_util.h"
#include "util/status.h"

namespace remi {

/// One response frame, owning its payload.
struct WireFrame {
  uint8_t verb = 0;
  uint64_t request_id = 0;
  std::string payload;
};

/// \brief A blocking client over one TCP connection.
///
/// The server picks the protocol from a connection's first byte, so a
/// connection speaks one of them; line and frame reads keep separate
/// buffers. A peer that closed or reset the connection is IoError, an
/// expired receive timeout is Timeout. Send may run on one thread while
/// another reads; two reads may not run at once.
///
/// The client makes raw syscalls, never io::Hooks(): a test or soak that
/// installs a FaultInjector faults the server while its clients stay
/// clean.
class WireClient {
 public:
  /// Connects to `host` (an IPv4 literal) on `port`; InvalidArgument
  /// for a port outside [1, 65535], without opening a socket. A nonzero
  /// `recv_timeout` bounds every blocking read; zero waits forever.
  static Result<WireClient> Connect(
      const std::string& host, int port,
      std::chrono::milliseconds recv_timeout = std::chrono::milliseconds(0));

  WireClient(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  ~WireClient();

  /// Sends all of `bytes`; a peer that is gone is IoError, not SIGPIPE.
  Status Send(std::string_view bytes) const;
  /// Sends `line` and the newline that ends an NDJSON request.
  Status SendLine(std::string_view line) const;
  Status SendFrame(FrameVerb verb, uint64_t request_id,
                   std::string_view payload) const;

  /// The next response line, without its newline.
  Result<std::string> ReadLine();
  /// The next response frame, whatever its request id.
  Result<WireFrame> ReadFrame();

  /// SendLine, then ReadLine.
  Result<std::string> LineRoundTrip(std::string_view request);
  /// Sends one frame and returns the payload of the response that echoes
  /// `request_id`, skipping other ids. A verb-0 frame is the server's
  /// stream-level error, after which nothing else arrives; its payload
  /// is returned too.
  Result<std::string> FrameRoundTrip(FrameVerb verb, std::string_view payload,
                                     uint64_t request_id = 1);

  /// Half-closes: the server reads EOF after the bytes already sent and
  /// still writes its responses.
  void ShutdownWrite() const;

  /// True iff nothing is buffered and the next recv(2) reads a clean
  /// EOF; any further byte, a reset or a timeout is false.
  bool AtEof();

 private:
  explicit WireClient(int fd) : fd_(fd) {}

  /// One recv(2) into `chunk`: at least one byte, or the error.
  Result<size_t> Receive(char* chunk, size_t size) const;

  int fd_ = -1;
  ConsumedBuffer lines_;
  FrameDecoder frames_{/*max_payload_bytes=*/64u << 20};
};

}  // namespace remi
