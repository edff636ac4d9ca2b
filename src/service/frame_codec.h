// Length-prefixed binary framing for the multiplexed wire protocol
// (EventServer, WireClient, the load generator).
//
// One connection carries many in-flight requests: every frame bears a
// client-chosen request id, responses are matched by id and may complete
// out of order. The payload of both requests and responses is the *same*
// JSON document the NDJSON debug protocol uses (json_codec.h), minus the
// transport newline — so a binary response payload is byte-identical to
// the NDJSON response line for the same request, and every knob
// ("deadline_ms", "metric", ...) works identically in both modes.
//
// Frame layout (integers little-endian):
//
//   offset  size  field
//   0       4     magic: the bytes 'R' 'E' 'M' 'I'
//   4       1     verb (FrameVerb; responses echo the request verb)
//   5       1     flags (reserved; must be 0)
//   6       2     reserved (must be 0)
//   8       8     request id (echoed verbatim on the response)
//   16      4     payload length in bytes
//   20      n     payload: one UTF-8 JSON document ("" == "{}")
//
// The first magic byte ('R') is how a server port autodetects the
// protocol: NDJSON requests start with '{' or whitespace. Anything else
// is rejected before a single payload byte is read.
//
// Error handling is two-tier, mirroring the NDJSON protocol:
//   * Request-level problems (unknown verb, bad JSON payload, service
//     errors) come back as an error *response frame* echoing the request
//     id; the connection survives.
//   * Stream-level problems (bad magic, nonzero reserved bits, a payload
//     length over the limit) poison the connection: frame boundaries can
//     no longer be trusted, so the peer gets one final error frame
//     (request id 0 if the header was unreadable) and the stream ends.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/socket_util.h"
#include "util/status.h"

namespace remi {

inline constexpr size_t kFrameHeaderBytes = 20;
inline constexpr char kFrameMagic[4] = {'R', 'E', 'M', 'I'};

/// Request verbs, 1:1 with the NDJSON "op" strings (FrameVerbToOp).
/// kCounters is the metrics surface: ServiceCounters plus the aggregated
/// mining stats, identical to the NDJSON "stats" op.
///
/// Multi-tenant verbs: kAttachKb/kDetachKb/kListKbs are the admin surface
/// of the named-KB registry. kUseKb is the binary name-table handshake —
/// it sets the connection's default tenant (payload {"kb":"<name>"}), so
/// subsequent frames without an explicit "kb" field serve from it. It is
/// handled on the server's loop thread in FIFO order with the frames
/// around it and never occupies a dispatch slot. Per-request "kb" fields
/// always win over the handshake default.
enum class FrameVerb : uint8_t {
  kPing = 1,
  kMine = 2,
  kBatchMine = 3,
  kSummarize = 4,
  kCandidates = 5,
  kCounters = 6,
  kReload = 7,
  kAttachKb = 8,
  kDetachKb = 9,
  kListKbs = 10,
  kUseKb = 11,
};

/// The NDJSON "op" string for a verb byte; nullptr for unknown verbs.
const char* FrameVerbToOp(uint8_t verb);

/// One decoded frame. `payload` points into the decoder's buffer and is
/// valid until the next Feed()/Next() call.
struct FrameView {
  uint8_t verb = 0;
  uint64_t request_id = 0;
  std::string_view payload;
};

/// Appends one encoded frame to `out`.
void AppendFrame(uint8_t verb, uint64_t request_id, std::string_view payload,
                 std::string* out);

/// \brief Incremental frame decoder over an offset-consumed buffer.
///
/// Feed() bytes as they arrive (arbitrary split points — a header may
/// span many reads); Next() yields complete frames. Uses the same
/// amortized-O(1) buffer discipline as the NDJSON path (ConsumedBuffer):
/// pipelined frames never trigger per-recv tail memmoves.
class FrameDecoder {
 public:
  /// \param max_payload_bytes frames declaring a longer payload are a
  ///        stream-level error (kError), reported *before* buffering the
  ///        payload — a lying length cannot make the server allocate it.
  explicit FrameDecoder(size_t max_payload_bytes)
      : max_payload_bytes_(max_payload_bytes) {}

  void Feed(std::string_view data) { buffer_.Append(data); }

  enum class Result {
    kFrame,     ///< *out holds the next frame
    kNeedMore,  ///< no complete frame buffered; Feed() more
    kError,     ///< stream poisoned (see status()); no further frames
  };

  /// Yields the next complete frame. After kError the decoder stays
  /// poisoned: the stream has no trustworthy frame boundary left.
  Result Next(FrameView* out);

  /// The stream-level error after kError.
  const Status& status() const { return status_; }

  /// Request id of the frame whose header caused the error (0 when the
  /// header itself was unreadable) — lets the transport address the
  /// final error frame.
  uint64_t error_request_id() const { return error_request_id_; }

  /// Bytes received but not yet returned as a frame.
  size_t buffered_bytes() const {
    return buffer_.PendingSize() - pending_consume_;
  }

 private:
  size_t max_payload_bytes_;
  ConsumedBuffer buffer_;
  size_t pending_consume_ = 0;  ///< previous frame, consumed lazily
  bool poisoned_ = false;
  Status status_ = Status::OK();
  uint64_t error_request_id_ = 0;
};

/// How a server port interprets the first byte of a connection.
enum class WireMode : uint8_t {
  kUnknown,  ///< nothing received yet
  kNdjson,   ///< '{' or whitespace: newline-delimited JSON debug mode
  kBinary,   ///< 'R': length-prefixed frames
  kInvalid,  ///< anything else: not a protocol we speak
};

/// Sniffs the protocol from the first received byte.
WireMode SniffWireMode(char first_byte);

}  // namespace remi
