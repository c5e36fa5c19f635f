#ifndef DAVIX_MUXHTTP_FRAME_H_
#define DAVIX_MUXHTTP_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "http/message.h"
#include "net/buffered_reader.h"

namespace davix {
namespace muxhttp {

/// The framed multiplexing wire protocol (the paper's §2.2 SPDY-style
/// alternative, promoted from a demo into a real client transport).
///
/// One TCP connection carries any number of concurrent streams; each
/// stream is one HTTP request/response exchange. Frames from different
/// streams interleave freely, so one slow response never head-of-line
/// blocks the others — the trade-off §2.2 weighs against pooled
/// HTTP/1.1's one-socket-per-request.
///
/// Wire format per frame (all integers little-endian):
///
///   u32 stream_id | u8 type | u8 flags | u32 payload length | payload
///
/// Frame types:
///   HEADERS  payload = a serialised HTTP head (request line or status
///            line, headers, blank line — no body bytes). Opens the
///            stream in the sending direction.
///   DATA     payload = a chunk of body bytes, appended in frame order.
///   RST      payload = 1-byte error code + UTF-8 message. Kills one
///            stream without touching the connection.
///
/// The END_STREAM flag on a HEADERS or DATA frame marks the last frame
/// of that direction of the stream. Bodies are therefore delimited by
/// framing, not by Content-Length; when a Content-Length is present it
/// is cross-checked (mismatch = per-stream error), except that a
/// declared length with a zero-length body is accepted — the shape of a
/// HEAD response.
///
/// Protocol violations are split deliberately:
///   - a RST, a malformed HTTP head, or a body-length mismatch is a
///     *stream* error: that exchange fails, the connection lives on;
///   - an unknown frame type, unknown flags, an oversized length, a
///     duplicate HEADERS, or DATA for a stream never opened is a
///     *connection* error: framing sync is gone, tear it all down.
constexpr size_t kMuxFrameHeaderSize = 10;
constexpr uint32_t kMaxMuxPayload = 256 * 1024 * 1024;
/// Body bytes per DATA frame on the send path. Small enough that other
/// streams' frames can slot into a multi-megabyte response, large
/// enough to amortise the 10-byte header.
constexpr size_t kMuxDataChunkBytes = 64 * 1024;

/// Frame kinds on the wire: HEADERS opens a stream and carries the
/// serialized HTTP head, DATA carries body bytes, RST kills one stream.
enum class MuxFrameType : uint8_t {
  kHeaders = 1,
  kData = 2,
  kRst = 3,
};

/// Last frame of this direction of the stream.
constexpr uint8_t kMuxFlagEndStream = 0x01;

/// Error codes carried in the first payload byte of a RST frame.
enum class MuxRstCode : uint8_t {
  kProtocolError = 1,  ///< peer violated the stream's HTTP contract
  kInternalError = 2,  ///< handler failed; nothing wrong with the request
  kRefusedStream = 3,  ///< per-connection stream limit hit; retry elsewhere
  kCancelled = 4,      ///< sender lost interest (deadline expiry, close)
};

/// One decoded frame.
struct MuxFrame {
  uint32_t stream_id = 0;
  MuxFrameType type = MuxFrameType::kHeaders;
  uint8_t flags = 0;
  std::string payload;

  bool end_stream() const { return (flags & kMuxFlagEndStream) != 0; }
};

/// Encodes the 10-byte header of a frame whose `length`-byte payload
/// follows it on the wire.
std::string EncodeMuxFrameHeader(uint32_t stream_id, MuxFrameType type,
                                 uint8_t flags, uint32_t length);

/// Decodes the header at the front of `bytes` (≥ kMuxFrameHeaderSize
/// long) into a frame still without its `*length`-byte payload, for both
/// the blocking reader and the server's codec. kProtocolError on a zero
/// stream id, unknown type or flag bits, or a length above kMaxMuxPayload.
Result<MuxFrame> DecodeMuxFrameHeader(std::string_view bytes,
                                      uint32_t* length);

/// Serialises one frame (header + payload) for the wire.
std::string SerializeMuxFrame(const MuxFrame& frame);

/// Convenience form building the frame inline.
std::string SerializeMuxFrame(uint32_t stream_id, MuxFrameType type,
                              uint8_t flags, std::string_view payload);

/// Reads and validates one frame (see DecodeMuxFrameHeader) — without
/// consuming an oversized payload (never over-reads). kConnectionReset
/// on EOF mid-frame.
Result<MuxFrame> ReadMuxFrame(net::BufferedReader* reader);

/// Builds / parses the RST payload (code byte + message).
std::string MakeRstPayload(MuxRstCode code, std::string_view message);

/// A decoded RST payload: the error code plus its free-text message.
struct MuxRstInfo {
  MuxRstCode code = MuxRstCode::kInternalError;
  std::string message;
};
Result<MuxRstInfo> ParseMuxRstPayload(std::string_view payload);

/// Maps a received RST to the Status the stream's caller sees.
/// kRefusedStream and kInternalError are retryable (kRemoteError /
/// kConnectionFailed); kCancelled maps to kCancelled; kProtocolError to
/// kProtocolError.
Status RstToStatus(const MuxRstInfo& rst);

/// Splits one HTTP message (pre-serialised head + body) into the frame
/// sequence that carries it: HEADERS, then DATA chunks of `chunk_bytes`,
/// END_STREAM on the last frame (on HEADERS itself when the body is
/// empty).
std::vector<MuxFrame> FrameMessage(uint32_t stream_id, std::string head,
                                   std::string_view body,
                                   size_t chunk_bytes = kMuxDataChunkBytes);

/// Reassembles interleaved frames back into complete HTTP messages —
/// the per-connection demux state machine shared by the client (frames
/// in are responses) and the server (frames in are requests).
///
/// OnFrame returns:
///   - an error Status: *connection-fatal* protocol violation — the
///     caller must tear the connection down (every stream dies);
///   - an Event with `stream_error`: that one stream failed (peer RST,
///     malformed head, body-length mismatch); other streams unaffected;
///   - an Event with a complete `request`/`response`;
///   - nullopt: frame absorbed, message still assembling.
///
/// In kResponse mode the set of legal stream ids is closed: the client
/// registers each id via ExpectStream before its request hits the wire,
/// and frames for unregistered ids are connection-fatal (except ids
/// released by Forget — a locally cancelled stream's late frames are
/// dropped silently). In kRequest mode HEADERS opens streams
/// implicitly.
///
/// Thread-safe: no — one assembler belongs to one connection's reader;
/// core::MuxConnection guards it with a mutex because cancel/expect
/// arrive from requester threads.
class MuxStreamAssembler {
 public:
  enum class Mode { kRequest, kResponse };

  struct Event {
    uint32_t stream_id = 0;
    /// Exactly one of the three is set.
    std::optional<http::HttpRequest> request;
    std::optional<http::HttpResponse> response;
    std::optional<Status> stream_error;
  };

  explicit MuxStreamAssembler(Mode mode) : mode_(mode) {}

  /// Feeds one frame; see the class comment for the outcome contract.
  Result<std::optional<Event>> OnFrame(MuxFrame frame);

  /// kResponse mode: registers a stream id about to be used for a
  /// request. `head_only` marks HEAD exchanges, whose responses may
  /// declare a Content-Length they never send.
  void ExpectStream(uint32_t stream_id, bool head_only);

  /// Releases a stream (local cancel / delivery done): state is dropped
  /// and late frames for the id are ignored instead of fatal.
  void Forget(uint32_t stream_id);

  /// Streams currently open or expected (not yet completed/forgotten).
  size_t open_streams() const;

 private:
  struct StreamState {
    bool have_head = false;
    bool head_only = false;
    std::optional<uint64_t> declared_length;
    http::HttpRequest request;
    http::HttpResponse response;
    std::string body;
  };

  /// Completes or fails the stream; always closes it.
  Event FinishStream(uint32_t stream_id, StreamState state);
  Event FailStream(uint32_t stream_id, Status status);

  Mode mode_;
  std::unordered_map<uint32_t, StreamState> streams_;
  /// Ids released by Forget whose late frames must be tolerated. Pruned
  /// wholesale when it grows past a bound — a tolerated id resurfacing
  /// after that many other streams is a peer bug we surface instead.
  std::unordered_set<uint32_t> forgotten_;
};

}  // namespace muxhttp
}  // namespace davix

#endif  // DAVIX_MUXHTTP_FRAME_H_
