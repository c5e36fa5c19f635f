#include "muxhttp/frame.h"

#include <utility>

#include "http/parser.h"
#include "net/byte_source.h"

namespace davix {
namespace muxhttp {
namespace {

/// Beyond this many tolerated post-Forget ids the set is cleared: a
/// cancelled stream's late frames arrive promptly or not at all, and an
/// id resurfacing after hundreds of other streams is a peer bug better
/// surfaced as a connection error than masked forever.
constexpr size_t kMaxForgottenStreams = 1024;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

bool KnownFrameType(uint8_t type) {
  return type == static_cast<uint8_t>(MuxFrameType::kHeaders) ||
         type == static_cast<uint8_t>(MuxFrameType::kData) ||
         type == static_cast<uint8_t>(MuxFrameType::kRst);
}

/// Parses a head-only payload (no body bytes follow in the source).
Result<http::HttpRequest> ParseRequestHead(std::string head) {
  net::StringSource source(std::move(head));
  net::BufferedReader reader(&source);
  DAVIX_ASSIGN_OR_RETURN(http::HttpRequest request,
                         http::MessageReader::ReadRequestHead(&reader));
  if (source.remaining() > 0 || reader.HasBuffered()) {
    return Status::ProtocolError("bytes after request head in HEADERS frame");
  }
  return request;
}

Result<http::HttpResponse> ParseResponseHead(std::string head) {
  net::StringSource source(std::move(head));
  net::BufferedReader reader(&source);
  DAVIX_ASSIGN_OR_RETURN(http::HttpResponse response,
                         http::MessageReader::ReadResponseHead(&reader));
  if (source.remaining() > 0 || reader.HasBuffered()) {
    return Status::ProtocolError("bytes after response head in HEADERS frame");
  }
  return response;
}

}  // namespace

std::string SerializeMuxFrame(const MuxFrame& frame) {
  std::string out;
  out.reserve(kMuxFrameHeaderSize + frame.payload.size());
  PutU32(&out, frame.stream_id);
  out.push_back(static_cast<char>(frame.type));
  out.push_back(static_cast<char>(frame.flags));
  PutU32(&out, static_cast<uint32_t>(frame.payload.size()));
  out.append(frame.payload);
  return out;
}

std::string SerializeMuxFrame(uint32_t stream_id, MuxFrameType type,
                              uint8_t flags, std::string_view payload) {
  MuxFrame frame;
  frame.stream_id = stream_id;
  frame.type = type;
  frame.flags = flags;
  frame.payload = std::string(payload);
  return SerializeMuxFrame(frame);
}

Result<MuxFrame> ReadMuxFrame(net::BufferedReader* reader) {
  std::string head;
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&head, kMuxFrameHeaderSize));
  MuxFrame frame;
  frame.stream_id = GetU32(head.data());
  uint8_t raw_type = static_cast<uint8_t>(head[4]);
  frame.flags = static_cast<uint8_t>(head[5]);
  uint32_t length = GetU32(head.data() + 6);
  if (frame.stream_id == 0) {
    return Status::ProtocolError("mux frame with stream id 0");
  }
  if (!KnownFrameType(raw_type)) {
    return Status::ProtocolError("unknown mux frame type " +
                                 std::to_string(raw_type));
  }
  frame.type = static_cast<MuxFrameType>(raw_type);
  if ((frame.flags & ~kMuxFlagEndStream) != 0) {
    return Status::ProtocolError("unknown mux frame flags 0x" +
                                 std::to_string(frame.flags));
  }
  if (length > kMaxMuxPayload) {
    // Validated before any payload byte is consumed: an attacker cannot
    // make the reader allocate or read past the declared bound.
    return Status::ProtocolError("mux frame payload too large (" +
                                 std::to_string(length) + " bytes)");
  }
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&frame.payload, length));
  return frame;
}

std::string MakeRstPayload(MuxRstCode code, std::string_view message) {
  std::string out;
  out.reserve(1 + message.size());
  out.push_back(static_cast<char>(code));
  out.append(message);
  return out;
}

Result<MuxRstInfo> ParseMuxRstPayload(std::string_view payload) {
  if (payload.empty()) {
    return Status::ProtocolError("empty mux RST payload");
  }
  uint8_t raw = static_cast<uint8_t>(payload[0]);
  if (raw < static_cast<uint8_t>(MuxRstCode::kProtocolError) ||
      raw > static_cast<uint8_t>(MuxRstCode::kCancelled)) {
    return Status::ProtocolError("unknown mux RST code " +
                                 std::to_string(raw));
  }
  MuxRstInfo info;
  info.code = static_cast<MuxRstCode>(raw);
  info.message = std::string(payload.substr(1));
  return info;
}

Status RstToStatus(const MuxRstInfo& rst) {
  std::string message =
      rst.message.empty() ? std::string("stream reset by peer") : rst.message;
  switch (rst.code) {
    case MuxRstCode::kProtocolError:
      return Status::ProtocolError("mux stream reset: " + message);
    case MuxRstCode::kInternalError:
      return Status::RemoteError("mux stream reset: " + message);
    case MuxRstCode::kRefusedStream:
      // Retryable on another connection — maps to the same code a failed
      // connect produces, which Execute's retry loop already handles.
      return Status::ConnectionFailed("mux stream refused: " + message);
    case MuxRstCode::kCancelled:
      return Status::Cancelled("mux stream cancelled: " + message);
  }
  return Status::ProtocolError("mux stream reset: " + message);
}

std::vector<MuxFrame> FrameMessage(uint32_t stream_id, std::string head,
                                   std::string_view body,
                                   size_t chunk_bytes) {
  if (chunk_bytes == 0) chunk_bytes = kMuxDataChunkBytes;
  std::vector<MuxFrame> frames;
  frames.reserve(2 + body.size() / chunk_bytes);
  MuxFrame headers;
  headers.stream_id = stream_id;
  headers.type = MuxFrameType::kHeaders;
  headers.flags = body.empty() ? kMuxFlagEndStream : 0;
  headers.payload = std::move(head);
  frames.push_back(std::move(headers));
  for (size_t offset = 0; offset < body.size(); offset += chunk_bytes) {
    size_t n = std::min(chunk_bytes, body.size() - offset);
    MuxFrame data;
    data.stream_id = stream_id;
    data.type = MuxFrameType::kData;
    data.flags = (offset + n == body.size()) ? kMuxFlagEndStream : 0;
    data.payload = std::string(body.substr(offset, n));
    frames.push_back(std::move(data));
  }
  return frames;
}

// ------------------------------------------------------ stream assembler

void MuxStreamAssembler::ExpectStream(uint32_t stream_id, bool head_only) {
  StreamState state;
  state.head_only = head_only;
  streams_.emplace(stream_id, std::move(state));
  forgotten_.erase(stream_id);
}

void MuxStreamAssembler::Forget(uint32_t stream_id) {
  if (streams_.erase(stream_id) > 0) {
    if (forgotten_.size() >= kMaxForgottenStreams) forgotten_.clear();
    forgotten_.insert(stream_id);
  }
}

size_t MuxStreamAssembler::open_streams() const { return streams_.size(); }

MuxStreamAssembler::Event MuxStreamAssembler::FailStream(uint32_t stream_id,
                                                         Status status) {
  streams_.erase(stream_id);
  Event event;
  event.stream_id = stream_id;
  event.stream_error = std::move(status);
  return event;
}

MuxStreamAssembler::Event MuxStreamAssembler::FinishStream(
    uint32_t stream_id, StreamState state) {
  streams_.erase(stream_id);
  // Cross-check framing against the declared Content-Length. A declared
  // length with zero body bytes is the legal shape of a HEAD response
  // (the peer tells us the entity size without sending it).
  if (state.declared_length.has_value() &&
      *state.declared_length != state.body.size() &&
      !(state.body.empty() && state.head_only)) {
    return FailStream(
        stream_id,
        Status::ProtocolError(
            "mux stream body length mismatch: declared " +
            std::to_string(*state.declared_length) + ", framed " +
            std::to_string(state.body.size())));
  }
  Event event;
  event.stream_id = stream_id;
  if (mode_ == Mode::kRequest) {
    state.request.body = std::move(state.body);
    event.request = std::move(state.request);
  } else {
    state.response.body = std::move(state.body);
    event.response = std::move(state.response);
  }
  return event;
}

Result<std::optional<MuxStreamAssembler::Event>> MuxStreamAssembler::OnFrame(
    MuxFrame frame) {
  auto it = streams_.find(frame.stream_id);
  bool tolerated = forgotten_.count(frame.stream_id) > 0;

  if (frame.type == MuxFrameType::kRst) {
    if (it == streams_.end()) {
      // RST for a stream we never opened / already closed: harmless for
      // forgotten ids (our cancel crossed the peer's reset on the wire)
      // and tolerated otherwise — a reset is idempotent by design.
      return std::optional<Event>();
    }
    Result<MuxRstInfo> rst = ParseMuxRstPayload(frame.payload);
    if (!rst.ok()) {
      // A garbled RST means framing itself is suspect.
      return rst.status();
    }
    return std::optional<Event>(
        FailStream(frame.stream_id, RstToStatus(*rst)));
  }

  if (frame.type == MuxFrameType::kHeaders) {
    if (mode_ == Mode::kResponse) {
      if (it == streams_.end()) {
        if (tolerated) return std::optional<Event>();
        return Status::ProtocolError(
            "mux HEADERS for stream " + std::to_string(frame.stream_id) +
            " that was never requested");
      }
      if (it->second.have_head) {
        return Status::ProtocolError(
            "duplicate mux HEADERS for stream " +
            std::to_string(frame.stream_id));
      }
      Result<http::HttpResponse> head =
          ParseResponseHead(std::move(frame.payload));
      if (!head.ok()) {
        return std::optional<Event>(FailStream(
            frame.stream_id,
            Status::ProtocolError("malformed mux response head: " +
                                  head.status().message())));
      }
      it->second.have_head = true;
      it->second.declared_length = head->headers.GetUint64("Content-Length");
      it->second.response = std::move(*head);
    } else {
      if (it != streams_.end() && it->second.have_head) {
        return Status::ProtocolError(
            "duplicate mux HEADERS for stream " +
            std::to_string(frame.stream_id));
      }
      if (it == streams_.end()) {
        // kRequest mode: HEADERS opens the stream implicitly.
        it = streams_.emplace(frame.stream_id, StreamState{}).first;
        forgotten_.erase(frame.stream_id);
      }
      Result<http::HttpRequest> head =
          ParseRequestHead(std::move(frame.payload));
      if (!head.ok()) {
        return std::optional<Event>(FailStream(
            frame.stream_id,
            Status::ProtocolError("malformed mux request head: " +
                                  head.status().message())));
      }
      it->second.have_head = true;
      it->second.declared_length = head->headers.GetUint64("Content-Length");
      it->second.request = std::move(*head);
    }
    if (frame.end_stream()) {
      auto node = streams_.find(frame.stream_id);
      StreamState state = std::move(node->second);
      return std::optional<Event>(
          FinishStream(frame.stream_id, std::move(state)));
    }
    return std::optional<Event>();
  }

  // DATA.
  if (it == streams_.end()) {
    if (tolerated) return std::optional<Event>();
    return Status::ProtocolError("mux DATA for unknown stream " +
                                 std::to_string(frame.stream_id));
  }
  if (!it->second.have_head) {
    return Status::ProtocolError("mux DATA before HEADERS on stream " +
                                 std::to_string(frame.stream_id));
  }
  StreamState& stream = it->second;
  // Size the body once from the declared length (bounded like a frame
  // payload) instead of doubling it as DATA frames arrive.
  if (stream.body.empty() && stream.declared_length.has_value() &&
      *stream.declared_length <= kMaxMuxPayload) {
    stream.body.reserve(static_cast<size_t>(*stream.declared_length));
  }
  stream.body.append(frame.payload);
  uint64_t bound = stream.declared_length.value_or(kMaxMuxPayload);
  if (stream.body.size() > bound) {
    return std::optional<Event>(FailStream(
        frame.stream_id,
        Status::ProtocolError(
            "mux stream body exceeds declared length (" +
            std::to_string(stream.body.size()) + " > " +
            std::to_string(bound) + ")")));
  }
  if (frame.end_stream()) {
    StreamState state = std::move(stream);
    return std::optional<Event>(
        FinishStream(frame.stream_id, std::move(state)));
  }
  return std::optional<Event>();
}

}  // namespace muxhttp
}  // namespace davix
