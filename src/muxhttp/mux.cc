#include "muxhttp/mux.h"

#include <algorithm>
#include <utility>

namespace davix {
namespace muxhttp {
namespace {

/// A stream reset, answered from the reactor without shaping.
httpd::Reply RstReply(uint32_t stream_id, MuxRstCode code,
                      std::string_view message, bool counted) {
  httpd::Reply reply;
  reply.segments.emplace_back(SerializeMuxFrame(
      stream_id, MuxFrameType::kRst, 0, MakeRstPayload(code, message)));
  reply.shaped = false;
  reply.counted = counted;
  return reply;
}

/// Runs on a worker: routes one request and frames the response as a
/// HEADERS segment plus one DATA segment per chunk, each chunk a slice
/// of the body (a stored object's bytes when the handler served one).
httpd::Reply ServeMux(const httpd::Router& router, size_t chunk_bytes,
                      uint32_t stream_id, const http::HttpRequest& request,
                      netsim::FaultAction fault, int retry_after_seconds) {
  http::HttpResponse response;
  if (fault == netsim::FaultAction::kServerError ||
      fault == netsim::FaultAction::kRetryAfter) {
    response.status_code = 503;
    response.body = "injected fault\n";
    if (fault == netsim::FaultAction::kRetryAfter) {
      response.headers.Set("Retry-After", std::to_string(retry_after_seconds));
    }
  } else {
    router.Dispatch(request, &response);
  }
  response.headers.Set("Server", "davix-muxhttp/2.0");
  std::string head = response.SerializeHead(response.Body().size());
  std::shared_ptr<const void> owner;
  std::string_view body;
  httpd::TakeBody(&response, &owner, &body);

  httpd::Reply reply;
  reply.segments.emplace_back(SerializeMuxFrame(
      stream_id, MuxFrameType::kHeaders, body.empty() ? kMuxFlagEndStream : 0,
      head));
  for (size_t offset = 0; offset < body.size(); offset += chunk_bytes) {
    size_t n = std::min(chunk_bytes, body.size() - offset);
    uint8_t flags = offset + n == body.size() ? kMuxFlagEndStream : 0;
    reply.segments.emplace_back(
        EncodeMuxFrameHeader(stream_id, MuxFrameType::kData, flags,
                             static_cast<uint32_t>(n)),
        owner, body.substr(offset, n));
  }
  if (fault == netsim::FaultAction::kTruncateBody &&
      reply.segments.size() > 1) {
    // Head plus half the DATA frames, then the connection dies: the
    // client sees a reset mid-body, never a short "complete" response.
    reply.segments.resize(1 + (reply.segments.size() - 1) / 2);
    reply.end = httpd::ReplyEnd::kHardClose;
  }
  return reply;
}

/// The mux protocol on one connection: frames are cut from the input
/// buffer and reassembled into requests by the MuxStreamAssembler the
/// client transport shares.
class MuxCodec : public httpd::ConnectionCodec {
 public:
  MuxCodec(const MuxServerConfig* config,
           std::shared_ptr<httpd::Router> router, MuxServerStats* stats)
      : config_(config),
        router_(std::move(router)),
        stats_(stats),
        assembler_(MuxStreamAssembler::Mode::kRequest) {}

  httpd::Parsed Parse(std::string* in, size_t in_flight) override {
    using Kind = httpd::Parsed::Kind;
    httpd::Parsed parsed;
    while (true) {
      if (in->size() < kMuxFrameHeaderSize) {
        parsed.mid_head = !in->empty();
        return parsed;
      }
      uint32_t length = 0;
      Result<MuxFrame> decoded = DecodeMuxFrameHeader(*in, &length);
      if (!decoded.ok()) {
        parsed.kind = Kind::kClose;  // framing sync lost
        return parsed;
      }
      size_t wire_bytes = kMuxFrameHeaderSize + length;
      if (in->size() < wire_bytes) return parsed;
      MuxFrame frame = std::move(*decoded);
      frame.payload = in->substr(kMuxFrameHeaderSize, length);
      in->erase(0, wire_bytes);

      // A client RST is a cancel: the reactor drops the stream's unsent
      // frames, and the assembler any half-received request state.
      if (frame.type == MuxFrameType::kRst) {
        Result<MuxRstInfo> rst = ParseMuxRstPayload(frame.payload);
        parsed.stream = frame.stream_id;
        (void)assembler_.OnFrame(std::move(frame));
        if (rst.ok() && rst->code == MuxRstCode::kCancelled) {
          stats_->streams_cancelled.fetch_add(1, std::memory_order_relaxed);
          parsed.kind = Kind::kCancel;
          return parsed;
        }
        continue;
      }

      Result<std::optional<MuxStreamAssembler::Event>> event =
          assembler_.OnFrame(std::move(frame));
      if (!event.ok()) {
        parsed.kind = Kind::kClose;
        return parsed;
      }
      if (!event->has_value()) continue;
      MuxStreamAssembler::Event& ev = **event;
      parsed.stream = ev.stream_id;
      if (ev.stream_error.has_value()) {
        stats_->streams_reset.fetch_add(1, std::memory_order_relaxed);
        parsed.kind = Kind::kReply;
        parsed.reply = RstReply(ev.stream_id, MuxRstCode::kProtocolError,
                                ev.stream_error->message(), false);
        return parsed;
      }
      if (!ev.request.has_value()) continue;
      if (in_flight >= config_->max_streams_per_connection) {
        stats_->streams_refused.fetch_add(1, std::memory_order_relaxed);
        parsed.kind = Kind::kReply;
        parsed.reply = RstReply(ev.stream_id, MuxRstCode::kRefusedStream,
                                "stream limit reached", false);
        return parsed;
      }

      netsim::FaultRule fault;
      if (config_->faults != nullptr) {
        const std::string& target = ev.request->target;
        fault = config_->faults->Decide(target.substr(0, target.find('?')));
      }
      if (fault.action == netsim::FaultAction::kRefuseConnection ||
          fault.action == netsim::FaultAction::kStall) {
        parsed.kind = Kind::kClose;
        if (fault.action == netsim::FaultAction::kStall) {
          parsed.close_after_micros = fault.stall_micros;
        }
        return parsed;
      }
      parsed.kind = Kind::kRequest;
      parsed.wire_bytes = wire_bytes;
      parsed.serve = [router = router_, chunk_bytes = config_->data_chunk_bytes,
                      stream = ev.stream_id,
                      request = std::move(*ev.request), action = fault.action,
                      retry_after = fault.retry_after_seconds] {
        return ServeMux(*router, chunk_bytes, stream, request, action,
                        retry_after);
      };
      return parsed;
    }
  }

  httpd::Reply Refuse(const httpd::Parsed* request) override {
    if (request == nullptr) return httpd::Reply{};  // no stream to reset
    return RstReply(static_cast<uint32_t>(request->stream),
                    MuxRstCode::kRefusedStream, "server overloaded", true);
  }

 private:
  const MuxServerConfig* config_;
  std::shared_ptr<httpd::Router> router_;
  MuxServerStats* stats_;
  MuxStreamAssembler assembler_;
};

}  // namespace

Result<std::unique_ptr<MuxServer>> MuxServer::Start(
    MuxServerConfig config, std::shared_ptr<httpd::Router> router) {
  if (config.max_streams_per_connection == 0) {
    config.max_streams_per_connection = 128;
  }
  if (config.data_chunk_bytes == 0) config.data_chunk_bytes = kMuxDataChunkBytes;
  std::unique_ptr<MuxServer> server(new MuxServer(std::move(config)));
  httpd::ServerConfig core;
  core.port = server->config_.port;
  core.link = server->config_.link;
  core.idle_timeout_micros = server->config_.idle_timeout_micros;
  MuxServer* s = server.get();
  DAVIX_ASSIGN_OR_RETURN(
      server->core_,
      httpd::HttpServer::StartWithCodec(
          std::move(core), [s, router = std::move(router)](httpd::HttpServer*) {
            return std::make_unique<MuxCodec>(&s->config_, router,
                                              &s->stats_);
          }));
  return server;
}

}  // namespace muxhttp
}  // namespace davix
