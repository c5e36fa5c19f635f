#include "xrootd/xrd_server.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "xrootd/frame.h"

namespace davix {
namespace xrootd {
namespace {

/// One response frame whose payload is `body`, kept alive by `owner`.
httpd::Reply FrameReply(uint16_t stream_id, RespStatus status, uint64_t arg,
                        std::shared_ptr<const void> owner,
                        std::string_view body, XrdServerStats* stats) {
  FrameHeader header;
  header.stream_id = stream_id;
  header.opcode = static_cast<uint16_t>(status);
  header.arg = arg;
  httpd::Segment segment{EncodeFrameHeader(header, body.size()),
                         std::move(owner), body};
  stats->bytes_served.fetch_add(segment.size(), std::memory_order_relaxed);
  httpd::Reply reply;
  reply.segments.push_back(std::move(segment));
  return reply;
}

/// One response frame with a small owned payload.
httpd::Reply Answer(uint16_t stream_id, RespStatus status, uint64_t arg,
                    std::string payload, XrdServerStats* stats) {
  auto owned = std::make_shared<const std::string>(std::move(payload));
  std::string_view body = *owned;
  return FrameReply(stream_id, status, arg, std::move(owned), body, stats);
}

/// Bytes of `object` a read of `length` at `offset` returns: ranges
/// past EOF come back shorter (or empty), like pread.
uint64_t Available(const httpd::StoredObject& object, uint64_t offset,
                   uint64_t length) {
  return offset < object.data.size()
             ? std::min<uint64_t>(length, object.data.size() - offset)
             : 0;
}

/// The xrootd-like protocol on one connection. The reactor owns the
/// open-file table, so handles need no lock: an open answered before a
/// read is parsed is always visible to it.
class XrdCodec : public httpd::ConnectionCodec {
 public:
  XrdCodec(const XrdServerConfig* config,
           std::shared_ptr<httpd::ObjectStore> store,
           netsim::FaultInjector* faults, XrdServerStats* stats)
      : config_(config),
        store_(std::move(store)),
        faults_(faults),
        stats_(stats) {}

  httpd::Parsed Parse(std::string* in, size_t /*in_flight*/) override {
    using Kind = httpd::Parsed::Kind;
    httpd::Parsed parsed;
    if (in->size() < kFrameHeaderSize) {
      parsed.mid_head = !in->empty();
      return parsed;
    }
    Result<FrameHeader> header = DecodeFrameHeader(*in);
    if (!header.ok()) {
      parsed.kind = Kind::kClose;
      return parsed;
    }
    size_t wire_bytes = kFrameHeaderSize + header->length;
    if (in->size() < wire_bytes) return parsed;
    std::string payload = in->substr(kFrameHeaderSize, header->length);
    in->erase(0, wire_bytes);
    if (faults_->server_down()) {
      parsed.kind = Kind::kClose;
      return parsed;
    }

    uint16_t sid = header->stream_id;
    parsed.kind = Kind::kReply;
    parsed.stream = sid;
    parsed.wire_bytes = wire_bytes;
    switch (static_cast<Opcode>(header->opcode)) {
      case Opcode::kLogin:
        // The login/auth handshake costs extra round trips; that is the
        // connection-setup weight HPC protocols carry (§3: HTTP is
        // marginally faster on LAN).
        parsed.reply = Answer(sid, RespStatus::kOk, 0, "", stats_);
        parsed.reply.extra_latency_micros =
            config_->login_rtts * config_->link.rtt_micros;
        return parsed;
      case Opcode::kOpen: {
        if (faults_->Decide(payload).action != netsim::FaultAction::kNone) {
          parsed.reply =
              Answer(sid, RespStatus::kError, 0, "injected fault", stats_);
          return parsed;
        }
        Result<std::shared_ptr<const httpd::StoredObject>> object =
            store_->Get(payload);
        if (!object.ok()) {
          parsed.reply = Answer(sid, RespStatus::kNotFound, 0,
                                object.status().ToString(), stats_);
          return parsed;
        }
        uint32_t handle = next_handle_++;
        open_files_[handle] = *object;
        std::string size;
        PutU64(&size, (*object)->data.size());
        parsed.reply =
            Answer(sid, RespStatus::kOk, handle, std::move(size), stats_);
        return parsed;
      }
      case Opcode::kStat: {
        Result<httpd::ObjectMeta> meta = store_->Stat(payload);
        if (!meta.ok()) {
          parsed.reply = Answer(sid, RespStatus::kNotFound, 0,
                                meta.status().ToString(), stats_);
          return parsed;
        }
        std::string size;
        PutU64(&size, meta->size);
        parsed.reply = Answer(sid, RespStatus::kOk, 0, std::move(size), stats_);
        return parsed;
      }
      case Opcode::kClose:
        if (payload.size() == 4) open_files_.erase(GetU32(payload.data()));
        parsed.reply = Answer(sid, RespStatus::kOk, 0, "", stats_);
        return parsed;
      case Opcode::kRead:
        ParseRead(sid, header->arg, payload, &parsed);
        return parsed;
      case Opcode::kReadVector:
        ParseReadVector(sid, payload, &parsed);
        return parsed;
    }
    parsed.reply = Answer(sid, RespStatus::kBadRequest, 0, "unknown opcode",
                          stats_);
    return parsed;
  }

  httpd::Reply Refuse(const httpd::Parsed* request) override {
    if (request == nullptr) return httpd::Reply{};  // dropped unanswered
    httpd::Reply reply =
        Answer(static_cast<uint16_t>(request->stream), RespStatus::kError, 0,
               "server overloaded", stats_);
    reply.shaped = false;
    return reply;
  }

 private:
  std::shared_ptr<const httpd::StoredObject> Lookup(uint32_t handle) const {
    auto it = open_files_.find(handle);
    return it == open_files_.end() ? nullptr : it->second;
  }

  void BadRequest(uint16_t sid, std::string message,
                  httpd::Parsed* parsed) {
    parsed->reply = Answer(sid, RespStatus::kBadRequest, 0, std::move(message),
                           stats_);
  }

  /// kRead: one frame whose payload is a slice of the object.
  void ParseRead(uint16_t sid, uint64_t offset, std::string_view payload,
                 httpd::Parsed* parsed) {
    Result<std::pair<uint32_t, uint32_t>> decoded = DecodeReadPayload(payload);
    if (!decoded.ok()) return BadRequest(sid, decoded.status().ToString(), parsed);
    std::shared_ptr<const httpd::StoredObject> object = Lookup(decoded->first);
    if (object == nullptr) return BadRequest(sid, "bad handle", parsed);
    uint64_t length = Available(*object, offset, decoded->second);
    if (length > kMaxFramePayload) {
      return BadRequest(sid, "read larger than a frame", parsed);
    }
    stats_->read_requests.fetch_add(1, std::memory_order_relaxed);
    parsed->kind = httpd::Parsed::Kind::kRequest;
    parsed->serve = [sid, offset, length, object = std::move(object),
                     stats = stats_] {
      std::string_view data = object->data;
      std::string_view slice =
          length > 0 ? data.substr(offset, length) : std::string_view();
      return FrameReply(sid, RespStatus::kOk, offset, object, slice, stats);
    };
  }

  /// kReadVector: per range, u32 actual length then the bytes. The
  /// response's size is known from the ranges alone, so an answer too
  /// large for one frame is refused before anything is allocated.
  void ParseReadVector(uint16_t sid, std::string_view payload,
                       httpd::Parsed* parsed) {
    auto decoded = DecodeReadVectorPayload(payload);
    if (!decoded.ok()) return BadRequest(sid, decoded.status().ToString(), parsed);
    std::shared_ptr<const httpd::StoredObject> object = Lookup(decoded->first);
    if (object == nullptr) return BadRequest(sid, "bad handle", parsed);
    std::vector<http::ByteRange> ranges = std::move(decoded->second);
    uint64_t response_bytes = 0;
    for (const http::ByteRange& r : ranges) {
      response_bytes += 4 + Available(*object, r.offset, r.length);
    }
    if (response_bytes > kMaxFramePayload) {
      return BadRequest(sid,
                        "readv response of " + std::to_string(response_bytes) +
                            " bytes exceeds the frame limit",
                        parsed);
    }
    stats_->readv_requests.fetch_add(1, std::memory_order_relaxed);
    stats_->ranges_served.fetch_add(ranges.size(), std::memory_order_relaxed);
    parsed->kind = httpd::Parsed::Kind::kRequest;
    parsed->serve = [sid, response_bytes, ranges = std::move(ranges),
                     object = std::move(object), stats = stats_] {
      std::string data;
      data.reserve(response_bytes);
      for (const http::ByteRange& r : ranges) {
        uint64_t avail = Available(*object, r.offset, r.length);
        PutU32(&data, static_cast<uint32_t>(avail));
        if (avail > 0) data.append(object->data, r.offset, avail);
      }
      return Answer(sid, RespStatus::kOk, 0, std::move(data), stats);
    };
  }

  const XrdServerConfig* config_;
  std::shared_ptr<httpd::ObjectStore> store_;
  netsim::FaultInjector* faults_;
  XrdServerStats* stats_;
  std::unordered_map<uint32_t, std::shared_ptr<const httpd::StoredObject>>
      open_files_;
  uint32_t next_handle_ = 1;
};

}  // namespace

Result<std::unique_ptr<XrdServer>> XrdServer::Start(
    XrdServerConfig config, std::shared_ptr<httpd::ObjectStore> store) {
  std::unique_ptr<XrdServer> server(new XrdServer(std::move(config)));
  httpd::ServerConfig core;
  core.port = server->config_.port;
  core.link = server->config_.link;
  core.fault_seed = server->config_.fault_seed;
  core.idle_timeout_micros = server->config_.idle_timeout_micros;
  XrdServer* s = server.get();
  DAVIX_ASSIGN_OR_RETURN(
      server->core_,
      httpd::HttpServer::StartWithCodec(
          std::move(core),
          [s, store = std::move(store)](httpd::HttpServer* reactor) {
            return std::make_unique<XrdCodec>(&s->config_, store,
                                              &reactor->faults(), &s->stats_);
          }));
  DAVIX_LOG(kInfo) << "xrd server listening on port " << server->port();
  return server;
}

}  // namespace xrootd
}  // namespace davix
