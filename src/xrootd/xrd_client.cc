#include "xrootd/xrd_client.h"

#include <sys/socket.h>

#include "common/logging.h"
#include "net/socket_address.h"

namespace davix {
namespace xrootd {

XrdClient::XrdClient(XrdClientConfig config) : config_(config) {}

Result<std::unique_ptr<XrdClient>> XrdClient::Connect(const std::string& host,
                                                      uint16_t port,
                                                      XrdClientConfig config) {
  DAVIX_ASSIGN_OR_RETURN(net::SocketAddress address,
                         net::SocketAddress::Resolve(host, port));
  DAVIX_ASSIGN_OR_RETURN(
      net::TcpSocket socket,
      net::TcpSocket::Connect(address, config.connect_timeout_micros));
  (void)socket.SetNoDelay(true);

  std::unique_ptr<XrdClient> client(new XrdClient(config));
  client->socket_ = std::make_unique<net::TcpSocket>(std::move(socket));
  client->reader_ = std::make_unique<net::BufferedReader>(
      client->socket_.get(), config.operation_timeout_micros);
  client->alive_.store(true, std::memory_order_relaxed);
  client->reader_thread_ = std::thread([c = client.get()] { c->ReaderLoop(); });
  return client;
}

XrdClient::~XrdClient() {
  stopping_.store(true, std::memory_order_relaxed);
  if (socket_ != nullptr && socket_->IsOpen()) {
    ::shutdown(socket_->fd(), SHUT_RDWR);
  }
  if (reader_thread_.joinable()) reader_thread_.join();
  FailAll(Status::Cancelled("client destroyed"));
}

void XrdClient::ReaderLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<Frame> frame = ReadFrame(reader_.get());
    if (!frame.ok()) {
      if (!stopping_.load(std::memory_order_relaxed)) {
        FailAll(frame.status().WithContext("xrd connection lost"));
      }
      return;
    }
    Pending pending;
    bool found = false;
    {
      MutexLock lock(mu_);
      auto it = pending_.find(frame->header.stream_id);
      if (it != pending_.end()) {
        pending = std::move(it->second);
        pending_.erase(it);
        found = true;
      }
    }
    if (!found) {
      DAVIX_LOG(kWarn) << "xrd response for unknown stream "
                       << frame->header.stream_id;
      continue;
    }
    if (pending.arg_out != nullptr) *pending.arg_out = frame->header.arg;
    switch (static_cast<RespStatus>(frame->header.opcode)) {
      case RespStatus::kOk:
        pending.promise.set_value(std::move(frame->payload));
        break;
      case RespStatus::kNotFound:
        pending.promise.set_value(Status::NotFound(frame->payload));
        break;
      case RespStatus::kBadRequest:
        pending.promise.set_value(Status::InvalidArgument(frame->payload));
        break;
      default:
        pending.promise.set_value(Status::RemoteError(frame->payload));
        break;
    }
  }
}

void XrdClient::FailAll(const Status& status) {
  alive_.store(false, std::memory_order_relaxed);
  std::unordered_map<uint16_t, Pending> orphans;
  {
    MutexLock lock(mu_);
    orphans.swap(pending_);
  }
  for (auto& [id, pending] : orphans) {
    pending.promise.set_value(status);
  }
}

std::future<Result<std::string>> XrdClient::Submit(Opcode opcode, uint64_t arg,
                                                   std::string payload,
                                                   uint64_t* arg_out) {
  std::promise<Result<std::string>> failed;
  if (!alive_.load(std::memory_order_relaxed)) {
    failed.set_value(Status::ConnectionReset("xrd client not connected"));
    return failed.get_future();
  }
  FrameHeader header;
  header.opcode = static_cast<uint16_t>(opcode);
  header.arg = arg;

  std::future<Result<std::string>> future;
  std::string wire;
  {
    MutexLock lock(mu_);
    // Pick a free stream id (u16 wraps; skip ids still in flight).
    while (pending_.count(next_stream_id_) > 0 || next_stream_id_ == 0) {
      ++next_stream_id_;
    }
    header.stream_id = next_stream_id_++;
    Pending pending;
    pending.arg_out = arg_out;
    future = pending.promise.get_future();
    pending_.emplace(header.stream_id, std::move(pending));
    wire = SerializeFrame(header, payload);

    Status write_status = socket_->WriteAll(wire);
    if (!write_status.ok()) {
      auto it = pending_.find(header.stream_id);
      Pending orphan = std::move(it->second);
      pending_.erase(it);
      orphan.promise.set_value(write_status.WithContext("xrd send"));
      return future;
    }
    requests_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  return future;
}

Status XrdClient::Login() {
  Result<std::string> response = Submit(Opcode::kLogin, 0, "", nullptr).get();
  return response.ok() ? Status::OK() : response.status();
}

Result<OpenInfo> XrdClient::Open(const std::string& path) {
  uint64_t handle_arg = 0;
  Result<std::string> response =
      Submit(Opcode::kOpen, 0, path, &handle_arg).get();
  DAVIX_RETURN_IF_ERROR(response.status().WithContext("open " + path));
  if (response->size() != 8) {
    return Status::ProtocolError("bad open response payload");
  }
  OpenInfo info;
  info.handle = static_cast<uint32_t>(handle_arg);
  info.size = GetU64(response->data());
  return info;
}

Result<uint64_t> XrdClient::StatSize(const std::string& path) {
  Result<std::string> response = Submit(Opcode::kStat, 0, path, nullptr).get();
  DAVIX_RETURN_IF_ERROR(response.status().WithContext("stat " + path));
  if (response->size() != 8) {
    return Status::ProtocolError("bad stat response payload");
  }
  return GetU64(response->data());
}

Status XrdClient::Close(uint32_t handle) {
  std::string payload;
  PutU32(&payload, handle);
  Result<std::string> response =
      Submit(Opcode::kClose, 0, std::move(payload), nullptr).get();
  return response.ok() ? Status::OK() : response.status();
}

Result<std::string> XrdClient::Read(uint32_t handle, uint64_t offset,
                                    uint32_t length) {
  return ReadAsync(handle, offset, length).get();
}

std::future<Result<std::string>> XrdClient::ReadAsync(uint32_t handle,
                                                      uint64_t offset,
                                                      uint32_t length) {
  return Submit(Opcode::kRead, offset, EncodeReadPayload(handle, length),
                nullptr);
}

Result<std::vector<std::string>> XrdClient::ReadVector(
    uint32_t handle, const std::vector<http::ByteRange>& ranges) {
  Result<std::string> raw = ReadVectorRawAsync(handle, ranges).get();
  DAVIX_RETURN_IF_ERROR(raw.status());
  return DecodeReadVectorResponse(*raw, ranges.size());
}

std::future<Result<std::string>> XrdClient::ReadVectorRawAsync(
    uint32_t handle, const std::vector<http::ByteRange>& ranges) {
  return Submit(Opcode::kReadVector, 0,
                EncodeReadVectorPayload(handle, ranges), nullptr);
}

Result<std::vector<std::string>> DecodeReadVectorResponse(
    std::string_view payload, size_t range_count) {
  std::vector<std::string> out;
  out.reserve(range_count);
  size_t pos = 0;
  for (size_t i = 0; i < range_count; ++i) {
    if (pos + 4 > payload.size()) {
      return Status::ProtocolError("truncated readv response");
    }
    uint32_t len = GetU32(payload.data() + pos);
    pos += 4;
    if (pos + len > payload.size()) {
      return Status::ProtocolError("readv response overruns payload");
    }
    out.emplace_back(payload.substr(pos, len));
    pos += len;
  }
  if (pos != payload.size()) {
    return Status::ProtocolError("readv response has trailing bytes");
  }
  return out;
}

}  // namespace xrootd
}  // namespace davix
