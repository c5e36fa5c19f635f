#include "muxhttp/mux.h"

#include <sys/socket.h>

#include <unordered_set>

#include "common/clock.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "netsim/shaper.h"

namespace davix {
namespace muxhttp {
namespace {

constexpr int64_t kAcceptPollMicros = 50'000;
constexpr size_t kWorkersPerConnection = 8;

/// Per-connection state shared between the reader (the connection
/// thread) and the response workers. Lives on HandleConnection's stack;
/// workers.Shutdown() runs before it goes out of scope, so references
/// captured by worker tasks never dangle.
///
/// Thread-safe: yes — `write_mu` serialises socket writes and guards the
/// broken flag and cancel set; `shaper_mu` guards the shared shaper; the
/// socket pointer and link profile are immutable per connection.
struct ConnState {
  ConnState(net::TcpSocket* socket, const netsim::LinkProfile& link)
      : socket(socket), shaper(link) {}

  net::TcpSocket* socket;
  netsim::ConnectionShaper shaper;
  Mutex shaper_mu;

  /// Guards every byte written to the socket, the broken flag, and the
  /// cancel set (checked under the same lock right before each write so
  /// a cancel observed between frames suppresses the rest).
  Mutex write_mu;
  bool write_broken GUARDED_BY(write_mu) = false;
  std::unordered_set<uint32_t> cancelled GUARDED_BY(write_mu);

  std::atomic<int64_t> active_exchanges{0};

  /// The only place muxhttp server code touches the socket's send side.
  Status WriteFrameLocked(const MuxFrame& frame) REQUIRES(write_mu) {
    if (write_broken) return Status::ConnectionReset("mux write side broken");
    Status status = socket->WriteAll(SerializeMuxFrame(frame));
    if (!status.ok()) write_broken = true;
    return status;
  }

  /// Best-effort RST; write errors just mark the connection broken.
  void SendRst(uint32_t stream_id, MuxRstCode code, std::string_view message) {
    MuxFrame rst;
    rst.stream_id = stream_id;
    rst.type = MuxFrameType::kRst;
    rst.payload = MakeRstPayload(code, message);
    MutexLock lock(write_mu);
    (void)WriteFrameLocked(rst);
  }
};

}  // namespace

MuxServer::MuxServer(MuxServerConfig config,
                     std::shared_ptr<httpd::Router> router)
    : config_(std::move(config)), router_(std::move(router)) {}

Result<std::unique_ptr<MuxServer>> MuxServer::Start(
    MuxServerConfig config, std::shared_ptr<httpd::Router> router) {
  std::unique_ptr<MuxServer> server(
      new MuxServer(std::move(config), std::move(router)));
  if (server->config_.max_streams_per_connection == 0) {
    server->config_.max_streams_per_connection = 128;
  }
  if (server->config_.data_chunk_bytes == 0) {
    server->config_.data_chunk_bytes = kMuxDataChunkBytes;
  }
  DAVIX_ASSIGN_OR_RETURN(server->listener_,
                         net::TcpListener::Listen(server->config_.port));
  {
    MutexLock lock(server->stop_mu_);
    server->accept_thread_ =
        std::thread([s = server.get()] { s->AcceptLoop(); });
  }
  return server;
}

MuxServer::~MuxServer() { Stop(); }

std::string MuxServer::BaseUrl() const {
  return "http://127.0.0.1:" + std::to_string(port());
}

void MuxServer::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  // Same discipline as HttpServer::Stop: stop_mu_ makes concurrent
  // callers safe — one joins, the rest wait for teardown to finish.
  MutexLock lock(stop_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::thread> threads;
  {
    MutexLock conn_lock(conn_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void MuxServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<net::TcpSocket> socket = listener_.Accept(kAcceptPollMicros);
    if (!socket.ok()) {
      if (socket.status().IsTimeout()) continue;
      return;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(conn_mu_);
    connection_threads_.emplace_back(
        [this, sock = std::move(*socket)]() mutable {
          HandleConnection(std::move(sock));
        });
  }
}

void MuxServer::HandleConnection(net::TcpSocket socket) {
  {
    MutexLock lock(conn_mu_);
    active_fds_.insert(socket.fd());
  }
  (void)socket.SetNoDelay(true);
  ConnState conn(&socket, config_.link);
  net::BufferedReader reader(&socket, config_.idle_timeout_micros);
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kRequest);
  ThreadPool workers(kWorkersPerConnection);

  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<MuxFrame> frame = ReadMuxFrame(&reader);
    if (!frame.ok()) break;
    int64_t request_bytes =
        static_cast<int64_t>(kMuxFrameHeaderSize + frame->payload.size());

    // A client RST is a cancel: record it so workers already streaming
    // the response stop at the next frame boundary, and let the
    // assembler drop any half-received request state.
    if (frame->type == MuxFrameType::kRst) {
      Result<MuxRstInfo> rst = ParseMuxRstPayload(frame->payload);
      if (rst.ok() && rst->code == MuxRstCode::kCancelled) {
        MutexLock lock(conn.write_mu);
        conn.cancelled.insert(frame->stream_id);
        stats_.streams_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      (void)assembler.OnFrame(std::move(*frame));
      continue;
    }

    Result<std::optional<MuxStreamAssembler::Event>> event =
        assembler.OnFrame(std::move(*frame));
    if (!event.ok()) break;  // framing sync lost: drop the connection
    if (!event->has_value()) continue;
    MuxStreamAssembler::Event& ev = **event;
    if (ev.stream_error.has_value()) {
      stats_.streams_reset.fetch_add(1, std::memory_order_relaxed);
      conn.SendRst(ev.stream_id, MuxRstCode::kProtocolError,
                   ev.stream_error->message());
      continue;
    }
    if (!ev.request.has_value()) continue;

    if (conn.active_exchanges.load(std::memory_order_relaxed) >=
        static_cast<int64_t>(config_.max_streams_per_connection)) {
      stats_.streams_refused.fetch_add(1, std::memory_order_relaxed);
      conn.SendRst(ev.stream_id, MuxRstCode::kRefusedStream,
                   "stream limit reached");
      continue;
    }
    stats_.requests_handled.fetch_add(1, std::memory_order_relaxed);
    conn.active_exchanges.fetch_add(1, std::memory_order_relaxed);

    auto task = [this, &conn, stream_id = ev.stream_id,
                 request = std::move(*ev.request), request_bytes]() mutable {
      netsim::FaultRule fault;
      if (config_.faults != nullptr) {
        std::string path = request.target.substr(0, request.target.find('?'));
        fault = config_.faults->Decide(path);
      }
      bool drop_connection_after = false;
      size_t truncate_at_frames = 0;  // 0 = no truncation
      http::HttpResponse response;
      switch (fault.action) {
        case netsim::FaultAction::kRefuseConnection:
          ::shutdown(conn.socket->fd(), SHUT_RDWR);
          conn.active_exchanges.fetch_sub(1, std::memory_order_relaxed);
          return;
        case netsim::FaultAction::kStall:
          SleepForMicros(fault.stall_micros);
          ::shutdown(conn.socket->fd(), SHUT_RDWR);
          conn.active_exchanges.fetch_sub(1, std::memory_order_relaxed);
          return;
        case netsim::FaultAction::kServerError:
        case netsim::FaultAction::kRetryAfter:
          response.status_code = 503;
          response.body = "injected fault\n";
          if (fault.action == netsim::FaultAction::kRetryAfter) {
            response.headers.Set(
                "Retry-After", std::to_string(fault.retry_after_seconds));
          }
          break;
        case netsim::FaultAction::kTruncateBody:
          router_->Dispatch(request, &response);
          drop_connection_after = true;
          break;
        default:
          router_->Dispatch(request, &response);
          break;
      }
      response.headers.Set("Server", "davix-muxhttp/2.0");
      // Body() is the handler's slice of the stored object when it
      // served one: DATA frames are cut straight from the store's bytes.
      std::string head = response.SerializeHead(response.Body().size());
      std::vector<MuxFrame> frames =
          FrameMessage(stream_id, std::move(head), response.Body(),
                       config_.data_chunk_bytes);
      if (fault.action == netsim::FaultAction::kTruncateBody &&
          frames.size() > 1) {
        // Head plus half the DATA frames, then the connection dies:
        // the client sees a reset mid-body, never a short "complete"
        // response.
        truncate_at_frames = 1 + (frames.size() - 1) / 2;
      }

      netsim::ConnectionShaper::ExchangePlan plan;
      int64_t response_bytes = 0;
      for (const MuxFrame& f : frames) {
        response_bytes +=
            static_cast<int64_t>(kMuxFrameHeaderSize + f.payload.size());
      }
      {
        MutexLock lock(conn.shaper_mu);
        plan = conn.shaper.PlanExchange(request_bytes, response_bytes);
      }
      SleepForMicros(plan.latency_micros);
      // Bandwidth cost is paid per frame under the write lock: the wire
      // is serialised, but other streams' frames slot in between ours —
      // the interleaving the protocol exists for.
      int64_t per_frame_bandwidth =
          plan.bandwidth_micros / static_cast<int64_t>(frames.size());
      size_t sent = 0;
      for (const MuxFrame& f : frames) {
        if (truncate_at_frames > 0 && sent >= truncate_at_frames) break;
        MutexLock lock(conn.write_mu);
        if (conn.cancelled.count(stream_id) > 0) {
          conn.cancelled.erase(stream_id);
          break;
        }
        SleepForMicros(per_frame_bandwidth);
        if (!conn.WriteFrameLocked(f).ok()) break;
        ++sent;
      }
      if (drop_connection_after) ::shutdown(conn.socket->fd(), SHUT_RDWR);
      conn.active_exchanges.fetch_sub(1, std::memory_order_relaxed);
    };
    if (!workers.Submit(std::move(task))) break;
  }
  workers.Shutdown();
  {
    MutexLock lock(conn_mu_);
    active_fds_.erase(socket.fd());
  }
  socket.Close();
}

}  // namespace muxhttp
}  // namespace davix
