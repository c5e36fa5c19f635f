#ifndef DAVIX_HTTPD_SERVER_H_
#define DAVIX_HTTPD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "httpd/connection.h"
#include "httpd/router.h"
#include "net/poller.h"
#include "net/tcp_socket.h"
#include "netsim/fault_injector.h"
#include "netsim/link_profile.h"

namespace davix {
namespace httpd {

/// Configuration of an embedded HTTP server instance.
struct ServerConfig {
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Simulated network path between clients and this server. Every
  /// accepted connection gets its own ConnectionShaper over this profile.
  netsim::LinkProfile link = netsim::LinkProfile::Loopback();
  /// Seed for the fault injector.
  uint64_t fault_seed = 1;
  /// Close keep-alive connections idle for longer than this.
  int64_t idle_timeout_micros = 30'000'000;
  /// Honour persistent connections. Disabling forces HTTP/1.0-style
  /// one-request-per-connection behaviour — the configuration the paper's
  /// §2.2 contrasts against.
  bool enable_keepalive = true;
  /// Server token reported in the Server header.
  std::string server_name = "davix-httpd/1.0";
  /// When non-empty, every request must carry HTTP Basic credentials
  /// matching user:password (a light stand-in for the grid's X.509
  /// authentication); others get 401.
  std::string basic_auth_user;
  std::string basic_auth_password;

  /// Worker pool executing router handlers. The reactor thread does all
  /// socket I/O; workers only compute responses, so a slow reader can
  /// never pin a worker.
  uint32_t worker_threads = 4;
  /// Hard connection cap. Connections accepted beyond it are shed with
  /// a best-effort 503 + Retry-After and closed (connections_shed).
  uint32_t max_connections = 1024;
  /// Admission control: when this many requests are already queued or
  /// running on the worker pool, further requests are answered 503 +
  /// Retry-After + Connection: close without dispatching (requests_shed).
  uint32_t max_dispatch_backlog = 256;
  /// Retry-After value (seconds) carried by shed responses.
  int shed_retry_after_seconds = 1;
  /// Slowloris defense: a request whose header block is still incomplete
  /// this long after its first byte is dropped (header_timeouts).
  /// 0 falls back to idle_timeout_micros.
  int64_t header_timeout_micros = 0;
  /// A response write that makes no progress for this long (client not
  /// reading, window closed) is aborted (write_stall_aborts).
  int64_t write_stall_timeout_micros = 10'000'000;
  /// Stop(): bound on finishing in-flight responses before hard-closing.
  int64_t drain_deadline_micros = 5'000'000;
  /// Request-size limits (431 on header abuse, 413 on body abuse).
  size_t max_request_line_bytes = 8 * 1024;
  size_t max_header_bytes = 64 * 1024;
  uint64_t max_body_bytes = 1024ull * 1024 * 1024;
  /// listen(2) backlog — deep enough for bench-scale connect bursts.
  int listen_backlog = 256;
};

/// Wire-level counters, separate from handler-level DavHandlerStats.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_active{0};
  std::atomic<uint64_t> requests_handled{0};
  /// Requests served on an already-used connection: keep-alive hits.
  std::atomic<uint64_t> keepalive_reuses{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> faults_injected{0};

  /// Overload / degradation counters (docs/SERVER.md).
  /// Connections accepted over max_connections and turned away.
  std::atomic<uint64_t> connections_shed{0};
  /// Parsed requests answered 503 by admission control.
  std::atomic<uint64_t> requests_shed{0};
  /// Connections dropped because a request head stayed incomplete past
  /// the header timeout (server-side slowloris defense).
  std::atomic<uint64_t> header_timeouts{0};
  /// Responses aborted because the peer stopped draining them.
  std::atomic<uint64_t> write_stall_aborts{0};
  /// Graceful drains that finished every in-flight response in time.
  std::atomic<uint64_t> drain_completions{0};
  /// Responses written to the last byte (shed 503s included) — with no
  /// faults injected, a clean drain ends with
  /// requests_handled == responses_completed.
  std::atomic<uint64_t> responses_completed{0};
};

/// Event-driven HTTP/1.1 server: one epoll reactor thread owns every
/// socket (non-blocking, netsim-shaped via timers) and a bounded
/// ThreadPool runs router handlers. Degrades gracefully under overload —
/// connection cap with accept shedding, admission control with 503 +
/// Retry-After, request-size limits (431/413), header/idle/write-stall
/// timeouts, and a drain-deadline Stop() — instead of wedging.
///
/// One instance models one storage node of the paper's grid; tests and
/// benchmarks start several of them on loopback to build multi-replica
/// topologies.
///
/// Thread-safe: yes — Stop() may be called from any number of threads
/// concurrently (each returns only once teardown has completed), and the
/// stats/fault accessors and runtime limit setters are safe while the
/// server is serving.
class HttpServer {
 public:
  /// Starts listening and serving. The router must outlive the server.
  static Result<std::unique_ptr<HttpServer>> Start(
      ServerConfig config, std::shared_ptr<Router> router);

  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Graceful drain: stops accepting, closes idle connections, finishes
  /// in-flight responses within drain_deadline_micros, then closes the
  /// rest and joins the reactor and workers.
  void Stop();

  uint16_t port() const { return listener_.port(); }
  /// "http://127.0.0.1:<port>".
  std::string BaseUrl() const;

  netsim::FaultInjector& faults() { return faults_; }
  ServerStats& stats() { return stats_; }
  const ServerConfig& config() const { return config_; }

  /// Runtime overload-policy adjustment (benches flip these mid-run to
  /// drive healthy -> overload -> recovery phases). 0 sheds everything.
  void SetMaxDispatchBacklog(uint32_t limit) {
    max_dispatch_backlog_.store(limit, std::memory_order_relaxed);
  }
  void SetMaxConnections(uint32_t limit) {
    max_connections_.store(limit, std::memory_order_relaxed);
  }

 private:
  /// A worker-built response travelling back to the reactor thread: the
  /// serialized head and a refcounted body slice (a view into a stored
  /// object, or into an owned string), which the reactor gather-writes
  /// without ever joining them.
  struct Completion {
    uint64_t conn_id = 0;
    std::string head;
    std::shared_ptr<const void> body_owner;
    std::string_view body;
    bool keep_alive = true;
    netsim::FaultAction fault = netsim::FaultAction::kNone;
    int64_t body_rate = 0;
  };

  HttpServer(ServerConfig config, std::shared_ptr<Router> router);

  void ReactorLoop();

  // All methods below run on the reactor thread only.
  void BeginDrain(int64_t now);
  void HandleAccepts(int64_t now);
  void HandleConnEvent(const net::Poller::Event& event, int64_t now);
  void ReadInput(ServerConnection* conn, int64_t now);
  void ProcessInput(ServerConnection* conn, int64_t now);
  void OnRequest(ServerConnection* conn, http::HttpRequest request,
                 size_t wire_bytes, int64_t now);
  void DrainCompletions(int64_t now);
  void StartResponse(ServerConnection* conn, Completion completion,
                     int64_t now);
  void QueueCanned(ServerConnection* conn, int status_code,
                   std::string_view body, bool retry_after,
                   bool counts_completed, int64_t now);
  void FlushWrite(ServerConnection* conn, int64_t now);
  void FinishResponse(ServerConnection* conn, int64_t now);
  void StartLinger(ServerConnection* conn, int64_t close_at, int64_t now);
  void SweepTimers(int64_t now);
  void UpdateInterest(ServerConnection* conn, bool readable, bool writable);
  void CloseConn(uint64_t conn_id);
  /// Earliest armed deadline on `conn`, or 0 when none.
  int64_t ConnDeadline(const ServerConnection* conn) const;
  void ArmHint(int64_t deadline);

  bool CheckAuth(const http::HttpRequest& request) const;
  Completion BuildResponse(uint64_t conn_id, http::HttpRequest request,
                           netsim::FaultRule fault, bool keep_alive) const;

  ServerConfig config_;
  std::shared_ptr<Router> router_;
  net::TcpListener listener_;
  netsim::FaultInjector faults_;
  ServerStats stats_;

  net::Poller poller_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint32_t> max_connections_{0};
  std::atomic<uint32_t> max_dispatch_backlog_{0};
  /// Requests submitted to the pool whose completions the reactor has
  /// not collected yet — the admission-control backlog signal.
  std::atomic<uint32_t> dispatch_inflight_{0};

  /// Serialises Stop() callers: exactly one joins the reactor, and every
  /// caller returns only after teardown completed. Start()'s write of
  /// reactor_thread_ takes it too, purely for the annotation — no Stop()
  /// can race construction.
  Mutex stop_mu_;
  std::thread reactor_thread_ GUARDED_BY(stop_mu_);

  Mutex done_mu_;
  std::vector<Completion> completions_ GUARDED_BY(done_mu_);

  // Reactor-thread-only state below (no locks by design).
  uint64_t next_conn_id_ = 2;  // 0 = listener key, 1 = reserved
  std::unordered_map<uint64_t, std::unique_ptr<ServerConnection>> conns_;
  /// Earliest armed deadline across all connections (0 = none); a full
  /// sweep recomputes it, state changes only ever pull it earlier.
  int64_t next_deadline_hint_ = 0;
  bool draining_ = false;
  int64_t drain_deadline_ = 0;
};

}  // namespace httpd
}  // namespace davix

#endif  // DAVIX_HTTPD_SERVER_H_
