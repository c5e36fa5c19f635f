#include "httpd/server.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/base64.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "httpd/dav_handler.h"

namespace davix {
namespace httpd {
namespace {

/// epoll key of the listening socket.
constexpr uint64_t kListenerKey = 0;
/// How long a Connection: close response holds its fd half-closed so the
/// final bytes outrun the RST a hard close with unread input can raise.
constexpr int64_t kLingerMicros = 100'000;
/// Injected slow-body faults trickle ~20 writes per second (matching the
/// old blocking server's cadence, which bench_fault_soak calibrates to).
constexpr int64_t kTrickleIntervalMicros = 50'000;
/// Upper bound on one epoll wait when nothing sooner is scheduled.
constexpr int64_t kMaxWaitMicros = 500'000;
/// Per-event read budget so one firehose connection cannot starve the
/// rest of the loop; level-triggered epoll re-reports the remainder.
constexpr size_t kMaxReadPerEvent = 256 * 1024;
/// Accepts drained per listener event, for the same fairness reason.
constexpr int kMaxAcceptsPerEvent = 256;

/// A canned plain-text answer that closes the connection.
Reply CannedReply(const ServerConfig& config, int status_code,
                  std::string_view body, bool retry_after, bool counted) {
  http::HttpResponse response;
  response.status_code = status_code;
  response.headers.Set("Content-Type", "text/plain");
  if (retry_after) {
    response.headers.Set("Retry-After",
                         std::to_string(config.shed_retry_after_seconds));
  }
  response.headers.Set("Server", config.server_name);
  response.headers.Set("Date", http::FormatHttpDate(WallSeconds()));
  response.headers.Set("Connection", "close");
  response.body = std::string(body);

  Reply reply;
  reply.segments.push_back(Segment{response.Serialize()});
  reply.shaped = false;
  reply.counted = counted;
  reply.end = ReplyEnd::kLingerClose;
  return reply;
}

bool CheckAuth(const ServerConfig& config, const http::HttpRequest& request) {
  std::optional<std::string> authorization =
      request.headers.Get("Authorization");
  if (!authorization) return false;
  std::string_view value = TrimWhitespace(*authorization);
  if (!StartsWith(value, "Basic ")) return false;
  Result<std::string> decoded = Base64Decode(value.substr(6));
  if (!decoded.ok()) return false;
  return *decoded == config.basic_auth_user + ":" + config.basic_auth_password;
}

/// Runs on a worker: routes one request and encodes its HTTP/1.1 reply.
Reply ServeHttp(const ServerConfig& config, const Router& router,
                const http::HttpRequest& request, netsim::FaultRule fault,
                bool keep_alive) {
  Reply reply;
  if (fault.action == netsim::FaultAction::kResetMidHeaders) {
    // A partial status line + truncated header, then a hard close. The
    // client has consumed bytes, so the exchange is not replayable on a
    // recycled session: it must spend a real retry.
    reply.segments.push_back(Segment{"HTTP/1.1 200 OK\r\nContent-Le"});
    reply.shaped = false;
    reply.counted = false;
    reply.end = ReplyEnd::kHardClose;
    return reply;
  }

  http::HttpResponse response;
  if (fault.action == netsim::FaultAction::kServerError) {
    response.status_code = 503;
    response.headers.Set("Content-Type", "text/plain");
    response.body = "injected fault\n";
  } else if (fault.action == netsim::FaultAction::kRetryAfter) {
    response.status_code = 503;
    response.headers.Set("Content-Type", "text/plain");
    response.headers.Set("Retry-After",
                         std::to_string(fault.retry_after_seconds));
    response.body = "injected fault: retry later\n";
  } else if (!config.basic_auth_user.empty() && !CheckAuth(config, request)) {
    response.status_code = 401;
    response.headers.Set("WWW-Authenticate", "Basic realm=\"davix\"");
    response.headers.Set("Content-Type", "text/plain");
    response.body = "authentication required\n";
  } else {
    router.Dispatch(request, &response);
  }

  response.headers.Set("Server", config.server_name);
  response.headers.Set("Date", http::FormatHttpDate(WallSeconds()));
  response.headers.Set("Connection", keep_alive ? "keep-alive" : "close");

  if (request.method == http::Method::kHead) {
    // HEAD responses advertise the entity length but carry no body.
    if (!response.headers.Has("Content-Length")) {
      response.headers.Set("Content-Length",
                           std::to_string(response.Body().size()));
    }
    response.body.clear();
    response.body_owner.reset();
  }

  Segment segment;
  segment.head = response.SerializeHead(response.Body().size());
  // A slice of a stored object: the payload is never copied.
  TakeBody(&response, &segment.owner, &segment.body);
  if (fault.action == netsim::FaultAction::kTruncateBody &&
      !segment.body.empty()) {
    // The head still declares the full length; the tail never comes.
    segment.body.remove_suffix(segment.body.size() / 2 + 1);
  }
  reply.end = keep_alive ? ReplyEnd::kKeepOpen : ReplyEnd::kLingerClose;
  // Slow loris: the header block goes out at full speed (the client
  // commits to this response), then the body trickles at the rule's
  // rate, one step per interval.
  std::string_view body = segment.body;
  size_t step =
      fault.action == netsim::FaultAction::kSlowBody
          ? static_cast<size_t>(std::max<int64_t>(1, fault.body_bytes_per_sec / 20))
          : body.size();
  segment.body = body.substr(0, step);
  reply.segments.push_back(segment);
  for (size_t at = step; at < body.size(); at += step) {
    reply.segments.emplace_back("", segment.owner, body.substr(at, step));
    reply.segments.back().link_micros = kTrickleIntervalMicros;
  }
  return reply;
}

/// The HTTP/1.1 codec: one exchange at a time per connection, responses
/// in request order, keep-alive, and the request-size limits (431/413).
class HttpCodec : public ConnectionCodec {
 public:
  HttpCodec(const ServerConfig* config, std::shared_ptr<Router> router,
            netsim::FaultInjector* faults, ServerStats* stats)
      : config_(config),
        router_(std::move(router)),
        faults_(faults),
        stats_(stats),
        assembler_(RequestAssembler::Limits{config->max_request_line_bytes,
                                            config->max_header_bytes,
                                            config->max_body_bytes}) {}

  size_t max_in_flight() const override { return 1; }

  Parsed Parse(std::string* in, size_t /*in_flight*/) override {
    Parsed parsed;
    http::HttpRequest request;
    bool head_done = false;
    AssembleOutcome outcome =
        assembler_.Poll(in, &request, &parsed.wire_bytes, &head_done);
    switch (outcome) {
      case AssembleOutcome::kNeedMore:
        parsed.mid_head = !in->empty() && !head_done;
        return parsed;
      case AssembleOutcome::kMalformed:
        // Not HTTP: drop silently, as the blocking server always did.
        parsed.kind = Parsed::Kind::kClose;
        return parsed;
      case AssembleOutcome::kHeaderTooLarge:
      case AssembleOutcome::kBodyTooLarge:
        parsed.kind = Parsed::Kind::kReply;
        parsed.reply =
            outcome == AssembleOutcome::kBodyTooLarge
                ? CannedReply(*config_, 413, "payload too large\n", false, false)
                : CannedReply(*config_, 431, "request header fields too large\n",
                              false, false);
        return parsed;
      case AssembleOutcome::kReady:
        break;
    }

    netsim::FaultRule fault = faults_->Decide(RequestPath(request));
    if (fault.action != netsim::FaultAction::kNone) {
      stats_->faults_injected.fetch_add(1, std::memory_order_relaxed);
    }
    if (fault.action == netsim::FaultAction::kRefuseConnection ||
        fault.action == netsim::FaultAction::kStall) {
      parsed.kind = Parsed::Kind::kClose;  // close without answering
      if (fault.action == netsim::FaultAction::kStall) {
        parsed.close_after_micros = fault.stall_micros;
      }
      return parsed;
    }

    bool client_wants_close =
        request.headers.ListContains("Connection", "close") ||
        (request.version == "HTTP/1.0" &&
         !request.headers.ListContains("Connection", "keep-alive"));
    bool keep_alive = config_->enable_keepalive && !client_wants_close &&
                      fault.action != netsim::FaultAction::kTruncateBody &&
                      fault.action != netsim::FaultAction::kSlowBody;
    parsed.kind = Parsed::Kind::kRequest;
    parsed.serve = [config = config_, router = router_,
                    request = std::move(request), fault, keep_alive] {
      return ServeHttp(*config, *router, request, fault, keep_alive);
    };
    return parsed;
  }

  Reply Refuse(const Parsed* request) override {
    // The client honours the Retry-After and comes back later.
    return CannedReply(*config_, 503, "server overloaded; retry later\n",
                       /*retry_after=*/true, /*counted=*/request != nullptr);
  }

 private:
  const ServerConfig* config_;
  std::shared_ptr<Router> router_;
  netsim::FaultInjector* faults_;
  ServerStats* stats_;
  RequestAssembler assembler_;
};

}  // namespace

HttpServer::HttpServer(ServerConfig config)
    : config_(std::move(config)), faults_(config_.fault_seed) {
  max_connections_.store(config_.max_connections, std::memory_order_relaxed);
  max_dispatch_backlog_.store(config_.max_dispatch_backlog,
                              std::memory_order_relaxed);
}

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    ServerConfig config, std::shared_ptr<Router> router) {
  auto server = StartWithCodec(std::move(config), [router](HttpServer* s) {
    return std::make_unique<HttpCodec>(&s->config(), router, &s->faults(),
                                       &s->stats());
  });
  if (server.ok()) {
    DAVIX_LOG(kInfo) << "httpd listening on port " << (*server)->port();
  }
  return server;
}

Result<std::unique_ptr<HttpServer>> HttpServer::StartWithCodec(
    ServerConfig config, CodecFactory codecs) {
  std::unique_ptr<HttpServer> server(new HttpServer(std::move(config)));
  HttpServer* s = server.get();
  s->codecs_ = std::move(codecs);
  DAVIX_ASSIGN_OR_RETURN(s->listener_,
                         net::TcpListener::Listen(s->config_.port,
                                                  s->config_.listen_backlog));
  DAVIX_RETURN_IF_ERROR(s->listener_.SetNonBlocking(true));
  DAVIX_ASSIGN_OR_RETURN(s->poller_, net::Poller::Create());
  DAVIX_RETURN_IF_ERROR(s->poller_.Add(s->listener_.fd(), kListenerKey,
                                       /*readable=*/true, /*writable=*/false));
  s->pool_ = std::make_unique<ThreadPool>(
      std::max<uint32_t>(1, s->config_.worker_threads));
  {
    MutexLock lock(s->stop_mu_);
    s->reactor_thread_ = std::thread([s] { s->ReactorLoop(); });
  }
  return server;
}

HttpServer::~HttpServer() { Stop(); }

std::string HttpServer::BaseUrl() const {
  return "http://127.0.0.1:" + std::to_string(port());
}

void HttpServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  poller_.Wakeup();
  // stop_mu_ makes concurrent Stop() calls safe: the first caller joins
  // the reactor (joinable() goes false under the lock), later and
  // concurrent callers find nothing left to join but still wait here
  // until teardown has finished before returning.
  MutexLock lock(stop_mu_);
  if (reactor_thread_.joinable()) reactor_thread_.join();
  if (pool_) pool_->Shutdown();
}

void HttpServer::ArmHint(int64_t deadline) {
  if (deadline <= 0) return;
  if (next_deadline_hint_ == 0 || deadline < next_deadline_hint_) {
    next_deadline_hint_ = deadline;
  }
}

ServerConnection* HttpServer::Find(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

bool HttpServer::CanParse(const ServerConnection* conn) const {
  return !conn->closing && !conn->lingering && !draining_ &&
         conn->in_flight < conn->codec->max_in_flight();
}

int64_t HttpServer::ConnDeadline(const ServerConnection* conn) const {
  int64_t deadline = 0;
  auto consider = [&deadline](int64_t t) {
    if (t > 0 && (deadline == 0 || t < deadline)) deadline = t;
  };
  consider(conn->close_at);
  if (conn->write_blocked) {
    consider(conn->write_progress_at + config_.write_stall_timeout_micros);
  } else if (conn->current) {
    consider(conn->out_due);  // Pump commits whenever output is queued
  }
  if (conn->in_flight == 0 && conn->close_at == 0) {
    consider(conn->last_byte_at + config_.idle_timeout_micros);
  }
  if (CanParse(conn) && conn->mid_head && conn->request_started_at > 0) {
    consider(conn->request_started_at + (config_.header_timeout_micros > 0
                                             ? config_.header_timeout_micros
                                             : config_.idle_timeout_micros));
  }
  return deadline;
}

void HttpServer::ReactorLoop() {
  std::vector<net::Poller::Event> events;
  while (true) {
    int64_t now = MonotonicMicros();
    if (stopping_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain(now);
    }
    if (draining_) {
      if (conns_.empty()) {
        // Every in-flight response finished inside the deadline.
        stats_.drain_completions.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (now >= drain_deadline_) {
        while (!conns_.empty()) CloseConn(conns_.begin()->first);
        break;
      }
    }

    int64_t timeout = kMaxWaitMicros;
    if (next_deadline_hint_ > 0) {
      timeout = std::min(timeout,
                         std::max<int64_t>(0, next_deadline_hint_ - now));
    }
    if (draining_) {
      timeout =
          std::min(timeout, std::max<int64_t>(0, drain_deadline_ - now));
    }
    Result<size_t> waited = poller_.Wait(&events, timeout);
    now = MonotonicMicros();
    if (!waited.ok()) {
      DAVIX_LOG(kError) << "reactor wait failed: "
                        << waited.status().ToString();
      break;
    }
    for (const net::Poller::Event& event : events) {
      if (event.key == kListenerKey) {
        if (!draining_) HandleAccepts(now);
      } else {
        HandleConnEvent(event, now);
      }
    }
    DrainCompletions(now);
    if (next_deadline_hint_ > 0 && now >= next_deadline_hint_) {
      SweepTimers(now);
    }
  }
}

void HttpServer::BeginDrain(int64_t now) {
  draining_ = true;
  drain_deadline_ = now + config_.drain_deadline_micros;
  poller_.Remove(listener_.fd());
  listener_.Close();
  // Connections with exchanges in flight are what the drain deadline
  // protects: they take no new requests and close once written out. The
  // rest go now (erasing only their own entry keeps `it` valid).
  for (auto it = conns_.begin(); it != conns_.end();) {
    ServerConnection* conn = (it++)->second.get();
    if (conn->in_flight == 0 || conn->lingering) {
      CloseConn(conn->id);
    } else {
      Settle(conn->id);
    }
  }
  ArmHint(drain_deadline_);
}

void HttpServer::HandleAccepts(int64_t now) {
  for (int i = 0; i < kMaxAcceptsPerEvent; ++i) {
    Result<net::TcpSocket> socket = listener_.AcceptNonBlocking();
    if (!socket.ok()) {
      if (!socket.status().IsTimeout() &&
          !stopping_.load(std::memory_order_relaxed)) {
        DAVIX_LOG(kError) << "accept failed: " << socket.status().ToString();
      }
      return;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    (void)socket->SetNoDelay(true);

    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<ServerConnection>(id, std::move(*socket),
                                                   config_.link, codecs_(this));
    ServerConnection* raw = conn.get();
    raw->last_byte_at = now;

    bool shed = stats_.connections_active.load(std::memory_order_relaxed) >=
                max_connections_.load(std::memory_order_relaxed);
    if (!poller_.Add(raw->socket.fd(), id, /*readable=*/!shed,
                     /*writable=*/false)
             .ok()) {
      continue;  // fd table or epoll exhausted: drop on the floor
    }
    raw->read_interest = !shed;
    conns_.emplace(id, std::move(conn));
    if (shed) {
      stats_.connections_shed.fetch_add(1, std::memory_order_relaxed);
      Reply refusal = raw->codec->Refuse(nullptr);
      if (refusal.segments.empty()) {
        CloseConn(id);
        continue;
      }
      raw->in_flight++;
      QueueReply(raw, 0, std::move(refusal), 0, now);
      Settle(id);
    } else {
      raw->counted_active = true;
      stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
      ArmHint(now + config_.idle_timeout_micros);
    }
  }
}

void HttpServer::HandleConnEvent(const net::Poller::Event& event,
                                 int64_t now) {
  ServerConnection* conn = Find(event.key);
  if (conn == nullptr) return;
  if (event.error) {
    CloseConn(event.key);
    return;
  }
  if (event.readable) {
    ReadInput(conn, now);
    ProcessInput(event.key, now);
  }
  if (event.writable && (conn = Find(event.key)) != nullptr) {
    conn->write_blocked = false;
    Pump(conn, now);
  }
  Settle(event.key);
}

void HttpServer::ReadInput(ServerConnection* conn, int64_t now) {
  char buf[16384];
  size_t total = 0;
  while (total < kMaxReadPerEvent) {
    Result<size_t> n = conn->socket.ReadNonBlocking(buf, sizeof(buf));
    if (!n.ok()) {
      if (n.status().IsTimeout()) return;  // drained
      CloseConn(conn->id);
      return;
    }
    if (*n == 0) {
      conn->peer_eof = true;
      if (conn->lingering) CloseConn(conn->id);
      return;
    }
    total += *n;
    if (conn->lingering) continue;  // discard: the response is decided
    if (conn->in_buf.empty()) conn->request_started_at = now;
    conn->in_buf.append(buf, *n);
    conn->last_byte_at = now;
  }
}

void HttpServer::ProcessInput(uint64_t conn_id, int64_t now) {
  ServerConnection* conn = Find(conn_id);
  if (conn == nullptr || conn->parsing) return;
  conn->parsing = true;
  while (CanParse(conn)) {
    Parsed parsed = conn->codec->Parse(&conn->in_buf, conn->in_flight);
    if (parsed.kind == Parsed::Kind::kNeedMore) {
      conn->mid_head = parsed.mid_head;
      if (conn->peer_eof && conn->in_flight == 0) {
        CloseConn(conn_id);
        return;
      }
      break;
    }
    conn->mid_head = false;
    conn->request_started_at = conn->in_buf.empty() ? 0 : now;
    switch (parsed.kind) {
      case Parsed::Kind::kNeedMore:
        break;
      case Parsed::Kind::kRequest:
      case Parsed::Kind::kReply:
        Dispatch(conn, std::move(parsed), now);
        break;
      case Parsed::Kind::kCancel:
        Cancel(conn, parsed.stream);
        break;
      case Parsed::Kind::kClose:
        if (parsed.close_after_micros == 0) {
          CloseConn(conn_id);
          return;
        }
        // Silent stall: a timer, not a sleeping thread.
        conn->closing = true;
        conn->close_at = now + parsed.close_after_micros;
        break;
    }
    if ((conn = Find(conn_id)) == nullptr) return;
  }
  conn->parsing = false;
}

void HttpServer::Dispatch(ServerConnection* conn, Parsed parsed,
                          int64_t now) {
  if (parsed.kind == Parsed::Kind::kRequest || parsed.reply.counted) {
    stats_.bytes_received.fetch_add(parsed.wire_bytes,
                                    std::memory_order_relaxed);
    stats_.requests_handled.fetch_add(1, std::memory_order_relaxed);
    if (conn->served_one) {
      stats_.keepalive_reuses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  conn->in_flight++;
  if (parsed.kind == Parsed::Kind::kReply) {
    QueueReply(conn, parsed.stream, std::move(parsed.reply),
               parsed.wire_bytes, now);
    return;
  }
  // Admission control: when the worker pool is already saturated,
  // answer with the protocol's refusal from the reactor instead of
  // queueing unboundedly.
  if (dispatch_inflight_.load(std::memory_order_relaxed) >=
      max_dispatch_backlog_.load(std::memory_order_relaxed)) {
    stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
    QueueReply(conn, parsed.stream, conn->codec->Refuse(&parsed),
               parsed.wire_bytes, now);
    return;
  }
  dispatch_inflight_.fetch_add(1, std::memory_order_relaxed);
  conn->dispatched.insert(parsed.stream);
  bool submitted = pool_->Submit(
      [this, done = Completion{conn->id, parsed.stream, parsed.wire_bytes, {}},
       serve = std::move(parsed.serve)]() mutable {
        done.reply = serve();
        {
          MutexLock lock(done_mu_);
          completions_.push_back(std::move(done));
        }
        poller_.Wakeup();
      });
  if (!submitted) {
    dispatch_inflight_.fetch_sub(1, std::memory_order_relaxed);
    CloseConn(conn->id);
  }
}

void HttpServer::Cancel(ServerConnection* conn, uint64_t stream) {
  if (conn->dispatched.count(stream) > 0) {
    conn->cancelled.insert(stream);  // dropped when its completion lands
    return;
  }
  // Queued output loses its unsent segments (Pump retires the emptied
  // exchange); a committed segment is already due on the wire and stays.
  if (conn->current && conn->current->key == stream) {
    conn->current->segments.resize(1);
    conn->current->counted = false;
  }
  for (OutStream& out : conn->queued) {
    if (out.key != stream) continue;
    out.segments.clear();
    out.counted = false;
  }
}

void HttpServer::DrainCompletions(int64_t now) {
  std::vector<Completion> batch;
  {
    MutexLock lock(done_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    dispatch_inflight_.fetch_sub(1, std::memory_order_relaxed);
    ServerConnection* conn = Find(done.conn_id);
    if (conn == nullptr) continue;  // connection died while computing
    auto node = conn->dispatched.find(done.stream);
    if (node != conn->dispatched.end()) conn->dispatched.erase(node);
    if (conn->cancelled.erase(done.stream) > 0) {
      EndExchange(conn, nullptr, now);
    } else {
      QueueReply(conn, done.stream, std::move(done.reply), done.request_bytes,
                 now);
    }
    Settle(done.conn_id);
  }
}

void HttpServer::QueueReply(ServerConnection* conn, uint64_t stream,
                            Reply reply, size_t request_bytes, int64_t now) {
  OutStream out;
  out.key = stream;
  out.ready_at = now;
  out.counted = reply.counted;
  out.end = reply.end;
  if (reply.end != ReplyEnd::kKeepOpen) conn->closing = true;
  if (reply.shaped) {
    // The exchange's modelled delay: propagation is a timer that
    // overlaps other exchanges'; serialisation is spread over the
    // segments in proportion to their bytes and charged on the link.
    int64_t total = 0;
    for (const Segment& segment : reply.segments) {
      total += static_cast<int64_t>(segment.size());
    }
    netsim::ConnectionShaper::ExchangePlan plan = conn->shaper.PlanExchange(
        static_cast<int64_t>(request_bytes), total);
    out.ready_at += plan.latency_micros + reply.extra_latency_micros;
    int64_t bytes_so_far = 0;
    int64_t charged = 0;
    for (Segment& segment : reply.segments) {
      bytes_so_far += static_cast<int64_t>(segment.size());
      int64_t due = total > 0 ? plan.bandwidth_micros * bytes_so_far / total
                              : plan.bandwidth_micros;
      segment.link_micros += due - charged;
      charged = due;
    }
  }
  out.segments.assign(std::make_move_iterator(reply.segments.begin()),
                      std::make_move_iterator(reply.segments.end()));
  conn->queued.push_back(std::move(out));
  Pump(conn, now);
}

void HttpServer::Pump(ServerConnection* conn, int64_t now) {
  const uint64_t id = conn->id;
  while (!conn->write_blocked) {
    if (!conn->current) {
      if (conn->queued.empty()) return;
      // Round-robin: the first exchange in queue order that is ready
      // when the link frees goes next, and rejoins the back after its
      // segment. An idle link takes the earliest-ready one at once, so a
      // lone exchange costs one timer.
      int64_t link_time = std::max(conn->link_free_at, now);
      auto next = std::find_if(
          conn->queued.begin(), conn->queued.end(),
          [link_time](const OutStream& s) { return s.ready_at <= link_time; });
      if (next == conn->queued.end()) {
        next = std::min_element(
            conn->queued.begin(), conn->queued.end(),
            [](const OutStream& a, const OutStream& b) {
              return a.ready_at < b.ready_at;
            });
      }
      conn->current = std::move(*next);
      conn->queued.erase(next);
      if (conn->current->segments.empty()) {  // cancelled
        conn->current.reset();
        EndExchange(conn, nullptr, now);
        if ((conn = Find(id)) == nullptr) return;
        continue;
      }
      conn->out_due = std::max(conn->link_free_at, conn->current->ready_at) +
                      conn->current->segments.front().link_micros;
      conn->out_pos = 0;
    }
    if (now < conn->out_due) return;  // ConnDeadline arms the timer
    // The write-stall watchdog measures from the first attempt.
    if (conn->out_pos == 0) conn->write_progress_at = now;

    const Segment& segment = conn->current->segments.front();
    const size_t head_size = segment.head.size();
    while (conn->out_pos < segment.size()) {
      std::string_view head = std::string_view(segment.head).substr(
          std::min(conn->out_pos, head_size));
      std::string_view body = segment.body.substr(
          std::max(conn->out_pos, head_size) - head_size);
      Result<size_t> n = conn->socket.WriteSome(head, body);
      if (!n.ok() && !n.status().IsTimeout()) {
        CloseConn(id);
        return;
      }
      if (!n.ok() || *n == 0) {
        // Send buffer full: backpressure. Wait for EPOLLOUT, bounded by
        // the write-stall watchdog.
        conn->write_blocked = true;
        return;
      }
      conn->out_pos += *n;
      conn->write_progress_at = now;
      stats_.bytes_sent.fetch_add(*n, std::memory_order_relaxed);
    }

    conn->link_free_at = conn->out_due;
    OutStream out = std::move(*conn->current);
    conn->current.reset();
    out.segments.pop_front();
    if (!out.segments.empty()) {
      conn->queued.push_back(std::move(out));
      continue;
    }
    EndExchange(conn, &out, now);
    if ((conn = Find(id)) == nullptr) return;
  }
}

void HttpServer::EndExchange(ServerConnection* conn, const OutStream* done,
                             int64_t now) {
  conn->in_flight--;
  conn->last_byte_at = now;
  if (done != nullptr) {
    conn->served_one = true;
    if (done->counted) {
      stats_.responses_completed.fetch_add(1, std::memory_order_relaxed);
    }
    if (done->end == ReplyEnd::kHardClose) {
      CloseConn(conn->id);
      return;
    }
    if (done->end == ReplyEnd::kLingerClose) {
      StartLinger(conn, now);
      return;
    }
  }
  if (draining_ && conn->in_flight == 0) {
    StartLinger(conn, now);
    return;
  }
  // Pipelined requests may already be buffered, and a peer that has
  // half-closed is let go once nothing is left in flight.
  ProcessInput(conn->id, now);
}

void HttpServer::StartLinger(ServerConnection* conn, int64_t now) {
  conn->closing = true;
  conn->lingering = true;
  conn->close_at = now + kLingerMicros;
  conn->queued.clear();
  conn->current.reset();
  conn->write_blocked = false;
  conn->socket.ShutdownWrite();
}

void HttpServer::SweepTimers(int64_t now) {
  // Every live connection re-arms its own deadline as it settles.
  next_deadline_hint_ = 0;
  // A tick closes at most its own connection, so `it` stays valid.
  for (auto it = conns_.begin(); it != conns_.end();) Tick((it++)->first, now);
  if (draining_) ArmHint(drain_deadline_);
}

void HttpServer::Tick(uint64_t conn_id, int64_t now) {
  ServerConnection* conn = Find(conn_id);
  if (conn == nullptr) return;
  Pump(conn, now);
  if ((conn = Find(conn_id)) == nullptr) return;
  int64_t deadline = ConnDeadline(conn);
  if (deadline == 0 || now < deadline) {
    Settle(conn_id);
    return;
  }
  // Pump spent the output timers: what is due now closes the connection.
  if (conn->write_blocked &&
      now >= conn->write_progress_at + config_.write_stall_timeout_micros) {
    stats_.write_stall_aborts.fetch_add(1, std::memory_order_relaxed);
  } else if (conn->close_at == 0 && CanParse(conn) && conn->mid_head) {
    stats_.header_timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  CloseConn(conn_id);
}

void HttpServer::Settle(uint64_t conn_id) {
  ServerConnection* conn = Find(conn_id);
  if (conn == nullptr) return;
  bool readable = conn->lingering || (CanParse(conn) && !conn->peer_eof);
  bool writable = conn->write_blocked;
  if (conn->read_interest != readable || conn->write_interest != writable) {
    conn->read_interest = readable;
    conn->write_interest = writable;
    (void)poller_.Modify(conn->socket.fd(), conn->id, readable, writable);
  }
  ArmHint(ConnDeadline(conn));
}

void HttpServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ServerConnection* conn = it->second.get();
  poller_.Remove(conn->socket.fd());
  conn->socket.Close();
  if (conn->counted_active) {
    stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.erase(it);
}

}  // namespace httpd
}  // namespace davix
