// The repository benchmark: one process drives in-process servers and
// clients over loopback and reports end-to-end and per-layer metrics for
// one workload (definitions in perfbench/METRICS.md).
//
//   perfbench --workload fig4_wan|bulk_rw --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// The last line of standard output is the result object; every metric is
// also printed by name with its unit on the lines above it. Every
// delivered byte is checked (compared with the ObjectStore truth, or the
// analysis aggregate against the local-file truth); any mismatch makes
// the run exit non-zero.
//
// Resource caps: one client thread, a dispatcher of min(nproc, 4)
// threads per Context, vectored fan-out and idle pool of 4 connections
// per host, the mux transport's default 2 connections, and one xrootd
// connection. Every run prints the connections and dispatcher threads
// actually used and fails when one exceeds its cap.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/uri.h"
#include "compress/codec.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/dav_posix.h"
#include "http/multipart.h"
#include "httpd/dav_handler.h"
#include "httpd/object_store.h"
#include "httpd/router.h"
#include "httpd/server.h"
#include "muxhttp/mux.h"
#include "net/socket_address.h"
#include "net/tcp_socket.h"
#include "netsim/link_profile.h"
#include "harness.h"
#include "root/analysis_job.h"
#include "root/random_access_file.h"
#include "root/storage_adapter.h"
#include "root/tree_format.h"
#include "xrootd/xrd_client.h"
#include "xrootd/xrd_server.h"

namespace perfbench {
namespace {

using davix::Result;
using davix::Status;
namespace core = davix::core;
namespace http = davix::http;
namespace httpd = davix::httpd;
namespace root = davix::root;

constexpr char kObjectPath[] = "/bench/object.bin";
constexpr char kPutPath[] = "/bench/put.bin";
constexpr char kTreePath[] = "/bench/events.rnt";
constexpr uint64_t kPageBytes = 4096;
constexpr size_t kVecRanges = 64;
constexpr uint64_t kBulkBytes = 8ull << 20;
constexpr uint64_t kScanReadBytes = 128 * 1024;
constexpr int kSetupRepeats = 7;

// ---------------------------------------------------------------------------
// Process-wide helpers.
// ---------------------------------------------------------------------------

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: fatal: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(*result);
}

size_t ThreadCap() {
  size_t n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n, 1, 4);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// True when `parts` are exactly the bytes of `ranges` in `truth`.
bool PartsMatch(const std::vector<std::string>& parts, std::string_view truth,
                const std::vector<http::ByteRange>& ranges) {
  if (parts.size() != ranges.size()) return false;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (ranges[i].offset > truth.size() ||
        parts[i] != truth.substr(ranges[i].offset, ranges[i].length)) {
      return false;
    }
  }
  return true;
}


core::RequestParams BaseParams(core::TransportKind transport) {
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  params.transport = transport;
  params.max_parallel_range_requests = 4;
  params.connect_timeout_micros = 10'000'000;
  params.operation_timeout_micros = 60'000'000;
  return params;
}

core::SessionPoolConfig CappedPool() {
  core::SessionPoolConfig config;
  config.max_idle_per_host = 4;
  return config;
}

// ---------------------------------------------------------------------------
// Server side: one storage node serving HTTP/1.1, framed mux and xrootd
// from one ObjectStore, with an optional timing route over the handler.
// ---------------------------------------------------------------------------

/// Times DavHandler::Handle by request class: the Router's only route on
/// the nodes that are timed; records only while enabled.
class HandlerTimer {
 public:
  HandlerTimer(std::shared_ptr<httpd::DavHandler> handler, Tracer* tracer)
      : handler_(std::move(handler)), tracer_(tracer) {}

  void Install(httpd::Router* router) {
    router->HandleAll("/", [this](const http::HttpRequest& request,
                                  http::HttpResponse* response) {
      if (!enabled_.load(std::memory_order_relaxed)) {
        handler_->Handle(request, response);
        return;
      }
      int64_t start = NowNanos();
      {
        Tracer::Scope span(tracer_, "httpd.handle", 0);
        handler_->Handle(request, response);
      }
      double micros = static_cast<double>(NowNanos() - start) / 1e3;
      std::lock_guard<std::mutex> lock(mu_);
      samples_[Classify(request, *response)].Add(micros);
    });
  }

  void set_enabled(bool enabled) { enabled_.store(enabled); }

  std::map<std::string, Samples> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(samples_);
  }

 private:
  static std::string Classify(const http::HttpRequest& request,
                              const http::HttpResponse& response) {
    if (request.method == http::Method::kPut) {
      return request.body.size() >= kBulkBytes ? "put8m" : "put";
    }
    if (request.method != http::Method::kGet) return "other";
    auto range = request.headers.Get("Range");
    if (range.has_value()) {
      return range->find(',') == std::string::npos ? "range" : "multirange";
    }
    return response.body.size() >= kBulkBytes ? "get8m" : "other";
  }

  std::shared_ptr<httpd::DavHandler> handler_;
  Tracer* tracer_;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::map<std::string, Samples> samples_;
};

struct Node {
  std::shared_ptr<httpd::ObjectStore> store;
  std::shared_ptr<httpd::DavHandler> handler;
  std::shared_ptr<httpd::Router> router;
  std::unique_ptr<HandlerTimer> timer;
  std::unique_ptr<httpd::HttpServer> http;
  std::unique_ptr<davix::muxhttp::MuxServer> mux;
  std::unique_ptr<davix::xrootd::XrdServer> xrd;

  ~Node() {
    if (mux) mux->Stop();
    if (xrd) xrd->Stop();
    if (http) http->Stop();
  }
  std::string HttpUrl(const std::string& path) const {
    return "http://127.0.0.1:" + std::to_string(http->port()) + path;
  }
  std::string MuxUrl(const std::string& path) const {
    return "http://127.0.0.1:" + std::to_string(mux->port()) + path;
  }
};

/// Starts the three servers over `store`. With `timed`, requests reach
/// the handler through a HandlerTimer (`node->timer`); otherwise the
/// handler is registered directly.
std::unique_ptr<Node> StartNode(const davix::netsim::LinkProfile& link,
                                std::shared_ptr<httpd::ObjectStore> store,
                                bool timed, Tracer* tracer) {
  auto node = std::make_unique<Node>();
  node->store = std::move(store);
  node->handler = std::make_shared<httpd::DavHandler>(node->store);
  node->router = std::make_shared<httpd::Router>();
  if (timed) {
    node->timer = std::make_unique<HandlerTimer>(node->handler, tracer);
    node->timer->Install(node->router.get());
  } else {
    node->handler->Register(node->router.get(), "/");
  }
  httpd::ServerConfig http_config;
  http_config.link = link;
  node->http = Must(httpd::HttpServer::Start(http_config, node->router),
                    "start http server");
  davix::muxhttp::MuxServerConfig mux_config;
  mux_config.link = link;
  node->mux = Must(davix::muxhttp::MuxServer::Start(mux_config, node->router),
                   "start mux server");
  davix::xrootd::XrdServerConfig xrd_config;
  xrd_config.link = link;
  node->xrd = Must(davix::xrootd::XrdServer::Start(xrd_config, node->store),
                   "start xrootd server");
  return node;
}

/// Server-side counters of a node, for deltas over a measured window.
struct ServerCounters {
  uint64_t requests_handled = 0;
  uint64_t keepalive_reuses = 0;
  uint64_t requests_shed = 0;
  uint64_t multirange_requests = 0;
  uint64_t ranges_served = 0;

  static ServerCounters Of(Node& node) {
    ServerCounters c;
    c.requests_handled = node.http->stats().requests_handled.load();
    c.keepalive_reuses = node.http->stats().keepalive_reuses.load();
    c.requests_shed = node.http->stats().requests_shed.load();
    c.multirange_requests = node.handler->stats().multirange_requests.load();
    c.ranges_served = node.handler->stats().ranges_served.load();
    return c;
  }
  ServerCounters Minus(const ServerCounters& base) const {
    ServerCounters d;
    d.requests_handled = requests_handled - base.requests_handled;
    d.keepalive_reuses = keepalive_reuses - base.keepalive_reuses;
    d.requests_shed = requests_shed - base.requests_shed;
    d.multirange_requests = multirange_requests - base.multirange_requests;
    d.ranges_served = ranges_served - base.ranges_served;
    return d;
  }
  ServerCounters Plus(const ServerCounters& other) const {
    ServerCounters s;
    s.requests_handled = requests_handled + other.requests_handled;
    s.keepalive_reuses = keepalive_reuses + other.keepalive_reuses;
    s.requests_shed = requests_shed + other.requests_shed;
    s.multirange_requests = multirange_requests + other.multirange_requests;
    s.ranges_served = ranges_served + other.ranges_served;
    return s;
  }
};

// ---------------------------------------------------------------------------
// Client-side accounting shared by the workloads.
// ---------------------------------------------------------------------------

/// Client counters of the Contexts a measured window used: sums, except
/// connections and dispatcher threads, which keep the largest Context's
/// figure (the resource caps are per Context).
struct ClientCounters {
  uint64_t requests = 0;
  uint64_t round_trips = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t connections_opened = 0;
  uint64_t acquire_hits = 0;
  uint64_t acquire_misses = 0;
  uint64_t retries = 0;
  uint64_t deadline_expirations = 0;
  uint64_t stall_aborts = 0;
  uint64_t dispatcher_tasks = 0;
  uint64_t dispatcher_threads = 0;
  uint64_t mux_connections_opened = 0;
  uint64_t mux_streams_opened = 0;
  uint64_t mux_backpressure_waits = 0;

  static ClientCounters Of(core::Context& ctx) {
    davix::IoCounters io = ctx.SnapshotCounters();
    ClientCounters c;
    c.requests = io.requests;
    c.round_trips = io.network_round_trips;
    c.bytes_read = io.bytes_read;
    c.bytes_written = io.bytes_written;
    c.connections_opened = io.connections_opened;
    c.acquire_hits = ctx.pool().stats().acquire_hits.load();
    c.acquire_misses = ctx.pool().stats().acquire_misses.load();
    c.retries = io.retries;
    c.deadline_expirations = io.deadline_expirations;
    c.stall_aborts = io.stall_aborts;
    if (ctx.dispatcher_started()) {
      c.dispatcher_tasks = ctx.dispatcher().tasks_submitted();
      c.dispatcher_threads = ctx.dispatcher().num_threads();
    }
    c.mux_connections_opened = io.mux_connections_opened;
    c.mux_streams_opened = io.mux_streams_opened;
    c.mux_backpressure_waits = io.mux_backpressure_waits;
    return c;
  }

  void Merge(const ClientCounters& o) {
    requests += o.requests;
    round_trips += o.round_trips;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    connections_opened = std::max(connections_opened, o.connections_opened);
    acquire_hits += o.acquire_hits;
    acquire_misses += o.acquire_misses;
    retries += o.retries;
    deadline_expirations += o.deadline_expirations;
    stall_aborts += o.stall_aborts;
    dispatcher_tasks += o.dispatcher_tasks;
    dispatcher_threads = std::max(dispatcher_threads, o.dispatcher_threads);
    mux_connections_opened =
        std::max(mux_connections_opened, o.mux_connections_opened);
    mux_streams_opened += o.mux_streams_opened;
    mux_backpressure_waits += o.mux_backpressure_waits;
  }
};

/// Everything one workload run reports.
struct Report {
  MetricSet e2e;
  MetricSet layer;
  Tally tally;
  bool gates_ok = true;
  std::vector<std::string> notes;

  void Gate(bool ok, const std::string& what) {
    if (ok) return;
    gates_ok = false;
    notes.push_back("GATE FAILED: " + what);
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    if (!e2e.Add(name, value, unit)) Fatal("bad end-to-end metric " + name);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    if (!layer.Add(name, value, unit)) Fatal("bad per-layer metric " + name);
  }
};

void AddClientLayerMetrics(Report* report, const ClientCounters& c,
                           uint64_t ops, uint64_t payload_bytes) {
  report->Layer("core.requests_per_op", Ratio(c.requests, ops), "count");
  report->Layer("core.round_trips_per_op", Ratio(c.round_trips, ops), "count");
  report->Layer("core.connections_opened",
                static_cast<double>(c.connections_opened), "count");
  report->Layer("core.pool_acquire_hit_ratio",
                Ratio(c.acquire_hits, c.acquire_hits + c.acquire_misses),
                "ratio");
  report->Layer("core.wire_bytes_per_payload_byte",
                Ratio(c.bytes_read + c.bytes_written, payload_bytes), "ratio");
  report->Layer("core.dispatcher_tasks",
                static_cast<double>(c.dispatcher_tasks), "count");
  report->Layer("core.mux_connections_opened",
                static_cast<double>(c.mux_connections_opened), "count");
  report->Layer("core.mux_streams_opened",
                static_cast<double>(c.mux_streams_opened), "count");
}

void AddServerLayerMetrics(Report* report, const ServerCounters& s) {
  report->Layer("httpd.keepalive_reuse_ratio",
                Ratio(s.keepalive_reuses, s.requests_handled), "ratio");
  report->Layer("httpd.multirange_requests",
                static_cast<double>(s.multirange_requests), "count");
  report->Layer("httpd.ranges_served", static_cast<double>(s.ranges_served),
                "count");
}

/// Caps on what one Context may use (see the file comment).
constexpr uint64_t kMaxConnections = 4;
constexpr uint64_t kMaxMuxConnections = 2;

/// Prints the resources a measured window used and the counters that are
/// 0 on a healthy run, and fails the run when a resource cap was exceeded.
void CheckResources(Report* report, const std::string& workload,
                    const ClientCounters& c, const ServerCounters& s) {
  std::printf("info %s resources: connections_opened=%llu (cap %llu) "
              "mux_connections_opened=%llu (cap %llu) dispatcher_threads=%llu "
              "(cap %zu)\n",
              workload.c_str(),
              static_cast<unsigned long long>(c.connections_opened),
              static_cast<unsigned long long>(kMaxConnections),
              static_cast<unsigned long long>(c.mux_connections_opened),
              static_cast<unsigned long long>(kMaxMuxConnections),
              static_cast<unsigned long long>(c.dispatcher_threads),
              ThreadCap());
  std::printf("info %s health: retries=%llu deadline_expirations=%llu "
              "stall_aborts=%llu mux_backpressure_waits=%llu "
              "requests_shed=%llu\n",
              workload.c_str(), static_cast<unsigned long long>(c.retries),
              static_cast<unsigned long long>(c.deadline_expirations),
              static_cast<unsigned long long>(c.stall_aborts),
              static_cast<unsigned long long>(c.mux_backpressure_waits),
              static_cast<unsigned long long>(s.requests_shed));
  report->Gate(c.connections_opened <= kMaxConnections,
               "more pooled connections opened than the cap");
  report->Gate(c.mux_connections_opened <= kMaxMuxConnections,
               "more mux connections opened than the cap");
  report->Gate(c.dispatcher_threads <= ThreadCap(),
               "a dispatcher larger than the thread cap");
}

void AddCpuLayerMetrics(Report* report, double cpu_seconds, uint64_t ops,
                        uint64_t payload_bytes) {
  report->Layer("proc.cpu_us_per_op", Ratio(cpu_seconds * 1e6, ops), "us");
  report->Layer("proc.cpu_ns_per_byte",
                Ratio(cpu_seconds * 1e9, payload_bytes), "ns");
}

/// Runs `setup` kSetupRepeats times and returns the median wall time;
/// `keep` receives the last instance.
template <typename T>
double TimedSetup(const std::function<std::unique_ptr<T>()>& setup,
                  std::unique_ptr<T>* keep) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    keep->reset();
    int64_t start = NowNanos();
    *keep = setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

// ---------------------------------------------------------------------------
// Probe suite: the per-layer floors and layer timings every traced run
// reports, measured on a private loopback node so that they are
// comparable across workloads.
// ---------------------------------------------------------------------------

/// Bench-owned raw-socket peer: answers 'R' + 199 bytes with 4300 bytes
/// and 'B' with kBulkBytes; 'Q' or EOF ends it.
class RawEchoServer {
 public:
  RawEchoServer() {
    listener_ = Must(davix::net::TcpListener::Listen(0), "listen raw echo");
    thread_ = std::thread([this] { Serve(); });
  }
  ~RawEchoServer() { thread_.join(); }
  RawEchoServer(const RawEchoServer&) = delete;
  RawEchoServer& operator=(const RawEchoServer&) = delete;
  uint16_t port() const { return listener_.port(); }

 private:
  void Serve() {
    auto accepted = listener_.Accept(30'000'000);
    if (!accepted.ok()) return;
    davix::net::TcpSocket socket = std::move(*accepted);
    socket.SetNoDelay(true);
    std::string reply(4300, 'r');
    std::string bulk(kBulkBytes, 'b');
    char buf[256];
    while (true) {
      if (!ReadExact(&socket, buf, 1)) return;
      if (buf[0] == 'R') {
        if (!ReadExact(&socket, buf, 199)) return;
        if (!socket.WriteAll(reply).ok()) return;
      } else if (buf[0] == 'B') {
        if (!socket.WriteAll(bulk).ok()) return;
      } else {
        return;
      }
    }
  }

  davix::net::TcpListener listener_;
  std::thread thread_;

 public:
  static bool ReadExact(davix::net::TcpSocket* socket, char* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      auto r = socket->Read(buf + got, n - got, 30'000'000);
      if (!r.ok() || *r == 0) return false;
      got += *r;
    }
    return true;
  }
};

/// A bench-owned raw-socket connection to a RawEchoServer: the TCP floor
/// under the HTTP stack, measured in the same process and run.
class RawFloor {
 public:
  RawFloor() {
    auto address = Must(davix::net::SocketAddress::Resolve("127.0.0.1",
                                                           echo_.port()),
                        "resolve echo");
    socket_ = Must(davix::net::TcpSocket::Connect(address), "connect echo");
    socket_.SetNoDelay(true);
    request_[0] = 'R';
  }
  /// One 200 B -> 4300 B round trip, in microseconds.
  double RttMicros() {
    int64_t start = NowNanos();
    bool ok = socket_.WriteAll(request_).ok() &&
              RawEchoServer::ReadExact(&socket_, buffer_.data(), 4300);
    if (!ok) Fatal("raw echo failed");
    return static_cast<double>(NowNanos() - start) / 1e3;
  }
  /// One kBulkBytes transfer, in MB/s.
  double BulkMbPerS() {
    int64_t start = NowNanos();
    bool ok = socket_.WriteAll("B").ok() &&
              RawEchoServer::ReadExact(&socket_, buffer_.data(), kBulkBytes);
    if (!ok) Fatal("raw bulk failed");
    return static_cast<double>(kBulkBytes) / 1e6 / SecondsSince(start);
  }

 private:
  RawEchoServer echo_;  // declared first: joined after the socket closes
  davix::net::TcpSocket socket_;
  std::string request_ = std::string(200, 'x');
  std::vector<char> buffer_ = std::vector<char>(kBulkBytes);
};

/// Minimal HTTP/1.1 client over one raw keep-alive socket: writes the
/// request bytes itself and reads one Content-Length framed response.
class RawHttp {
 public:
  explicit RawHttp(uint16_t port) {
    auto address = Must(davix::net::SocketAddress::Resolve("127.0.0.1", port),
                        "resolve");
    socket_ = Must(davix::net::TcpSocket::Connect(address), "raw connect");
    socket_.SetNoDelay(true);
  }

  /// Sends `request` and returns the response body; `content_type` gets
  /// the Content-Type header when non-null.
  Result<std::string> Exchange(std::string_view request,
                               std::string* content_type = nullptr) {
    Status written = socket_.WriteAll(request);
    if (!written.ok()) return written;
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      Status s = Fill();
      if (!s.ok()) return s;
    }
    std::string head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    if (head.compare(0, 12, "HTTP/1.1 200") != 0 &&
        head.compare(0, 12, "HTTP/1.1 206") != 0 &&
        head.compare(0, 12, "HTTP/1.1 201") != 0 &&
        head.compare(0, 12, "HTTP/1.1 204") != 0) {
      return Status::ProtocolError("raw probe got: " + head.substr(0, 40));
    }
    uint64_t length = HeaderNumber(head, "content-length:");
    if (content_type != nullptr) {
      *content_type = HeaderValue(head, "content-type:");
    }
    while (buffer_.size() < length) {
      Status s = Fill();
      if (!s.ok()) return s;
    }
    std::string body = buffer_.substr(0, length);
    buffer_.erase(0, length);
    return body;
  }

 private:
  Status Fill() {
    char chunk[256 * 1024];
    auto r = socket_.Read(chunk, sizeof(chunk), 30'000'000);
    if (!r.ok()) return r.status();
    if (*r == 0) return Status::ProtocolError("raw probe: peer closed");
    buffer_.append(chunk, *r);
    return Status::OK();
  }
  static std::string HeaderValue(const std::string& head,
                                 const std::string& key) {
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    size_t pos = lower.find(key);
    if (pos == std::string::npos) return "";
    size_t begin = pos + key.size();
    size_t end = head.find("\r\n", begin);
    std::string value = head.substr(begin, end - begin);
    value.erase(0, value.find_first_not_of(' '));
    return value;
  }
  static uint64_t HeaderNumber(const std::string& head,
                               const std::string& key) {
    std::string value = HeaderValue(head, key);
    return value.empty() ? 0 : std::strtoull(value.c_str(), nullptr, 10);
  }

  davix::net::TcpSocket socket_;
  std::string buffer_;
};

std::string RangeHeader(const std::vector<http::ByteRange>& ranges) {
  std::string value = "bytes=";
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (i > 0) value += ',';
    value += std::to_string(ranges[i].offset) + "-" +
             std::to_string(ranges[i].end_inclusive());
  }
  return value;
}

std::vector<http::ByteRange> RandomPages(davix::Rng* rng, uint64_t object_size,
                                         size_t count) {
  // Distinct pages at least one page apart, so that no two ranges are
  // coalesced into one wire range.
  uint64_t pages = object_size / kPageBytes;
  std::vector<http::ByteRange> ranges;
  while (ranges.size() < count) {
    http::ByteRange candidate{rng->Below(pages) * kPageBytes, kPageBytes};
    bool clash = false;
    for (const http::ByteRange& r : ranges) {
      uint64_t lo = std::min(r.offset, candidate.offset);
      uint64_t hi = std::max(r.offset, candidate.offset);
      if (hi - lo <= 2 * kPageBytes) clash = true;
    }
    if (!clash) ranges.push_back(candidate);
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const http::ByteRange& a, const http::ByteRange& b) {
              return a.offset < b.offset;
            });
  return ranges;
}

/// Analysis-job configuration shared by the Figure 4 workload and the
/// probe job; `window_bytes` is the TreeCache prefetch byte budget.
root::AnalysisConfig JobConfig(uint32_t compute_iters, uint64_t window_bytes,
                               int64_t latency_threshold_micros) {
  root::AnalysisConfig config;
  config.compute_iterations_per_event = compute_iters;
  config.cache.cluster_rows = 4;
  config.cache.async_prefetch = true;
  config.cache.prefetch_window_bytes = window_bytes;
  config.cache.prefetch_pipeline_clusters = 4;
  config.cache.prefetch_latency_threshold_micros = latency_threshold_micros;
  return config;
}

root::TreeSpec AnalysisSpec(uint64_t events) {
  root::TreeSpec spec;
  spec.n_events = events;
  spec.events_per_basket = 125;
  spec.codec = davix::compress::CodecType::kDlz;
  spec.branches = {
      {"event_id", 8}, {"pt", 4},        {"eta", 4},
      {"phi", 4},      {"energy", 4},    {"charge", 1},
      {"n_tracks", 2}, {"cells", 4096},
  };
  return spec;
}

/// Prefetch window: five clusters' worth of stored bytes (the Figure 4
/// bench's rule).
uint64_t WindowBytes(const root::TreeSpec& spec, uint64_t tree_bytes) {
  return tree_bytes / spec.BasketCountPerBranch() * 4 * 5;
}

/// compress::Decompress throughput over every basket frame of `tree`.
double DecompressMbPerS(const std::string& tree, Tracer* tracer) {
  uint64_t region =
      Must(root::TreeIndexRegionSize(std::string_view(tree).substr(
               0, root::kTreeHeaderSize)),
           "tree header");
  root::TreeIndex index = Must(
      root::ParseTreeIndex(std::string_view(tree).substr(0, region)),
      "tree index");
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Scope span(tracer, "compress.decompress_tree", 0);
    uint64_t raw = 0;
    int64_t start = NowNanos();
    for (const auto& branch : index.baskets) {
      for (const root::BasketInfo& b : branch) {
        auto out = davix::compress::Decompress(
            std::string_view(tree).substr(b.offset, b.stored_length));
        if (!out.ok()) Fatal("decompress basket");
        raw += out->size();
      }
    }
    rates.push_back(static_cast<double>(raw) / 1e6 / SecondsSince(start));
  }
  return Median(rates);
}

/// Timing RandomAccessFile decorator: records each interval the analysis
/// thread is blocked in PRead / PReadVec / PendingVecRead::Wait. All of
/// them run on the job's thread.
class TimingFile : public root::RandomAccessFile {
 public:
  TimingFile(std::unique_ptr<root::RandomAccessFile> inner,
             Samples* blocked_ms, Tracer* tracer)
      : inner_(std::move(inner)), blocked_ms_(blocked_ms), tracer_(tracer) {}

  uint64_t Size() const override { return inner_->Size(); }
  Result<std::string> PRead(uint64_t offset, uint64_t length) override {
    Tracer::Scope span(tracer_, "root.pread", 0);
    int64_t start = NowNanos();
    auto out = inner_->PRead(offset, length);
    Record(start);
    return out;
  }
  Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges) override {
    Tracer::Scope span(tracer_, "root.pread_vec", 0);
    int64_t start = NowNanos();
    auto out = inner_->PReadVec(ranges);
    Record(start);
    return out;
  }
  bool SupportsAsyncVec() const override { return inner_->SupportsAsyncVec(); }
  std::unique_ptr<root::PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges) override {
    return std::make_unique<TimedPending>(inner_->PReadVecAsync(ranges), this);
  }

 private:
  class TimedPending : public root::PendingVecRead {
   public:
    TimedPending(std::unique_ptr<root::PendingVecRead> inner,
                 TimingFile* file)
        : inner_(std::move(inner)), file_(file) {}
    Result<std::vector<std::string>> Wait() override {
      Tracer::Scope span(file_->tracer_, "root.pending_wait", 0);
      int64_t start = NowNanos();
      auto out = inner_->Wait();
      file_->Record(start);
      return out;
    }

   private:
    std::unique_ptr<root::PendingVecRead> inner_;
    TimingFile* file_;
  };

  void Record(int64_t start) {
    blocked_ms_->Add(static_cast<double>(NowNanos() - start) / 1e6);
  }

  std::unique_ptr<root::RandomAccessFile> inner_;
  Samples* blocked_ms_;
  Tracer* tracer_;
};

/// Where the "timed://" opener records: set around each timed job (jobs
/// run one at a time).
Samples* g_timed_blocked_ms = nullptr;
Tracer* g_timed_tracer = nullptr;

/// Registers the decorator: "timed://<inner url>" opens the inner URL
/// through the registry and wraps it in a TimingFile.
void RegisterTimedScheme() {
  root::StorageAdapterRegistry::Default().Register(
      "timed", [](const std::string& rest,
                  const root::StorageOpenParams& params)
                   -> Result<std::unique_ptr<root::RandomAccessFile>> {
        auto inner = root::OpenStorage(rest, params);
        if (!inner.ok()) return inner.status();
        return std::unique_ptr<root::RandomAccessFile>(
            std::make_unique<TimingFile>(std::move(*inner), g_timed_blocked_ms,
                                         g_timed_tracer));
      });
}

enum class Lane { kDavix, kMux, kXrd };
const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kDavix: return "davix";
    case Lane::kMux:   return "mux";
    case Lane::kXrd:   return "xrootd";
  }
  return "?";
}

std::string JobUrl(const Node& node, Lane lane, const std::string& path) {
  switch (lane) {
    case Lane::kDavix:
      return "davix://127.0.0.1:" + std::to_string(node.http->port()) + path;
    case Lane::kMux:
      return "davix+mux://127.0.0.1:" + std::to_string(node.mux->port()) +
             path;
    case Lane::kXrd:
      return "xrd://127.0.0.1:" + std::to_string(node.xrd->port()) + path;
  }
  return "";
}

/// One analysis job with a fresh Context, as a user pays for it.
struct JobResult {
  bool ok = false;
  double seconds = 0;
  root::AnalysisReport report;
  ClientCounters counters;
  Samples blocked_ms;
};

JobResult RunJob(const Node& node, Lane lane, const std::string& path,
                 const root::AnalysisConfig& config, bool timed,
                 Tracer* tracer) {
  JobResult result;
  core::Context ctx(CappedPool(), ThreadCap());
  root::StorageOpenParams storage;
  storage.context = &ctx;
  storage.request = BaseParams(core::TransportKind::kPooled);
  // The davix lanes fan a cluster fetch out over pooled connections in
  // 256 KiB chunks, as the Figure 4 bench does.
  if (lane != Lane::kXrd) {
    storage.request.vector_parallel_chunk_bytes = 256 * 1024;
  }
  g_timed_blocked_ms = &result.blocked_ms;
  g_timed_tracer = tracer;
  std::string url = JobUrl(node, lane, path);
  if (timed) url = "timed://" + url;
  int64_t start = NowNanos();
  Result<root::AnalysisReport> report = Status::OK();
  {
    Tracer::Scope span(tracer, lane == Lane::kDavix ? "job.davix"
                               : lane == Lane::kMux ? "job.mux"
                                                    : "job.xrootd",
                       0);
    report = root::RunAnalysisOnUrl(url, config, storage);
  }
  result.seconds = SecondsSince(start);
  g_timed_blocked_ms = nullptr;
  if (!report.ok()) {
    std::fprintf(stderr, "job (%s) failed: %s\n", LaneName(lane),
                 report.status().ToString().c_str());
    return result;
  }
  result.ok = true;
  result.report = std::move(*report);
  result.counters = ClientCounters::Of(ctx);
  return result;
}

/// Client probes against one loopback node.
struct ProbeResult {
  Samples davix_read_us, davix_vec_us, mux_read_us, xrd_read_us, scan_read_us;
  std::vector<double> get_mb_s, put_mb_s;
};

/// Runs the probe suite and adds its per-layer metrics; returns the
/// probe node's server counters. `workload_tree` is the workload's
/// analysis tree, with the time of its local job, or null on the
/// workloads that run no analysis job.
ServerCounters ProbeSuite(uint64_t seed, Tracer* tracer, Report* report,
                const std::string* workload_tree,
                double workload_local_job_s) {
  // Inputs for the probe node, generated from the seed.
  davix::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  auto store = std::make_shared<httpd::ObjectStore>();
  store->Put("/probe/object.bin", rng.Bytes(16ull << 20));
  store->Put("/probe/8m.bin", rng.Bytes(kBulkBytes));
  root::TreeSpec probe_spec = AnalysisSpec(2000);
  std::string probe_tree = root::BuildTreeFile(probe_spec, seed);
  store->Put("/probe/tree.rnt", probe_tree);
  auto object = Must(store->Get("/probe/object.bin"), "probe object");
  auto object8 = Must(store->Get("/probe/8m.bin"), "probe 8m object");
  std::unique_ptr<Node> node =
      StartNode(davix::netsim::LinkProfile::Loopback(), store, true, tracer);
  node->timer->set_enabled(true);
  Tally& tally = report->tally;
  auto check = [&](bool ok, const char* what) {
    tally.Record(ok);
    if (!ok) report->Gate(false, std::string("probe: ") + what);
  };

  // net: raw socket floor.
  Samples floor_us;
  std::vector<double> floor_mb_s;
  {
    RawFloor raw;
    for (int i = 0; i < 2000; ++i) {
      Tracer::Scope span(tracer, "net.rtt", 0);
      floor_us.Add(raw.RttMicros());
    }
    for (int i = 0; i < 8; ++i) {
      Tracer::Scope span(tracer, "net.bulk", 0);
      floor_mb_s.push_back(raw.BulkMbPerS());
    }
  }
  report->Layer("net.tcp_floor_us", floor_us.P50(), "us");
  report->Layer("net.tcp_floor_mb_per_s", Median(floor_mb_s), "MB/s");

  // httpd: raw-socket requests that bypass the client library.
  std::string_view truth = object->data;
  Samples raw_get_us, raw_vec_us;
  std::vector<double> raw_get8m_mb_s;
  std::string captured_body, captured_type;
  {
    RawHttp raw(node->http->port());
    for (int i = 0; i < 2000; ++i) {
      auto ranges = RandomPages(&rng, truth.size(), 1);
      std::string request = "GET /probe/object.bin HTTP/1.1\r\nHost: bench\r\n"
                            "Range: " + RangeHeader(ranges) + "\r\n\r\n";
      Tracer::Scope span(tracer, "httpd.raw_get", 0);
      int64_t start = NowNanos();
      auto body = raw.Exchange(request);
      raw_get_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
      check(body.ok() && *body == truth.substr(ranges[0].offset, kPageBytes),
            "raw range GET bytes");
    }
    for (int i = 0; i < 300; ++i) {
      auto ranges = RandomPages(&rng, truth.size(), kVecRanges);
      std::string request = "GET /probe/object.bin HTTP/1.1\r\nHost: bench\r\n"
                            "Range: " + RangeHeader(ranges) + "\r\n\r\n";
      std::string type;
      Tracer::Scope span(tracer, "httpd.raw_vec", 0);
      int64_t start = NowNanos();
      auto body = raw.Exchange(request, &type);
      raw_vec_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
      check(body.ok(), "raw multi-range GET");
      if (body.ok()) {
        captured_body = std::move(*body);
        captured_type = type;
      }
    }
    for (int i = 0; i < 8; ++i) {
      Tracer::Scope span(tracer, "httpd.raw_get8m", 0);
      int64_t start = NowNanos();
      auto body =
          raw.Exchange("GET /probe/8m.bin HTTP/1.1\r\nHost: bench\r\n\r\n");
      raw_get8m_mb_s.push_back(static_cast<double>(kBulkBytes) / 1e6 /
                               SecondsSince(start));
      check(body.ok() && *body == object8->data, "raw 8 MiB GET bytes");
    }
    std::string put_body = rng.Bytes(kBulkBytes);
    std::string put_request = "PUT /probe/put.bin HTTP/1.1\r\nHost: bench\r\n"
                              "Content-Length: " +
                              std::to_string(kBulkBytes) + "\r\n\r\n" +
                              put_body;
    for (int i = 0; i < 4; ++i) {
      Tracer::Scope span(tracer, "httpd.raw_put8m", 0);
      auto body = raw.Exchange(put_request);
      auto stored = store->Get("/probe/put.bin");
      check(body.ok() && stored.ok() && (*stored)->data == put_body,
            "raw 8 MiB PUT bytes");
    }
  }
  auto handler = node->timer->Take();
  report->Layer("httpd.raw_get_p50_us", raw_get_us.P50(), "us");
  report->Layer("httpd.raw_vec_p50_us", raw_vec_us.P50(), "us");
  report->Layer("httpd.raw_get8m_mb_per_s", Median(raw_get8m_mb_s), "MB/s");
  for (const char* cls : {"range", "multirange", "get8m", "put8m"}) {
    report->Layer(std::string("httpd.handler_p50_us.") + cls,
                  handler[cls].P50(), "us");
  }
  report->Layer("httpd.server_overhead_us",
                raw_get_us.P50() - floor_us.P50() - handler["range"].P50(),
                "us");

  // http: multipart build and parse of 64 x 4 KiB parts.
  {
    std::vector<http::BytesPart> parts;
    for (const http::ByteRange& r :
         RandomPages(&rng, truth.size(), kVecRanges)) {
      parts.push_back({r, truth.size(),
                       std::string(truth.substr(r.offset, kPageBytes))});
    }
    std::string boundary = http::GenerateBoundary(parts, 1);
    Samples build_us, parse_us;
    size_t sink = 0;
    for (int i = 0; i < 300; ++i) {
      Tracer::Scope span(tracer, "http.multipart_build", 0);
      int64_t start = NowNanos();
      std::string body = http::BuildMultipartBody(parts, boundary);
      build_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
      sink += body.size();
    }
    std::string captured_boundary =
        Must(http::ExtractBoundary(captured_type), "captured boundary");
    for (int i = 0; i < 300; ++i) {
      Tracer::Scope span(tracer, "http.multipart_parse", 0);
      int64_t start = NowNanos();
      auto views = http::ParseMultipartViews(captured_body, captured_boundary);
      parse_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
      if (views.ok()) sink += views->size();
    }
    // The captured multi-range response, checked part by part.
    auto views = http::ParseMultipartViews(captured_body, captured_boundary);
    uint64_t part_bytes = 0;
    bool parts_ok = views.ok();
    if (parts_ok) {
      for (const http::BytesPartView& part : *views) {
        part_bytes += part.data.size();
        parts_ok = parts_ok && part.range.offset <= truth.size() &&
                   part.data == truth.substr(part.range.offset,
                                             part.data.size());
      }
    }
    check(parts_ok && part_bytes == kVecRanges * kPageBytes,
          "raw multi-range GET parts");
    if (sink == 0) Fatal("multipart probes produced nothing");
    report->Layer("http.multipart_build_us", build_us.P50(), "us");
    report->Layer("http.multipart_parse_us", parse_us.P50(), "us");
  }

  // core: the same reads through the client library, one thread.
  ProbeResult probe;
  {
    core::Context ctx(CappedPool(), ThreadCap());
    core::DavFile file(&ctx, Must(davix::Uri::Parse(
                                      node->HttpUrl("/probe/object.bin")),
                                  "probe url"));
    core::DavFile mux_file(&ctx, Must(davix::Uri::Parse(
                                          node->MuxUrl("/probe/object.bin")),
                                      "probe mux url"));
    core::RequestParams pooled = BaseParams(core::TransportKind::kPooled);
    core::RequestParams mux = BaseParams(core::TransportKind::kMux);
    auto xrd = Must(davix::xrootd::XrdClient::Connect("127.0.0.1",
                                                      node->xrd->port()),
                    "probe xrd connect");
    if (!xrd->Login().ok()) Fatal("probe xrd login");
    auto handle = Must(xrd->Open("/probe/object.bin"), "probe xrd open");
    for (int i = 0; i < 2000; ++i) {
      auto ranges = RandomPages(&rng, truth.size(), 1);
      std::string_view want = truth.substr(ranges[0].offset, kPageBytes);
      {
        Tracer::Scope span(tracer, "core.read", 0);
        int64_t start = NowNanos();
        auto got = file.ReadPartial(ranges[0].offset, kPageBytes, pooled);
        probe.davix_read_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
        check(got.ok() && *got == want, "probe davix read");
      }
      if (i % 2 == 0) {
        Tracer::Scope span(tracer, "muxhttp.read", 0);
        int64_t start = NowNanos();
        auto got = mux_file.ReadPartial(ranges[0].offset, kPageBytes, mux);
        probe.mux_read_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
        check(got.ok() && *got == want, "probe mux read");
      } else {
        Tracer::Scope span(tracer, "xrootd.read", 0);
        int64_t start = NowNanos();
        auto got = xrd->Read(handle.handle, ranges[0].offset, kPageBytes);
        probe.xrd_read_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
        check(got.ok() && *got == want, "probe xrootd read");
      }
    }
    for (int i = 0; i < 300; ++i) {
      auto ranges = RandomPages(&rng, truth.size(), kVecRanges);
      Tracer::Scope span(tracer, "core.read_vec", 0);
      int64_t start = NowNanos();
      auto got = file.ReadPartialVec(ranges, pooled);
      probe.davix_vec_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
      check(got.ok() && PartsMatch(*got, truth, ranges),
            "probe davix vec bytes");
    }
    xrd->Close(handle.handle);
    core::DavFile file8(&ctx, Must(davix::Uri::Parse(
                                       node->HttpUrl("/probe/8m.bin")),
                                   "probe 8m url"));
    core::DavFile put_file(&ctx, Must(davix::Uri::Parse(
                                          node->HttpUrl("/probe/dav_put.bin")),
                                      "probe put url"));
    std::string payload = rng.Bytes(kBulkBytes);
    for (int i = 0; i < 4; ++i) {
      {
        Tracer::Scope span(tracer, "core.get8m", 0);
        int64_t start = NowNanos();
        auto got = file8.Get(pooled);
        probe.get_mb_s.push_back(static_cast<double>(kBulkBytes) / 1e6 /
                                 SecondsSince(start));
        check(got.ok() && *got == object8->data, "probe davix 8 MiB GET bytes");
      }
      std::string body = payload;
      Tracer::Scope span(tracer, "core.put8m", 0);
      int64_t start = NowNanos();
      Status put = put_file.Put(std::move(body), pooled);
      probe.put_mb_s.push_back(static_cast<double>(kBulkBytes) / 1e6 /
                               SecondsSince(start));
      auto stored = store->Get("/probe/dav_put.bin");
      check(put.ok() && stored.ok() && (*stored)->data == payload,
            "probe davix 8 MiB PUT bytes");
    }
    core::DavPosix posix(&ctx);
    core::RequestParams scan = pooled;
    scan.readahead_bytes = 512 * 1024;
    scan.readahead_window_chunks = 4;
    for (int i = 0; i < 4; ++i) {
      int fd = Must(posix.Open(node->HttpUrl("/probe/8m.bin"), scan),
                    "probe scan open");
      // Chunks are kept and checked after the scan, so that no check runs
      // while the read-ahead window fills.
      std::vector<std::string> chunks;
      while (true) {
        Tracer::Scope span(tracer, "core.scan_read", 0);
        int64_t start = NowNanos();
        auto chunk = posix.Read(fd, kScanReadBytes);
        probe.scan_read_us.Add(static_cast<double>(NowNanos() - start) / 1e3);
        if (!chunk.ok() || chunk->empty()) break;
        chunks.push_back(std::move(*chunk));
      }
      posix.Close(fd);
      check(ChunksMatch(chunks, object8->data), "probe scan bytes");
    }
  }
  report->Layer("core.client_overhead_us",
                probe.davix_read_us.P50() - raw_get_us.P50(), "us");
  report->Layer("core.vec_client_overhead_us",
                probe.davix_vec_us.P50() - raw_vec_us.P50(), "us");
  report->Layer("core.read_p50_us", probe.davix_read_us.P50(), "us");
  report->Layer("core.vec_p50_us", probe.davix_vec_us.P50(), "us");
  report->Layer("core.get8m_mb_per_s", Median(probe.get_mb_s), "MB/s");
  report->Layer("core.put8m_mb_per_s", Median(probe.put_mb_s), "MB/s");
  report->Layer("core.scan_read_p50_us", probe.scan_read_us.P50(), "us");
  report->Layer("muxhttp.read_p50_us", probe.mux_read_us.P50(), "us");
  report->Layer("xrootd.read_p50_us", probe.xrd_read_us.P50(), "us");

  // compress and root: the analysis tree of the workload, or the probe
  // tree on the workloads that run no analysis job.
  const std::string& tree = workload_tree ? *workload_tree : probe_tree;
  report->Layer("compress.decompress_mb_per_s", DecompressMbPerS(tree, tracer),
                "MB/s");
  if (workload_tree != nullptr) {
    report->Layer("root.local_job_s", workload_local_job_s, "s");
    return ServerCounters::Of(*node);
  }
  root::AnalysisConfig config =
      JobConfig(2000, WindowBytes(probe_spec, probe_tree.size()), 0);
  root::MemoryFile local(probe_tree);
  int64_t start = NowNanos();
  root::AnalysisReport local_truth;
  {
    Tracer::Scope span(tracer, "job.local", 0);
    local_truth = Must(root::RunAnalysis(&local, config), "probe local job");
  }
  report->Layer("root.local_job_s", SecondsSince(start), "s");
  std::map<Lane, JobResult> jobs;
  for (Lane lane : {Lane::kDavix, Lane::kMux, Lane::kXrd}) {
    jobs[lane] = RunJob(*node, lane, "/probe/tree.rnt", config, true, tracer);
    const JobResult& job = jobs[lane];
    check(job.ok && job.report.physics_sum == local_truth.physics_sum &&
              job.report.io.bytes_fetched ==
                  jobs[Lane::kDavix].report.io.bytes_fetched,
          "probe job physics_sum / bytes_fetched");
  }
  const JobResult& davix_job = jobs[Lane::kDavix];
  report->Layer("root.fetch_wait_s", davix_job.blocked_ms.Sum() / 1e3, "s");
  report->Layer("root.fetch_wait_s.mux",
                jobs[Lane::kMux].blocked_ms.Sum() / 1e3, "s");
  report->Layer("root.fetch_wait_s.xrootd",
                jobs[Lane::kXrd].blocked_ms.Sum() / 1e3, "s");
  report->Layer("root.fetch_latency_p50_ms", davix_job.blocked_ms.P50(), "ms");
  const root::TreeCacheStats& io = davix_job.report.io;
  report->Layer("root.prefetch_wait_s",
                static_cast<double>(io.prefetch_wait_micros) / 1e6, "s");
  report->Layer("root.vector_reads", static_cast<double>(io.vector_reads),
                "count");
  report->Layer("root.async_prefetches",
                static_cast<double>(io.async_prefetches), "count");
  report->Layer("root.early_byte_ratio",
                Ratio(io.bytes_prefetched_early, io.bytes_fetched), "ratio");
  std::printf("info probe health: prefetch_discards=%llu\n",
              static_cast<unsigned long long>(io.prefetch_discards));
  return ServerCounters::Of(*node);
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// --- bulk_rw ---------------------------------------------------------------

struct BulkSetup {
  std::shared_ptr<httpd::ObjectStore> store;
  std::shared_ptr<const httpd::StoredObject> object;
  std::string payloads[2];  // alternate PUT bodies
  std::unique_ptr<Node> node;
};

std::unique_ptr<BulkSetup> MakeBulkSetup(uint64_t seed, bool timed,
                                         Tracer* tracer) {
  auto setup = std::make_unique<BulkSetup>();
  davix::Rng rng(seed);
  setup->store = std::make_shared<httpd::ObjectStore>();
  setup->store->Put(kObjectPath, rng.Bytes(kBulkBytes));
  setup->object = Must(setup->store->Get(kObjectPath), "bulk object");
  for (std::string& payload : setup->payloads) payload = rng.Bytes(kBulkBytes);
  setup->node = StartNode(davix::netsim::LinkProfile::Loopback(), setup->store,
                          timed, tracer);
  return setup;
}

enum class BulkOp { kGet, kPut, kScan };

struct BulkLane {
  Samples get_us, put_us, scan_us;
  double busy_s = 0;
  uint64_t ops = 0;
  uint64_t payload_bytes = 0;
  double OpsPerS() const { return Ratio(static_cast<double>(ops), busy_s); }
  /// The lane's end-to-end figure: the geometric mean of the lower
  /// quartile latencies of its op kinds (GET, PUT, scan; the xrootd lane
  /// only reads). The lower quartile, not the median: load from outside
  /// the process slows these CPU-bound ops for seconds at a time, and
  /// the quartile keeps less of that (METRICS.md, Steadiness).
  double OpUs() const {
    if (put_us.count() == 0) return get_us.P25();
    return std::cbrt(get_us.P25() * put_us.P25() * scan_us.P25());
  }

  static double MbPerS(const Samples& s) {
    return Ratio(static_cast<double>(s.count() * kBulkBytes) / 1e6,
                 s.Sum() / 1e6);
  }
};

struct BulkMeasure {
  BulkLane pooled, mux, xrd;
  ClientCounters client;
  ServerCounters server;
  double cpu_s = 0;
};

/// One client thread; each lane cycles GET, PUT, scan (the xrootd lane
/// has only the 8 MiB read), in interleaved rounds of about a second.
BulkMeasure MeasureBulk(BulkSetup& setup, double seconds, Tally* tally,
                        Tracer* tracer) {
  core::Context ctx(CappedPool(), ThreadCap());
  Node& node = *setup.node;
  auto xrd = Must(davix::xrootd::XrdClient::Connect("127.0.0.1",
                                                    node.xrd->port()),
                  "xrd connect");
  if (!xrd->Login().ok()) Fatal("xrd login");
  uint32_t handle = Must(xrd->Open(kObjectPath), "xrd open").handle;
  core::DavPosix posix(&ctx);
  uint64_t put_seq = 0;

  auto davix_op = [&](BulkLane* lane, Lane which, BulkOp op, bool record) {
    bool mux = which == Lane::kMux;
    core::RequestParams params = BaseParams(
        mux ? core::TransportKind::kMux : core::TransportKind::kPooled);
    std::string base = mux ? node.MuxUrl("") : node.HttpUrl("");
    bool ok = false;
    int64_t start = 0;
    double micros = 0;
    if (op == BulkOp::kGet) {
      core::DavFile file(
          &ctx, Must(davix::Uri::Parse(base + kObjectPath), "url"));
      Tracer::Scope span(tracer, mux ? "bulk.mux.get" : "bulk.pooled.get", 0);
      start = NowNanos();
      auto got = file.Get(params);
      micros = static_cast<double>(NowNanos() - start) / 1e3;
      ok = got.ok() && *got == setup.object->data;
      if (record) lane->get_us.Add(micros);
    } else if (op == BulkOp::kPut) {
      size_t which_payload = put_seq++ % 2;
      std::string body = setup.payloads[which_payload];
      core::DavFile file(&ctx,
                         Must(davix::Uri::Parse(base + kPutPath), "url"));
      Status put = Status::OK();
      {
        Tracer::Scope span(tracer, mux ? "bulk.mux.put" : "bulk.pooled.put",
                           0);
        start = NowNanos();
        put = file.Put(std::move(body), params);
        micros = static_cast<double>(NowNanos() - start) / 1e3;
      }
      auto stored = setup.store->Get(kPutPath);
      ok = put.ok() && stored.ok() &&
           (*stored)->data == setup.payloads[which_payload];
      if (record) lane->put_us.Add(micros);
    } else {
      params.readahead_bytes = 512 * 1024;
      params.readahead_window_chunks = 4;
      // The timer runs from Open to the last Read with nothing else in
      // it: chunks are kept and checked after it stops.
      std::vector<std::string> chunks;
      chunks.reserve(kBulkBytes / kScanReadBytes + 1);
      Result<int> fd = Status::OK();
      {
        Tracer::Scope span(tracer, mux ? "bulk.mux.scan" : "bulk.pooled.scan",
                           0);
        start = NowNanos();
        fd = posix.Open(base + kObjectPath, params);
        while (fd.ok()) {
          Result<std::string> chunk = Status::OK();
          {
            Tracer::Scope read_span(tracer, "core.scan_read", 0);
            chunk = posix.Read(*fd, kScanReadBytes);
          }
          if (!chunk.ok() || chunk->empty()) break;
          chunks.push_back(std::move(*chunk));
        }
        micros = static_cast<double>(NowNanos() - start) / 1e3;
      }
      if (fd.ok()) posix.Close(*fd);
      ok = fd.ok() && ChunksMatch(chunks, setup.object->data);
      if (record) lane->scan_us.Add(micros);
    }
    tally->Record(ok);
    if (!ok) std::fprintf(stderr, "bulk op failed or mismatched\n");
    if (record) {
      lane->busy_s += micros / 1e6;
      ++lane->ops;
      lane->payload_bytes += kBulkBytes;
    }
  };
  auto xrd_op = [&](BulkLane* lane, bool record) {
    Tracer::Scope span(tracer, "bulk.xrootd.read", 0);
    int64_t start = NowNanos();
    auto got = xrd->Read(handle, 0, kBulkBytes);
    double micros = static_cast<double>(NowNanos() - start) / 1e3;
    bool ok = got.ok() && *got == setup.object->data;
    tally->Record(ok);
    if (!ok) std::fprintf(stderr, "bulk xrootd read failed or mismatched\n");
    if (record) {
      lane->get_us.Add(micros);
      lane->busy_s += micros / 1e6;
      ++lane->ops;
      lane->payload_bytes += kBulkBytes;
    }
  };

  BulkMeasure m;
  const BulkOp cycle[3] = {BulkOp::kGet, BulkOp::kPut, BulkOp::kScan};
  // Warm-up: one op of each kind per lane.
  for (BulkOp op : cycle) {
    davix_op(&m.pooled, Lane::kDavix, op, false);
    davix_op(&m.mux, Lane::kMux, op, false);
  }
  xrd_op(&m.xrd, false);

  ServerCounters server_base = ServerCounters::Of(node);
  double cpu_base = CpuSeconds();
  size_t cursor[2] = {0, 0};
  int rounds = std::max(1, static_cast<int>(seconds));
  double round_s = seconds / rounds;
  for (int r = 0; r < rounds; ++r) {
    int64_t end = NowNanos() + static_cast<int64_t>(round_s * 0.4 * 1e9);
    do {
      davix_op(&m.pooled, Lane::kDavix, cycle[cursor[0]++ % 3], true);
    } while (NowNanos() < end);
    end = NowNanos() + static_cast<int64_t>(round_s * 0.3 * 1e9);
    do {
      davix_op(&m.mux, Lane::kMux, cycle[cursor[1]++ % 3], true);
    } while (NowNanos() < end);
    end = NowNanos() + static_cast<int64_t>(round_s * 0.3 * 1e9);
    do {
      xrd_op(&m.xrd, true);
    } while (NowNanos() < end);
  }
  m.cpu_s = CpuSeconds() - cpu_base;
  m.server = ServerCounters::Of(node).Minus(server_base);
  xrd->Close(handle);
  m.client = ClientCounters::Of(ctx);
  return m;
}

void RunBulkRw(const Args& args, Tracer* tracer, Report* report) {
  std::unique_ptr<BulkSetup> setup;
  double setup_s = TimedSetup<BulkSetup>(
      [&] { return MakeBulkSetup(args.seed, args.trace, tracer); }, &setup);
  if (!args.trace) {
    BulkMeasure m = MeasureBulk(*setup, args.seconds, &report->tally, nullptr);
    CheckResources(report, "bulk_rw", m.client, m.server);
    report->E2e("setup_s", setup_s, "s");
    report->E2e("peak_rss_mb", PeakRssMb(), "MB");
    report->E2e("davix_op_us", m.pooled.OpUs(), "us");
    report->E2e("mux_op_us", m.mux.OpUs(), "us");
    report->E2e("xrd_op_us", m.xrd.OpUs(), "us");
    for (const auto& [name, lane] :
         {std::pair<const char*, const BulkLane*>{"pooled", &m.pooled},
          {"mux", &m.mux},
          {"xrootd", &m.xrd}}) {
      std::printf("info bulk_rw %s: ops_per_s=%.2f get_mb_per_s=%.1f "
                  "get_p25_us=%.1f get_p50_us=%.1f get_tail_us=%.1f "
                  "(p%g of %zu) put_mb_per_s=%.1f put_p25_us=%.1f "
                  "put_p50_us=%.1f scan_mb_per_s=%.1f scan_p25_us=%.1f "
                  "scan_p50_us=%.1f\n",
                  name, lane->OpsPerS(), BulkLane::MbPerS(lane->get_us),
                  lane->get_us.P25(), lane->get_us.P50(), lane->get_us.Tail(),
                  lane->get_us.TailQ(), lane->get_us.count(),
                  BulkLane::MbPerS(lane->put_us), lane->put_us.P25(),
                  lane->put_us.P50(), BulkLane::MbPerS(lane->scan_us),
                  lane->scan_us.P25(), lane->scan_us.P50());
    }
    return;
  }
  BulkMeasure plain =
      MeasureBulk(*setup, args.seconds / 2, &report->tally, nullptr);
  setup->node->timer->set_enabled(true);
  BulkMeasure m = MeasureBulk(*setup, args.seconds / 2, &report->tally, tracer);
  setup->node->timer->set_enabled(false);
  CheckResources(report, "bulk_rw", m.client, m.server);
  double untraced = plain.pooled.OpUs();
  report->Layer("trace_overhead",
                Ratio(m.pooled.OpUs() - untraced, untraced) * 100, "%");
  uint64_t davix_ops = m.pooled.ops + m.mux.ops;
  AddClientLayerMetrics(report, m.client, davix_ops,
                        m.pooled.payload_bytes + m.mux.payload_bytes);
  AddCpuLayerMetrics(report, m.cpu_s, davix_ops + m.xrd.ops,
                     m.pooled.payload_bytes + m.mux.payload_bytes +
                         m.xrd.payload_bytes);
  // The workload's node is stopped so that its threads stay out of the
  // probes.
  setup->node.reset();
  ServerCounters probe = ProbeSuite(args.seed, tracer, report, nullptr, 0);
  AddServerLayerMetrics(report, m.server.Plus(probe));
}

// --- fig4_wan --------------------------------------------------------------

/// Per-event compute of the Figure 4 job (BurnCompute iterations).
constexpr uint32_t kFig4ComputeIters = 20'000;

struct Fig4Setup {
  std::shared_ptr<httpd::ObjectStore> store;
  root::TreeSpec spec;
  std::string tree;
  std::unique_ptr<Node> node;
};

std::unique_ptr<Fig4Setup> MakeFig4Setup(uint64_t seed, bool timed,
                                         Tracer* tracer) {
  auto setup = std::make_unique<Fig4Setup>();
  setup->spec = AnalysisSpec(12000);
  setup->tree = root::BuildTreeFile(setup->spec, seed);
  setup->store = std::make_shared<httpd::ObjectStore>();
  setup->store->Put(kTreePath, setup->tree);
  setup->node = StartNode(davix::netsim::LinkProfile::Wan(), setup->store,
                          timed, tracer);
  return setup;
}

struct Fig4Measure {
  std::map<Lane, std::vector<JobResult>> jobs;
  double cpu_s = 0;
  ServerCounters server;
  /// Client counters of the davix and mux jobs.
  ClientCounters DavixClient() const {
    ClientCounters client;
    for (Lane lane : {Lane::kDavix, Lane::kMux}) {
      auto it = jobs.find(lane);
      if (it == jobs.end()) continue;
      for (const JobResult& j : it->second) client.Merge(j.counters);
    }
    return client;
  }
  static double JobS(const std::vector<JobResult>& runs) {
    std::vector<double> s;
    for (const JobResult& j : runs) s.push_back(j.seconds);
    return Median(s);
  }
};

/// Rounds of one job per lane (davix, mux, xrootd) while the next round
/// is expected to fit in `seconds`; at least one round.
Fig4Measure MeasureFig4(Fig4Setup& setup, const root::AnalysisConfig& config,
                        const root::AnalysisReport& truth, double seconds,
                        bool timed, Report* report, Tracer* tracer) {
  Fig4Measure m;
  ServerCounters server_base = ServerCounters::Of(*setup.node);
  double cpu_base = CpuSeconds();
  int64_t start = NowNanos();
  double last_round_s = 0;
  do {
    int64_t round_start = NowNanos();
    for (Lane lane : {Lane::kDavix, Lane::kMux, Lane::kXrd}) {
      JobResult job =
          RunJob(*setup.node, lane, kTreePath, config, timed, tracer);
      bool ok = job.ok && job.report.physics_sum == truth.physics_sum &&
                job.report.events_processed == truth.events_processed;
      report->Gate(ok, std::string("physics_sum differs from the local "
                                   "truth on ") + LaneName(lane));
      const std::vector<JobResult>& davix_runs = m.jobs[Lane::kDavix];
      uint64_t want_bytes = davix_runs.empty()
                                ? job.report.io.bytes_fetched
                                : davix_runs[0].report.io.bytes_fetched;
      bool same_bytes = job.report.io.bytes_fetched == want_bytes;
      report->Gate(same_bytes, std::string("bytes_fetched differs on ") +
                                   LaneName(lane));
      report->tally.Record(ok && same_bytes);
      m.jobs[lane].push_back(std::move(job));
    }
    last_round_s = SecondsSince(round_start);
  } while (SecondsSince(start) + last_round_s <= seconds);
  m.cpu_s = CpuSeconds() - cpu_base;
  m.server = ServerCounters::Of(*setup.node).Minus(server_base);
  return m;
}

void RunFig4Wan(const Args& args, Tracer* tracer, Report* report) {
  std::unique_ptr<Fig4Setup> setup;
  double setup_s = TimedSetup<Fig4Setup>(
      [&] { return MakeFig4Setup(args.seed, args.trace, tracer); }, &setup);
  root::AnalysisConfig config =
      JobConfig(kFig4ComputeIters, WindowBytes(setup->spec, setup->tree.size()),
                200'000);
  // The truth: the same job on the local file (also the CPU floor).
  root::MemoryFile local(setup->tree);
  int64_t local_start = NowNanos();
  root::AnalysisReport truth =
      Must(root::RunAnalysis(&local, config), "local truth job");
  double local_job_s = SecondsSince(local_start);

  if (!args.trace) {
    Fig4Measure m = MeasureFig4(*setup, config, truth, args.seconds, false,
                                report, nullptr);
    double job_s = Fig4Measure::JobS(m.jobs[Lane::kDavix]);
    double job_s_mux = Fig4Measure::JobS(m.jobs[Lane::kMux]);
    double job_s_xrd = Fig4Measure::JobS(m.jobs[Lane::kXrd]);
    CheckResources(report, "fig4_wan", m.DavixClient(), m.server);
    report->E2e("setup_s", setup_s, "s");
    report->E2e("peak_rss_mb", PeakRssMb(), "MB");
    report->E2e("davix_op_us", job_s * 1e6, "us");
    report->E2e("mux_op_us", job_s_mux * 1e6, "us");
    report->E2e("xrd_op_us", job_s_xrd * 1e6, "us");
    std::printf("info fig4_wan: job_s=%.4f job_s_mux=%.4f job_s_xrootd=%.4f "
                "jobs_per_lane=%zu local_job_s=%.4f physics_sum=%.6f\n",
                job_s, job_s_mux, job_s_xrd, m.jobs[Lane::kDavix].size(),
                local_job_s, truth.physics_sum);
    return;
  }
  Fig4Measure plain = MeasureFig4(*setup, config, truth, args.seconds / 2,
                                  false, report, nullptr);
  setup->node->timer->set_enabled(true);
  Fig4Measure m = MeasureFig4(*setup, config, truth, args.seconds / 2, true,
                              report, tracer);
  setup->node->timer->set_enabled(false);
  double untraced = Fig4Measure::JobS(plain.jobs[Lane::kDavix]);
  double traced = Fig4Measure::JobS(m.jobs[Lane::kDavix]);
  report->Layer("trace_overhead", Ratio(traced - untraced, untraced) * 100,
                "%");

  ClientCounters client = m.DavixClient();
  CheckResources(report, "fig4_wan", client, m.server);
  uint64_t davix_jobs = 0;
  uint64_t payload = 0;
  for (Lane lane : {Lane::kDavix, Lane::kMux}) {
    for (const JobResult& j : m.jobs[lane]) {
      payload += j.report.io.bytes_fetched;
      ++davix_jobs;
    }
  }
  AddClientLayerMetrics(report, client, davix_jobs, payload);
  uint64_t all_jobs = davix_jobs;
  for (const JobResult& j : m.jobs[Lane::kXrd]) {
    payload += j.report.io.bytes_fetched;
    ++all_jobs;
  }
  AddCpuLayerMetrics(report, m.cpu_s, all_jobs, payload);

  auto median_of = [&](Lane lane, auto fn) {
    std::vector<double> v;
    for (const JobResult& j : m.jobs[lane]) v.push_back(fn(j));
    return Median(v);
  };
  auto blocked_s = [](const JobResult& j) { return j.blocked_ms.Sum() / 1e3; };
  report->Layer("root.fetch_wait_s", median_of(Lane::kDavix, blocked_s), "s");
  report->Layer("root.fetch_wait_s.mux", median_of(Lane::kMux, blocked_s), "s");
  report->Layer("root.fetch_wait_s.xrootd", median_of(Lane::kXrd, blocked_s),
                "s");
  Samples blocked;
  for (const JobResult& j : m.jobs[Lane::kDavix]) blocked.Merge(j.blocked_ms);
  report->Layer("root.fetch_latency_p50_ms", blocked.P50(), "ms");
  report->Layer("root.prefetch_wait_s",
                median_of(Lane::kDavix,
                          [](const JobResult& j) {
                            return static_cast<double>(
                                       j.report.io.prefetch_wait_micros) /
                                   1e6;
                          }),
                "s");
  const root::TreeCacheStats& io = m.jobs[Lane::kDavix].back().report.io;
  report->Layer("root.vector_reads", static_cast<double>(io.vector_reads),
                "count");
  report->Layer("root.async_prefetches",
                static_cast<double>(io.async_prefetches), "count");
  report->Layer("root.early_byte_ratio",
                Ratio(io.bytes_prefetched_early, io.bytes_fetched), "ratio");
  std::printf("info fig4_wan health: prefetch_discards=%llu\n",
              static_cast<unsigned long long>(io.prefetch_discards));
  // The WAN node is stopped so that its threads stay out of the probes.
  setup->node.reset();
  ServerCounters probe =
      ProbeSuite(args.seed, tracer, report, &setup->tree, local_job_s);
  AddServerLayerMetrics(report, m.server.Plus(probe));
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fig4_wan|bulk_rw "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  RegisterTimedScheme();
  Tracer tracer;
  Tracer* active = args.trace ? &tracer : nullptr;
  Report report;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  if (args.workload == "bulk_rw") {
    RunBulkRw(args, active, &report);
  } else if (args.workload == "fig4_wan") {
    RunFig4Wan(args, active, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    for (const auto& [name, t] : tracer.Totals()) {
      std::printf("span %-28s calls=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.calls),
                  t.total_ms, t.self_ms);
    }
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.trace_out.c_str());
    }
  }
  for (const std::string& note : report.notes) {
    std::printf("note %s\n", note.c_str());
  }
  const MetricSet& out = args.trace ? report.layer : report.e2e;
  for (const Metric& m : out.metrics()) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric %-34s %.6g %s\n", "error_rate", report.tally.ErrorRate(),
              "ratio");
  bool correct = report.gates_ok && report.tally.failed() == 0;
  std::printf("%s\n", ResultLine(correct, report.tally.attempted(),
                                 report.tally.failed(), out)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
