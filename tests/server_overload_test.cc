// Overload and graceful-degradation tests for the reactor server: every
// ServerStats overload counter must demonstrably fire, and the
// request-size limits must answer with the right status codes (431 for
// header abuse, 413 for body abuse) instead of hanging or crashing. The
// drain and idle-timeout cases run over all three protocol codecs.

#include <atomic>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "core/context.h"
#include "core/http_client.h"
#include "httpd/dav_handler.h"
#include "muxhttp/frame.h"
#include "muxhttp/mux.h"
#include "net/buffered_reader.h"
#include "net/socket_address.h"
#include "net/tcp_socket.h"
#include "test_util.h"
#include "xrootd/frame.h"
#include "xrootd/xrd_server.h"

#include "gtest/gtest.h"

namespace davix {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

/// Polls `counter` until it reaches `at_least` or ~5s pass.
bool WaitForCounter(const std::atomic<uint64_t>& counter, uint64_t at_least) {
  int64_t deadline = MonotonicMicros() + 5'000'000;
  while (MonotonicMicros() < deadline) {
    if (counter.load(std::memory_order_relaxed) >= at_least) return true;
    SleepForMicros(5'000);
  }
  return counter.load(std::memory_order_relaxed) >= at_least;
}

net::TcpSocket ConnectTo(const TestStorageServer& server) {
  auto address =
      net::SocketAddress::Resolve("127.0.0.1", server.server->port());
  auto socket = net::TcpSocket::Connect(*address);
  EXPECT_TRUE(socket.ok());
  return std::move(*socket);
}

/// Sends raw bytes, half-closes, returns everything the server answers.
std::string RawExchange(const TestStorageServer& server,
                        const std::string& bytes) {
  net::TcpSocket socket = ConnectTo(server);
  EXPECT_OK(socket.WriteAll(bytes));
  socket.ShutdownWrite();
  std::string response;
  net::BufferedReader reader(&socket, 2'000'000);
  (void)reader.ReadToEof(&response);
  return response;
}

void ExpectHealthy(const TestStorageServer& server, const std::string& path) {
  core::Context context;
  core::HttpClient client(&context);
  core::RequestParams params;
  auto exchange = client.Execute(*Uri::Parse(server.UrlFor(path)),
                                 http::Method::kGet, params);
  ASSERT_TRUE(exchange.ok()) << exchange.status().ToString();
  EXPECT_EQ(exchange->response.status_code, 200);
}

TEST(ServerOverloadTest, RequestLineTooLargeGets431) {
  httpd::ServerConfig config;
  config.max_request_line_bytes = 1024;
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/f", "payload");

  // A request line that never terminates within budget.
  std::string response =
      RawExchange(server, "GET /" + std::string(4096, 'a'));
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, HeaderBlockTooLargeGets431) {
  httpd::ServerConfig config;
  config.max_header_bytes = 2048;
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/f", "payload");

  std::string request = "GET /f HTTP/1.1\r\nHost: x\r\nX-Pad: " +
                        std::string(8192, 'b') + "\r\n\r\n";
  std::string response = RawExchange(server, request);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, OversizedContentLengthGets413) {
  httpd::ServerConfig config;
  config.max_body_bytes = 1024;
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/f", "payload");

  // The declaration alone is enough: no body bytes are ever sent.
  std::string response = RawExchange(
      server, "PUT /f HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n");
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, ChunkAbusiveBodyGets413) {
  httpd::ServerConfig config;
  config.max_body_bytes = 1024;
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/f", "payload");

  // A well-formed chunked body whose decoded size busts the limit.
  std::string chunk_data(8192, 'c');
  std::string request =
      "PUT /f HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
      std::string("2000\r\n") + chunk_data + "\r\n0\r\n\r\n";
  std::string response = RawExchange(server, request);
  EXPECT_NE(response.find("413"), std::string::npos) << response;
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, ConnectionCapShedsWithRetryAfter) {
  httpd::ServerConfig config;
  config.max_connections = 2;
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/f", "payload");

  // Two admitted connections park at the cap...
  net::TcpSocket first = ConnectTo(server);
  net::TcpSocket second = ConnectTo(server);
  ASSERT_TRUE(WaitForCounter(server.server->stats().connections_accepted, 2));

  // ...so the third is shed at accept with a canned 503 + Retry-After.
  std::string response = RawExchange(server, "");
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_NE(response.find("Retry-After:"), std::string::npos) << response;
  EXPECT_GE(server.server->stats().connections_shed.load(), 1u);

  // Releasing the parked connections restores service.
  first.Close();
  second.Close();
  int64_t deadline = MonotonicMicros() + 5'000'000;
  while (server.server->stats().connections_active.load() > 0 &&
         MonotonicMicros() < deadline) {
    SleepForMicros(5'000);
  }
  EXPECT_EQ(server.server->stats().connections_active.load(), 0u);
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, AdmissionControlShedsWithRetryAfter) {
  TestStorageServer server = StartStorageServer();
  server.store->Put("/f", "payload");

  server.server->SetMaxDispatchBacklog(0);  // shed everything
  std::string response =
      RawExchange(server, "GET /f HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("503"), std::string::npos) << response;
  EXPECT_NE(response.find("Retry-After:"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_GE(server.server->stats().requests_shed.load(), 1u);

  server.server->SetMaxDispatchBacklog(256);  // recovery
  ExpectHealthy(server, "/f");
  EXPECT_GE(server.server->stats().requests_handled.load(), 1u);
}

TEST(ServerOverloadTest, HeaderTimeoutCounterFires) {
  httpd::ServerConfig config;
  config.header_timeout_micros = 150'000;
  TestStorageServer server = StartStorageServer(config);
  server.store->Put("/f", "payload");

  // Slowloris: a header block that never completes.
  net::TcpSocket socket = ConnectTo(server);
  ASSERT_OK(socket.WriteAll("GET /f HTTP/1.1\r\nHost: x\r\nX-Slow: "));
  EXPECT_TRUE(WaitForCounter(server.server->stats().header_timeouts, 1));
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, WriteStallAbortCounterFires) {
  httpd::ServerConfig config;
  config.write_stall_timeout_micros = 200'000;
  TestStorageServer server = StartStorageServer(config);
  // Big enough that loopback socket buffers cannot swallow it whole.
  server.store->Put("/big", std::string(32 * 1024 * 1024, 'x'));
  server.store->Put("/f", "payload");

  // Request the object and then never read a byte of the response.
  net::TcpSocket socket = ConnectTo(server);
  ASSERT_OK(socket.WriteAll("GET /big HTTP/1.1\r\nHost: x\r\n\r\n"));
  EXPECT_TRUE(WaitForCounter(server.server->stats().write_stall_aborts, 1));
  ExpectHealthy(server, "/f");
}

TEST(ServerOverloadTest, DrainCompletesInFlightResponses) {
  TestStorageServer server = StartStorageServer();
  server.store->Put("/f", "payload");
  server.router->Handle(
      http::Method::kGet, "/slow",
      [](const http::HttpRequest&, http::HttpResponse* response) {
        SleepForMicros(300'000);
        response->status_code = 200;
        response->reason = "OK";
        response->body = "slow-done";
      });

  net::TcpSocket socket = ConnectTo(server);
  ASSERT_OK(socket.WriteAll("GET /slow HTTP/1.1\r\nHost: x\r\n\r\n"));
  SleepForMicros(100'000);  // let the reactor dispatch it to a worker

  // Stop() must drain: a response still inside its handler arrives complete.
  server.server->Stop();
  std::string response;
  net::BufferedReader reader(&socket, 2'000'000);
  (void)reader.ReadToEof(&response);
  EXPECT_NE(response.find("200"), std::string::npos) << response;
  EXPECT_NE(response.find("slow-done"), std::string::npos) << response;

  httpd::ServerStats& stats = server.server->stats();
  EXPECT_EQ(stats.drain_completions.load(), 1u);
  EXPECT_EQ(stats.responses_completed.load(), stats.requests_handled.load());
}

// --- one reactor, three codecs --------------------------------------------
//
// The drain and timeout machinery is the reactor's, so every protocol
// served on it gets the same guarantees. These cases run once per codec.

/// One server of the parameter's protocol over a store holding /f, and
/// the raw wire form of one read of /f in that protocol.
class ServerOverloadProtocolTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::string_view kPayload = "drained-payload";

  void StartServer(const netsim::LinkProfile& link, int64_t idle_micros) {
    store_ = std::make_shared<httpd::ObjectStore>();
    store_->Put("/f", std::string(kPayload));
    auto handler = std::make_shared<httpd::DavHandler>(store_);
    auto router = std::make_shared<httpd::Router>();
    handler->Register(router.get(), "/");
    if (GetParam() == "http") {
      httpd::ServerConfig config;
      config.link = link;
      config.idle_timeout_micros = idle_micros;
      http_ = std::move(httpd::HttpServer::Start(config, router)).value();
    } else if (GetParam() == "mux") {
      muxhttp::MuxServerConfig config;
      config.link = link;
      config.idle_timeout_micros = idle_micros;
      mux_ = std::move(muxhttp::MuxServer::Start(config, router)).value();
    } else {
      xrootd::XrdServerConfig config;
      config.link = link;
      config.idle_timeout_micros = idle_micros;
      xrd_ = std::move(xrootd::XrdServer::Start(config, store_)).value();
    }
  }

  httpd::ServerStats& stats() {
    return http_ ? http_->stats() : mux_ ? mux_->stats() : xrd_->stats();
  }
  uint16_t port() {
    return http_ ? http_->port() : mux_ ? mux_->port() : xrd_->port();
  }
  void Stop() {
    if (http_) http_->Stop();
    if (mux_) mux_->Stop();
    if (xrd_) xrd_->Stop();
  }

  net::TcpSocket Connect() {
    auto address = net::SocketAddress::Resolve("127.0.0.1", port());
    return std::move(net::TcpSocket::Connect(*address)).value();
  }

  /// A read of /f. xrootd pipelines the open (the connection's first
  /// handle is 1) ahead of the read.
  std::string ReadRequest() {
    if (GetParam() == "http") return "GET /f HTTP/1.1\r\nHost: x\r\n\r\n";
    if (GetParam() == "mux") {
      http::HttpRequest request;
      request.target = "/f";
      request.headers.Set("Host", "mux");
      return muxhttp::SerializeMuxFrame(1, muxhttp::MuxFrameType::kHeaders,
                                        muxhttp::kMuxFlagEndStream,
                                        request.SerializeHead(0));
    }
    xrootd::FrameHeader open;
    open.stream_id = 1;
    open.opcode = static_cast<uint16_t>(xrootd::Opcode::kOpen);
    xrootd::FrameHeader read;
    read.stream_id = 2;
    read.opcode = static_cast<uint16_t>(xrootd::Opcode::kRead);
    return xrootd::SerializeFrame(open, "/f") +
           xrootd::SerializeFrame(
               read, xrootd::EncodeReadPayload(1, kPayload.size()));
  }

  /// Reads the answer to ReadRequest() and returns the payload of /f.
  std::string ReadPayload(net::TcpSocket* socket) {
    net::BufferedReader reader(socket, 3'000'000);
    if (GetParam() == "http") {
      std::string response;
      (void)reader.ReadToEof(&response);
      EXPECT_NE(response.find("200"), std::string::npos) << response;
      size_t body = response.find("\r\n\r\n");
      return body == std::string::npos ? "" : response.substr(body + 4);
    }
    if (GetParam() == "mux") {
      muxhttp::MuxStreamAssembler assembler(
          muxhttp::MuxStreamAssembler::Mode::kResponse);
      assembler.ExpectStream(1, false);
      while (true) {
        Result<muxhttp::MuxFrame> frame = muxhttp::ReadMuxFrame(&reader);
        if (!frame.ok()) return frame.status().ToString();
        auto event = assembler.OnFrame(std::move(*frame));
        if (!event.ok()) return event.status().ToString();
        if (!event->has_value()) continue;
        if (!(*event)->response.has_value()) return "stream failed";
        EXPECT_EQ((*event)->response->status_code, 200);
        return (*event)->response->body;
      }
    }
    std::string payload;
    for (int i = 0; i < 2; ++i) {
      Result<xrootd::Frame> frame = xrootd::ReadFrame(&reader);
      if (!frame.ok()) return frame.status().ToString();
      EXPECT_EQ(frame->header.opcode,
                static_cast<uint16_t>(xrootd::RespStatus::kOk));
      if (frame->header.stream_id == 2) payload = frame->payload;
    }
    return payload;
  }

  std::shared_ptr<httpd::ObjectStore> store_;
  std::unique_ptr<httpd::HttpServer> http_;
  std::unique_ptr<muxhttp::MuxServer> mux_;
  std::unique_ptr<xrootd::XrdServer> xrd_;
};

TEST_P(ServerOverloadProtocolTest, DrainCompletesInFlightResponses) {
  // A 300 ms round trip holds the exchange in flight on its latency
  // timer when Stop() begins the drain.
  netsim::LinkProfile link = netsim::LinkProfile::Lan();
  link.rtt_micros = 300'000;
  link.connect_handshake_rtts = 0;
  StartServer(link, 30'000'000);

  net::TcpSocket socket = Connect();
  ASSERT_OK(socket.WriteAll(ReadRequest()));
  SleepForMicros(100'000);  // let the reactor parse and dispatch it

  // Stop() must drain: the in-flight response still arrives complete.
  Stop();
  EXPECT_EQ(ReadPayload(&socket), kPayload);

  httpd::ServerStats& server_stats = stats();
  EXPECT_EQ(server_stats.drain_completions.load(), 1u);
  EXPECT_GE(server_stats.requests_handled.load(), 1u);
  EXPECT_EQ(server_stats.responses_completed.load(),
            server_stats.requests_handled.load());
}

TEST_P(ServerOverloadProtocolTest, IdleConnectionIsReaped) {
  StartServer(netsim::LinkProfile::Loopback(), 200'000);

  // One exchange, then silence: the idle timeout closes the connection.
  net::TcpSocket socket = Connect();
  ASSERT_OK(socket.WriteAll(ReadRequest()));
  EXPECT_EQ(ReadPayload(&socket), kPayload);
  ASSERT_TRUE(WaitForCounter(stats().connections_accepted, 1));
  int64_t deadline = MonotonicMicros() + 5'000'000;
  while (stats().connections_active.load() > 0 &&
         MonotonicMicros() < deadline) {
    SleepForMicros(10'000);
  }
  EXPECT_EQ(stats().connections_active.load(), 0u);
  // The server's side is closed: the socket reads EOF, not a timeout.
  net::BufferedReader reader(&socket, 2'000'000);
  std::string rest;
  EXPECT_OK(reader.ReadToEof(&rest));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ServerOverloadProtocolTest,
    ::testing::Values("http", "mux", "xrootd"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace davix
