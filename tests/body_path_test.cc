// Bulk body paths end to end: GET bodies served as refcounted slices of
// the stored object and gather-written by the servers, Content-Length
// bodies received in place by the client and by the server's request
// assembler, and the failure modes of both — truncation, trickling, EOF
// and deadline expiry mid-body, and a peer that declares far more than
// it sends.

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/http_client.h"
#include "http/parser.h"
#include "httpd/connection.h"
#include "muxhttp/mux.h"
#include "net/buffered_reader.h"
#include "net/byte_source.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace {

using ::davix::testing::StartStorageServer;
using ::davix::testing::TestStorageServer;

constexpr int64_t kPeerTimeoutMicros = 5'000'000;

std::string Payload(size_t size, uint64_t seed) {
  Rng rng(seed);
  return rng.Bytes(size);
}

net::TcpSocket ConnectTo(uint16_t port) {
  Result<net::TcpSocket> socket = net::TcpSocket::Connect(
      net::SocketAddress::Resolve("127.0.0.1", port).value());
  EXPECT_TRUE(socket.ok()) << socket.status().ToString();
  return std::move(*socket);
}

core::RequestParams NoRetryParams() {
  core::RequestParams params;
  params.max_retries = 0;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  return params;
}

/// A one-connection raw HTTP peer: accepts, reads the request head,
/// writes `reply`, then either closes at once or holds the connection
/// open (a stall) until destroyed.
class ScriptedPeer {
 public:
  ScriptedPeer(std::string reply, bool stall)
      : listener_(net::TcpListener::Listen(0).value()) {
    std::shared_future<void> released = release_.get_future().share();
    thread_ = std::thread([this, reply = std::move(reply), stall, released] {
      Result<net::TcpSocket> socket = listener_.Accept(kPeerTimeoutMicros);
      if (!socket.ok()) return;
      net::BufferedReader reader(&*socket, kPeerTimeoutMicros);
      while (true) {
        Result<std::string> line = reader.ReadLine();
        if (!line.ok() || line->empty()) break;
      }
      (void)socket->WriteAll(reply);
      if (stall) {
        released.wait_for(std::chrono::microseconds(kPeerTimeoutMicros));
      }
    });
  }

  ~ScriptedPeer() {
    release_.set_value();
    thread_.join();
  }

  std::string Url() const {
    return "http://127.0.0.1:" + std::to_string(listener_.port()) + "/f";
  }

 private:
  net::TcpListener listener_;
  std::promise<void> release_;
  std::thread thread_;
};

// --- slices served by the handler ----------------------------------------

TEST(SliceServeTest, WholeAndSingleRangeGetsAreViewsOfTheStoredObject) {
  auto store = std::make_shared<httpd::ObjectStore>();
  const std::string payload = Payload(64 * 1024, 1);
  store->Put("/f", payload);
  auto handler = std::make_shared<httpd::DavHandler>(store);
  std::shared_ptr<const httpd::StoredObject> stored = store->Get("/f").value();

  http::HttpRequest get;
  get.method = http::Method::kGet;
  get.target = "/f";
  http::HttpResponse whole;
  handler->Handle(get, &whole);
  EXPECT_EQ(whole.status_code, 200);
  EXPECT_TRUE(whole.body.empty());
  EXPECT_EQ(whole.Body().data(), stored->data.data());
  EXPECT_EQ(whole.Body().size(), payload.size());

  get.headers.Set("Range", "bytes=100-199");
  http::HttpResponse range;
  handler->Handle(get, &range);
  EXPECT_EQ(range.status_code, 206);
  EXPECT_EQ(range.Body().data(), stored->data.data() + 100);
  EXPECT_EQ(range.Body(), payload.substr(100, 100));

  // Multi-range bodies are built, so they stay materialized.
  get.headers.Set("Range", "bytes=0-9,100-109");
  http::HttpResponse multi;
  handler->Handle(get, &multi);
  EXPECT_EQ(multi.status_code, 206);
  EXPECT_EQ(multi.body_owner, nullptr);
  EXPECT_FALSE(multi.body.empty());

  // A slice pins its generation: replacing the object does not touch
  // bytes a response still holds.
  store->Put("/f", "replaced");
  stored.reset();
  EXPECT_EQ(whole.Body(), payload);
  EXPECT_EQ(range.Body(), payload.substr(100, 100));
}

TEST(SliceServeTest, HeadCarriesContentLengthAndNoBodyBytes) {
  TestStorageServer server = StartStorageServer();
  const std::string payload = Payload(100'000, 2);
  server.store->Put("/f", payload);
  net::TcpSocket socket = ConnectTo(server.server->port());
  // Pipelined: had the HEAD response leaked body bytes, the GET's status
  // line would not parse.
  ASSERT_OK(socket.WriteAll(
      "HEAD /f HTTP/1.1\r\nHost: h\r\n\r\nGET /f HTTP/1.1\r\nHost: h\r\n\r\n"));
  net::BufferedReader reader(&socket, kPeerTimeoutMicros);
  ASSERT_OK_AND_ASSIGN(http::HttpResponse head,
                       http::MessageReader::ReadResponseHead(&reader));
  EXPECT_EQ(head.status_code, 200);
  EXPECT_EQ(head.headers.GetUint64("Content-Length"), payload.size());
  ASSERT_OK(http::MessageReader::ReadResponseBody(&reader, true, &head));
  EXPECT_TRUE(head.body.empty());

  ASSERT_OK_AND_ASSIGN(http::HttpResponse get,
                       http::MessageReader::ReadResponseHead(&reader));
  EXPECT_EQ(get.status_code, 200);
  ASSERT_OK(http::MessageReader::ReadResponseBody(&reader, false, &get));
  EXPECT_TRUE(get.body == payload);
}

TEST(SliceServeTest, HeadStripsASliceAnyHandlerServes) {
  // A handler that answers every method with a slice: the server itself
  // must keep a HEAD response body-free.
  TestStorageServer server = StartStorageServer();
  auto blob = std::make_shared<const std::string>(Payload(50'000, 10));
  server.router->HandleAll(
      "/sliced", [blob](const http::HttpRequest&, http::HttpResponse* out) {
        out->SetBodySlice(blob, *blob);
      });
  net::TcpSocket socket = ConnectTo(server.server->port());
  ASSERT_OK(socket.WriteAll("HEAD /sliced HTTP/1.1\r\nHost: h\r\n\r\n"
                            "GET /sliced HTTP/1.1\r\nHost: h\r\n\r\n"));
  net::BufferedReader reader(&socket, kPeerTimeoutMicros);
  ASSERT_OK_AND_ASSIGN(http::HttpResponse head,
                       http::MessageReader::ReadResponseHead(&reader));
  EXPECT_EQ(head.headers.GetUint64("Content-Length"), blob->size());
  ASSERT_OK(http::MessageReader::ReadResponseBody(&reader, true, &head));
  ASSERT_OK_AND_ASSIGN(http::HttpResponse get,
                       http::MessageReader::ReadResponseHead(&reader));
  EXPECT_EQ(get.status_code, 200);
  ASSERT_OK(http::MessageReader::ReadResponseBody(&reader, false, &get));
  EXPECT_TRUE(get.body == *blob);
}

TEST(SliceServeTest, TruncateFaultCutsTheSliceShort) {
  TestStorageServer server = StartStorageServer();
  const std::string payload = Payload(300'001, 3);
  server.store->Put("/f", payload);
  netsim::FaultRule rule;
  rule.path_prefix = "/f";
  rule.action = netsim::FaultAction::kTruncateBody;
  rule.max_hits = 1;
  server.server->faults().AddRule(rule);

  net::TcpSocket socket = ConnectTo(server.server->port());
  ASSERT_OK(socket.WriteAll("GET /f HTTP/1.1\r\nHost: h\r\n\r\n"));
  net::BufferedReader reader(&socket, kPeerTimeoutMicros);
  ASSERT_OK_AND_ASSIGN(http::HttpResponse response,
                       http::MessageReader::ReadResponseHead(&reader));
  // The head promises the whole object; half of it (and one byte) never
  // comes before the close.
  EXPECT_EQ(response.headers.GetUint64("Content-Length"), payload.size());
  std::string received;
  ASSERT_OK(reader.ReadToEof(&received));
  size_t expected = payload.size() - (payload.size() / 2 + 1);
  ASSERT_EQ(received.size(), expected);
  EXPECT_TRUE(received == payload.substr(0, expected));
}

TEST(SliceServeTest, SlowBodyFaultTricklesTheWholeSlice) {
  TestStorageServer server = StartStorageServer();
  const std::string payload = Payload(16 * 1024, 4);
  server.store->Put("/f", payload);
  netsim::FaultRule rule;
  rule.path_prefix = "/f";
  rule.action = netsim::FaultAction::kSlowBody;
  rule.body_bytes_per_sec = 64 * 1024;  // 3.2 KiB per 50 ms tick: ~0.25 s
  rule.max_hits = 1;
  server.server->faults().AddRule(rule);

  net::TcpSocket socket = ConnectTo(server.server->port());
  Stopwatch stopwatch;
  ASSERT_OK(socket.WriteAll("GET /f HTTP/1.1\r\nHost: h\r\n\r\n"));
  net::BufferedReader reader(&socket, kPeerTimeoutMicros);
  ASSERT_OK_AND_ASSIGN(http::HttpResponse response,
                       http::MessageReader::ReadResponseHead(&reader));
  ASSERT_OK(http::MessageReader::ReadResponseBody(&reader, false, &response));
  EXPECT_TRUE(response.body == payload);
  // Five ticks at least separate the first and last trickle.
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.2);
}

TEST(SliceServeTest, MuxRangeGetIsCutFromTheSlice) {
  TestStorageServer server = StartStorageServer();
  Result<std::unique_ptr<muxhttp::MuxServer>> mux =
      muxhttp::MuxServer::Start(muxhttp::MuxServerConfig{}, server.router);
  ASSERT_TRUE(mux.ok()) << mux.status().ToString();
  const std::string payload = Payload(1 << 20, 5);
  server.store->Put("/f", payload);

  core::Context context;
  core::RequestParams params = NoRetryParams();
  params.transport = core::TransportKind::kMux;
  ASSERT_OK_AND_ASSIGN(core::DavFile file,
                       core::DavFile::Make(&context, (*mux)->BaseUrl() + "/f"));
  ASSERT_OK_AND_ASSIGN(std::string part,
                       file.ReadPartial(300'000, 200'000, params));
  EXPECT_TRUE(part == payload.substr(300'000, 200'000));
  ASSERT_OK_AND_ASSIGN(std::string whole, file.Get(params));
  EXPECT_TRUE(whole == payload);
  (*mux)->Stop();
}

// --- slice lifetime under concurrent writers -----------------------------

TEST(SliceLifetimeTest, GetRacingPutAndDeleteReturnsOneGenerationWhole) {
  // A shaped link holds each response for a modelled delay between the
  // handler cutting the slice and the reactor writing it: the window in
  // which a PUT or DELETE replaces the object the slice points into.
  httpd::ServerConfig config;
  config.link = netsim::LinkProfile::Lan();
  TestStorageServer server = StartStorageServer(config);
  muxhttp::MuxServerConfig mux_config;
  mux_config.link = netsim::LinkProfile::Lan();
  Result<std::unique_ptr<muxhttp::MuxServer>> mux =
      muxhttp::MuxServer::Start(mux_config, server.router);
  ASSERT_TRUE(mux.ok()) << mux.status().ToString();
  const std::string gen_a = Payload(256 * 1024, 6);
  const std::string gen_b = Payload(256 * 1024, 7);
  server.store->Put("/race", gen_a);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    core::Context context;
    core::HttpClient client(&context);
    Uri url = *Uri::Parse(server.UrlFor("/race"));
    for (int i = 0; !stop.load(); ++i) {
      switch (i % 3) {
        case 0:
          (void)client.Execute(url, http::Method::kPut, NoRetryParams(),
                               gen_b);
          break;
        case 1:
          (void)client.Execute(url, http::Method::kDelete, NoRetryParams());
          break;
        default:
          (void)client.Execute(url, http::Method::kPut, NoRetryParams(),
                               gen_a);
          break;
      }
    }
  });

  std::atomic<int> torn{0};
  std::atomic<int> whole{0};
  auto reader = [&](std::string base, core::TransportKind transport) {
    core::Context context;
    core::HttpClient client(&context);
    core::RequestParams params = NoRetryParams();
    params.transport = transport;
    Uri url = *Uri::Parse(base + "/race");
    for (int i = 0; i < 40; ++i) {
      Result<core::HttpClient::Exchange> got =
          client.Execute(url, http::Method::kGet, params);
      if (!got.ok() || got->response.status_code == 404) continue;
      const std::string& body = got->response.body;
      if (body == gen_a || body == gen_b) {
        whole.fetch_add(1);
      } else {
        torn.fetch_add(1);
      }
    }
  };
  std::thread pooled(reader, server.server->BaseUrl(),
                     core::TransportKind::kPooled);
  std::thread muxed(reader, (*mux)->BaseUrl(), core::TransportKind::kMux);
  pooled.join();
  muxed.join();
  stop.store(true);
  writer.join();
  (*mux)->Stop();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(whole.load(), 0);
}

// --- in-place receive on the client ---------------------------------------

TEST(DirectReceiveTest, PrefixThenDirectReadsKeepByteAccounting) {
  const std::string body = Payload(300 * 1024, 8);
  std::string wire = "HTTP/1.1 200 OK\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body +
                     "HTTP/1.1 204 No Content\r\n\r\n";
  net::StringSource source(wire);
  net::BufferedReader reader(&source);
  ASSERT_OK_AND_ASSIGN(http::HttpResponse first,
                       http::MessageReader::ReadResponseHead(&reader));
  ASSERT_OK(http::MessageReader::ReadResponseBody(&reader, false, &first));
  EXPECT_TRUE(first.body == body);
  // The next message is intact behind the directly received body.
  ASSERT_OK_AND_ASSIGN(http::HttpResponse second,
                       http::MessageReader::ReadResponseHead(&reader));
  EXPECT_EQ(second.status_code, 204);
  EXPECT_EQ(reader.bytes_consumed(), wire.size());
}

TEST(DirectReceiveTest, EofMidBodyIsConnectionResetAndDiscardsSession) {
  ScriptedPeer peer("HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n" +
                        std::string(300 * 1024, 'b'),
                    /*stall=*/false);
  core::Context context;
  core::HttpClient client(&context);
  Result<core::HttpClient::Exchange> result =
      client.Execute(*Uri::Parse(peer.Url()), http::Method::kGet,
                     NoRetryParams());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConnectionReset);
  EXPECT_EQ(context.pool().stats().discarded.load(), 1u);
  EXPECT_EQ(context.pool().IdleCount(), 0u);
}

TEST(DirectReceiveTest, DeadlineMidBodyIsTimeoutAndDiscardsSession) {
  ScriptedPeer peer("HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n" +
                        std::string(300 * 1024, 'b'),
                    /*stall=*/true);
  core::Context context;
  core::HttpClient client(&context);
  core::RequestParams params = NoRetryParams();
  params.total_timeout_micros = 300'000;
  Stopwatch stopwatch;
  Result<core::HttpClient::Exchange> result =
      client.Execute(*Uri::Parse(peer.Url()), http::Method::kGet, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_LT(stopwatch.ElapsedSeconds(), 3.0);
  EXPECT_EQ(context.pool().stats().discarded.load(), 1u);
  EXPECT_EQ(context.pool().IdleCount(), 0u);
}

constexpr char kHugeDeclaredHead[] =
    "HTTP/1.1 200 OK\r\nContent-Length: 536870912\r\n\r\n";

TEST(DirectReceiveTest, HugeDeclaredLengthReservesAtMostTheCap) {
  testing::SocketPair pair = testing::MakeSocketPair();
  ASSERT_OK(pair.server.WriteAll(std::string(kHugeDeclaredHead) +
                                 "0123456789"));
  pair.server.Close();
  net::BufferedReader reader(&pair.client, kPeerTimeoutMicros);
  ASSERT_OK_AND_ASSIGN(http::HttpResponse response,
                       http::MessageReader::ReadResponseHead(&reader));
  Status status =
      http::MessageReader::ReadResponseBody(&reader, false, &response);
  EXPECT_EQ(status.code(), StatusCode::kConnectionReset);
  EXPECT_EQ(response.body, "0123456789");
  EXPECT_LE(response.body.capacity(),
            net::BufferedReader::kMaxBodyReserveBytes);
}

TEST(DirectReceiveTest, HugeDeclaredLengthFailsCleanlyThroughTheClient) {
  ScriptedPeer peer(std::string(kHugeDeclaredHead) + "0123456789",
                    /*stall=*/false);
  core::Context context;
  core::HttpClient client(&context);
  Result<core::HttpClient::Exchange> result =
      client.Execute(*Uri::Parse(peer.Url()), http::Method::kGet,
                     NoRetryParams());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kConnectionReset);
  EXPECT_EQ(context.pool().stats().discarded.load(), 1u);
}

// --- in-place receive on the server ----------------------------------------

class AssemblerBodyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AssemblerBodyTest, LargeBodyWithoutBlankLineYieldsOneRequest) {
  const std::string eol = GetParam();
  constexpr size_t kBody = 8u << 20;
  constexpr size_t kStep = 256 * 1024;
  const std::string head = "PUT /big HTTP/1.1" + eol + "Host: h" + eol +
                           "Content-Length: " + std::to_string(kBody) + eol +
                           eol;
  const std::string body(kBody, 'x');
  std::string wire = head + body;

  httpd::RequestAssembler assembler(httpd::RequestAssembler::Limits{});
  std::string buf;
  http::HttpRequest got;
  int ready = 0;
  for (size_t pos = 0; pos < wire.size(); pos += kStep) {
    buf.append(wire, pos, kStep);
    http::HttpRequest request;
    size_t wire_bytes = 0;
    bool head_done = false;
    httpd::AssembleOutcome outcome =
        assembler.Poll(&buf, &request, &wire_bytes, &head_done);
    EXPECT_TRUE(head_done);
    if (outcome == httpd::AssembleOutcome::kReady) {
      ++ready;
      EXPECT_EQ(wire_bytes, wire.size());
      got = std::move(request);
    } else {
      EXPECT_EQ(outcome, httpd::AssembleOutcome::kNeedMore);
    }
  }
  EXPECT_EQ(ready, 1);
  EXPECT_EQ(got.target, "/big");
  EXPECT_TRUE(got.body == body);
  EXPECT_TRUE(buf.empty());

  // The connection's next request assembles normally afterwards.
  buf = "GET /next HTTP/1.1" + eol + eol;
  http::HttpRequest next;
  size_t wire_bytes = 0;
  bool head_done = false;
  EXPECT_EQ(assembler.Poll(&buf, &next, &wire_bytes, &head_done),
            httpd::AssembleOutcome::kReady);
  EXPECT_EQ(next.target, "/next");
  EXPECT_TRUE(next.body.empty());
}

INSTANTIATE_TEST_SUITE_P(Terminators, AssemblerBodyTest,
                         ::testing::Values("\r\n", "\n"));

TEST(AssemblerPipelineTest, RequestsBehindABodySplitCorrectly) {
  std::string buf =
      "PUT /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "PUT /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nbye"
      "GET /c HTTP/1.1\r\n\r\n";
  httpd::RequestAssembler assembler(httpd::RequestAssembler::Limits{});
  std::vector<std::string> seen;
  while (true) {
    http::HttpRequest request;
    size_t wire_bytes = 0;
    bool head_done = false;
    if (assembler.Poll(&buf, &request, &wire_bytes, &head_done) !=
        httpd::AssembleOutcome::kReady) {
      break;
    }
    seen.push_back(request.target + ":" + request.body);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"/a:hello", "/b:bye", "/c:"}));
  EXPECT_TRUE(buf.empty());
}

TEST(ServerReceiveTest, HugeDeclaredPutClosedEarlyFailsCleanly) {
  TestStorageServer server = StartStorageServer();
  {
    net::TcpSocket socket = ConnectTo(server.server->port());
    ASSERT_OK(socket.WriteAll(
        "PUT /big HTTP/1.1\r\nHost: h\r\nContent-Length: 536870912\r\n\r\n"
        "0123456789"));
    socket.ShutdownWrite();
    // No response: the server drops the half-received request and closes.
    Stopwatch stopwatch;
    net::BufferedReader reader(&socket, kPeerTimeoutMicros);
    std::string reply;
    ASSERT_OK(reader.ReadToEof(&reply));
    EXPECT_TRUE(reply.empty());
    EXPECT_LT(stopwatch.ElapsedSeconds(), 3.0);
  }
  EXPECT_FALSE(server.store->Get("/big").ok());

  // The server is unharmed and the next upload lands whole.
  const std::string payload = Payload(1 << 20, 9);
  core::Context context;
  ASSERT_OK_AND_ASSIGN(core::DavFile file,
                       core::DavFile::Make(&context, server.UrlFor("/ok")));
  ASSERT_OK(file.Put(payload, NoRetryParams()));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const httpd::StoredObject> stored,
                       server.store->Get("/ok"));
  EXPECT_TRUE(stored->data == payload);
}

}  // namespace
}  // namespace davix
