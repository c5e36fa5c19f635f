// End-to-end interop of the framed mux transport: the same DavFile /
// HttpClient hot paths that normally ride pooled HTTP/1.1 are pointed
// at a MuxServer with RequestParams::transport = kMux, and the results
// are CRC-checked against the pooled path — bit-identical bytes over a
// bounded handful of framed connections instead of a socket per
// request (§2.2's trade-off, measured in bench_pipelining_hol).
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/context.h"
#include "core/dav_file.h"
#include "core/http_client.h"
#include "core/read_ahead_stream.h"
#include "httpd/dav_handler.h"
#include "muxhttp/mux.h"
#include "net/byte_source.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace muxhttp {
namespace {

class MuxInteropTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<httpd::ObjectStore>();
    Rng rng(4);
    content_ = rng.Bytes(700'000);
    store_->Put("/f", content_);
    handler_ = std::make_shared<httpd::DavHandler>(store_);
    router_ = std::make_shared<httpd::Router>();
    handler_->Register(router_.get(), "/");
    MuxServerConfig config;
    config.data_chunk_bytes = 16 * 1024;  // make interleaving visible
    auto server = MuxServer::Start(config, router_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    context_ = std::make_unique<core::Context>();
    params_.metalink_mode = core::MetalinkMode::kDisabled;
    params_.transport = core::TransportKind::kMux;
  }

  core::DavFile File(const std::string& path) {
    return *core::DavFile::Make(context_.get(),
                                server_->BaseUrl() + path);
  }

  std::shared_ptr<httpd::ObjectStore> store_;
  std::string content_;
  std::shared_ptr<httpd::DavHandler> handler_;
  std::shared_ptr<httpd::Router> router_;
  std::unique_ptr<MuxServer> server_;
  std::unique_ptr<core::Context> context_;
  core::RequestParams params_;
};

TEST_F(MuxInteropTest, GetServesDavContentOverMux) {
  core::DavFile file = File("/f");
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(Crc32(body), Crc32(content_));
  EXPECT_EQ(body, content_);
  // The exchange rode the mux transport, not the session pool.
  IoCounters counters = context_->SnapshotCounters();
  EXPECT_EQ(counters.connections_opened, 0u);
  EXPECT_GE(counters.mux_streams_opened, 1u);
}

TEST_F(MuxInteropTest, RangedGetWorksThroughSameHandler) {
  core::DavFile file = File("/f");
  ASSERT_OK_AND_ASSIGN(std::string data,
                       file.ReadPartial(1000, 500, params_));
  EXPECT_EQ(data, content_.substr(1000, 500));
}

TEST_F(MuxInteropTest, PutStatDeleteRoundTripOverMux) {
  core::DavFile file = File("/new.obj");
  ASSERT_OK(file.Put("uploaded-via-mux", params_));
  ASSERT_OK_AND_ASSIGN(core::FileInfo info, file.Stat(params_));
  EXPECT_EQ(info.size, 16u);
  ASSERT_OK_AND_ASSIGN(std::string body, file.Get(params_));
  EXPECT_EQ(body, "uploaded-via-mux");
  ASSERT_OK(file.Delete(params_));
  EXPECT_FALSE(file.Stat(params_).ok());
  // Every exchange multiplexed onto one TCP connection.
  EXPECT_EQ(server_->stats().connections_accepted.load(), 1u);
}

TEST_F(MuxInteropTest, ReadPartialVecMatchesPooledPathBitForBit) {
  // The same scattered vectored read over both transports, out of two
  // independent contexts; payloads must be CRC-identical while the mux
  // side keeps its socket count bounded.
  std::vector<http::ByteRange> ranges = {
      {0, 4096}, {600'000, 8192}, {123'457, 999}, {content_.size() - 10, 10}};

  core::DavFile mux_file = File("/f");
  ASSERT_OK_AND_ASSIGN(auto mux_results,
                       mux_file.ReadPartialVec(ranges, params_));

  // Pooled leg: same server cannot speak HTTP/1.1, so run it against a
  // plain httpd serving the same store.
  auto pooled = davix::testing::StartStorageServer();
  pooled.store->Put("/f", content_);
  core::Context pooled_context;
  core::RequestParams pooled_params = params_;
  pooled_params.transport = core::TransportKind::kPooled;
  core::DavFile pooled_file =
      *core::DavFile::Make(&pooled_context, pooled.UrlFor("/f"));
  ASSERT_OK_AND_ASSIGN(auto pooled_results,
                       pooled_file.ReadPartialVec(ranges, pooled_params));

  ASSERT_EQ(mux_results.size(), pooled_results.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    EXPECT_EQ(Crc32(mux_results[i]), Crc32(pooled_results[i]));
    EXPECT_EQ(mux_results[i],
              content_.substr(ranges[i].offset, ranges[i].length));
  }
  IoCounters mux_counters = context_->SnapshotCounters();
  EXPECT_EQ(mux_counters.connections_opened, 0u);
  EXPECT_LE(mux_counters.mux_connections_opened, 4u);
  EXPECT_EQ(mux_counters.vector_queries,
            pooled_context.SnapshotCounters().vector_queries);
}

TEST_F(MuxInteropTest, ReadAheadStreamOverMuxDeliversInOrder) {
  // The sliding-window read-ahead path: chunks are fetched as
  // concurrent range-GETs which all multiplex onto the bounded mux
  // connection set, and still reassemble to the exact object.
  auto dav = std::make_shared<core::DavFile>(File("/f"));
  core::RequestParams params = params_;
  core::ReadAheadStreamConfig config;
  config.chunk_bytes = 64 * 1024;
  config.window_chunks = 6;
  config.file_size = content_.size();
  core::ReadAheadStream stream(
      [dav, params](uint64_t offset, uint64_t length) {
        return dav->ReadPartial(offset, length, params);
      },
      &context_->dispatcher(), config);

  std::string assembled;
  uint64_t position = 0;
  while (position < content_.size()) {
    auto chunk = stream.Read(position, 50'000);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk->empty()) break;
    assembled += *chunk;
    position += chunk->size();
  }
  EXPECT_EQ(Crc32(assembled), Crc32(content_));
  EXPECT_EQ(assembled, content_);
  IoCounters counters = context_->SnapshotCounters();
  // Six chunks in flight at a time, yet at most the per-host connection
  // cap (default 2) of real sockets — the point of the transport.
  EXPECT_LE(counters.mux_connections_opened, 2u);
  EXPECT_EQ(counters.connections_opened, 0u);
  EXPECT_GE(counters.mux_streams_opened, content_.size() / 64 / 1024);
}

TEST_F(MuxInteropTest, ConcurrentThreadsShareBoundedConnections) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      core::DavFile file = File("/f");
      for (int i = 0; i < 10; ++i) {
        auto body = file.ReadPartial(uint64_t(i) * 1000, 2000, params_);
        if (!body.ok() ||
            *body != content_.substr(uint64_t(i) * 1000, 2000)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(server_->stats().connections_accepted.load(), 2u);
  EXPECT_EQ(server_->stats().requests_handled.load(), 40u);
}

TEST_F(MuxInteropTest, SlowStreamDoesNotHeadOfLineBlockFastOnes) {
  router_->Handle(http::Method::kGet, "/slow",
                  [](const http::HttpRequest&, http::HttpResponse* response) {
                    SleepForMicros(300'000);
                    response->status_code = 200;
                    response->body = "slow";
                  });
  core::HttpClient client(context_.get());

  std::thread slow_thread([&] {
    auto slow = client.Execute(*Uri::Parse(server_->BaseUrl() + "/slow"),
                               http::Method::kGet, params_);
    EXPECT_TRUE(slow.ok()) << slow.status().ToString();
    if (slow.ok()) {
      EXPECT_EQ(slow->response.body, "slow");
    }
  });
  SleepForMicros(30'000);  // let /slow occupy its stream first

  Stopwatch stopwatch;
  core::DavFile file = File("/f");
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string data,
                         file.ReadPartial(0, 1000, params_));
    EXPECT_EQ(data, content_.substr(0, 1000));
  }
  double fast_done = stopwatch.ElapsedSeconds();
  slow_thread.join();
  EXPECT_LT(fast_done, 0.25);  // finished while /slow was still pending
}

TEST_F(MuxInteropTest, RefusedStreamsAreRetriedToCompletion) {
  // Server allows two concurrent streams per connection; the client is
  // told to pack eight onto one connection, so overflow streams get RST
  // kRefusedStream — a retryable failure the client absorbs.
  MuxServerConfig config;
  config.max_streams_per_connection = 2;
  auto tight_server = MuxServer::Start(config, router_);
  ASSERT_TRUE(tight_server.ok());
  router_->Handle(http::Method::kGet, "/pause",
                  [](const http::HttpRequest&, http::HttpResponse* response) {
                    SleepForMicros(150'000);
                    response->status_code = 200;
                    response->body = "paused";
                  });
  core::RequestParams params = params_;
  params.mux_max_connections_per_host = 1;
  params.mux_max_streams_per_connection = 8;
  // Overflow streams are refused while the two admitted ones sleep the
  // full 150 ms, so give retries room to outlast that window — and keep
  // the breaker out of it: every refusal is a breaker failure for the
  // host, and a run of them must not convert into fast-fails.
  params.max_retries = 8;
  params.breaker_failure_threshold = -1;
  core::HttpClient client(context_.get());
  Uri url = *Uri::Parse((*tight_server)->BaseUrl() + "/pause");

  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto result = client.Execute(url, http::Method::kGet, params);
      if (result.ok() && result->response.status_code == 200) {
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 4);
  EXPECT_GE((*tight_server)->mux_stats().streams_refused.load(), 1u);
}

TEST_F(MuxInteropTest, MalformedRequestHeadGetsStreamReset) {
  // Hand-roll a HEADERS frame whose payload is not an HTTP head: the
  // server must RST that stream (protocol error) and keep the
  // connection alive for the next, well-formed stream.
  net::TcpSocket raw =
      std::move(net::TcpSocket::Connect(
                    *net::SocketAddress::Resolve("127.0.0.1",
                                                 server_->port())))
          .value();
  ASSERT_OK(raw.WriteAll(SerializeMuxFrame(9, MuxFrameType::kHeaders,
                                           kMuxFlagEndStream,
                                           "NOT HTTP AT ALL")));
  net::BufferedReader reader(&raw, 2'000'000);
  ASSERT_OK_AND_ASSIGN(MuxFrame frame, ReadMuxFrame(&reader));
  EXPECT_EQ(frame.stream_id, 9u);
  EXPECT_EQ(frame.type, MuxFrameType::kRst);
  ASSERT_OK_AND_ASSIGN(MuxRstInfo rst, ParseMuxRstPayload(frame.payload));
  EXPECT_EQ(rst.code, MuxRstCode::kProtocolError);

  // Connection still usable: a valid request on a fresh stream works.
  http::HttpRequest request;
  request.method = http::Method::kGet;
  request.target = "/f";
  request.headers.Set("Host", "mux");
  for (MuxFrame& f :
       FrameMessage(11, request.SerializeHead(0), "")) {
    ASSERT_OK(raw.WriteAll(SerializeMuxFrame(f)));
  }
  MuxStreamAssembler assembler(MuxStreamAssembler::Mode::kResponse);
  assembler.ExpectStream(11, false);
  while (true) {
    ASSERT_OK_AND_ASSIGN(MuxFrame next, ReadMuxFrame(&reader));
    ASSERT_OK_AND_ASSIGN(auto event, assembler.OnFrame(std::move(next)));
    if (!event) continue;
    ASSERT_EQ(event->stream_id, 11u);
    ASSERT_TRUE(event->response.has_value());
    EXPECT_EQ(event->response->status_code, 200);
    EXPECT_EQ(event->response->body, content_);
    break;
  }
  EXPECT_EQ(server_->mux_stats().streams_reset.load(), 1u);
}

TEST_F(MuxInteropTest, ServerStopFailsPendingCleanly) {
  router_->Handle(http::Method::kGet, "/hang",
                  [](const http::HttpRequest&, http::HttpResponse* response) {
                    SleepForMicros(100'000);
                    response->status_code = 200;
                  });
  core::RequestParams params = params_;
  params.max_retries = 0;
  core::HttpClient client(context_.get());
  Uri url = *Uri::Parse(server_->BaseUrl() + "/hang");
  std::thread pending([&] {
    auto result = client.Execute(url, http::Method::kGet, params);
    // Either it squeaked through before the stop or it failed cleanly.
    if (!result.ok()) {
      EXPECT_TRUE(result.status().code() == StatusCode::kConnectionReset ||
                  result.status().code() == StatusCode::kCancelled ||
                  result.status().code() == StatusCode::kTimeout)
          << result.status().ToString();
    }
  });
  SleepForMicros(20'000);
  server_->Stop();
  pending.join();
}

}  // namespace
}  // namespace muxhttp
}  // namespace davix
