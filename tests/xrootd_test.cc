#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/read_ahead_stream.h"
#include "httpd/object_store.h"
#include "test_util.h"
#include "xrootd/frame.h"
#include "xrootd/xrd_client.h"
#include "xrootd/xrd_server.h"

#include "gtest/gtest.h"

namespace davix {
namespace xrootd {
namespace {

// ------------------------------------------------------------------ Frame

TEST(FrameTest, SerializeReadRoundTrip) {
  FrameHeader header;
  header.stream_id = 0xBEEF;
  header.opcode = static_cast<uint16_t>(Opcode::kRead);
  header.arg = 0x0123456789ABCDEFull;
  std::string payload = "hello frame";
  std::string wire = SerializeFrame(header, payload);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  auto pair = testing::MakeSocketPair();
  ASSERT_OK(pair.server.WriteAll(wire));
  net::BufferedReader reader(&pair.client, 1'000'000);
  ASSERT_OK_AND_ASSIGN(Frame frame, ReadFrame(&reader));
  EXPECT_EQ(frame.header.stream_id, header.stream_id);
  EXPECT_EQ(frame.header.opcode, header.opcode);
  EXPECT_EQ(frame.header.arg, header.arg);
  EXPECT_EQ(frame.payload, payload);
}

TEST(FrameTest, RejectsOversizedPayloadLength) {
  FrameHeader header;
  std::string wire = SerializeFrame(header, "");
  // Corrupt the length field to an absurd value.
  wire[4] = wire[5] = wire[6] = wire[7] = static_cast<char>(0xFF);
  auto pair = testing::MakeSocketPair();
  ASSERT_OK(pair.server.WriteAll(wire));
  net::BufferedReader reader(&pair.client, 1'000'000);
  EXPECT_FALSE(ReadFrame(&reader).ok());
}

TEST(FrameTest, ReadPayloadCodec) {
  std::string payload = EncodeReadPayload(7, 4096);
  ASSERT_OK_AND_ASSIGN(auto decoded, DecodeReadPayload(payload));
  EXPECT_EQ(decoded.first, 7u);
  EXPECT_EQ(decoded.second, 4096u);
  EXPECT_FALSE(DecodeReadPayload("short").ok());
}

TEST(FrameTest, ReadVectorPayloadCodec) {
  std::vector<http::ByteRange> ranges = {{0, 10}, {1 << 20, 4096}, {7, 1}};
  std::string payload = EncodeReadVectorPayload(42, ranges);
  ASSERT_OK_AND_ASSIGN(auto decoded, DecodeReadVectorPayload(payload));
  EXPECT_EQ(decoded.first, 42u);
  EXPECT_EQ(decoded.second, ranges);
  EXPECT_FALSE(DecodeReadVectorPayload(payload.substr(0, 9)).ok());
}

// ---------------------------------------------------------- client/server

class XrdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<httpd::ObjectStore>();
    Rng rng(2024);
    content_ = rng.Bytes(512 * 1024);
    store_->Put("/data.bin", content_);
    auto server = XrdServer::Start({}, store_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
    auto client = XrdClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
    ASSERT_OK(client_->Login());
  }

  std::shared_ptr<httpd::ObjectStore> store_;
  std::string content_;
  std::unique_ptr<XrdServer> server_;
  std::unique_ptr<XrdClient> client_;
};

TEST_F(XrdTest, OpenStatReadClose) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  EXPECT_EQ(info.size, content_.size());
  ASSERT_OK_AND_ASSIGN(uint64_t size, client_->StatSize("/data.bin"));
  EXPECT_EQ(size, content_.size());
  ASSERT_OK_AND_ASSIGN(std::string data,
                       client_->Read(info.handle, 1000, 512));
  EXPECT_EQ(data, content_.substr(1000, 512));
  ASSERT_OK(client_->Close(info.handle));
}

TEST_F(XrdTest, OpenMissingIsNotFound) {
  Result<OpenInfo> result = client_->Open("/absent");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(XrdTest, ReadClampedAtEof) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  ASSERT_OK_AND_ASSIGN(
      std::string data,
      client_->Read(info.handle, content_.size() - 10, 1000));
  EXPECT_EQ(data, content_.substr(content_.size() - 10));
  ASSERT_OK_AND_ASSIGN(std::string empty,
                       client_->Read(info.handle, content_.size() + 5, 10));
  EXPECT_TRUE(empty.empty());
}

TEST_F(XrdTest, BadHandleRejected) {
  EXPECT_FALSE(client_->Read(9999, 0, 10).ok());
}

TEST_F(XrdTest, ReadVectorSingleRoundTrip) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  uint64_t before = client_->requests_sent();
  std::vector<http::ByteRange> ranges = {
      {0, 100}, {100'000, 200}, {400'000, 50}, {content_.size() - 5, 100}};
  ASSERT_OK_AND_ASSIGN(auto results, client_->ReadVector(info.handle, ranges));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], content_.substr(0, 100));
  EXPECT_EQ(results[1], content_.substr(100'000, 200));
  EXPECT_EQ(results[2], content_.substr(400'000, 50));
  EXPECT_EQ(results[3], content_.substr(content_.size() - 5));  // clamped
  // The whole vector consumed exactly one request frame.
  EXPECT_EQ(client_->requests_sent() - before, 1u);
  EXPECT_EQ(server_->xrd_stats().readv_requests.load(), 1u);
  EXPECT_EQ(server_->xrd_stats().ranges_served.load(), 4u);
}

TEST_F(XrdTest, ReadVectorRangePastEofIsEmpty) {
  // A range starting past EOF comes back as an empty part, like preadv
  // (it once threw std::out_of_range inside the server).
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  std::vector<http::ByteRange> ranges = {{0, 10}, {content_.size() + 10, 100}};
  ASSERT_OK_AND_ASSIGN(auto results, client_->ReadVector(info.handle, ranges));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], content_.substr(0, 10));
  EXPECT_TRUE(results[1].empty());
  // The same connection keeps serving.
  ASSERT_OK_AND_ASSIGN(std::string data, client_->Read(info.handle, 0, 64));
  EXPECT_EQ(data, content_.substr(0, 64));
}

TEST_F(XrdTest, ReadVectorLargerThanAFrameIsBadRequest) {
  // 257 whole-object ranges of a 1 MiB object would answer more than
  // one frame may carry: refused up front, not built and then rejected
  // by the client as a protocol error.
  store_->Put("/mib", std::string(1 << 20, 'm'));
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/mib"));
  std::vector<http::ByteRange> ranges(257, http::ByteRange{0, 1 << 20});
  Result<std::vector<std::string>> results =
      client_->ReadVector(info.handle, ranges);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument)
      << results.status().ToString();
  EXPECT_TRUE(client_->IsAlive());
  ASSERT_OK_AND_ASSIGN(std::string data, client_->Read(info.handle, 0, 16));
  EXPECT_EQ(data, std::string(16, 'm'));
}

TEST_F(XrdTest, MultiplexedAsyncReadsCompleteOutOfOrder) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  // Issue many overlapping async reads and verify all complete correctly
  // regardless of completion order.
  std::vector<std::future<Result<std::string>>> futures;
  std::vector<uint64_t> offsets;
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    uint64_t offset = rng.Below(content_.size() - 256);
    offsets.push_back(offset);
    futures.push_back(client_->ReadAsync(info.handle, offset, 256));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<std::string> data = futures[i].get();
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(*data, content_.substr(offsets[i], 256));
  }
}

TEST_F(XrdTest, ConcurrentThreadsShareConnection) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 20; ++i) {
        uint64_t offset = rng.Below(content_.size() - 64);
        Result<std::string> data = client_->Read(info.handle, offset, 64);
        if (!data.ok() || *data != content_.substr(offset, 64)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // One connection for all of it.
  EXPECT_EQ(server_->stats().connections_accepted.load(), 1u);
}

TEST_F(XrdTest, ServerDownFailsPendingAndFuture) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  server_->faults().SetServerDown(true);
  Result<std::string> result = client_->Read(info.handle, 0, 100);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(client_->IsAlive());
  // Subsequent calls fail fast.
  EXPECT_FALSE(client_->Read(info.handle, 0, 1).ok());
}

TEST_F(XrdTest, EmptyObjectReads) {
  store_->Put("/empty", "");
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/empty"));
  EXPECT_EQ(info.size, 0u);
  ASSERT_OK_AND_ASSIGN(std::string data, client_->Read(info.handle, 0, 10));
  EXPECT_TRUE(data.empty());
}

// -------------------------------------------------------------- readahead

// The xrootd side of the E7 ablation runs through the one sequential
// window, core::ReadAheadStream: each chunk is a plain XrdClient::Read on
// a small local pool, and the client multiplexes those W concurrent
// calls over its single connection.
class ReadAheadTest : public XrdTest {
 protected:
  std::unique_ptr<core::ReadAheadStream> Stream(const OpenInfo& info,
                                                uint64_t chunk_bytes,
                                                size_t window_chunks) {
    pool_ = std::make_unique<ThreadPool>(std::max<size_t>(window_chunks, 1));
    core::ReadAheadStreamConfig config;
    config.chunk_bytes = chunk_bytes;
    config.window_chunks = window_chunks;
    config.file_size = info.size;
    XrdClient* client = client_.get();
    uint32_t handle = info.handle;
    return std::make_unique<core::ReadAheadStream>(
        [client, handle](uint64_t offset, uint64_t length) {
          return client->Read(handle, offset, static_cast<uint32_t>(length));
        },
        pool_.get(), config);
  }

  /// Declared after the XrdTest members, so destroyed (joined) before
  /// the client its fetches call into.
  std::unique_ptr<ThreadPool> pool_;
};

TEST_F(ReadAheadTest, SequentialReadMatchesContent) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  auto stream = Stream(info, 8192, 4);
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string chunk,
                         stream->Read(assembled.size(), 3000));
    if (chunk.empty()) break;
    assembled += chunk;
  }
  EXPECT_EQ(assembled, content_);
}

TEST_F(ReadAheadTest, WindowKeepsMultipleRequestsInFlight) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  auto stream = Stream(info, 4096, 8);
  ASSERT_OK_AND_ASSIGN(std::string first, stream->Read(0, 100));
  EXPECT_EQ(first, content_.substr(0, 100));
  // The chunk fetches run on the pool: let them all leave before
  // counting what went on the wire.
  while (pool_->backlog() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // After the first read, the window should have prefetched well beyond
  // the consumed 100 bytes: at least window worth of read requests sent.
  EXPECT_GE(client_->requests_sent(), 8u);
}

TEST_F(ReadAheadTest, SeekDiscardsWindowButStaysCorrect) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  auto stream = Stream(info, 8192, 4);
  ASSERT_OK_AND_ASSIGN(std::string a, stream->Read(0, 500));
  ASSERT_OK_AND_ASSIGN(std::string b, stream->Read(300'000, 500));
  ASSERT_OK_AND_ASSIGN(std::string c, stream->Read(10, 500));
  EXPECT_EQ(a, content_.substr(0, 500));
  EXPECT_EQ(b, content_.substr(300'000, 500));
  EXPECT_EQ(c, content_.substr(10, 500));
}

TEST_F(ReadAheadTest, ZeroWindowIsSynchronous) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  auto stream = Stream(info, 65536, 0);
  ASSERT_OK_AND_ASSIGN(std::string data, stream->Read(0, 1000));
  EXPECT_EQ(data, content_.substr(0, 1000));
}

TEST_F(ReadAheadTest, ReadAcrossChunkBoundaries) {
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  auto stream = Stream(info, 1000, 2);  // force many boundaries
  ASSERT_OK_AND_ASSIGN(std::string data, stream->Read(0, 9990));
  EXPECT_EQ(data, content_.substr(0, 9990));
}

TEST_F(ReadAheadTest, ServerStopMidScanFailsEveryLaterReadWithoutThrowing) {
  // Every Read after the first failure must fail cleanly and re-seed,
  // never trip over the consumed state of the chunk that failed.
  ASSERT_OK_AND_ASSIGN(OpenInfo info, client_->Open("/data.bin"));
  auto stream = Stream(info, 8192, 4);
  ASSERT_OK_AND_ASSIGN(std::string head, stream->Read(0, 1000));
  EXPECT_EQ(head, content_.substr(0, 1000));
  server_->Stop();
  // Each read reaches past the prefetched window, onto the dead
  // connection; the cursor stays put because none of them succeeds.
  for (int i = 0; i < 3; ++i) {
    Result<std::string> data{std::string()};
    EXPECT_NO_THROW(data = stream->Read(1000, 64 * 1024)) << "read " << i;
    EXPECT_FALSE(data.ok()) << "read " << i;
  }
}

}  // namespace
}  // namespace xrootd
}  // namespace davix
