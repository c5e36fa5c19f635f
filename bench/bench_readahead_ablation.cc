// E7 (§3 analysis, ablation): where XRootD's WAN advantage comes from.
// The paper: "This difference of performance comes mainly from the
// sliding windows buffering algorithm of XRootD which allows to minimize
// the number of network round trips executed."
//
// Ablation A: xrootd sequential read of a 16 MiB object at WAN with
// sliding-window sizes 0 (pure synchronous) to 8 chunks in flight.
// Ablation B: the davix side — sequential DavPosix reads with the
// synchronous read-ahead (window 0: cuts request count but stalls a full
// RTT per chunk) versus the asynchronous sliding window
// (readahead_window_chunks, same chunk size, fetches overlapped on the
// per-Context dispatcher pool), which is the XRootD mechanism ported to
// the HTTP stack.
//
// Both sides run the same window, core::ReadAheadStream; only the fetch
// differs (XrdClient::Read on a local pool of W threads, multiplexed
// over one connection, versus pooled range-GETs), so the comparison is
// one of protocols.
//
// Every run verifies byte-identical delivery: the CRC32 of the
// consumed stream must equal the CRC32 of the stored object. Every run
// also checks its request count: ceil(object / fetch size), so a window
// that fetches a chunk twice, or fetches ahead at window 0, exits 1.

#include <algorithm>

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/context.h"
#include "core/dav_posix.h"
#include "core/read_ahead_stream.h"
#include "xrootd/xrd_client.h"

namespace davix {
namespace bench {
namespace {

constexpr size_t kConsumeChunk = 256 * 1024;
constexpr uint64_t kChunkBytes = 512 * 1024;
constexpr char kPath[] = "/seq/data.bin";

size_t ObjectBytes(bool smoke) {
  return (smoke ? 4 : 16) * 1024 * 1024;
}

struct RunOutcome {
  double seconds = 0;
  uint64_t consumed = 0;
  uint64_t requests = 0;
  bool verified = false;
};

/// Drains `read` (a callable returning Result<std::string>) with the
/// paper's 2 ms/chunk consumer model, CRC-verifying the delivered
/// stream against the object.
template <typename ReadFn>
RunOutcome Consume(ReadFn read, uint32_t expect_crc, uint64_t expect_bytes) {
  RunOutcome outcome;
  Stopwatch stopwatch;
  uint32_t crc = 0;
  while (true) {
    Result<std::string> chunk = read();
    if (!chunk.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   chunk.status().ToString().c_str());
      std::exit(1);
    }
    if (chunk->empty()) break;
    crc = Crc32(*chunk, crc);
    outcome.consumed += chunk->size();
    // Model per-chunk processing so the window has something to hide.
    SleepForMicros(2'000);
  }
  outcome.seconds = stopwatch.ElapsedSeconds();
  outcome.verified = crc == expect_crc && outcome.consumed == expect_bytes;
  if (!outcome.verified) {
    std::fprintf(stderr,
                 "VERIFICATION FAILED: delivered stream differs from the "
                 "stored object (%llu/%llu bytes)\n",
                 static_cast<unsigned long long>(outcome.consumed),
                 static_cast<unsigned long long>(expect_bytes));
    std::exit(1);
  }
  return outcome;
}

void Report(JsonReporter* json, const netsim::LinkProfile& link,
            const char* reader, uint64_t chunk_bytes, size_t window,
            const RunOutcome& outcome) {
  // Every chunk is fetched exactly once: the consumer's own read size
  // when there is no read-ahead, the chunk size otherwise.
  uint64_t fetch_bytes = chunk_bytes > 0 ? chunk_bytes : kConsumeChunk;
  uint64_t expect_requests =
      (outcome.consumed + fetch_bytes - 1) / fetch_bytes;
  if (outcome.requests != expect_requests) {
    std::fprintf(stderr,
                 "REQUEST COUNT FAILED: %s chunk=%llu window=%zu made %llu "
                 "requests, expected %llu\n",
                 reader, static_cast<unsigned long long>(chunk_bytes), window,
                 static_cast<unsigned long long>(outcome.requests),
                 static_cast<unsigned long long>(expect_requests));
    std::exit(1);
  }
  double mbps = outcome.consumed / outcome.seconds / 1e6;
  std::printf("%-6s %-12s chunk=%-8llu window=%zu %10.3f %12.1f %10llu\n",
              link.name.c_str(), reader,
              static_cast<unsigned long long>(chunk_bytes), window,
              outcome.seconds, mbps,
              static_cast<unsigned long long>(outcome.requests));
  json->AddRow()
      .Str("link", link.name)
      .Str("reader", reader)
      .Int("chunk_bytes", chunk_bytes)
      .Int("window_chunks", window)
      .Num("seconds", outcome.seconds)
      .Num("mbps", mbps)
      .Int("requests", outcome.requests)
      .Int("bytes", outcome.consumed)
      .Int("verified", outcome.verified ? 1 : 0);
}

RunOutcome RunXrdWindow(const netsim::LinkProfile& link,
                        std::shared_ptr<httpd::ObjectStore> store,
                        size_t window_chunks, uint32_t crc, uint64_t bytes) {
  auto server = StartXrdNode(link, store);
  auto client = std::move(xrootd::XrdClient::Connect("127.0.0.1", server->port())).value();
  if (!client->Login().ok()) std::exit(1);
  auto open = client->Open(kPath);
  if (!open.ok()) std::exit(1);

  // W pool threads keep W XrdClient::Read frames outstanding on the one
  // multiplexed connection.
  ThreadPool pool(std::max<size_t>(window_chunks, 1));
  core::ReadAheadStreamConfig config;
  config.chunk_bytes = kChunkBytes;
  config.window_chunks = window_chunks;
  config.file_size = open->size;
  xrootd::XrdClient* xrd = client.get();
  uint32_t handle = open->handle;
  core::ReadAheadStream stream(
      [xrd, handle](uint64_t offset, uint64_t length) {
        return xrd->Read(handle, offset, static_cast<uint32_t>(length));
      },
      &pool, config);
  uint64_t requests_before = client->requests_sent();
  uint64_t position = 0;
  RunOutcome outcome = Consume(
      [&] {
        Result<std::string> chunk = stream.Read(position, kConsumeChunk);
        if (chunk.ok()) position += chunk->size();
        return chunk;
      },
      crc, bytes);
  outcome.requests = client->requests_sent() - requests_before;
  server->Stop();
  return outcome;
}

RunOutcome RunDavix(const netsim::LinkProfile& link,
                    std::shared_ptr<httpd::ObjectStore> store,
                    uint64_t readahead_bytes, size_t window_chunks,
                    uint32_t crc, uint64_t bytes) {
  HttpNode node = StartHttpNode(link, store);
  core::Context context;
  core::DavPosix posix(&context);
  core::RequestParams params;
  params.metalink_mode = core::MetalinkMode::kDisabled;
  params.readahead_bytes = readahead_bytes;
  params.readahead_window_chunks = window_chunks;
  auto fd = posix.Open(node.UrlFor(kPath), params);
  if (!fd.ok()) std::exit(1);
  context.ResetCounters();

  RunOutcome outcome =
      Consume([&] { return posix.Read(*fd, kConsumeChunk); }, crc, bytes);
  outcome.requests = context.SnapshotCounters().requests;
  (void)posix.Close(*fd);
  node.server->Stop();
  return outcome;
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) {
  using namespace davix;
  using namespace davix::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("E7: sliding-window read-ahead ablation",
              "§3 of the libdavix paper (XRootD's WAN advantage)");
  size_t object_bytes = ObjectBytes(args.smoke);
  auto store = std::make_shared<httpd::ObjectStore>();
  Rng rng(7);
  std::string content = rng.Bytes(object_bytes);
  uint32_t crc = Crc32(content);
  store->Put(kPath, std::move(content));

  JsonReporter json("readahead_ablation");
  std::printf("%-6s %-12s %-25s %10s %12s %10s\n", "link", "reader", "shape",
              "time[s]", "MB/s", "requests");
  netsim::LinkProfile wan = netsim::LinkProfile::Wan();

  std::vector<size_t> xrd_windows =
      args.smoke ? std::vector<size_t>{0, 4} : std::vector<size_t>{0, 1, 2, 4, 8};
  for (size_t window : xrd_windows) {
    RunOutcome outcome = RunXrdWindow(wan, store, window, crc, object_bytes);
    Report(&json, wan, "xrootd", kChunkBytes, window, outcome);
  }

  // Davix synchronous read-ahead: window 0, each chunk fetched when the
  // cursor reaches it (plus the no-read-ahead baseline on full runs).
  std::vector<uint64_t> sync_readaheads =
      args.smoke ? std::vector<uint64_t>{kChunkBytes}
                 : std::vector<uint64_t>{0, kChunkBytes, 4ull << 20};
  RunOutcome sync_at_chunk;
  for (uint64_t readahead : sync_readaheads) {
    RunOutcome outcome = RunDavix(wan, store, readahead, 0, crc, object_bytes);
    if (readahead == kChunkBytes) sync_at_chunk = outcome;
    Report(&json, wan, "davix-sync", readahead, 0, outcome);
  }

  // Davix asynchronous sliding window at the same chunk size: the
  // tentpole comparison. ≥ 2x over davix-sync at window 4 is the
  // acceptance bar.
  std::vector<size_t> async_windows =
      args.smoke ? std::vector<size_t>{4} : std::vector<size_t>{2, 4, 8};
  RunOutcome async_at_four;
  for (size_t window : async_windows) {
    RunOutcome outcome =
        RunDavix(wan, store, kChunkBytes, window, crc, object_bytes);
    if (window == 4) async_at_four = outcome;
    Report(&json, wan, "davix-async", kChunkBytes, window, outcome);
  }

  double speedup = async_at_four.seconds > 0
                       ? sync_at_chunk.seconds / async_at_four.seconds
                       : 0.0;
  std::printf(
      "\ndavix async window=4 vs sync at %llu KiB chunks: %.2fx\n",
      static_cast<unsigned long long>(kChunkBytes / 1024), speedup);
  json.AddRow()
      .Str("link", wan.name)
      .Str("reader", "summary")
      .Num("async_vs_sync_speedup", speedup);
  json.WriteTo(args.json_path);

  std::printf(
      "\nexpected shape: xrootd throughput rises with the window until the\n"
      "pipe is full (window ~ bandwidth-delay product), reproducing the\n"
      "mechanism behind Figure 4's WAN column. Davix's synchronous read-\n"
      "ahead cuts the request count but each chunk still stalls a full\n"
      "RTT; the asynchronous sliding window (same chunk size) overlaps\n"
      "those round trips with consumption and reaches xrootd-window\n"
      "parity. All rows are CRC-verified against the stored object.\n");
  return 0;
}
