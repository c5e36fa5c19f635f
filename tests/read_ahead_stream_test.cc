#include "core/read_ahead_stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

/// Synthetic backing object: fetches slice bytes out of an in-memory
/// string, with instrumentation hooks. Completion order is shuffled by
/// per-fetch jitter so in-order delivery is actually exercised.
struct FakeObject {
  explicit FakeObject(size_t size, uint64_t seed = 7) {
    Rng rng(seed);
    content = rng.Bytes(size);
  }

  ReadAheadFetchFn Fetcher() {
    return [this](uint64_t offset, uint64_t length) -> Result<std::string> {
      int now = concurrent.fetch_add(1) + 1;
      int seen = max_concurrent.load();
      while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
      }
      fetches.fetch_add(1);
      if (jitter_micros > 0) {
        // Floor of jitter_micros plus an offset-derived spread, so every
        // fetch takes real time and completion order gets shuffled.
        std::this_thread::sleep_for(std::chrono::microseconds(
            jitter_micros + (offset / 997) % jitter_micros));
      }
      concurrent.fetch_sub(1);
      if (fail_at_offset.load() == static_cast<int64_t>(offset) &&
          failures_left.fetch_sub(1) > 0) {
        return Status::IoError("injected fetch failure");
      }
      if (offset >= content.size()) return std::string();
      return content.substr(offset, length);
    };
  }

  std::string content;
  std::atomic<int> fetches{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int64_t> fail_at_offset{-1};
  std::atomic<int> failures_left{0};
  int64_t jitter_micros = 400;
};

ReadAheadStreamConfig Config(uint64_t chunk, size_t window, uint64_t size) {
  ReadAheadStreamConfig config;
  config.chunk_bytes = chunk;
  config.window_chunks = window;
  config.file_size = size;
  return config;
}

TEST(ReadAheadStreamTest, InOrderDeliveryAcrossChunkBoundaries) {
  FakeObject object(100'000);
  ThreadPool pool(8);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  // Read sizes straddle chunk boundaries in every alignment.
  std::string assembled;
  size_t sizes[] = {1000, 5000, 7, 4096, 9000, 1};
  size_t turn = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string data,
                         stream.Read(assembled.size(), sizes[turn++ % 6]));
    if (data.empty()) break;
    assembled += data;
  }
  EXPECT_EQ(assembled, object.content);
  // Every chunk fetched exactly once.
  EXPECT_EQ(object.fetches.load(),
            static_cast<int>((object.content.size() + 4095) / 4096));
}

TEST(ReadAheadStreamTest, KeepsAtMostWindowChunksInFlight) {
  FakeObject object(64 * 1024);
  object.jitter_micros = 2000;
  ThreadPool pool(8);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(1024, 3, object.content.size()));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string data, stream.Read(assembled.size(), 800));
    if (data.empty()) break;
    assembled += data;
  }
  EXPECT_EQ(assembled, object.content);
  EXPECT_LE(object.max_concurrent.load(), 3);
}

TEST(ReadAheadStreamTest, EofOnNonChunkAlignedObject) {
  FakeObject object(10'000);  // 2 full 4096 chunks + a 1808-byte tail
  ThreadPool pool(4);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  ASSERT_OK_AND_ASSIGN(std::string head, stream.Read(0, 9000));
  EXPECT_EQ(head, object.content.substr(0, 9000));
  // Crossing EOF returns the short tail, then empty forever.
  ASSERT_OK_AND_ASSIGN(std::string tail, stream.Read(9000, 5000));
  EXPECT_EQ(tail, object.content.substr(9000));
  ASSERT_OK_AND_ASSIGN(std::string empty, stream.Read(10'000, 100));
  EXPECT_TRUE(empty.empty());
}

TEST(ReadAheadStreamTest, SeeksReseedTheWindow) {
  FakeObject object(100'000);
  ThreadPool pool(8);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  ASSERT_OK_AND_ASSIGN(std::string a, stream.Read(0, 100));
  EXPECT_EQ(a, object.content.substr(0, 100));
  // Forward, out of the window.
  ASSERT_OK_AND_ASSIGN(std::string b, stream.Read(60'000, 100));
  EXPECT_EQ(b, object.content.substr(60'000, 100));
  // Backward.
  ASSERT_OK_AND_ASSIGN(std::string c, stream.Read(10, 100));
  EXPECT_EQ(c, object.content.substr(10, 100));
  // Forward but still inside the prefetched window: the in-flight
  // chunks for the skipped span are dropped, the rest stays valid.
  ASSERT_OK_AND_ASSIGN(std::string d, stream.Read(110 + 2 * 4096, 100));
  EXPECT_EQ(d, object.content.substr(110 + 2 * 4096, 100));
}

TEST(ReadAheadStreamTest, MidStreamErrorSurfacesExactlyOnceThenRecovers) {
  FakeObject object(64 * 1024);
  ThreadPool pool(8);
  object.fail_at_offset.store(5 * 4096);
  object.failures_left.store(1);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  std::string assembled;
  int errors = 0;
  while (assembled.size() < object.content.size()) {
    Result<std::string> data = stream.Read(assembled.size(), 3000);
    if (!data.ok()) {
      ++errors;
      continue;  // the stream re-seeds at the same position
    }
    ASSERT_FALSE(data->empty());
    assembled += *data;
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(assembled, object.content);
}

TEST(ReadAheadStreamTest, ShortFetchIsProtocolError) {
  FakeObject object(10'000);
  ThreadPool pool(4);
  // Lie about the size: the last chunk comes back short.
  ReadAheadStream stream(object.Fetcher(), &pool, Config(4096, 2, 12'000));
  Result<std::string> data = stream.Read(8192, 4000);
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kProtocolError);
}

TEST(ReadAheadStreamTest, InvalidateCancelsUnstartedFetches) {
  FakeObject object(1 << 20);
  // One worker: with a window of 8, chunks queue behind the first slow
  // fetch; Invalidate must stop them from ever touching the "network".
  ThreadPool pool(1);
  object.jitter_micros = 4000;
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 8, object.content.size()));
  ASSERT_OK_AND_ASSIGN(std::string head, stream.Read(0, 100));
  EXPECT_EQ(head, object.content.substr(0, 100));
  stream.Invalidate();
  EXPECT_EQ(stream.WindowSize(), 0u);
  pool.Shutdown();  // runs whatever was queued
  // 8 chunks were scheduled; the ones not yet started when Invalidate
  // ran were skipped (fetches well below the full window).
  EXPECT_LT(object.fetches.load(), 8);
  // The stream still works after an invalidation.
  ASSERT_OK_AND_ASSIGN(std::string again, stream.Read(100, 100));
  EXPECT_EQ(again, object.content.substr(100, 100));
}

TEST(ReadAheadStreamTest, DestructionWithInFlightFetchesIsSafe) {
  auto object = std::make_shared<FakeObject>(1 << 20);
  object->jitter_micros = 3000;
  ThreadPool pool(4);
  {
    // The fetcher holds the object alive via shared_ptr, mirroring how
    // DavPosix's fetch closure owns the DavFile.
    auto fetch = [object](uint64_t offset, uint64_t length) {
      return object->Fetcher()(offset, length);
    };
    ReadAheadStream stream(fetch, &pool,
                           Config(8192, 4, object->content.size()));
    ASSERT_OK_AND_ASSIGN(std::string head, stream.Read(0, 10));
    EXPECT_EQ(head, object->content.substr(0, 10));
    // Destroyed here with up to 3 fetches still in flight.
  }
  pool.Shutdown();
  SUCCEED();
}

TEST(ReadAheadStreamTest, ConsumerOnPoolThreadDoesNotDeadlock) {
  // The consumer itself runs on the only dispatcher thread, so the
  // chunk-fetch tasks it schedules are queued behind it. Without the
  // inline-claim fallback in WaitForChunk this deadlocks permanently.
  FakeObject object(40'000);
  object.jitter_micros = 0;
  ThreadPool pool(1);
  std::atomic<bool> correct{false};
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  ASSERT_TRUE(pool.Submit([&] {
    ReadAheadStream stream(object.Fetcher(), &pool,
                           Config(4096, 4, object.content.size()));
    std::string assembled;
    while (true) {
      Result<std::string> data = stream.Read(assembled.size(), 3000);
      if (!data.ok() || data->empty()) break;
      assembled += *data;
    }
    correct.store(assembled == object.content);
    // Notify while holding the lock: the waiter cannot observe
    // `finished`, return, and destroy the stack-allocated cv while
    // notify_all is still touching it.
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
    cv.notify_all();
  }));
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return finished; }));
  }
  pool.Shutdown();  // join the worker before cv/mu leave scope
  EXPECT_TRUE(correct.load());
}

TEST(ReadAheadStreamTest, CoversReportsWindowSpan) {
  FakeObject object(100'000);
  ThreadPool pool(4);
  ReadAheadStream stream(object.Fetcher(), &pool,
                         Config(4096, 4, object.content.size()));
  EXPECT_FALSE(stream.Covers(0));  // nothing scheduled yet
  ASSERT_OK(stream.Read(0, 100).status());
  // Window spans [0, 4 * 4096); position 100 was consumed but chunk 0
  // is still the front.
  EXPECT_TRUE(stream.Covers(100));
  EXPECT_TRUE(stream.Covers(4 * 4096 - 1));
  EXPECT_FALSE(stream.Covers(4 * 4096));
  stream.Invalidate();
  EXPECT_FALSE(stream.Covers(100));
}

TEST(ReadAheadStreamTest, NullPoolDegradesToSynchronousFetches) {
  FakeObject object(20'000);
  object.jitter_micros = 0;
  ReadAheadStream stream(object.Fetcher(), nullptr,
                         Config(4096, 4, object.content.size()));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string data, stream.Read(assembled.size(), 1500));
    if (data.empty()) break;
    assembled += data;
  }
  EXPECT_EQ(assembled, object.content);
}

TEST(ReadAheadStreamTest, ZeroWindowFetchesEachChunkInlineWhenCursorEntersIt) {
  // Window 0 is the synchronous mode: one chunk at a time, fetched on
  // the consumer thread only once the cursor reaches it; the pool never
  // sees a task.
  constexpr uint64_t kChunk = 4096;
  FakeObject object(40'000);
  object.jitter_micros = 0;
  ThreadPool pool(2);
  const std::thread::id consumer = std::this_thread::get_id();
  std::atomic<int> off_consumer{0};
  std::vector<uint64_t> offsets;  // appended on the consumer thread only
  ReadAheadFetchFn inner = object.Fetcher();
  ReadAheadStream stream(
      [&](uint64_t offset, uint64_t length) {
        if (std::this_thread::get_id() != consumer) {
          off_consumer.fetch_add(1);
        } else {
          offsets.push_back(offset);
        }
        return inner(offset, length);
      },
      &pool, Config(kChunk, 0, object.content.size()));
  std::string assembled;
  while (true) {
    ASSERT_OK_AND_ASSIGN(std::string data, stream.Read(assembled.size(), 700));
    if (data.empty()) break;
    assembled += data;
    // Exactly the chunks the cursor has entered are fetched, no more.
    EXPECT_EQ(static_cast<uint64_t>(object.fetches.load()),
              (assembled.size() + kChunk - 1) / kChunk);
  }
  EXPECT_EQ(assembled, object.content);
  const uint64_t chunks = (object.content.size() + kChunk - 1) / kChunk;
  EXPECT_EQ(static_cast<uint64_t>(object.fetches.load()), chunks);
  ASSERT_EQ(offsets.size(), chunks);
  for (uint64_t i = 0; i < chunks; ++i) EXPECT_EQ(offsets[i], i * kChunk);
  EXPECT_EQ(off_consumer.load(), 0);
  EXPECT_EQ(pool.tasks_submitted(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace davix
