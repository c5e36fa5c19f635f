#include <algorithm>

#include "common/rng.h"
#include "core/vector_io.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace core {
namespace {

using http::ByteRange;

TEST(CoalesceTest, EmptyInput) {
  EXPECT_TRUE(CoalesceRanges({}, 0).empty());
}

TEST(CoalesceTest, SingleRangePassesThrough) {
  auto out = CoalesceRanges({{100, 50}}, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].range, (ByteRange{100, 50}));
  EXPECT_EQ(out[0].sources, std::vector<size_t>{0});
}

TEST(CoalesceTest, AdjacentRangesMergeWithZeroGap) {
  auto out = CoalesceRanges({{0, 10}, {10, 10}}, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].range, (ByteRange{0, 20}));
}

TEST(CoalesceTest, GapRespected) {
  // 5-byte gap: merged when max_gap >= 5, separate when smaller.
  auto merged = CoalesceRanges({{0, 10}, {15, 10}}, 5);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].range, (ByteRange{0, 25}));

  auto split = CoalesceRanges({{0, 10}, {15, 10}}, 4);
  ASSERT_EQ(split.size(), 2u);
}

TEST(CoalesceTest, UnsortedAndOverlappingInputs) {
  auto out = CoalesceRanges({{50, 30}, {0, 10}, {60, 40}, {5, 10}}, 0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].range, (ByteRange{0, 15}));
  EXPECT_EQ(out[1].range, (ByteRange{50, 50}));
  // All four sources accounted for.
  size_t total_sources = out[0].sources.size() + out[1].sources.size();
  EXPECT_EQ(total_sources, 4u);
}

TEST(CoalesceTest, ZeroLengthRangesSkipped) {
  auto out = CoalesceRanges({{10, 0}, {20, 5}}, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sources, std::vector<size_t>{1});
}

TEST(CoalesceTest, DuplicateRangesShareWireRange) {
  auto out = CoalesceRanges({{7, 3}, {7, 3}, {7, 3}}, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sources.size(), 3u);
}

TEST(SplitBatchesTest, RespectsCap) {
  std::vector<CoalescedRange> wire(10);
  for (size_t i = 0; i < wire.size(); ++i) {
    wire[i].range = {i * 100, 10};
  }
  auto batches = SplitBatches(wire, 4);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4u);
  EXPECT_EQ(batches[1].size(), 4u);
  EXPECT_EQ(batches[2].size(), 2u);
}

TEST(SplitBatchesTest, ZeroCapActsAsOne) {
  std::vector<CoalescedRange> wire(3);
  EXPECT_EQ(SplitBatches(wire, 0).size(), 3u);
}

TEST(SplitBatchesTest, ByteCapClosesBatches) {
  // Five 100-byte wire ranges, 250-byte cap: batches close at >= 250
  // bytes, so [3, 2] — the count cap alone (10) would keep all five
  // together.
  std::vector<CoalescedRange> wire(5);
  for (size_t i = 0; i < wire.size(); ++i) {
    wire[i].range = {i * 1000, 100};
  }
  auto batches = SplitBatches(wire, 10, 250);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[1].size(), 2u);
}

TEST(SplitBatchesTest, ByteCapTakesAtLeastOneRange) {
  // A single wire range larger than the cap still forms a batch.
  std::vector<CoalescedRange> wire(3);
  for (size_t i = 0; i < wire.size(); ++i) {
    wire[i].range = {i * 1000, 500};
  }
  auto batches = SplitBatches(wire, 10, 100);
  ASSERT_EQ(batches.size(), 3u);
  for (const auto& batch : batches) EXPECT_EQ(batch.size(), 1u);
}

std::vector<std::vector<CoalescedRange>> EqualBatches(size_t n_batches,
                                                      size_t per_batch,
                                                      uint64_t length) {
  std::vector<std::vector<CoalescedRange>> batches(n_batches);
  uint64_t offset = 0;
  for (auto& batch : batches) {
    batch.resize(per_batch);
    for (CoalescedRange& wire : batch) {
      wire.range = {offset, length};
      offset += 2 * length;
    }
  }
  return batches;
}

TEST(MergeBatchesTest, WidthOneIsOneBatch) {
  auto merged = MergeBatches(EqualBatches(4, 8, 100), 1, 64);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].size(), 32u);
}

TEST(MergeBatchesTest, BalancesBytesOverWidth) {
  // Six 100-byte ranges over four executors: four batches, none holding
  // more than two ranges.
  auto merged = MergeBatches(EqualBatches(6, 1, 100), 4, 64);
  ASSERT_EQ(merged.size(), 4u);
  for (const auto& batch : merged) {
    EXPECT_GE(batch.size(), 1u);
    EXPECT_LE(batch.size(), 2u);
  }
}

TEST(MergeBatchesTest, RangeCapStillBinds) {
  // 100 ranges merged for one executor still go out as requests of at
  // most 64 ranges.
  auto merged = MergeBatches(EqualBatches(25, 4, 1000), 1, 64);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].size(), 64u);
  EXPECT_EQ(merged[1].size(), 36u);
}

TEST(MergeBatchesTest, PropertyOrderKeptWidthRespected) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n_batches = 1 + rng.Below(12);
    std::vector<std::vector<CoalescedRange>> batches(n_batches);
    std::vector<ByteRange> flat;
    uint64_t offset = 0;
    for (auto& batch : batches) {
      batch.resize(1 + rng.Below(10));
      for (CoalescedRange& wire : batch) {
        wire.range = {offset, 1 + rng.Below(5000)};
        offset += wire.range.length + 1;
        flat.push_back(wire.range);
      }
    }
    size_t width = 1 + rng.Below(6);
    size_t cap = 1 + rng.Below(16);
    auto merged = MergeBatches(batches, width, cap);
    std::vector<ByteRange> out;
    for (const auto& batch : merged) {
      ASSERT_FALSE(batch.empty());
      ASSERT_LE(batch.size(), cap);
      for (const CoalescedRange& wire : batch) out.push_back(wire.range);
    }
    ASSERT_EQ(out, flat);  // every wire range once, in order
    // Each of the `width` byte slots splits once per `cap` ranges.
    ASSERT_LE(merged.size(), width + flat.size() / cap) << "trial " << trial;
    if (cap >= flat.size()) {
      ASSERT_LE(merged.size(), width);
    }
  }
}

TEST(SplitOversizedTest, ZeroChunkBytesPassesThrough) {
  auto wire = CoalesceRanges({{0, 100}, {100, 100}}, 0);
  ASSERT_EQ(wire.size(), 1u);
  auto out = SplitOversized(wire, {{0, 100}, {100, 100}}, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].range, (ByteRange{0, 200}));
}

TEST(SplitOversizedTest, CutsOnSourceBoundaries) {
  // Four adjacent 100-byte user ranges coalesce to one 400-byte wire
  // range; a 200-byte chunk limit cuts it into two chunks of two
  // sources each, at the user-range boundary.
  std::vector<ByteRange> requested = {{0, 100}, {100, 100}, {200, 100},
                                      {300, 100}};
  auto wire = CoalesceRanges(requested, 0);
  ASSERT_EQ(wire.size(), 1u);
  auto out = SplitOversized(std::move(wire), requested, 200);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].range, (ByteRange{0, 200}));
  EXPECT_EQ(out[1].range, (ByteRange{200, 200}));
  EXPECT_EQ(out[0].sources, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(out[1].sources, (std::vector<size_t>{2, 3}));
}

TEST(SplitOversizedTest, SingleHugeSourceNeverSplit) {
  // One user range larger than the chunk limit must stay whole: its
  // scatter slot is filled exactly once.
  std::vector<ByteRange> requested = {{0, 1000}};
  auto wire = CoalesceRanges(requested, 0);
  auto out = SplitOversized(std::move(wire), requested, 64);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].range, (ByteRange{0, 1000}));
}

TEST(SplitOversizedTest, OversizedSourceInRunGetsOwnChunk) {
  // small + huge + small: the huge middle source exceeds the limit on
  // its own, so it lands in its own chunk and the smalls split around it.
  std::vector<ByteRange> requested = {{0, 50}, {50, 500}, {550, 50}};
  auto wire = CoalesceRanges(requested, 0);
  ASSERT_EQ(wire.size(), 1u);
  auto out = SplitOversized(std::move(wire), requested, 100);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].range, (ByteRange{0, 50}));
  EXPECT_EQ(out[1].range, (ByteRange{50, 500}));
  EXPECT_EQ(out[2].range, (ByteRange{550, 50}));
}

// Property: splitting preserves the coalescing containment invariant and
// scatter still reconstructs every user byte, over random workloads.
class SplitOversizedPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SplitOversizedPropertyTest, ContainmentAndScatterSurvive) {
  Rng rng(GetParam());
  std::string resource = rng.Bytes(1 << 16);
  size_t n = 1 + rng.Below(80);
  std::vector<ByteRange> requested;
  for (size_t i = 0; i < n; ++i) {
    uint64_t offset = rng.Below(resource.size() - 1);
    uint64_t length = 1 + rng.Below(2048);
    length = std::min<uint64_t>(length, resource.size() - offset);
    requested.push_back(ByteRange{offset, length});
  }
  uint64_t max_gap = rng.Below(512);
  uint64_t max_chunk = 1 + rng.Below(4096);
  auto wire = SplitOversized(CoalesceRanges(requested, max_gap), requested,
                             max_chunk);

  // Every user range contained in exactly one chunk; multi-source chunks
  // respect the byte limit.
  std::vector<int> covered(requested.size(), 0);
  for (const CoalescedRange& w : wire) {
    ASSERT_FALSE(w.sources.empty());
    if (w.sources.size() >= 2) {
      EXPECT_LE(w.range.length, max_chunk);
    }
    for (size_t idx : w.sources) {
      ++covered[idx];
      EXPECT_GE(requested[idx].offset, w.range.offset);
      EXPECT_LE(requested[idx].offset + requested[idx].length,
                w.range.offset + w.range.length);
    }
  }
  for (size_t i = 0; i < requested.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "index " << i;
  }

  // Scatter through the chunked plan reconstructs the user bytes.
  std::vector<std::string> results(requested.size());
  for (const CoalescedRange& w : wire) {
    ASSERT_OK(ScatterWireRange(
        w, std::string_view(resource).substr(w.range.offset, w.range.length),
        requested, &results));
  }
  for (size_t i = 0; i < requested.size(); ++i) {
    EXPECT_EQ(results[i], resource.substr(requested[i].offset,
                                          requested[i].length));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitOversizedPropertyTest,
                         ::testing::Range<uint64_t>(1, 49));

TEST(ScatterTest, FillsUserSlots) {
  std::vector<ByteRange> requested = {{10, 5}, {20, 5}};
  auto wire_ranges = CoalesceRanges(requested, 100);
  ASSERT_EQ(wire_ranges.size(), 1u);
  // Wire range covers [10, 25): 15 bytes.
  std::string data = "ABCDEFGHIJKLMNO";
  std::vector<std::string> results(2);
  ASSERT_OK(ScatterWireRange(wire_ranges[0], data, requested, &results));
  EXPECT_EQ(results[0], "ABCDE");
  EXPECT_EQ(results[1], "KLMNO");
}

TEST(ScatterTest, SizeMismatchRejected) {
  std::vector<ByteRange> requested = {{0, 5}};
  auto wire = CoalesceRanges(requested, 0);
  std::vector<std::string> results(1);
  EXPECT_FALSE(ScatterWireRange(wire[0], "toolongdata", requested, &results)
                   .ok());
}

// Property suite: coalescing invariants over random workloads.
class CoalescePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescePropertyTest, Invariants) {
  Rng rng(GetParam());
  uint64_t max_gap = rng.Below(4096);
  size_t n = 1 + rng.Below(200);
  std::vector<ByteRange> requested;
  for (size_t i = 0; i < n; ++i) {
    requested.push_back(
        ByteRange{rng.Below(1 << 20), rng.Below(2048)});  // may be empty
  }
  auto wire = CoalesceRanges(requested, max_gap);

  // (1) Sorted, disjoint, gaps > max_gap.
  for (size_t i = 1; i < wire.size(); ++i) {
    uint64_t prev_end = wire[i - 1].range.offset + wire[i - 1].range.length;
    EXPECT_GT(wire[i].range.offset, prev_end + max_gap);
  }

  // (2) Every non-empty user range is covered by exactly one wire range.
  std::vector<int> covered(requested.size(), 0);
  for (const CoalescedRange& w : wire) {
    for (size_t idx : w.sources) {
      ++covered[idx];
      EXPECT_GE(requested[idx].offset, w.range.offset);
      EXPECT_LE(requested[idx].offset + requested[idx].length,
                w.range.offset + w.range.length);
    }
  }
  for (size_t i = 0; i < requested.size(); ++i) {
    EXPECT_EQ(covered[i], requested[i].length == 0 ? 0 : 1) << "index " << i;
  }

  // (3) Wire bytes bounded by user bytes + permitted gap waste.
  uint64_t wire_bytes = 0;
  for (const CoalescedRange& w : wire) wire_bytes += w.range.length;
  uint64_t user_bytes = 0;
  for (const ByteRange& r : requested) user_bytes += r.length;
  uint64_t gap_allowance = wire.empty() ? 0 : (n - 1) * max_gap;
  EXPECT_LE(wire_bytes, user_bytes + gap_allowance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescePropertyTest,
                         ::testing::Range<uint64_t>(1, 65));

// Property: scatter reconstructs exactly the user bytes from a synthetic
// resource, over random plans.
class ScatterPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScatterPropertyTest, ReconstructsUserBytes) {
  Rng rng(GetParam());
  std::string resource = rng.Bytes(1 << 16);
  size_t n = 1 + rng.Below(50);
  std::vector<ByteRange> requested;
  for (size_t i = 0; i < n; ++i) {
    uint64_t offset = rng.Below(resource.size() - 1);
    uint64_t length = 1 + rng.Below(resource.size() - offset);
    requested.push_back(ByteRange{offset, length});
  }
  uint64_t max_gap = rng.Below(1024);
  auto wire = CoalesceRanges(requested, max_gap);
  std::vector<std::string> results(requested.size());
  for (const CoalescedRange& w : wire) {
    ASSERT_OK(ScatterWireRange(
        w, std::string_view(resource).substr(w.range.offset, w.range.length),
        requested, &results));
  }
  for (size_t i = 0; i < requested.size(); ++i) {
    EXPECT_EQ(results[i], resource.substr(requested[i].offset,
                                          requested[i].length));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterPropertyTest,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace core
}  // namespace davix
