#ifndef DAVIX_CORE_VECTOR_IO_H_
#define DAVIX_CORE_VECTOR_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "http/range.h"

namespace davix {
namespace core {

/// A wire-level range produced by coalescing one or more user ranges.
struct CoalescedRange {
  /// The range actually requested from the server.
  http::ByteRange range;
  /// Indices into the user's range vector that this wire range covers.
  std::vector<size_t> sources;
};

/// Plans the §2.3 vectored query: sorts the user's scattered ranges and
/// merges neighbours whose gap is at most `max_gap` bytes into single
/// wire ranges (the data-sieving idea: reading a small gap and throwing
/// it away is cheaper than another round trip). Overlapping and duplicate
/// user ranges are handled; zero-length ranges are skipped.
///
/// Invariants of the output (property-tested):
///  - wire ranges are sorted by offset and pairwise disjoint with gaps
///    strictly greater than `max_gap`,
///  - every non-empty user range is fully contained in exactly one wire
///    range (its entry appears in that range's `sources`),
///  - total wire bytes <= sum of user bytes + gap allowance.
std::vector<CoalescedRange> CoalesceRanges(
    const std::vector<http::ByteRange>& requested, uint64_t max_gap);

/// Re-splits oversized wire ranges for multi-stream dispatch: a coalesced
/// range longer than `max_chunk_bytes` is cut back into consecutive runs
/// of its source ranges, each run spanning at most `max_chunk_bytes`
/// (always at least one source per chunk, so a single huge user range is
/// never split — scatter slots are filled exactly once). Cuts land only
/// on source boundaries, preserving the CoalesceRanges containment
/// invariant. `max_chunk_bytes == 0` returns the input unchanged.
/// `requested` must be the same user vector the ranges were coalesced
/// from (source extents are re-read to place the cuts).
std::vector<CoalescedRange> SplitOversized(
    std::vector<CoalescedRange> coalesced,
    const std::vector<http::ByteRange>& requested, uint64_t max_chunk_bytes);

/// Splits the coalesced ranges into batches of at most `max_per_batch`
/// wire ranges — one batch becomes one HTTP multi-range request. When
/// `max_bytes_per_batch` > 0 a batch is also closed once it reaches that
/// many wire bytes (a batch always takes at least one range), so chunked
/// vectors dispatch as several concurrent wire requests.
std::vector<std::vector<CoalescedRange>> SplitBatches(
    std::vector<CoalescedRange> coalesced, size_t max_per_batch,
    uint64_t max_bytes_per_batch = 0);

/// Re-batches the wire ranges of `batches` (kept in order) into at most
/// `width` byte-balanced batches, for when only `width` executors can
/// run a dispatch at once: batches that would queue on one executor go
/// out as one multi-range request instead of back to back. A batch
/// still never holds more than `max_per_batch` wire ranges, so more
/// than `width` batches come back when that cap binds.
std::vector<std::vector<CoalescedRange>> MergeBatches(
    std::vector<std::vector<CoalescedRange>> batches, size_t width,
    size_t max_per_batch);

/// Copies the bytes of one fetched wire range into the user result slots
/// it covers. `data` must be exactly `wire.range.length` bytes.
///
/// Slots already sized to their user range length are written in place —
/// no allocation — which is what lets the parallel dispatcher preallocate
/// every slot once and have concurrent batch workers scatter straight
/// into them (each user range belongs to exactly one wire range, so no
/// two workers touch the same slot). Differently-sized slots are resized
/// first.
Status ScatterWireRange(const CoalescedRange& wire, std::string_view data,
                        const std::vector<http::ByteRange>& requested,
                        std::vector<std::string>* results);

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_VECTOR_IO_H_
