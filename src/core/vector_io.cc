#include "core/vector_io.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace davix {
namespace core {

std::vector<CoalescedRange> CoalesceRanges(
    const std::vector<http::ByteRange>& requested, uint64_t max_gap) {
  // Order user ranges by offset, remembering their original indices.
  std::vector<size_t> order(requested.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (requested[a].offset != requested[b].offset) {
      return requested[a].offset < requested[b].offset;
    }
    return requested[a].length < requested[b].length;
  });

  std::vector<CoalescedRange> out;
  for (size_t idx : order) {
    const http::ByteRange& r = requested[idx];
    if (r.length == 0) continue;
    if (!out.empty()) {
      CoalescedRange& last = out.back();
      uint64_t last_end = last.range.offset + last.range.length;  // exclusive
      // Merge when the new range starts within (or overlapping) the
      // current wire range extended by the permitted gap.
      if (r.offset <= last_end + max_gap) {
        uint64_t new_end = std::max(last_end, r.offset + r.length);
        last.range.length = new_end - last.range.offset;
        last.sources.push_back(idx);
        continue;
      }
    }
    CoalescedRange wire;
    wire.range = r;
    wire.sources.push_back(idx);
    out.push_back(std::move(wire));
  }
  return out;
}

std::vector<CoalescedRange> SplitOversized(
    std::vector<CoalescedRange> coalesced,
    const std::vector<http::ByteRange>& requested, uint64_t max_chunk_bytes) {
  if (max_chunk_bytes == 0) return coalesced;
  std::vector<CoalescedRange> out;
  out.reserve(coalesced.size());
  for (CoalescedRange& wire : coalesced) {
    if (wire.range.length <= max_chunk_bytes || wire.sources.size() < 2) {
      out.push_back(std::move(wire));
      continue;
    }
    // Sources were appended in offset order by CoalesceRanges; walk them
    // into consecutive runs. A chunk's wire range spans from its first
    // source's offset to the furthest source end seen, so every source
    // stays fully contained in exactly one chunk (overlapping sources may
    // make adjacent chunks overlap on the wire; scatter stays correct).
    CoalescedRange chunk;
    uint64_t chunk_end = 0;
    for (size_t idx : wire.sources) {
      const http::ByteRange& user = requested[idx];
      uint64_t user_end = user.offset + user.length;
      if (!chunk.sources.empty() &&
          std::max(chunk_end, user_end) - chunk.range.offset >
              max_chunk_bytes) {
        chunk.range.length = chunk_end - chunk.range.offset;
        out.push_back(std::move(chunk));
        chunk = CoalescedRange{};
      }
      if (chunk.sources.empty()) {
        chunk.range.offset = user.offset;
        chunk_end = user_end;
      } else {
        chunk_end = std::max(chunk_end, user_end);
      }
      chunk.sources.push_back(idx);
    }
    chunk.range.length = chunk_end - chunk.range.offset;
    out.push_back(std::move(chunk));
  }
  return out;
}

std::vector<std::vector<CoalescedRange>> SplitBatches(
    std::vector<CoalescedRange> coalesced, size_t max_per_batch,
    uint64_t max_bytes_per_batch) {
  if (max_per_batch == 0) max_per_batch = 1;
  std::vector<std::vector<CoalescedRange>> batches;
  std::vector<CoalescedRange> current;
  uint64_t current_bytes = 0;
  current.reserve(std::min(coalesced.size(), max_per_batch));
  for (CoalescedRange& wire : coalesced) {
    current_bytes += wire.range.length;
    current.push_back(std::move(wire));
    if (current.size() == max_per_batch ||
        (max_bytes_per_batch > 0 && current_bytes >= max_bytes_per_batch)) {
      batches.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
    }
  }
  if (!current.empty()) batches.push_back(std::move(current));
  return batches;
}

std::vector<std::vector<CoalescedRange>> MergeBatches(
    std::vector<std::vector<CoalescedRange>> batches, size_t width,
    size_t max_per_batch) {
  if (width == 0) width = 1;
  if (max_per_batch == 0) max_per_batch = 1;
  uint64_t total = 0;
  for (const auto& batch : batches) {
    for (const CoalescedRange& wire : batch) total += wire.range.length;
  }
  // Each wire range goes to the slot its byte midpoint falls in, with
  // `width` equal slots over the total: slots never decrease along the
  // ranges and stay below `width`, so at most `width` batches.
  const uint64_t slot_bytes =
      std::max<uint64_t>(1, (total + width - 1) / width);
  std::vector<std::vector<CoalescedRange>> merged;
  uint64_t current_slot = 0;
  uint64_t before = 0;
  for (auto& batch : batches) {
    for (CoalescedRange& wire : batch) {
      uint64_t slot = (before + wire.range.length / 2) / slot_bytes;
      before += wire.range.length;
      if (merged.empty() || slot != current_slot ||
          merged.back().size() >= max_per_batch) {
        merged.emplace_back();
        current_slot = slot;
      }
      merged.back().push_back(std::move(wire));
    }
  }
  return merged;
}

Status ScatterWireRange(const CoalescedRange& wire, std::string_view data,
                        const std::vector<http::ByteRange>& requested,
                        std::vector<std::string>* results) {
  if (data.size() != wire.range.length) {
    return Status::ProtocolError(
        "wire range data size mismatch: got " + std::to_string(data.size()) +
        " want " + std::to_string(wire.range.length));
  }
  for (size_t idx : wire.sources) {
    if (idx >= requested.size()) {
      return Status::Internal("scatter index out of bounds");
    }
    const http::ByteRange& user = requested[idx];
    if (user.offset < wire.range.offset ||
        user.offset + user.length > wire.range.offset + wire.range.length) {
      return Status::Internal("user range not contained in wire range");
    }
    std::string& slot = (*results)[idx];
    if (slot.size() != user.length) slot.resize(user.length);
    if (user.length > 0) {
      std::memcpy(slot.data(), data.data() + (user.offset - wire.range.offset),
                  user.length);
    }
  }
  return Status::OK();
}

}  // namespace core
}  // namespace davix
