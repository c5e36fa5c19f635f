#include "root/tree_format.h"

#include <cstring>

#include "common/bytes.h"

namespace davix {
namespace root {
namespace {

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  return z ^ (z >> 31);
}

}  // namespace

TreeSpec TreeSpec::Default() {
  TreeSpec spec;
  spec.n_events = 12000;
  spec.events_per_basket = 250;
  spec.codec = compress::CodecType::kDlz;
  spec.branches = {
      {"event_id", 8}, {"pt", 4},        {"eta", 4},
      {"phi", 4},      {"energy", 4},    {"charge", 1},
      {"n_tracks", 2}, {"cells", 2048},  // calorimeter blob dominates
  };
  return spec;
}

uint64_t TreeSpec::BytesPerEvent() const {
  uint64_t total = 0;
  for (const BranchSpec& branch : branches) total += branch.bytes_per_event;
  return total;
}

uint64_t TreeSpec::BasketCountPerBranch() const {
  if (events_per_basket == 0) return 0;
  return (n_events + events_per_basket - 1) / events_per_basket;
}

std::string SyntheticEventBytes(const TreeSpec& spec, size_t branch,
                                uint64_t event, uint64_t seed) {
  const BranchSpec& b = spec.branches[branch];
  Rng rng(Mix(seed, Mix(branch + 1, event + 1)));
  std::string out;
  out.resize(b.bytes_per_event);
  for (uint32_t i = 0; i < b.bytes_per_event; ++i) {
    // Physics-ish payload: runs of zeros (sparse calorimeter cells)
    // interleaved with low-entropy quantized values, so the codecs see
    // realistic compressibility.
    if ((i + event) % 4 < 2) {
      out[i] = 0;
    } else {
      out[i] = static_cast<char>('A' + rng.Below(23));
    }
  }
  return out;
}

std::string BuildTreeFile(const TreeSpec& spec, uint64_t seed) {
  const uint64_t n_baskets = spec.BasketCountPerBranch();
  const size_t n_branches = spec.branches.size();

  // Compress every basket first so offsets can be laid out.
  // blobs[branch][basket]
  std::vector<std::vector<std::string>> blobs(n_branches);
  for (size_t b = 0; b < n_branches; ++b) {
    blobs[b].resize(n_baskets);
    for (uint64_t k = 0; k < n_baskets; ++k) {
      uint64_t first = k * spec.events_per_basket;
      uint64_t last = std::min<uint64_t>(first + spec.events_per_basket,
                                         spec.n_events);
      std::string raw;
      raw.reserve((last - first) * spec.branches[b].bytes_per_event);
      for (uint64_t e = first; e < last; ++e) {
        raw += SyntheticEventBytes(spec, b, e, seed);
      }
      blobs[b][k] = compress::Compress(spec.codec, raw);
    }
  }

  // Region sizes.
  size_t branch_table_size = 0;
  for (const BranchSpec& branch : spec.branches) {
    branch_table_size += 2 + branch.name.size() + 4;
  }
  size_t index_size = n_branches * n_baskets * 16;
  uint64_t data_begin = kTreeHeaderSize + branch_table_size + index_size;

  // Cluster-major blob layout: all branches' basket k, then k+1 — the
  // ROOT cluster layout that turns an event-range read into a set of
  // nearby scattered ranges.
  std::vector<std::vector<BasketInfo>> index(
      n_branches, std::vector<BasketInfo>(n_baskets));
  uint64_t cursor = data_begin;
  for (uint64_t k = 0; k < n_baskets; ++k) {
    for (size_t b = 0; b < n_branches; ++b) {
      BasketInfo& info = index[b][k];
      info.offset = cursor;
      info.stored_length = static_cast<uint32_t>(blobs[b][k].size());
      uint64_t first = k * spec.events_per_basket;
      uint64_t last = std::min<uint64_t>(first + spec.events_per_basket,
                                         spec.n_events);
      info.raw_length = static_cast<uint32_t>(
          (last - first) * spec.branches[b].bytes_per_event);
      cursor += info.stored_length;
    }
  }
  uint64_t file_size = cursor;

  std::string out;
  out.reserve(file_size);
  out.append(kTreeMagic, sizeof(kTreeMagic));
  PutU32(&out, 1);  // version
  PutU64(&out, spec.n_events);
  PutU32(&out, spec.events_per_basket);
  out.push_back(static_cast<char>(spec.codec));
  PutU32(&out, static_cast<uint32_t>(n_branches));
  PutU64(&out, file_size);
  PutU64(&out, data_begin);

  for (const BranchSpec& branch : spec.branches) {
    PutU16(&out, static_cast<uint16_t>(branch.name.size()));
    out += branch.name;
    PutU32(&out, branch.bytes_per_event);
  }
  for (size_t b = 0; b < n_branches; ++b) {
    for (uint64_t k = 0; k < n_baskets; ++k) {
      PutU64(&out, index[b][k].offset);
      PutU32(&out, index[b][k].stored_length);
      PutU32(&out, index[b][k].raw_length);
    }
  }
  for (uint64_t k = 0; k < n_baskets; ++k) {
    for (size_t b = 0; b < n_branches; ++b) {
      out += blobs[b][k];
    }
  }
  return out;
}

Result<uint64_t> TreeIndexRegionSize(std::string_view header) {
  if (header.size() < kTreeHeaderSize) {
    return Status::InvalidArgument("tree header needs " +
                                   std::to_string(kTreeHeaderSize) + " bytes");
  }
  if (std::memcmp(header.data(), kTreeMagic, sizeof(kTreeMagic)) != 0) {
    return Status::Corruption("bad tree file magic");
  }
  return GetU64(header.data() + 33);
}

Result<TreeIndex> ParseTreeIndex(std::string_view head) {
  DAVIX_ASSIGN_OR_RETURN(uint64_t data_begin, TreeIndexRegionSize(head));
  if (head.size() < data_begin) {
    return Status::InvalidArgument("tree index region needs " +
                                   std::to_string(data_begin) + " bytes");
  }
  TreeIndex index;
  const char* p = head.data();
  uint32_t version = GetU32(p + 4);
  if (version != 1) {
    return Status::Corruption("unsupported tree version " +
                              std::to_string(version));
  }
  index.spec.n_events = GetU64(p + 8);
  index.spec.events_per_basket = GetU32(p + 16);
  uint8_t codec_byte = static_cast<uint8_t>(p[20]);
  if (codec_byte > static_cast<uint8_t>(compress::CodecType::kDlz)) {
    return Status::Corruption("bad codec byte in tree header");
  }
  index.spec.codec = static_cast<compress::CodecType>(codec_byte);
  uint32_t n_branches = GetU32(p + 21);
  index.file_size = GetU64(p + 25);
  index.data_begin = data_begin;
  if (index.spec.events_per_basket == 0 || n_branches == 0 ||
      n_branches > 4096) {
    return Status::Corruption("implausible tree header fields");
  }

  size_t pos = kTreeHeaderSize;
  for (uint32_t b = 0; b < n_branches; ++b) {
    if (pos + 2 > head.size()) return Status::Corruption("truncated branch table");
    uint16_t name_len = GetU16(head.data() + pos);
    pos += 2;
    if (pos + name_len + 4 > head.size()) {
      return Status::Corruption("truncated branch entry");
    }
    BranchSpec branch;
    branch.name = std::string(head.substr(pos, name_len));
    pos += name_len;
    branch.bytes_per_event = GetU32(head.data() + pos);
    pos += 4;
    index.spec.branches.push_back(std::move(branch));
  }

  uint64_t n_baskets = index.spec.BasketCountPerBranch();
  // BasketCountPerBranch rounds up via `n_events + events_per_basket - 1`,
  // which wraps for a near-2^64 declared event count and would make a
  // nonsense header look like an empty (zero-basket) index.
  if (index.spec.n_events != 0 && n_baskets == 0) {
    return Status::Corruption("tree event count overflows basket count");
  }
  // Every basket record must actually be present in the region before
  // anything is allocated for it — an oversized n_events would otherwise
  // drive a huge .assign() off 16 attacker-controlled header bytes.
  // Division keeps the capacity math overflow-free.
  uint64_t record_capacity = (head.size() - pos) / 16 / n_branches;
  if (n_baskets > record_capacity) {
    return Status::Corruption("basket index larger than tree index region");
  }
  index.baskets.assign(n_branches, std::vector<BasketInfo>(n_baskets));
  for (uint32_t b = 0; b < n_branches; ++b) {
    for (uint64_t k = 0; k < n_baskets; ++k) {
      if (pos + 16 > head.size()) {
        return Status::Corruption("truncated basket index");
      }
      BasketInfo& info = index.baskets[b][k];
      info.offset = GetU64(head.data() + pos);
      info.stored_length = GetU32(head.data() + pos + 8);
      info.raw_length = GetU32(head.data() + pos + 12);
      pos += 16;
      // Subtraction form: `offset + stored_length` could wrap uint64 and
      // sneak an out-of-file basket past the bound check.
      if (info.offset < data_begin || info.offset > index.file_size ||
          info.stored_length > index.file_size - info.offset) {
        return Status::Corruption("basket outside file bounds");
      }
    }
  }
  return index;
}

}  // namespace root
}  // namespace davix
