#include "compress/codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"

namespace davix {
namespace compress {
namespace {

constexpr char kMagic[4] = {'D', 'V', 'C', '1'};

// ---------------------------------------------------------------- RLE --

/// Token stream: control byte c.
///   c < 0x80: copy (c + 1) literal bytes that follow.
///   c >= 0x80: repeat the next byte (c - 0x80 + 2) times (run 2..129).
std::string RleEncode(std::string_view data) {
  std::string out;
  out.reserve(data.size() / 2 + 16);
  size_t i = 0;
  while (i < data.size()) {
    // Measure the run at i.
    size_t run = 1;
    while (i + run < data.size() && data[i + run] == data[i] && run < 129) {
      ++run;
    }
    if (run >= 2) {
      out.push_back(static_cast<char>(0x80 + run - 2));
      out.push_back(data[i]);
      i += run;
      continue;
    }
    // Literal stretch: until the next run of >= 3 or 128 bytes.
    size_t start = i;
    while (i < data.size() && i - start < 128) {
      size_t lookahead = 1;
      while (i + lookahead < data.size() && data[i + lookahead] == data[i] &&
             lookahead < 3) {
        ++lookahead;
      }
      if (lookahead >= 3) break;
      ++i;
    }
    size_t len = i - start;
    out.push_back(static_cast<char>(len - 1));
    out.append(data.substr(start, len));
  }
  return out;
}

Result<std::string> RleDecode(std::string_view payload, uint64_t orig_size) {
  std::string out;
  out.reserve(orig_size);
  size_t i = 0;
  while (i < payload.size()) {
    unsigned char c = static_cast<unsigned char>(payload[i++]);
    if (c < 0x80) {
      size_t len = c + 1;
      if (i + len > payload.size()) {
        return Status::Corruption("RLE literal overruns payload");
      }
      out.append(payload.substr(i, len));
      i += len;
    } else {
      if (i >= payload.size()) {
        return Status::Corruption("RLE run missing byte");
      }
      size_t run = c - 0x80 + 2;
      out.append(run, payload[i++]);
    }
    if (out.size() > orig_size) {
      return Status::Corruption("RLE output exceeds declared size");
    }
  }
  return out;
}

// ---------------------------------------------------------------- DLZ --

constexpr size_t kWindowSize = 64 * 1024 - 1;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 131;  // 4 + 127
constexpr size_t kHashBits = 15;

uint32_t HashFour(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Token stream: control byte c.
///   c < 0x80: literal run of (c + 1) bytes following.
///   c >= 0x80: match of length (c - 0x80 + kMinMatch), followed by a
///   2-byte little-endian back distance (1..65535).
std::string DlzEncode(std::string_view data) {
  std::string out;
  out.reserve(data.size() / 2 + 16);
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);

  size_t i = 0;
  size_t literal_start = 0;
  auto flush_literals = [&](size_t end) {
    size_t pos = literal_start;
    while (pos < end) {
      size_t len = std::min<size_t>(128, end - pos);
      out.push_back(static_cast<char>(len - 1));
      out.append(data.substr(pos, len));
      pos += len;
    }
  };

  while (i + kMinMatch <= data.size()) {
    uint32_t h = HashFour(data.data() + i);
    int64_t candidate = head[h];
    head[h] = static_cast<int64_t>(i);

    size_t match_len = 0;
    if (candidate >= 0 &&
        i - static_cast<size_t>(candidate) <= kWindowSize) {
      const char* a = data.data() + candidate;
      const char* b = data.data() + i;
      size_t limit = std::min(kMaxMatch, data.size() - i);
      while (match_len < limit && a[match_len] == b[match_len]) ++match_len;
    }

    if (match_len >= kMinMatch) {
      flush_literals(i);
      uint16_t distance = static_cast<uint16_t>(i - candidate);
      out.push_back(static_cast<char>(0x80 + (match_len - kMinMatch)));
      out.push_back(static_cast<char>(distance & 0xFF));
      out.push_back(static_cast<char>(distance >> 8));
      // Insert hash entries inside the match so later data can refer back.
      size_t insert_end = std::min(i + match_len, data.size() - kMinMatch + 1);
      for (size_t j = i + 1; j < insert_end; ++j) {
        head[HashFour(data.data() + j)] = static_cast<int64_t>(j);
      }
      i += match_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(data.size());
  return out;
}

Result<std::string> DlzDecode(std::string_view payload, uint64_t orig_size) {
  std::string out;
  out.reserve(orig_size);
  size_t i = 0;
  while (i < payload.size()) {
    unsigned char c = static_cast<unsigned char>(payload[i++]);
    if (c < 0x80) {
      size_t len = c + 1;
      if (i + len > payload.size()) {
        return Status::Corruption("DLZ literal overruns payload");
      }
      out.append(payload.substr(i, len));
      i += len;
    } else {
      size_t len = (c - 0x80) + kMinMatch;
      if (i + 2 > payload.size()) {
        return Status::Corruption("DLZ match missing distance");
      }
      uint16_t distance =
          static_cast<uint16_t>(static_cast<unsigned char>(payload[i])) |
          static_cast<uint16_t>(static_cast<unsigned char>(payload[i + 1]))
              << 8;
      i += 2;
      if (distance == 0 || distance > out.size()) {
        return Status::Corruption("DLZ match distance out of window");
      }
      // Byte-by-byte copy: matches may overlap themselves.
      size_t src = out.size() - distance;
      for (size_t k = 0; k < len; ++k) out.push_back(out[src + k]);
    }
    if (out.size() > orig_size) {
      return Status::Corruption("DLZ output exceeds declared size");
    }
  }
  return out;
}

}  // namespace

std::string_view CodecName(CodecType type) {
  switch (type) {
    case CodecType::kNone:
      return "none";
    case CodecType::kRle:
      return "rle";
    case CodecType::kDlz:
      return "dlz";
  }
  return "none";
}

Result<CodecType> ParseCodecName(std::string_view name) {
  if (name == "none") return CodecType::kNone;
  if (name == "rle") return CodecType::kRle;
  if (name == "dlz") return CodecType::kDlz;
  return Status::InvalidArgument("unknown codec: " + std::string(name));
}

std::string Compress(CodecType type, std::string_view data) {
  std::string payload;
  switch (type) {
    case CodecType::kNone:
      payload = std::string(data);
      break;
    case CodecType::kRle:
      payload = RleEncode(data);
      break;
    case CodecType::kDlz:
      payload = DlzEncode(data);
      break;
  }
  // Store uncompressed if the codec failed to shrink the block, like
  // real storage formats do. The codec byte records what we stored.
  if (type != CodecType::kNone && payload.size() >= data.size()) {
    payload = std::string(data);
    type = CodecType::kNone;
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(type));
  PutU32(&out, static_cast<uint32_t>(data.size()));
  PutU32(&out, Crc32(data));
  out += payload;
  return out;
}

Result<std::string> Decompress(std::string_view frame) {
  if (frame.size() < kFrameHeaderSize) {
    return Status::Corruption("frame shorter than header");
  }
  if (std::memcmp(frame.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad frame magic");
  }
  uint8_t codec_byte = static_cast<uint8_t>(frame[4]);
  if (codec_byte > static_cast<uint8_t>(CodecType::kDlz)) {
    return Status::Corruption("unknown codec byte in frame");
  }
  CodecType type = static_cast<CodecType>(codec_byte);
  uint32_t orig_size = GetU32(frame.data() + 5);
  uint32_t crc = GetU32(frame.data() + 9);
  std::string_view payload = frame.substr(kFrameHeaderSize);

  std::string out;
  switch (type) {
    case CodecType::kNone:
      out = std::string(payload);
      break;
    case CodecType::kRle: {
      DAVIX_ASSIGN_OR_RETURN(out, RleDecode(payload, orig_size));
      break;
    }
    case CodecType::kDlz: {
      DAVIX_ASSIGN_OR_RETURN(out, DlzDecode(payload, orig_size));
      break;
    }
  }
  if (out.size() != orig_size) {
    return Status::Corruption("decompressed size mismatch: got " +
                              std::to_string(out.size()) + " want " +
                              std::to_string(orig_size));
  }
  if (Crc32(out) != crc) {
    return Status::Corruption("crc mismatch after decompression");
  }
  return out;
}

Result<uint64_t> FrameOriginalSize(std::string_view frame) {
  if (frame.size() < kFrameHeaderSize) {
    return Status::Corruption("frame shorter than header");
  }
  if (std::memcmp(frame.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad frame magic");
  }
  return GetU32(frame.data() + 5);
}

}  // namespace compress
}  // namespace davix
