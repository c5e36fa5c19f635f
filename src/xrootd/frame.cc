#include "xrootd/frame.h"

namespace davix {
namespace xrootd {

std::string EncodeFrameHeader(const FrameHeader& header,
                              size_t payload_size) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload_size);
  PutU16(&out, header.stream_id);
  PutU16(&out, header.opcode);
  PutU32(&out, static_cast<uint32_t>(payload_size));
  PutU64(&out, header.arg);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  FrameHeader header;
  header.stream_id = GetU16(bytes.data());
  header.opcode = GetU16(bytes.data() + 2);
  header.length = GetU32(bytes.data() + 4);
  header.arg = GetU64(bytes.data() + 8);
  if (header.length > kMaxFramePayload) {
    return Status::ProtocolError("frame payload too large: " +
                                 std::to_string(header.length));
  }
  return header;
}

std::string SerializeFrame(const FrameHeader& header,
                           std::string_view payload) {
  std::string out = EncodeFrameHeader(header, payload.size());
  out.append(payload);
  return out;
}

Result<Frame> ReadFrame(net::BufferedReader* reader) {
  std::string head;
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&head, kFrameHeaderSize));
  Frame frame;
  DAVIX_ASSIGN_OR_RETURN(frame.header, DecodeFrameHeader(head));
  if (frame.header.length > 0) {
    DAVIX_RETURN_IF_ERROR(reader->ReadExact(&frame.payload,
                                            frame.header.length));
  }
  return frame;
}

std::string EncodeReadPayload(uint32_t handle, uint32_t length) {
  std::string out;
  PutU32(&out, handle);
  PutU32(&out, length);
  return out;
}

Result<std::pair<uint32_t, uint32_t>> DecodeReadPayload(
    std::string_view payload) {
  if (payload.size() != 8) {
    return Status::ProtocolError("bad read payload size");
  }
  return std::make_pair(GetU32(payload.data()), GetU32(payload.data() + 4));
}

std::string EncodeReadVectorPayload(
    uint32_t handle, const std::vector<http::ByteRange>& ranges) {
  std::string out;
  PutU32(&out, handle);
  PutU32(&out, static_cast<uint32_t>(ranges.size()));
  for (const http::ByteRange& r : ranges) {
    PutU64(&out, r.offset);
    PutU32(&out, static_cast<uint32_t>(r.length));
  }
  return out;
}

Result<std::pair<uint32_t, std::vector<http::ByteRange>>>
DecodeReadVectorPayload(std::string_view payload) {
  if (payload.size() < 8) {
    return Status::ProtocolError("bad readv payload size");
  }
  uint32_t handle = GetU32(payload.data());
  uint32_t count = GetU32(payload.data() + 4);
  if (payload.size() != 8 + static_cast<size_t>(count) * 12) {
    return Status::ProtocolError("readv payload size mismatch");
  }
  std::vector<http::ByteRange> ranges;
  ranges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const char* p = payload.data() + 8 + i * 12;
    ranges.push_back(http::ByteRange{GetU64(p), GetU32(p + 8)});
  }
  return std::make_pair(handle, std::move(ranges));
}

}  // namespace xrootd
}  // namespace davix
