#ifndef DAVIX_XROOTD_FRAME_H_
#define DAVIX_XROOTD_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "http/range.h"
#include "net/buffered_reader.h"
#include "net/tcp_socket.h"

namespace davix {
namespace xrootd {

/// Request opcodes of the simplified xrootd-like protocol. The real
/// XRootD protocol is much richer; this subset carries exactly the
/// operations the paper's data-analysis workload exercises.
enum class Opcode : uint16_t {
  kLogin = 1,
  kOpen = 2,
  kStat = 3,
  kRead = 4,
  kReadVector = 5,
  kClose = 6,
};

/// Response status codes (the opcode field of response frames).
enum class RespStatus : uint16_t {
  kOk = 0,
  kError = 1,
  kNotFound = 2,
  kBadRequest = 3,
};

/// Fixed 16-byte frame header, little-endian on the wire:
///   u16 stream_id | u16 opcode/status | u32 payload length | u64 arg
///
/// stream_id is the multiplexing key (§2.2's contrast: "the XRootD
/// framework ... supports parallel asynchronous data access on top of
/// its own I/O multiplexing"): responses carry the id of their request
/// and may arrive in any order.
struct FrameHeader {
  uint16_t stream_id = 0;
  uint16_t opcode = 0;
  uint32_t length = 0;
  uint64_t arg = 0;
};

constexpr size_t kFrameHeaderSize = 16;
/// Payload ceiling: guards both sides against garbage lengths.
constexpr uint32_t kMaxFramePayload = 256 * 1024 * 1024;

/// One full frame.
struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Encodes a header for a payload of `payload_size` bytes (the header's
/// own `length` is ignored).
std::string EncodeFrameHeader(const FrameHeader& header, size_t payload_size);

/// Decodes the header at the front of `bytes` (at least kFrameHeaderSize
/// long); kProtocolError when its length exceeds kMaxFramePayload. The
/// one decoder behind both the blocking reader (ReadFrame) and the
/// server's buffer-driven codec.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Serialises header + payload for the wire.
std::string SerializeFrame(const FrameHeader& header,
                           std::string_view payload);

/// Reads one frame (blocking, using the reader's timeout).
Result<Frame> ReadFrame(net::BufferedReader* reader);

/// Payload of a kRead request: u32 handle | u32 length (offset in arg).
std::string EncodeReadPayload(uint32_t handle, uint32_t length);
Result<std::pair<uint32_t, uint32_t>> DecodeReadPayload(
    std::string_view payload);

/// Payload of a kReadVector request: u32 handle, then per range
/// u64 offset | u32 length. The response payload is the concatenation of
/// the range contents in request order.
std::string EncodeReadVectorPayload(uint32_t handle,
                                    const std::vector<http::ByteRange>& ranges);
Result<std::pair<uint32_t, std::vector<http::ByteRange>>>
DecodeReadVectorPayload(std::string_view payload);

}  // namespace xrootd
}  // namespace davix

#endif  // DAVIX_XROOTD_FRAME_H_
