#ifndef DAVIX_NET_BUFFERED_READER_H_
#define DAVIX_NET_BUFFERED_READER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/byte_source.h"

namespace davix {
namespace net {

/// Buffered reads over any ByteSource (TCP socket, in-memory buffer):
/// CRLF-terminated lines for protocol headers, exact-length reads for
/// bodies. Does not own the source.
class BufferedReader {
 public:
  /// `source` must outlive this reader. `timeout_micros` applies to each
  /// underlying read (0 = wait forever).
  explicit BufferedReader(ByteSource* source, int64_t timeout_micros = 0)
      : socket_(source),
        timeout_micros_(timeout_micros),
        buffer_(new char[kBufferBytes]) {}

  BufferedReader(const BufferedReader&) = delete;
  BufferedReader& operator=(const BufferedReader&) = delete;

  /// Reads one line terminated by "\r\n" (tolerates bare "\n"); the
  /// terminator is stripped. Returns kConnectionReset on EOF before any
  /// byte of the line, kProtocolError if the line exceeds `max_len`.
  Result<std::string> ReadLine(size_t max_len = 64 * 1024);

  /// Reads exactly `len` bytes into `out` (appended). Fails with
  /// kConnectionReset on premature EOF.
  Status ReadExact(std::string* out, size_t len);

  /// Most memory reserved up front from a declared body length, by
  /// ReadBody and by the server's request assembler alike. Longer bodies
  /// grow as their bytes arrive, so a peer that declares a huge length
  /// and goes quiet costs at most this much address space.
  static constexpr size_t kMaxBodyReserveBytes = 64ull * 1024 * 1024;

  /// ReadExact for large payloads: copies only the already-buffered
  /// prefix, then reads the rest from the source straight into `out`,
  /// which is reserved once for min(`len`, kMaxBodyReserveBytes) more
  /// bytes and grows past that only as bytes arrive, so a peer declaring
  /// a huge length cannot make the reader commit memory it never sends.
  /// On failure `out` keeps the bytes received so far; kConnectionReset
  /// on premature EOF, kTimeout when a read or the deadline expires.
  Status ReadBody(std::string* out, uint64_t len);

  /// Reads until EOF, appending to `out`.
  Status ReadToEof(std::string* out);

  /// True when buffered bytes are available (no syscall).
  bool HasBuffered() const { return begin_ < end_; }

  /// Per-underlying-read timeout (0 = wait forever). The session pool
  /// re-applies this on every acquire so a recycled connection never
  /// keeps its previous owner's timeout.
  void set_timeout_micros(int64_t timeout_micros) {
    timeout_micros_ = timeout_micros;
  }
  int64_t timeout_micros() const { return timeout_micros_; }

  /// Absolute MonotonicMicros() deadline across all reads (0 = none).
  /// Unlike the per-read timeout — which a server can evade by trickling
  /// one byte per interval — this bounds the total time the reader will
  /// spend: each refill's wait is clipped to the remaining budget and a
  /// refill past the instant fails with kTimeout.
  void set_deadline_micros(int64_t deadline_micros) {
    deadline_micros_ = deadline_micros;
  }
  int64_t deadline_micros() const { return deadline_micros_; }

  uint64_t bytes_consumed() const { return bytes_consumed_; }

 private:
  static constexpr size_t kBufferBytes = 64 * 1024;

  /// One read from the source into `dst`, waiting at most the per-read
  /// timeout clipped to the deadline; kTimeout once the deadline passed.
  Result<size_t> ReadSource(char* dst, size_t len);

  /// Refills the drained internal buffer; returns the number of new
  /// bytes (0 on EOF). Touches only the bytes the source returned.
  Result<size_t> Fill();

  /// Moves up to `len` buffered bytes to the end of `out`.
  size_t TakeBuffered(std::string* out, size_t len);

  ByteSource* socket_;
  int64_t timeout_micros_;
  int64_t deadline_micros_ = 0;
  /// Fixed-capacity refill buffer, never zero-filled; [begin_, end_)
  /// holds the unconsumed bytes.
  std::unique_ptr<char[]> buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  uint64_t bytes_consumed_ = 0;
};

}  // namespace net
}  // namespace davix

#endif  // DAVIX_NET_BUFFERED_READER_H_
