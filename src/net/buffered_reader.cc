#include "net/buffered_reader.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"

namespace davix {
namespace net {
namespace {

/// ReadBody sizes its destination this far ahead of the bytes received,
/// so each zero-fill lands just before recv overwrites it, still in cache.
constexpr size_t kBodyGrowStep = 256 * 1024;

}  // namespace

Result<size_t> BufferedReader::ReadSource(char* dst, size_t len) {
  int64_t timeout = timeout_micros_;
  if (deadline_micros_ > 0) {
    int64_t remaining = deadline_micros_ - MonotonicMicros();
    if (remaining <= 0) {
      return Status::Timeout("read deadline exceeded");
    }
    timeout = timeout > 0 ? std::min(timeout, remaining) : remaining;
  }
  return socket_->Read(dst, len, timeout);
}

Result<size_t> BufferedReader::Fill() {
  // Every caller consumes the buffered bytes before refilling.
  begin_ = 0;
  end_ = 0;
  DAVIX_ASSIGN_OR_RETURN(end_, ReadSource(buffer_.get(), kBufferBytes));
  return end_;
}

size_t BufferedReader::TakeBuffered(std::string* out, size_t len) {
  size_t take = std::min(end_ - begin_, len);
  out->append(buffer_.get() + begin_, take);
  begin_ += take;
  bytes_consumed_ += take;
  return take;
}

Result<std::string> BufferedReader::ReadLine(size_t max_len) {
  std::string line;
  while (true) {
    // Scan the buffered region for LF.
    const char* start = buffer_.get() + begin_;
    const void* nl = std::memchr(start, '\n', end_ - begin_);
    if (nl != nullptr) {
      size_t len = static_cast<size_t>(static_cast<const char*>(nl) - start);
      line.append(start, len);
      bytes_consumed_ += len + 1;
      begin_ += len + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > max_len) {
        return Status::ProtocolError("header line too long");
      }
      return line;
    }
    TakeBuffered(&line, end_ - begin_);
    if (line.size() > max_len) {
      return Status::ProtocolError("header line too long");
    }
    DAVIX_ASSIGN_OR_RETURN(size_t n, Fill());
    if (n == 0) {
      if (line.empty()) {
        return Status::ConnectionReset("EOF before line");
      }
      return Status::ConnectionReset("EOF inside line");
    }
  }
}

Status BufferedReader::ReadExact(std::string* out, size_t len) {
  while (true) {
    len -= TakeBuffered(out, len);
    if (len == 0) return Status::OK();
    DAVIX_ASSIGN_OR_RETURN(size_t n, Fill());
    if (n == 0) {
      return Status::ConnectionReset("EOF inside body (" +
                                     std::to_string(len) + " bytes missing)");
    }
  }
}

Status BufferedReader::ReadBody(std::string* out, uint64_t len) {
  const size_t target = out->size() + static_cast<size_t>(len);
  out->reserve(out->size() + std::min<uint64_t>(len, kMaxBodyReserveBytes));
  size_t filled = out->size() + TakeBuffered(out, static_cast<size_t>(len));
  while (filled < target) {
    // Size ahead one step at a time: resize zero-fills, and the fill
    // should be what recv overwrites next, not the whole declared length.
    if (filled == out->size()) {
      out->resize(std::min(target, filled + kBodyGrowStep));
    }
    Result<size_t> n =
        ReadSource(out->data() + filled, out->size() - filled);
    if (!n.ok() || *n == 0) {
      out->resize(filled);
      if (!n.ok()) return n.status();
      return Status::ConnectionReset("EOF inside body (" +
                                     std::to_string(target - filled) +
                                     " bytes missing)");
    }
    filled += *n;
    bytes_consumed_ += *n;
  }
  return Status::OK();
}

Status BufferedReader::ReadToEof(std::string* out) {
  while (true) {
    TakeBuffered(out, end_ - begin_);
    Result<size_t> n = Fill();
    if (!n.ok()) {
      // Treat reset after some data as EOF for read-to-end semantics.
      return Status::OK();
    }
    if (*n == 0) return Status::OK();
  }
}

}  // namespace net
}  // namespace davix
