#include "httpd/connection.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "http/parser.h"
#include "net/buffered_reader.h"
#include "net/byte_source.h"

namespace davix {
namespace httpd {
namespace {

/// Offset just past the header terminator ("\r\n\r\n", tolerating bare
/// "\n\n" like the line parser does), or npos if it does not end within
/// the first `max_head_bytes`. The bound keeps each poll's scan from
/// running over a large buffered body: any longer head is a 431 anyway.
size_t FindHeaderEnd(std::string_view buf, size_t max_head_bytes) {
  buf = buf.substr(0, max_head_bytes);
  size_t crlf = buf.find("\r\n\r\n");
  size_t lf = buf.find("\n\n");
  size_t end = std::string_view::npos;
  if (crlf != std::string_view::npos) end = crlf + 4;
  if (lf != std::string_view::npos) end = std::min(end, lf + 2);
  return end;
}

/// Chunked framing adds a size line + CRLF around every chunk. Anything
/// buffered past the decoded-size limit plus this slack without forming
/// a complete body is chunk abuse, not a slow sender.
uint64_t ChunkFramingSlack(uint64_t max_body_bytes) {
  return max_body_bytes / 8 + 4096;
}

}  // namespace

AssembleOutcome RequestAssembler::Poll(std::string* buf,
                                       http::HttpRequest* out,
                                       size_t* wire_bytes, bool* head_done) {
  if (body_pending_) {
    *head_done = true;
    return TakeBody(buf, out, wire_bytes);
  }
  *head_done = false;
  if (buf->empty()) return AssembleOutcome::kNeedMore;

  // Request-line bound: the first line must terminate within budget.
  size_t line_end = buf->find('\n');
  if (line_end == std::string::npos) {
    return buf->size() > limits_.max_request_line_bytes
               ? AssembleOutcome::kHeaderTooLarge
               : AssembleOutcome::kNeedMore;
  }
  if (line_end > limits_.max_request_line_bytes) {
    return AssembleOutcome::kHeaderTooLarge;
  }

  // Header-block bound, enforced on raw bytes before parsing. The
  // terminator may end up to 4 bytes past the limit and still leave a
  // head of max_header_bytes.
  size_t head_end = FindHeaderEnd(*buf, limits_.max_header_bytes + 4);
  if (head_end == std::string::npos) {
    return buf->size() > limits_.max_header_bytes
               ? AssembleOutcome::kHeaderTooLarge
               : AssembleOutcome::kNeedMore;
  }
  if (head_end > limits_.max_header_bytes) {
    return AssembleOutcome::kHeaderTooLarge;
  }
  *head_done = true;

  net::StringSource head_source(buf->substr(0, head_end));
  net::BufferedReader head_reader(&head_source);
  Result<http::HttpRequest> head =
      http::MessageReader::ReadRequestHead(&head_reader);
  if (!head.ok()) return AssembleOutcome::kMalformed;
  http::HttpRequest request = std::move(*head);

  if (request.headers.ListContains("Transfer-Encoding", "chunked")) {
    net::StringSource body_source(buf->substr(head_end));
    net::BufferedReader body_reader(&body_source);
    Status body_status =
        http::MessageReader::ReadRequestBody(&body_reader, &request);
    if (!body_status.ok()) {
      if (body_status.code() != StatusCode::kConnectionReset) {
        return AssembleOutcome::kMalformed;
      }
      // Truncated chunk stream: more bytes may complete it — unless the
      // buffered framing already outgrew any legal body.
      uint64_t buffered = buf->size() - head_end;
      return buffered > limits_.max_body_bytes +
                            ChunkFramingSlack(limits_.max_body_bytes)
                 ? AssembleOutcome::kBodyTooLarge
                 : AssembleOutcome::kNeedMore;
    }
    if (request.body.size() > limits_.max_body_bytes) {
      return AssembleOutcome::kBodyTooLarge;
    }
    *wire_bytes = head_end + body_reader.bytes_consumed();
  } else if (request.headers.Has("Content-Length")) {
    std::optional<uint64_t> content_length =
        request.headers.GetUint64("Content-Length");
    // Unparseable or overflowing declarations get the same answer an
    // honestly-declared oversized body would: 413, not a hung read.
    if (!content_length || *content_length > limits_.max_body_bytes) {
      return AssembleOutcome::kBodyTooLarge;
    }
    buf->erase(0, head_end);
    request.body.reserve(static_cast<size_t>(std::min<uint64_t>(
        *content_length, net::BufferedReader::kMaxBodyReserveBytes)));
    pending_ = std::move(request);
    body_pending_ = true;
    pending_length_ = *content_length;
    pending_head_bytes_ = head_end;
    return TakeBody(buf, out, wire_bytes);
  } else {
    *wire_bytes = head_end;
  }

  buf->erase(0, *wire_bytes);
  *out = std::move(request);
  return AssembleOutcome::kReady;
}

AssembleOutcome RequestAssembler::TakeBody(std::string* buf,
                                           http::HttpRequest* out,
                                           size_t* wire_bytes) {
  std::string& body = pending_.body;
  size_t take = static_cast<size_t>(
      std::min<uint64_t>(buf->size(), pending_length_ - body.size()));
  body.append(*buf, 0, take);
  buf->erase(0, take);
  if (body.size() < pending_length_) return AssembleOutcome::kNeedMore;
  *wire_bytes = pending_head_bytes_ + body.size();
  *out = std::move(pending_);
  body_pending_ = false;
  return AssembleOutcome::kReady;
}

}  // namespace httpd
}  // namespace davix
