#include "http/parser.h"

#include "common/string_util.h"

namespace davix {
namespace http {
namespace {

/// Parses "Name: value" lines into `headers` until the blank line.
Status ReadHeaderBlock(net::BufferedReader* reader, HeaderMap* headers) {
  size_t total = 0;
  while (true) {
    DAVIX_ASSIGN_OR_RETURN(std::string line, reader->ReadLine());
    if (line.empty()) return Status::OK();
    total += line.size();
    if (total > MessageReader::kMaxHeaderBytes) {
      return Status::ProtocolError("header block too large");
    }
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::ProtocolError("malformed header line: " + line);
    }
    std::string_view name =
        TrimWhitespace(std::string_view(line).substr(0, colon));
    std::string_view value =
        TrimWhitespace(std::string_view(line).substr(colon + 1));
    headers->Add(name, value);
  }
}

Result<uint64_t> ParseChunkSizeLine(std::string_view line) {
  // Chunk extensions after ';' are ignored.
  size_t semi = line.find(';');
  std::string_view hex = TrimWhitespace(
      semi == std::string_view::npos ? line : line.substr(0, semi));
  if (hex.empty()) return Status::ProtocolError("empty chunk size");
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return Status::ProtocolError("bad chunk size: " + std::string(line));
    }
    if (value > (0xFFFFFFFFFFFFFFFFull - static_cast<uint64_t>(digit)) / 16) {
      return Status::ProtocolError("chunk size overflow");
    }
    value = value * 16 + static_cast<uint64_t>(digit);
  }
  return value;
}

Status ReadChunkedBody(net::BufferedReader* reader, std::string* body) {
  while (true) {
    DAVIX_ASSIGN_OR_RETURN(std::string size_line, reader->ReadLine());
    DAVIX_ASSIGN_OR_RETURN(uint64_t chunk_size, ParseChunkSizeLine(size_line));
    if (chunk_size == 0) break;
    if (body->size() + chunk_size > MessageReader::kMaxBodyBytes) {
      return Status::ProtocolError("chunked body too large");
    }
    DAVIX_RETURN_IF_ERROR(reader->ReadExact(body, chunk_size));
    DAVIX_ASSIGN_OR_RETURN(std::string crlf, reader->ReadLine());
    if (!crlf.empty()) {
      return Status::ProtocolError("chunk data not followed by CRLF");
    }
  }
  // Trailer section: header lines until blank.
  while (true) {
    DAVIX_ASSIGN_OR_RETURN(std::string line, reader->ReadLine());
    if (line.empty()) return Status::OK();
  }
}

}  // namespace

Result<HttpRequest> MessageReader::ReadRequestHead(
    net::BufferedReader* reader) {
  Result<std::string> line = reader->ReadLine();
  if (!line.ok()) {
    if (line.status().code() == StatusCode::kConnectionReset) {
      return Status::ConnectionReset("idle close");
    }
    return line.status();
  }
  HttpRequest request;
  std::vector<std::string> parts = SplitString(*line, ' ');
  if (parts.size() != 3) {
    return Status::ProtocolError("malformed request line: " + *line);
  }
  DAVIX_ASSIGN_OR_RETURN(request.method, ParseMethod(parts[0]));
  request.target = parts[1];
  request.version = parts[2];
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    return Status::ProtocolError("unsupported HTTP version: " +
                                 request.version);
  }
  DAVIX_RETURN_IF_ERROR(ReadHeaderBlock(reader, &request.headers));
  return request;
}

Status MessageReader::ReadRequestBody(net::BufferedReader* reader,
                                      HttpRequest* request) {
  if (request->headers.ListContains("Transfer-Encoding", "chunked")) {
    return ReadChunkedBody(reader, &request->body);
  }
  std::optional<uint64_t> length = request->headers.GetUint64("Content-Length");
  if (!length || *length == 0) return Status::OK();
  if (*length > kMaxBodyBytes) {
    return Status::ProtocolError("request body too large");
  }
  return reader->ReadBody(&request->body, *length);
}

Result<HttpResponse> MessageReader::ReadResponseHead(
    net::BufferedReader* reader) {
  DAVIX_ASSIGN_OR_RETURN(std::string line, reader->ReadLine());
  HttpResponse response;
  // Status line: HTTP-version SP status-code SP reason-phrase (reason may
  // contain spaces or be absent).
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    return Status::ProtocolError("malformed status line: " + line);
  }
  response.version = line.substr(0, sp1);
  if (response.version != "HTTP/1.1" && response.version != "HTTP/1.0") {
    return Status::ProtocolError("unsupported HTTP version: " +
                                 response.version);
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  std::string code_str = sp2 == std::string::npos
                             ? line.substr(sp1 + 1)
                             : line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::optional<uint64_t> code = ParseUint64(code_str);
  if (!code || *code < 100 || *code > 599) {
    return Status::ProtocolError("bad status code: " + code_str);
  }
  response.status_code = static_cast<int>(*code);
  if (sp2 != std::string::npos) response.reason = line.substr(sp2 + 1);
  DAVIX_RETURN_IF_ERROR(ReadHeaderBlock(reader, &response.headers));
  return response;
}

Status MessageReader::ReadResponseBody(net::BufferedReader* reader,
                                       bool was_head_request,
                                       HttpResponse* response) {
  int code = response->status_code;
  if (was_head_request || code / 100 == 1 || code == 204 || code == 304) {
    return Status::OK();
  }
  if (response->headers.ListContains("Transfer-Encoding", "chunked")) {
    return ReadChunkedBody(reader, &response->body);
  }
  std::optional<uint64_t> length =
      response->headers.GetUint64("Content-Length");
  if (length) {
    if (*length > kMaxBodyBytes) {
      return Status::ProtocolError("response body too large");
    }
    return reader->ReadBody(&response->body, *length);
  }
  // No framing: body is delimited by connection close (HTTP/1.0 style).
  return reader->ReadToEof(&response->body);
}

std::string ChunkedEncode(std::string_view data, size_t chunk_size) {
  if (chunk_size == 0) chunk_size = 4096;
  std::string out;
  out.reserve(data.size() + data.size() / chunk_size * 16 + 32);
  size_t pos = 0;
  char size_buf[32];
  while (pos < data.size()) {
    size_t n = std::min(chunk_size, data.size() - pos);
    std::snprintf(size_buf, sizeof(size_buf), "%zx\r\n", n);
    out += size_buf;
    out += data.substr(pos, n);
    out += "\r\n";
    pos += n;
  }
  out += "0\r\n\r\n";
  return out;
}

}  // namespace http
}  // namespace davix
