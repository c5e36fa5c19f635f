#include "http/message.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

#include "common/string_util.h"

namespace davix {
namespace http {

std::string_view MethodName(Method method) {
  switch (method) {
    case Method::kGet:
      return "GET";
    case Method::kHead:
      return "HEAD";
    case Method::kPut:
      return "PUT";
    case Method::kDelete:
      return "DELETE";
    case Method::kOptions:
      return "OPTIONS";
    case Method::kPost:
      return "POST";
    case Method::kMkcol:
      return "MKCOL";
    case Method::kPropfind:
      return "PROPFIND";
    case Method::kMove:
      return "MOVE";
    case Method::kCopy:
      return "COPY";
  }
  return "GET";
}

Result<Method> ParseMethod(std::string_view name) {
  static constexpr struct {
    std::string_view name;
    Method method;
  } kMethods[] = {
      {"GET", Method::kGet},         {"HEAD", Method::kHead},
      {"PUT", Method::kPut},         {"DELETE", Method::kDelete},
      {"OPTIONS", Method::kOptions}, {"POST", Method::kPost},
      {"MKCOL", Method::kMkcol},     {"PROPFIND", Method::kPropfind},
      {"MOVE", Method::kMove},       {"COPY", Method::kCopy},
  };
  for (const auto& entry : kMethods) {
    if (entry.name == name) return entry.method;
  }
  return Status::NotSupported("unsupported method: " + std::string(name));
}

std::string_view ReasonPhrase(int status_code) {
  switch (status_code) {
    case 100:
      return "Continue";
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 204:
      return "No Content";
    case 206:
      return "Partial Content";
    case 207:
      return "Multi-Status";
    case 301:
      return "Moved Permanently";
    case 302:
      return "Found";
    case 303:
      return "See Other";
    case 304:
      return "Not Modified";
    case 307:
      return "Temporary Redirect";
    case 308:
      return "Permanent Redirect";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 411:
      return "Length Required";
    case 416:
      return "Range Not Satisfiable";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string HttpRequest::SerializeHead(size_t body_size) const {
  std::string out;
  out.reserve(256);
  out += MethodName(method);
  out += ' ';
  out += target;
  out += ' ';
  out += version;
  out += "\r\n";
  bool has_length = false;
  for (const auto& [name, value] : headers.entries()) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
    if (EqualsIgnoreCase(name, "Content-Length")) has_length = true;
  }
  if (body_size > 0 && !has_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string HttpRequest::Serialize() const {
  std::string out = SerializeHead(body.size());
  out += body;
  return out;
}

bool HttpResponse::KeepsConnectionAlive() const {
  if (headers.ListContains("Connection", "close")) return false;
  if (version == "HTTP/1.0") {
    return headers.ListContains("Connection", "keep-alive");
  }
  return true;  // HTTP/1.1 default is persistent
}

std::string HttpResponse::SerializeHead(size_t body_size) const {
  std::string out;
  out.reserve(256);
  out += version;
  out += ' ';
  out += std::to_string(status_code);
  out += ' ';
  out += reason.empty() ? std::string(ReasonPhrase(status_code)) : reason;
  out += "\r\n";
  bool has_length = false;
  for (const auto& [name, value] : headers.entries()) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
    if (EqualsIgnoreCase(name, "Content-Length")) has_length = true;
  }
  bool chunked = headers.ListContains("Transfer-Encoding", "chunked");
  if (!has_length && !chunked) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string HttpResponse::Serialize() const {
  std::string out = SerializeHead(Body().size());
  out += Body();
  return out;
}

std::string FormatHttpDate(int64_t epoch_seconds) {
  std::time_t t = static_cast<std::time_t>(epoch_seconds);
  std::tm tm_utc = {};
  gmtime_r(&t, &tm_utc);
  char buf[64];
  std::strftime(buf, sizeof(buf), "%a, %d %b %Y %H:%M:%S GMT", &tm_utc);
  return buf;
}

Result<int64_t> ParseHttpDate(std::string_view value) {
  std::tm tm_utc = {};
  std::string s(value);
  if (strptime(s.c_str(), "%a, %d %b %Y %H:%M:%S GMT", &tm_utc) == nullptr) {
    return Status::InvalidArgument("unparseable HTTP date: " + s);
  }
  return static_cast<int64_t>(timegm(&tm_utc));
}

Result<int64_t> ParseRetryAfter(std::string_view value,
                                int64_t now_epoch_seconds) {
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  if (value.empty()) {
    return Status::InvalidArgument("empty Retry-After value");
  }
  bool all_digits = true;
  for (char c : value) {
    if (c < '0' || c > '9') {
      all_digits = false;
      break;
    }
  }
  if (all_digits) {
    // Cap the digit count before converting so a hostile header cannot
    // overflow; 9 digits (~31 years) is already beyond any sane wait.
    if (value.size() > 9) {
      return Status::InvalidArgument("Retry-After delta too large");
    }
    int64_t seconds = 0;
    for (char c : value) seconds = seconds * 10 + (c - '0');
    return seconds;
  }
  DAVIX_ASSIGN_OR_RETURN(int64_t date, ParseHttpDate(value));
  return std::max<int64_t>(0, date - now_epoch_seconds);
}

}  // namespace http
}  // namespace davix
