#ifndef DAVIX_HTTP_MESSAGE_H_
#define DAVIX_HTTP_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "http/header_map.h"

namespace davix {
namespace http {

/// HTTP methods used by data access: the CRUD set (§2.1 of the paper) plus
/// the WebDAV verbs davix needs for namespace operations.
enum class Method {
  kGet,
  kHead,
  kPut,
  kDelete,
  kOptions,
  kPost,
  kMkcol,     // WebDAV: create collection (directory)
  kPropfind,  // WebDAV: stat / listing
  kMove,      // WebDAV: rename
  kCopy,      // WebDAV: server-side copy
};

std::string_view MethodName(Method method);
Result<Method> ParseMethod(std::string_view name);

/// Reason phrase for a status code ("OK", "Partial Content", ...).
std::string_view ReasonPhrase(int status_code);

/// Status code classification helpers.
inline bool IsSuccess(int code) { return code >= 200 && code < 300; }
inline bool IsRedirect(int code) {
  return code == 301 || code == 302 || code == 303 || code == 307 ||
         code == 308;
}

/// An HTTP/1.1 request as written to / read from the wire.
struct HttpRequest {
  Method method = Method::kGet;
  /// Origin-form target: path plus optional "?query".
  std::string target = "/";
  /// Always "HTTP/1.1" when emitted by this library.
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  /// Serialises head + body for the wire. Adds Content-Length for
  /// non-empty bodies if absent.
  std::string Serialize() const;

  /// Serialises the head only (request line + headers + blank line),
  /// declaring `body_size` via Content-Length when non-zero and not
  /// already set. Lets callers write head and payload as two socket
  /// writes instead of concatenating them — the zero-copy send path for
  /// large PUT bodies.
  std::string SerializeHead(size_t body_size) const;
};

/// An HTTP/1.1 response.
///
/// The payload lives in one of two places. `body` owns its bytes; that
/// is what parsers fill and what most handlers write. A handler serving
/// immutable shared bytes (a stored object) instead calls SetBodySlice,
/// and servers then send the slice without ever copying the payload.
struct HttpResponse {
  int status_code = 200;
  std::string reason;
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;
  /// Zero-copy body: when set, the payload is `body_slice`, a view into
  /// memory this owner keeps alive, and `body` is unused.
  std::shared_ptr<const void> body_owner;
  std::string_view body_slice;

  /// The payload, whichever member holds it.
  std::string_view Body() const {
    return body_owner != nullptr ? body_slice : std::string_view(body);
  }

  /// Serves `slice`, which must point into memory `owner` keeps alive.
  void SetBodySlice(std::shared_ptr<const void> owner,
                    std::string_view slice) {
    body.clear();
    body_owner = std::move(owner);
    body_slice = slice;
  }

  /// True if, per RFC 7230 §6.3 and our headers, the connection can be
  /// reused for another response after this one.
  bool KeepsConnectionAlive() const;

  /// Serialises the head only (status line + headers + blank line),
  /// declaring `body_size` via Content-Length when neither a length nor
  /// chunked framing is already set. Lets the mux server write the head
  /// as a HEADERS frame and stream the body as separate DATA frames.
  std::string SerializeHead(size_t body_size) const;

  /// Head plus a copy of Body(): for small responses and tests.
  std::string Serialize() const;
};

/// Formats `epoch_seconds` as an IMF-fixdate ("Sun, 06 Nov 1994 08:49:37
/// GMT") for Date / Last-Modified headers.
std::string FormatHttpDate(int64_t epoch_seconds);

/// Parses an IMF-fixdate back to epoch seconds.
Result<int64_t> ParseHttpDate(std::string_view value);

/// Parses a Retry-After header value (RFC 9110 §10.2.3) to a wait in
/// seconds: either delta-seconds ("120") or an HTTP-date, interpreted
/// against `now_epoch_seconds` (a date in the past yields 0). Fails with
/// kInvalidArgument on anything else.
Result<int64_t> ParseRetryAfter(std::string_view value,
                                int64_t now_epoch_seconds);

}  // namespace http
}  // namespace davix

#endif  // DAVIX_HTTP_MESSAGE_H_
