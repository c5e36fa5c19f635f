#ifndef DAVIX_HTTPD_CONNECTION_H_
#define DAVIX_HTTPD_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "http/message.h"
#include "net/tcp_socket.h"
#include "netsim/shaper.h"

namespace davix {
namespace httpd {

/// Lifecycle of one reactor-owned connection.
///
/// kReading accumulates request bytes; kDispatched means the current
/// request is on the worker pool; kWriting flushes the (shaped) response;
/// kLingering has nothing left to say — it holds the fd open briefly
/// after a Connection: close response (so the bytes outrun the RST a
/// hard close could trigger) or during an injected silent stall.
enum class ConnState {
  kReading,
  kDispatched,
  kWriting,
  kLingering,
};

/// Outcome of one incremental parse attempt over a connection's input.
enum class AssembleOutcome {
  /// The buffer does not yet hold a complete request.
  kNeedMore,
  /// A full request was parsed and consumed from the buffer.
  kReady,
  /// Request line or header block exceeds the configured bound -> 431.
  kHeaderTooLarge,
  /// Declared or chunk-encoded body exceeds the configured bound -> 413.
  kBodyTooLarge,
  /// Not HTTP. The connection is dropped without a response.
  kMalformed,
};

/// Incremental HTTP/1.1 request assembler for non-blocking reads.
///
/// The reactor appends whatever recv() produced to a connection's input
/// buffer and calls Poll(); the assembler either consumes one complete
/// request or reports why it cannot. Request-size limits (the 431/413
/// contract) are enforced on the buffered bytes before anything is
/// parsed. Once a head declaring a Content-Length parses, the assembler
/// keeps it and moves body bytes out of the input buffer as they arrive
/// into a body sized once from the declared length (capped by
/// net::BufferedReader::kMaxBodyReserveBytes), so a large PUT is neither
/// re-scanned nor re-copied on every read. That body becomes the
/// request's body without another copy. Chunked bodies are re-parsed
/// from the buffered bytes on each call.
class RequestAssembler {
 public:
  /// Request-size bounds; see ServerConfig for the knobs behind them.
  struct Limits {
    size_t max_request_line_bytes = 8 * 1024;
    size_t max_header_bytes = 64 * 1024;
    uint64_t max_body_bytes = 1024ull * 1024 * 1024;
  };

  explicit RequestAssembler(Limits limits) : limits_(limits) {}

  /// Attempts to assemble one request from the front of `buf`. On
  /// kReady the request's bytes are gone from `buf`, `out` holds the
  /// parsed request and `wire_bytes` its on-the-wire size. `head_done`
  /// reports whether the header block is already complete — the signal
  /// that separates a header-read timeout from a body-read stall.
  AssembleOutcome Poll(std::string* buf, http::HttpRequest* out,
                       size_t* wire_bytes, bool* head_done);

 private:
  /// Moves the pending request's body bytes from the front of `buf`;
  /// kReady (with the request in `out`) once the body is complete.
  AssembleOutcome TakeBody(std::string* buf, http::HttpRequest* out,
                           size_t* wire_bytes);

  Limits limits_;
  /// Whether `pending_` holds a request whose head has been parsed and
  /// consumed while its Content-Length body is still arriving.
  bool body_pending_ = false;
  http::HttpRequest pending_;
  uint64_t pending_length_ = 0;
  size_t pending_head_bytes_ = 0;
};

/// Per-connection state owned exclusively by the server's reactor
/// thread. Worker-pool tasks never touch it — they communicate through
/// value-type completions the reactor collects — so none of this needs
/// locking.
struct ServerConnection {
  ServerConnection(uint64_t id_in, net::TcpSocket socket_in,
                   netsim::LinkProfile link, RequestAssembler::Limits limits)
      : id(id_in),
        socket(std::move(socket_in)),
        shaper(std::move(link)),
        assembler(limits) {}

  uint64_t id = 0;
  net::TcpSocket socket;
  netsim::ConnectionShaper shaper;
  RequestAssembler assembler;
  ConnState state = ConnState::kReading;

  /// Input side.
  std::string in_buf;
  bool peer_eof = false;
  bool head_done = false;
  bool first_request = true;
  /// Wire size of the request currently dispatched (shaping input).
  int64_t request_bytes = 0;

  /// Output side: the serialized head, then the body — a view into
  /// memory `out_owner` keeps alive (a stored object's bytes, or an
  /// owned string) — gather-written as one byte stream of out_size()
  /// bytes. `out_pos` and `out_eligible` index that stream;
  /// `out_eligible` trails out_size() only while an injected slow-body
  /// fault trickles the payload out.
  std::string out_head;
  std::shared_ptr<const void> out_owner;
  std::string_view out_body;
  size_t out_pos = 0;
  size_t out_eligible = 0;
  size_t out_size() const { return out_head.size() + out_body.size(); }

  /// Replaces the output with `head` then `body` (kept alive by `owner`)
  /// and rewinds it, every byte eligible.
  void SetOutput(std::string head, std::shared_ptr<const void> owner = nullptr,
                 std::string_view body = {}) {
    out_head = std::move(head);
    out_owner = std::move(owner);
    out_body = body;
    out_pos = 0;
    out_eligible = out_size();
  }
  bool close_after_write = false;
  /// Half-close and hold after the response instead of a hard close.
  bool linger_after_write = false;
  /// Whether finishing the current response counts as completing a
  /// parsed request (431/413 rejections answer unparsed garbage).
  bool counts_completed = false;
  size_t trickle_step = 0;
  int64_t next_trickle_at = 0;

  /// Timers, absolute µs on the monotonic clock (0 = unarmed).
  int64_t write_ready_at = 0;
  int64_t last_byte_at = 0;
  int64_t request_started_at = 0;
  int64_t write_progress_at = 0;
  int64_t close_at = 0;

  /// Current epoll interest, mirrored to avoid redundant epoll_ctl.
  bool read_interest = true;
  bool write_interest = false;

  /// Whether this connection was admitted (counted in
  /// connections_active) as opposed to accepted only to be shed.
  bool counted_active = false;
};

}  // namespace httpd
}  // namespace davix

#endif  // DAVIX_HTTPD_CONNECTION_H_
