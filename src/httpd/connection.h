#ifndef DAVIX_HTTPD_CONNECTION_H_
#define DAVIX_HTTPD_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "http/message.h"
#include "net/tcp_socket.h"
#include "netsim/shaper.h"

namespace davix {
namespace httpd {

/// One unit of response output — an HTTP response, a mux frame or an
/// xrootd frame: a serialized header, then a body slice kept alive by
/// `owner`. The reactor gather-writes the two and never interleaves
/// another segment into one.
struct Segment {
  Segment() = default;
  explicit Segment(std::string head_in,
                   std::shared_ptr<const void> owner_in = nullptr,
                   std::string_view body_in = {})
      : head(std::move(head_in)), owner(std::move(owner_in)), body(body_in) {}

  std::string head;
  std::shared_ptr<const void> owner;
  std::string_view body;
  /// Link time charged before the segment may go out: a codec's pace
  /// (the slow-body trickle), plus the share of its exchange's bandwidth
  /// cost the reactor adds.
  int64_t link_micros = 0;

  size_t size() const { return head.size() + body.size(); }
};

/// How a connection continues after an exchange's last byte: kept open,
/// half-closed and held briefly so the bytes outrun a reset (linger), or
/// closed at once.
enum class ReplyEnd { kKeepOpen, kLingerClose, kHardClose };

/// The encoded answer to one exchange.
struct Reply {
  std::vector<Segment> segments;
  /// False for wire-level defenses (refusals, size rejections, stream
  /// resets), which skip the link model to get the peer off cheaply.
  bool shaped = true;
  /// Propagation delay on top of the link's own (xrootd login RTTs).
  int64_t extra_latency_micros = 0;
  /// Whether the exchange counts in ServerStats' requests_handled /
  /// responses_completed (not answers to unparsed bytes or stream resets).
  bool counted = true;
  ReplyEnd end = ReplyEnd::kKeepOpen;
};

/// What a codec cut from the front of a connection's input.
struct Parsed {
  enum class Kind {
    kNeedMore,  ///< no complete request buffered yet
    kRequest,   ///< `serve` runs on the worker pool
    kReply,     ///< answered from the reactor with `reply`
    kCancel,    ///< the peer cancelled exchange `stream`
    kClose,     ///< drop the connection unanswered (after `close_after_micros`)
  };

  Kind kind = Kind::kNeedMore;
  /// kNeedMore: a request head is partially buffered (slowloris clock).
  bool mid_head = false;
  /// The exchange's key on its connection (mux or xrootd stream id; 0
  /// for HTTP/1.1).
  uint64_t stream = 0;
  /// The request's size on the wire, the link model's upstream input.
  size_t wire_bytes = 0;
  std::function<Reply()> serve;
  Reply reply;
  /// kClose: an injected silent stall holds the connection this long,
  /// taking no more requests, before it is dropped.
  int64_t close_after_micros = 0;
};

/// The per-protocol half of a server connection, over the protocol-
/// neutral reactor in HttpServer: it parses requests from the input
/// buffer, hands back a closure that serves and encodes one on the
/// worker pool, and encodes refusals. One instance per connection,
/// called only from the reactor thread; `serve` closures capture what
/// they need by value, never the codec. Implemented by HTTP/1.1
/// (httpd/server.cc), mux (muxhttp/mux.cc) and xrootd
/// (xrootd/xrd_server.cc).
class ConnectionCodec {
 public:
  virtual ~ConnectionCodec() = default;

  /// Exchanges in flight at which the reactor stops reading: 1 for
  /// HTTP/1.1, whose responses go in request order.
  virtual size_t max_in_flight() const {
    return std::numeric_limits<size_t>::max();
  }

  /// Consumes the next request or protocol event from the front of
  /// `in`; `in_flight` exchanges are already running.
  virtual Parsed Parse(std::string* in, size_t in_flight) = 0;

  /// The refusal of a request admission control sheds, or (null) of a
  /// connection over the connection cap; an empty reply drops it.
  virtual Reply Refuse(const Parsed* request) = 0;
};

class HttpServer;

/// Makes the codec of each connection `server` accepts.
using CodecFactory =
    std::function<std::unique_ptr<ConnectionCodec>(HttpServer* server)>;

/// Moves `response`'s payload behind a refcounted owner: the stored
/// object's slice when the handler served one, else the owned string.
inline void TakeBody(http::HttpResponse* response,
                     std::shared_ptr<const void>* owner,
                     std::string_view* body) {
  *body = response->Body();
  *owner = std::move(response->body_owner);
  if (*owner == nullptr && !body->empty()) {
    auto owned = std::make_shared<const std::string>(std::move(response->body));
    *body = *owned;
    *owner = std::move(owned);
  }
}

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

/// One exchange's queued output: unsent segments, when its modelled
/// latency has elapsed, and how the connection continues.
struct OutStream {
  uint64_t key = 0;
  int64_t ready_at = 0;
  std::deque<Segment> segments;
  bool counted = true;
  ReplyEnd end = ReplyEnd::kKeepOpen;
};

/// Per-connection state owned exclusively by the server's reactor
/// thread; worker tasks only hand back completions, so nothing here is
/// locked. Each completed exchange waits in `queued` until its modelled
/// latency has elapsed; the connection's virtual link clock then sends
/// one segment at a time, ready exchanges taking turns (round-robin), so
/// a large response never holds up a small one for more than a frame.
struct ServerConnection {
  ServerConnection(uint64_t id_in, net::TcpSocket socket_in,
                   netsim::LinkProfile link,
                   std::unique_ptr<ConnectionCodec> codec_in)
      : id(id_in),
        socket(std::move(socket_in)),
        shaper(std::move(link)),
        codec(std::move(codec_in)) {}

  uint64_t id = 0;
  net::TcpSocket socket;
  netsim::ConnectionShaper shaper;
  std::unique_ptr<ConnectionCodec> codec;

  /// Input side.
  std::string in_buf;
  bool peer_eof = false;
  /// A request head is partially buffered (header-timeout clock runs).
  bool mid_head = false;
  /// Re-entrancy guard: input is being parsed further up the stack.
  bool parsing = false;
  /// Whether an exchange already finished here (keep-alive reuse).
  bool served_one = false;

  /// Exchanges parsed and not yet fully written or dropped.
  size_t in_flight = 0;
  /// Exchanges on the worker pool, and those cancelled meanwhile.
  std::unordered_multiset<uint64_t> dispatched;
  std::unordered_set<uint64_t> cancelled;

  /// Output: exchanges in turn order, and the one whose front segment is
  /// due on the link at `out_due` with `out_pos` bytes written.
  std::deque<OutStream> queued;
  std::optional<OutStream> current;
  int64_t out_due = 0;
  size_t out_pos = 0;
  /// Virtual instant the link finished the last segment; due times chain
  /// from it, not from (late, rounded) wakeups, so slack never adds up.
  int64_t link_free_at = 0;
  /// A write hit a full send buffer; waiting for EPOLLOUT.
  bool write_blocked = false;

  /// No more requests are parsed (a closing reply is queued, or an
  /// injected stall holds the connection until close_at).
  bool closing = false;
  /// Write side shut down; input is discarded until EOF or close_at.
  bool lingering = false;

  /// Timers, absolute µs on the monotonic clock (0 = unarmed).
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
