#ifndef DAVIX_NET_TCP_SOCKET_H_
#define DAVIX_NET_TCP_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/byte_source.h"
#include "net/socket_address.h"

namespace davix {
namespace net {

/// RAII TCP connection. Move-only; the destructor closes the fd.
///
/// All operations are blocking with optional deadlines implemented via
/// poll(2). A read timeout of 0 means "wait forever".
class TcpSocket : public ByteSource {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() override;

  TcpSocket(TcpSocket&& other) noexcept;
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Connects to `address` within `timeout_micros` (0 = default 30 s).
  static Result<TcpSocket> Connect(const SocketAddress& address,
                                   int64_t timeout_micros = 0);

  bool IsOpen() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads up to `len` bytes. Returns 0 on orderly peer shutdown.
  Result<size_t> Read(char* buf, size_t len,
                      int64_t timeout_micros = 0) override;

  /// Writes the whole buffer or fails.
  Status WriteAll(std::string_view data, int64_t timeout_micros = 0);

  /// Switches the fd between blocking and O_NONBLOCK mode.
  Status SetNonBlocking(bool enabled);

  /// Non-blocking read for reactor loops: reads whatever is available,
  /// returning 0 on orderly peer shutdown and kTimeout ("would block")
  /// when the socket has no bytes ready. Never polls.
  Result<size_t> ReadNonBlocking(char* buf, size_t len);

  /// Non-blocking gather write of `head` then `body` (one sendmsg, so a
  /// response head and its payload slice leave without being joined):
  /// writes as much as the socket accepts and returns the count, or
  /// kTimeout ("would block") when the send buffer is full. Never polls.
  Result<size_t> WriteSome(std::string_view head, std::string_view body);

  /// Disables Nagle's algorithm. The paper (§2.2) notes HTTP pipelining
  /// interacts badly with Nagle; both our client and server disable it.
  Status SetNoDelay(bool enabled);

  /// Half-closes the write side (signals EOF to the peer).
  void ShutdownWrite();

  void Close();

  /// Local endpoint of a connected/bound socket.
  Result<SocketAddress> LocalAddress() const;

 private:
  int fd_ = -1;
};

/// Listening socket. Bind to port 0 to get an ephemeral port, then read it
/// back with `port()` — how the in-process test servers are wired up.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port`.
  static Result<TcpListener> Listen(uint16_t port, int backlog = 64);

  /// Accepts one connection. Blocks up to `timeout_micros` (0 = forever);
  /// times out with kTimeout so accept loops can poll a stop flag.
  Result<TcpSocket> Accept(int64_t timeout_micros = 0);

  /// Puts the listening fd in O_NONBLOCK mode (for reactor accept loops).
  Status SetNonBlocking(bool enabled);

  /// Accepts one connection without blocking; the returned socket is
  /// already in non-blocking mode. Returns kTimeout ("would block") when
  /// the accept queue is empty.
  Result<TcpSocket> AcceptNonBlocking();

  uint16_t port() const { return port_; }
  int fd() const { return fd_; }
  bool IsOpen() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace davix

#endif  // DAVIX_NET_TCP_SOCKET_H_
