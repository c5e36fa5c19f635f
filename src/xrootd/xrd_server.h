#ifndef DAVIX_XROOTD_XRD_SERVER_H_
#define DAVIX_XROOTD_XRD_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "httpd/object_store.h"
#include "httpd/server.h"
#include "netsim/fault_injector.h"
#include "netsim/link_profile.h"

namespace davix {
namespace xrootd {

/// Configuration of the xrootd-like data server.
struct XrdServerConfig {
  uint16_t port = 0;
  netsim::LinkProfile link = netsim::LinkProfile::Loopback();
  uint64_t fault_seed = 1;
  int64_t idle_timeout_micros = 30'000'000;
  /// Extra round trips consumed by the login/auth handshake on top of the
  /// TCP handshake. The paper's LAN result (HTTP 0.7 % faster) reflects
  /// the heavier connection setup of the HPC protocol.
  int64_t login_rtts = 2;
};

/// xrootd protocol counters (thread-safe). Connection and request
/// counts are the reactor's: XrdServer::stats().
struct XrdServerStats {
  std::atomic<uint64_t> read_requests{0};
  std::atomic<uint64_t> readv_requests{0};
  std::atomic<uint64_t> ranges_served{0};
  std::atomic<uint64_t> bytes_served{0};
};

/// Baseline data server speaking the framed protocol of frame.h, as a
/// codec on the httpd::HttpServer reactor.
///
/// Requests are answered as they complete, in any order — the
/// protocol-level multiplexing (no head-of-line blocking) that §2.2
/// credits XRootD with. Login, open, stat and close are answered from
/// the reactor, which owns the open-file table; reads run on the worker
/// pool and answer with a frame whose payload is a slice of the stored
/// object. Shaping, shedding, timeouts and drain are the reactor's.
///
/// Serves objects from the same ObjectStore type as the HTTP server, so
/// benchmarks can point both protocols at identical content.
///
/// Thread-safe: yes — Stop() may be called concurrently from any number
/// of threads; each returns only once teardown has completed.
class XrdServer {
 public:
  static Result<std::unique_ptr<XrdServer>> Start(
      XrdServerConfig config, std::shared_ptr<httpd::ObjectStore> store);

  XrdServer(const XrdServer&) = delete;
  XrdServer& operator=(const XrdServer&) = delete;

  void Stop() { core_->Stop(); }

  uint16_t port() const { return core_->port(); }
  /// "root://127.0.0.1:<port>".
  std::string BaseUrl() const {
    return "root://127.0.0.1:" + std::to_string(port());
  }

  /// Connection, request and overload counters of the reactor.
  httpd::ServerStats& stats() { return core_->stats(); }
  XrdServerStats& xrd_stats() { return stats_; }
  netsim::FaultInjector& faults() { return core_->faults(); }

 private:
  explicit XrdServer(XrdServerConfig config) : config_(std::move(config)) {}

  XrdServerConfig config_;
  XrdServerStats stats_;
  /// Declared last: destroyed (stopped) first, while the config and
  /// counters its codecs point at are still alive.
  std::unique_ptr<httpd::HttpServer> core_;
};

}  // namespace xrootd
}  // namespace davix

#endif  // DAVIX_XROOTD_XRD_SERVER_H_
