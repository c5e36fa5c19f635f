#ifndef DAVIX_COMMON_STATS_H_
#define DAVIX_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace davix {

/// Accumulates samples (latencies, run times) and reports summary
/// statistics; the measurement core of the benchmark harness.
class SampleStats {
 public:
  void Add(double value);

  size_t count() const { return samples_.size(); }
  double Mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for < 2 samples.
  double Stddev() const;
  double Min() const;
  double Max() const;
  /// Linear-interpolation percentile, q in [0, 100].
  double Percentile(double q) const;

  /// "mean=12.3 sd=0.4 min=11.8 max=13.1 n=5" with the given unit suffix.
  std::string Summary(const std::string& unit) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Counter set shared by clients/servers to report I/O behaviour:
/// the paper's claims are about *numbers of operations and connections*,
/// so those are first-class measurables here.
struct IoCounters {
  uint64_t requests = 0;           ///< protocol-level requests issued
  uint64_t network_round_trips = 0;///< request/response exchanges on the wire
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t connections_opened = 0;
  uint64_t connections_reused = 0;
  uint64_t redirects_followed = 0;
  uint64_t retries = 0;           ///< retry attempts (backoff or Retry-After)
  uint64_t retry_after_honored = 0;///< 503/429 retries paced by Retry-After
  uint64_t deadline_expirations = 0;///< operations aborted by total budget
  uint64_t stall_aborts = 0;       ///< fetches aborted by the throughput watchdog
  uint64_t breaker_opens = 0;      ///< circuit breakers tripped open
  uint64_t breaker_closes = 0;     ///< breakers closed by a successful probe
  uint64_t breaker_fast_fails = 0; ///< acquires refused by an open breaker
  uint64_t breaker_half_open_probes = 0; ///< half-open probe slots handed out
  uint64_t replica_failovers = 0;
  uint64_t replica_quarantines = 0;///< replicas quarantined (health/generation)
  uint64_t replica_validator_rejects = 0; ///< responses dropped: wrong generation
  uint64_t multisource_chunks = 0; ///< striped chunk range-GETs put on the wire
  uint64_t multisource_cache_chunks = 0;  ///< striped chunks served by the cache
  /// Ranged GETs put on the wire by the vectored read path: one per
  /// batch of a ReadPartialVec dispatch, so a single-range ReadPartial
  /// counts too. Multi-range requests alone are counted server-side
  /// (httpd::DavHandlerStats::multirange_requests).
  uint64_t vector_queries = 0;
  uint64_t ranges_requested = 0;   ///< wire ranges inside those GETs
  uint64_t cache_hits = 0;         ///< block-cache lookups that served bytes
  uint64_t cache_misses = 0;       ///< block-cache lookups that went to the wire
  uint64_t cache_evictions = 0;    ///< blocks evicted by the cache budget
  uint64_t cache_bytes_saved = 0;  ///< payload bytes served from cache, not wire
  uint64_t mux_connections_opened = 0;  ///< framed mux connections opened
  uint64_t mux_connections_lost = 0;    ///< mux connections torn down by errors
  uint64_t mux_streams_opened = 0;      ///< exchanges multiplexed as streams
  uint64_t mux_streams_reset = 0;       ///< streams ended by RST / cancel
  uint64_t mux_backpressure_waits = 0;  ///< waits for a free mux stream slot

  void Reset() { *this = IoCounters{}; }
  std::string ToString() const;
};

}  // namespace davix

#endif  // DAVIX_COMMON_STATS_H_
