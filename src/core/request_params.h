#ifndef DAVIX_CORE_REQUEST_PARAMS_H_
#define DAVIX_CORE_REQUEST_PARAMS_H_

#include <cstdint>
#include <string>

#include "core/deadline.h"

namespace davix {
namespace core {

/// How davix exploits Metalink replica information (§2.4 of the paper).
enum class MetalinkMode {
  /// Never consult Metalink: a dead server is an I/O error.
  kDisabled,
  /// "Fail-over" (davix's default): on failure, fetch the Metalink for
  /// the resource and walk its replicas one by one until a read succeeds.
  kFailover,
  /// "Multi-stream": fetch the Metalink up front and download chunks of
  /// the resource from several replicas in parallel.
  kMultiStream,
};

/// Which wire transport carries an exchange — the §2.2 trade-off made
/// selectable per request.
enum class TransportKind {
  /// Pooled HTTP/1.1 keep-alive over the SessionPool: one socket per
  /// in-flight exchange, recycled across requests (davix's choice, the
  /// default, wire-compatible with stock HTTP infrastructure).
  kPooled,
  /// Framed multiplexing (the SPDY-style alternative §2.2 rejects):
  /// many concurrent exchanges interleaved as streams over a small,
  /// bounded set of connections per host (core::MuxTransport). Requires
  /// a mux-speaking server (muxhttp::MuxServer); deadline, retry,
  /// Retry-After and circuit-breaker semantics are identical to pooled.
  kMux,
};

/// Revalidation policy of the per-Context block cache: when a read path
/// spends a wire round trip confirming that cached blocks still match
/// the remote object before serving them.
enum class CacheRevalidatePolicy {
  /// Trust cached blocks unconditionally. Fills still invalidate on
  /// validator mismatch, so the cache converges on the newest observed
  /// generation — it just never pays a round trip purely to check.
  kNever,
  /// Default: DavPosix::Open's existence Stat doubles as a revalidation
  /// — its ETag/Last-Modified are pushed into the cache, dropping stale
  /// blocks before the descriptor's first read. Costs nothing (the Stat
  /// happens anyway); reads through a long-lived descriptor do not
  /// revalidate again.
  kOnOpen,
  /// Every vectored/partial read that could be served from the cache
  /// first issues a HEAD and invalidates on mismatch. Strongest
  /// freshness, one extra round trip per read that has cached blocks.
  kAlways,
};

/// Per-request tuning knobs, in the spirit of davix's RequestParams.
/// Everything has a sensible default; benchmarks override selectively.
///
/// Ownership / thread-safety: a plain value object, copied freely into
/// requests and background fetch closures. Not synchronised — share by
/// copy, not by reference, when handing to concurrent operations.
/// Knob conventions: `0` on a size/count knob means "auto" where an
/// adaptive default exists (see the field comments) and "disabled" on
/// feature gates such as `readahead_bytes`.
struct RequestParams {
  // --- timeouts & robustness -------------------------------------------
  /// TCP connect timeout.
  int64_t connect_timeout_micros = 15'000'000;
  /// Per-exchange read timeout (first byte to last byte of a response).
  int64_t operation_timeout_micros = 120'000'000;
  /// Follow 3xx redirects automatically. When disabled, the redirect
  /// response itself is returned to the caller.
  bool follow_redirects = true;
  /// Maximum redirects followed per request.
  int max_redirects = 8;
  /// Retries on retryable transport errors (fresh connection each time).
  int max_retries = 2;
  /// Base of the full-jitter exponential backoff between retries: retry
  /// n sleeps a uniform draw from [0, min(cap, base * 2^n)] (see
  /// core::Backoff and docs/RESILIENCE.md).
  int64_t retry_delay_micros = 20'000;

  // --- end-to-end resilience (docs/RESILIENCE.md) ----------------------
  /// Total wall-clock budget for one logical operation, spanning every
  /// connect, write, read, retry, redirect and replica fail-over it
  /// makes. Entry points arm `deadline` from this once; further layers
  /// only narrow it. 0 (default) = no end-to-end budget (per-step
  /// connect/operation timeouts still apply).
  int64_t total_timeout_micros = 0;
  /// The armed monotonic deadline carried through the layers. Normally
  /// left unarmed by callers — ArmDeadline() sets it from
  /// `total_timeout_micros` — but a caller holding one budget across
  /// several operations may arm it directly.
  Deadline deadline;
  /// Ceiling of one jittered retry sleep. 0 = default (1 s).
  int64_t retry_backoff_max_micros = 0;
  /// Seed of the retry-jitter Rng, for deterministic delays under test.
  /// 0 (default) = derive a per-call seed (decorrelated across requests).
  uint64_t retry_jitter_seed = 0;
  /// Longest server-sent Retry-After honored on 503/429 (also capped by
  /// the remaining deadline); longer asks return the response to the
  /// caller instead of sleeping. 0 = default (30 s).
  int64_t retry_after_max_micros = 0;
  /// Consecutive transport failures that open a host's circuit breaker
  /// (core::CircuitBreaker, consulted by SessionPool::Acquire; open
  /// hosts fast-fail without a connect attempt until a cooldown probe
  /// succeeds). 0 = default (4); < 0 disables the breaker.
  int breaker_failure_threshold = 0;
  /// Open → half-open probe delay of the circuit breaker. 0 = default
  /// (2 s).
  int64_t breaker_cooldown_micros = 0;
  /// Minimum acceptable throughput for sized chunk/batch reads (the
  /// multi-source chunk scheduler and the vectored batch dispatch): a
  /// fetch is given a deadline of bytes/rate plus slack, so a trickling
  /// server is aborted (counted as a stall_abort) and the read fails
  /// over instead of wedging. 0 (default) = no stall watchdog.
  uint64_t min_throughput_bytes_per_sec = 0;

  // --- §2.2: session pool ----------------------------------------------
  /// Reuse pooled keep-alive connections. Disabling reproduces the
  /// HTTP/1.0 one-connection-per-request behaviour the paper shows to be
  /// crippled by TCP slow start.
  bool keep_alive = true;

  // --- §2.2: transport seam --------------------------------------------
  /// Which transport carries this request's exchanges. kPooled (default)
  /// is unchanged HTTP/1.1 over the session pool; kMux multiplexes
  /// exchanges as framed streams over the Context's shared MuxTransport.
  /// Every hot path (vectored batches, read-ahead, replica striping)
  /// funnels through HttpClient::Execute, so flipping this knob moves
  /// them all.
  TransportKind transport = TransportKind::kPooled;
  /// kMux: framed connections kept per host before new exchanges wait
  /// for a stream slot instead of connecting. 0 = default (2).
  size_t mux_max_connections_per_host = 0;
  /// kMux: concurrent streams multiplexed on one connection. 0 =
  /// default (64).
  size_t mux_max_streams_per_connection = 0;

  // --- §2.3: vectored I/O ----------------------------------------------
  /// Maximum ranges packed into one multi-range request; larger vectors
  /// are split into several wire queries.
  size_t max_ranges_per_request = 64;
  /// Adjacent requested ranges closer than this are coalesced into one
  /// wire range (data-sieving: read the gap, discard it).
  uint64_t vector_gap_bytes = 4096;
  /// Multi-range batches dispatched concurrently, each on its own pooled
  /// session (the parallel vectored dispatcher). 1 restores the serial
  /// one-connection behaviour; 0 = auto, bounded by the context pool's
  /// SessionPoolConfig::max_idle_per_host so the connection burst can be
  /// parked and recycled afterwards instead of being torn down.
  size_t max_parallel_range_requests = 0;
  /// Multi-stream chunking for vectored reads (the §2.4 multi-stream idea
  /// applied to the §2.3 vector path): when > 0, coalesced wire ranges
  /// larger than this are re-split at user-range boundaries and batches
  /// are capped at roughly this many bytes, so one large contiguous read
  /// fans out across parallel sessions instead of being throughput-bound
  /// by a single connection's congestion window. 0 (default) keeps the
  /// classic one-wire-range-per-contiguous-run behaviour.
  uint64_t vector_parallel_chunk_bytes = 0;

  // --- §2.4: metalink --------------------------------------------------
  MetalinkMode metalink_mode = MetalinkMode::kFailover;
  /// Base URL of the federation / redirection service that serves
  /// Metalink documents (DynaFed-like). When empty, the original host is
  /// asked for the Metalink itself (davix's "?metalink" convention).
  std::string metalink_resolver;
  /// Multi-stream: bytes per chunk fetched from one replica.
  uint64_t multistream_chunk_bytes = 1 << 20;
  /// Multi-stream: parallel streams ceiling.
  size_t multistream_max_streams = 4;
  /// Replica health (core::ReplicaSet): consecutive failures before a
  /// source is quarantined. 0 = default (2).
  int replica_quarantine_failures = 0;
  /// Replica health: how long a timed quarantine lasts; a source whose
  /// ETag disagrees with the set's agreed generation is quarantined for
  /// the life of the set instead. 0 = default (30 s).
  int64_t replica_quarantine_micros = 0;

  // --- block cache -------------------------------------------------------
  /// Consult and fill the per-Context block cache (when the Context was
  /// built with a non-zero cache capacity). Disabling bypasses the cache
  /// for this request only: nothing is served from it and nothing is
  /// inserted, so the wire behaviour is bit-identical to a cache-less
  /// Context.
  bool use_block_cache = true;
  /// When to spend a round trip double-checking that cached blocks still
  /// describe the live object (see CacheRevalidatePolicy). Independent
  /// of this policy, every network fill compares the response's
  /// ETag/Last-Modified against the cached generation and drops stale
  /// blocks on mismatch.
  CacheRevalidatePolicy cache_revalidation = CacheRevalidatePolicy::kOnOpen;

  // --- authentication ----------------------------------------------------
  /// HTTP Basic credentials sent with every request when `username` is
  /// non-empty (the grid deployments behind davix use X.509; Basic is
  /// this repository's stand-in).
  std::string username;
  std::string password;

  // --- misc --------------------------------------------------------------
  /// Sequential read-ahead for DavPosix::Read (0 = none). Kept off by
  /// default: the paper's davix relies on vectored reads instead of the
  /// sliding-window buffering XRootD uses; turning this on is the E7
  /// ablation. This is the chunk size of the descriptor's
  /// core::ReadAheadStream; `readahead_window_chunks` sets its depth.
  uint64_t readahead_bytes = 0;
  /// Sliding-window depth for DavPosix::Read: up to this many
  /// `readahead_bytes`-sized range-GETs are kept in flight ahead of the
  /// consumer, each on its own pooled session, dispatched on the
  /// per-Context pool — the XRootD-style window that hides per-chunk
  /// round trips on high-RTT paths. 0 (default) is the synchronous mode:
  /// one chunk fetched on the reading thread when the cursor reaches it,
  /// nothing fetched ahead. Ignored while `readahead_bytes` == 0.
  size_t readahead_window_chunks = 0;
  std::string user_agent = "libdavix-repro/1.0";

  /// Arms `deadline` from `total_timeout_micros` unless already armed.
  /// Operation entry points (HttpClient::Execute, DavFile::
  /// ReadPartialVec, ReplicaSet::Stream, DavFile::WithFailover) call
  /// this on their private copy so one budget spans the whole walk.
  void ArmDeadline() {
    if (!deadline.armed() && total_timeout_micros > 0) {
      deadline = Deadline::After(total_timeout_micros);
    }
  }
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_REQUEST_PARAMS_H_
