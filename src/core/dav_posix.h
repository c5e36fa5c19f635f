#ifndef DAVIX_CORE_DAV_POSIX_H_
#define DAVIX_CORE_DAV_POSIX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "core/dav_file.h"
#include "core/read_ahead_stream.h"

namespace davix {
namespace core {

/// POSIX-like remote file access, mirroring davix's DavPosix facade: the
/// API an I/O framework (like the ROOT plugin, TDavixFile) binds to.
///
/// Descriptors are plain ints handed out by Open.
///
/// Thread-safe: yes — concurrent PRead calls on the same descriptor
/// proceed in parallel, each drawing its own pooled connection (§2.2
/// dispatch), while cursor-moving calls (Read/LSeek) serialize per
/// descriptor.
///
/// Ownership: holds a raw pointer to the Context (which must outlive
/// it) and shares ownership of each open file with any in-flight
/// read-ahead fetches, so Close — and even DavPosix destruction — is
/// safe while chunks are on the wire.
///
/// Caching: every read path consults and fills the Context's block
/// cache when one is configured (see RequestParams::use_block_cache
/// and cache_revalidation; Open's Stat doubles as revalidation under
/// the default kOnOpen policy).
class DavPosix {
 public:
  /// `context` must outlive this object.
  explicit DavPosix(Context* context) : context_(context) {}

  DavPosix(const DavPosix&) = delete;
  DavPosix& operator=(const DavPosix&) = delete;

  /// Opens `url` for reading; verifies existence with a Stat.
  Result<int> Open(const std::string& url, const RequestParams& params = {});

  /// Sequential read of up to `count` bytes at the descriptor's cursor.
  /// Returns fewer bytes only at EOF (empty string = EOF). When
  /// RequestParams::readahead_bytes is set, reads are served from a
  /// core::ReadAheadStream of that chunk size: synchronous (one chunk
  /// fetched when the cursor reaches it) by default, or — when
  /// RequestParams::readahead_window_chunks > 0 — a sliding window that
  /// keeps that many chunk fetches in flight on the Context's dispatcher
  /// pool.
  Result<std::string> Read(int fd, size_t count);

  /// Positional read, no cursor interaction.
  Result<std::string> PRead(int fd, uint64_t offset, size_t count);

  /// §2.3 vectored positional read; results[i] are the bytes of
  /// ranges[i]. This is the call TTreeCache-style clients batch into.
  Result<std::vector<std::string>> PReadVec(
      int fd, const std::vector<http::ByteRange>& ranges);

  /// Repositions the cursor. `whence` follows lseek: SEEK_SET/CUR/END
  /// (0/1/2). Returns the new absolute offset.
  Result<uint64_t> LSeek(int fd, int64_t offset, int whence);

  Status Close(int fd);

  /// Remote metadata without opening.
  Result<FileInfo> Stat(const std::string& url,
                        const RequestParams& params = {});

  /// Namespace operations (WebDAV verbs).
  Status Unlink(const std::string& url, const RequestParams& params = {});
  Status MkDir(const std::string& url, const RequestParams& params = {});
  Status Rename(const std::string& url, const std::string& destination_path,
                const RequestParams& params = {});

  /// Directory listing via PROPFIND Depth: 1; returns child names.
  Result<std::vector<std::string>> ListDir(const std::string& url,
                                           const RequestParams& params = {});

  /// Number of descriptors currently open.
  size_t OpenCount() const;

 private:
  struct OpenFile {
    /// Shared so in-flight read-ahead fetches can keep the remote file
    /// (and its HttpClient) alive across a Close that races them.
    /// `file`, `params` and `size` are immutable after Open — only the
    /// cursor-moving state needs the descriptor lock.
    std::shared_ptr<DavFile> file;
    RequestParams params;
    uint64_t size = 0;
    Mutex mu;
    uint64_t cursor GUARDED_BY(mu) = 0;
    // Read-ahead window (params.readahead_bytes > 0), created lazily on
    // the first buffered Read.
    std::unique_ptr<ReadAheadStream> stream GUARDED_BY(mu);
  };

  Result<std::shared_ptr<OpenFile>> Lookup(int fd) const;

  /// Serves Read from the read-ahead window.
  Result<std::string> ReadWindowed(OpenFile* file, uint64_t want)
      REQUIRES(file->mu);

  Context* context_;
  mutable Mutex mu_;
  std::map<int, std::shared_ptr<OpenFile>> open_files_ GUARDED_BY(mu_);
  int next_fd_ GUARDED_BY(mu_) = 3;
};

}  // namespace core
}  // namespace davix

#endif  // DAVIX_CORE_DAV_POSIX_H_
