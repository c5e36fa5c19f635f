#include "core/dav_posix.h"

#include <algorithm>

#include "common/logging.h"
#include "core/http_client.h"
#include "core/replica_set.h"
#include "xml/xml.h"

namespace davix {
namespace core {

Result<int> DavPosix::Open(const std::string& url,
                           const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(DavFile file, DavFile::Make(context_, url));
  if (params.metalink_mode != MetalinkMode::kDisabled &&
      !params.metalink_resolver.empty()) {
    // Resolve the resource's replica set once, up front: every read
    // through this descriptor — sequential, windowed, vectored — then
    // fails over (and stripes) across the set's health-ranked sources
    // mid-read, without refetching the Metalink. Best effort: a
    // federation that cannot answer leaves the descriptor single-source
    // with the legacy resolve-on-failure behaviour.
    Status resolved = file.ResolveReplicaSet(params);
    if (!resolved.ok()) {
      DAVIX_LOG(kDebug) << "no replica set for " << url << ": "
                        << resolved.ToString();
    }
  }
  DAVIX_ASSIGN_OR_RETURN(FileInfo info, file.Stat(params));
  BlockValidator validator;
  validator.etag = info.etag;
  validator.mtime_epoch_seconds = info.mtime_epoch_seconds;
  if (params.use_block_cache && context_->block_cache().enabled() &&
      params.cache_revalidation != CacheRevalidatePolicy::kNever) {
    // The existence Stat doubles as cache revalidation (kOnOpen, and
    // the first checkpoint of kAlways): blocks cached from an older
    // generation of the object are dropped before the first read.
    context_->block_cache().NoteValidator(
        BlockCache::UrlKey(file.url()), validator);
  }
  if (std::shared_ptr<ReplicaSet> set = file.replica_set()) {
    // The generation Open observed is the generation this descriptor
    // reads: replicas that later serve a different ETag are quarantined
    // and their bytes dropped, deterministically anchored here.
    set->SeedValidator(validator);
  }
  auto open_file = std::make_shared<OpenFile>();
  open_file->file = std::make_shared<DavFile>(std::move(file));
  open_file->params = params;
  open_file->size = info.size;
  MutexLock lock(mu_);
  int fd = next_fd_++;
  open_files_[fd] = std::move(open_file);
  return fd;
}

Result<std::shared_ptr<DavPosix::OpenFile>> DavPosix::Lookup(int fd) const {
  MutexLock lock(mu_);
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    return Status::InvalidArgument("bad file descriptor " +
                                   std::to_string(fd));
  }
  return it->second;
}

Result<std::string> DavPosix::Read(int fd, size_t count) {
  DAVIX_ASSIGN_OR_RETURN(std::shared_ptr<OpenFile> file, Lookup(fd));
  OpenFile* f = file.get();
  MutexLock lock(f->mu);
  if (f->cursor >= f->size || count == 0) return std::string();
  uint64_t want = std::min<uint64_t>(count, f->size - f->cursor);

  if (f->params.readahead_bytes == 0) {
    DAVIX_ASSIGN_OR_RETURN(
        std::string data, f->file->ReadPartial(f->cursor, want, f->params));
    f->cursor += data.size();
    return data;
  }
  return ReadWindowed(f, want);
}

Result<std::string> DavPosix::ReadWindowed(OpenFile* file, uint64_t want) {
  if (!file->stream) {
    ReadAheadStreamConfig config;
    config.chunk_bytes = file->params.readahead_bytes;
    config.window_chunks = file->params.readahead_window_chunks;
    config.file_size = file->size;
    // The fetch closure owns everything it touches: a Close (or even
    // DavPosix destruction) while chunks are in flight stays safe.
    std::shared_ptr<DavFile> dav = file->file;
    RequestParams params = file->params;
    if (params.use_block_cache && context_->block_cache().enabled() &&
        params.cache_revalidation != CacheRevalidatePolicy::kAlways) {
      // Warm chunks come straight from the block cache instead of
      // being scheduled as range-GETs; cold chunks are published into
      // it by the fetch's ReadPartial, so the next pass over the file
      // streams from memory. kAlways keeps the probe off: its contract
      // is a HEAD before any cache-served read, and only the fetch
      // path (ReadPartialVecAt) performs that revalidation.
      BlockCache* cache = &context_->block_cache();
      std::string key = BlockCache::UrlKey(dav->url());
      config.probe = [cache, key](uint64_t offset, uint64_t length,
                                  std::string* out) {
        return cache->TryReadFull(key, offset, length, out);
      };
    }
    // Each in-flight chunk arms its own deadline from the (unarmed)
    // copied params inside ReadPartial, so total_timeout_micros and
    // min_throughput_bytes_per_sec bound every chunk independently: a
    // wedged or trickling chunk times out (or stall-aborts) and fails
    // over on its own, instead of stalling the whole window behind it.
    file->stream = std::make_unique<ReadAheadStream>(
        [dav, params](uint64_t offset, uint64_t length) {
          return dav->ReadPartial(offset, length, params);
        },
        // Window 0 never schedules a task: leave the dispatcher unstarted.
        config.window_chunks > 0 ? &context_->dispatcher() : nullptr,
        config);
  }
  Result<std::string> out = file->stream->Read(file->cursor, want);
  if (out.ok()) file->cursor += out->size();
  return out;
}

Result<std::string> DavPosix::PRead(int fd, uint64_t offset, size_t count) {
  DAVIX_ASSIGN_OR_RETURN(std::shared_ptr<OpenFile> file, Lookup(fd));
  if (count == 0) return std::string();
  uint64_t size = file->size;
  if (offset >= size) return std::string();
  uint64_t want = std::min<uint64_t>(count, size - offset);
  return file->file->ReadPartial(offset, want, file->params);
}

Result<std::vector<std::string>> DavPosix::PReadVec(
    int fd, const std::vector<http::ByteRange>& ranges) {
  DAVIX_ASSIGN_OR_RETURN(std::shared_ptr<OpenFile> file, Lookup(fd));
  // Clamp ranges to EOF like preadv does.
  std::vector<http::ByteRange> clamped = ranges;
  for (http::ByteRange& r : clamped) {
    if (r.offset >= file->size) {
      r.length = 0;
    } else {
      r.length = std::min<uint64_t>(r.length, file->size - r.offset);
    }
  }
  return file->file->ReadPartialVec(clamped, file->params);
}

Result<uint64_t> DavPosix::LSeek(int fd, int64_t offset, int whence) {
  DAVIX_ASSIGN_OR_RETURN(std::shared_ptr<OpenFile> file, Lookup(fd));
  OpenFile* f = file.get();
  MutexLock lock(f->mu);
  int64_t base;
  switch (whence) {
    case 0:  // SEEK_SET
      base = 0;
      break;
    case 1:  // SEEK_CUR
      base = static_cast<int64_t>(f->cursor);
      break;
    case 2:  // SEEK_END
      base = static_cast<int64_t>(f->size);
      break;
    default:
      return Status::InvalidArgument("bad whence " + std::to_string(whence));
  }
  int64_t target = base + offset;
  if (target < 0) {
    return Status::InvalidArgument("seek before start of file");
  }
  if (f->stream && static_cast<uint64_t>(target) != f->cursor &&
      !f->stream->Covers(static_cast<uint64_t>(target))) {
    // Out-of-window seek: eagerly cancel the prefetch, since the
    // repositioned cursor makes every in-flight chunk stale and
    // abandoning them now stops them from competing with the post-seek
    // reads for the link. The next Read re-seeds at the new cursor. A
    // target still inside the window keeps the prefetch alive — the
    // next Read just drops the skipped chunks.
    f->stream->Invalidate();
  }
  f->cursor = static_cast<uint64_t>(target);
  return f->cursor;
}

Status DavPosix::Close(int fd) {
  MutexLock lock(mu_);
  if (open_files_.erase(fd) == 0) {
    return Status::InvalidArgument("bad file descriptor " +
                                   std::to_string(fd));
  }
  return Status::OK();
}

Result<FileInfo> DavPosix::Stat(const std::string& url,
                                const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(DavFile file, DavFile::Make(context_, url));
  return file.Stat(params);
}

Status DavPosix::Unlink(const std::string& url, const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(DavFile file, DavFile::Make(context_, url));
  return file.Delete(params);
}

Status DavPosix::MkDir(const std::string& url, const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(Uri uri, Uri::Parse(url));
  HttpClient client(context_);
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client.Execute(uri, http::Method::kMkcol, params));
  return HttpStatusToStatus(exchange.response.status_code, "MKCOL " + url);
}

Status DavPosix::Rename(const std::string& url,
                        const std::string& destination_path,
                        const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(Uri uri, Uri::Parse(url));
  HttpClient client(context_);
  http::HeaderMap headers;
  headers.Set("Destination", destination_path);
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client.Execute(uri, http::Method::kMove, params, std::string(),
                     &headers));
  return HttpStatusToStatus(exchange.response.status_code, "MOVE " + url);
}

Result<std::vector<std::string>> DavPosix::ListDir(
    const std::string& url, const RequestParams& params) {
  DAVIX_ASSIGN_OR_RETURN(Uri uri, Uri::Parse(url));
  HttpClient client(context_);
  http::HeaderMap headers;
  headers.Set("Depth", "1");
  DAVIX_ASSIGN_OR_RETURN(
      HttpClient::Exchange exchange,
      client.Execute(uri, http::Method::kPropfind, params, std::string(),
                     &headers));
  DAVIX_RETURN_IF_ERROR(HttpStatusToStatus(exchange.response.status_code,
                                           "PROPFIND " + url));
  DAVIX_ASSIGN_OR_RETURN(auto root, xml::ParseXml(exchange.response.body));

  // The first <response> is the collection itself; children follow.
  std::vector<std::string> names;
  std::vector<const xml::XmlNode*> responses = root->Children("response");
  std::string base_path = uri.path();
  if (base_path.size() > 1 && base_path.back() == '/') base_path.pop_back();
  for (const xml::XmlNode* response : responses) {
    std::string href = response->ChildText("href");
    Result<std::string> decoded = UrlDecode(href);
    std::string path = decoded.ok() ? *decoded : href;
    while (path.size() > 1 && path.back() == '/') path.pop_back();
    if (path == base_path || path.empty()) continue;
    size_t slash = path.rfind('/');
    names.push_back(slash == std::string::npos ? path
                                               : path.substr(slash + 1));
  }
  return names;
}

size_t DavPosix::OpenCount() const {
  MutexLock lock(mu_);
  return open_files_.size();
}

}  // namespace core
}  // namespace davix
