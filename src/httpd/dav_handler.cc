#include "httpd/dav_handler.h"

#include <array>

#include "common/base64.h"
#include "common/checksum.h"
#include "common/string_util.h"
#include "common/uri.h"
#include "http/multipart.h"
#include "http/range.h"
#include "xml/xml.h"

namespace davix {
namespace httpd {

std::string RequestPath(const http::HttpRequest& request) {
  std::string_view target = request.target;
  size_t q = target.find('?');
  if (q != std::string_view::npos) target = target.substr(0, q);
  Result<std::string> decoded = UrlDecode(target);
  return decoded.ok() ? *decoded : std::string(target);
}

void DavHandler::Register(Router* router, const std::string& prefix) {
  // Share ownership with the route when possible so the handler cannot
  // dangle behind a long-lived router.
  std::shared_ptr<DavHandler> self = weak_from_this().lock();
  router->HandleAll(prefix,
                    [this, self](const http::HttpRequest& request,
                                 http::HttpResponse* response) {
                      Handle(request, response);
                    });
}

void DavHandler::Handle(const http::HttpRequest& request,
                        http::HttpResponse* response) {
  switch (request.method) {
    case http::Method::kGet:
      stats_.get_requests.fetch_add(1, std::memory_order_relaxed);
      DoGet(request, response, /*head_only=*/false);
      return;
    case http::Method::kHead:
      stats_.head_requests.fetch_add(1, std::memory_order_relaxed);
      DoGet(request, response, /*head_only=*/true);
      return;
    case http::Method::kPut:
      stats_.put_requests.fetch_add(1, std::memory_order_relaxed);
      DoPut(request, response);
      return;
    case http::Method::kDelete:
      stats_.delete_requests.fetch_add(1, std::memory_order_relaxed);
      DoDelete(request, response);
      return;
    case http::Method::kMkcol:
      DoMkcol(request, response);
      return;
    case http::Method::kMove:
      DoMove(request, response);
      return;
    case http::Method::kCopy:
      DoCopy(request, response);
      return;
    case http::Method::kOptions:
      DoOptions(response);
      return;
    case http::Method::kPropfind:
      stats_.propfind_requests.fetch_add(1, std::memory_order_relaxed);
      DoPropfind(request, response);
      return;
    default:
      response->status_code = 405;
      response->headers.Set("Allow",
                            "GET, HEAD, PUT, DELETE, OPTIONS, MKCOL, "
                            "PROPFIND, MOVE");
  }
}

void DavHandler::DoGet(const http::HttpRequest& request,
                       http::HttpResponse* response, bool head_only) {
  std::string path = RequestPath(request);
  Result<std::shared_ptr<const StoredObject>> object = store_->Get(path);
  if (!object.ok()) {
    response->status_code = 404;
    response->body = head_only ? "" : object.status().ToString() + "\n";
    return;
  }
  const StoredObject& obj = **object;
  const uint64_t size = obj.data.size();

  response->headers.Set("ETag", obj.etag);
  response->headers.Set("Last-Modified",
                        http::FormatHttpDate(obj.mtime_epoch_seconds));
  response->headers.Set("Accept-Ranges", "bytes");

  // RFC 3230 instance digests: "Want-Digest: md5" gets the whole-entity
  // md5 back, which davix uses to verify downloads (davix-checksum).
  if (std::optional<std::string> want = request.headers.Get("Want-Digest")) {
    if (want->find("md5") != std::string::npos) {
      Md5 md5;
      md5.Update(obj.data);
      std::array<uint8_t, 16> digest = md5.Digest();
      response->headers.Set(
          "Digest",
          "md5=" + Base64Encode(std::string_view(
                       reinterpret_cast<char*>(digest.data()),
                       digest.size())));
    }
  }

  std::optional<std::string> range_header = request.headers.Get("Range");
  if (range_header && !head_only) {
    Result<std::vector<http::ByteRange>> ranges =
        http::ParseRangeHeader(*range_header, size);
    if (!ranges.ok()) {
      response->status_code = 416;
      response->headers.Set("Content-Range",
                            "bytes */" + std::to_string(size));
      return;
    }
    if (ranges->size() > 1 && !support_multirange_) {
      // Server without multi-range support: serve the full entity (200),
      // which is standards-compliant (Range is a SHOULD).
      response->status_code = 200;
      response->headers.Set("Content-Type", "application/octet-stream");
      response->SetBodySlice(*object, obj.data);
      stats_.bytes_served.fetch_add(size, std::memory_order_relaxed);
      return;
    }
    if (max_ranges_ > 0 && ranges->size() > max_ranges_) {
      response->status_code = 416;
      response->headers.Set("Content-Range",
                            "bytes */" + std::to_string(size));
      return;
    }
    if (ranges->size() == 1) {
      stats_.range_requests.fetch_add(1, std::memory_order_relaxed);
      stats_.ranges_served.fetch_add(1, std::memory_order_relaxed);
      const http::ByteRange& r = (*ranges)[0];
      response->status_code = 206;
      response->headers.Set("Content-Type", "application/octet-stream");
      response->headers.Set("Content-Range",
                            http::FormatContentRange(r, size));
      response->SetBodySlice(
          *object, std::string_view(obj.data).substr(r.offset, r.length));
      stats_.bytes_served.fetch_add(r.length, std::memory_order_relaxed);
      return;
    }
    // Multi-range: 206 with multipart/byteranges body (§2.3's wire form).
    stats_.multirange_requests.fetch_add(1, std::memory_order_relaxed);
    stats_.ranges_served.fetch_add(ranges->size(), std::memory_order_relaxed);
    std::vector<http::BytesPart> parts;
    parts.reserve(ranges->size());
    for (const http::ByteRange& r : *ranges) {
      http::BytesPart part;
      part.range = r;
      part.total_size = size;
      part.data = obj.data.substr(r.offset, r.length);
      stats_.bytes_served.fetch_add(r.length, std::memory_order_relaxed);
      parts.push_back(std::move(part));
    }
    std::string boundary = http::GenerateBoundary(
        parts, boundary_salt_.fetch_add(1, std::memory_order_relaxed));
    response->status_code = 206;
    response->headers.Set(
        "Content-Type", "multipart/byteranges; boundary=" + boundary);
    response->body = http::BuildMultipartBody(parts, boundary);
    return;
  }

  response->status_code = 200;
  response->headers.Set("Content-Type", "application/octet-stream");
  response->headers.Set("Content-Length", std::to_string(size));
  if (!head_only) {
    // The object is immutable: serve a refcounted view of it, which the
    // server writes straight from the store's memory.
    response->SetBodySlice(*object, obj.data);
    stats_.bytes_served.fetch_add(size, std::memory_order_relaxed);
  }
}

void DavHandler::DoPut(const http::HttpRequest& request,
                       http::HttpResponse* response) {
  std::string path = RequestPath(request);
  bool existed = store_->Put(path, request.body);
  response->status_code = existed ? 204 : 201;
}

void DavHandler::DoDelete(const http::HttpRequest& request,
                          http::HttpResponse* response) {
  std::string path = RequestPath(request);
  Status st = store_->Delete(path);
  response->status_code = st.ok() ? 204 : 404;
}

void DavHandler::DoMkcol(const http::HttpRequest& request,
                         http::HttpResponse* response) {
  std::string path = RequestPath(request);
  Status st = store_->MakeCollection(path);
  response->status_code = st.ok() ? 201 : 409;
}

void DavHandler::DoMove(const http::HttpRequest& request,
                        http::HttpResponse* response) {
  std::string from = RequestPath(request);
  std::optional<std::string> destination =
      request.headers.Get("Destination");
  if (!destination) {
    response->status_code = 400;
    response->body = "MOVE requires Destination header\n";
    return;
  }
  std::string to = *destination;
  // Destination may be an absolute URL; keep just the path.
  if (to.find("://") != std::string::npos) {
    Result<Uri> uri = Uri::Parse(to);
    if (!uri.ok()) {
      response->status_code = 400;
      return;
    }
    to = uri->path();
  }
  Status st = store_->Move(from, to);
  response->status_code = st.ok() ? 201 : 404;
}

void DavHandler::DoCopy(const http::HttpRequest& request,
                        http::HttpResponse* response) {
  std::string from = RequestPath(request);
  std::optional<std::string> destination = request.headers.Get("Destination");
  if (!destination) {
    response->status_code = 400;
    response->body = "COPY requires Destination header\n";
    return;
  }
  std::string to = *destination;
  if (to.find("://") != std::string::npos) {
    Result<Uri> uri = Uri::Parse(to);
    if (!uri.ok()) {
      response->status_code = 400;
      return;
    }
    to = uri->path();
  }
  Status st = store_->Copy(from, to);
  response->status_code = st.ok() ? 201 : 404;
}

void DavHandler::DoOptions(http::HttpResponse* response) {
  response->status_code = 200;
  response->headers.Set("Allow",
                        "GET, HEAD, PUT, DELETE, OPTIONS, MKCOL, PROPFIND, "
                        "MOVE, COPY");
  response->headers.Set("DAV", "1");
  response->headers.Set("Accept-Ranges", "bytes");
}

namespace {

/// Appends one <D:response> element describing `path`.
void AppendPropfindResponse(xml::XmlNode* multistatus, const std::string& path,
                            const ObjectMeta& meta) {
  xml::XmlNode* resp = multistatus->AddChild("D:response");
  resp->AddChild("D:href")->set_text(UrlEncodePath(path));
  xml::XmlNode* propstat = resp->AddChild("D:propstat");
  xml::XmlNode* prop = propstat->AddChild("D:prop");
  if (meta.is_collection) {
    prop->AddChild("D:resourcetype")->AddChild("D:collection");
  } else {
    prop->AddChild("D:resourcetype");
    prop->AddChild("D:getcontentlength")
        ->set_text(std::to_string(meta.size));
    if (!meta.etag.empty()) prop->AddChild("D:getetag")->set_text(meta.etag);
  }
  prop->AddChild("D:getlastmodified")
      ->set_text(http::FormatHttpDate(meta.mtime_epoch_seconds));
  propstat->AddChild("D:status")->set_text("HTTP/1.1 200 OK");
}

}  // namespace

void DavHandler::DoPropfind(const http::HttpRequest& request,
                            http::HttpResponse* response) {
  std::string path = RequestPath(request);
  Result<ObjectMeta> meta = store_->Stat(path);
  if (!meta.ok()) {
    response->status_code = 404;
    return;
  }
  std::string depth = request.headers.Get("Depth").value_or("1");

  xml::XmlNode multistatus("D:multistatus");
  multistatus.SetAttribute("xmlns:D", "DAV:");
  AppendPropfindResponse(&multistatus, path, *meta);

  if (meta->is_collection && depth != "0") {
    Result<std::vector<std::string>> children = store_->ListChildren(path);
    if (children.ok()) {
      std::string base = path == "/" ? "/" : path + "/";
      for (const std::string& name : *children) {
        std::string child_path = base + name;
        Result<ObjectMeta> child_meta = store_->Stat(child_path);
        if (child_meta.ok()) {
          AppendPropfindResponse(&multistatus, child_path, *child_meta);
        }
      }
    }
  }

  response->status_code = 207;
  response->headers.Set("Content-Type", "application/xml; charset=utf-8");
  response->body = "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n" +
                   multistatus.Serialize(1);
}

}  // namespace httpd
}  // namespace davix
