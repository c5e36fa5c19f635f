// M1: microbenchmarks of the HTTP wire layer — the per-request CPU costs
// that davix's session recycling amortises. google-benchmark based, with
// the repo-wide --smoke/--json contract via micro_bench_util.h.

#include <benchmark/benchmark.h>

#include "bench/micro_bench_util.h"
#include "common/rng.h"
#include "common/uri.h"
#include "http/header_map.h"
#include "http/message.h"
#include "http/multipart.h"
#include "http/parser.h"
#include "http/range.h"
#include "net/buffered_reader.h"
#include "net/byte_source.h"

namespace davix {
namespace {

void BM_UriParse(benchmark::State& state) {
  for (auto _ : state) {
    auto uri = Uri::Parse(
        "https://user@dpm.cern.ch:8443/dpm/cern.ch/home/atlas/data.root"
        "?metalink#frag");
    benchmark::DoNotOptimize(uri);
  }
}
BENCHMARK(BM_UriParse);

void BM_RequestSerialize(benchmark::State& state) {
  http::HttpRequest request;
  request.method = http::Method::kGet;
  request.target = "/dpm/cern.ch/home/atlas/data.root";
  request.headers.Set("Host", "dpm.cern.ch:8443");
  request.headers.Set("User-Agent", "libdavix-repro/1.0");
  request.headers.Set("Connection", "keep-alive");
  request.headers.Set("Range", "bytes=0-4095,8192-12287,16384-20479");
  for (auto _ : state) {
    std::string wire = request.Serialize();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_RequestSerialize);

void BM_HeaderMapLookup(benchmark::State& state) {
  http::HeaderMap headers;
  headers.Add("Server", "davix-httpd/1.0");
  headers.Add("Date", "Sun, 06 Nov 1994 08:49:37 GMT");
  headers.Add("Content-Type", "application/octet-stream");
  headers.Add("Content-Length", "1048576");
  headers.Add("ETag", "\"dv-123\"");
  headers.Add("Accept-Ranges", "bytes");
  headers.Add("Connection", "keep-alive");
  for (auto _ : state) {
    benchmark::DoNotOptimize(headers.GetUint64("content-length"));
    benchmark::DoNotOptimize(headers.ListContains("connection", "close"));
  }
}
BENCHMARK(BM_HeaderMapLookup);

void BM_RangeHeaderFormat(benchmark::State& state) {
  std::vector<http::ByteRange> ranges;
  Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    ranges.push_back({rng.Below(1 << 30), 1 + rng.Below(65536)});
  }
  for (auto _ : state) {
    std::string header = http::FormatRangeHeader(ranges);
    benchmark::DoNotOptimize(header);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RangeHeaderFormat)->Arg(8)->Arg(64)->Arg(256);

void BM_RangeHeaderParse(benchmark::State& state) {
  std::vector<http::ByteRange> ranges;
  Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    ranges.push_back({rng.Below(1 << 20), 1 + rng.Below(65536)});
  }
  std::string header = http::FormatRangeHeader(ranges);
  for (auto _ : state) {
    auto parsed = http::ParseRangeHeader(header, 1ull << 40);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RangeHeaderParse)->Arg(8)->Arg(64)->Arg(256);

void BM_MultipartBuild(benchmark::State& state) {
  Rng rng(2);
  std::vector<http::BytesPart> parts;
  for (int i = 0; i < state.range(0); ++i) {
    http::BytesPart part;
    part.range = {static_cast<uint64_t>(i) * 100'000, 8192};
    part.total_size = 1 << 30;
    part.data = rng.Bytes(8192);
    parts.push_back(std::move(part));
  }
  std::string boundary = http::GenerateBoundary(parts, 7);
  for (auto _ : state) {
    std::string body = http::BuildMultipartBody(parts, boundary);
    benchmark::DoNotOptimize(body);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8192);
}
BENCHMARK(BM_MultipartBuild)->Arg(8)->Arg(64);

void BM_MultipartParse(benchmark::State& state) {
  Rng rng(2);
  std::vector<http::BytesPart> parts;
  for (int i = 0; i < state.range(0); ++i) {
    http::BytesPart part;
    part.range = {static_cast<uint64_t>(i) * 100'000, 8192};
    part.total_size = 1 << 30;
    part.data = rng.Bytes(8192);
    parts.push_back(std::move(part));
  }
  std::string boundary = http::GenerateBoundary(parts, 7);
  std::string body = http::BuildMultipartBody(parts, boundary);
  for (auto _ : state) {
    auto parsed = http::ParseMultipartBody(body, boundary);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8192);
}
BENCHMARK(BM_MultipartParse)->Arg(8)->Arg(64);

void BM_ResponseBodyReceive(benchmark::State& state) {
  // One 8 MiB Content-Length response through the client's receive path:
  // the head parse, the buffered body prefix, then reads straight into
  // the body. Only building the in-memory source is left untimed.
  constexpr size_t kBody = 8u << 20;
  Rng rng(3);
  const std::string wire = "HTTP/1.1 200 OK\r\nContent-Length: " +
                           std::to_string(kBody) + "\r\n\r\n" +
                           rng.Bytes(kBody);
  for (auto _ : state) {
    state.PauseTiming();
    net::StringSource source(wire);
    state.ResumeTiming();
    net::BufferedReader reader(&source);
    Result<http::HttpResponse> response =
        http::MessageReader::ReadResponseHead(&reader);
    if (!response.ok() ||
        !http::MessageReader::ReadResponseBody(&reader, false, &*response)
             .ok() ||
        response->body.size() != kBody) {
      state.SkipWithError("response body receive failed");
      break;
    }
    benchmark::DoNotOptimize(response->body.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kBody));
}
BENCHMARK(BM_ResponseBodyReceive);

}  // namespace
}  // namespace davix

int main(int argc, char** argv) {
  return davix::bench::RunMicroBench(argc, argv, "micro_http");
}
