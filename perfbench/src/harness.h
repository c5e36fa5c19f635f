// Helpers of the repository benchmark that carry its measurement rules:
// the tail-percentile rule, span recording and self time, metric-name
// validity, the byte check, the error-rate tally and the result line.
// Header-only, so
// that the self-test (harness_test.cc) needs no library layer.

#ifndef DAVIX_PERFBENCH_HARNESS_H_
#define DAVIX_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `values` (q in [0, 100]); 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

/// The tail rule: the highest of the candidate percentiles that leaves at
/// least ten samples beyond it. Returns 100 (the maximum) when even the
/// 50th percentile leaves fewer than ten samples beyond it.
inline double TailPercentile(size_t samples) {
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    double beyond = static_cast<double>(samples) * (100.0 - q) / 100.0;
    if (beyond >= 10.0 - 1e-9) return q;
  }
  return 100;
}

/// Latency samples of one operation kind, with the summaries the result
/// reports: the median or the lower quartile, and the tail at
/// TailPercentile(count).
struct Samples {
  std::vector<double> values;

  void Add(double value) { values.push_back(value); }
  size_t count() const { return values.size(); }
  double Sum() const {
    double sum = 0;
    for (double v : values) sum += v;
    return sum;
  }
  double P50() const { return Median(values); }
  double P25() const { return Percentile(values, 25); }
  double TailQ() const { return TailPercentile(values.size()); }
  double Tail() const { return Percentile(values, TailQ()); }
  void Merge(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
};

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One timed interval around a call into a layer. `parent` indexes the
/// enclosing span of the same thread (-1 at top level); spans of one
/// benchmark operation share `op`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t op = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// the parts of a child outside its parent are ignored).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || static_cast<size_t>(span.parent) >= spans.size())
      continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    int64_t begin = std::max(span.start_ns, parent.start_ns);
    int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > begin) {
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_begin = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : covered) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) union_ns += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) union_ns += run_end - run_begin;
    self[i] = spans[i].end_ns - spans[i].start_ns - union_ns;
  }
  return self;
}

/// In-memory span recorder shared by every benchmark thread. Spans are
/// written out once, when the run ends (WriteJson). Nesting is tracked
/// per thread: a span begun while another is open on the same thread is
/// its child.
class Tracer {
 public:
  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Begin(name, op);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  int64_t Begin(const char* name, uint64_t op) {
    int64_t parent = Stack().empty() ? -1 : Stack().back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, NowNanos(), 0, parent, op});
    int64_t index = static_cast<int64_t>(spans_.size()) - 1;
    Stack().push_back(index);
    return index;
  }

  void End(int64_t index) {
    int64_t now = NowNanos();
    if (!Stack().empty()) Stack().pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = now;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Total and self milliseconds per span name, with call counts.
  struct NameTotals {
    uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, NameTotals> Totals() const {
    std::vector<Span> spans = Snapshot();
    std::vector<int64_t> self = SelfTimes(spans);
    std::map<std::string, NameTotals> totals;
    for (size_t i = 0; i < spans.size(); ++i) {
      NameTotals& t = totals[spans[i].name];
      ++t.calls;
      t.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                    1e6;
      t.self_ms += static_cast<double>(self[i]) / 1e6;
    }
    return totals;
  }

  /// Writes every span as one JSON document; false if `path` cannot be
  /// opened.
  bool WriteJson(const std::string& path) const {
    std::vector<Span> spans = Snapshot();
    std::vector<int64_t> self = SelfTimes(spans);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [");
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                   "%lld, \"parent\": %lld, \"op\": %llu, \"self_ns\": %lld}",
                   i == 0 ? "" : ",", spans[i].name.c_str(),
                   static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns),
                   static_cast<long long>(spans[i].parent),
                   static_cast<unsigned long long>(spans[i].op),
                   static_cast<long long>(self[i]));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Metrics and the result line.
// ---------------------------------------------------------------------------

/// A metric name starts with a letter or digit and has at most 64
/// letters, digits, '_', '.' and '-'.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// A unit has at most 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
              c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric set; rejects (returns false for) an invalid or
/// duplicate name or unit, or a value that is not finite.
class MetricSet {
 public:
  bool Add(const std::string& name, double value, const std::string& unit) {
    if (!ValidMetricName(name) || !ValidUnit(unit) || !std::isfinite(value))
      return false;
    for (const Metric& m : metrics_) {
      if (m.name == name) return false;
    }
    metrics_.push_back(Metric{name, value, unit});
    return true;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// True when the consecutive `chunks` of a sequential read are exactly
/// `truth`, compared byte for byte.
inline bool ChunksMatch(const std::vector<std::string>& chunks,
                        std::string_view truth) {
  size_t offset = 0;
  for (const std::string& chunk : chunks) {
    if (truth.substr(std::min(offset, truth.size()), chunk.size()) != chunk) {
      return false;
    }
    offset += chunk.size();
  }
  return offset == truth.size();
}

/// Operation accounting: every attempted operation is counted, and one
/// that failed or delivered bytes that differ from the truth counts as
/// failed. Thread-safe.
class Tally {
 public:
  void Record(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  double ErrorRate() const {
    uint64_t a = attempted();
    return a == 0 ? 0 : static_cast<double>(failed()) / static_cast<double>(a);
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// The last line of the benchmark's output. Values print with 17
/// significant digits, as measured.
inline std::string ResultLine(bool correct, uint64_t attempted,
                              uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // DAVIX_PERFBENCH_HARNESS_H_
