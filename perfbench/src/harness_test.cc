// Self-test of the benchmark helpers in harness.h. Exits non-zero on the
// first failed check:
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
  ++failures;
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

void TestTailPercentile() {
  // The highest percentile that leaves at least ten samples beyond it.
  CHECK(TailPercentile(10000) == 99.9);
  CHECK(TailPercentile(1000) == 99.0);
  CHECK(TailPercentile(999) == 95.0);
  CHECK(TailPercentile(200) == 95.0);
  CHECK(TailPercentile(100) == 90.0);
  CHECK(TailPercentile(40) == 75.0);
  CHECK(TailPercentile(20) == 50.0);
  CHECK(TailPercentile(19) == 100.0);
  CHECK(TailPercentile(1) == 100.0);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  CHECK(Percentile(values, 50) == 50);
  CHECK(Percentile(values, 99) == 99);
  CHECK(Percentile(values, 100) == 100);
  CHECK(Percentile({}, 50) == 0);

  Samples few;
  for (double v : {5.0, 1.0, 3.0}) few.Add(v);
  CHECK(few.P50() == 3);
  CHECK(few.P25() == 1);
  CHECK(few.TailQ() == 100 && few.Tail() == 5);  // too few: the maximum
  CHECK(few.Sum() == 9);
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},
      {"child_a", 10, 30, 0, 1},
      {"child_b", 20, 50, 0, 1},    // overlaps child_a: counted once
      {"child_c", 90, 120, 0, 1},   // leaves the parent: clipped to 90..100
      {"grandchild", 12, 18, 1, 1}, // only reduces child_a
      {"other", 0, 40, -1, 2},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
  CHECK(self[5] == 40);

  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer", 7);
    Tracer::Scope inner(&tracer, "inner", 7);
  }
  { Tracer::Scope next(&tracer, "next", 8); }
  std::vector<Span> recorded = tracer.Snapshot();
  CHECK(recorded.size() == 3);
  CHECK(recorded[0].parent == -1 && recorded[1].parent == 0);
  CHECK(recorded[2].parent == -1 && recorded[2].op == 8);
  auto totals = tracer.Totals();
  CHECK(totals["outer"].calls == 1);
  CHECK(totals["outer"].self_ms <= totals["outer"].total_ms);

  Tracer::Scope disabled(nullptr, "ignored", 0);  // records nothing
}

void TestMetricNames() {
  CHECK(ValidMetricName("read_p50_us"));
  CHECK(ValidMetricName("httpd.handler_p50_us.range"));
  CHECK(ValidMetricName("root.fetch_wait_s.mux"));
  CHECK(ValidMetricName("9lives-x"));
  CHECK(!ValidMetricName(""));
  CHECK(!ValidMetricName("_leading"));
  CHECK(!ValidMetricName(".leading"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidMetricName("core/slash"));
  CHECK(ValidMetricName(std::string(64, 'a')));
  CHECK(!ValidMetricName(std::string(65, 'a')));
  CHECK(ValidUnit("1/s") && ValidUnit("%") && ValidUnit("MB/s"));
  CHECK(!ValidUnit("") && !ValidUnit("micro seconds"));

  MetricSet set;
  CHECK(set.Add("ops_per_s", 1.5, "1/s"));
  CHECK(!set.Add("ops_per_s", 2, "1/s"));  // duplicate
  CHECK(!set.Add("bad name", 1, "s"));
  CHECK(!set.Add("nan_value", std::nan(""), "s"));
  std::string line = ResultLine(true, 3, 0, set);
  CHECK(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                "\"metrics\": {\"ops_per_s\": {\"value\": 1.5, \"unit\": "
                "\"1/s\"}}}");
}

void TestErrorRateOnByteMismatch() {
  std::string truth = "the bytes the object store holds";
  std::vector<std::string> intact = {truth.substr(0, 10), truth.substr(10)};
  std::vector<std::string> flipped = intact;
  flipped[1][3] ^= 0x01;  // one flipped bit
  std::vector<std::string> short_read = {truth.substr(0, 10)};
  std::vector<std::string> long_read = intact;
  long_read.push_back("x");
  Tally tally;
  for (int i = 0; i < 3; ++i) tally.Record(ChunksMatch(intact, truth));
  tally.Record(ChunksMatch(flipped, truth));
  tally.Record(ChunksMatch(short_read, truth));
  tally.Record(ChunksMatch(long_read, truth));
  tally.Record(false);  // a failed operation counts too
  CHECK(ChunksMatch({truth}, truth));
  CHECK(tally.attempted() == 7);
  CHECK(tally.failed() == 4);
  CHECK(std::fabs(tally.ErrorRate() - 4.0 / 7.0) < 1e-12);
  CHECK(Tally().ErrorRate() == 0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTailPercentile();
  perfbench::TestSelfTimes();
  perfbench::TestMetricNames();
  perfbench::TestErrorRateOnByteMismatch();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
