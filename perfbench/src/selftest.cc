// Checks of the benchmark's own logic, run before every measurement:
// a wrong output must count as a failure, percentiles and self times
// must come out as computed by hand.

#include <cmath>
#include <cstdio>

#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench selftest failed: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestDigestCheck() {
  RunOutput out;
  const Expected reference = ExpectedOf("{\"saliency\":[1,2]}");
  Expect(out.Check(reference, ExpectedOf("{\"saliency\":[1,2]}"), "same"),
         "identical output passes");
  Expect(out.failed == 0, "identical output counts no failure");
  // Same length, one byte off: only the digest tells them apart.
  Expect(!out.Check(reference, ExpectedOf("{\"saliency\":[1,3]}"), "byte"),
         "one changed byte fails");
  Expect(!out.Check(Expected{reference.digest ^ 1, reference.size},
                    ExpectedOf("{\"saliency\":[1,2]}"), "digest"),
         "a wrong reference digest fails");
  Expect(!out.Check(reference, ExpectedOf("{\"saliency\":[1,2]} "), "size"),
         "a longer output fails");
  Expect(out.failed == 3, "each mismatch counts one failure");
  Expect(out.errors.size() == 3, "each mismatch is described");
}

void TestPercentiles() {
  Expect(Near(Percentile({}, 0.5), 0.0), "empty input gives 0");
  Expect(Near(Percentile({7.0}, 0.9), 7.0), "one value is every percentile");
  Expect(Near(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "p50 of 1..4");
  Expect(Near(Percentile({4.0, 1.0, 3.0, 2.0}, 0.9), 3.7), "p90 of 1..4");
  Expect(Near(Percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0), "p0 is the min");
  Expect(Near(Percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0), "p100 is the max");
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 0.9), 91.0), "p90 of 1..101");
  Expect(Near(Mean({1.0, 2.0, 6.0}), 3.0), "mean");
}

void TestSelfTime() {
  // root [0,100] with children A [10,40] and B [30,60] overlapping, and
  // C [90,120] running past its parent's end; A has a child [15,20].
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 0, 0};
  spans[1] = {"a", 10, 40, 0, 0, 0};
  spans[2] = {"b", 30, 60, 0, 0, 0};
  spans[3] = {"c", 90, 120, 0, 0, 0};
  spans[4] = {"a.child", 15, 20, 1, 0, 0};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // Children cover [10,60] and [90,100]: 60 of root's 100.
  Expect(self[0] == 40, "root self time counts overlapping children once");
  Expect(self[1] == 25, "a's self time excludes its child");
  Expect(self[2] == 30, "leaf b is all self time");
  Expect(self[3] == 30, "leaf c is all self time");
  Expect(self[4] == 5, "leaf a.child is all self time");
}

void TestResultLine() {
  const std::string line =
      ResultJson(true, 3, 0, {{"latency_p50_ms", 1.25, "ms"}});
  Expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, "
                 "\"unit\": \"ms\"}}}",
         "result line layout");
  Expect(FormatNumber(0.1 + 0.2) == "0.30000000000000004",
         "numbers keep every digit");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestDigestCheck();
  TestPercentiles();
  TestSelfTime();
  TestResultLine();
  return failures;
}

}  // namespace perfbench
