#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurement helpers shared by every workload: percentiles, output
// digests, in-memory spans with self time, and the result line.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

/// Linear interpolation between closest ranks (numpy's default):
/// q in [0, 1]; 0 for an empty input.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// What a correct output must look like, without keeping its bytes.
struct Expected {
  uint64_t digest = 0;
  size_t size = 0;
};
/// FNV-1a 64 of the bytes.
uint64_t Digest(std::string_view bytes);
Expected ExpectedOf(std::string_view bytes);
/// True when `got` digests equal (size and hash) to `expected`.
bool SameDigest(const Expected& expected, const Expected& got);

/// One timed interval. `parent` indexes the span that caused it (-1 for
/// a root); spans of one request share `request`.
struct Span {
  /// A string literal: spans are recorded on hot paths.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int request = -1;
  /// Work units the span covered (pairs scored, ...); 0 when unused.
  long long units = 0;
};

/// Append-only span store; safe to record from several threads.
class SpanLog {
 public:
  /// Nanoseconds since the log was created.
  int64_t Now() const;
  /// Records a finished span and returns its index.
  int Add(Span span);
  /// Opens a span now; Close() stamps its end. Returns its index.
  int Open(const char* name, int parent, int request);
  void Close(int index);
  std::vector<Span> spans() const;
  /// Writes one JSON object per span, leaving out spans named in
  /// `skip` (per-call leaves too numerous to be worth the file size).
  bool WriteJsonLines(const std::string& path,
                      const std::vector<std::string>& skip) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: exactly correct / attempted / failed / metrics.
std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics);
/// A number with every digit it has (shortest round-trip form).
std::string FormatNumber(double value);

/// Share of the machine's CPU time the hypervisor gave to others
/// (/proc/stat steal) between construction and Share(): a diagnostic.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  long long steal_ = 0;
  long long total_ = 0;
};

/// A fixed CPU loop, timed: a diagnostic of machine speed drift, never
/// a gate or a normalizer.
double CalibrationMs();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
