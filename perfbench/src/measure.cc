#include "measure.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

#include "util/json_writer.h"

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(rank));
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

uint64_t Digest(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Expected ExpectedOf(std::string_view bytes) {
  return Expected{Digest(bytes), bytes.size()};
}

bool SameDigest(const Expected& expected, const Expected& got) {
  return expected.digest == got.digest && expected.size == got.size;
}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::Open(const char* name, int parent, int request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = Now();
  span.end_ns = span.start_ns;
  return Add(std::move(span));
}

void SpanLog::Close(int index) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::WriteJsonLines(const std::string& path,
                             const std::vector<std::string>& skip) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (std::find(skip.begin(), skip.end(), span.name) != skip.end()) continue;
    certa::JsonWriter json;
    json.BeginObject();
    json.Key("id");
    json.Int(static_cast<long long>(i));
    json.Key("name");
    json.String(span.name);
    json.Key("start_ns");
    json.Int(span.start_ns);
    json.Key("end_ns");
    json.Int(span.end_ns);
    json.Key("parent");
    json.Int(span.parent);
    json.Key("request");
    json.Int(span.request);
    if (span.units != 0) {
      json.Key("units");
      json.Int(span.units);
    }
    json.EndObject();
    out << json.str() << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t start = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>> covered;
    covered.reserve(children[i].size());
    for (size_t child : children[i]) {
      const int64_t from = std::max(start, spans[child].start_ns);
      const int64_t to = std::min(end, spans[child].end_ns);
      if (to > from) covered.emplace_back(from, to);
    }
    std::sort(covered.begin(), covered.end());
    int64_t busy = 0;
    int64_t run_from = 0;
    int64_t run_to = -1;
    for (const auto& [from, to] : covered) {
      if (run_to < from) {
        if (run_to > run_from) busy += run_to - run_from;
        run_from = from;
        run_to = to;
      } else {
        run_to = std::max(run_to, to);
      }
    }
    if (run_to > run_from) busy += run_to - run_from;
    self[i] = std::max<int64_t>(0, end - start - busy);
  }
  return self;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string ResultJson(bool correct, long long attempted, long long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

namespace {

/// steal and total jiffies from the aggregate cpu line of /proc/stat.
void ReadCpuTimes(long long* steal, long long* total) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  *steal = 0;
  *total = 0;
  for (int field = 0; field < 8; ++field) {
    long long value = 0;
    if (!(in >> value)) break;
    *total += value;
    if (field == 7) *steal = value;
  }
}

}  // namespace

StealMeter::StealMeter() { ReadCpuTimes(&steal_, &total_); }

double StealMeter::Share() const {
  long long steal = 0;
  long long total = 0;
  ReadCpuTimes(&steal, &total);
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

double CalibrationMs() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 88172645463325252ULL;
  uint64_t sum = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x >> 60;
  }
  // Keeps the loop observable so it cannot be folded away.
  volatile uint64_t sink = sum;
  (void)sink;
  return MsBetween(start, Clock::now());
}

}  // namespace perfbench
