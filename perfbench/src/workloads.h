#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// The `certa` binary to serve with.
  std::string certa;
  /// Scratch directory of this run (created and removed by main).
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string spans_path;
  int nproc = 1;
};

/// What one workload run measured. Values are keyed by the metric
/// names main.cc declares; a per-layer metric a workload does not have
/// is simply absent.
struct RunOutput {
  long long attempted = 0;
  long long failed = 0;
  /// Set with the reason when the run cannot stand as a measurement
  /// (a generator that fell behind its schedule, a failed set-up).
  std::string invalid;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
  /// Up to a few failure descriptions, for the log.
  std::vector<std::string> errors;

  void Fail(const std::string& error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
  }
  /// Counts a failure unless `got` is the expected output.
  bool Check(const Expected& expected, const Expected& got,
             const std::string& what) {
    if (SameDigest(expected, got)) return true;
    Fail(what + ": output differs from the in-process reference");
    return false;
  }
};

RunOutput RunExplainCold(const RunConfig& config);
RunOutput RunExplainWarmFleet(const RunConfig& config);
RunOutput RunStreamMixed(const RunConfig& config);

/// The benchmark's checks of its own logic; returns the number failed
/// (each printed to stderr).
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
