// perfbench: end-to-end benchmark of `certa serve` (perfbench/README.md).
//
//   perfbench --workload explain_cold --seed 1 --seconds 20 --trace 0
//             --certa PATH/certa --work .bench_run
//
// Prints a human-readable report, a `perfbench-meta` line, and as the
// last line one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "measure.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, in this order.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_ops_s", "ops/s"},
    {"cpu_ms_per_op", "ms"},
    {"server_rss_mb", "MB"},
    {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},
    {"read_p50_ms", "ms"},
    {"read_p90_ms", "ms"},
};

/// Printed with --trace 1, in this order. A metric a workload does not
/// have reads 0 and is marked n/a in the report.
const MetricSpec kPerLayer[] = {
    {"net.admit_ms", "ms"},
    {"service.start_ms", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"core.run_ms", "ms"},
    {"net.result_ms", "ms"},
    {"net.result_bytes", "bytes"},
    {"wire.unattributed_ms", "ms"},
    {"models.fresh_calls_per_op", "count"},
    {"core.predictions_per_op", "count"},
    {"models.cache_hit_ratio", "ratio"},
    {"persist.store_hit_ratio", "ratio"},
    {"persist.peer_hit_share", "ratio"},
    {"data.build_ms", "ms"},
    {"models.train_ms", "ms"},
    {"core.pivot_ms", "ms"},
    {"core.triangles_ms", "ms"},
    {"core.lattice_ms", "ms"},
    {"core.counterfactuals_ms", "ms"},
    {"models.score_ms", "ms"},
    {"models.batch_pairs", "count"},
    {"models.score_busy_per_wall", "ratio"},
    {"persist.store_probe_us", "us"},
    {"persist.store_put_us", "us"},
    {"persist.refresh_peers_us", "us"},
    {"persist.journal_us", "us"},
    {"persist.checkpoint_ms", "ms"},
    {"stream.upsert_us", "us"},
    {"stream.match_us", "us"},
    {"stream.checkpoints_per_kop", "count"},
    {"data.first_match_ms", "ms"},
    {"net.stream_overhead_us", "us"},
    {"service.accepted", "count"},
    {"service.completed", "count"},
    {"service.rejected", "count"},
    {"net.events_dropped", "count"},
    {"net.slow_reader_closes", "count"},
    {"loadgen.late_ms_p90", "ms"},
    {"loadgen.outstanding_max", "count"},
    {"loadgen.error_rate", "ratio"},
    {"env.calib_ms", "ms"},
    {"env.steal_share", "ratio"},
};

int Usage() {
  std::cerr << "usage: perfbench --workload explain_cold|explain_warm_fleet|"
               "stream_mixed --seed N --seconds S --trace 0|1 --certa PATH "
               "--work DIR\n";
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The commit when the checkout is a git work tree; "unknown" otherwise
/// (`source_digest` then identifies the sources).
std::string Commit() {
  std::string commit = "unknown";
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buffer[128] = {};
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      commit = buffer;
      while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
        commit.pop_back();
      }
    }
    ::pclose(pipe);
  }
  return commit.empty() ? "unknown" : commit;
}

/// Digest over the paths and contents of the program's sources.
std::string SourceDigest() {
  std::vector<std::string> files;
  for (const char* root : {"src", "tools"}) {
    if (!fs::is_directory(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::string all;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    all += file + '\0' +
           std::string(std::istreambuf_iterator<char>(in), {}) + '\0';
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(perfbench::Digest(all)));
  return hex;
}

std::string MetaJson(const perfbench::RunConfig& config) {
  certa::JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(config.workload);
  json.Key("seed");
  json.Int(static_cast<long long>(config.seed));
  json.Key("seconds");
  json.Int(config.seconds);
  json.Key("trace");
  json.Bool(config.trace);
  json.Key("nproc");
  json.Int(config.nproc);
  json.Key("cpu_model");
  json.String(CpuModel());
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("commit");
  json.String(Commit());
  json.Key("source_digest");
  json.String(SourceDigest());
  json.EndObject();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string work_root;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--certa") {
      config.certa = value();
    } else if (arg == "--work") {
      work_root = value();
    } else {
      return Usage();
    }
  }

  if (perfbench::RunSelfTests() != 0) {
    std::cerr << "perfbench: the benchmark's own checks fail; no run\n";
    return 1;
  }
  perfbench::RunOutput (*run)(const perfbench::RunConfig&) = nullptr;
  if (config.workload == "explain_cold") run = perfbench::RunExplainCold;
  if (config.workload == "explain_warm_fleet") {
    run = perfbench::RunExplainWarmFleet;
  }
  if (config.workload == "stream_mixed") run = perfbench::RunStreamMixed;
  if (run == nullptr || config.seconds < 1 || config.certa.empty() ||
      work_root.empty()) {
    return Usage();
  }
  if (!fs::is_regular_file(config.certa)) {
    std::cerr << "perfbench: no certa binary at " << config.certa << "\n";
    return 1;
  }

  // Orphaned fleet workers re-parent to this process, which reaps them.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  ::signal(SIGPIPE, SIG_IGN);
  config.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  config.work_dir = fs::absolute(work_root + "/" + config.workload + "-" +
                                 std::to_string(::getpid()))
                        .string();
  config.spans_path =
      fs::absolute(work_root + "/spans-" + config.workload + ".jsonl").string();
  fs::remove_all(config.work_dir);
  fs::create_directories(config.work_dir);

  const double calib_before = perfbench::CalibrationMs();
  perfbench::StealMeter steal;
  perfbench::RunOutput out = run(config);
  const double calib_after = perfbench::CalibrationMs();
  out.per_layer["env.calib_ms"] = (calib_before + calib_after) / 2.0;
  out.per_layer["env.steal_share"] = steal.Share();
  std::error_code ignored;
  fs::remove_all(config.work_dir, ignored);

  for (const std::string& note : out.notes) std::cout << "# " << note << "\n";
  std::cout << "# env.calib_ms before " << calib_before << " after "
            << calib_after << "; env.steal_share "
            << out.per_layer["env.steal_share"] << "\n";
  for (const std::string& error : out.errors) {
    std::cout << "# FAILED: " << error << "\n";
  }
  if (!out.invalid.empty()) std::cout << "# INVALID RUN: " << out.invalid << "\n";
  const double error_rate =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 1.0;
  out.per_layer["loadgen.error_rate"] = error_rate;
  std::cout << "# error_rate " << error_rate << " ratio (" << out.failed
            << " of " << out.attempted << " ops failed)\n";
  std::vector<Metric> metrics;
  bool missing = false;
  auto report = [&](const MetricSpec& spec,
                    const std::map<std::string, double>& values, bool required) {
    const auto found = values.find(spec.name);
    const bool have = found != values.end();
    if (!have && required) missing = true;
    const double value = have ? found->second : 0.0;
    std::printf("# %-28s %14s %s%s\n", spec.name,
                perfbench::FormatNumber(value).c_str(), spec.unit,
                have ? "" : "  (n/a for this workload)");
    metrics.push_back({spec.name, value, spec.unit});
  };
  if (config.trace) {
    // The traced run's own end-to-end figures, against an untraced run
    // of the same seed, show what tracing costs.
    for (const MetricSpec& spec : kEndToEnd) {
      const auto found = out.end_to_end.find(spec.name);
      if (found == out.end_to_end.end()) continue;
      std::printf("# traced %-21s %14s %s\n", spec.name,
                  perfbench::FormatNumber(found->second).c_str(), spec.unit);
    }
    for (const MetricSpec& spec : kPerLayer) report(spec, out.per_layer, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) report(spec, out.end_to_end, true);
  }
  std::cout << "perfbench-meta " << MetaJson(config) << "\n";
  const bool correct = out.failed == 0 && out.invalid.empty() && !missing &&
                       out.attempted > 0;
  std::cout << perfbench::ResultJson(correct, std::max(1LL, out.attempted),
                                     out.failed, metrics)
            << std::endl;
  return 0;
}
