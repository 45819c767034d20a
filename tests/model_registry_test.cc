// Per-process model registry: single-flight training, keying, LRU
// eviction with live holders, and the durable path served from it —
// byte-identical result.json against a fresh process for every model
// kind, and streaming upserts that keep or change the training data.
// Labelled concurrency;durability, so it also runs under TSan and ASan.

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/csv.h"
#include "models/model_registry.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "service/job_runner.h"
#include "service/stream_coordinator.h"
#include "test_util.h"
#include "util/atomic_file.h"

#ifndef CERTA_CLI_PATH
#error "CERTA_CLI_PATH must be defined to the certa CLI binary path"
#endif

namespace certa {
namespace {

namespace fs = std::filesystem;
using models::ModelKey;
using models::ModelKind;
using models::ModelRegistry;

constexpr int kTriangles = 8;

fs::path Scratch(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("certa_registry_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadResult(const fs::path& job_dir) {
  std::string content;
  EXPECT_TRUE(util::ReadFileToString(
      persist::ResultPathInDir(job_dir.string()), &content))
      << job_dir;
  return content;
}

/// `dataset` with `suffix` appended to the first value of left row `row`.
data::Dataset EditLeftRecord(const data::Dataset& dataset, int row,
                             const std::string& suffix) {
  data::Dataset edited = dataset;
  edited.left = data::Table(dataset.left.name(), dataset.left.schema());
  for (int r = 0; r < dataset.left.size(); ++r) {
    data::Record record = dataset.left.record(r);
    if (r == row) record.values[0] += suffix;
    edited.left.Add(std::move(record));
  }
  return edited;
}

long long CounterValue(obs::MetricsRegistry& metrics, const char* name) {
  return metrics.counter(name)->value();
}

/// A trainer that never fits anything: each call returns a distinct
/// constant matcher and counts itself, so keying and eviction are
/// visible without paying for real training.
ModelRegistry::Trainer CountingTrainer(std::atomic<int>* calls) {
  return [calls](ModelKind, const data::Dataset&, uint64_t) {
    const int n = ++*calls;
    return std::make_unique<testing::FakeMatcher>(
        [n](const data::Record&, const data::Record&) { return n / 100.0; });
  };
}

service::JobSpec Spec(const std::string& model, const std::string& id) {
  service::JobSpec spec;
  spec.id = id;
  spec.dataset = "FZ";
  spec.model = model;
  spec.pair_index = 0;
  spec.triangles = kTriangles;
  return spec;
}

TEST(ModelRegistryTest, EightThreadsOnOneKeyTrainOnce) {
  const data::Dataset dataset = data::MakeBenchmark("FZ");
  const ModelKey key{ModelKind::kDitto, models::DatasetFingerprint(dataset)};
  ModelRegistry registry;
  obs::MetricsRegistry metrics;
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const models::Matcher>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = registry.Get(key, dataset, &metrics);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(CounterValue(metrics, "models.registry.trains"), 1);
  EXPECT_EQ(CounterValue(metrics, "models.registry.hits"), kThreads - 1);
  EXPECT_EQ(metrics.histogram("models.train_us")->count(), 1);
  ASSERT_NE(got[0], nullptr);
  for (const auto& model : got) EXPECT_EQ(model.get(), got[0].get());
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistryTest, DistinctKindsFingerprintsAndSeedsGetDistinctModels) {
  std::atomic<int> calls{0};
  ModelRegistry registry(ModelRegistry::kCapacity, CountingTrainer(&calls));
  const data::Dataset dataset = data::MakeBenchmark("FZ");
  const std::vector<ModelKey> keys = {
      {ModelKind::kSvm, 1}, {ModelKind::kDitto, 1}, {ModelKind::kSvm, 2},
      {ModelKind::kSvm, 1, 7}};
  std::set<const models::Matcher*> distinct;
  for (const ModelKey& key : keys) {
    distinct.insert(registry.Get(key, dataset).get());
  }
  EXPECT_EQ(distinct.size(), keys.size());
  EXPECT_EQ(calls.load(), 4);
  // Asking again is served from the registry.
  for (const ModelKey& key : keys) {
    EXPECT_TRUE(distinct.count(registry.Get(key, dataset).get()));
  }
  EXPECT_EQ(calls.load(), 4);
}

TEST(ModelRegistryTest, EvictsLeastRecentlyUsedWhileHoldersKeepTheirModel) {
  std::atomic<int> calls{0};
  ModelRegistry registry(/*capacity=*/2, CountingTrainer(&calls));
  const data::Dataset dataset = data::MakeBenchmark("FZ");
  // Which training produced a matcher (CountingTrainer's call number).
  auto trained_by = [&](const std::shared_ptr<const models::Matcher>& m) {
    return static_cast<int>(
        m->Score(dataset.left.record(0), dataset.right.record(0)) * 100 +
        0.5);
  };
  const ModelKey a{ModelKind::kSvm, 1}, b{ModelKind::kSvm, 2},
      c{ModelKind::kSvm, 3};
  std::shared_ptr<const models::Matcher> held_a = registry.Get(a, dataset);
  EXPECT_EQ(trained_by(registry.Get(b, dataset)), 2);
  registry.Get(a, dataset);  // a is now the most recently used
  registry.Get(c, dataset);  // evicts b, not a
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(registry.Get(a, dataset), held_a);
  EXPECT_EQ(trained_by(registry.Get(b, dataset)), 4);  // retrained

  // That retrain of b evicted c, and the next miss evicts a while this
  // test still holds it: the held matcher stays alive and usable.
  registry.Get(ModelKey{ModelKind::kSvm, 4}, dataset);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(trained_by(held_a), 1);
  EXPECT_EQ(trained_by(registry.Get(a, dataset)), 6);
  EXPECT_EQ(calls.load(), 6);
}

TEST(ModelRegistryTest, FailedTrainingIsDroppedAndRetried) {
  int calls = 0;
  ModelRegistry registry(
      ModelRegistry::kCapacity,
      [&calls](ModelKind kind, const data::Dataset& dataset, uint64_t seed)
          -> std::unique_ptr<models::Matcher> {
        if (++calls == 1) throw std::runtime_error("out of memory");
        return models::TrainMatcher(kind, dataset, seed);
      });
  const data::Dataset dataset = data::MakeBenchmark("FZ");
  const ModelKey key{ModelKind::kSvm, models::DatasetFingerprint(dataset)};
  obs::MetricsRegistry metrics;
  EXPECT_THROW(registry.Get(key, dataset, &metrics), std::runtime_error);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_NE(registry.Get(key, dataset, &metrics), nullptr);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(CounterValue(metrics, "models.registry.trains"), 2);
  EXPECT_EQ(metrics.histogram("models.train_us")->count(), 1);
}

// Runs the CLI's durable explain in a fresh process (an empty registry)
// and returns its exit code.
int RunCliDurable(const std::string& model, const fs::path& job_dir) {
  const std::string command =
      std::string("'") + CERTA_CLI_PATH +
      "' explain --dataset FZ --model " + model +
      " --pair 0 --triangles " + std::to_string(kTriangles) + " --job-dir '" +
      job_dir.string() + "' >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ModelRegistryDurableTest, RegistryServedResultMatchesFreshProcess) {
  const fs::path root = Scratch("fresh");
  for (const std::string model : {"deeper", "deepmatcher", "ditto", "svm"}) {
    SCOPED_TRACE(model);
    // Two in-process runs: the second is served by the registry (the
    // first may be too, if an earlier test trained this key).
    std::string results[2];
    for (int run = 0; run < 2; ++run) {
      obs::MetricsRegistry metrics;
      service::DurableRunOptions options;
      options.metrics = &metrics;
      const fs::path job_dir = root / (model + "-" + std::to_string(run));
      const service::JobOutcome outcome = service::RunDurableExplain(
          Spec(model, "registry"), job_dir.string(), options);
      ASSERT_EQ(outcome.state, service::JobState::kComplete) << outcome.error;
      if (run == 1) {
        EXPECT_EQ(CounterValue(metrics, "models.registry.trains"), 0);
        EXPECT_EQ(CounterValue(metrics, "models.registry.hits"), 1);
      }
      results[run] = ReadResult(job_dir);
    }
    const fs::path fresh_dir = root / (model + "-fresh");
    ASSERT_EQ(RunCliDurable(model, fresh_dir), 0);
    const std::string fresh = ReadResult(fresh_dir);
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(results[0], fresh);
    EXPECT_EQ(results[1], fresh);
  }
  fs::remove_all(root);
}

TEST(ModelRegistryDurableTest, ConcurrentJobsOnNewTrainingDataTrainOnce) {
  // A training value no other test uses gives this test a key of its
  // own, so the process-wide registry cannot already hold it.
  const fs::path root = Scratch("concurrent");
  const data::Dataset base = data::MakeBenchmark("FZ");
  const data::Dataset dataset =
      EditLeftRecord(base, base.train.front().left_index,
                     " concurrent-" + std::to_string(::getpid()));
  fs::create_directories(root / "data");
  ASSERT_TRUE(data::SaveDatasetDirectory((root / "data").string(), dataset));

  obs::MetricsRegistry metrics;
  constexpr int kJobs = 8;
  std::latch start(kJobs);
  std::vector<std::string> results(kJobs);
  std::vector<std::thread> threads;
  for (int j = 0; j < kJobs; ++j) {
    threads.emplace_back([&, j] {
      service::JobSpec spec = Spec("svm", "job" + std::to_string(j));
      spec.data_dir = (root / "data").string();
      service::DurableRunOptions options;
      options.metrics = &metrics;
      const fs::path job_dir = root / spec.id;
      start.arrive_and_wait();
      const service::JobOutcome outcome =
          service::RunDurableExplain(spec, job_dir.string(), options);
      if (outcome.state == service::JobState::kComplete) {
        results[j] = outcome.result_json;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(CounterValue(metrics, "models.registry.trains"), 1);
  EXPECT_EQ(CounterValue(metrics, "models.registry.hits"), kJobs - 1);
  for (const std::string& result : results) {
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(result, results[0]);
  }
  fs::remove_all(root);
}

TEST(ModelRegistryDurableTest, StreamingUpsertsKeepOrChangeTheModel) {
  const fs::path root = Scratch("stream");
  service::StreamCoordinator coordinator;
  service::StreamCoordinator::Options stream_options;
  stream_options.dir = (root / "stream").string();
  std::string error;
  ASSERT_TRUE(coordinator.Open(stream_options, &error)) << error;

  int job = 0;
  auto run = [&](obs::MetricsRegistry* metrics) {
    service::DurableRunOptions options;
    options.metrics = metrics;
    options.dataset_provider = [&](const api::ExplainRequest& request,
                                   data::Dataset* dataset, std::string* err) {
      return coordinator.ProvideDataset(request, dataset, err);
    };
    const service::JobSpec spec = Spec("svm", "job" + std::to_string(job++));
    const service::JobOutcome outcome = service::RunDurableExplain(
        spec, (root / spec.id).string(), options);
    EXPECT_EQ(outcome.state, service::JobState::kComplete) << outcome.error;
  };
  auto upsert = [&](int row, const std::string& suffix) {
    const data::Dataset base = data::MakeBenchmark("FZ");
    data::Record record = base.left.record(row);
    record.values[0] += suffix;
    service::StreamCoordinator::Ack ack;
    ASSERT_EQ(coordinator.Upsert("FZ", "", /*side=*/0, record, &ack, nullptr,
                                 &error),
              service::StreamCoordinator::OpStatus::kOk)
        << error;
  };

  const data::Dataset base = data::MakeBenchmark("FZ");
  std::set<int> train_rows;
  for (const data::LabeledPair& pair : base.train) {
    train_rows.insert(pair.left_index);
  }
  int test_only_row = -1;
  for (const data::LabeledPair& pair : base.test) {
    if (!train_rows.count(pair.left_index)) {
      test_only_row = pair.left_index;
      break;
    }
  }
  ASSERT_GE(test_only_row, 0);

  run(nullptr);  // trains or finds the base FZ model

  upsert(test_only_row, " test-side");
  obs::MetricsRegistry after_test_side;
  run(&after_test_side);
  EXPECT_EQ(CounterValue(after_test_side, "models.registry.trains"), 0);
  EXPECT_EQ(CounterValue(after_test_side, "models.registry.hits"), 1);

  upsert(*train_rows.begin(), " train-side " + std::to_string(::getpid()));
  obs::MetricsRegistry after_train_side;
  run(&after_train_side);
  EXPECT_EQ(CounterValue(after_train_side, "models.registry.trains"), 1);
  EXPECT_EQ(CounterValue(after_train_side, "models.registry.hits"), 0);

  coordinator.Close();
  fs::remove_all(root);
}

}  // namespace
}  // namespace certa
