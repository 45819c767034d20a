#ifndef CERTA_MODELS_MODEL_REGISTRY_H_
#define CERTA_MODELS_MODEL_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "data/dataset.h"
#include "models/matcher.h"
#include "models/trainer.h"
#include "obs/metrics.h"

namespace certa::models {

/// What pins a trained matcher: TrainMatcher is seeded and
/// deterministic, so (kind, DatasetFingerprint of the training data,
/// seed) names exactly one set of parameters.
struct ModelKey {
  ModelKind kind = ModelKind::kSvm;
  uint64_t fingerprint = 0;
  uint64_t seed = kDefaultTrainingSeed;

  bool operator==(const ModelKey& other) const = default;
};

struct ModelKeyHasher {
  size_t operator()(const ModelKey& key) const {
    return static_cast<size_t>(
        (key.fingerprint ^ (key.seed * 0x9E3779B97F4A7C15ULL)) +
        static_cast<uint64_t>(key.kind));
  }
};

/// Trained matchers shared read-only by every job in a process, so a
/// worker trains each (model, training data) once instead of once per
/// job (a Matcher is const and safe to call from many threads at once).
///
///   - Single-flight: the first caller for a key trains; concurrent
///     callers for the same key wait for that training and share its
///     result. A training that throws drops the entry (the next caller
///     retries) and rethrows to every waiter.
///   - Bounded: at most `capacity` entries, least recently used
///     evicted first. An evicted matcher lives on for as long as a
///     caller still holds its shared_ptr.
///   - Lazy: nothing trains until a job asks for it.
class ModelRegistry {
 public:
  /// Entries the process-wide registry keeps: 12 benchmark codes ×
  /// 4 kinds = 48, with room to spare for custom data directories.
  static constexpr size_t kCapacity = 64;

  /// TrainMatcher's shape; the registry calls it with the key's kind
  /// and seed.
  using Trainer = std::function<std::unique_ptr<Matcher>(
      ModelKind, const data::Dataset&, uint64_t)>;

  explicit ModelRegistry(size_t capacity = kCapacity,
                         Trainer trainer = TrainMatcher);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The process-wide registry service::RunDurableExplain draws from.
  static ModelRegistry& Global();

  /// The matcher for `key`, trained on `dataset` when no entry holds it
  /// yet. `key.fingerprint` must be DatasetFingerprint(dataset). With
  /// `metrics`, counts models.registry.hits / models.registry.trains
  /// and records the training time in models.train_us.
  std::shared_ptr<const Matcher> Get(const ModelKey& key,
                                     const data::Dataset& dataset,
                                     obs::MetricsRegistry* metrics = nullptr);

  /// Entries currently held (trained or training).
  size_t size() const;

 private:
  using ModelFuture = std::shared_future<std::shared_ptr<const Matcher>>;

  struct Entry {
    ModelFuture model;
    /// Position in lru_ (front = most recently used).
    std::list<ModelKey>::iterator lru;
    /// Tells a failed trainer whether the entry is still its own.
    uint64_t generation = 0;
  };

  const size_t capacity_;
  const Trainer trainer_;
  mutable std::mutex mutex_;
  std::unordered_map<ModelKey, Entry, ModelKeyHasher> entries_;
  std::list<ModelKey> lru_;
  uint64_t next_generation_ = 0;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_MODEL_REGISTRY_H_
