#include "models/model_registry.h"

#include <chrono>
#include <exception>
#include <utility>

namespace certa::models {

ModelRegistry::ModelRegistry(size_t capacity, Trainer trainer)
    : capacity_(capacity), trainer_(std::move(trainer)) {}

ModelRegistry& ModelRegistry::Global() {
  // Never destroyed: runner threads may still hold a lookup at exit.
  static ModelRegistry* registry = new ModelRegistry();
  return *registry;
}

std::shared_ptr<const Matcher> ModelRegistry::Get(
    const ModelKey& key, const data::Dataset& dataset,
    obs::MetricsRegistry* metrics) {
  std::promise<std::shared_ptr<const Matcher>> promise;
  ModelFuture model;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      model = it->second.model;
    } else {
      model = promise.get_future().share();
      lru_.push_front(key);
      generation = ++next_generation_;
      entries_.emplace(key, Entry{model, lru_.begin(), generation});
      while (entries_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
      }
    }
  }
  if (generation == 0) {
    if (metrics != nullptr) {
      metrics->counter("models.registry.hits")->Increment();
    }
    return model.get();  // waits out an in-flight training
  }

  if (metrics != nullptr) {
    metrics->counter("models.registry.trains")->Increment();
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    promise.set_value(trainer_(key.kind, dataset, key.seed));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.generation == generation) {
        lru_.erase(it->second.lru);
        entries_.erase(it);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  if (metrics != nullptr) {
    metrics->histogram("models.train_us")
        ->Record(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
  }
  return model.get();
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace certa::models
