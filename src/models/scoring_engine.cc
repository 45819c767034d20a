#include "models/scoring_engine.h"

#include <algorithm>
#include <chrono>

#include "models/resilience.h"
#include "util/logging.h"

namespace certa::models {
namespace {

/// One FNV-1a step over a whole length word: a frame marker, not
/// content, so it needs no byte-wise mixing (and HashPair runs for
/// every pair the engine sees).
void MixLength(size_t length, uint64_t* hash) {
  *hash ^= static_cast<uint64_t>(length);
  *hash *= 0x100000001b3ULL;
}

/// FNV-1a over a string with a per-stream basis, finished by the
/// caller. The length prefix frames the value, so no byte inside it
/// (0x1f included) can move a boundary: ("ab","c") and ("a","bc") and
/// ("a\x1fb") against ("a","b") all hash apart.
void MixValue(const std::string& value, uint64_t* hash) {
  MixLength(value.size(), hash);
  for (char c : value) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 0x100000001b3ULL;
  }
}

uint64_t Avalanche(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ULL;
  hash ^= hash >> 33;
  return hash;
}

uint64_t HashSide(const data::Record& u, const data::Record& v,
                  uint64_t basis) {
  uint64_t hash = basis;
  MixLength(u.values.size(), &hash);
  for (const std::string& value : u.values) MixValue(value, &hash);
  MixLength(v.values.size(), &hash);
  for (const std::string& value : v.values) MixValue(value, &hash);
  return Avalanche(hash);
}

}  // namespace

PairKey HashPair(const data::Record& u, const data::Record& v) {
  return {HashSide(u, v, 0xcbf29ce484222325ULL),
          HashSide(u, v, 0x6a09e667f3bcc908ULL)};
}

PredictionCache::PredictionCache(size_t num_shards,
                                 size_t max_entries_per_shard)
    : max_entries_per_shard_(std::max<size_t>(1, max_entries_per_shard)) {
  size_t count = std::max<size_t>(1, num_shards);
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void PredictionCache::BindMetrics(obs::Counter* hits, obs::Counter* misses,
                                  obs::Counter* evictions,
                                  obs::Counter* store_hits,
                                  obs::Counter* store_peer_hits) {
  metric_hits_ = hits;
  metric_misses_ = misses;
  metric_evictions_ = evictions;
  metric_store_hits_ = store_hits;
  metric_store_peer_hits_ = store_peer_hits;
}

void PredictionCache::CountStoreHit(bool peer) {
  store_hits_.fetch_add(1, std::memory_order_relaxed);
  if (metric_store_hits_ != nullptr) metric_store_hits_->Increment();
  if (peer) {
    store_peer_hits_.fetch_add(1, std::memory_order_relaxed);
    if (metric_store_peer_hits_ != nullptr) {
      metric_store_peer_hits_->Increment();
    }
  }
}

bool PredictionCache::Lookup(const PairKey& key, double* score) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metric_misses_ != nullptr) metric_misses_->Increment();
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (metric_hits_ != nullptr) metric_hits_->Increment();
  *score = it->second;
  return true;
}

void PredictionCache::Insert(const PairKey& key, double score) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.size() >= max_entries_per_shard_ &&
      shard.map.find(key) == shard.map.end()) {
    evictions_.fetch_add(static_cast<long long>(shard.map.size()),
                         std::memory_order_relaxed);
    if (metric_evictions_ != nullptr) {
      metric_evictions_->Add(static_cast<long long>(shard.map.size()));
    }
    shard.map.clear();
  }
  shard.map[key] = score;
}

PredictionCache::Stats PredictionCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          evictions_.load(std::memory_order_relaxed),
          store_hits_.load(std::memory_order_relaxed),
          store_peer_hits_.load(std::memory_order_relaxed)};
}

size_t PredictionCache::entry_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

ScoringEngine::ScoringEngine(const Matcher* base, Options options)
    : base_(base),
      options_(options),
      cache_(options.cache_shards, options.max_cache_entries_per_shard) {
  CERTA_CHECK(base != nullptr);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    metric_.batch_size =
        reg.histogram("scoring.batch.size", obs::SizeBuckets());
    metric_.batch_latency_us =
        reg.histogram("scoring.batch.latency_us", obs::LatencyBuckets());
    metric_.batches = reg.counter("scoring.batches");
    metric_.scores_computed = reg.counter("scoring.scores.computed");
    cache_.BindMetrics(reg.counter("scoring.cache.hits"),
                       reg.counter("scoring.cache.misses"),
                       reg.counter("scoring.cache.evictions"),
                       reg.counter("scoring.cache.store_hits"),
                       reg.counter("scoring.cache.store_peer_hits"));
  }
}

double ScoringEngine::Score(const data::Record& u,
                            const data::Record& v) const {
  if (!options_.enable_cache && !options_.store_probe &&
      !options_.store_write) {
    return base_->Score(u, v);
  }
  PairKey key = HashPair(u, v);
  double score = 0.0;
  if (options_.enable_cache && cache_.Lookup(key, &score)) return score;
  if (options_.store_probe) {
    const int served = options_.store_probe(key, &score);
    if (served != 0) {
      // Probe-served miss: same insertion (and hence eviction) sequence
      // as computing, minus the paid base call. store_write stays
      // silent — nothing fresh happened.
      cache_.CountStoreHit(/*peer=*/served == 2);
      if (options_.enable_cache) cache_.Insert(key, score);
      return score;
    }
  }
  score = base_->Score(u, v);
  if (metric_.scores_computed != nullptr) metric_.scores_computed->Increment();
  if (options_.enable_cache) cache_.Insert(key, score);
  if (options_.store_write) options_.store_write(key, score);
  return score;
}

std::vector<double> ScoringEngine::ScoreMisses(
    const std::vector<RecordPair>& pairs) const {
  if (pairs.empty()) return {};
  util::ThreadPool::Lend lend(options_.pool);
  return base_->ScoreBatch(pairs);
}

void ScoringEngine::TryScoreMisses(const std::vector<RecordPair>& pairs,
                                   std::vector<double>* scores,
                                   std::vector<uint8_t>* ok,
                                   bool* budget_exhausted) const {
  scores->assign(pairs.size(), 0.0);
  ok->assign(pairs.size(), 0);
  *budget_exhausted = false;
  if (pairs.empty()) return;
  // One batched base call first, then pair by pair when it failed.
  try {
    *scores = ScoreMisses(pairs);
    ok->assign(pairs.size(), 1);
    return;
  } catch (const BudgetExhausted&) {
    // The batch was rejected (it no longer fits the budget); the
    // per-pair loop below salvages what the remaining budget covers.
    *budget_exhausted = true;
  } catch (const ScoringError&) {
    // Fall through to per-pair isolation.
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    try {
      (*scores)[i] = base_->Score(*pairs[i].left, *pairs[i].right);
      (*ok)[i] = 1;
    } catch (const BudgetExhausted&) {
      *budget_exhausted = true;
      return;
    } catch (const ScoringError&) {
      // This pair stays failed; keep scoring the rest.
    }
  }
}

namespace {

/// Dedupe plan for one batch: identical pairs in one batch are scored
/// once (even with the persistent cache disabled — lattice frontiers
/// and candidate scans repeat perturbations within a batch).
/// `slot[i]` is the unique-pair index serving input i.
struct BatchPlan {
  std::vector<PairKey> keys;          // per input
  std::vector<size_t> slot;           // input -> unique-pair index
  std::vector<size_t> unique_inputs;  // unique-pair index -> first input
};

BatchPlan MakePlan(std::span<const RecordPair> pairs) {
  BatchPlan plan;
  plan.keys.resize(pairs.size());
  plan.slot.assign(pairs.size(), 0);
  std::unordered_map<PairKey, size_t, PairKeyHasher> first_index;
  for (size_t i = 0; i < pairs.size(); ++i) {
    plan.keys[i] = HashPair(*pairs[i].left, *pairs[i].right);
    auto [it, inserted] =
        first_index.emplace(plan.keys[i], plan.unique_inputs.size());
    if (inserted) plan.unique_inputs.push_back(i);
    plan.slot[i] = it->second;
  }
  return plan;
}

}  // namespace

ScoringEngine::BatchOutcome ScoringEngine::RunBatch(
    std::span<const RecordPair> pairs, bool isolate_failures) const {
  BatchOutcome out;
  out.scores.assign(pairs.size(), 0.0);
  out.ok.assign(pairs.size(), 0);
  if (pairs.empty()) return out;
  // Time the batch only when a live registry will consume the sample —
  // with observability off the clock reads are skipped too.
  const bool timed = metric_.batch_latency_us != nullptr &&
                     options_.metrics->enabled();
  const auto batch_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
  if (metric_.batches != nullptr) metric_.batches->Increment();
  if (metric_.batch_size != nullptr) {
    metric_.batch_size->Record(static_cast<double>(pairs.size()));
  }
  BatchPlan plan = MakePlan(pairs);

  // Probe phase (sequential, so counters stay deterministic). A miss
  // the store_probe hook can serve is remembered as a probe fill: it
  // skips the compute phase but is inserted in the same relative slot
  // order as a computed miss, so the eviction sequence — and hence
  // every counter in CertaResult — is identical with the hooks
  // detached.
  std::vector<double> unique_scores(plan.unique_inputs.size(), 0.0);
  std::vector<uint8_t> unique_ok(plan.unique_inputs.size(), 0);
  std::vector<RecordPair> miss_pairs;
  std::vector<size_t> fill_slots;        // ascending unique-slot order
  std::vector<uint8_t> fill_from_probe;  // parallel to fill_slots
  for (size_t s = 0; s < plan.unique_inputs.size(); ++s) {
    const size_t input = plan.unique_inputs[s];
    if (options_.enable_cache &&
        cache_.Lookup(plan.keys[input], &unique_scores[s])) {
      unique_ok[s] = 1;
      continue;
    }
    if (options_.store_probe) {
      const int served =
          options_.store_probe(plan.keys[input], &unique_scores[s]);
      if (served != 0) {
        cache_.CountStoreHit(/*peer=*/served == 2);
        fill_slots.push_back(s);
        fill_from_probe.push_back(1);
        continue;
      }
    }
    miss_pairs.push_back(pairs[input]);
    fill_slots.push_back(s);
    fill_from_probe.push_back(0);
  }

  // Compute phase (possibly parallel). The throwing ScoreMisses fails
  // the whole batch before the insert phase; TryScoreMisses flags the
  // pairs it lost instead. Either way the cache only ever holds scores
  // the model produced.
  std::vector<double> miss_scores;
  std::vector<uint8_t> miss_ok;
  if (isolate_failures) {
    TryScoreMisses(miss_pairs, &miss_scores, &miss_ok,
                   &out.budget_exhausted);
  } else {
    miss_scores = ScoreMisses(miss_pairs);
    miss_ok.assign(miss_pairs.size(), 1);
  }

  // Insert phase (sequential, slot order).
  size_t next_miss = 0;
  long long computed = 0;
  for (size_t f = 0; f < fill_slots.size(); ++f) {
    const size_t s = fill_slots[f];
    const bool from_probe = fill_from_probe[f] != 0;
    if (!from_probe) {
      const size_t m = next_miss++;
      if (!miss_ok[m]) continue;  // failed pairs never enter the cache
      unique_scores[s] = miss_scores[m];
      ++computed;
    }
    unique_ok[s] = 1;
    const PairKey& key = plan.keys[plan.unique_inputs[s]];
    if (options_.enable_cache) cache_.Insert(key, unique_scores[s]);
    if (from_probe) continue;  // nothing fresh: store_write stays quiet
    if (options_.store_write) options_.store_write(key, unique_scores[s]);
  }

  for (size_t i = 0; i < pairs.size(); ++i) {
    out.scores[i] = unique_scores[plan.slot[i]];
    out.ok[i] = unique_ok[plan.slot[i]];
    if (!out.ok[i]) ++out.failures;
  }
  if (metric_.scores_computed != nullptr) {
    metric_.scores_computed->Add(computed);
  }
  if (timed) {
    metric_.batch_latency_us->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - batch_start)
            .count()));
  }
  return out;
}

std::vector<double> ScoringEngine::ScoreBatch(
    std::span<const RecordPair> pairs) const {
  return RunBatch(pairs, /*isolate_failures=*/false).scores;
}

ScoringEngine::BatchOutcome ScoringEngine::TryScoreBatch(
    std::span<const RecordPair> pairs) const {
  return RunBatch(pairs, /*isolate_failures=*/true);
}

PredictionCache::Stats ScoringEngine::cache_stats() const {
  return cache_.stats();
}

}  // namespace certa::models
