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

void PredictionCache::BindViewMetrics(obs::Counter* view_hits,
                                      obs::Counter* flush_locks) {
  metric_view_hits_ = view_hits;
  metric_flush_locks_ = flush_locks;
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
  if (it->second.prewarmed) {
    // First touch of a replayed entry: the uninterrupted run would
    // have missed (then computed) here, so count a miss to keep the
    // counter stream identical; the saved base call is the whole point.
    it->second.prewarmed = false;
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metric_misses_ != nullptr) metric_misses_->Increment();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (metric_hits_ != nullptr) metric_hits_->Increment();
  }
  *score = it->second.score;
  return true;
}

void PredictionCache::InsertLocked(Shard& shard, const PairKey& key,
                                   double score) {
  if (shard.map.size() >= max_entries_per_shard_ &&
      shard.map.find(key) == shard.map.end()) {
    evictions_.fetch_add(static_cast<long long>(shard.map.size()),
                         std::memory_order_relaxed);
    if (metric_evictions_ != nullptr) {
      metric_evictions_->Add(static_cast<long long>(shard.map.size()));
    }
    shard.map.clear();
  }
  shard.map[key] = Entry{score, false};
}

void PredictionCache::Insert(const PairKey& key, double score) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  InsertLocked(shard, key, score);
}

bool PredictionCache::View::Lookup(const PairKey& key, double* score) {
  auto it = local_.find(key);
  if (it != local_.end()) {
    // Lock-free hit: counts as an ordinary hit (the shards hold the
    // same deterministic score) plus the view_hits marker.
    cache_->hits_.fetch_add(1, std::memory_order_relaxed);
    if (cache_->metric_hits_ != nullptr) cache_->metric_hits_->Increment();
    if (cache_->metric_view_hits_ != nullptr) {
      cache_->metric_view_hits_->Increment();
    }
    *score = it->second;
    return true;
  }
  // Read through with the normal hit/miss (and prewarm first-touch)
  // accounting, then remember the score locally.
  if (!cache_->Lookup(key, score)) return false;
  RememberLocal(key, *score);
  return true;
}

void PredictionCache::View::Insert(const PairKey& key, double score) {
  RememberLocal(key, score);
  pending_.emplace_back(key, score);
}

void PredictionCache::View::RememberLocal(const PairKey& key, double score) {
  // The local table mirrors the shard budget; clearing it only costs
  // re-reads through the shards (deterministic: size-triggered).
  if (local_.size() >= cache_->max_entries_per_shard_) local_.clear();
  local_[key] = score;
}

void PredictionCache::View::Flush() {
  if (pending_.empty()) return;
  const size_t shards = cache_->shards_.size();
  if (by_shard_.size() != shards) by_shard_.resize(shards);
  for (const auto& entry : pending_) {
    by_shard_[cache_->ShardIndex(entry.first)].push_back(entry);
  }
  pending_.clear();
  for (size_t s = 0; s < shards; ++s) {
    std::vector<std::pair<PairKey, double>>& entries = by_shard_[s];
    if (entries.empty()) continue;
    if (cache_->metric_flush_locks_ != nullptr) {
      cache_->metric_flush_locks_->Increment();
    }
    Shard& shard = *cache_->shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Per-shard insertion order is preserved, so eviction points (and
    // the eviction counters) match inserting each entry directly.
    for (const auto& [key, score] : entries) {
      cache_->InsertLocked(shard, key, score);
    }
    entries.clear();
  }
}

void PredictionCache::Prewarm(const PairKey& key, double score) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.size() >= max_entries_per_shard_ &&
      shard.map.find(key) == shard.map.end()) {
    // Respect the shard budget even while seeding; dropping a replayed
    // entry only costs a re-computation later.
    return;
  }
  shard.map.emplace(key, Entry{score, true});
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
      cache_(options.cache_shards, options.max_cache_entries_per_shard),
      view_(&cache_) {
  CERTA_CHECK(base != nullptr);
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    metric_.batch_size =
        reg.histogram("scoring.batch.size", obs::SizeBuckets());
    metric_.batch_latency_us =
        reg.histogram("scoring.batch.latency_us", obs::LatencyBuckets());
    metric_.batches = reg.counter("scoring.batches");
    metric_.scores_computed = reg.counter("scoring.scores.computed");
    metric_.cache_contended = reg.counter("scoring.cache.contended_batches");
    cache_.BindMetrics(reg.counter("scoring.cache.hits"),
                       reg.counter("scoring.cache.misses"),
                       reg.counter("scoring.cache.evictions"),
                       reg.counter("scoring.cache.store_hits"),
                       reg.counter("scoring.cache.store_peer_hits"));
    cache_.BindViewMetrics(reg.counter("scoring.cache.view_hits"),
                           reg.counter("scoring.cache.flush_locks"));
  }
}

namespace {

/// Scoped ownership of the engine's batched cache view: the winning
/// batch probes/inserts lock-free and merges at scope exit (normal or
/// exceptional); concurrent batches fall back to the locked path.
class ViewLease {
 public:
  ViewLease(bool enable_cache, PredictionCache::View* view,
            std::atomic<bool>* busy, obs::Counter* contended)
      : view_(view), busy_(busy) {
    owned_ = enable_cache &&
             !busy_->exchange(true, std::memory_order_acq_rel);
    if (enable_cache && !owned_ && contended != nullptr) {
      contended->Increment();
    }
  }
  ~ViewLease() {
    if (owned_) {
      view_->Flush();
      busy_->store(false, std::memory_order_release);
    }
  }
  ViewLease(const ViewLease&) = delete;
  ViewLease& operator=(const ViewLease&) = delete;

  bool owned() const { return owned_; }

 private:
  PredictionCache::View* view_;
  std::atomic<bool>* busy_;
  bool owned_ = false;
};

}  // namespace

double ScoringEngine::Score(const data::Record& u,
                            const data::Record& v) const {
  if (!options_.enable_cache && !options_.observer &&
      !options_.store_probe && !options_.store_write) {
    return base_->Score(u, v);
  }
  PairKey key = HashPair(u, v);
  double score = 0.0;
  if (options_.enable_cache && cache_.Lookup(key, &score)) return score;
  if (options_.store_probe) {
    const int served = options_.store_probe(key, &score);
    if (served != 0) {
      // Store-served miss: same insertion (and hence eviction) sequence
      // as computing, minus the paid base call. The observer stays
      // silent — nothing fresh happened.
      cache_.CountStoreHit(/*peer=*/served == 2);
      if (options_.enable_cache) cache_.Insert(key, score);
      return score;
    }
  }
  score = base_->Score(u, v);
  if (metric_.scores_computed != nullptr) metric_.scores_computed->Increment();
  if (options_.enable_cache) cache_.Insert(key, score);
  if (options_.observer) options_.observer(key, score);
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

std::vector<double> ScoringEngine::ScoreBatch(
    std::span<const RecordPair> pairs) const {
  std::vector<double> scores(pairs.size(), 0.0);
  if (pairs.empty()) return scores;
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

  // One batch at a time owns the engine's thread-local-style view and
  // probes/inserts without touching shard locks until the final flush;
  // a losing concurrent batch takes the locked per-lookup path.
  ViewLease lease(options_.enable_cache, &view_, &view_busy_,
                  metric_.cache_contended);

  // Cache probe phase (sequential, so counters stay deterministic).
  // A miss the durable store can serve is remembered as a store fill:
  // it skips the compute phase but is inserted in the same relative
  // slot order as a computed miss, so the eviction sequence — and
  // hence every counter in CertaResult — is identical with the store
  // detached.
  std::vector<double> unique_scores(plan.unique_inputs.size(), 0.0);
  std::vector<RecordPair> miss_pairs;
  std::vector<size_t> fill_slots;          // ascending unique-slot order
  std::vector<uint8_t> fill_from_store;    // parallel to fill_slots
  for (size_t s = 0; s < plan.unique_inputs.size(); ++s) {
    size_t input = plan.unique_inputs[s];
    if (options_.enable_cache &&
        (lease.owned() ? view_.Lookup(plan.keys[input], &unique_scores[s])
                       : cache_.Lookup(plan.keys[input], &unique_scores[s]))) {
      continue;
    }
    if (options_.store_probe) {
      const int served =
          options_.store_probe(plan.keys[input], &unique_scores[s]);
      if (served != 0) {
        cache_.CountStoreHit(/*peer=*/served == 2);
        fill_slots.push_back(s);
        fill_from_store.push_back(1);
        continue;
      }
    }
    miss_pairs.push_back(pairs[input]);
    fill_slots.push_back(s);
    fill_from_store.push_back(0);
  }

  // Compute phase (possibly parallel), then sequential insert phase.
  // ScoreMisses throws on failure, so a failed batch never reaches the
  // insert loop — the cache only ever holds scores the model produced.
  std::vector<double> miss_scores = ScoreMisses(miss_pairs);
  size_t next_miss = 0;
  for (size_t f = 0; f < fill_slots.size(); ++f) {
    const size_t s = fill_slots[f];
    const bool from_store = fill_from_store[f] != 0;
    if (!from_store) unique_scores[s] = miss_scores[next_miss++];
    const PairKey& key = plan.keys[plan.unique_inputs[s]];
    if (options_.enable_cache) {
      if (lease.owned()) {
        view_.Insert(key, unique_scores[s]);
      } else {
        cache_.Insert(key, unique_scores[s]);
      }
    }
    if (from_store) continue;  // nothing fresh: observer/store stay quiet
    if (options_.observer) options_.observer(key, unique_scores[s]);
    if (options_.store_write) options_.store_write(key, unique_scores[s]);
  }

  for (size_t i = 0; i < pairs.size(); ++i) {
    scores[i] = unique_scores[plan.slot[i]];
  }
  if (metric_.scores_computed != nullptr) {
    metric_.scores_computed->Add(static_cast<long long>(miss_pairs.size()));
  }
  if (timed) {
    metric_.batch_latency_us->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - batch_start)
            .count()));
  }
  return scores;
}

ScoringEngine::BatchOutcome ScoringEngine::TryScoreBatch(
    std::span<const RecordPair> pairs) const {
  BatchOutcome out;
  out.scores.assign(pairs.size(), 0.0);
  out.ok.assign(pairs.size(), 0);
  if (pairs.empty()) return out;
  const bool timed = metric_.batch_latency_us != nullptr &&
                     options_.metrics->enabled();
  const auto batch_start = timed ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point();
  if (metric_.batches != nullptr) metric_.batches->Increment();
  if (metric_.batch_size != nullptr) {
    metric_.batch_size->Record(static_cast<double>(pairs.size()));
  }
  BatchPlan plan = MakePlan(pairs);

  // Same single-owner view protocol as ScoreBatch.
  ViewLease lease(options_.enable_cache, &view_, &view_busy_,
                  metric_.cache_contended);

  // Probe phase mirrors ScoreBatch: store-served misses are recorded
  // as fills and inserted in slot order alongside computed misses, so
  // cache counters match a store-detached run exactly.
  std::vector<double> unique_scores(plan.unique_inputs.size(), 0.0);
  std::vector<uint8_t> unique_ok(plan.unique_inputs.size(), 0);
  std::vector<RecordPair> miss_pairs;
  std::vector<size_t> fill_slots;
  std::vector<uint8_t> fill_from_store;
  for (size_t s = 0; s < plan.unique_inputs.size(); ++s) {
    size_t input = plan.unique_inputs[s];
    if (options_.enable_cache &&
        (lease.owned() ? view_.Lookup(plan.keys[input], &unique_scores[s])
                       : cache_.Lookup(plan.keys[input], &unique_scores[s]))) {
      unique_ok[s] = 1;
      continue;
    }
    if (options_.store_probe) {
      const int served =
          options_.store_probe(plan.keys[input], &unique_scores[s]);
      if (served != 0) {
        cache_.CountStoreHit(/*peer=*/served == 2);
        fill_slots.push_back(s);
        fill_from_store.push_back(1);
        continue;
      }
    }
    miss_pairs.push_back(pairs[input]);
    fill_slots.push_back(s);
    fill_from_store.push_back(0);
  }

  std::vector<double> miss_scores;
  std::vector<uint8_t> miss_ok;
  TryScoreMisses(miss_pairs, &miss_scores, &miss_ok, &out.budget_exhausted);
  size_t next_miss = 0;
  for (size_t f = 0; f < fill_slots.size(); ++f) {
    const size_t s = fill_slots[f];
    const bool from_store = fill_from_store[f] != 0;
    if (!from_store) {
      const size_t m = next_miss++;
      if (!miss_ok[m]) continue;  // failed pairs never enter the cache
      unique_scores[s] = miss_scores[m];
    }
    unique_ok[s] = 1;
    const PairKey& key = plan.keys[plan.unique_inputs[s]];
    if (options_.enable_cache) {
      if (lease.owned()) {
        view_.Insert(key, unique_scores[s]);
      } else {
        cache_.Insert(key, unique_scores[s]);
      }
    }
    if (from_store) continue;
    if (options_.observer) options_.observer(key, unique_scores[s]);
    if (options_.store_write) options_.store_write(key, unique_scores[s]);
  }

  for (size_t i = 0; i < pairs.size(); ++i) {
    out.scores[i] = unique_scores[plan.slot[i]];
    out.ok[i] = unique_ok[plan.slot[i]];
    if (!out.ok[i]) ++out.failures;
  }
  if (metric_.scores_computed != nullptr) {
    long long computed = 0;
    for (uint8_t flag : miss_ok) computed += flag;
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

void ScoringEngine::Prewarm(const PairKey& key, double score) const {
  if (!options_.enable_cache) return;
  cache_.Prewarm(key, score);
}

PredictionCache::Stats ScoringEngine::cache_stats() const {
  return cache_.stats();
}

}  // namespace certa::models
