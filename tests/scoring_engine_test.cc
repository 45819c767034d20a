// Tests for the batched + cached + pooled scoring layer: ThreadPool
// scheduling and lending guarantees, PredictionCache accounting,
// ScoreBatch ≡ Score for every trained model kind (pooled lattice-shaped
// batches included), and bit-identical CertaExplainer output at any
// thread count / cache setting.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/certa_explainer.h"
#include "data/benchmarks.h"
#include "models/resilience.h"
#include "models/scoring_engine.h"
#include "models/trainer.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace certa {
namespace {

using models::HashPair;
using models::PairKey;
using models::PredictionCache;
using models::RecordPair;
using models::ScoringEngine;
using testing::FakeMatcher;
using testing::MakeRecord;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, SizeClampsToAtLeastOne) {
  util::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
  EXPECT_GE(util::ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyBatches) {
  util::ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "fn called for count 0"; });
  std::atomic<int> total{0};
  pool.ParallelFor(1, [&](size_t) { ++total; });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPoolTest, ChunkedRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kCount = 1003;  // not a multiple of any grain below
  for (size_t grain : {size_t{1}, size_t{7}, size_t{32}, size_t{5000}}) {
    std::vector<std::atomic<int>> hits(kCount);
    pool.ParallelFor(kCount, grain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnCountAndGrain) {
  // The partition into [begin, end) ranges must be the fixed grid
  // {0, g, 2g, ...} regardless of how many workers raced for chunks —
  // that is what keeps index-addressed outputs (and everything built
  // on them) deterministic at any thread count.
  constexpr size_t kCount = 257;
  constexpr size_t kGrain = 16;
  for (int threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    std::mutex mutex;
    std::vector<std::pair<size_t, size_t>> ranges;
    pool.ParallelFor(kCount, kGrain, [&](size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      ranges.emplace_back(begin, end);
    });
    std::sort(ranges.begin(), ranges.end());
    ASSERT_EQ(ranges.size(), (kCount + kGrain - 1) / kGrain);
    for (size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(ranges[c].first, c * kGrain);
      EXPECT_EQ(ranges[c].second, std::min(kCount, (c + 1) * kGrain));
    }
  }
}

TEST(ThreadPoolTest, ChunkedGrainZeroAndEmptyAreSafe) {
  util::ThreadPool pool(2);
  pool.ParallelFor(0, 8, [](size_t, size_t) {
    FAIL() << "range_fn called for count 0";
  });
  std::atomic<int> total{0};
  pool.ParallelFor(5, 0, [&](size_t begin, size_t end) {  // grain clamps to 1
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 5);
}

TEST(ThreadPoolTest, LendIsScopedAndNests) {
  util::ThreadPool outer(2);
  util::ThreadPool inner(2);
  EXPECT_EQ(util::ThreadPool::Current(), nullptr);
  {
    util::ThreadPool::Lend lend(&outer);
    EXPECT_EQ(util::ThreadPool::Current(), &outer);
    {
      util::ThreadPool::Lend nested(&inner);
      EXPECT_EQ(util::ThreadPool::Current(), &inner);
      util::ThreadPool::Lend none(nullptr);
      EXPECT_EQ(util::ThreadPool::Current(), nullptr);
    }
    EXPECT_EQ(util::ThreadPool::Current(), &outer);
    // Workers start with nothing lent; only the caller's lend is set.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> lent_on_worker{0};
    outer.ParallelFor(64, [&](size_t) {
      if (std::this_thread::get_id() != caller &&
          util::ThreadPool::Current() != nullptr) {
        ++lent_on_worker;
      }
    });
    EXPECT_EQ(lent_on_worker.load(), 0);
  }
  EXPECT_EQ(util::ThreadPool::Current(), nullptr);
}

TEST(ThreadPoolTest, LentParallelForCoversEveryIndexWithNothingLentInside) {
  constexpr size_t kCount = 1003;
  for (int threads : {0, 1, 2, 4, 8}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    util::ThreadPool::Lend lend(pool.get());
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<int> lent_inside{0};
    util::LentParallelFor(kCount, [&](size_t begin, size_t end) {
      if (util::ThreadPool::Current() != nullptr) ++lent_inside;
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << threads << " threads, index " << i;
    }
    EXPECT_EQ(lent_inside.load(), 0);
    EXPECT_EQ(util::ThreadPool::Current(), pool.get());
  }
}

TEST(ThreadPoolTest, LentParallelForRethrowsTheLowestFailingRange) {
  // Indices 300 and 700 fail; every range still runs to its end or its
  // own first failure, and the caller sees index 300's exception — the
  // one an in-order loop would have thrown — at any pool size.
  constexpr size_t kCount = 1000;
  for (int threads : {0, 1, 2, 4, 8}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    util::ThreadPool::Lend lend(pool.get());
    std::atomic<int> ran{0};
    try {
      util::LentParallelFor(kCount, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (i == 300 || i == 700) {
            throw std::runtime_error("index " + std::to_string(i));
          }
          ++ran;
        }
      });
      FAIL() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "index 300") << threads << " threads";
    }
    EXPECT_GE(ran.load(), 300);
  }
}

// ---------------------------------------------------------------------------
// PairKey / PredictionCache

TEST(PairKeyTest, ContentDeterminesKey) {
  data::Record u = MakeRecord(1, {"alpha", "beta"});
  data::Record v = MakeRecord(2, {"gamma", "delta"});
  data::Record u_copy = MakeRecord(99, {"alpha", "beta"});  // ids ignored
  data::Record v_copy = MakeRecord(98, {"gamma", "delta"});
  EXPECT_EQ(HashPair(u, v), HashPair(u_copy, v_copy));
  EXPECT_FALSE(HashPair(u, v) == HashPair(v, u));  // sides matter
  data::Record w = MakeRecord(3, {"alpha", "betb"});
  EXPECT_FALSE(HashPair(u, v) == HashPair(w, v));
}

TEST(PairKeyTest, ValueBoundariesAreFramed) {
  // ("ab", "c") vs ("a", "bc") must hash differently.
  data::Record u1 = MakeRecord(0, {"ab", "c"});
  data::Record u2 = MakeRecord(0, {"a", "bc"});
  data::Record v = MakeRecord(1, {"x"});
  EXPECT_FALSE(HashPair(u1, v) == HashPair(u2, v));
  // A value holding the old separator byte must not alias two values.
  data::Record joined = MakeRecord(0, {"a\x1f" "b"});
  data::Record split = MakeRecord(0, {"a", "b"});
  EXPECT_FALSE(HashPair(joined, v) == HashPair(split, v));
  // Nor may a value move across the boundary between the two sides.
  data::Record empty = MakeRecord(2, {});
  data::Record x_and_a = MakeRecord(3, {"x", "a"});
  data::Record a_only = MakeRecord(4, {"a"});
  EXPECT_FALSE(HashPair(x_and_a, empty) == HashPair(v, a_only));
}

TEST(PredictionCacheTest, CountsHitsAndMisses) {
  PredictionCache cache(4, 64);
  PairKey key{1, 2};
  double score = -1.0;
  EXPECT_FALSE(cache.Lookup(key, &score));
  cache.Insert(key, 0.75);
  EXPECT_TRUE(cache.Lookup(key, &score));
  EXPECT_DOUBLE_EQ(score, 0.75);
  PredictionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(PredictionCacheTest, FullShardIsClearedAndCounted) {
  PredictionCache cache(1, 4);  // one shard, four entries max
  for (uint64_t i = 0; i < 9; ++i) {
    cache.Insert(PairKey{i, i}, static_cast<double>(i));
  }
  PredictionCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(cache.entry_count(), 4u);
}

TEST(PredictionCacheTest, ConcurrentInsertLookupIsConsistent) {
  PredictionCache cache(8, 1 << 12);
  util::ThreadPool pool(4);
  constexpr size_t kKeys = 512;
  // Insert every key from one thread each, then verify from all.
  pool.ParallelFor(kKeys, [&](size_t i) {
    cache.Insert(PairKey{i, i * 31}, static_cast<double>(i));
  });
  std::atomic<int> wrong{0};
  pool.ParallelFor(kKeys, [&](size_t i) {
    double score = -1.0;
    if (!cache.Lookup(PairKey{i, i * 31}, &score) ||
        score != static_cast<double>(i)) {
      ++wrong;
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(cache.stats().hits, static_cast<long long>(kKeys));
}

TEST(PredictionCacheTest, ShardingSpreadsKeysSharingTheHighWord) {
  // Regression: shard selection used `key.hi % shards`, which piled
  // every key sharing `hi` (and, with power-of-two shard counts, every
  // key with the same low bits of `hi`) into one shard. 200 keys that
  // differ only in `lo` must now spread across 4 shards of 64 — no
  // shard fills, so nothing is evicted. Under the old indexing they all
  // landed in one shard and forced repeated wholesale clears.
  PredictionCache cache(4, 64);
  constexpr uint64_t kSharedHi = 42;
  for (uint64_t lo = 0; lo < 200; ++lo) {
    cache.Insert(PairKey{lo, kSharedHi}, static_cast<double>(lo));
  }
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.entry_count(), 200u);
  double score = -1.0;
  EXPECT_TRUE(cache.Lookup(PairKey{7, kSharedHi}, &score));
  EXPECT_DOUBLE_EQ(score, 7.0);
}

TEST(PredictionCacheTest, ShardingSpreadsWithNonPowerOfTwoShardCount) {
  // Same property with 3 shards (the modulus path, not a mask).
  PredictionCache cache(3, 64);
  for (uint64_t lo = 0; lo < 150; ++lo) {
    cache.Insert(PairKey{lo, 0xDEADBEEFULL}, 0.5);
  }
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.entry_count(), 150u);
}

TEST(PredictionCacheTest, OverflowingOneShardDoesNotEvictOthers) {
  // Regression guard for the eviction policy: a shard that fills past
  // its budget clears ITSELF only. Keys are pre-classified by the same
  // hash the cache shards with, so the flood provably targets shard 0.
  constexpr size_t kShards = 4;
  constexpr size_t kPerShard = 8;
  PredictionCache cache(kShards, kPerShard);
  models::PairKeyHasher hasher;

  // A few residents in every non-flooded shard — at most 3 per shard,
  // so no shard crosses its own budget during setup. (The key words
  // must have independent parities: the shard hash is
  // lo ^ hi * odd-constant, so keys built as {i*odd, i*odd} all share
  // low bits and pile into one shard.)
  std::vector<PairKey> residents;
  std::vector<int> per_shard(kShards, 0);
  for (uint64_t i = 0; residents.size() < 3 * (kShards - 1) && i < 4096;
       ++i) {
    PairKey key{i * 0xBF58476D1CE4E5B9ULL,
                (i >> 1) * 0x94D049BB133111EBULL + i};
    const size_t shard = hasher(key) % kShards;
    if (shard == 0 || per_shard[shard] >= 3) continue;
    ++per_shard[shard];
    residents.push_back(key);
    cache.Insert(key, static_cast<double>(i));
  }
  ASSERT_EQ(residents.size(), 3 * (kShards - 1));
  ASSERT_EQ(cache.stats().evictions, 0);

  // Flood shard 0 far past its budget: multiple wholesale clears.
  long long flooded = 0;
  for (uint64_t i = 0; flooded < 10 * static_cast<long long>(kPerShard) &&
                       i < 1 << 16;
       ++i) {
    PairKey key{i * 7919, i};
    if (hasher(key) % kShards != 0) continue;
    cache.Insert(key, 1.0);
    ++flooded;
  }
  ASSERT_EQ(flooded, 10 * static_cast<long long>(kPerShard));
  EXPECT_GT(cache.stats().evictions, 0);

  // Every other-shard resident survived the flood, score intact.
  for (size_t r = 0; r < residents.size(); ++r) {
    double score = -1.0;
    EXPECT_TRUE(cache.Lookup(residents[r], &score)) << "resident " << r;
  }
  // Counter consistency: everything ever inserted is either resident
  // now or accounted for by the eviction counter.
  EXPECT_EQ(static_cast<long long>(cache.entry_count()) +
                cache.stats().evictions,
            static_cast<long long>(residents.size()) + flooded);
}

// ---------------------------------------------------------------------------
// ScoringEngine

TEST(ScoringEngineTest, ScoreMatchesBaseAndCaches) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return u.values[0] == v.values[0] ? 0.9 : 0.1;
  });
  ScoringEngine engine(&base);
  data::Record u = MakeRecord(0, {"same"});
  data::Record v = MakeRecord(1, {"same"});
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.9);
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.9);
  EXPECT_EQ(base.calls(), 1);  // second call served from cache
  PredictionCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ScoringEngineTest, DisabledCacheAlwaysCallsBase) {
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.4;
  });
  ScoringEngine::Options options;
  options.enable_cache = false;
  ScoringEngine engine(&base, options);
  data::Record u = MakeRecord(0, {"a"});
  data::Record v = MakeRecord(1, {"b"});
  engine.Score(u, v);
  engine.Score(u, v);
  EXPECT_EQ(base.calls(), 2);
  PredictionCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

// ---------------------------------------------------------------------------
// Cross-job store read-through hooks (the persist::ScoreStore side is
// tested in score_store_test.cc; here a plain map stands in, which
// pins the engine-side contract independent of the store format).

/// Map-backed store double wired into engine options.
struct MapStore {
  std::unordered_map<PairKey, double, models::PairKeyHasher> entries;
  int probes = 0;
  int writes = 0;

  void Wire(ScoringEngine::Options* options) {
    options->store_probe = [this](const PairKey& key, double* score) {
      ++probes;
      auto it = entries.find(key);
      if (it == entries.end()) return false;
      *score = it->second;
      return true;
    };
    options->store_write = [this](const PairKey& key, double score) {
      ++writes;
      entries.emplace(key, score);
    };
  }
};

TEST(ScoringEngineTest, StoreProbeServesMissWithoutBaseCall) {
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.6;
  });
  data::Record u = MakeRecord(0, {"left"});
  data::Record v = MakeRecord(1, {"right"});
  MapStore store;
  store.entries[HashPair(u, v)] = 0.6;
  ScoringEngine::Options options;
  store.Wire(&options);
  ScoringEngine engine(&base, options);
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.6);
  EXPECT_EQ(base.calls(), 0);  // served by the store, not the model
  PredictionCache::Stats stats = engine.cache_stats();
  // A store-served probe still counts the cache miss it intercepted —
  // hits/misses stay identical with the store detached — and the
  // distinct store_hits counter is the only trace.
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.store_hits, 1);
  // The served score was inserted: the next probe is a plain cache
  // hit, no second store probe.
  EXPECT_DOUBLE_EQ(engine.Score(u, v), 0.6);
  EXPECT_EQ(store.probes, 1);
  EXPECT_EQ(engine.cache_stats().store_hits, 1);
  EXPECT_EQ(engine.cache_stats().hits, 1);
}

TEST(ScoringEngineTest, StoreWriteFiresForFreshComputesOnly) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return u.values[0] == v.values[0] ? 1.0 : 0.0;
  });
  MapStore store;
  ScoringEngine::Options options;
  store.Wire(&options);
  ScoringEngine engine(&base, options);
  data::Record a = MakeRecord(0, {"a"});
  data::Record b = MakeRecord(1, {"b"});
  data::Record c = MakeRecord(2, {"c"});
  std::vector<RecordPair> pairs = {{&a, &b}, {&a, &b}, {&a, &c}};
  engine.ScoreBatch(pairs);
  EXPECT_EQ(store.writes, 2);  // one per unique computed pair
  // Cache hits and store-served probes never re-write.
  engine.ScoreBatch(pairs);
  EXPECT_EQ(store.writes, 2);
  ScoringEngine warm(&base, options);  // fresh cache, warm store
  base.reset_calls();
  warm.ScoreBatch(pairs);
  EXPECT_EQ(base.calls(), 0);
  EXPECT_EQ(store.writes, 2);
  EXPECT_EQ(warm.cache_stats().store_hits, 2);
}

TEST(ScoringEngineTest, AccountingIdenticalWithStoreAttached) {
  auto score_fn = [](const data::Record& u, const data::Record& v) {
    return 0.1 * static_cast<double>(u.values[0].size() + v.values[0].size());
  };
  std::vector<data::Record> records;
  for (int i = 0; i < 12; ++i) {
    records.push_back(MakeRecord(i, {std::string(1 + i % 5, 'x') +
                                     std::to_string(i)}));
  }
  std::vector<RecordPair> pairs;
  for (int i = 0; i + 1 < 12; ++i) {
    pairs.push_back({&records[i], &records[i + 1]});
    pairs.push_back({&records[0], &records[i]});
  }
  // Detached reference.
  FakeMatcher base_a(score_fn);
  ScoringEngine plain(&base_a);
  const std::vector<double> expected = plain.ScoreBatch(pairs);
  const PredictionCache::Stats reference = plain.cache_stats();
  // Cold store: same scores, same hit/miss/eviction stream.
  FakeMatcher base_b(score_fn);
  MapStore store;
  ScoringEngine::Options options;
  store.Wire(&options);
  ScoringEngine cold(&base_b, options);
  EXPECT_EQ(cold.ScoreBatch(pairs), expected);
  PredictionCache::Stats cold_stats = cold.cache_stats();
  EXPECT_EQ(cold_stats.hits, reference.hits);
  EXPECT_EQ(cold_stats.misses, reference.misses);
  EXPECT_EQ(cold_stats.evictions, reference.evictions);
  EXPECT_EQ(cold_stats.store_hits, 0);
  // Warm store: zero base calls, still the same counter stream.
  FakeMatcher base_c(score_fn);
  ScoringEngine warm(&base_c, options);
  EXPECT_EQ(warm.ScoreBatch(pairs), expected);
  PredictionCache::Stats warm_stats = warm.cache_stats();
  EXPECT_EQ(base_c.calls(), 0);
  EXPECT_EQ(warm_stats.hits, reference.hits);
  EXPECT_EQ(warm_stats.misses, reference.misses);
  EXPECT_EQ(warm_stats.evictions, reference.evictions);
  EXPECT_EQ(warm_stats.store_hits, reference.misses);
}

TEST(ScoringEngineTest, StoreWriteStaysSilentForProbeServedScores) {
  // The hook pair as a durable run wires it: the probe serves a
  // resumed job's journal replay first, then the cross-job store, and
  // store_write feeds the journal. A probe-served score was never
  // computed in this run, so journaling it again would double-pay on
  // the next replay; only fresh computes may reach store_write.
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.5;
  });
  data::Record u = MakeRecord(0, {"u"});
  data::Record v = MakeRecord(1, {"v"});
  data::Record w = MakeRecord(2, {"w"});
  std::unordered_map<PairKey, double, models::PairKeyHasher> replayed;
  replayed[HashPair(v, w)] = 0.5;
  MapStore store;
  store.entries[HashPair(u, v)] = 0.5;
  std::vector<PairKey> journaled;
  ScoringEngine::Options options;
  options.store_probe = [&](const PairKey& key, double* score) {
    for (const auto* source : {&replayed, &store.entries}) {
      auto it = source->find(key);
      if (it == source->end()) continue;
      *score = it->second;
      return 1;
    }
    return 0;
  };
  options.store_write = [&journaled](const PairKey& key, double) {
    journaled.push_back(key);
  };
  ScoringEngine engine(&base, options);
  std::vector<RecordPair> pairs = {{&u, &v}, {&u, &w}, {&v, &w}};
  engine.ScoreBatch(pairs);
  ASSERT_EQ(journaled.size(), 1u);  // only the fresh {u, w}
  EXPECT_EQ(journaled[0], HashPair(u, w));
  EXPECT_EQ(base.calls(), 1);
  EXPECT_EQ(engine.cache_stats().store_hits, 2);
}

TEST(ScoringEngineTest, JournalProbeResumeMatchesBoundedCacheAccounting) {
  // A two-entry-per-shard cache evicts constantly. A resume that
  // serves the journal through store_probe must still pay nothing and
  // reproduce the uninterrupted run's hit/miss/eviction stream: each
  // replayed score enters the cache at the point the original run
  // computed it, never ahead of time, so it neither crowds the shard
  // nor is dropped for lack of room.
  auto score_fn = [](const data::Record& u, const data::Record& v) {
    return 0.01 * static_cast<double>(u.id * 31 + v.id);
  };
  std::vector<data::Record> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(
        MakeRecord(i, {std::string(1, 'r') + std::to_string(i)}));
  }
  std::vector<std::vector<RecordPair>> batches;
  for (int round = 0; round < 3; ++round) {
    std::vector<RecordPair> batch;
    for (int i = 0; i < 10; ++i) {
      batch.push_back({&records[i], &records[(i * (round + 2)) % 10]});
      batch.push_back({&records[0], &records[i]});
    }
    batches.push_back(std::move(batch));
  }
  ScoringEngine::Options options;
  options.cache_shards = 2;
  options.max_cache_entries_per_shard = 2;

  FakeMatcher first_base(score_fn);
  std::unordered_map<PairKey, double, models::PairKeyHasher> journal;
  ScoringEngine::Options first_options = options;
  first_options.store_write = [&journal](const PairKey& key, double score) {
    journal.emplace(key, score);
  };
  ScoringEngine first(&first_base, first_options);
  std::vector<std::vector<double>> expected;
  for (const auto& batch : batches) expected.push_back(first.ScoreBatch(batch));
  const PredictionCache::Stats reference = first.cache_stats();
  ASSERT_GT(reference.evictions, 0);
  ASSERT_GT(reference.hits, 0);

  FakeMatcher resumed_base(score_fn);
  ScoringEngine::Options resumed_options = options;
  int rewritten = 0;
  resumed_options.store_probe = [&journal](const PairKey& key,
                                           double* score) {
    auto it = journal.find(key);
    if (it == journal.end()) return 0;
    *score = it->second;
    return 1;
  };
  resumed_options.store_write = [&rewritten](const PairKey&, double) {
    ++rewritten;
  };
  ScoringEngine resumed(&resumed_base, resumed_options);
  for (size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(resumed.ScoreBatch(batches[b]), expected[b]) << "batch " << b;
  }
  EXPECT_EQ(resumed_base.calls(), 0);
  EXPECT_EQ(rewritten, 0);
  const PredictionCache::Stats stats = resumed.cache_stats();
  EXPECT_EQ(stats.hits, reference.hits);
  EXPECT_EQ(stats.misses, reference.misses);
  EXPECT_EQ(stats.evictions, reference.evictions);
  EXPECT_EQ(stats.store_hits, reference.misses);
}

TEST(ScoringEngineTest, StoreHitsExportedToMetricsRegistry) {
  FakeMatcher base([](const data::Record&, const data::Record&) {
    return 0.3;
  });
  data::Record u = MakeRecord(0, {"u"});
  data::Record v = MakeRecord(1, {"v"});
  MapStore store;
  store.entries[HashPair(u, v)] = 0.3;
  obs::MetricsRegistry registry;
  ScoringEngine::Options options;
  store.Wire(&options);
  options.metrics = &registry;
  ScoringEngine engine(&base, options);
  engine.Score(u, v);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("scoring.cache.store_hits"), std::string::npos)
      << json;
  // Regression guard: the registry value mirrors the engine's own
  // counter (1 store-served probe).
  EXPECT_EQ(engine.cache_stats().store_hits, 1);
}

TEST(ScoringEngineTest, BatchDedupesIdenticalPairs) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return u.values[0] == v.values[0] ? 1.0 : 0.0;
  });
  ScoringEngine engine(&base);
  data::Record a = MakeRecord(0, {"a"});
  data::Record b = MakeRecord(1, {"b"});
  data::Record a2 = MakeRecord(2, {"a"});  // same content as a
  std::vector<RecordPair> pairs = {
      {&a, &b}, {&a, &b}, {&a2, &b}, {&b, &a}, {&a, &a2}};
  std::vector<double> scores = engine.ScoreBatch(pairs);
  ASSERT_EQ(scores.size(), pairs.size());
  EXPECT_DOUBLE_EQ(scores[0], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);
  EXPECT_DOUBLE_EQ(scores[2], 0.0);  // deduped with slot 0 by content
  EXPECT_DOUBLE_EQ(scores[3], 0.0);
  EXPECT_DOUBLE_EQ(scores[4], 1.0);
  EXPECT_EQ(base.calls(), 3);  // {a,b}, {b,a}, {a,a}
  // A second batch over the same pairs is served fully from cache.
  base.reset_calls();
  std::vector<double> again = engine.ScoreBatch(pairs);
  EXPECT_EQ(base.calls(), 0);
  EXPECT_EQ(again, scores);
}

TEST(ScoringEngineTest, PooledBatchMatchesSerial) {
  FakeMatcher base([](const data::Record& u, const data::Record& v) {
    return (u.values[0].size() * 7 + v.values[0].size()) / 100.0;
  });
  util::ThreadPool pool(4);
  ScoringEngine::Options pooled_options;
  pooled_options.pool = &pool;
  pooled_options.enable_cache = false;
  ScoringEngine pooled(&base, pooled_options);
  ScoringEngine serial(&base);

  std::vector<data::Record> lefts;
  std::vector<data::Record> rights;
  for (int i = 0; i < 64; ++i) {
    lefts.push_back(MakeRecord(i, {std::string(i % 11, 'x')}));
    rights.push_back(MakeRecord(i, {std::string(i % 7, 'y')}));
  }
  std::vector<RecordPair> pairs;
  for (int i = 0; i < 64; ++i) pairs.push_back({&lefts[i], &rights[i]});

  EXPECT_EQ(pooled.ScoreBatch(pairs), serial.ScoreBatch(pairs));
}

// ScoreBatch must agree bit-for-bit with per-pair Score for every
// trained model kind (the contract the hot paths rely on).
class ScoreBatchEquivalenceTest
    : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(ScoreBatchEquivalenceTest, BatchEqualsPerPairScore) {
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(GetParam(), dataset);
  std::vector<RecordPair> pairs;
  for (const data::LabeledPair& pair : dataset.test) {
    pairs.push_back({&dataset.left.record(pair.left_index),
                     &dataset.right.record(pair.right_index)});
  }
  ASSERT_FALSE(pairs.empty());
  std::vector<double> batch = model->ScoreBatch(pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(batch[i], model->Score(*pairs[i].left, *pairs[i].right))
        << "pair " << i;
  }
  // Through the engine (cache + dedupe) the scores are still identical.
  ScoringEngine engine(model.get());
  EXPECT_EQ(engine.ScoreBatch(pairs), batch);
}

/// Lattice-shaped batches over `dataset`: each batch pairs one pivot
/// record (the same address in every pair) with perturbed copies of a
/// counterpart whose attributes are swapped for other records' values,
/// so the perturbations share most of their tokens — on both sides.
struct LatticeBatches {
  std::vector<data::Record> perturbed;
  std::vector<std::vector<RecordPair>> batches;
};

LatticeBatches MakeLatticeBatches(const data::Dataset& dataset) {
  LatticeBatches out;
  const int attributes = dataset.left.schema().size();
  const size_t masks = size_t{1} << std::min(attributes, 6);
  constexpr size_t kPivots = 3;
  // Reserve so the perturbed records never move once batches point at
  // them.
  out.perturbed.reserve(2 * kPivots * masks);
  std::vector<std::vector<std::pair<size_t, const data::Record*>>> plans;
  for (size_t p = 0; p < kPivots && p < dataset.test.size(); ++p) {
    const data::LabeledPair& pair = dataset.test[p];
    const data::Record& left = dataset.left.record(pair.left_index);
    const data::Record& right = dataset.right.record(pair.right_index);
    const data::Record& donor = dataset.right.record(
        (pair.right_index + 1) % dataset.right.size());
    const data::Record& left_donor = dataset.left.record(
        (pair.left_index + 1) % dataset.left.size());
    std::vector<RecordPair> batch;
    for (size_t mask = 0; mask < masks; ++mask) {
      data::Record copy = right;
      for (int a = 0; a < attributes; ++a) {
        if (mask & (size_t{1} << a)) copy.values[a] = donor.values[a];
      }
      out.perturbed.push_back(std::move(copy));
      batch.push_back({&left, &out.perturbed.back()});
      data::Record left_copy = left;
      for (int a = 0; a < attributes; ++a) {
        if (mask & (size_t{1} << a)) left_copy.values[a] = left_donor.values[a];
      }
      out.perturbed.push_back(std::move(left_copy));
      batch.push_back({&out.perturbed.back(), &right});
    }
    out.batches.push_back(std::move(batch));
  }
  return out;
}

TEST_P(ScoreBatchEquivalenceTest, PooledLatticeBatchesEqualPerPairScore) {
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(GetParam(), dataset);
  LatticeBatches lattice = MakeLatticeBatches(dataset);
  ASSERT_FALSE(lattice.batches.empty());
  for (int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(threads);
    ScoringEngine::Options options;
    options.pool = &pool;
    options.enable_cache = false;  // every pair reaches the model
    ScoringEngine engine(model.get(), options);
    for (const std::vector<RecordPair>& batch : lattice.batches) {
      std::vector<double> scores = engine.ScoreBatch(batch);
      ASSERT_EQ(scores.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(scores[i], model->Score(*batch[i].left, *batch[i].right))
            << threads << " threads, pair " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ScoreBatchEquivalenceTest,
                         ::testing::Values(models::ModelKind::kDeepEr,
                                           models::ModelKind::kDeepMatcher,
                                           models::ModelKind::kDitto,
                                           models::ModelKind::kSvm),
                         [](const auto& info) {
                           return models::ModelKindName(info.param);
                         });

TEST(DittoBatchTest, LargeVocabularyBatchEqualsPerPairScore) {
  // Over 1024 distinct tokens the batch-wide Jaro-Winkler matrix gives
  // way to per-task hash maps; the scores must not move.
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(models::ModelKind::kDitto, dataset);
  const int attributes = dataset.left.schema().size();
  auto word = [](size_t n) {
    std::string out = "w";
    for (; n > 0; n /= 26) out.push_back(static_cast<char>('a' + n % 26));
    return out;
  };
  std::vector<data::Record> records;
  size_t next_word = 1;
  for (int r = 0; r < 48; ++r) {
    std::vector<std::string> values;
    for (int a = 0; a < attributes; ++a) {
      std::string value;
      for (int t = 0; t < 12; ++t) {
        // Every record also shares a few tokens with its neighbour.
        value += word(t < 2 ? static_cast<size_t>(r / 2 * 2 + t) + 100000
                            : next_word++);
        value += ' ';
      }
      values.push_back(value);
    }
    records.push_back(MakeRecord(r, std::move(values)));
  }
  ASSERT_GT(next_word, 1024u);
  const data::Record& pivot = dataset.right.record(0);
  std::vector<RecordPair> pairs;
  for (const data::Record& record : records) {
    pairs.push_back({&record, &pivot});
    pairs.push_back({&records.front(), &record});
  }
  for (int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    util::ThreadPool::Lend lend(&pool);
    std::vector<double> batch = model->ScoreBatch(pairs);
    ASSERT_EQ(batch.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(batch[i], model->Score(*pairs[i].left, *pairs[i].right))
          << threads << " threads, pair " << i;
    }
  }
}

TEST(ScoringEngineTest, CallBudgetIsCheckedOncePerBatchAtAnyThreadCount) {
  // A 64-miss batch against a 40-call budget is rejected whole, then
  // salvaged pair by pair up to the budget — the same outcome whether
  // or not the engine lends a pool to the model.
  FakeMatcher base([](const data::Record& u, const data::Record&) {
    return static_cast<double>(u.values[0].size()) / 100.0;
  });
  std::vector<data::Record> lefts;
  for (int i = 0; i < 64; ++i) {
    lefts.push_back(MakeRecord(i, {std::string(static_cast<size_t>(i), 'x')}));
  }
  data::Record right = MakeRecord(1000, {"r"});
  std::vector<RecordPair> pairs;
  for (const data::Record& left : lefts) pairs.push_back({&left, &right});
  for (int threads : {1, 4}) {
    models::ResilienceOptions resilience;
    resilience.enabled = true;
    resilience.max_model_calls = 40;
    models::ResilientMatcher budgeted(&base, resilience);
    util::ThreadPool pool(threads);
    ScoringEngine::Options options;
    options.pool = &pool;
    ScoringEngine engine(&budgeted, options);
    ScoringEngine::BatchOutcome outcome = engine.TryScoreBatch(pairs);
    EXPECT_TRUE(outcome.budget_exhausted) << threads << " threads";
    EXPECT_EQ(outcome.failures, 24u) << threads << " threads";
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(outcome.ok[i], i < 40 ? 1 : 0) << threads << " threads " << i;
    }
    EXPECT_EQ(budgeted.stats().calls, 40) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: CertaExplainer::Explain must produce the same
// CertaResult (saliency, counterfactuals, Table 7/8 counters) at any
// thread count, with or without the prediction cache.

struct ExplainConfig {
  int num_threads;
  bool use_cache;
};

class ExplainDeterminismTest
    : public ::testing::TestWithParam<ExplainConfig> {};

TEST_P(ExplainDeterminismTest, MatchesSingleThreadCachedRun) {
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(models::ModelKind::kDeepEr, dataset);
  explain::ExplainContext context{model.get(), &dataset.left,
                                  &dataset.right};
  core::CertaExplainer::Options base_options;
  base_options.num_triangles = 12;

  core::CertaExplainer reference(context, base_options);
  core::CertaExplainer::Options options = base_options;
  options.num_threads = GetParam().num_threads;
  options.use_cache = GetParam().use_cache;
  core::CertaExplainer variant(context, options);

  int checked = 0;
  for (const data::LabeledPair& pair : dataset.test) {
    if (checked >= 3) break;
    ++checked;
    const data::Record& u = dataset.left.record(pair.left_index);
    const data::Record& v = dataset.right.record(pair.right_index);
    core::CertaResult expected = reference.Explain(u, v);
    core::CertaResult actual = variant.Explain(u, v);
    if (!GetParam().use_cache) {
      EXPECT_EQ(actual.cache_hits + actual.cache_misses, 0);
    }
    // JSON covers saliency scores, counterfactuals, sufficiency table
    // and the Table 7/8 counters in one deterministic serialization.
    // Cache counters legitimately differ across configs, so zero them
    // before comparing the payloads.
    expected.cache_hits = actual.cache_hits = 0;
    expected.cache_misses = actual.cache_misses = 0;
    expected.cache_evictions = actual.cache_evictions = 0;
    EXPECT_EQ(core::CertaResultToJson(actual, dataset.left.schema(),
                                      dataset.right.schema()),
              core::CertaResultToJson(expected, dataset.left.schema(),
                                      dataset.right.schema()));
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCache, ExplainDeterminismTest,
    ::testing::Values(ExplainConfig{1, false}, ExplainConfig{2, true},
                      ExplainConfig{4, true}, ExplainConfig{4, false},
                      ExplainConfig{8, true}),
    [](const auto& info) {
      return "Threads" + std::to_string(info.param.num_threads) +
             (info.param.use_cache ? "Cached" : "NoCache");
    });

TEST(ExplainGroupLockstepTest, GroupSizeNeverChangesTheResult) {
  // The lattice phase merges up to lattice_group_size triangles into
  // each scoring batch; only batch boundaries may move, never the
  // per-triangle node order — so every group size (including 1, the
  // old one-triangle-at-a-time shape) must yield the same CertaResult.
  data::Dataset dataset = data::MakeBenchmark("AB");
  auto model = models::TrainMatcher(models::ModelKind::kDeepEr, dataset);
  explain::ExplainContext context{model.get(), &dataset.left,
                                  &dataset.right};
  const data::LabeledPair& pair = dataset.test.front();
  const data::Record& u = dataset.left.record(pair.left_index);
  const data::Record& v = dataset.right.record(pair.right_index);

  core::CertaExplainer::Options options;
  options.num_triangles = 12;
  options.lattice_group_size = 1;
  core::CertaResult reference =
      core::CertaExplainer(context, options).Explain(u, v);
  reference.cache_hits = reference.cache_misses = reference.cache_evictions =
      0;
  const std::string expected = core::CertaResultToJson(
      reference, dataset.left.schema(), dataset.right.schema());

  for (int group : {2, 5, 16, 1000}) {
    options.lattice_group_size = group;
    core::CertaResult actual =
        core::CertaExplainer(context, options).Explain(u, v);
    actual.cache_hits = actual.cache_misses = actual.cache_evictions = 0;
    EXPECT_EQ(core::CertaResultToJson(actual, dataset.left.schema(),
                                      dataset.right.schema()),
              expected)
        << "group size " << group;
  }
}

}  // namespace
}  // namespace certa
