#ifndef CERTA_MODELS_RESILIENCE_H_
#define CERTA_MODELS_RESILIENCE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/scoring_engine.h"
#include "util/clock.h"

namespace certa::models {

/// Error taxonomy of the remote-matcher failure model (see
/// docs/RESILIENCE.md). CERTA treats the ER model as a black box; in
/// production that box is a service that can time out, throttle, or go
/// away — these exceptions are how a Matcher implementation reports
/// that, and what the resilience layer retries, budgets, and degrades
/// around. Everything recoverable derives from ScoringError; anything
/// else escaping a Matcher is a programming error, not a fault.
class ScoringError : public std::runtime_error {
 public:
  explicit ScoringError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Retryable fault: a later identical call may succeed (network blip,
/// transient throttling, one slow replica).
class TransientError : public ScoringError {
 public:
  explicit TransientError(const std::string& what) : ScoringError(what) {}
};

/// Non-retryable fault: the backing model cannot serve this call now
/// (hard failure, open circuit breaker). Retrying is pointless.
class UnavailableError : public ScoringError {
 public:
  explicit UnavailableError(const std::string& what)
      : ScoringError(what) {}
};

/// A call exceeded its per-call deadline. Transient: the next attempt
/// may land on a faster replica.
class DeadlineExceeded : public TransientError {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : TransientError(what) {}
};

/// The hard model-call budget of a ResilientMatcher is spent. Not
/// retryable within the same budget; callers degrade to a partial
/// explanation instead.
class BudgetExhausted : public ScoringError {
 public:
  explicit BudgetExhausted(const std::string& what) : ScoringError(what) {}
};

/// Deterministic fault plan for one FaultInjectingMatcher. All
/// decisions are pure functions of (seed, pair content, per-pair
/// attempt number), never of wall-clock time or call interleaving, so
/// fault patterns reproduce bit-for-bit across runs, thread counts, and
/// cache settings.
struct FaultOptions {
  /// Probability that a pair is faulty at all.
  double fault_rate = 0.0;
  /// Among faulty pairs, fraction whose faults are transient; the rest
  /// fail permanently (UnavailableError on every attempt).
  double transient_fraction = 1.0;
  /// A transiently faulty pair throws on its first this-many attempts,
  /// then succeeds — so any retry budget > this value always recovers.
  int transient_failures_per_pair = 1;
  /// Probability that a pair's early attempts are latency spikes.
  double spike_rate = 0.0;
  /// Simulated per-call latency (advanced on the injected clock).
  int64_t latency_micros = 0;
  /// Latency of a spike call (first transient_failures_per_pair
  /// attempts of a spiky pair).
  int64_t spike_latency_micros = 0;
  /// Score-perturbation mode: adds a deterministic per-pair offset in
  /// [-amplitude, +amplitude] (clamped to [0, 1]) instead of throwing.
  double score_perturbation = 0.0;
  uint64_t seed = 1;
};

/// Wraps any Matcher with seeded, deterministic fault injection —
/// the test double for a failure-prone remote scoring service, used by
/// the resilience tests and bench_resilience. Latency is simulated by
/// advancing `clock` (inject a ManualClock to keep tests instant).
class FaultInjectingMatcher : public Matcher {
 public:
  struct Stats {
    long long calls = 0;
    long long transient_thrown = 0;
    long long permanent_thrown = 0;
  };

  /// `base` and `clock` are not owned; nullptr clock = RealClock().
  FaultInjectingMatcher(const Matcher* base, FaultOptions options,
                        util::Clock* clock = nullptr);

  /// Scores the pair, or throws per the fault plan. The inherited
  /// ScoreBatch calls Score per pair (spread over the lent pool, when
  /// there is one), so a faulty pair fails the whole batch — exactly
  /// like a batch RPC failing mid-flight.
  double Score(const data::Record& u, const data::Record& v) const override;

  /// Keeps the base name so explanations are invariant to injection.
  std::string name() const override { return base_->name(); }

  Stats stats() const;

  /// Forgets per-pair attempt history (transient faults re-arm).
  void ResetAttempts();

 private:
  const Matcher* base_;
  FaultOptions options_;
  util::Clock* clock_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<PairKey, int, PairKeyHasher> attempts_;
  mutable std::atomic<long long> calls_{0};
  mutable std::atomic<long long> transient_thrown_{0};
  mutable std::atomic<long long> permanent_thrown_{0};
};

/// Knobs of the ResilientMatcher decorator. Defaults are inert; set
/// `enabled` to make CertaExplainer install the decorator at all.
struct ResilienceOptions {
  /// Master switch: with false, callers skip the decorator entirely and
  /// the scoring path is byte-for-byte the non-resilient one.
  bool enabled = false;
  /// Per-call deadline; 0 disables deadline checking.
  int64_t deadline_micros = 0;
  /// Attempts per logical Score call (1 = no retries).
  int max_attempts = 3;
  /// Deterministic exponential backoff between attempts:
  /// min(backoff_max, backoff_base << (attempt - 1)).
  int64_t backoff_base_micros = 1000;
  int64_t backoff_max_micros = 64000;
  /// Hard budget of base-model invocations (attempts count, cache hits
  /// above the decorator do not); 0 = unlimited. Once spent, every
  /// further call throws BudgetExhausted without reaching the model.
  long long max_model_calls = 0;
  /// Circuit breaker: opens after this many consecutive logical
  /// failures; 0 disables the breaker.
  int breaker_threshold = 0;
  /// While open, this many calls fail fast (UnavailableError) before a
  /// half-open probe is let through to test recovery.
  long long breaker_cooldown_calls = 16;
  /// Not owned; nullptr = RealClock(). Inject a ManualClock in tests so
  /// backoff sleeps and deadline checks cost no wall time.
  util::Clock* clock = nullptr;
  /// Observability registry (not owned; nullptr = uninstrumented).
  /// Mirrors the resilience.* metric catalog (docs/OBSERVABILITY.md);
  /// Stats stays authoritative and registry-independent.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Decorator that makes any Matcher safe to build explanations on:
/// per-call deadlines, bounded retries with deterministic exponential
/// backoff, a circuit breaker, and a hard model-call budget. Drops in
/// wherever a Matcher is expected (typically between a remote/faulty
/// base model and the ScoringEngine, which adds caching and batching on
/// top and only re-charges the budget on cache misses).
///
/// With inert options and a fault-free base, both Score and ScoreBatch
/// forward straight to the base model: scores, call pattern, and batch
/// shapes are bit-identical to not having the decorator at all.
class ResilientMatcher : public Matcher {
 public:
  struct Stats {
    /// Base-model invocations attempted (== budget spent).
    long long calls = 0;
    /// Logical Score/ScoreBatch-pair requests served or failed.
    long long logical_calls = 0;
    /// Extra attempts after a transient failure.
    long long retries = 0;
    /// Logical calls that ultimately failed (exception escaped).
    long long failures = 0;
    long long deadline_hits = 0;
    long long breaker_rejections = 0;
  };

  /// `base` is not owned and must outlive the decorator.
  ResilientMatcher(const Matcher* base, ResilienceOptions options);

  /// Scores with retries/deadline/budget/breaker; throws the last
  /// ScoringError when the call ultimately fails.
  double Score(const data::Record& u, const data::Record& v) const override;

  /// Happy path: one batched base call (budget charged per pair). On a
  /// transient batch failure, falls back to per-pair resilient scoring
  /// so one bad pair no longer poisons the whole batch. A batch that no
  /// longer fits the remaining budget is rejected upfront (throws
  /// BudgetExhausted without spending anything) — callers salvage the
  /// tail of the budget by scoring per pair.
  std::vector<double> ScoreBatch(
      std::span<const RecordPair> pairs) const override;

  std::string name() const override { return base_->name(); }

  Stats stats() const;
  const ResilienceOptions& options() const { return options_; }
  long long budget_remaining() const;

 private:
  /// One attempt: breaker gate, budget charge, base call, deadline
  /// check. Throws ScoringError subclasses on any failure.
  double ScoreOnce(const data::Record& u, const data::Record& v) const;

  /// Throws BudgetExhausted unless `amount` more base calls fit; charges
  /// them when they do.
  void Charge(long long amount) const;

  void BreakerGate() const;
  void RecordOutcome(bool success) const;

  /// Registry handles, resolved once in the constructor (all null when
  /// Options::metrics is null).
  struct MetricHandles {
    obs::Counter* calls = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* deadline_hits = nullptr;
    obs::Counter* breaker_rejections = nullptr;
    obs::Counter* breaker_opens = nullptr;
    obs::Counter* breaker_closes = nullptr;
    obs::Gauge* breaker_state = nullptr;
    obs::Gauge* budget_remaining = nullptr;
  };

  const Matcher* base_;
  ResilienceOptions options_;
  util::Clock* clock_;
  MetricHandles metric_;

  mutable std::atomic<long long> spent_{0};
  mutable std::atomic<long long> logical_calls_{0};
  mutable std::atomic<long long> retries_{0};
  mutable std::atomic<long long> failures_{0};
  mutable std::atomic<long long> deadline_hits_{0};
  mutable std::atomic<long long> breaker_rejections_{0};

  mutable std::mutex breaker_mutex_;
  mutable int consecutive_failures_ = 0;
  mutable bool breaker_open_ = false;
  mutable long long rejections_since_open_ = 0;
};

/// Fault-tolerant batch scoring over any Matcher. When `model` is a
/// ScoringEngine, delegates to its TryScoreBatch (shared cache, pooled
/// fan-out, batch-level fallback); otherwise scores pair by pair,
/// catching ScoringError per pair. Either way failed pairs come back
/// with ok[i] == 0 instead of an exception, and a BudgetExhausted sets
/// the outcome flag and fails the remaining pairs without further
/// model calls.
ScoringEngine::BatchOutcome TryScoreBatch(const Matcher& model,
                                          std::span<const RecordPair> pairs);

}  // namespace certa::models

#endif  // CERTA_MODELS_RESILIENCE_H_
