#ifndef CERTA_MODELS_FEATURE_MATCHER_H_
#define CERTA_MODELS_FEATURE_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/mlp.h"
#include "ml/scaler.h"
#include "models/matcher.h"

namespace certa::models {

/// Shared skeleton of the trainable ER models: a model-specific pair
/// featurization (implemented by subclasses) feeding a trained,
/// standardized classification head. Subclasses define Features(),
/// NewBatch() and name(); Fit/Score/ScoreBatch are common.
class FeatureMatcher : public Matcher {
 public:
  /// Which classification head sits on the features.
  enum class Head {
    kLogistic,
    kMlp,
    kSvm,
  };

  /// Trains the head on the dataset's train pairs. Must be called before
  /// Score. `seed` controls head initialization and batching.
  void Fit(const data::Dataset& dataset, uint64_t seed);

  double Score(const data::Record& u, const data::Record& v) const override;

  /// Batched scoring in two passes, each spread over the pool lent to
  /// the calling thread (util::LentParallelFor): pass 1 builds one
  /// representation per distinct record of the batch (keyed by address)
  /// through NewBatch; pass 2 featurizes, scales and scores every pair
  /// from those representations in one round. Bit-identical to calling
  /// Score per pair, at any pool size.
  std::vector<double> ScoreBatch(
      std::span<const RecordPair> pairs) const override;

  /// One pair of a batch, as indices into its distinct records.
  struct SlotPair {
    size_t left = 0;
    size_t right = 0;
  };

  /// Featurization state of one ScoreBatch call (see NewBatch).
  class Batch {
   public:
    virtual ~Batch() = default;

    /// Pass 1: builds the representation of distinct record `slot`.
    /// Called once per slot, concurrently for different slots.
    virtual void AddRecord(size_t slot, const data::Record& record) = 0;

    /// Between the passes, on the calling thread: batch-wide set-up
    /// that needs every representation.
    virtual void Seal() {}

    /// Pass 2: rows[i] = the features of pairs[i], exactly as Features
    /// would compute them for the two records. Called concurrently on
    /// disjoint ranges of the batch's pairs; reads what pass 1 and Seal
    /// built.
    virtual void PairFeatures(std::span<const SlotPair> pairs,
                              std::span<ml::Vector> rows) = 0;
  };

  /// Persists the trained head + scaler into the archive (the feature
  /// extraction itself is code, not state). Used by models::SaveMatcher.
  void SaveParameters(TextArchive* archive) const;
  /// Restores a previously saved head; false on mismatch with this
  /// model's head kind.
  bool LoadParameters(const TextArchive& archive);

  bool is_fitted() const { return fitted_; }

 protected:
  explicit FeatureMatcher(Head head) : head_(head) {}

  /// Model-specific pair featurization; must have fixed dimension for a
  /// given schema and be independent of training state.
  virtual ml::Vector Features(const data::Record& u,
                              const data::Record& v) const = 0;

  /// Batch state for a ScoreBatch call over `records` distinct records:
  /// per-record work (tokenization, embeddings) is built once per
  /// record instead of once per pair. MakeRepBatch below covers the
  /// common shape.
  virtual std::unique_ptr<Batch> NewBatch(size_t records) const = 0;

 private:
  /// The head's probabilities for already-scaled rows.
  std::vector<double> PredictScaled(const std::vector<ml::Vector>& rows) const;

  Head head_;
  ml::StandardScaler scaler_;
  ml::LogisticRegression logistic_;
  ml::Mlp mlp_;
  ml::LinearSvm svm_;
  bool fitted_ = false;
};

/// Batch for models whose features are a function of two per-record
/// representations: pass 1 stores make_rep(record) per slot, pass 2
/// computes pair_features(rep_u, rep_v). Define Features(u, v) as
/// pair_features(make_rep(u), make_rep(v)) and the two paths agree.
template <typename Rep, typename MakeRep, typename PairFeaturesFn>
class RepBatch final : public FeatureMatcher::Batch {
 public:
  RepBatch(size_t records, MakeRep make_rep, PairFeaturesFn pair_features)
      : reps_(records),
        make_rep_(std::move(make_rep)),
        pair_features_(std::move(pair_features)) {}

  void AddRecord(size_t slot, const data::Record& record) override {
    reps_[slot] = make_rep_(record);
  }

  void PairFeatures(std::span<const FeatureMatcher::SlotPair> pairs,
                    std::span<ml::Vector> rows) override {
    for (size_t i = 0; i < pairs.size(); ++i) {
      rows[i] = pair_features_(reps_[pairs[i].left], reps_[pairs[i].right]);
    }
  }

 private:
  std::vector<Rep> reps_;
  MakeRep make_rep_;
  PairFeaturesFn pair_features_;
};

template <typename Rep, typename MakeRep, typename PairFeaturesFn>
std::unique_ptr<FeatureMatcher::Batch> MakeRepBatch(
    size_t records, MakeRep make_rep, PairFeaturesFn pair_features) {
  return std::make_unique<RepBatch<Rep, MakeRep, PairFeaturesFn>>(
      records, std::move(make_rep), std::move(pair_features));
}

}  // namespace certa::models

#endif  // CERTA_MODELS_FEATURE_MATCHER_H_
