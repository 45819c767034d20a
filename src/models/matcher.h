#ifndef CERTA_MODELS_MATCHER_H_
#define CERTA_MODELS_MATCHER_H_

#include <span>
#include <string>
#include <vector>

#include "data/table.h"

namespace certa::models {

/// Non-owning view of one candidate pair for batch scoring. Both
/// records must outlive the ScoreBatch call.
struct RecordPair {
  const data::Record* left = nullptr;
  const data::Record* right = nullptr;
};

/// Black-box ER classifier interface — exactly what CERTA and every
/// baseline explainer consume. A matcher scores a candidate record pair
/// with a calibrated matching probability in [0, 1]; scores >= 0.5 mean
/// Match (the paper's convention, Fig. 2).
///
/// Implementations must be deterministic and side-effect free per call:
/// explainers issue thousands of perturbed-pair calls per explanation.
/// Score and ScoreBatch must be safe to call concurrently from multiple
/// threads: ScoreBatch may fan its pairs out over the pool the scoring
/// engine lends to the calling thread.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Matching score for the pair <u, v> (u from the left source, v from
  /// the right source). Must lie in [0, 1].
  virtual double Score(const data::Record& u,
                       const data::Record& v) const = 0;

  /// Scores a batch of pairs; result[i] == Score(*pairs[i].left,
  /// *pairs[i].right) bit-for-bit. The default calls Score per pair,
  /// spread over the pool lent to the calling thread when there is one
  /// (util::LentParallelFor); a Score that throws fails the batch with
  /// the exception of the lowest failing range. Implementations override
  /// it to amortize per-call setup (featurization, vectorization, head
  /// forward passes) across the batch without changing any score.
  virtual std::vector<double> ScoreBatch(
      std::span<const RecordPair> pairs) const;

  /// Hard decision at the 0.5 threshold.
  bool Predict(const data::Record& u, const data::Record& v) const {
    return Score(u, v) >= 0.5;
  }

  /// Human-readable model name ("DeepER", "DeepMatcher", "Ditto").
  virtual std::string name() const = 0;
};

}  // namespace certa::models

#endif  // CERTA_MODELS_MATCHER_H_
