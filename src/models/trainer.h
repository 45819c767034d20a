#ifndef CERTA_MODELS_TRAINER_H_
#define CERTA_MODELS_TRAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/matcher.h"
#include "models/model_kind.h"

namespace certa::models {

/// The paper's three evaluated models, in presentation order.
const std::vector<ModelKind>& AllModelKinds();

/// Display name matching the paper's tables.
std::string ModelKindName(ModelKind kind);

/// Parses a model name as requests spell it (kModelNames, matched
/// case-insensitively). False (and `kind` untouched) for anything else.
bool ModelKindFromName(const std::string& name, ModelKind* kind);

/// The seed TrainMatcher uses unless told otherwise.
inline constexpr uint64_t kDefaultTrainingSeed = 42;

/// Trains a fresh matcher of the given kind on `dataset.train`.
std::unique_ptr<Matcher> TrainMatcher(ModelKind kind,
                                      const data::Dataset& dataset,
                                      uint64_t seed = kDefaultTrainingSeed);

/// Content fingerprint of the *training inputs* TrainMatcher reads:
/// both schemas plus every train pair (indices, label, and the values
/// of the two records it references). Training is seeded and
/// deterministic, and every Fit implementation reads exactly these, so
/// (model kind, fingerprint, seed) pins a trained matcher's parameters
/// — it keys the ModelRegistry and, with the matcher id, the score
/// store's scope (persist::HashScope). Records outside the train set
/// (streaming upserts of test-side rows) leave it unchanged on purpose.
/// Every list is length-prefixed, so values cannot slide across a
/// schema, record or string boundary and alias another dataset.
uint64_t DatasetFingerprint(const data::Dataset& dataset);

/// Persists a trained matcher created by TrainMatcher to a text-archive
/// file (model kind + head parameters). False on I/O failure.
bool SaveMatcher(const Matcher& matcher, ModelKind kind,
                 const std::string& path);

/// Restores a matcher saved by SaveMatcher. Returns nullptr (and leaves
/// `kind` untouched) on unreadable/corrupt files.
std::unique_ptr<Matcher> LoadMatcher(const std::string& path,
                                     ModelKind* kind);

/// F1 of hard predictions over a labelled pair set.
double EvaluateF1(const Matcher& matcher, const data::Table& left,
                  const data::Table& right,
                  const std::vector<data::LabeledPair>& pairs);

}  // namespace certa::models

#endif  // CERTA_MODELS_TRAINER_H_
