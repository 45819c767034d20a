#include "models/feature_matcher.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace certa::models {

void FeatureMatcher::Fit(const data::Dataset& dataset, uint64_t seed) {
  CERTA_CHECK(!dataset.train.empty());
  std::vector<ml::Vector> features;
  std::vector<int> labels;
  features.reserve(dataset.train.size());
  labels.reserve(dataset.train.size());
  for (const data::LabeledPair& pair : dataset.train) {
    features.push_back(Features(dataset.left.record(pair.left_index),
                                dataset.right.record(pair.right_index)));
    labels.push_back(pair.label);
  }
  std::vector<ml::Vector> scaled = scaler_.FitTransform(features);
  switch (head_) {
    case Head::kLogistic: {
      ml::LogisticRegression::Options options;
      options.seed = seed;
      logistic_.Fit(scaled, labels, options);
      break;
    }
    case Head::kMlp: {
      ml::Mlp::Options options;
      options.seed = seed;
      mlp_.Fit(scaled, labels, options);
      break;
    }
    case Head::kSvm: {
      ml::LinearSvm::Options options;
      options.seed = seed;
      svm_.Fit(scaled, labels, options);
      break;
    }
  }
  fitted_ = true;
}

double FeatureMatcher::Score(const data::Record& u,
                             const data::Record& v) const {
  CERTA_CHECK(fitted_);
  ml::Vector scaled = scaler_.Transform(Features(u, v));
  switch (head_) {
    case Head::kLogistic:
      return logistic_.PredictProbability(scaled);
    case Head::kMlp:
      return mlp_.PredictProbability(scaled);
    case Head::kSvm:
      return svm_.PredictProbability(scaled);
  }
  return 0.0;
}

std::vector<double> FeatureMatcher::PredictScaled(
    const std::vector<ml::Vector>& rows) const {
  switch (head_) {
    case Head::kLogistic:
      return logistic_.PredictProbabilityBatch(rows);
    case Head::kMlp:
      return mlp_.PredictProbabilityBatch(rows);
    case Head::kSvm:
      return svm_.PredictProbabilityBatch(rows);
  }
  return std::vector<double>(rows.size(), 0.0);
}

std::vector<double> FeatureMatcher::ScoreBatch(
    std::span<const RecordPair> pairs) const {
  CERTA_CHECK(fitted_);
  // Distinct records in first-seen order; each pair as two slots.
  std::vector<const data::Record*> records;
  std::vector<SlotPair> slots(pairs.size());
  std::unordered_map<const data::Record*, size_t> slot_of;
  auto slot = [&](const data::Record* record) {
    auto [it, inserted] = slot_of.try_emplace(record, records.size());
    if (inserted) records.push_back(record);
    return it->second;
  };
  for (size_t i = 0; i < pairs.size(); ++i) {
    slots[i] = {slot(pairs[i].left), slot(pairs[i].right)};
  }
  std::unique_ptr<Batch> batch = NewBatch(records.size());

  // Pass 1: one representation per distinct record.
  util::LentParallelFor(records.size(), [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) batch->AddRecord(r, *records[r]);
  });
  batch->Seal();

  // Pass 2: features, scaler and head per pair, in one round.
  std::vector<double> scores(pairs.size(), 0.0);
  util::LentParallelFor(pairs.size(), [&](size_t begin, size_t end) {
    std::vector<ml::Vector> rows(end - begin);
    batch->PairFeatures(
        std::span<const SlotPair>(slots).subspan(begin, end - begin), rows);
    for (ml::Vector& row : rows) scaler_.TransformInPlace(&row);
    std::vector<double> range_scores = PredictScaled(rows);
    std::copy(range_scores.begin(), range_scores.end(),
              scores.begin() + static_cast<ptrdiff_t>(begin));
  });
  return scores;
}

void FeatureMatcher::SaveParameters(TextArchive* archive) const {
  CERTA_CHECK(fitted_);
  scaler_.Save(archive, "scaler");
  switch (head_) {
    case Head::kLogistic:
      archive->PutString("head", "logistic");
      logistic_.Save(archive, "head.logistic");
      break;
    case Head::kMlp:
      archive->PutString("head", "mlp");
      mlp_.Save(archive, "head.mlp");
      break;
    case Head::kSvm:
      archive->PutString("head", "svm");
      svm_.Save(archive, "head.svm");
      break;
  }
}

bool FeatureMatcher::LoadParameters(const TextArchive& archive) {
  std::string head_name;
  if (!archive.GetString("head", &head_name)) return false;
  if (!scaler_.Load(archive, "scaler")) return false;
  bool loaded = false;
  switch (head_) {
    case Head::kLogistic:
      loaded = head_name == "logistic" &&
               logistic_.Load(archive, "head.logistic");
      break;
    case Head::kMlp:
      loaded = head_name == "mlp" && mlp_.Load(archive, "head.mlp");
      break;
    case Head::kSvm:
      loaded = head_name == "svm" && svm_.Load(archive, "head.svm");
      break;
  }
  fitted_ = loaded;
  return loaded;
}

}  // namespace certa::models
