#include "models/deepmatcher_model.h"

#include <cstdint>

#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace certa::models {
namespace {

/// Per-attribute preprocessing shared by every pair the attribute value
/// participates in: missing flag, token list and its sorted unique set,
/// normalized string, the numeric parse AttributeSimilarity would redo,
/// and the sorted trigram shingle set (the dominant per-comparison
/// cost).
struct AttributeRep {
  bool missing = false;
  bool is_numeric = false;
  double numeric = 0.0;
  std::vector<std::string> tokens;
  std::vector<std::string> unique_tokens;
  std::string normalized;
  std::vector<uint64_t> shingles;
};

std::vector<AttributeRep> MakeRep(const data::Record& record) {
  std::vector<AttributeRep> attrs(record.values.size());
  for (size_t a = 0; a < record.values.size(); ++a) {
    AttributeRep& rep = attrs[a];
    rep.missing = text::IsMissing(record.values[a]);
    if (rep.missing) continue;
    rep.is_numeric = text::TryParseNumeric(record.values[a], &rep.numeric);
    rep.tokens = text::Tokenize(record.values[a]);
    rep.unique_tokens = text::UniqueTokens(rep.tokens);
    rep.shingles = text::TrigramShingles(record.values[a]);
    rep.normalized = text::Normalize(record.values[a]);
  }
  return attrs;
}

/// AttributeSimilarity over precomputed reps (both values non-missing)
/// and their token Jaccard: same numeric fast path, then the same
/// Jaccard/trigram blend.
double RepAttributeSimilarity(const AttributeRep& u, const AttributeRep& v,
                              double jaccard) {
  if (u.is_numeric && v.is_numeric) {
    return text::NumericSimilarity(u.numeric, v.numeric);
  }
  return 0.5 * jaccard +
         0.5 * text::TrigramSimilarityOfShingles(u.shingles, v.shingles);
}

ml::Vector PairFeatures(const std::vector<AttributeRep>& u,
                        const std::vector<AttributeRep>& v) {
  CERTA_CHECK_EQ(u.size(), v.size())
      << "DeepMatcher requires aligned schemas";
  ml::Vector features;
  features.reserve(u.size() * DeepMatcherModel::kFeaturesPerAttribute);
  for (size_t a = 0; a < u.size(); ++a) {
    const AttributeRep& rep_u = u[a];
    const AttributeRep& rep_v = v[a];
    if (rep_u.missing || rep_v.missing) {
      // Neutral similarity block with missing indicators: the MLP learns
      // how much absence matters per attribute.
      features.insert(features.end(),
                      {0.0, 0.0, 0.0, 0.0,
                       rep_u.missing && rep_v.missing ? 1.0 : 0.0,
                       rep_u.missing != rep_v.missing ? 1.0 : 0.0});
      continue;
    }
    // JaccardSimilarity(tokens) is JaccardOfUnique over the unique sets.
    const double jaccard =
        text::JaccardOfUnique(rep_u.unique_tokens, rep_v.unique_tokens);
    features.push_back(jaccard);
    features.push_back(
        text::LevenshteinSimilarity(rep_u.normalized, rep_v.normalized));
    features.push_back(text::SymmetricMongeElkan(rep_u.tokens, rep_v.tokens));
    features.push_back(RepAttributeSimilarity(rep_u, rep_v, jaccard));
    features.push_back(0.0);  // missing_both
    features.push_back(0.0);  // missing_one
  }
  return features;
}

}  // namespace

DeepMatcherModel::DeepMatcherModel() : FeatureMatcher(Head::kMlp) {}

ml::Vector DeepMatcherModel::Features(const data::Record& u,
                                      const data::Record& v) const {
  return PairFeatures(MakeRep(u), MakeRep(v));
}

std::unique_ptr<FeatureMatcher::Batch> DeepMatcherModel::NewBatch(
    size_t records) const {
  return MakeRepBatch<std::vector<AttributeRep>>(records, MakeRep,
                                                 PairFeatures);
}

}  // namespace certa::models
