#include "models/svm_model.h"

#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace certa::models {
namespace {

/// What the features need from one attribute value, built once per
/// record: the missing flag, the numeric parse, the unique token set
/// and the trigram shingle set.
struct ValueRep {
  bool missing = false;
  bool is_numeric = false;
  double numeric = 0.0;
  std::vector<std::string> unique_tokens;
  std::vector<uint64_t> shingles;
};

std::vector<ValueRep> MakeRep(const data::Record& record) {
  std::vector<ValueRep> values(record.values.size());
  for (size_t a = 0; a < record.values.size(); ++a) {
    ValueRep& rep = values[a];
    rep.missing = text::IsMissing(record.values[a]);
    if (rep.missing) continue;
    rep.is_numeric = text::TryParseNumeric(record.values[a], &rep.numeric);
    rep.unique_tokens = text::UniqueTokens(text::Tokenize(record.values[a]));
    rep.shingles = text::TrigramShingles(record.values[a]);
  }
  return values;
}

/// Features over two reps: the same values Features computes from the
/// raw strings (JaccardSimilarity is JaccardOfUnique over the unique
/// sets, TrigramSimilarity is TrigramSimilarityOfShingles over the
/// shingle sets, and AttributeSimilarity of two present values is the
/// numeric similarity when both parse, else the 0.5/0.5 blend of those
/// two).
ml::Vector PairFeatures(const std::vector<ValueRep>& u,
                        const std::vector<ValueRep>& v) {
  CERTA_CHECK_EQ(u.size(), v.size()) << "SvmModel requires aligned schemas";
  ml::Vector features;
  features.reserve(u.size() * 4);
  for (size_t a = 0; a < u.size(); ++a) {
    const ValueRep& rep_u = u[a];
    const ValueRep& rep_v = v[a];
    if (rep_u.missing || rep_v.missing) {
      features.insert(features.end(), {0.0, 0.0, 0.0, 1.0});
      continue;
    }
    const double jaccard =
        text::JaccardOfUnique(rep_u.unique_tokens, rep_v.unique_tokens);
    const double trigram =
        text::TrigramSimilarityOfShingles(rep_u.shingles, rep_v.shingles);
    features.push_back(jaccard);
    features.push_back(trigram);
    features.push_back(rep_u.is_numeric && rep_v.is_numeric
                           ? text::NumericSimilarity(rep_u.numeric,
                                                     rep_v.numeric)
                           : 0.5 * jaccard + 0.5 * trigram);
    features.push_back(0.0);  // missing indicator
  }
  return features;
}

}  // namespace

SvmModel::SvmModel() : FeatureMatcher(Head::kSvm) {}

ml::Vector SvmModel::Features(const data::Record& u,
                              const data::Record& v) const {
  CERTA_CHECK_EQ(u.values.size(), v.values.size())
      << "SvmModel requires aligned schemas";
  ml::Vector features;
  features.reserve(u.values.size() * 4);
  for (size_t a = 0; a < u.values.size(); ++a) {
    const std::string& value_u = u.values[a];
    const std::string& value_v = v.values[a];
    if (text::IsMissing(value_u) || text::IsMissing(value_v)) {
      features.insert(features.end(), {0.0, 0.0, 0.0, 1.0});
      continue;
    }
    std::vector<std::string> tokens_u = text::Tokenize(value_u);
    std::vector<std::string> tokens_v = text::Tokenize(value_v);
    features.push_back(text::JaccardSimilarity(tokens_u, tokens_v));
    features.push_back(text::TrigramSimilarity(value_u, value_v));
    features.push_back(text::AttributeSimilarity(value_u, value_v));
    features.push_back(0.0);  // missing indicator
  }
  return features;
}

std::unique_ptr<FeatureMatcher::Batch> SvmModel::NewBatch(
    size_t records) const {
  return MakeRepBatch<std::vector<ValueRep>>(records, MakeRep, PairFeatures);
}

}  // namespace certa::models
