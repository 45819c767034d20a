#include "models/deeper_model.h"

#include <algorithm>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace certa::models {
namespace {

constexpr int kWordDim = 96;
constexpr int kNgramDim = 64;

/// Fuses every attribute value of the record into one token sequence —
/// DeepER's "tuple as a sentence" view.
std::vector<std::string> RecordTokens(const data::Record& record) {
  std::vector<std::string> tokens;
  for (const std::string& value : record.values) {
    if (text::IsMissing(value)) continue;
    std::vector<std::string> attr_tokens = text::Tokenize(value);
    tokens.insert(tokens.end(), attr_tokens.begin(), attr_tokens.end());
  }
  return tokens;
}

/// Hashed counterpart of the record's character-trigram multiset; the
/// hashes feed TransformHashedNormalized, which lands on the same
/// buckets/signs as embedding the gram strings (no per-gram substr).
std::vector<uint64_t> RecordNgramHashes(const data::Record& record,
                                        uint64_t seed) {
  std::vector<uint64_t> hashes;
  for (const std::string& value : record.values) {
    if (text::IsMissing(value)) continue;
    std::vector<uint64_t> value_hashes = text::CharNgramHashes(value, 3, seed);
    hashes.insert(hashes.end(), value_hashes.begin(), value_hashes.end());
  }
  return hashes;
}

/// Everything Features needs from one record, computed once per record
/// instead of once per pair.
struct RecordRep {
  std::vector<std::string> tokens;
  std::vector<std::string> unique_tokens;
  ml::Vector word_embed;
  ml::Vector gram_embed;
};

RecordRep MakeRep(const data::Record& record,
                  const text::HashingVectorizer& word_embedder,
                  const text::HashingVectorizer& ngram_embedder) {
  RecordRep rep;
  rep.tokens = RecordTokens(record);
  rep.unique_tokens = text::UniqueTokens(rep.tokens);
  rep.word_embed = word_embedder.TransformNormalized(rep.tokens);
  rep.gram_embed = ngram_embedder.TransformHashedNormalized(
      RecordNgramHashes(record, ngram_embedder.seed()));
  return rep;
}

ml::Vector PairFeatures(const RecordRep& u, const RecordRep& v) {
  double size_u = static_cast<double>(u.tokens.size());
  double size_v = static_cast<double>(v.tokens.size());
  double length_ratio =
      size_u > 0.0 && size_v > 0.0
          ? std::min(size_u, size_v) / std::max(size_u, size_v)
          : 0.0;

  return {
      text::CosineSimilarity(u.word_embed, v.word_embed),
      text::CosineSimilarity(u.gram_embed, v.gram_embed),
      text::JaccardOfUnique(u.unique_tokens, v.unique_tokens),
      text::OverlapOfUnique(u.unique_tokens, v.unique_tokens),
      length_ratio,
  };
}

}  // namespace

DeepErModel::DeepErModel()
    : FeatureMatcher(Head::kLogistic),
      word_embedder_(kWordDim, /*seed=*/0xD33Bu),
      ngram_embedder_(kNgramDim, /*seed=*/0x36AA) {}

ml::Vector DeepErModel::Features(const data::Record& u,
                                 const data::Record& v) const {
  return PairFeatures(MakeRep(u, word_embedder_, ngram_embedder_),
                      MakeRep(v, word_embedder_, ngram_embedder_));
}

std::unique_ptr<FeatureMatcher::Batch> DeepErModel::NewBatch(
    size_t records) const {
  return MakeRepBatch<RecordRep>(
      records,
      [this](const data::Record& record) {
        return MakeRep(record, word_embedder_, ngram_embedder_);
      },
      PairFeatures);
}

}  // namespace certa::models
