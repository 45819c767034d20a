#include "models/ditto_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "text/simd.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace certa::models {
namespace {

constexpr int kNgramDim = 128;

/// Ditto-style domain knowledge injection: numeric tokens are rounded
/// and re-serialized so "379.72" and "379.7" align; pure codes keep
/// their shape. Mirrors Ditto's number normalization (Sect. 3.3 of the
/// Ditto paper).
std::string NormalizeToken(const std::string& token) {
  double value = 0.0;
  if (text::TryParseNumeric(token, &value)) {
    double rounded = std::round(value * 10.0) / 10.0;
    // Trim trailing ".0" for integer-like values.
    if (rounded == std::round(rounded)) {
      return std::to_string(static_cast<long long>(std::llround(rounded)));
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1f", rounded);
    return buffer;
  }
  return token;
}

/// Serialized token sequence of a record, with per-attribute [COL]
/// markers (index-based when no schema is available).
std::vector<std::string> SerializedTokens(const data::Record& record) {
  std::vector<std::string> tokens;
  for (size_t a = 0; a < record.values.size(); ++a) {
    tokens.push_back("[COL" + std::to_string(a) + "]");
    if (text::IsMissing(record.values[a])) continue;
    for (std::string& token : text::Tokenize(record.values[a])) {
      tokens.push_back(NormalizeToken(token));
    }
  }
  return tokens;
}

/// Soft alignment score: mean over tokens of `a` of the best pairwise
/// token similarity in `b` — the cross-attention analogue. Marker
/// tokens align exactly with themselves (anchoring attribute spans).
double SoftAlignment(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (const std::string& token_a : a) {
    if (token_a.size() >= 2 && token_a[0] == '[') continue;  // skip markers
    double best = 0.0;
    for (const std::string& token_b : b) {
      if (token_b.size() >= 2 && token_b[0] == '[') continue;
      if (token_a == token_b) {
        best = 1.0;
        break;
      }
      best = std::max(best, text::JaroWinklerSimilarity(token_a, token_b));
    }
    total += best;
    ++counted;
  }
  return counted > 0 ? total / counted : 0.0;
}

/// Fraction of numeric tokens of `a` that have an exact normalized
/// numeric counterpart in `b` (Ditto's span typing for numbers).
double NumericAgreement(const std::vector<std::string>& a,
                        const std::vector<std::string>& b) {
  int numeric = 0;
  int agreed = 0;
  for (const std::string& token_a : a) {
    double value_a = 0.0;
    if (!text::TryParseNumeric(token_a, &value_a)) continue;
    ++numeric;
    for (const std::string& token_b : b) {
      double value_b = 0.0;
      if (text::TryParseNumeric(token_b, &value_b) &&
          text::NumericSimilarity(value_a, value_b) > 0.98) {
        ++agreed;
        break;
      }
    }
  }
  return numeric > 0 ? static_cast<double>(agreed) / numeric : 0.5;
}

/// Everything Features needs from one record: the serialized token
/// sequence and the hashed 4-gram embedding (CharNgramHashes lands on
/// the same buckets/signs as embedding the gram strings, without the
/// per-gram substr allocations).
struct RecordRep {
  std::vector<std::string> seq;
  ml::Vector gram_embed;
};

RecordRep MakeRep(const data::Record& record,
                  const text::HashingVectorizer& ngram_embedder) {
  RecordRep rep;
  rep.seq = SerializedTokens(record);
  std::vector<uint64_t> hashes;
  for (const std::string& value : record.values) {
    if (text::IsMissing(value)) continue;
    std::vector<uint64_t> value_hashes =
        text::CharNgramHashes(value, 4, ngram_embedder.seed());
    hashes.insert(hashes.end(), value_hashes.begin(), value_hashes.end());
  }
  rep.gram_embed = ngram_embedder.TransformHashedNormalized(hashes);
  return rep;
}

ml::Vector PairFeatures(const RecordRep& u, const RecordRep& v) {
  double align_uv = SoftAlignment(u.seq, v.seq);
  double align_vu = SoftAlignment(v.seq, u.seq);

  return {
      align_uv,
      align_vu,
      std::min(align_uv, align_vu),
      text::CosineSimilarity(u.gram_embed, v.gram_embed),
      text::JaccardOfUnique(text::UniqueTokens(u.seq),
                            text::UniqueTokens(v.seq)),
      NumericAgreement(u.seq, v.seq),
  };
}

// --- batch-wide memoization --------------------------------------------
//
// SoftAlignment is the model's cost center: O(|u|·|v|) Jaro-Winkler
// calls per pair. Within one ScoreBatch the same records (and the same
// tokens) recur constantly — a lattice level perturbs one record's
// attributes, every pair shares the pivot side — so the batch interns
// its tokens once and memoizes every distinct Jaro-Winkler evaluation.
// Identical token strings get identical ids, and the memo stores the
// exact double JaroWinklerSimilarity returned, so the features are
// bit-identical to the uninterned per-pair path (which Features() keeps
// using).

/// Distinct tokens of one batch: id -> string/marker-flag/parsed-number.
struct TokenTable {
  std::unordered_map<std::string, int> index;
  std::vector<const std::string*> token;  // stable: points at map keys
  std::vector<uint8_t> marker;
  std::vector<uint8_t> numeric_ok;
  std::vector<double> numeric_val;

  int Intern(const std::string& s) {
    auto [it, inserted] = index.try_emplace(s, static_cast<int>(token.size()));
    if (inserted) {
      token.push_back(&it->first);
      marker.push_back(s.size() >= 2 && s[0] == '[' ? 1 : 0);
      double value = 0.0;
      uint8_t ok = text::TryParseNumeric(s, &value) ? 1 : 0;
      numeric_ok.push_back(ok);
      numeric_val.push_back(ok ? value : 0.0);
    }
    return it->second;
  }
  size_t size() const { return token.size(); }
};

/// Dense memo tables are shared by every pass-2 task through idempotent
/// slots: a slot starts below zero, and every writer stores the same
/// double (the deterministic value it memoizes), so relaxed atomic
/// loads and stores suffice and a race only repeats one evaluation.
template <typename Compute>
double MemoSlot(double* slot, Compute compute) {
  std::atomic_ref<double> ref(*slot);
  double value = ref.load(std::memory_order_relaxed);
  if (value < 0.0) {
    value = compute();
    ref.store(value, std::memory_order_relaxed);
  }
  return value;
}

/// Sparse fallback key for a (token id, token id | rep index) entry.
uint64_t MemoKey(int a, size_t b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

/// Distinct records of one batch, their interned token sequences, and
/// the batch-wide memos: (a, b) -> JaroWinklerSimilarity(a, b), and
/// (token id, rep index) -> the best Jaro-Winkler of that token against
/// the rep's non-marker tokens. In the engine's hot batches most pairs
/// share one side (every lattice cell pairs a perturbation with the same
/// pivot record), so the inner loop of SoftAlignment re-runs over the
/// same sequence for every pair; caching its result per (token,
/// sequence) collapses alignment to one add per token after the first
/// pair. Each memo is a dense matrix while it fits its limit; above it,
/// every pass-2 task keeps its own hash map.
class DittoBatch final : public FeatureMatcher::Batch {
 public:
  DittoBatch(size_t records, const text::HashingVectorizer& ngram_embedder)
      : ngram_embedder_(ngram_embedder),
        reps_(records),
        ids_(records),
        unique_ids_(records) {}

  void AddRecord(size_t slot, const data::Record& record) override {
    reps_[slot] = MakeRep(record, ngram_embedder_);
  }

  void Seal() override {
    for (size_t r = 0; r < reps_.size(); ++r) {
      std::vector<int>& ids = ids_[r];
      ids.reserve(reps_[r].seq.size());
      for (const std::string& token : reps_[r].seq) {
        ids.push_back(table_.Intern(token));
      }
      // Sorted unique ids stand in for the sorted unique token strings:
      // same distinct elements, so the same Jaccard cardinalities.
      std::vector<uint64_t>& unique_ids = unique_ids_[r];
      unique_ids.assign(ids.begin(), ids.end());
      std::sort(unique_ids.begin(), unique_ids.end());
      unique_ids.erase(std::unique(unique_ids.begin(), unique_ids.end()),
                       unique_ids.end());
    }
    const size_t vocab = table_.size();
    if (vocab <= kJaroWinklerDenseLimit) {
      jaro_winkler_.assign(vocab * vocab, -1.0);
    }
    if (vocab * reps_.size() <= kBestMatchDenseLimit) {
      best_match_.assign(vocab * reps_.size(), -1.0);
    }
  }

  void PairFeatures(std::span<const FeatureMatcher::SlotPair> pairs,
                    std::span<ml::Vector> rows) override {
    TaskMemo memo;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const size_t left = pairs[i].left;
      const size_t right = pairs[i].right;
      const double align_uv = SoftAlignment(left, right, &memo);
      const double align_vu = SoftAlignment(right, left, &memo);
      rows[i] = {
          align_uv,
          align_vu,
          std::min(align_uv, align_vu),
          text::CosineSimilarity(reps_[left].gram_embed,
                                 reps_[right].gram_embed),
          JaccardOfUniqueIds(unique_ids_[left], unique_ids_[right]),
          NumericAgreement(ids_[left], ids_[right]),
      };
    }
  }

 private:
  static constexpr size_t kJaroWinklerDenseLimit = 1024;  // 8 MiB at most
  static constexpr size_t kBestMatchDenseLimit = size_t{1} << 22;  // 32 MiB

  /// One pass-2 task's sparse fallbacks.
  struct TaskMemo {
    std::unordered_map<uint64_t, double> jaro_winkler;
    std::unordered_map<uint64_t, double> best_match;
  };

  double JaroWinkler(int a, int b, TaskMemo* memo) {
    auto compute = [&] {
      return text::JaroWinklerSimilarity(*table_.token[a], *table_.token[b]);
    };
    if (!jaro_winkler_.empty()) {
      return MemoSlot(&jaro_winkler_[static_cast<size_t>(a) * table_.size() +
                                     static_cast<size_t>(b)],
                      compute);
    }
    auto [it, inserted] =
        memo->jaro_winkler.try_emplace(MemoKey(a, static_cast<size_t>(b)));
    if (inserted) it->second = compute();
    return it->second;
  }

  /// The original SoftAlignment inner loop, verbatim, over ids.
  double BestMatch(int id_a, size_t rep, TaskMemo* memo) {
    auto compute = [&] {
      double best = 0.0;
      for (int id_b : ids_[rep]) {
        if (table_.marker[id_b]) continue;
        if (id_a == id_b) {
          best = 1.0;
          break;
        }
        best = std::max(best, JaroWinkler(id_a, id_b, memo));
      }
      return best;
    };
    if (!best_match_.empty()) {
      return MemoSlot(
          &best_match_[static_cast<size_t>(id_a) * reps_.size() + rep],
          compute);
    }
    auto [it, inserted] = memo->best_match.try_emplace(MemoKey(id_a, rep));
    if (inserted) it->second = compute();
    return it->second;
  }

  /// SoftAlignment of rep `a` against rep `b`: same per-token best-match
  /// semantics (exact id match short-circuits to 1.0), with the inner
  /// loop served from the (token, rep) memo.
  double SoftAlignment(size_t a, size_t b, TaskMemo* memo) {
    if (ids_[a].empty() || ids_[b].empty()) return 0.0;
    double total = 0.0;
    int counted = 0;
    for (int id_a : ids_[a]) {
      if (table_.marker[id_a]) continue;
      total += BestMatch(id_a, b, memo);
      ++counted;
    }
    return counted > 0 ? total / counted : 0.0;
  }

  /// JaccardOfUnique over interned sequences: distinct ids correspond
  /// one-to-one with distinct token strings, so the intersection and
  /// union cardinalities — and therefore the coefficient — are
  /// identical to the sorted-unique-string computation.
  static double JaccardOfUniqueIds(const std::vector<uint64_t>& a,
                                   const std::vector<uint64_t>& b) {
    if (a.empty() && b.empty()) return 1.0;
    size_t intersection = text::simd::SortedIntersectionCount(
        a.data(), a.size(), b.data(), b.size());
    size_t union_size = a.size() + b.size() - intersection;
    if (union_size == 0) return 1.0;
    return static_cast<double>(intersection) /
           static_cast<double>(union_size);
  }

  /// NumericAgreement over interned sequences, with the per-token parse
  /// done once at interning time.
  double NumericAgreement(const std::vector<int>& a,
                          const std::vector<int>& b) const {
    int numeric = 0;
    int agreed = 0;
    for (int id_a : a) {
      if (!table_.numeric_ok[id_a]) continue;
      ++numeric;
      for (int id_b : b) {
        if (table_.numeric_ok[id_b] &&
            text::NumericSimilarity(table_.numeric_val[id_a],
                                    table_.numeric_val[id_b]) > 0.98) {
          ++agreed;
          break;
        }
      }
    }
    return numeric > 0 ? static_cast<double>(agreed) / numeric : 0.5;
  }

  const text::HashingVectorizer& ngram_embedder_;
  std::vector<RecordRep> reps_;
  TokenTable table_;
  std::vector<std::vector<int>> ids_;
  std::vector<std::vector<uint64_t>> unique_ids_;
  std::vector<double> jaro_winkler_;
  std::vector<double> best_match_;
};

}  // namespace

DittoModel::DittoModel()
    : FeatureMatcher(Head::kLogistic),
      ngram_embedder_(kNgramDim, /*seed=*/0xD1770) {}

std::string DittoModel::Serialize(const data::Schema& schema,
                                  const data::Record& record) {
  std::string out;
  for (int a = 0; a < schema.size(); ++a) {
    if (a > 0) out.push_back(' ');
    out += "[COL] " + schema.name(a) + " [VAL]";
    if (!text::IsMissing(record.values[a])) {
      out.push_back(' ');
      out += record.values[a];
    }
  }
  return out;
}

ml::Vector DittoModel::Features(const data::Record& u,
                                const data::Record& v) const {
  return PairFeatures(MakeRep(u, ngram_embedder_),
                      MakeRep(v, ngram_embedder_));
}

std::unique_ptr<FeatureMatcher::Batch> DittoModel::NewBatch(
    size_t records) const {
  return std::make_unique<DittoBatch>(records, ngram_embedder_);
}

}  // namespace certa::models
