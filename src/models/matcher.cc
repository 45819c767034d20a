#include "models/matcher.h"

#include "util/thread_pool.h"

namespace certa::models {

std::vector<double> Matcher::ScoreBatch(
    std::span<const RecordPair> pairs) const {
  std::vector<double> scores(pairs.size(), 0.0);
  util::LentParallelFor(pairs.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      scores[i] = Score(*pairs[i].left, *pairs[i].right);
    }
  });
  return scores;
}

}  // namespace certa::models
