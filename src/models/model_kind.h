#ifndef CERTA_MODELS_MODEL_KIND_H_
#define CERTA_MODELS_MODEL_KIND_H_

#include <array>
#include <string_view>

namespace certa::models {

/// The three affected models of the paper's evaluation (Sect. 5.1).
enum class ModelKind {
  kDeepEr = 0,
  kDeepMatcher = 1,
  kDitto = 2,
  /// Classical linear-SVM matcher (not in the paper's trio; see
  /// SvmModel). Excluded from AllModelKinds so the reproduction benches
  /// match the paper's grids, but available through TrainMatcher.
  kSvm = 3,
};

/// A model kind and the name requests spell it by.
struct ModelName {
  std::string_view name;
  ModelKind kind;
};

/// Every model kind with its request name: the one list that both the
/// request validator (api::ExplainRequest, which does not link the
/// models library; exact match) and ModelKindFromName (case-
/// insensitive) read, so a new kind is added here once.
inline constexpr std::array<ModelName, 4> kModelNames = {{
    {"deeper", ModelKind::kDeepEr},
    {"deepmatcher", ModelKind::kDeepMatcher},
    {"ditto", ModelKind::kDitto},
    {"svm", ModelKind::kSvm},
}};

}  // namespace certa::models

#endif  // CERTA_MODELS_MODEL_KIND_H_
