// Backbone builders: assemble a binary MLP or CNN with the method-specific
// Bayesian layers inserted at the positions the paper's architectures
// prescribe, and expose typed handles for training-time regularizers,
// MC-mode switching and post-training conversions.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/affinedrop.h"
#include "core/census.h"
#include "core/hw_model.h"
#include "core/method.h"
#include "core/scaledrop.h"
#include "core/spinbayes.h"
#include "core/spindrop.h"
#include "core/subset_vi.h"
#include "nn/binarize.h"
#include "nn/model.h"

namespace neuspin::core {

/// Options shared by the backbone builders.
struct ModelConfig {
  Method method = Method::kSpinDrop;
  std::uint64_t seed = 42;
  /// Dropout probability for the dropout-based methods. Scale-dropout
  /// overrides this per layer via the adaptive rule when `adaptive_p`.
  double dropout_p = 0.15;
  bool adaptive_p = true;
  /// Gaussian sigma of the hardware dropout-module probability (scale
  /// dropout) / thermal-stability shift of SpinDrop modules.
  double hw_variation = 0.0;
  /// Behavioural hardware non-idealities inserted after binary layers.
  HwNoiseConfig hw{};
  /// SpinBayes conversion parameters (used by convert_to_spinbayes).
  SpinBayesConfig spinbayes{};
};

/// A built model plus typed views of its method layers.
struct BuiltModel {
  nn::Sequential net;
  Method method = Method::kDeterministic;
  ArchSpec arch;  ///< census-compatible description of the backbone

  std::vector<SpinDropLayer*> drop_layers;
  std::vector<ScaleDropLayer*> scale_layers;
  std::vector<InvertedNormLayer*> inv_norm_layers;
  std::vector<BayesianScaleLayer*> bayes_layers;
  std::vector<SpinBayesScaleLayer*> spinbayes_layers;
  /// Indices of bayes_layers inside `net` (needed for SpinBayes swap).
  std::vector<std::size_t> bayes_layer_indices;

  /// Toggle stochastic behaviour during evaluation (Bayesian inference).
  void enable_mc(bool on);

  /// Build the training-loss regularizer for this method: the KL term of
  /// sub-set VI (weight `kl_weight`) and/or the scale regularizer of
  /// scale-dropout (weight `scale_lambda`). Returns an empty function for
  /// methods without a regularizer.
  [[nodiscard]] std::function<float()> make_regularizer(float kl_weight,
                                                        float scale_lambda);

  /// One stochastic forward pass returning logits (for McPredictor).
  [[nodiscard]] nn::Tensor stochastic_logits(const nn::Tensor& input);

  /// Fused stochastic forward: one pass over a stacked (rows x features)
  /// batch where row r computes under per-row streams seeded by
  /// row_seeds[r] — bit for bit what reseed_stochastic(row_seeds[r])
  /// followed by stochastic_logits on that single row would return — the
  /// per-row contract the fused Monte-Carlo path (core::predict_fused_batch)
  /// runs its stacked stochastic tail under.
  [[nodiscard]] nn::Tensor stochastic_logits_rows(
      const nn::Tensor& stacked, std::span<const std::uint64_t> row_seeds);

  /// Reset every stochastic layer's RNG streams so the next forward pass
  /// is a pure function of (weights, input, pass_seed). The Monte-Carlo
  /// evaluator calls this once per stochastic pass, which is what makes
  /// its results independent of the worker-thread count.
  void reseed_stochastic(std::uint64_t pass_seed) { net.reseed(pass_seed); }

  /// Deep copy of the model: weights, persistent state, RNG streams and
  /// the typed layer views (rebuilt against the cloned net). Used to
  /// replicate a trained model once per worker thread; clones share no
  /// mutable state (energy ledgers excepted — see the layer headers).
  [[nodiscard]] BuiltModel clone() const;
};

/// Length of the deterministic head of `net`: the number of leading layers
/// whose inference forward reads only its input and its weights, so that
/// it returns the same tensor on every Monte-Carlo pass. Counted from an
/// allowlist of exact types (BinaryDense, BinaryConv2d, Dense, Conv2d,
/// BatchNorm, Sign, MaxPool2d, Flatten, ReLU, HardTanh); any other layer,
/// subclasses of those included, ends the head. The offline evaluator
/// runs layers [0, head) once per batch and each pass from the head on;
/// the fused serving path runs them once on the B request rows and the
/// tail on the B*T stacked rows.
[[nodiscard]] std::size_t deterministic_head_length(const nn::Sequential& net);

/// Binary MLP: in -> hidden... -> classes on flattened inputs.
[[nodiscard]] BuiltModel make_binary_mlp(const ModelConfig& config, std::size_t inputs,
                                         const std::vector<std::size_t>& hidden,
                                         std::size_t classes);

/// The small binary CNN of the Table I benchmark:
/// 1x16x16 -> conv8(3x3) -> pool -> conv16(3x3) -> pool -> dense64 -> 10.
[[nodiscard]] BuiltModel make_binary_cnn(const ModelConfig& config);

/// Replace every trained BayesianScaleLayer with its SpinBayes in-memory
/// approximation (N quantized posterior samples + arbiter). The model must
/// have been built with Method::kSpinBayes (trained as sub-set VI).
void convert_to_spinbayes(BuiltModel& model, const SpinBayesConfig& config);

}  // namespace neuspin::core
