// Monte-Carlo Bayesian predictive loop (paper §II-C).
//
// Every NeuSpin method reduces Bayesian inference to the same pattern: run
// T stochastic forward passes (each pass samples dropout masks, scale
// vectors, variational parameters or crossbar selections), average the
// softmax outputs for the predictive mean, and derive uncertainty from the
// spread. McPredictor implements that loop over any stochastic model.
//
// The T passes are independent by construction, so the predictor can fan
// them across a thread pool. Reproducibility contract: the seeded entry
// points derive one RNG seed per pass from the predictor's base seed, the
// per-pass results are stored by pass index, and the reduction always runs
// in pass order on the calling thread — so serial and threaded execution
// produce bitwise-identical predictions for a fixed (seed, samples) pair.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/uncertainty.h"
#include "nn/tensor.h"

namespace neuspin::core {

class ThreadPool;
struct BuiltModel;

/// Result of Bayesian inference over a batch.
struct Prediction {
  nn::Tensor mean_probs;              ///< (batch x classes) predictive mean
  std::vector<float> entropy;         ///< total predictive uncertainty
  std::vector<float> mutual_info;     ///< epistemic part
  std::vector<nn::Tensor> member_probs;  ///< per-pass probabilities (T entries)

  /// Argmax class of each sample.
  [[nodiscard]] std::vector<std::size_t> predicted_class() const;
};

/// Runs the Monte-Carlo predictive loop.
class McPredictor {
 public:
  /// Legacy stateful forward: draws randomness from the model's own
  /// accumulated RNG state (not reproducible across thread counts).
  using Forward = std::function<nn::Tensor(const nn::Tensor&)>;
  /// Seeded forward: must produce logits that depend only on (weights,
  /// input, pass_seed). Model replicas expose this by reseeding their
  /// stochastic layers with `pass_seed` before the forward pass.
  using SeededForward =
      std::function<nn::Tensor(const nn::Tensor&, std::uint64_t pass_seed)>;

  /// `samples` is T, the number of stochastic forward passes.
  explicit McPredictor(std::size_t samples);
  McPredictor(std::size_t samples, std::uint64_t base_seed);

  /// `stochastic_forward` must return LOGITS of shape (batch x classes) and
  /// be stochastic across invocations (that is the Bayesian approximation).
  [[nodiscard]] Prediction predict(const nn::Tensor& input,
                                   const Forward& stochastic_forward) const;

  /// Seeded serial loop: pass t runs with seed mix_seed(base_seed, t).
  [[nodiscard]] Prediction predict(const nn::Tensor& input,
                                   const SeededForward& stochastic_forward) const;

  /// Seeded parallel loop: the T passes are split into contiguous chunks,
  /// one per replica, and chunks run concurrently on `pool`. Each replica
  /// must wrap an independent model clone (replicas never run two chunks at
  /// once, but distinct replicas run simultaneously). Bitwise identical to
  /// the seeded serial overload for any replica/thread count.
  [[nodiscard]] Prediction predict(const nn::Tensor& input,
                                   const std::vector<SeededForward>& replicas,
                                   ThreadPool& pool) const;

  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t base_seed() const { return base_seed_; }

  /// Shared tail of every predict flavour: reduce `samples()` per-pass
  /// probability tensors (already ordered by pass index) into a
  /// Prediction — pass-order mean, predictive entropy, mutual
  /// information. Public so alternative forward paths (the tiled
  /// electrical evaluator) reduce through the exact same code and stay
  /// bitwise aligned with the behavioural path.
  [[nodiscard]] Prediction reduce(std::vector<nn::Tensor> member_probs) const;

 private:
  std::size_t samples_;
  std::uint64_t base_seed_;
};

/// Fused batched Monte-Carlo prediction: runs the network's deterministic
/// head (deterministic_head_length) once on the B request rows, stacks its
/// output T times per request, and runs the stochastic tail as one
/// (B*T x width) forward per layer — one large cache-blocked matmul instead
/// of B*T vector-matrix products — then reduces each row's T passes through
/// McPredictor::reduce. Head row b feeds tail rows [b*T, (b+1)*T), pass t
/// running under the per-row stream seed mix_seed(request_seeds[b], t).
///
/// Contract: the returned Prediction for row b is bitwise identical to
///   McPredictor(mc_samples, request_seeds[b]).predict(row_b, forward)
/// where `forward` reseeds the model with the pass seed before each
/// batch-of-one pass — the serving runtime's per-request reproducibility
/// contract, now independent of how requests are batched together.
///
/// `model` must have MC mode enabled and support per-row streams on every
/// stochastic layer (all built-in method layers do); its RNG state is
/// consumed. Inference only: do not call backward() afterwards.
[[nodiscard]] std::vector<Prediction> predict_fused_batch(
    BuiltModel& model, const nn::Tensor& inputs,
    std::span<const std::uint64_t> request_seeds, std::size_t mc_samples);

/// Pool-parallel fused prediction: team[0] runs the head, then the stacked
/// (B*T) tail rows are split into one deterministic contiguous chunk per
/// team member and chunk c runs its share of the tail on team[c]
/// concurrently over `pool` (ThreadPool::shared() when null), reading the
/// one shared head tensor. Because every stacked row computes
/// under its own splitmix64 stream (Layer::reseed_rows) and the blocked
/// kernels make each output row a function of its input row alone, the
/// partition is invisible in the results: any team size — including a team
/// of one, which runs inline without touching the pool — produces the
/// single-thread bits. This is how very large T*B stacks scale *within*
/// one serving worker instead of grinding a whole (B*T x F) forward on a
/// single core.
///
/// Team members must be clones of one model (same weights and state) with
/// MC mode enabled; each member's RNG state is consumed independently.
/// The team must not be shared with another concurrent call.
[[nodiscard]] std::vector<Prediction> predict_fused_batch(
    std::span<BuiltModel> team, const nn::Tensor& inputs,
    std::span<const std::uint64_t> request_seeds, std::size_t mc_samples,
    ThreadPool* pool = nullptr);

}  // namespace neuspin::core
