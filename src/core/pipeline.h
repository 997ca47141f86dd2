// Co-design pipeline: train -> (convert) -> Bayesian CIM evaluation.
//
// Bundles the recurring experiment steps so examples/benches stay short:
// training with the method's regularizer, Monte-Carlo evaluation of
// accuracy + calibration, the corruption-robustness sweep and the OOD
// detection protocol.
//
// Evaluation threading: every entry point fans out over the shared worker
// pool (EvalOptions::threads) along whichever axis has the parallelism —
// the T Monte-Carlo passes of a batch when T is large, or whole batches
// when T is small and the dataset splits into many batches. Each worker
// owns a deep clone of the model (the serial path clones once too — the
// caller's model, including its RNG streams, is never mutated), every
// pass reseeds its clone's stochastic layers from a deterministic
// per-pass seed, and the reduction runs in (batch, pass) order — so
// results are a pure function of (model, data, mc_samples, seed),
// identical for any thread count and fan-out strategy including serial.
//
// Shared head: the layers in front of the network's first stochastic
// layer (core::deterministic_head_length) give the same tensor on every
// pass, so each batch runs them once, on the replica that runs the batch,
// and each of its T passes reseeds and runs only the layers from the first
// stochastic one on. Every pass is bit for bit the full forward it
// replaces.
#pragma once

#include <cstdint>

#include "core/bayesian.h"
#include "core/models.h"
#include "data/corruption.h"
#include "nn/model.h"

namespace neuspin::core {

/// Training knobs for a method model.
struct FitConfig {
  std::size_t epochs = 8;
  std::size_t batch_size = 32;
  float lr = 0.01f;
  float kl_weight = 1e-4f;      ///< sub-set VI KL weight per step
  float scale_lambda = 1e-2f;   ///< scale-dropout regularizer weight
  /// Label smoothing of the training objective. The NeuSpin training
  /// recipes use a calibration-friendly objective; 0.1 keeps logits small
  /// so predictive entropy stays informative on OOD inputs.
  float label_smoothing = 0.05f;
  bool verbose = false;
  /// Data-parallel training (train::Trainer pass-through). `shards` is the
  /// gradient decomposition of each minibatch and defines the numerics
  /// (1 = the exact historical serial loop); `workers` only schedules the
  /// shard tasks and never changes a bit of the result (0 = pool size).
  std::size_t shards = 1;
  std::size_t workers = 0;
  /// Global-norm gradient clipping (0 disables).
  float grad_clip = 0.0f;
};

/// Train `model` on `train` through train::Trainer (handles the method's
/// regularizer and leaves the model in deterministic-eval state). Returns
/// final train accuracy.
float fit(BuiltModel& model, const nn::Dataset& train, const FitConfig& config);

/// Knobs of the Monte-Carlo evaluation entry points.
struct EvalOptions {
  std::size_t mc_samples = 20;  ///< T stochastic passes per batch
  std::size_t batch_size = 100;
  /// Worker threads for the fan-out (MC passes and/or batches): 0 = one
  /// per hardware thread, 1 = serial (a single clone runs everything on
  /// the calling thread). One model clone is made per worker, capped at
  /// the useful parallelism max(mc_samples, batches) — counts above the
  /// hardware thread count are honored (useful for determinism testing)
  /// but only cost memory. Results do not depend on this value.
  std::size_t threads = 0;
  /// Base seed of the per-pass RNG streams. Results are a deterministic
  /// function of (seed, mc_samples), whatever the thread count.
  std::uint64_t seed = 0x6e65757370696e00ull;
};

/// Monte-Carlo evaluation summary.
struct EvalResult {
  float accuracy = 0.0f;
  float nll = 0.0f;
  float ece = 0.0f;
  float brier = 0.0f;
  float mean_entropy = 0.0f;
};

/// Bayesian evaluation with EvalOptions::mc_samples stochastic passes per
/// batch, fanned across the shared worker pool. Each batch runs the
/// network's deterministic head once and every pass from the first
/// stochastic layer on; the result is bitwise that of T full forwards
/// (McPredictor over a reseed + Sequential::forward per pass).
[[nodiscard]] EvalResult evaluate(const BuiltModel& model, const nn::Dataset& test,
                                  const EvalOptions& options);

/// Convenience overload: default EvalOptions with the given sample count.
[[nodiscard]] EvalResult evaluate(const BuiltModel& model, const nn::Dataset& test,
                                  std::size_t mc_samples, std::size_t batch_size = 100);

/// Per-sample uncertainty scores (predictive entropy) over a dataset.
[[nodiscard]] std::vector<float> entropy_scores(const BuiltModel& model,
                                                const nn::Dataset& data,
                                                const EvalOptions& options);
[[nodiscard]] std::vector<float> entropy_scores(const BuiltModel& model,
                                                const nn::Dataset& data,
                                                std::size_t mc_samples,
                                                std::size_t batch_size = 100);

/// OOD detection summary following the paper's protocol.
struct OodResult {
  float auroc = 0.0f;
  float detection_rate = 0.0f;  ///< at the 95th in-distribution percentile
};

[[nodiscard]] OodResult evaluate_ood(const BuiltModel& model, const nn::Dataset& in_dist,
                                     const nn::Dataset& ood, const EvalOptions& options);
[[nodiscard]] OodResult evaluate_ood(const BuiltModel& model, const nn::Dataset& in_dist,
                                     const nn::Dataset& ood, std::size_t mc_samples,
                                     std::size_t batch_size = 100);

/// One point of the corruption-robustness sweep (paper §IV takeaway 2).
struct CorruptionEval {
  data::CorruptionKind kind{};
  float severity = 0.0f;
  EvalResult result;
};

/// Corruption sweep: corrupt `images` (NCHW, pre-standardization) at every
/// (kind, severity) pair, per-sample standardize, and evaluate each with
/// the pooled Monte-Carlo protocol. The model clones are built once and
/// reused across the whole sweep.
[[nodiscard]] std::vector<CorruptionEval> evaluate_corruption(
    const BuiltModel& model, const nn::Dataset& images,
    const std::vector<data::CorruptionKind>& kinds,
    const std::vector<float>& severities, std::uint64_t corruption_seed,
    const EvalOptions& options);

}  // namespace neuspin::core
