// Sequential model container plus training/evaluation loops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/tensor.h"

namespace neuspin::nn {

/// Derive an independent RNG stream seed from (base, salt): splitmix64 of
/// base + salt * odd-constant. Per-pass and per-layer streams of the
/// Monte-Carlo evaluator are all spawned through this mix so no two
/// streams coincide and results stay reproducible across thread counts.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt);

/// Supervised classification dataset: inputs (N x ...) with one label each.
struct Dataset {
  Tensor inputs;
  std::vector<std::size_t> labels;

  [[nodiscard]] std::size_t size() const { return labels.size(); }
  /// Extract rows [begin, end) as a batch (copies).
  [[nodiscard]] std::pair<Tensor, std::vector<std::size_t>> batch(std::size_t begin,
                                                                  std::size_t end) const;
  /// Gather rows order[begin..end) as a batch — the shuffled-epoch batching
  /// of the training loop. Bitwise identical to materializing the whole
  /// dataset in `order` and slicing [begin, end), but O(batch) instead of
  /// the former per-epoch O(dataset) copy.
  [[nodiscard]] std::pair<Tensor, std::vector<std::size_t>> batch(
      std::span<const std::size_t> order, std::size_t begin, std::size_t end) const;
};

/// Linear stack of layers; owns them.
class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Construct a layer in place and return a typed reference to it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  /// Replace the layer at index `i` (used e.g. to swap a trained
  /// variational layer for its in-memory SpinBayes approximation).
  void replace(std::size_t i, std::unique_ptr<Layer> layer) {
    layers_.at(i) = std::move(layer);
  }

  /// Run every layer: forward_range(input, 0, size(), training).
  [[nodiscard]] Tensor forward(const Tensor& input, bool training);
  /// Run layers [begin, end) only, feeding `input` to layer `begin`. Lets
  /// the offline Monte-Carlo evaluator and the fused serving path
  /// (core::predict_fused_batch) run the deterministic head once and the
  /// stochastic tail from the first stochastic layer on. An empty range
  /// returns a copy of `input`; throws std::out_of_range unless
  /// begin <= end <= size().
  [[nodiscard]] Tensor forward_range(const Tensor& input, std::size_t begin,
                                     std::size_t end, bool training);
  /// Back-propagate through the whole stack; returns dL/d(input).
  [[nodiscard]] Tensor backward(const Tensor& grad_output);

  /// Deep copy of the whole stack (parameters, state and RNG streams).
  /// Throws std::logic_error naming the first layer whose clone() is
  /// unimplemented. Used to replicate a trained model per worker thread.
  [[nodiscard]] Sequential clone() const;

  /// Forward `seed` to every layer's reseed() hook, mixing in the layer
  /// index so sibling layers never share a stream.
  void reseed(std::uint64_t seed);

  /// Per-row counterpart for the fused Monte-Carlo path: layer i receives
  /// row seeds mix_seed(row_seeds[r], i), the exact per-layer derivation
  /// reseed(row_seeds[r]) would perform — so row r of the next stacked
  /// forward reproduces a batch-of-one forward under that seed bit for
  /// bit (see Layer::reseed_rows).
  void reseed_rows(std::span<const std::uint64_t> row_seeds);

  /// Serialize / restore every layer's persistent RNG stream state (see
  /// Layer::save_rng_state). Text format; concatenated in layer order, so
  /// load must run on a Sequential of the same architecture.
  void save_rng_state(std::ostream& out) const;
  void load_rng_state(std::istream& in);

  [[nodiscard]] std::vector<ParamRef> parameters();

  /// Non-learnable persistent state of every layer (batch-norm running
  /// statistics and the like), in layer order. The data-parallel trainer
  /// uses this to sync shard clones and to fold their state updates back.
  [[nodiscard]] std::vector<Tensor*> state_tensors();

  /// Zero every parameter's gradient accumulator. backward() accumulates
  /// (`+=`) into the grads exposed on ParamRef, so multi-pass gradient
  /// accumulation works out of the box; call this to start a fresh
  /// accumulation window when no Optimizer::step() (which also clears) ran.
  void zero_grad();

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_[i]; }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Total learnable scalar count.
  [[nodiscard]] std::size_t parameter_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Configuration of the classification training loop.
struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  float lr = 0.01f;
  float lr_decay = 0.5f;          ///< multiplied in every `lr_decay_period`
  std::size_t lr_decay_period = 5;
  std::uint64_t shuffle_seed = 7;
  bool verbose = false;
  /// Label smoothing of the cross-entropy target (0 disables).
  float label_smoothing = 0.0f;
  /// Extra loss hook evaluated once per step (regularizers: KL, scale reg).
  /// Returns the additional loss value; gradients must be accumulated into
  /// the parameters' own grad tensors by the hook.
  std::function<float()> regularizer;
};

/// Per-epoch training record.
struct EpochStats {
  float train_loss = 0.0f;
  float train_accuracy = 0.0f;
  double seconds = 0.0;           ///< wall-clock time of the epoch
  double examples_per_sec = 0.0;  ///< training throughput of the epoch
};

/// Train `model` on `train` with softmax cross-entropy and Adam.
/// Compatibility wrapper over train::Trainer (serial semantics: one
/// gradient shard, results bitwise identical to the historical in-place
/// loop). New call sites that want the data-parallel path should use
/// train::Trainer directly. Returns per-epoch statistics.
std::vector<EpochStats> train_classifier(Sequential& model, const Dataset& train,
                                         const TrainConfig& config);

/// Fraction of correctly classified samples (single deterministic pass).
[[nodiscard]] float evaluate_accuracy(Sequential& model, const Dataset& test);

}  // namespace neuspin::nn
