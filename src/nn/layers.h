// Layer zoo of the from-scratch NN framework.
//
// Every layer implements forward/backward with explicit caches, exposes its
// learnable parameters through ParamRef so optimizers can update them, and
// keeps all randomness behind injected engines for reproducibility.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace neuspin::nn {

/// A view of one learnable parameter and its gradient accumulator.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute the layer output. `training` toggles batch statistics,
  /// dropout sampling, and other train-only behaviour.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Back-propagate: given dL/d(output), return dL/d(input) and accumulate
  /// parameter gradients. Must be called after a forward pass.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> parameters() { return {}; }

  /// Non-learnable persistent state (e.g. batch-norm running statistics),
  /// exposed so checkpoints can round-trip a trained model exactly.
  virtual std::vector<Tensor*> state_tensors() { return {}; }

  /// Deep copy of the layer: parameters, persistent state and RNG streams.
  /// Parallel Monte-Carlo evaluation replicates a model once per worker
  /// thread through this hook. Layers that cannot be cloned return
  /// nullptr; Sequential::clone reports which layer blocked the copy.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const { return nullptr; }

  /// Reset the layer's stochastic streams. Deterministic layers ignore the
  /// call; stochastic layers must reset every internal engine so that a
  /// forward pass after reseed(s) depends only on (parameters, input, s) —
  /// the property that makes threaded MC evaluation bitwise reproducible.
  virtual void reseed(std::uint64_t seed) { (void)seed; }

  /// Per-row seeding contract: switch the layer's stochastic streams to
  /// row mode, where row r of the next forward's batch draws its
  /// masks/noise/samples from a stream seeded by row_seeds[r] — bit for
  /// bit what a batch-of-one forward after reseed(row_seeds[r]) would
  /// compute for that row. Two callers rely on it:
  ///
  ///  * the fused Monte-Carlo path (inference): stacking T passes x B
  ///    requests into one (T*B x F) forward of the stochastic tail
  ///    reproduces the T*B individual passes exactly;
  ///  * the data-parallel trainer (training): layers with per-SAMPLE
  ///    training masks (nn::Dropout, core::SpinDropLayer) key each
  ///    sample's mask to its row seed, making the masks independent of
  ///    how a minibatch is sharded, and their backward consumes the
  ///    cached masks as usual. Layers whose row mode replays the
  ///    batch-of-one EVAL pass (running-stat normalization, quantized
  ///    posterior samples) ignore row seeds while `training` is true and
  ///    keep their per-pass draws — backward after an eval-replay
  ///    row-mode forward remains unsupported.
  ///
  /// Deterministic layers ignore the call (their forward is already
  /// row-independent); stochastic layers must override it, and a later
  /// reseed() returns them to shared-stream mode.
  ///
  /// WARNING for custom layers: the default is a silent no-op, which is
  /// only correct for layers whose forward is row-independent. A custom
  /// STOCHASTIC layer that overrides reseed() but not reseed_rows() will
  /// draw one shared stream across the whole stacked batch and silently
  /// break the fused path's batch-invariance guarantee, so it must
  /// override both. A layer of a type the fused path does not know never
  /// joins its deterministic head (core::deterministic_head_length), so
  /// it always runs on the stacked rows under its row seeds.
  virtual void reseed_rows(std::span<const std::uint64_t> row_seeds) {
    (void)row_seeds;
  }

  /// Serialize the layer's persistent RNG stream state (engines, counter
  /// streams) as text, so a checkpointed training run can resume bitwise
  /// (train::Trainer::save/restore). Parameters and state_tensors are NOT
  /// included — only entropy state. Deterministic layers write nothing.
  /// A custom stochastic layer that skips these hooks still trains and
  /// serves correctly, but a kill-and-resume of a SERIAL (shards == 1)
  /// training run is no longer bitwise identical through it — the sharded
  /// path reseeds every stream per step and does not depend on them.
  virtual void save_rng_state(std::ostream& out) const { (void)out; }
  /// Restore exactly what save_rng_state wrote (same layer type/geometry).
  virtual void load_rng_state(std::istream& in) { (void)in; }

  /// Human-readable identifier for diagnostics.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Fully connected layer: y = x W + b, x is (batch x in), W is (in x out).
class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, std::mt19937_64& engine);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override { return "Dense"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }
  [[nodiscard]] Tensor& weight() { return weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weight_;
  Tensor bias_;
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_cache_;
};

/// 2D convolution over NCHW tensors, stride 1, symmetric zero padding.
///
/// Two algorithms compute the same convolution, selected by set_algo():
///
///  * kIm2col (default): lower the input into its patch matrix (im2col)
///    and run forward, weight-grad and input-grad as calls into the
///    cache-blocked GEMM kernels (matmul_accumulate / matmul_a_transposed
///    / matmul + col2im). This inherits the kernels' throughput and their
///    fixed ascending-k accumulation order, so results stay row-
///    independent and batch-invariant like the dense layers.
///  * kDirect: the original per-element loop nest, kept as the bitwise
///    reference — both paths accumulate every output/gradient element's
///    terms in the same ascending (c, ky, kx) / ascending output-channel
///    order, so they agree bit for bit (pinned by layers_test).
///
/// Backward state (the input / patch-matrix cache) is kept only for
/// training-mode forwards; backward() after an inference-mode forward —
/// or before any forward — throws instead of computing from stale state.
class Conv2d : public Layer {
 public:
  /// Convolution algorithm; see the class comment.
  enum class Algo : std::uint8_t { kDirect, kIm2col };

  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding, std::mt19937_64& engine);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override { return "Conv2d"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }

  [[nodiscard]] std::size_t in_channels() const { return in_ch_; }
  [[nodiscard]] std::size_t out_channels() const { return out_ch_; }
  [[nodiscard]] std::size_t kernel() const { return kernel_; }
  [[nodiscard]] Tensor& weight() { return weight_; }
  void set_algo(Algo algo) { algo_ = algo; }
  [[nodiscard]] Algo algo() const { return algo_; }

 private:
  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t kernel_;
  std::size_t padding_;
  Algo algo_ = Algo::kIm2col;
  Tensor weight_;  ///< (out_ch, in_ch, k, k)
  Tensor bias_;    ///< (out_ch)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_cache_;  ///< NCHW input (direct backward; training only)
  Tensor cols_cache_;   ///< im2col patch matrix (im2col backward; training only)
  Shape input_shape_;   ///< empty unless the last forward was training-mode
};

/// 2x2 max pooling with stride 2 over NCHW tensors. Only training-mode
/// forwards record the argmax routing; backward() after an inference-mode
/// forward, or before any forward, throws std::logic_error.
class MaxPool2d : public Layer {
 public:
  MaxPool2d() = default;

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2d>(*this);
  }

 private:
  Shape input_shape_;                ///< empty unless the last forward trained
  std::vector<std::size_t> argmax_;  ///< flat input index of each pooled max
};

/// Collapse all non-batch axes: (N, ...) -> (N, features).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }

 private:
  Shape input_shape_;
};

/// Rectified linear activation.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }

 private:
  Tensor input_cache_;
};

/// Hard tanh used as the binary activation's latent clamp.
class HardTanh : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "HardTanh"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<HardTanh>(*this);
  }

 private:
  Tensor input_cache_;
};

/// Sign activation with straight-through estimator (BNN activation;
/// paper §III-A.1: "standard matrix-vector multiplications are replaced
/// with XNOR operations", which requires +-1 activations).
class SignActivation : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Sign"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<SignActivation>(*this);
  }

 private:
  Tensor input_cache_;
};

/// Batch normalization over features (rank-2) or channels (rank-4).
/// Standard order: normalize first, then the optional affine transform —
/// the paper's InvertedNorm (src/core/affinedrop.h) flips this order.
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override { return "BatchNorm"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<BatchNorm>(*this);
  }

  std::vector<Tensor*> state_tensors() override {
    return {&running_mean_, &running_var_};
  }

  [[nodiscard]] std::size_t features() const { return features_; }
  [[nodiscard]] Tensor& gamma() { return gamma_; }
  [[nodiscard]] Tensor& beta() { return beta_; }
  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

 private:
  /// Iterate input as (outer, features, inner): rank-2 has inner == 1;
  /// rank-4 NCHW has inner == H*W.
  void resolve_geometry(const Shape& shape, std::size_t& outer,
                        std::size_t& inner) const;
  /// Inference forward: running statistics, walked in memory order.
  [[nodiscard]] Tensor infer(const Tensor& input, std::size_t outer, std::size_t inner);

  std::size_t features_;
  float momentum_;
  float eps_;
  Tensor gamma_;
  Tensor beta_;
  Tensor gamma_grad_;
  Tensor beta_grad_;
  Tensor running_mean_;
  Tensor running_var_;
  // Caches for backward, written by training forwards only.
  Tensor normalized_cache_;
  Tensor batch_std_;
  Shape input_shape_;
};

/// Conventional element-wise dropout (baseline MC-Dropout). Keeps the
/// activation scale by inverted-dropout (divide kept units by 1-p).
/// In NeuSpin, hardware variants replace the mask source with SpinRng.
class Dropout : public Layer {
 public:
  Dropout(float probability, std::uint64_t seed);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dropout>(*this);
  }
  void reseed(std::uint64_t seed) override {
    engine_.seed(seed);
    row_seeds_.clear();
  }
  void reseed_rows(std::span<const std::uint64_t> row_seeds) override {
    row_seeds_.assign(row_seeds.begin(), row_seeds.end());
  }
  void save_rng_state(std::ostream& out) const override;
  void load_rng_state(std::istream& in) override;

  [[nodiscard]] float probability() const { return p_; }
  /// MC-Dropout keeps sampling at inference; enable_at_inference(true)
  /// makes `training == false` forward passes stochastic too.
  void enable_at_inference(bool on) { mc_mode_ = on; }

 private:
  float p_;
  bool mc_mode_ = false;
  std::mt19937_64 engine_;
  std::vector<std::uint64_t> row_seeds_;  ///< non-empty = row mode
  Tensor mask_;
};

}  // namespace neuspin::nn
