// Binary (XNOR-style) layers with latent full-precision weights and
// straight-through-estimator training (paper §III-A.1 BinBayNN and
// §IV takeaway 6 "Quantized BayNNs").
//
// Weights are binarized as sign(w) scaled by a per-output-column factor
// alpha = mean(|w_col|) (XNOR-Net style). With +-1 weights and +-1
// activations, the dense product is exactly the XNOR/popcount operation the
// 2x(1T-1MTJ) bit-cell computes, so the crossbar mapping in src/xbar is a
// faithful hardware realization of these layers.
//
// Inference compute path (training is untouched — float STE throughout):
// the latent weights are sign-packed once per weight version (repack on a
// fingerprint mismatch) and, when the incoming activations are exactly
// {-1, 0, +1} — sign activations, SpinDrop zeros, im2col padding — the
// forward runs on the bit-packed XNOR/popcount GEMM (nn/bitpack.h), which
// is pinned bitwise equal to the float-materialized product; any other
// input (real-valued features, a reduction shallower than kMinPackedK)
// takes the float GEMM. The float reference oracle is the training-mode
// forward: the same matmul(x, sign(W)) and the same epilogue, pinned
// bitwise equal to the inference forward by the layer tests.
#pragma once

#include <memory>
#include <random>

#include "nn/bitpack.h"
#include "nn/layers.h"
#include "nn/tensor.h"

namespace neuspin::nn {

/// Binarize a tensor element-wise to +-1.
[[nodiscard]] Tensor sign_of(const Tensor& t);

/// Per-column scale alpha_j = mean_i |W_ij| of an (in x out) weight matrix.
[[nodiscard]] Tensor column_abs_mean(const Tensor& weight);

namespace detail {

/// Inference only takes the bit-packed kernel when the reduction is at
/// least this deep: below it the per-forward packing cost exceeds what the
/// XNOR/popcount dot saves (a 3x3 single-channel conv has K = 9 — one
/// ragged 9-bit lane — and measures slower packed than the float GEMM).
/// Both paths are bitwise identical, so this is a throughput choice only.
inline constexpr std::size_t kMinPackedK = 16;

/// Sign-packed weights cached across inference forwards, keyed by a
/// fingerprint of the latent weight bytes (repack-on-mutate; the layers
/// hand out mutable weight references, so mutation is detected by value,
/// not by hook). Cloned by value with the layer.
struct PackedBinaryWeights {
  std::uint64_t fingerprint = 0;
  bool filled = false;
  BitMatrix bits;       ///< one dense ±1 row per output column
  Tensor sign_float;    ///< sign(W) in the layer's own weight layout
  Tensor gemm_operand;  ///< conv only: (taps x out_ch) lowered RHS
  Tensor alpha;         ///< per-output-column / per-channel scales
};

}  // namespace detail

/// Fully connected layer computing y = (x · sign(W)) * alpha + b.
///
/// The latent weight is full precision and receives STE gradients clipped
/// to the [-1, 1] window; at inference only sign(W) and alpha survive,
/// which is what gets programmed into the MTJ crossbar.
class BinaryDense : public Layer {
 public:
  BinaryDense(std::size_t in_features, std::size_t out_features,
              std::mt19937_64& engine);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override { return "BinaryDense"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<BinaryDense>(*this);
  }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

  /// Binarized weights (+-1) as deployed on hardware.
  [[nodiscard]] Tensor binary_weight() const { return sign_of(latent_weight_); }
  /// Per-column scale factors as deployed on hardware.
  [[nodiscard]] Tensor scales() const { return column_abs_mean(latent_weight_); }
  [[nodiscard]] Tensor& latent_weight() { return latent_weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }

 private:
  [[nodiscard]] const detail::PackedBinaryWeights& packed();

  std::size_t in_;
  std::size_t out_;
  Tensor latent_weight_;
  Tensor bias_;
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_cache_;
  Tensor binary_cache_;
  Tensor alpha_cache_;
  detail::PackedBinaryWeights pack_;
};

/// Binary convolution: kernels binarized to sign(W) with one alpha per
/// output channel. NCHW, stride 1, symmetric zero padding.
///
/// Like Conv2d it computes through either the direct per-element loop or
/// the im2col lowering onto the blocked GEMM kernels (the default); the
/// two algorithms are bitwise equal — see the Conv2d class comment. The
/// lowered inference GEMM runs on the bit-packed kernels when the im2col
/// patches pack exactly and the reduction reaches kMinPackedK.
class BinaryConv2d : public Layer {
 public:
  BinaryConv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t padding, std::mt19937_64& engine);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override { return "BinaryConv2d"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<BinaryConv2d>(*this);
  }

  [[nodiscard]] std::size_t in_channels() const { return in_ch_; }
  [[nodiscard]] std::size_t out_channels() const { return out_ch_; }
  [[nodiscard]] std::size_t kernel() const { return kernel_; }
  [[nodiscard]] std::size_t padding() const { return padding_; }

  [[nodiscard]] Tensor binary_weight() const { return sign_of(latent_weight_); }
  /// One alpha per output channel: mean |W| over (in_ch x k x k).
  [[nodiscard]] Tensor channel_scales() const;
  [[nodiscard]] Tensor& latent_weight() { return latent_weight_; }
  [[nodiscard]] Tensor& bias() { return bias_; }
  void set_algo(Conv2d::Algo algo) { algo_ = algo; }
  [[nodiscard]] Conv2d::Algo algo() const { return algo_; }

 private:
  [[nodiscard]] const detail::PackedBinaryWeights& packed();
  [[nodiscard]] Tensor infer_images(const Tensor& x);

  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t kernel_;
  std::size_t padding_;
  Conv2d::Algo algo_ = Conv2d::Algo::kIm2col;
  Tensor latent_weight_;  ///< (out_ch, in_ch, k, k)
  Tensor bias_;
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_cache_;  ///< NCHW input (direct backward)
  Tensor cols_cache_;   ///< im2col patch matrix (im2col backward)
  Tensor binary_cache_;
  Tensor alpha_cache_;
  Shape input_shape_;
  detail::PackedBinaryWeights pack_;
};

}  // namespace neuspin::nn
