#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "nn/conv_lowering.h"

namespace neuspin::nn {

// ---------------------------------------------------------------- Dense ----

Dense::Dense(std::size_t in_features, std::size_t out_features, std::mt19937_64& engine)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::randn({in_features, out_features},
                            std::sqrt(2.0f / static_cast<float>(in_features)), engine)),
      bias_({out_features}),
      weight_grad_({in_features, out_features}),
      bias_grad_({out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Dense: feature counts must be positive");
  }
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense: expected (batch x " + std::to_string(in_) +
                                "), got " + shape_to_string(input.shape()));
  }
  input_cache_ = input;
  Tensor out = matmul(input, weight_);
  const std::size_t batch = out.dim(0);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      out.at(i, j) += bias_[j];
    }
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  // dW += x^T g ; db += sum_rows(g) ; dx = g W^T
  Tensor wg = matmul_a_transposed(input_cache_, grad_output);
  weight_grad_ += wg;
  const std::size_t batch = grad_output.dim(0);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      bias_grad_[j] += grad_output.at(i, j);
    }
  }
  return matmul_transposed(grad_output, weight_);
}

std::vector<ParamRef> Dense::parameters() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// --------------------------------------------------------------- Conv2d ----

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t padding, std::mt19937_64& engine)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      padding_(padding),
      weight_(Tensor::randn(
          {out_channels, in_channels, kernel, kernel},
          std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel)), engine)),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (kernel == 0 || in_channels == 0 || out_channels == 0) {
    throw std::invalid_argument("Conv2d: channels and kernel must be positive");
  }
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2d: expected NCHW with C=" + std::to_string(in_ch_) +
                                ", got " + shape_to_string(input.shape()));
  }
  // Backward state is kept for training-mode forwards only: inference
  // (the serving hot path) would otherwise keep an O(N*OH*OW x C*k*k)
  // patch matrix resident per model clone between requests.
  input_shape_ = training ? input.shape() : Shape{};
  input_cache_ = Tensor();
  cols_cache_ = Tensor();
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);

  if (algo_ == Algo::kIm2col) {
    // Lowered path: one patch-matrix build, then the cache-blocked GEMM.
    // C is seeded with the bias so every output element accumulates
    // (bias, then ascending (ic, ky, kx) taps) — the direct loop's exact
    // term order; the kernel's zero-skip drops only the padding taps the
    // direct loop's bounds checks never visited.
    Tensor cols = im2col(input, kernel_, padding_);
    const std::size_t oh = h + 2 * padding_ - kernel_ + 1;
    const std::size_t ow = w + 2 * padding_ - kernel_ + 1;
    const Tensor wmat = detail::kernel_as_gemm_operand(weight_);
    Tensor out_rows({n * oh * ow, out_ch_});
    const auto bias = bias_.data();
    for (std::size_t p = 0; p < n * oh * ow; ++p) {
      std::copy(bias.begin(), bias.end(),
                out_rows.data().begin() + static_cast<std::ptrdiff_t>(p * out_ch_));
    }
    matmul_accumulate(cols, wmat, out_rows);
    if (training) {
      cols_cache_ = std::move(cols);  // the patch matrix replaces the input cache
    }
    return detail::rows_to_nchw(out_rows, n, out_ch_, oh, ow);
  }

  if (training) {
    input_cache_ = input;
  }
  const std::size_t oh = h + 2 * padding_ - kernel_ + 1;
  const std::size_t ow = w + 2 * padding_ - kernel_ + 1;
  Tensor out({n, out_ch_, oh, ow});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float acc = bias_[oc];
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            for (std::size_t ky = 0; ky < kernel_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y + ky) - static_cast<std::ptrdiff_t>(padding_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
                continue;
              }
              for (std::size_t kx = 0; kx < kernel_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x + kx) - static_cast<std::ptrdiff_t>(padding_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += input.at4(b, ic, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix)) *
                       weight_.at4(oc, ic, ky, kx);
              }
            }
          }
          out.at4(b, oc, y, x) = acc;
        }
      }
    }
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (input_shape_.size() != 4) {
    throw std::logic_error("Conv2d: backward before a training-mode forward");
  }
  const std::size_t n = input_shape_[0];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t oh = grad_output.dim(2);
  const std::size_t ow = grad_output.dim(3);
  const std::size_t taps = in_ch_ * kernel_ * kernel_;

  if (algo_ == Algo::kIm2col) {
    // dW = cols^T g ; db = column sums of g ; dx = col2im(g W).
    const Tensor g_rows = detail::nchw_to_rows(grad_output);
    const std::size_t rows = g_rows.dim(0);
    for (std::size_t p = 0; p < rows; ++p) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        const float g = g_rows.at(p, oc);
        if (g != 0.0f) {  // mirror the direct loop's zero-gradient skip
          bias_grad_[oc] += g;
        }
      }
    }
    const Tensor wg = matmul_a_transposed(cols_cache_, g_rows);  // (taps x oc)
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t r = 0; r < taps; ++r) {
        weight_grad_[oc * taps + r] += wg.at(r, oc);
      }
    }
    const Tensor dcols = matmul(g_rows, weight_.reshaped({out_ch_, taps}));
    return col2im(dcols, input_shape_, kernel_, padding_);
  }

  const Tensor& input = input_cache_;
  Tensor grad_input(input_shape_);
  // Pass 1: bias and weight gradients. Per (oc, tap) the terms arrive in
  // ascending (b, y, x) order — the row order of the lowered
  // matmul_a_transposed, so both algorithms accumulate identically.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const float g = grad_output.at4(b, oc, y, x);
          if (g == 0.0f) {
            continue;
          }
          bias_grad_[oc] += g;
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            for (std::size_t ky = 0; ky < kernel_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y + ky) - static_cast<std::ptrdiff_t>(padding_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
                continue;
              }
              for (std::size_t kx = 0; kx < kernel_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x + kx) - static_cast<std::ptrdiff_t>(padding_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                weight_grad_.at4(oc, ic, ky, kx) +=
                    g * input.at4(b, ic, static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix));
              }
            }
          }
        }
      }
    }
  }
  // Pass 2: input gradient, gathered per patch tap with the output
  // channels reduced innermost — term for term the lowered matmul(g, W)
  // followed by col2im, so the two algorithms stay bitwise equal.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t ic = 0; ic < in_ch_; ++ic) {
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(y + ky) - static_cast<std::ptrdiff_t>(padding_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
              continue;
            }
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(x + kx) - static_cast<std::ptrdiff_t>(padding_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                continue;
              }
              float acc = 0.0f;
              for (std::size_t oc = 0; oc < out_ch_; ++oc) {
                const float g = grad_output.at4(b, oc, y, x);
                if (g == 0.0f) {
                  continue;
                }
                acc += g * weight_.at4(oc, ic, ky, kx);
              }
              grad_input.at4(b, ic, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix)) += acc;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::vector<ParamRef> Conv2d::parameters() {
  return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// ------------------------------------------------------------ MaxPool2d ----

namespace {

/// One step of the 2x2 window scan: take `v` only when it is strictly
/// greater than `best`. Ties keep the earlier value, a NaN candidate never
/// wins and a NaN seed is never replaced. Written as a select so that it
/// compiles to a max instruction instead of a data-dependent branch.
inline float take_greater(float best, float v) { return v > best ? v : best; }

}  // namespace

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4) {
    throw std::invalid_argument("MaxPool2d: expected NCHW, got " +
                                shape_to_string(input.shape()));
  }
  const std::size_t planes = input.dim(0) * input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  Tensor out({input.dim(0), input.dim(1), oh, ow});
  const float* in = input.data().data();
  float* o = out.data().data();
  // Every window is scanned top-left (the seed), top-right, bottom-left,
  // bottom-right, so both modes select the same value; an odd last row or
  // column is dropped (floor).
  if (!training) {
    // Inference keeps no backward state (backward() then throws, as
    // BatchNorm's does) and records no argmax.
    input_shape_.clear();
    argmax_.clear();
    for (std::size_t p = 0; p < planes; ++p) {
      for (std::size_t y = 0; y < oh; ++y) {
        const float* r0 = in + (p * h + 2 * y) * w;
        const float* r1 = r0 + w;
        float* orow = o + (p * oh + y) * ow;
        for (std::size_t x = 0; x < ow; ++x) {
          float best = r0[2 * x];
          best = take_greater(best, r0[2 * x + 1]);
          best = take_greater(best, r1[2 * x]);
          orow[x] = take_greater(best, r1[2 * x + 1]);
        }
      }
    }
    return out;
  }
  input_shape_ = input.shape();
  argmax_.resize(out.numel());
  std::size_t* arg = argmax_.data();
  for (std::size_t p = 0; p < planes; ++p) {
    for (std::size_t y = 0; y < oh; ++y) {
      const std::size_t row0 = (p * h + 2 * y) * w;
      const float* r0 = in + row0;
      const float* r1 = r0 + w;
      const std::size_t flat = (p * oh + y) * ow;
      for (std::size_t x = 0; x < ow; ++x) {
        float best = r0[2 * x];
        std::size_t best_idx = row0 + 2 * x;
        const auto step = [&best, &best_idx](float v, std::size_t idx) {
          const bool greater = v > best;
          best = greater ? v : best;
          best_idx = greater ? idx : best_idx;
        };
        step(r0[2 * x + 1], row0 + 2 * x + 1);
        step(r1[2 * x], row0 + w + 2 * x);
        step(r1[2 * x + 1], row0 + w + 2 * x + 1);
        o[flat + x] = best;
        arg[flat + x] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (input_shape_.size() != 4) {
    throw std::logic_error("MaxPool2d: backward before a training-mode forward");
  }
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

// -------------------------------------------------------------- Flatten ----

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  input_shape_ = input.shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(input_shape_);
}

// ----------------------------------------------------------------- ReLU ----

Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  input_cache_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = std::max(out[i], 0.0f);
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (input_cache_[i] <= 0.0f) {
      grad[i] = 0.0f;
    }
  }
  return grad;
}

// ------------------------------------------------------------- HardTanh ----

Tensor HardTanh::forward(const Tensor& input, bool /*training*/) {
  input_cache_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = std::clamp(out[i], -1.0f, 1.0f);
  }
  return out;
}

Tensor HardTanh::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (input_cache_[i] < -1.0f || input_cache_[i] > 1.0f) {
      grad[i] = 0.0f;
    }
  }
  return grad;
}

// ------------------------------------------------------- SignActivation ----

Tensor SignActivation::forward(const Tensor& input, bool /*training*/) {
  input_cache_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = out[i] >= 0.0f ? 1.0f : -1.0f;
  }
  return out;
}

Tensor SignActivation::backward(const Tensor& grad_output) {
  // Straight-through estimator with the |x| <= 1 window (Hubara et al.).
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (std::abs(input_cache_[i]) > 1.0f) {
      grad[i] = 0.0f;
    }
  }
  return grad;
}

// ------------------------------------------------------------ BatchNorm ----

BatchNorm::BatchNorm(std::size_t features, float momentum, float eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_({features}, 1.0f),
      beta_({features}),
      gamma_grad_({features}),
      beta_grad_({features}),
      running_mean_({features}),
      running_var_({features}, 1.0f),
      batch_std_({features}) {
  if (features == 0) {
    throw std::invalid_argument("BatchNorm: features must be positive");
  }
}

void BatchNorm::resolve_geometry(const Shape& shape, std::size_t& outer,
                                 std::size_t& inner) const {
  if (shape.size() == 2 && shape[1] == features_) {
    outer = shape[0];
    inner = 1;
    return;
  }
  if (shape.size() == 4 && shape[1] == features_) {
    outer = shape[0];
    inner = shape[2] * shape[3];
    return;
  }
  throw std::invalid_argument("BatchNorm(" + std::to_string(features_) +
                              "): unsupported input shape " + shape_to_string(shape));
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  std::size_t outer = 0;
  std::size_t inner = 0;
  resolve_geometry(input.shape(), outer, inner);
  input_shape_ = input.shape();
  if (!training) {
    return infer(input, outer, inner);
  }
  const std::size_t count = outer * inner;

  Tensor out(input.shape());
  normalized_cache_ = Tensor(input.shape());

  for (std::size_t f = 0; f < features_; ++f) {
    float mean = 0.0f;
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < inner; ++i) {
        mean += input[(o * features_ + f) * inner + i];
      }
    }
    mean /= static_cast<float>(count);
    float var = 0.0f;
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < inner; ++i) {
        const float d = input[(o * features_ + f) * inner + i] - mean;
        var += d * d;
      }
    }
    var /= static_cast<float>(count);
    running_mean_[f] = (1.0f - momentum_) * running_mean_[f] + momentum_ * mean;
    running_var_[f] = (1.0f - momentum_) * running_var_[f] + momentum_ * var;
    const float inv_std = 1.0f / std::sqrt(var + eps_);
    batch_std_[f] = std::sqrt(var + eps_);
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < inner; ++i) {
        const std::size_t idx = (o * features_ + f) * inner + i;
        const float norm = (input[idx] - mean) * inv_std;
        normalized_cache_[idx] = norm;
        out[idx] = gamma_[f] * norm + beta_[f];
      }
    }
  }
  return out;
}

Tensor BatchNorm::infer(const Tensor& input, std::size_t outer, std::size_t inner) {
  // Inference keeps no backward state (backward() then throws, as
  // BinaryDense's does).
  normalized_cache_ = Tensor();
  std::vector<float> inv_std(features_);
  for (std::size_t f = 0; f < features_; ++f) {
    inv_std[f] = 1.0f / std::sqrt(running_var_[f] + eps_);
  }
  // Walk the tensor in memory order: the same per-element expressions as
  // the training path (no FMA contraction in this library), so the result
  // is bitwise the per-feature loop. Rank 2 (inner == 1) gets its own loop
  // so that the vectorised dimension is the contiguous feature row.
  Tensor out(input.shape());
  const float* x = input.data().data();
  float* y = out.data().data();
  const float* mean = running_mean_.data().data();
  const float* gamma = gamma_.data().data();
  const float* beta = beta_.data().data();
  if (inner == 1) {
    for (std::size_t o = 0; o < outer; ++o) {
      const float* xr = x + o * features_;
      float* yr = y + o * features_;
      for (std::size_t f = 0; f < features_; ++f) {
        const float norm = (xr[f] - mean[f]) * inv_std[f];
        yr[f] = gamma[f] * norm + beta[f];
      }
    }
    return out;
  }
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t f = 0; f < features_; ++f) {
      const float* xr = x + (o * features_ + f) * inner;
      float* yr = y + (o * features_ + f) * inner;
      for (std::size_t i = 0; i < inner; ++i) {
        const float norm = (xr[i] - mean[f]) * inv_std[f];
        yr[i] = gamma[f] * norm + beta[f];
      }
    }
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  std::size_t outer = 0;
  std::size_t inner = 0;
  if (normalized_cache_.empty()) {
    throw std::logic_error("BatchNorm: backward before a training-mode forward");
  }
  resolve_geometry(input_shape_, outer, inner);
  const float count = static_cast<float>(outer * inner);

  Tensor grad_input(input_shape_);
  for (std::size_t f = 0; f < features_; ++f) {
    float sum_g = 0.0f;
    float sum_gx = 0.0f;
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < inner; ++i) {
        const std::size_t idx = (o * features_ + f) * inner + i;
        sum_g += grad_output[idx];
        sum_gx += grad_output[idx] * normalized_cache_[idx];
      }
    }
    gamma_grad_[f] += sum_gx;
    beta_grad_[f] += sum_g;
    const float scale = gamma_[f] / batch_std_[f];
    for (std::size_t o = 0; o < outer; ++o) {
      for (std::size_t i = 0; i < inner; ++i) {
        const std::size_t idx = (o * features_ + f) * inner + i;
        grad_input[idx] = scale * (grad_output[idx] - sum_g / count -
                                   normalized_cache_[idx] * sum_gx / count);
      }
    }
  }
  return grad_input;
}

std::vector<ParamRef> BatchNorm::parameters() {
  return {{&gamma_, &gamma_grad_}, {&beta_, &beta_grad_}};
}

// -------------------------------------------------------------- Dropout ----

Dropout::Dropout(float probability, std::uint64_t seed)
    : p_(probability), engine_(seed) {
  if (probability < 0.0f || probability >= 1.0f) {
    throw std::invalid_argument("Dropout: probability must lie in [0,1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  const bool active = training || mc_mode_;
  if (!active || p_ == 0.0f) {
    mask_ = Tensor(input.shape(), 1.0f);
    return input;
  }
  const float scale = 1.0f / (1.0f - p_);
  mask_ = Tensor(input.shape());
  Tensor out = input;
  if (!row_seeds_.empty()) {
    // Row mode: each row draws from its own freshly seeded stream, exactly
    // like a batch-of-one forward after reseed(row_seeds_[r]).
    const std::size_t batch = input.dim(0);
    if (batch != row_seeds_.size()) {
      throw std::invalid_argument("Dropout: row-seed count does not match batch");
    }
    const std::size_t per_row = input.numel() / batch;
    for (std::size_t r = 0; r < batch; ++r) {
      engine_.seed(row_seeds_[r]);
      std::bernoulli_distribution keep(1.0 - p_);
      for (std::size_t i = r * per_row; i < (r + 1) * per_row; ++i) {
        const float m = keep(engine_) ? scale : 0.0f;
        mask_[i] = m;
        out[i] *= m;
      }
    }
    return out;
  }
  std::bernoulli_distribution keep(1.0 - p_);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const float m = keep(engine_) ? scale : 0.0f;
    mask_[i] = m;
    out[i] *= m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] *= mask_[i];
  }
  return grad;
}

void Dropout::save_rng_state(std::ostream& out) const { out << engine_ << '\n'; }

void Dropout::load_rng_state(std::istream& in) { in >> engine_; }

}  // namespace neuspin::nn
