#include "nn/binarize.h"

#include <cmath>
#include <utility>

#include "nn/conv_lowering.h"

namespace neuspin::nn {

Tensor sign_of(const Tensor& t) {
  Tensor out = t;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out[i] = out[i] >= 0.0f ? 1.0f : -1.0f;
  }
  return out;
}

Tensor column_abs_mean(const Tensor& weight) {
  const std::size_t rows = weight.dim(0);
  const std::size_t cols = weight.dim(1);
  Tensor alpha({cols});
  for (std::size_t j = 0; j < cols; ++j) {
    float s = 0.0f;
    for (std::size_t i = 0; i < rows; ++i) {
      s += std::abs(weight.at(i, j));
    }
    alpha[j] = s / static_cast<float>(rows);
  }
  return alpha;
}

// ---------------------------------------------------------- BinaryDense ----

BinaryDense::BinaryDense(std::size_t in_features, std::size_t out_features,
                         std::mt19937_64& engine)
    : in_(in_features),
      out_(out_features),
      latent_weight_(Tensor::randn({in_features, out_features},
                                   std::sqrt(2.0f / static_cast<float>(in_features)),
                                   engine)),
      bias_({out_features}),
      weight_grad_({in_features, out_features}),
      bias_grad_({out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("BinaryDense: feature counts must be positive");
  }
}

const detail::PackedBinaryWeights& BinaryDense::packed() {
  const std::uint64_t fp = tensor_fingerprint(latent_weight_);
  if (!pack_.filled || pack_.fingerprint != fp) {
    pack_.fingerprint = fp;
    pack_.sign_float = sign_of(latent_weight_);
    pack_.alpha = column_abs_mean(latent_weight_);
    // One dense ±1 row per output column: transpose sign(W) so column j's
    // K sign bits are contiguous for the popcount kernel.
    Tensor cols({out_, in_});
    for (std::size_t i = 0; i < in_; ++i) {
      for (std::size_t j = 0; j < out_; ++j) {
        cols.at(j, i) = pack_.sign_float.at(i, j);
      }
    }
    pack_.bits = BitMatrix::pack_rows_sign(cols);
    pack_.filled = true;
  }
  return pack_;
}

Tensor BinaryDense::forward(const Tensor& input, bool training) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("BinaryDense: expected (batch x " + std::to_string(in_) +
                                "), got " + shape_to_string(input.shape()));
  }
  if (training) {
    // Training path: float STE forward, kept bit-for-bit as it always was
    // (the bit-packed kernels are inference-only).
    input_cache_ = input;
    binary_cache_ = sign_of(latent_weight_);
    alpha_cache_ = column_abs_mean(latent_weight_);
    Tensor out = matmul(input, binary_cache_);
    const std::size_t batch = out.dim(0);
    for (std::size_t i = 0; i < batch; ++i) {
      for (std::size_t j = 0; j < out_; ++j) {
        out.at(i, j) = out.at(i, j) * alpha_cache_[j] + bias_[j];
      }
    }
    return out;
  }
  // Inference: no backward state (mirror BinaryConv2d's contract), cached
  // sign-packed weights, bit-packed product when the activations pack
  // exactly. The float fallback uses the cached sign(W)/alpha — the values
  // the training path materializes per forward — and the identical
  // epilogue expression, so both paths are bitwise the training forward.
  input_cache_ = Tensor();
  binary_cache_ = Tensor();
  alpha_cache_ = Tensor();
  const detail::PackedBinaryWeights& pack = packed();
  if (in_ >= detail::kMinPackedK) {
    if (const std::optional<BitMatrix> packed_x = BitMatrix::try_pack_rows(input)) {
      return bgemm(*packed_x, pack.bits, &pack.alpha, &bias_);
    }
  }
  Tensor out = matmul(input, pack.sign_float);
  const std::size_t batch = out.dim(0);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      out.at(i, j) = out.at(i, j) * pack.alpha[j] + bias_[j];
    }
  }
  return out;
}

Tensor BinaryDense::backward(const Tensor& grad_output) {
  if (input_cache_.empty()) {
    throw std::logic_error("BinaryDense: backward before a training-mode forward");
  }
  const std::size_t batch = grad_output.dim(0);
  // Scale gradients back through alpha (treated as constant per step, the
  // standard XNOR-Net simplification), then apply the STE window.
  Tensor g_scaled = grad_output;
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      g_scaled.at(i, j) *= alpha_cache_[j];
      bias_grad_[j] += grad_output.at(i, j);
    }
  }
  Tensor wg = matmul_a_transposed(input_cache_, g_scaled);
  for (std::size_t i = 0; i < wg.numel(); ++i) {
    // STE: zero the gradient where the latent weight left the clip window.
    if (std::abs(latent_weight_[i]) > 1.0f) {
      wg[i] = 0.0f;
    }
  }
  weight_grad_ += wg;
  return matmul_transposed(g_scaled, binary_cache_);
}

std::vector<ParamRef> BinaryDense::parameters() {
  return {{&latent_weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

// --------------------------------------------------------- BinaryConv2d ----

BinaryConv2d::BinaryConv2d(std::size_t in_channels, std::size_t out_channels,
                           std::size_t kernel, std::size_t padding,
                           std::mt19937_64& engine)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      padding_(padding),
      latent_weight_(Tensor::randn(
          {out_channels, in_channels, kernel, kernel},
          std::sqrt(2.0f / static_cast<float>(in_channels * kernel * kernel)), engine)),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (kernel == 0 || in_channels == 0 || out_channels == 0) {
    throw std::invalid_argument("BinaryConv2d: channels and kernel must be positive");
  }
}

Tensor BinaryConv2d::channel_scales() const {
  const std::size_t per_channel = in_ch_ * kernel_ * kernel_;
  Tensor alpha({out_ch_});
  for (std::size_t oc = 0; oc < out_ch_; ++oc) {
    float s = 0.0f;
    for (std::size_t i = 0; i < per_channel; ++i) {
      s += std::abs(latent_weight_[oc * per_channel + i]);
    }
    alpha[oc] = s / static_cast<float>(per_channel);
  }
  return alpha;
}

const detail::PackedBinaryWeights& BinaryConv2d::packed() {
  const std::uint64_t fp = tensor_fingerprint(latent_weight_);
  if (!pack_.filled || pack_.fingerprint != fp) {
    const std::size_t taps = in_ch_ * kernel_ * kernel_;
    pack_.fingerprint = fp;
    pack_.sign_float = sign_of(latent_weight_);
    pack_.alpha = channel_scales();
    pack_.gemm_operand = detail::kernel_as_gemm_operand(pack_.sign_float);
    // Row oc = kernel oc flattened in (ic, ky, kx) order — the contiguous
    // latent layout, and exactly column oc of the lowered GEMM operand.
    pack_.bits =
        BitMatrix::pack_rows_sign(pack_.sign_float.reshaped({out_ch_, taps}));
    pack_.filled = true;
  }
  return pack_;
}

/// Inference forward on an NCHW batch, reading the cached packed weights.
Tensor BinaryConv2d::infer_images(const Tensor& x) {
  const std::size_t n = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const std::size_t oh = h + 2 * padding_ - kernel_ + 1;
  const std::size_t ow = w + 2 * padding_ - kernel_ + 1;

  if (algo_ == Conv2d::Algo::kIm2col) {
    Tensor cols = im2col(x, kernel_, padding_);
    const std::size_t taps = in_ch_ * kernel_ * kernel_;
    if (taps >= detail::kMinPackedK) {
      // Patches are sign-packed once per batch and reused across every
      // output channel; padding zeros land in the mask plane, so the
      // popcount dot is exact — see nn/bitpack.h.
      if (const std::optional<BitMatrix> packed_cols = BitMatrix::try_pack_rows(cols)) {
        const Tensor out_rows =
            bgemm(*packed_cols, pack_.bits, &pack_.alpha, &bias_);
        return detail::rows_to_nchw(out_rows, n, out_ch_, oh, ow);
      }
    }
    // Float fallback: the lowered path with cached sign(W)/alpha, epilogue
    // expression and order identical to the training forward's.
    Tensor out_rows = matmul(cols, pack_.gemm_operand);
    const std::size_t rows = out_rows.dim(0);
    const float* alpha = pack_.alpha.data().data();
    const float* bias = bias_.data().data();
    float* row = out_rows.data().data();
    for (std::size_t p = 0; p < rows; ++p, row += out_ch_) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        row[oc] = row[oc] * alpha[oc] + bias[oc];
      }
    }
    return detail::rows_to_nchw(out_rows, n, out_ch_, oh, ow);
  }

  // Direct loop (reference oracle), reading the cached sign(W)/alpha.
  Tensor out({n, out_ch_, oh, ow});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float alpha = pack_.alpha[oc];
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x_ = 0; x_ < ow; ++x_) {
          float acc = 0.0f;
          for (std::size_t ic = 0; ic < in_ch_; ++ic) {
            for (std::size_t ky = 0; ky < kernel_; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(y + ky) - static_cast<std::ptrdiff_t>(padding_);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
                continue;
              }
              for (std::size_t kx = 0; kx < kernel_; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(x_ + kx) - static_cast<std::ptrdiff_t>(padding_);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += x.at4(b, ic, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix)) *
                       pack_.sign_float.at4(oc, ic, ky, kx);
              }
            }
          }
          out.at4(b, oc, y, x_) = acc * alpha + bias_[oc];
        }
      }
    }
  }
  return out;
}

Tensor BinaryConv2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != in_ch_) {
    throw std::invalid_argument("BinaryConv2d: expected NCHW with C=" +
                                std::to_string(in_ch_) + ", got " +
                                shape_to_string(input.shape()));
  }
  if (!training) {
    // Inference: no backward state (see Conv2d::forward), cached
    // sign-packed weights, bit-packed GEMM when the im2col patches pack
    // exactly.
    input_shape_ = Shape{};
    input_cache_ = Tensor();
    cols_cache_ = Tensor();
    binary_cache_ = Tensor();
    alpha_cache_ = Tensor();
    (void)packed();
    return infer_images(input);
  }

  // Training path: float STE forward, kept bit-for-bit as it always was.
  input_shape_ = input.shape();
  input_cache_ = Tensor();
  cols_cache_ = Tensor();
  binary_cache_ = sign_of(latent_weight_);
  alpha_cache_ = channel_scales();

  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);

  if (algo_ == Conv2d::Algo::kIm2col) {
    // Lowered path (see Conv2d): im2col + blocked GEMM, then the XNOR-Net
    // epilogue out = acc * alpha + bias applied per output channel —
    // the direct loop's exact expression and term order.
    Tensor cols = im2col(input, kernel_, padding_);
    const std::size_t oh = h + 2 * padding_ - kernel_ + 1;
    const std::size_t ow = w + 2 * padding_ - kernel_ + 1;
    const Tensor wmat = detail::kernel_as_gemm_operand(binary_cache_);
    Tensor out_rows = matmul(cols, wmat);
    const std::size_t rows = out_rows.dim(0);
    const float* alpha = alpha_cache_.data().data();
    const float* bias = bias_.data().data();
    float* row = out_rows.data().data();
    for (std::size_t p = 0; p < rows; ++p, row += out_ch_) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        row[oc] = row[oc] * alpha[oc] + bias[oc];
      }
    }
    cols_cache_ = std::move(cols);
    return detail::rows_to_nchw(out_rows, n, out_ch_, oh, ow);
  }

  input_cache_ = input;
  const std::size_t oh = h + 2 * padding_ - kernel_ + 1;
  const std::size_t ow = w + 2 * padding_ - kernel_ + 1;
  Tensor out({n, out_ch_, oh, ow});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float alpha = alpha_cache_[oc];
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          float acc = 0.0f;
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
                       binary_cache_.at4(oc, ic, ky, kx);
              }
            }
          }
          out.at4(b, oc, y, x) = acc * alpha + bias_[oc];
        }
      }
    }
  }
  return out;
}

Tensor BinaryConv2d::backward(const Tensor& grad_output) {
  if (input_shape_.size() != 4) {
    throw std::logic_error(
        "BinaryConv2d: backward before a training-mode forward");
  }
  const std::size_t n = input_shape_[0];
  const std::size_t h = input_shape_[2];
  const std::size_t w = input_shape_[3];
  const std::size_t oh = grad_output.dim(2);
  const std::size_t ow = grad_output.dim(3);
  const std::size_t taps = in_ch_ * kernel_ * kernel_;

  if (algo_ == Conv2d::Algo::kIm2col) {
    // Alpha folds into the gradient rows once (the standard XNOR-Net
    // constant-alpha simplification); the rest is the Conv2d lowered
    // backward against the binarized kernels, with the STE window applied
    // when folding the weight gradient back into the latent layout.
    const Tensor g_rows = detail::nchw_to_rows(grad_output);
    const std::size_t rows = g_rows.dim(0);
    Tensor g_scaled = g_rows;
    for (std::size_t p = 0; p < rows; ++p) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        const float g = g_rows.at(p, oc);
        if (g != 0.0f) {  // mirror the direct loop's zero-gradient skip
          bias_grad_[oc] += g;
        }
        g_scaled.at(p, oc) = g * alpha_cache_[oc];
      }
    }
    const Tensor wg = matmul_a_transposed(cols_cache_, g_scaled);  // (taps x oc)
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      for (std::size_t r = 0; r < taps; ++r) {
        if (std::abs(latent_weight_[oc * taps + r]) <= 1.0f) {
          weight_grad_[oc * taps + r] += wg.at(r, oc);
        }
      }
    }
    const Tensor dcols = matmul(g_scaled, binary_cache_.reshaped({out_ch_, taps}));
    return col2im(dcols, input_shape_, kernel_, padding_);
  }

  const Tensor& input = input_cache_;
  Tensor grad_input(input_shape_);
  // Pass 1: bias and (STE-windowed) weight gradients; per (oc, tap) the
  // terms arrive in ascending (b, y, x) order, matching the lowered
  // matmul_a_transposed row order.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float alpha = alpha_cache_[oc];
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x) {
          const float g_raw = grad_output.at4(b, oc, y, x);
          if (g_raw == 0.0f) {
            continue;
          }
          bias_grad_[oc] += g_raw;
          const float g = g_raw * alpha;
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
                if (std::abs(latent_weight_.at4(oc, ic, ky, kx)) <= 1.0f) {
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
  }
  // Pass 2: input gradient gathered with output channels innermost —
  // term for term the lowered matmul(g*alpha, sign(W)) + col2im.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t ic = 0; ic < in_ch_; ++ic) {
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(y + ky) -
                                      static_cast<std::ptrdiff_t>(padding_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
              continue;
            }
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(x + kx) -
                                        static_cast<std::ptrdiff_t>(padding_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                continue;
              }
              float acc = 0.0f;
              for (std::size_t oc = 0; oc < out_ch_; ++oc) {
                const float g = grad_output.at4(b, oc, y, x) * alpha_cache_[oc];
                if (g == 0.0f) {
                  continue;
                }
                acc += g * binary_cache_.at4(oc, ic, ky, kx);
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

std::vector<ParamRef> BinaryConv2d::parameters() {
  return {{&latent_weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

}  // namespace neuspin::nn
