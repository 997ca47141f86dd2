#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "nn/simd.h"

namespace neuspin::nn {

namespace {

std::size_t shape_numel(const Shape& shape) {
  if (shape.empty()) {
    return 0;
  }
  std::size_t n = 1;
  for (std::size_t d : shape) {
    n *= d;
  }
  return n;
}

}  // namespace

std::string shape_to_string(const Shape& shape) {
  std::string out = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += std::to_string(shape[i]);
  }
  return out + "]";
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
}

Tensor Tensor::randn(Shape shape, float stddev, std::mt19937_64& engine) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> dist(0.0f, stddev);
  for (auto& v : t.data_) {
    v = dist(engine);
  }
  return t;
}

Tensor Tensor::uniform(Shape shape, float lo, float hi, std::mt19937_64& engine) {
  Tensor t(std::move(shape));
  std::uniform_real_distribution<float> dist(lo, hi);
  for (auto& v : t.data_) {
    v = dist(engine);
  }
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) {
    throw std::out_of_range("Tensor: axis " + std::to_string(axis) +
                            " out of range for shape " + shape_to_string(shape_));
  }
  return shape_[axis];
}

Tensor Tensor::reshaped(Shape shape) const {
  if (shape_numel(shape) != data_.size()) {
    throw std::invalid_argument("Tensor: cannot reshape " + shape_to_string(shape_) +
                                " to " + shape_to_string(shape));
  }
  Tensor out;
  out.shape_ = std::move(shape);
  out.data_ = data_;
  return out;
}

float& Tensor::at(std::size_t i, std::size_t j) {
  return data_[i * shape_[1] + j];
}

float Tensor::at(std::size_t i, std::size_t j) const {
  return data_[i * shape_[1] + j];
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

void Tensor::check_same_shape(const Tensor& other, const char* op) const {
  if (shape_ != other.shape_) {
    throw std::invalid_argument(std::string("Tensor: shape mismatch in ") + op + ": " +
                                shape_to_string(shape_) + " vs " +
                                shape_to_string(other.shape_));
  }
}

Tensor& Tensor::operator+=(const Tensor& other) {
  check_same_shape(other, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  check_same_shape(other, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] -= other.data_[i];
  }
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (auto& v : data_) {
    v *= scalar;
  }
  return *this;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

float Tensor::sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0f); }

float Tensor::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::abs_mean() const {
  if (data_.empty()) {
    return 0.0f;
  }
  float s = 0.0f;
  for (float v : data_) {
    s += std::abs(v);
  }
  return s / static_cast<float>(data_.size());
}

float Tensor::max() const {
  if (data_.empty()) {
    throw std::logic_error("Tensor: max() of empty tensor");
  }
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const {
  if (data_.empty()) {
    throw std::logic_error("Tensor: argmax() of empty tensor");
  }
  return static_cast<std::size_t>(
      std::distance(data_.begin(), std::max_element(data_.begin(), data_.end())));
}

// The blocked GEMM / dot kernels behind matmul and friends moved to
// nn/simd_kernels.inc: one kernel source compiled per ISA tier and picked
// at runtime (nn/simd.h). Every tier preserves the ascending-k
// accumulation and fixed pairwise-combine contracts documented in the
// header, and the tiers are bitwise identical to each other — dispatch
// changes throughput, never results.

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  simd::kernels().gemm(a.data().data(), b.data().data(), c.data().data(), m, k, n);
  return c;
}

Tensor matmul_transposed(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw std::invalid_argument("matmul_transposed: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()) + "^T");
  }
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  Tensor c({m, n});
  simd::kernels().gemm_nt(a.data().data(), b.data().data(), c.data().data(), m, k, n);
  return c;
}

void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul_accumulate: incompatible shapes " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  if (c.rank() != 2 || c.dim(0) != a.dim(0) || c.dim(1) != b.dim(1)) {
    throw std::invalid_argument("matmul_accumulate: accumulator shape " +
                                shape_to_string(c.shape()) + " does not match " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  simd::kernels().gemm(a.data().data(), b.data().data(), c.data().data(), a.dim(0),
                       a.dim(1), b.dim(1));
}

namespace {

/// Shared geometry of the im2col pair: output spatial extent of a square
/// stride-1 kernel with symmetric zero padding.
std::size_t conv_output_extent(std::size_t in, std::size_t kernel,
                               std::size_t padding, const char* who) {
  if (in + 2 * padding < kernel) {
    throw std::invalid_argument(std::string(who) + ": kernel " +
                                std::to_string(kernel) + " exceeds padded extent " +
                                std::to_string(in + 2 * padding));
  }
  return in + 2 * padding - kernel + 1;
}

}  // namespace

Tensor im2col(const Tensor& input, std::size_t kernel, std::size_t padding) {
  if (input.rank() != 4 || kernel == 0) {
    throw std::invalid_argument("im2col: expected NCHW input and kernel >= 1, got " +
                                shape_to_string(input.shape()) + " kernel " +
                                std::to_string(kernel));
  }
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = conv_output_extent(h, kernel, padding, "im2col");
  const std::size_t ow = conv_output_extent(w, kernel, padding, "im2col");
  const std::size_t taps = c * kernel * kernel;
  Tensor cols({n * oh * ow, taps});
  const float* src = input.data().data();
  float* dst = cols.data().data();
  // Per (channel, ky, kx) tap: the output columns whose input pixel is in
  // bounds form one contiguous ox range reading one contiguous source
  // line, so the hot loop is branch-free — a contiguous read scattered at
  // stride `taps`. Padding taps are never written (cols zero-initializes),
  // which is the packing cost that makes the lowered GEMM pay off even on
  // the CNN's tiny 9-tap first layer.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ic = 0; ic < c; ++ic) {
      const float* plane = src + (b * c + ic) * h * w;
      for (std::size_t ky = 0; ky < kernel; ++ky) {
        for (std::size_t kx = 0; kx < kernel; ++kx) {
          const std::size_t tap = (ic * kernel + ky) * kernel + kx;
          // Valid ox: 0 <= ox + kx - padding < w.
          const std::size_t ox_lo = padding > kx ? padding - kx : 0;
          const std::size_t ox_hi =
              std::min(ow, w + padding > kx ? w + padding - kx : 0);
          if (ox_lo >= ox_hi) {
            continue;
          }
          for (std::size_t oy = 0; oy < oh; ++oy) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                      static_cast<std::ptrdiff_t>(padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
              continue;
            }
            const float* line = plane + static_cast<std::size_t>(iy) * w +
                                (ox_lo + kx - padding);
            float* out = dst + ((b * oh + oy) * ow + ox_lo) * taps + tap;
            for (std::size_t i = 0; i < ox_hi - ox_lo; ++i) {
              out[i * taps] = line[i];
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& input_shape, std::size_t kernel,
              std::size_t padding) {
  if (input_shape.size() != 4 || kernel == 0) {
    throw std::invalid_argument("col2im: expected an NCHW target shape, got " +
                                shape_to_string(input_shape));
  }
  const std::size_t n = input_shape[0];
  const std::size_t c = input_shape[1];
  const std::size_t h = input_shape[2];
  const std::size_t w = input_shape[3];
  const std::size_t oh = conv_output_extent(h, kernel, padding, "col2im");
  const std::size_t ow = conv_output_extent(w, kernel, padding, "col2im");
  const std::size_t taps = c * kernel * kernel;
  if (cols.rank() != 2 || cols.dim(0) != n * oh * ow || cols.dim(1) != taps) {
    throw std::invalid_argument("col2im: patch matrix " +
                                shape_to_string(cols.shape()) +
                                " does not match target " +
                                shape_to_string(input_shape));
  }
  Tensor grad(input_shape);
  const float* src = cols.data().data();
  float* dst = grad.data().data();
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* row = src + ((b * oh + oy) * ow + ox) * taps;
        for (std::size_t ic = 0; ic < c; ++ic) {
          float* plane = dst + (b * c + ic) * h * w;
          for (std::size_t ky = 0; ky < kernel; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                      static_cast<std::ptrdiff_t>(padding);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
              continue;
            }
            const float* tap = row + (ic * kernel + ky) * kernel;
            float* line = plane + static_cast<std::size_t>(iy) * w;
            for (std::size_t kx = 0; kx < kernel; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                        static_cast<std::ptrdiff_t>(padding);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                continue;
              }
              line[static_cast<std::size_t>(ix)] += tap[kx];
            }
          }
        }
      }
    }
  }
  return grad;
}

Tensor matmul_a_transposed(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw std::invalid_argument("matmul_a_transposed: incompatible shapes " +
                                shape_to_string(a.shape()) + "^T x " +
                                shape_to_string(b.shape()));
  }
  const std::size_t k = a.dim(0);
  const std::size_t m = a.dim(1);
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  simd::kernels().gemm_at(a.data().data(), b.data().data(), c.data().data(), m, k, n);
  return c;
}

Tensor softmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax_rows: expected rank-2 tensor, got " +
                                shape_to_string(logits.shape()));
  }
  const std::size_t rows = logits.dim(0);
  const std::size_t cols = logits.dim(1);
  Tensor out(logits.shape());
  for (std::size_t i = 0; i < rows; ++i) {
    float row_max = logits.at(i, 0);
    for (std::size_t j = 1; j < cols; ++j) {
      row_max = std::max(row_max, logits.at(i, j));
    }
    float denom = 0.0f;
    for (std::size_t j = 0; j < cols; ++j) {
      const float e = std::exp(logits.at(i, j) - row_max);
      out.at(i, j) = e;
      denom += e;
    }
    for (std::size_t j = 0; j < cols; ++j) {
      out.at(i, j) /= denom;
    }
  }
  return out;
}

std::size_t argmax_row(const Tensor& t, std::size_t row) {
  if (t.rank() != 2 || row >= t.dim(0)) {
    throw std::invalid_argument("argmax_row: need a rank-2 tensor and a valid row");
  }
  std::size_t best = 0;
  for (std::size_t j = 1; j < t.dim(1); ++j) {
    if (t.at(row, j) > t.at(row, best)) {
      best = j;
    }
  }
  return best;
}

}  // namespace neuspin::nn
