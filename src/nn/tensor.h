// Minimal dense tensor used by the from-scratch NN framework.
//
// Row-major, float storage, shapes up to rank 4 (N, C, H, W). The class is
// intentionally small: NeuSpin's models are edge-scale (the paper targets
// IoT/wearable inference), so clarity and determinism beat BLAS-grade
// performance. All randomness is injected through seeded engines.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace neuspin::nn {

/// Shape of a tensor; element order is row-major with the last axis fastest.
using Shape = std::vector<std::size_t>;

/// Render a shape as "[2, 3, 4]" for error messages.
[[nodiscard]] std::string shape_to_string(const Shape& shape);

/// Dense row-major float tensor.
class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> data);

  /// Factory helpers -------------------------------------------------------
  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
  }
  /// Gaussian init, N(0, stddev^2).
  [[nodiscard]] static Tensor randn(Shape shape, float stddev, std::mt19937_64& engine);
  /// Uniform init over [lo, hi).
  [[nodiscard]] static Tensor uniform(Shape shape, float lo, float hi,
                                      std::mt19937_64& engine);

  /// Structure --------------------------------------------------------------
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t axis) const;
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Reshape to a compatible shape (same numel). Returns a copy sharing no
  /// storage; tensors are value types here.
  [[nodiscard]] Tensor reshaped(Shape shape) const;

  /// Element access ---------------------------------------------------------
  [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] float& at(std::size_t i, std::size_t j);
  [[nodiscard]] float at(std::size_t i, std::size_t j) const;
  [[nodiscard]] float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  [[nodiscard]] float at4(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) const;

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  /// In-place arithmetic ----------------------------------------------------
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);
  void fill(float value);

  /// Reductions -------------------------------------------------------------
  [[nodiscard]] float sum() const;
  [[nodiscard]] float mean() const;
  [[nodiscard]] float abs_mean() const;
  [[nodiscard]] float max() const;
  [[nodiscard]] std::size_t argmax() const;

 private:
  void check_same_shape(const Tensor& other, const char* op) const;

  Shape shape_;
  std::vector<float> data_;
};

/// C = A(mxk) * B(kxn). Cache-blocked row-major kernel: k is strip-mined so
/// the active rows of B stay L1-resident, the inner j-loop is contiguous
/// over one row of B and one row of C (vectorizable, no index arithmetic),
/// and every C element accumulates its k-terms in ascending-k order — so
/// row i of the result depends only on row i of A and on B, never on the
/// batch size. That row independence is what lets the fused Monte-Carlo
/// path stack T passes x B requests into one call and still reproduce the
/// batch-of-one results bit for bit.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(mxk) * B^T where B is (n x k). Used by dense backward passes.
/// Dot-product kernel over contiguous rows with a fixed 8-lane partial-sum
/// split (combined pairwise in a fixed order): vectorizable and
/// deterministic for a given k, independent of m and n.
[[nodiscard]] Tensor matmul_transposed(const Tensor& a, const Tensor& b);

/// C = A^T(kxm) * B(kxn). Used for weight gradients. Same blocked
/// ascending-k accumulation contract as matmul.
[[nodiscard]] Tensor matmul_a_transposed(const Tensor& a, const Tensor& b);

/// C += A(mxk) * B(kxn): the blocked matmul kernel accumulating into an
/// existing C instead of a fresh zero tensor. Every C element still
/// receives its k-terms in ascending-k order on top of whatever C held, so
/// a caller that pre-fills C with a bias gets bias-first accumulation —
/// exactly the term order of a scalar loop that starts from the bias. The
/// im2col convolution path seeds C with the per-channel bias this way.
void matmul_accumulate(const Tensor& a, const Tensor& b, Tensor& c);

/// Lower an NCHW tensor into its im2col patch matrix for a square
/// stride-1 convolution with symmetric zero padding: output row
/// p = (n * OH + oy) * OW + ox holds the receptive field of output pixel
/// (oy, ox) of sample n, flattened in (c, ky, kx) order — the same
/// ascending order the direct convolution loop accumulates in, which is
/// what keeps the lowered GEMM bitwise equal to the per-element loop.
/// Out-of-bounds (padding) taps are exact zeros; the blocked kernels skip
/// them, mirroring the direct loop's bounds checks. OH = H + 2*padding -
/// kernel + 1 (and likewise OW) must be positive.
[[nodiscard]] Tensor im2col(const Tensor& input, std::size_t kernel,
                            std::size_t padding);

/// Adjoint of im2col: scatter-add a patch-matrix gradient (shaped like the
/// im2col output for `input_shape`) back onto the NCHW input gradient.
/// Rows are consumed in ascending order and each row's taps in ascending
/// (c, ky, kx) order — the fixed accumulation order that makes the im2col
/// backward pass bitwise reproducible. Padding taps are discarded.
[[nodiscard]] Tensor col2im(const Tensor& cols, const Shape& input_shape,
                            std::size_t kernel, std::size_t padding);

/// Row-wise softmax of a (batch x classes) tensor.
[[nodiscard]] Tensor softmax_rows(const Tensor& logits);

/// Column index of the largest entry in row `row` of a rank-2 tensor; ties
/// break toward the lower index (strict `>` scan). The one argmax every
/// classification accuracy loop in the repo shares.
[[nodiscard]] std::size_t argmax_row(const Tensor& t, std::size_t row);

}  // namespace neuspin::nn
