// Bit-packed operands and the XNOR/popcount GEMM of the binary layers.
//
// A BinaryDense/BinaryConv2d forward multiplies activations in
// {-1, 0, +1} (sign activations, SpinDrop zeros, im2col padding zeros)
// against sign(W) in {-1, +1}. BitMatrix packs such a matrix into two
// bit planes of 64 columns per u64 lane:
//
//   value bit = 1  <=>  element == +1
//   mask  bit = 1  <=>  element != 0
//
// so a signed dot product against a dense ±1 row collapses to
//
//   dot = nvalid - 2 * popcount((xv ^ wv) & xm)
//
// with nvalid = popcount(mask row): matching masked bits contribute +1,
// differing ones -1, masked-out positions exactly 0. Pad bits beyond
// `cols` are zero in BOTH planes, so ragged K can never leak into a
// popcount. The integer dot is exact; converting it to float and applying
// the XNOR-Net epilogue out = dot * alpha + bias rounds exactly once per
// step — the same expression, in the same order, as the float-materialized
// path, whose ascending-k ±1 accumulation also keeps every partial sum an
// exact small integer (requires K < 2^24; the paper's layers are ≤ 512).
// That is why bgemm is pinned BITWISE equal to the float oracle rather
// than merely close.
//
// bgemm executes through the runtime-dispatched kernel tier (nn/simd.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nn/tensor.h"

namespace neuspin::nn {

/// Two-plane bit-packed matrix: `rows` x `cols` values in {-1, 0, +1},
/// 64 columns per u64 lane, row-major lanes.
class BitMatrix {
 public:
  BitMatrix() = default;

  /// Pack sign bits of a rank-2 tensor row-wise: bit = (v >= 0), mask
  /// full — the paper's sign quantization (sign_of maps 0 to +1).
  [[nodiscard]] static BitMatrix pack_rows_sign(const Tensor& t);

  /// Pack a rank-2 tensor row-wise ONLY if every element is exactly
  /// -1.0f, 0.0f (either sign) or +1.0f; nullopt otherwise. This is the
  /// inference gate: real-valued activations fall back to the float path
  /// instead of being silently quantized.
  [[nodiscard]] static std::optional<BitMatrix> try_pack_rows(const Tensor& t);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// True when every element is ±1 (mask planes all-ones): the kernels
  /// then skip the mask AND entirely.
  [[nodiscard]] bool dense() const { return dense_; }

  [[nodiscard]] const std::uint64_t* value_bits() const { return bits_.data(); }
  [[nodiscard]] const std::uint64_t* mask_bits() const { return mask_.data(); }
  /// Per-row nonzero count (popcount of the row's mask plane).
  [[nodiscard]] const std::uint32_t* row_nvalid() const { return nvalid_.data(); }

  /// Unpack back to floats (+1 / -1 / 0) — test/debug helper.
  [[nodiscard]] Tensor unpack() const;

 private:
  BitMatrix(std::size_t rows, std::size_t cols);
  void finalize_row_counts();

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t lanes_ = 0;
  bool dense_ = false;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::uint32_t> nvalid_;
};

/// out(i, j) = sum_k x(i, k) * w_col_j(k), with the RHS supplied as one
/// packed DENSE ±1 row per output column (`w_cols.rows()` = output
/// columns, `w_cols.cols()` = K) — i.e. the packed transpose of the
/// (K x n) weight operand, or equivalently the packed rows of an (n x K)
/// one. When `alpha` is non-null the XNOR-Net epilogue
/// out = dot * alpha[j] + bias[j] folds in (alpha/bias length n).
/// Increments the obs counter `nn.bgemm.calls`.
[[nodiscard]] Tensor bgemm(const BitMatrix& x, const BitMatrix& w_cols,
                           const Tensor* alpha, const Tensor* bias);

/// 64-bit FNV-1a over a tensor's raw float bytes. Used to key packed
/// weight caches: repack-on-mutate without write hooks (latent_weight()
/// hands out a mutable reference, so mutations cannot be observed
/// directly). A collision would serve stale weights; at 2^-64 per
/// comparison that is far below any hardware-error rate this simulator
/// models.
[[nodiscard]] std::uint64_t tensor_fingerprint(const Tensor& t);

}  // namespace neuspin::nn
