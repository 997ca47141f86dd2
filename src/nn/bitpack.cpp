#include "nn/bitpack.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "nn/simd.h"
#include "obs/metrics.h"

namespace neuspin::nn {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      lanes_((cols + 63) / 64),
      bits_(rows * lanes_, 0),
      mask_(rows * lanes_, 0),
      nvalid_(rows, 0) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("BitMatrix: rows and cols must be positive");
  }
}

void BitMatrix::finalize_row_counts() {
  dense_ = true;
  for (std::size_t i = 0; i < rows_; ++i) {
    std::uint32_t n = 0;
    for (std::size_t l = 0; l < lanes_; ++l) {
      n += static_cast<std::uint32_t>(std::popcount(mask_[i * lanes_ + l]));
    }
    nvalid_[i] = n;
    dense_ = dense_ && n == cols_;
  }
}

BitMatrix BitMatrix::pack_rows_sign(const Tensor& t) {
  if (t.rank() != 2) {
    throw std::invalid_argument("BitMatrix::pack_rows_sign: expected rank-2, got " +
                                shape_to_string(t.shape()));
  }
  BitMatrix out(t.dim(0), t.dim(1));
  // Packing runs on every inference forward, so it goes through the
  // dispatched (branchless, vectorizable) kernels like the GEMMs do.
  simd::kernels().pack_sign(t.data().data(), out.rows_, out.cols_, out.lanes_,
                            out.bits_.data(), out.mask_.data());
  out.finalize_row_counts();
  return out;
}

std::optional<BitMatrix> BitMatrix::try_pack_rows(const Tensor& t) {
  if (t.rank() != 2) {
    throw std::invalid_argument("BitMatrix::try_pack_rows: expected rank-2, got " +
                                shape_to_string(t.shape()));
  }
  BitMatrix out(t.dim(0), t.dim(1));
  if (simd::kernels().pack_ternary(t.data().data(), out.rows_, out.cols_,
                                   out.lanes_, out.bits_.data(),
                                   out.mask_.data()) != 0) {
    return std::nullopt;  // a non-ternary element: inference falls back to float
  }
  out.finalize_row_counts();
  return out;
}

Tensor BitMatrix::unpack() const {
  Tensor out({rows_, cols_});
  float* dst = out.data().data();
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::uint64_t* vrow = bits_.data() + i * lanes_;
    const std::uint64_t* mrow = mask_.data() + i * lanes_;
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::uint64_t bit = std::uint64_t{1} << (j % 64);
      if ((mrow[j / 64] & bit) == 0) {
        dst[i * cols_ + j] = 0.0f;
      } else {
        dst[i * cols_ + j] = (vrow[j / 64] & bit) != 0 ? 1.0f : -1.0f;
      }
    }
  }
  return out;
}

Tensor bgemm(const BitMatrix& x, const BitMatrix& w_cols, const Tensor* alpha,
             const Tensor* bias) {
  if (x.cols() != w_cols.cols()) {
    throw std::invalid_argument("bgemm: K mismatch, x has " +
                                std::to_string(x.cols()) + " cols, w has " +
                                std::to_string(w_cols.cols()));
  }
  if (!w_cols.dense()) {
    throw std::invalid_argument(
        "bgemm: the weight operand must be dense ±1 (sign-packed)");
  }
  const std::size_t m = x.rows();
  const std::size_t n = w_cols.rows();
  if ((alpha == nullptr) != (bias == nullptr)) {
    throw std::invalid_argument("bgemm: alpha and bias must be given together");
  }
  if (alpha != nullptr && (alpha->numel() != n || bias->numel() != n)) {
    throw std::invalid_argument("bgemm: alpha/bias must have one entry per "
                                "output column");
  }
  static obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  calls.inc();
  Tensor out({m, n});
  simd::kernels().bgemm(x.value_bits(), x.dense() ? nullptr : x.mask_bits(),
                        x.row_nvalid(), w_cols.value_bits(), out.data().data(),
                        m, n, x.lanes(),
                        alpha != nullptr ? alpha->data().data() : nullptr,
                        bias != nullptr ? bias->data().data() : nullptr);
  return out;
}

std::uint64_t tensor_fingerprint(const Tensor& t) {
  // Eight interleaved FNV-1a 64 streams over 8-byte words (memcpy keeps
  // the loads alias-safe), folded together with one more FNV pass at the
  // end. A single stream's multiply chain is latency-bound at ~5 cycles
  // per word — too slow for a check that runs on every inference forward;
  // eight independent chains keep the multiplier port saturated instead.
  // Shape participates so a reshape with identical bytes still repacks.
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= kPrime;
  };
  for (std::size_t d : t.shape()) {
    mix(static_cast<std::uint64_t>(d));
  }
  const float* data = t.data().data();
  const std::size_t n = t.numel();
  std::uint64_t s[8] = {kOffset ^ 1, kOffset ^ 2, kOffset ^ 3, kOffset ^ 4,
                        kOffset ^ 5, kOffset ^ 6, kOffset ^ 7, kOffset ^ 8};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (std::size_t k = 0; k < 8; ++k) {
      std::uint64_t word;
      std::memcpy(&word, data + i + 2 * k, sizeof(word));
      s[k] = (s[k] ^ word) * kPrime;
    }
  }
  for (; i + 2 <= n; i += 2) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    s[0] = (s[0] ^ word) * kPrime;
  }
  if (i < n) {
    std::uint32_t word;
    std::memcpy(&word, data + i, sizeof(word));
    s[1] = (s[1] ^ word) * kPrime;
  }
  for (std::uint64_t stream : s) {
    mix(stream);
  }
  return h;
}

}  // namespace neuspin::nn
