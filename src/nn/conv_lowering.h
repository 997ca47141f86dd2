// Layout shuffles shared by the im2col (lowered) convolution paths of
// Conv2d and BinaryConv2d.
//
// The lowered convolution runs on (rows x channels) matrices whose row
// index flattens (sample, y, x); these helpers move kernels and NCHW
// activations into and out of that layout. They are pure permutations —
// every float is copied, never combined — so they cannot perturb the
// bitwise equivalence between the lowered GEMMs and the direct loops.
#pragma once

#include "nn/tensor.h"

namespace neuspin::nn::detail {

/// Repack an (out_ch, in_ch, k, k) kernel tensor into the (taps x out_ch)
/// right-hand GEMM operand of the lowered forward: wmat[r][oc] =
/// weight[oc][r], with r flattening (in_ch, ky, kx) — the column order
/// im2col emits and the direct loop accumulates in.
[[nodiscard]] inline Tensor kernel_as_gemm_operand(const Tensor& weight) {
  const std::size_t out_ch = weight.dim(0);
  const std::size_t taps = weight.numel() / out_ch;
  Tensor wmat({taps, out_ch});
  for (std::size_t oc = 0; oc < out_ch; ++oc) {
    const auto src = weight.data().subspan(oc * taps, taps);
    for (std::size_t r = 0; r < taps; ++r) {
      wmat.at(r, oc) = src[r];
    }
  }
  return wmat;
}

/// Permute an NCHW tensor into the (N*H*W x C) row layout of the lowered
/// GEMMs: row p = (n * H + y) * W + x, column = channel.
[[nodiscard]] inline Tensor nchw_to_rows(const Tensor& t) {
  const std::size_t n = t.dim(0);
  const std::size_t c = t.dim(1);
  const std::size_t h = t.dim(2);
  const std::size_t w = t.dim(3);
  Tensor rows({n * h * w, c});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = t.data().data() + ((b * c) + ch) * h * w;
      float* out = rows.data().data() + b * h * w * c + ch;
      for (std::size_t i = 0; i < h * w; ++i) {
        out[i * c] = plane[i];
      }
    }
  }
  return rows;
}

/// Inverse of nchw_to_rows: scatter (N*H*W x C) rows back into NCHW.
[[nodiscard]] inline Tensor rows_to_nchw(const Tensor& rows, std::size_t n,
                                         std::size_t c, std::size_t h,
                                         std::size_t w) {
  Tensor t({n, c, h, w});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* in = rows.data().data() + b * h * w * c + ch;
      float* plane = t.data().data() + ((b * c) + ch) * h * w;
      for (std::size_t i = 0; i < h * w; ++i) {
        plane[i] = in[i * c];
      }
    }
  }
  return t;
}

}  // namespace neuspin::nn::detail
