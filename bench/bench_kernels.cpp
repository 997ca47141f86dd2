// Kernel-layer bench: blocked GEMM GFLOP/s vs. the seed's naive triple
// loop across the shapes the reproduction actually runs (single-request
// passes, fused T x B stacks, backward products), direct vs. im2col
// convolution on the small-CNN layer shapes, plus end-to-end fused vs.
// unfused Monte-Carlo throughput on the serving model.
//
// Plain main (like bench_table1): runnable without google-benchmark.
//
//   ./build/bench/bench_kernels [--smoke]
//
// --smoke runs one iteration per shape — a fast CI leg that catches
// kernel-path build/runtime regressions without timing anything useful.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "bench_util.h"
#include "core/bayesian.h"
#include "core/models.h"
#include "data/strokes.h"
#include "nn/binarize.h"
#include "nn/bitpack.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/simd.h"
#include "nn/tensor.h"

namespace {

using namespace neuspin;
using Clock = std::chrono::steady_clock;

/// --smoke: single iteration per shape, no repeat calibration.
bool g_smoke = false;

/// The seed repository's matmul: i-p-j triple loop through bounds-checked
/// at() accessors, no blocking. Kept verbatim as the bench baseline.
nn::Tensor seed_matmul(const nn::Tensor& a, const nn::Tensor& b) {
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  nn::Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a.at(i, p);
      if (av == 0.0f) {
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) {
        c.at(i, j) += av * b.at(p, j);
      }
    }
  }
  return c;
}

/// Seed matmul_transposed: strict dot products through at().
nn::Tensor seed_matmul_transposed(const nn::Tensor& a, const nn::Tensor& b) {
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  nn::Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += a.at(i, p) * b.at(j, p);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

/// Best-of-N wall time (seconds) of `fn`, with enough inner repeats that a
/// single timing spans at least ~2ms.
template <typename Fn>
double best_seconds(const Fn& fn, std::size_t repeats) {
  // Warm-up + calibration.
  const auto t0 = Clock::now();
  fn();
  const double once = std::chrono::duration<double>(Clock::now() - t0).count();
  if (g_smoke) {
    return once > 0.0 ? once : 1e-9;
  }
  const std::size_t inner =
      once > 0.0 ? static_cast<std::size_t>(2e-3 / once) + 1 : 1;
  double best = 1e100;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < inner; ++i) {
      fn();
    }
    const double s =
        std::chrono::duration<double>(Clock::now() - begin).count() /
        static_cast<double>(inner);
    best = std::min(best, s);
  }
  return best;
}

struct GemmShape {
  const char* label;
  std::size_t m, k, n;
};

void bench_gemm() {
  // Paper-relevant shapes: the serving MLP's hidden layers at request
  // granularity (m=1), dynamic batches (m=16), fused T x B stacks
  // (m=128), the CNN's folded dense layer, and the backward-sized
  // products of training.
  const std::vector<GemmShape> shapes = {
      {"request  1x256x128", 1, 256, 128},
      {"batch   16x256x128", 16, 256, 128},
      {"fused  128x256x128", 128, 256, 128},
      {"hidden 128x128x128", 128, 128, 128},
      {"logits 128x128x10", 128, 128, 10},
      {"cnn-fc 128x256x64", 128, 256, 64},
      {"train  256x512x256", 256, 512, 256},
  };
  std::printf("\nGEMM (matmul): blocked kernel vs. seed triple loop\n");
  std::printf("%-20s %12s %12s %9s\n", "shape", "seed GF/s", "blocked GF/s",
              "speedup");
  std::mt19937_64 engine(1);
  for (const GemmShape& s : shapes) {
    const nn::Tensor a = nn::Tensor::randn({s.m, s.k}, 1.0f, engine);
    const nn::Tensor b = nn::Tensor::randn({s.k, s.n}, 1.0f, engine);
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const double t_seed = best_seconds([&] { (void)seed_matmul(a, b); }, 5);
    const double t_new = best_seconds([&] { (void)nn::matmul(a, b); }, 5);
    std::printf("%-20s %12.2f %12.2f %8.2fx\n", s.label, flops / t_seed * 1e-9,
                flops / t_new * 1e-9, t_seed / t_new);
  }

  std::printf("\nGEMM (matmul_transposed): 8-lane dot kernel vs. seed loop\n");
  std::printf("%-20s %12s %12s %9s\n", "shape", "seed GF/s", "blocked GF/s",
              "speedup");
  for (const GemmShape& s : shapes) {
    const nn::Tensor a = nn::Tensor::randn({s.m, s.k}, 1.0f, engine);
    const nn::Tensor bt = nn::Tensor::randn({s.n, s.k}, 1.0f, engine);
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const double t_seed =
        best_seconds([&] { (void)seed_matmul_transposed(a, bt); }, 5);
    const double t_new = best_seconds([&] { (void)nn::matmul_transposed(a, bt); }, 5);
    std::printf("%-20s %12.2f %12.2f %8.2fx\n", s.label, flops / t_seed * 1e-9,
                flops / t_new * 1e-9, t_seed / t_new);
  }
}

struct ConvShape {
  const char* label;
  std::size_t batch, in_ch, out_ch, kernel, padding, h, w;
};

/// Direct per-element loop vs. im2col + blocked GEMM on the paper's
/// small-CNN layer geometries (core::make_binary_cnn), for both the
/// full-precision and the binary convolution. Outputs are bitwise
/// identical between the two algorithms (pinned by layers_test); only the
/// throughput differs.
void bench_conv() {
  const std::vector<ConvShape> shapes = {
      {"conv1  16x1x16x16->8", 16, 1, 8, 3, 1, 16, 16},
      {"conv2  16x8x8x8->16", 16, 8, 16, 3, 1, 8, 8},
      {"conv1 128x1x16x16->8", 128, 1, 8, 3, 1, 16, 16},
      {"conv2 128x8x8x8->16", 128, 8, 16, 3, 1, 8, 8},
  };
  std::mt19937_64 engine(2);

  std::printf("\nConv2d forward: direct loop vs. im2col + blocked GEMM\n");
  std::printf("%-22s %12s %12s %9s\n", "shape", "direct GF/s", "im2col GF/s",
              "speedup");
  for (const ConvShape& s : shapes) {
    nn::Conv2d direct(s.in_ch, s.out_ch, s.kernel, s.padding, engine);
    direct.set_algo(nn::Conv2d::Algo::kDirect);
    std::mt19937_64 engine2(7);
    nn::Conv2d lowered(s.in_ch, s.out_ch, s.kernel, s.padding, engine2);
    const nn::Tensor x =
        nn::Tensor::randn({s.batch, s.in_ch, s.h, s.w}, 1.0f, engine);
    const std::size_t oh = s.h + 2 * s.padding - s.kernel + 1;
    const std::size_t ow = s.w + 2 * s.padding - s.kernel + 1;
    const double flops = 2.0 * static_cast<double>(s.batch * s.out_ch * oh * ow *
                                                   s.in_ch * s.kernel * s.kernel);
    const double t_direct =
        best_seconds([&] { (void)direct.forward(x, false); }, 5);
    const double t_lowered =
        best_seconds([&] { (void)lowered.forward(x, false); }, 5);
    std::printf("%-22s %12.2f %12.2f %8.2fx\n", s.label, flops / t_direct * 1e-9,
                flops / t_lowered * 1e-9, t_direct / t_lowered);
  }

  std::printf("\nBinaryConv2d forward: direct loop vs. im2col + blocked GEMM\n");
  std::printf("%-22s %12s %12s %9s\n", "shape", "direct GF/s", "im2col GF/s",
              "speedup");
  for (const ConvShape& s : shapes) {
    nn::BinaryConv2d direct(s.in_ch, s.out_ch, s.kernel, s.padding, engine);
    direct.set_algo(nn::Conv2d::Algo::kDirect);
    std::mt19937_64 engine2(7);
    nn::BinaryConv2d lowered(s.in_ch, s.out_ch, s.kernel, s.padding, engine2);
    nn::Tensor x = nn::Tensor::randn({s.batch, s.in_ch, s.h, s.w}, 1.0f, engine);
    x = nn::sign_of(x);  // the binary layers see sign activations
    const std::size_t oh = s.h + 2 * s.padding - s.kernel + 1;
    const std::size_t ow = s.w + 2 * s.padding - s.kernel + 1;
    const double flops = 2.0 * static_cast<double>(s.batch * s.out_ch * oh * ow *
                                                   s.in_ch * s.kernel * s.kernel);
    const double t_direct =
        best_seconds([&] { (void)direct.forward(x, false); }, 5);
    const double t_lowered =
        best_seconds([&] { (void)lowered.forward(x, false); }, 5);
    std::printf("%-22s %12.2f %12.2f %8.2fx\n", s.label, flops / t_direct * 1e-9,
                flops / t_lowered * 1e-9, t_direct / t_lowered);
  }
}

/// Binary-layer inference: the bit-packed XNOR/popcount GEMM vs. the
/// float-materialized product, on Table-I dense shapes with sign (±1)
/// activations. Two columns:
///   remat  — sign(W)/alpha recomputed every forward, float GEMM (the
///            training-mode forward, the float reference);
///   bgemm  — the inference forward: packed weights + XNOR/popcount kernel.
/// Both produce bitwise identical outputs (pinned by bitpack_test);
/// GIOP/s counts 2*m*k*n signed ops.
void bench_binary_dense() {
  const std::vector<GemmShape> shapes = {
      {"request  1x256x128", 1, 256, 128},
      {"batch   16x256x128", 16, 256, 128},
      {"fused  128x256x128", 128, 256, 128},
      {"hidden 128x128x128", 128, 128, 128},
      {"logits 128x128x10", 128, 128, 10},
      {"cnn-fc 128x256x64", 128, 256, 64},
  };
  std::printf("\nBinaryDense inference (±1 activations): float-materialized vs\n"
              "bit-packed XNOR/popcount GEMM (outputs bitwise identical)\n");
  std::printf("%-20s %11s %11s %9s\n", "shape", "remat GI/s", "bgemm GI/s",
              "speedup");
  std::mt19937_64 engine(3);
  for (const GemmShape& s : shapes) {
    nn::BinaryDense layer(s.k, s.n, engine);
    nn::Tensor x = nn::sign_of(nn::Tensor::randn({s.m, s.k}, 1.0f, engine));
    const double iops = 2.0 * static_cast<double>(s.m * s.k * s.n);

    // Pre-packing path: rebuild sign(W) and alpha per call, float GEMM.
    const double t_remat = best_seconds(
        [&] {
          const nn::Tensor bw = layer.binary_weight();
          const nn::Tensor alpha = layer.scales();
          nn::Tensor out = nn::matmul(x, bw);
          for (std::size_t i = 0; i < s.m; ++i) {
            for (std::size_t j = 0; j < s.n; ++j) {
              out.at(i, j) = out.at(i, j) * alpha[j] + layer.bias()[j];
            }
          }
        },
        9);

    const double t_bgemm =
        best_seconds([&] { (void)layer.forward(x, false); }, 9);

    std::printf("%-20s %11.2f %11.2f %8.2fx\n", s.label, iops / t_remat * 1e-9,
                iops / t_bgemm * 1e-9, t_remat / t_bgemm);
  }
}

/// BinaryConv2d on the small-CNN geometries: the training-mode forward
/// (im2col + float GEMM, sign(W)/alpha rebuilt per call) vs. im2col + bgemm
/// (the patches sign-pack once per batch). conv1's K is only 9 taps (one
/// ragged lane) — below the inference packing floor precisely because it
/// measures slower packed, so the bgemm column calls nn::bgemm on the
/// packed patches directly to keep timing the packed kernel; conv2 runs at
/// K=72.
void bench_binary_conv() {
  const std::vector<ConvShape> shapes = {
      {"conv1  16x1x16x16->8", 16, 1, 8, 3, 1, 16, 16},
      {"conv2  16x8x8x8->16", 16, 8, 16, 3, 1, 8, 8},
      {"conv1 128x1x16x16->8", 128, 1, 8, 3, 1, 16, 16},
      {"conv2 128x8x8x8->16", 128, 8, 16, 3, 1, 8, 8},
  };
  std::printf("\nBinaryConv2d (±1 activations): training-mode im2col float GEMM\n"
              "vs. im2col bgemm (outputs bitwise identical)\n");
  std::printf("%-22s %11s %11s %9s\n", "shape", "remat GI/s", "bgemm GI/s",
              "speedup");
  std::mt19937_64 engine(4);
  for (const ConvShape& s : shapes) {
    nn::BinaryConv2d layer(s.in_ch, s.out_ch, s.kernel, s.padding, engine);
    nn::Tensor x = nn::sign_of(
        nn::Tensor::randn({s.batch, s.in_ch, s.h, s.w}, 1.0f, engine));
    const std::size_t oh = s.h + 2 * s.padding - s.kernel + 1;
    const std::size_t ow = s.w + 2 * s.padding - s.kernel + 1;
    const double iops = 2.0 * static_cast<double>(s.batch * s.out_ch * oh * ow *
                                                  s.in_ch * s.kernel * s.kernel);
    const double t_remat =
        best_seconds([&] { (void)layer.forward(x, true); }, 9);
    const std::size_t taps = s.in_ch * s.kernel * s.kernel;
    const nn::BitMatrix weights = nn::BitMatrix::pack_rows_sign(
        layer.binary_weight().reshaped({s.out_ch, taps}));
    const nn::Tensor alpha = layer.channel_scales();
    const double t_bgemm = best_seconds(
        [&] {
          const std::optional<nn::BitMatrix> cols =
              nn::BitMatrix::try_pack_rows(nn::im2col(x, s.kernel, s.padding));
          (void)nn::bgemm(cols.value(), weights, &alpha, &layer.bias());
        },
        9);
    std::printf("%-22s %11.2f %11.2f %8.2fx\n", s.label, iops / t_remat * 1e-9,
                iops / t_bgemm * 1e-9, t_remat / t_bgemm);
  }
}

/// Float GEMM through the dispatched tier vs. forced scalar — the runtime
/// dispatch win on this host (bitwise identical results; bitpack_test pins
/// it).
void bench_dispatch() {
  std::printf("\nFloat GEMM: scalar tier vs. dispatched tier (%s)\n",
              nn::simd::tier_name(nn::simd::active_tier()));
  std::printf("%-20s %12s %12s %9s\n", "shape", "scalar GF/s", "dispatch GF/s",
              "speedup");
  const std::vector<GemmShape> shapes = {
      {"fused  128x256x128", 128, 256, 128},
      {"train  256x512x256", 256, 512, 256},
  };
  std::mt19937_64 engine(5);
  for (const GemmShape& s : shapes) {
    const nn::Tensor a = nn::Tensor::randn({s.m, s.k}, 1.0f, engine);
    const nn::Tensor b = nn::Tensor::randn({s.k, s.n}, 1.0f, engine);
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    double t_scalar = 0.0;
    {
      nn::simd::ScopedTier tier(nn::simd::Tier::kScalar);
      t_scalar = best_seconds([&] { (void)nn::matmul(a, b); }, 5);
    }
    const double t_active = best_seconds([&] { (void)nn::matmul(a, b); }, 5);
    std::printf("%-20s %12.2f %12.2f %8.2fx\n", s.label,
                flops / t_scalar * 1e-9, flops / t_active * 1e-9,
                t_scalar / t_active);
  }
}

void bench_fused_mc() {
  data::StrokeConfig sc;
  sc.samples_per_class = 4;
  const nn::Dataset data =
      data::standardize_per_sample(data::make_stroke_digits_flat(sc, 3));

  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.seed = 7;
  mc.dropout_p = 0.15;
  const core::BuiltModel model = core::make_binary_mlp(mc, 256, {128, 128}, 10);

  std::printf("\nFused vs. unfused Monte-Carlo forward (T passes x B requests,\n"
              "predictions bitwise identical)\n");
  std::printf("%4s %4s %14s %14s %9s\n", "B", "T", "unfused req/s",
              "fused req/s", "speedup");
  for (const auto& [batch, samples] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 8}, {8, 8}, {16, 8}, {16, 20}, {32, 8}}) {
    const nn::Tensor inputs = data.batch(0, batch).first;
    std::vector<std::uint64_t> seeds(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      seeds[b] = nn::mix_seed(0xbe4c4, b);
    }

    core::BuiltModel unfused = model.clone();
    unfused.enable_mc(true);
    const core::McPredictor::SeededForward forward =
        [&unfused](const nn::Tensor& x, std::uint64_t pass_seed) {
          unfused.reseed_stochastic(pass_seed);
          return unfused.stochastic_logits(x);
        };
    const double t_unfused = best_seconds(
        [&] {
          for (std::size_t b = 0; b < batch; ++b) {
            nn::Tensor row({1, inputs.dim(1)});
            for (std::size_t f = 0; f < inputs.dim(1); ++f) {
              row.at(0, f) = inputs.at(b, f);
            }
            (void)core::McPredictor(samples, seeds[b]).predict(row, forward);
          }
        },
        3);

    core::BuiltModel fused = model.clone();
    fused.enable_mc(true);
    const double t_fused = best_seconds(
        [&] { (void)core::predict_fused_batch(fused, inputs, seeds, samples); }, 3);

    const double bd = static_cast<double>(batch);
    std::printf("%4zu %4zu %14.0f %14.0f %8.2fx\n", batch, samples,
                bd / t_unfused, bd / t_fused, t_unfused / t_fused);
  }

  // Pool-partitioned fused stacks: team of N clones splitting one large
  // (B*T x F) stacked forward over the shared pool. On a single-core host
  // this measures the partition overhead (results stay bitwise equal); on
  // multi-core hosts throughput scales with the team.
  std::printf("\nPool-partitioned fused forward (B=32, T=20, team splits the\n"
              "640-row stack; bitwise identical for any team size)\n");
  std::printf("%6s %14s\n", "team", "req/s");
  const std::size_t batch = 32;
  const std::size_t samples = 20;
  const nn::Tensor inputs = data.batch(0, batch).first;
  std::vector<std::uint64_t> seeds(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    seeds[b] = nn::mix_seed(0xbe4c5, b);
  }
  for (const std::size_t team_size : {1, 2, 4}) {
    std::vector<core::BuiltModel> team;
    for (std::size_t w = 0; w < team_size; ++w) {
      team.push_back(model.clone());
      team.back().enable_mc(true);
    }
    const double t = best_seconds(
        [&] {
          (void)core::predict_fused_batch(std::span<core::BuiltModel>(team),
                                          inputs, seeds, samples);
        },
        3);
    std::printf("%6zu %14.0f\n", team_size, static_cast<double>(batch) / t);
  }
}

/// --digest: print FNV fingerprints of fixed-seed evaluations and exit.
/// CI runs this twice — once dispatched, once under NEUSPIN_SIMD=scalar —
/// and diffs the output, proving the tiers bitwise identical end to end.
/// The output deliberately omits the tier name.
int run_digest() {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.seed = 2024;
  core::BuiltModel mlp = core::make_binary_mlp(mc, 16, {32, 16}, 4);
  mlp.enable_mc(true);
  std::mt19937_64 engine(97);
  const nn::Tensor inputs = nn::Tensor::randn({3, 16}, 1.0f, engine);
  const std::vector<std::uint64_t> seeds = {101, 202, 303};
  const auto preds = core::predict_fused_batch(mlp, inputs, seeds, 7);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    std::printf("mlp[%zu] %016llx\n", i,
                static_cast<unsigned long long>(
                    nn::tensor_fingerprint(preds[i].mean_probs)));
  }

  core::ModelConfig cc;
  cc.method = core::Method::kSpinDrop;
  cc.seed = 7;
  core::BuiltModel cnn = core::make_binary_cnn(cc);
  cnn.enable_mc(true);
  const nn::Tensor images = nn::Tensor::randn({4, 1, 16, 16}, 1.0f, engine);
  cnn.reseed_stochastic(42);
  std::printf("cnn %016llx\n", static_cast<unsigned long long>(
                                   nn::tensor_fingerprint(
                                       cnn.stochastic_logits(images))));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else if (std::strcmp(argv[i], "--digest") == 0) {
      digest = true;
    }
  }
  if (digest) {
    return run_digest();
  }
  bench::banner("bench_kernels",
                g_smoke ? "smoke mode: one iteration per shape"
                        : "blocked GEMM GFLOP/s, binary XNOR/popcount kernels, "
                          "conv direct-vs-im2col and fused MC throughput");
  std::printf("\nSIMD dispatch tier: %s\n",
              nn::simd::tier_name(nn::simd::active_tier()));
  bench_gemm();
  bench_dispatch();
  bench_binary_dense();
  bench_conv();
  bench_binary_conv();
  bench_fused_mc();
  return 0;
}
