// Bit-packed XNOR/popcount kernels, SIMD dispatch and the binary-layer
// inference path: bitwise-equivalence pins against the float oracle (the
// training-mode forward), the ragged-K pad-lane grid, tier equivalence,
// and the training-untouched / repack-on-mutate contracts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "core/bayesian.h"
#include "core/models.h"
#include "nn/binarize.h"
#include "nn/bitpack.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace neuspin::nn {
namespace {

// The ragged-K grid of the pad-lane masking pin: below / at / above one
// lane, just below two lanes, and a many-lane size with a 40-bit remainder.
const std::size_t kRaggedK[] = {1, 63, 64, 65, 127, 1000};

Tensor random_pm1(Shape shape, std::mt19937_64& engine) {
  Tensor t(std::move(shape));
  std::bernoulli_distribution coin(0.5);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = coin(engine) ? 1.0f : -1.0f;
  }
  return t;
}

Tensor random_ternary(Shape shape, std::mt19937_64& engine, double zero_p) {
  Tensor t(std::move(shape));
  std::bernoulli_distribution zero(zero_p);
  std::bernoulli_distribution coin(0.5);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = zero(engine) ? 0.0f : (coin(engine) ? 1.0f : -1.0f);
  }
  return t;
}

void expect_bitwise_eq(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << "element " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// The float-materialized reference: matmul against the unpacked ±1/0
/// operand, then the XNOR-Net epilogue — the exact expressions of the
/// pre-packing forward path.
Tensor float_oracle(const Tensor& x, const BitMatrix& w_cols, const Tensor* alpha,
                    const Tensor* bias) {
  const Tensor w_rows = w_cols.unpack();  // (n x K)
  Tensor wt({w_cols.cols(), w_cols.rows()});
  for (std::size_t j = 0; j < w_cols.rows(); ++j) {
    for (std::size_t k = 0; k < w_cols.cols(); ++k) {
      wt.at(k, j) = w_rows.at(j, k);
    }
  }
  Tensor out = matmul(x, wt);
  if (alpha != nullptr) {
    for (std::size_t i = 0; i < out.dim(0); ++i) {
      for (std::size_t j = 0; j < out.dim(1); ++j) {
        out.at(i, j) = out.at(i, j) * (*alpha)[j] + (*bias)[j];
      }
    }
  }
  return out;
}

/// The binary layers' float reference: the training-mode forward (sign(W)
/// and alpha materialized per call, float GEMM, the same epilogue) of a
/// clone, so the layer under test keeps no training state.
Tensor training_forward(const Layer& layer, const Tensor& x) {
  return layer.clone()->forward(x, /*training=*/true);
}

// ------------------------------------------------------------ BitMatrix ----

TEST(BitMatrix, SignPackRoundTripRaggedK) {
  std::mt19937_64 engine(7);
  for (std::size_t k : kRaggedK) {
    const Tensor t = random_pm1({3, k}, engine);
    const BitMatrix packed = BitMatrix::pack_rows_sign(t);
    EXPECT_EQ(packed.rows(), 3u);
    EXPECT_EQ(packed.cols(), k);
    EXPECT_EQ(packed.lanes(), (k + 63) / 64);
    EXPECT_TRUE(packed.dense());
    expect_bitwise_eq(packed.unpack(), t);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(packed.row_nvalid()[i], k);
    }
  }
}

TEST(BitMatrix, PadLaneBitsStayZero) {
  // All-ones 65-wide rows: lane 1 uses a single column, so 63 pad bits of
  // both planes must be zero or popcounts would leak into the dot.
  const Tensor t({2, 65}, 1.0f);
  const BitMatrix packed = BitMatrix::pack_rows_sign(t);
  ASSERT_EQ(packed.lanes(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(packed.value_bits()[i * 2 + 1], 1ull);
    EXPECT_EQ(packed.mask_bits()[i * 2 + 1], 1ull);
    EXPECT_EQ(packed.row_nvalid()[i], 65u);
  }
}

TEST(BitMatrix, TryPackRoundTripsTernary) {
  std::mt19937_64 engine(11);
  for (std::size_t k : kRaggedK) {
    const Tensor t = random_ternary({4, k}, engine, 0.3);
    const auto packed = BitMatrix::try_pack_rows(t);
    ASSERT_TRUE(packed.has_value());
    expect_bitwise_eq(packed->unpack(), t);
  }
}

TEST(BitMatrix, TryPackRejectsRealValues) {
  Tensor t({2, 4}, 1.0f);
  t[5] = 0.5f;
  EXPECT_FALSE(BitMatrix::try_pack_rows(t).has_value());
  t[5] = -1.0f;
  EXPECT_TRUE(BitMatrix::try_pack_rows(t).has_value());
  t[5] = 2.0f;
  EXPECT_FALSE(BitMatrix::try_pack_rows(t).has_value());
}

TEST(BitMatrix, TryPackMasksNegativeZero) {
  // SpinDrop produces -0.0f when it drops a -1 activation; it must pack
  // as a masked (zero) position, not as a -1.
  Tensor t({1, 3}, std::vector<float>{1.0f, -0.0f, -1.0f});
  const auto packed = BitMatrix::try_pack_rows(t);
  ASSERT_TRUE(packed.has_value());
  EXPECT_FALSE(packed->dense());
  EXPECT_EQ(packed->row_nvalid()[0], 2u);
  const Tensor back = packed->unpack();
  EXPECT_EQ(std::bit_cast<std::uint32_t>(back[1]), std::bit_cast<std::uint32_t>(0.0f));
}

// ----------------------------------------------------------------- bgemm ----

TEST(Bgemm, MatchesFloatOracleDenseRaggedK) {
  std::mt19937_64 engine(13);
  for (std::size_t k : kRaggedK) {
    const Tensor x = random_pm1({5, k}, engine);
    const Tensor w = random_pm1({7, k}, engine);
    const BitMatrix bx = BitMatrix::pack_rows_sign(x);
    const BitMatrix bw = BitMatrix::pack_rows_sign(w);
    expect_bitwise_eq(bgemm(bx, bw, nullptr, nullptr),
                      float_oracle(x, bw, nullptr, nullptr));
  }
}

TEST(Bgemm, MatchesFloatOracleMaskedWithEpilogue) {
  std::mt19937_64 engine(17);
  std::normal_distribution<float> gauss(0.0f, 1.0f);
  for (std::size_t k : kRaggedK) {
    const Tensor x = random_ternary({5, k}, engine, 0.25);
    const Tensor w = random_pm1({6, k}, engine);
    Tensor alpha({6});
    Tensor bias({6});
    for (std::size_t j = 0; j < 6; ++j) {
      alpha[j] = std::abs(gauss(engine)) + 0.01f;
      bias[j] = gauss(engine);
    }
    const auto bx = BitMatrix::try_pack_rows(x);
    ASSERT_TRUE(bx.has_value());
    const BitMatrix bw = BitMatrix::pack_rows_sign(w);
    expect_bitwise_eq(bgemm(*bx, bw, &alpha, &bias),
                      float_oracle(x, bw, &alpha, &bias));
  }
}

TEST(Bgemm, ValidatesOperands) {
  std::mt19937_64 engine(19);
  const BitMatrix x = BitMatrix::pack_rows_sign(random_pm1({2, 8}, engine));
  const BitMatrix w_wrong_k = BitMatrix::pack_rows_sign(random_pm1({3, 9}, engine));
  EXPECT_THROW((void)bgemm(x, w_wrong_k, nullptr, nullptr), std::invalid_argument);

  Tensor sparse({3, 8}, 1.0f);
  sparse[2] = 0.0f;
  const auto w_sparse = BitMatrix::try_pack_rows(sparse);
  ASSERT_TRUE(w_sparse.has_value());
  EXPECT_THROW((void)bgemm(x, *w_sparse, nullptr, nullptr), std::invalid_argument);

  const BitMatrix w = BitMatrix::pack_rows_sign(random_pm1({3, 8}, engine));
  const Tensor alpha({3}, 1.0f);
  EXPECT_THROW((void)bgemm(x, w, &alpha, nullptr), std::invalid_argument);
  const Tensor bad_bias({2}, 0.0f);
  EXPECT_THROW((void)bgemm(x, w, &alpha, &bad_bias), std::invalid_argument);
}

TEST(Bgemm, IncrementsObsCounter) {
  std::mt19937_64 engine(23);
  const BitMatrix x = BitMatrix::pack_rows_sign(random_pm1({2, 16}, engine));
  const BitMatrix w = BitMatrix::pack_rows_sign(random_pm1({4, 16}, engine));
  obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  const std::uint64_t before = calls.value();
  (void)bgemm(x, w, nullptr, nullptr);
  EXPECT_EQ(calls.value(), before + 1);
}

// --------------------------------------------------------- SIMD dispatch ----

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));
  EXPECT_STREQ(simd::kernels().name, simd::tier_name(simd::active_tier()));
}

TEST(SimdDispatch, TierGaugeExported) {
  (void)simd::kernels();
  EXPECT_EQ(obs::Registry::global().gauge("nn.simd.tier").value(),
            static_cast<double>(static_cast<int>(simd::active_tier())));
}

TEST(SimdDispatch, ForceUnavailableTierThrows) {
  bool some_unavailable = false;
  for (simd::Tier tier : {simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (!simd::tier_available(tier)) {
      some_unavailable = true;
      EXPECT_THROW(simd::force_tier(tier), std::invalid_argument);
    }
  }
  // At most one vector tier exists per arch, so at least one must throw.
  EXPECT_TRUE(some_unavailable);
}

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kNeon}) {
    if (simd::tier_available(tier)) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

TEST(SimdDispatch, FloatKernelsBitwiseEqualAcrossTiers) {
  std::mt19937_64 engine(29);
  // Ragged shapes exercise the blocked kernel's remainder panels and the
  // 8-lane dot kernel's tail.
  const Tensor a = Tensor::randn({17, 37}, 1.0f, engine);
  const Tensor b = Tensor::randn({37, 21}, 1.0f, engine);
  const Tensor bt = Tensor::randn({21, 37}, 1.0f, engine);
  const Tensor at = Tensor::randn({37, 17}, 1.0f, engine);  // stored (k x m)

  Tensor c_ref, cnt_ref, cat_ref;
  {
    simd::ScopedTier tier(simd::Tier::kScalar);
    c_ref = matmul(a, b);
    cnt_ref = matmul_transposed(a, bt);
    cat_ref = matmul_a_transposed(at, b);
  }
  for (simd::Tier tier : available_tiers()) {
    simd::ScopedTier forced(tier);
    expect_bitwise_eq(matmul(a, b), c_ref);
    expect_bitwise_eq(matmul_transposed(a, bt), cnt_ref);
    expect_bitwise_eq(matmul_a_transposed(at, b), cat_ref);
  }
}

TEST(SimdDispatch, BgemmBitwiseEqualAcrossTiers) {
  std::mt19937_64 engine(31);
  for (std::size_t k : kRaggedK) {
    const Tensor x = random_ternary({4, k}, engine, 0.2);
    const Tensor w = random_pm1({5, k}, engine);
    const auto bx = BitMatrix::try_pack_rows(x);
    ASSERT_TRUE(bx.has_value());
    const BitMatrix bw = BitMatrix::pack_rows_sign(w);
    Tensor ref;
    {
      simd::ScopedTier tier(simd::Tier::kScalar);
      ref = bgemm(*bx, bw, nullptr, nullptr);
    }
    for (simd::Tier tier : available_tiers()) {
      simd::ScopedTier forced(tier);
      expect_bitwise_eq(bgemm(*bx, bw, nullptr, nullptr), ref);
    }
  }
}

// ---------------------------------------------------------- BinaryDense ----

TEST(BinaryDenseInference, AutoMatchesFloatOracleOnSignInputs) {
  std::mt19937_64 engine(37);
  BinaryDense layer(33, 9, engine);  // ragged K: lane remainder of 33
  const Tensor x = random_pm1({6, 33}, engine);

  obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  const Tensor ref = training_forward(layer, x);

  const std::uint64_t before = calls.value();
  expect_bitwise_eq(layer.forward(x, /*training=*/false), ref);
  EXPECT_GT(calls.value(), before);  // inference actually took the packed path
}

TEST(BinaryDenseInference, AutoFallsBackOnRealInputs) {
  std::mt19937_64 engine(41);
  BinaryDense layer(16, 5, engine);
  const Tensor x = Tensor::randn({4, 16}, 1.0f, engine);

  obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  const Tensor ref = training_forward(layer, x);

  const std::uint64_t before = calls.value();
  expect_bitwise_eq(layer.forward(x, /*training=*/false), ref);
  EXPECT_EQ(calls.value(), before);  // no silent quantization
}

TEST(BinaryDenseInference, MatchesTrainingForwardBitwise) {
  // The inference path (cached sign/alpha, packed kernels) must produce
  // the bits the training-mode float forward produces.
  std::mt19937_64 engine(43);
  BinaryDense layer(24, 7, engine);
  const Tensor x = random_ternary({5, 24}, engine, 0.2);
  const Tensor train_out = layer.forward(x, /*training=*/true);
  expect_bitwise_eq(layer.forward(x, /*training=*/false), train_out);
}

TEST(BinaryDenseInference, RepacksOnWeightMutation) {
  std::mt19937_64 engine(47);
  BinaryDense layer(12, 6, engine);
  const Tensor x = random_pm1({3, 12}, engine);
  (void)layer.forward(x, /*training=*/false);  // fill the pack cache

  // Mutate through the mutable reference the optimizer uses.
  Tensor& w = layer.latent_weight();
  for (std::size_t i = 0; i < w.numel(); ++i) {
    w[i] = -w[i] + 0.125f;
  }
  const Tensor expected = [&] {
    Tensor out = matmul(x, sign_of(w));
    const Tensor alpha = column_abs_mean(w);
    for (std::size_t i = 0; i < out.dim(0); ++i) {
      for (std::size_t j = 0; j < out.dim(1); ++j) {
        out.at(i, j) = out.at(i, j) * alpha[j] + layer.bias()[j];
      }
    }
    return out;
  }();
  expect_bitwise_eq(layer.forward(x, /*training=*/false), expected);
}

TEST(BinaryDenseInference, CloneCarriesIndependentPack) {
  std::mt19937_64 engine(53);
  BinaryDense layer(10, 4, engine);
  const Tensor x = random_pm1({2, 10}, engine);
  const Tensor ref = layer.forward(x, /*training=*/false);

  auto cloned = layer.clone();
  auto* copy = dynamic_cast<BinaryDense*>(cloned.get());
  ASSERT_NE(copy, nullptr);
  expect_bitwise_eq(copy->forward(x, /*training=*/false), ref);

  // Mutating the original must not leak into the clone's pack.
  layer.latent_weight() *= -1.0f;
  (void)layer.forward(x, /*training=*/false);
  expect_bitwise_eq(copy->forward(x, /*training=*/false), ref);
}

TEST(BinaryDenseInference, BackwardRequiresTrainingForward) {
  std::mt19937_64 engine(59);
  BinaryDense layer(8, 3, engine);
  const Tensor x = random_pm1({2, 8}, engine);
  (void)layer.forward(x, /*training=*/false);
  EXPECT_THROW((void)layer.backward(Tensor({2, 3}, 1.0f)), std::logic_error);
  (void)layer.forward(x, /*training=*/true);
  EXPECT_NO_THROW((void)layer.backward(Tensor({2, 3}, 1.0f)));
}

TEST(BinaryDenseTraining, UnperturbedByInterleavedInference) {
  // Two identical training loops; one also runs inference forwards (which
  // exercise the packed path) between steps. Latent weights must match
  // bit for bit — inference shares no state with training.
  // K = 18 clears kMinPackedK, so the ±1 probe takes the packed path.
  std::mt19937_64 e1(61), e2(61), ex(67);
  BinaryDense a(18, 6, e1);
  BinaryDense b(18, 6, e2);
  const Tensor x = random_pm1({4, 18}, ex);
  const Tensor g = Tensor::randn({4, 6}, 0.5f, ex);
  const Tensor probe = random_pm1({3, 18}, ex);

  obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  const std::uint64_t before = calls.value();
  for (int step = 0; step < 3; ++step) {
    (void)a.forward(x, /*training=*/true);
    (void)a.backward(g);
    (void)b.forward(x, /*training=*/true);
    (void)b.backward(g);
    (void)b.forward(probe, /*training=*/false);  // interleaved inference
    for (auto layer : {&a, &b}) {
      for (ParamRef p : layer->parameters()) {
        for (std::size_t i = 0; i < p.value->numel(); ++i) {
          (*p.value)[i] -= 0.1f * (*p.grad)[i];
          (*p.grad)[i] = 0.0f;
        }
      }
    }
  }
  EXPECT_GE(calls.value() - before, 3u);  // every probe ran on bgemm
  expect_bitwise_eq(a.latent_weight(), b.latent_weight());
  expect_bitwise_eq(a.bias(), b.bias());
}

// --------------------------------------------------------- BinaryConv2d ----

TEST(BinaryConv2dInference, AlgosBitwiseEqualOnSignInputs) {
  std::mt19937_64 engine(71);
  BinaryConv2d layer(2, 3, 3, 1, engine);
  const Tensor x = random_pm1({2, 2, 5, 5}, engine);

  layer.set_algo(Conv2d::Algo::kDirect);
  const Tensor direct = layer.forward(x, /*training=*/false);

  layer.set_algo(Conv2d::Algo::kIm2col);
  expect_bitwise_eq(training_forward(layer, x), direct);  // lowered float GEMM

  obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  const std::uint64_t before = calls.value();
  // K = 18 taps; padding=1 puts zeros in the im2col patches: the masked
  // bgemm path.
  expect_bitwise_eq(layer.forward(x, /*training=*/false), direct);
  EXPECT_GT(calls.value(), before);
}

TEST(BinaryConv2dInference, MatchesTrainingForwardBitwise) {
  std::mt19937_64 engine(73);
  BinaryConv2d layer(1, 4, 3, 1, engine);
  const Tensor x = random_pm1({3, 1, 6, 6}, engine);
  const Tensor train_out = layer.forward(x, /*training=*/true);
  expect_bitwise_eq(layer.forward(x, /*training=*/false), train_out);
}

TEST(BinaryConv2dInference, BackwardStillRequiresTrainingForward) {
  std::mt19937_64 engine(79);
  BinaryConv2d layer(1, 2, 3, 1, engine);
  const Tensor x = random_pm1({1, 1, 4, 4}, engine);
  (void)layer.forward(x, /*training=*/false);
  EXPECT_THROW((void)layer.backward(Tensor({1, 2, 4, 4}, 1.0f)), std::logic_error);
}

// ------------------------------------------------- end-to-end equivalence ----

core::BuiltModel fixed_mlp() {
  core::ModelConfig config;
  config.method = core::Method::kSpinDrop;
  config.seed = 2024;
  core::BuiltModel model = core::make_binary_mlp(config, 16, {32, 16}, 4);
  model.enable_mc(true);
  return model;
}

constexpr std::size_t kMcSamples = 5;
const std::vector<std::uint64_t> kSeeds = {101, 202, 303};

Tensor fused_inputs() {
  std::mt19937_64 engine(97);
  return Tensor::randn({kSeeds.size(), 16}, 1.0f, engine);
}

std::vector<core::Prediction> run_fused(core::BuiltModel model) {
  return core::predict_fused_batch(model, fused_inputs(), kSeeds, kMcSamples);
}

/// Float reference of run_fused: the stacked (B*T) forward run layer by
/// layer under the same per-row seeds, every binary layer through the
/// training-mode forward of a clone (float GEMM, no packing, no shared
/// head), then the same per-request reduction.
std::vector<core::Prediction> run_float_reference(const core::BuiltModel& model) {
  const Tensor inputs = fused_inputs();
  const std::size_t batch = inputs.dim(0);
  const std::size_t features = inputs.dim(1);
  Tensor x({batch * kMcSamples, features});
  std::vector<std::uint64_t> row_seeds(batch * kMcSamples);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < kMcSamples; ++t) {
      for (std::size_t f = 0; f < features; ++f) {
        x.at(b * kMcSamples + t, f) = inputs.at(b, f);
      }
      row_seeds[b * kMcSamples + t] = mix_seed(kSeeds[b], t);
    }
  }
  core::BuiltModel oracle = model.clone();
  oracle.net.reseed_rows(row_seeds);
  for (std::size_t i = 0; i < oracle.net.size(); ++i) {
    Layer& layer = oracle.net.layer(i);
    const bool binary = dynamic_cast<BinaryDense*>(&layer) != nullptr ||
                        dynamic_cast<BinaryConv2d*>(&layer) != nullptr;
    x = binary ? training_forward(layer, x) : layer.forward(x, /*training=*/false);
  }
  const Tensor probs = softmax_rows(x);
  const std::size_t classes = probs.dim(1);
  std::vector<core::Prediction> out;
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<Tensor> member_probs;
    for (std::size_t t = 0; t < kMcSamples; ++t) {
      const auto row = probs.data().subspan((b * kMcSamples + t) * classes, classes);
      member_probs.emplace_back(Shape{1, classes},
                                std::vector<float>(row.begin(), row.end()));
    }
    out.push_back(core::McPredictor(kMcSamples, kSeeds[b]).reduce(std::move(member_probs)));
  }
  return out;
}

void expect_same_predictions(const std::vector<core::Prediction>& a,
                             const std::vector<core::Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bitwise_eq(a[i].mean_probs, b[i].mean_probs);
    ASSERT_EQ(a[i].entropy.size(), b[i].entropy.size());
    for (std::size_t j = 0; j < a[i].entropy.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i].entropy[j]),
                std::bit_cast<std::uint32_t>(b[i].entropy[j]));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i].mutual_info[j]),
                std::bit_cast<std::uint32_t>(b[i].mutual_info[j]));
    }
  }
}

TEST(ServeEquivalence, FixedSeedPredictionsInvariantToComputePath) {
  const core::BuiltModel model = fixed_mlp();
  const std::vector<core::Prediction> ref = run_float_reference(model);
  // Default path: shared head, packed kernels, dispatched tier. The hidden
  // layers see ternary activations, so the packed kernel must have run.
  obs::Counter& calls = obs::Registry::global().counter("nn.bgemm.calls");
  const std::uint64_t before = calls.value();
  expect_same_predictions(run_fused(model.clone()), ref);
  EXPECT_GT(calls.value(), before);
  // Scalar tier.
  {
    simd::ScopedTier tier(simd::Tier::kScalar);
    expect_same_predictions(run_fused(model.clone()), ref);
  }
}

}  // namespace
}  // namespace neuspin::nn
