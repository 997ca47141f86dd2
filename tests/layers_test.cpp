// Gradient-checked unit tests for the layer zoo.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "nn/binarize.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "test_util.h"

namespace neuspin::nn {
namespace {

using neuspin::testing::check_input_gradient;
using neuspin::testing::check_param_gradient;

std::mt19937_64 engine_for(std::uint64_t seed) { return std::mt19937_64(seed); }

TEST(Dense, ForwardMatchesManualComputation) {
  auto engine = engine_for(1);
  Dense layer(2, 2, engine);
  layer.weight() = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  layer.bias() = Tensor({2}, std::vector<float>{0.5f, -0.5f});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = layer.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);
}

TEST(Dense, GradientCheck) {
  auto engine = engine_for(2);
  Dense layer(5, 4, engine);
  Tensor x = Tensor::randn({3, 5}, 1.0f, engine);
  check_input_gradient(layer, x);
  check_param_gradient(layer, x, 0);
  check_param_gradient(layer, x, 1);
}

TEST(Dense, RejectsWrongInputWidth) {
  auto engine = engine_for(3);
  Dense layer(5, 4, engine);
  Tensor x({2, 6});
  EXPECT_THROW(layer.forward(x, true), std::invalid_argument);
}

TEST(Conv2d, OutputShape) {
  auto engine = engine_for(4);
  Conv2d layer(3, 8, 3, 1, engine);
  Tensor x = Tensor::randn({2, 3, 7, 7}, 1.0f, engine);
  Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 7, 7}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  auto engine = engine_for(5);
  Conv2d layer(1, 1, 3, 1, engine);
  layer.weight().fill(0.0f);
  layer.weight().at4(0, 0, 1, 1) = 1.0f;  // delta kernel
  auto params = layer.parameters();
  params[1].value->fill(0.0f);  // zero bias
  Tensor x = Tensor::randn({1, 1, 5, 5}, 1.0f, engine);
  Tensor y = layer.forward(x, true);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-6f);
  }
}

TEST(Conv2d, GradientCheck) {
  auto engine = engine_for(6);
  Conv2d layer(2, 3, 3, 1, engine);
  Tensor x = Tensor::randn({2, 2, 5, 5}, 1.0f, engine);
  check_input_gradient(layer, x);
  check_param_gradient(layer, x, 0);
  check_param_gradient(layer, x, 1);
}

// -------------------------------------- direct vs. im2col equivalence ----
//
// The Algo switch pins the lowered (im2col + blocked GEMM) convolution to
// the direct per-element loop bit for bit, forward AND backward: both
// paths accumulate every output/gradient element's terms in the same
// fixed order, so serving models may default to the fast path without a
// single float changing anywhere downstream.

struct ConvCase {
  std::size_t in_ch, out_ch, kernel, padding, batch, h, w;
};

class ConvAlgoEquivalence : public ::testing::TestWithParam<ConvCase> {};

void expect_tensors_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " element " << i;
  }
}

TEST_P(ConvAlgoEquivalence, Conv2dForwardAndBackwardBitwise) {
  const ConvCase c = GetParam();
  auto engine = engine_for(41);
  Conv2d direct(c.in_ch, c.out_ch, c.kernel, c.padding, engine);
  direct.set_algo(Conv2d::Algo::kDirect);
  auto engine2 = engine_for(41);  // identical init
  Conv2d lowered(c.in_ch, c.out_ch, c.kernel, c.padding, engine2);
  ASSERT_EQ(lowered.algo(), Conv2d::Algo::kIm2col) << "im2col must be the default";

  const Tensor x = Tensor::randn({c.batch, c.in_ch, c.h, c.w}, 1.0f, engine);
  expect_tensors_bitwise(direct.forward(x, true), lowered.forward(x, true),
                         "forward");

  auto g_engine = engine_for(43);
  const Tensor g = Tensor::randn(
      {c.batch, c.out_ch, c.h + 2 * c.padding - c.kernel + 1,
       c.w + 2 * c.padding - c.kernel + 1},
      1.0f, g_engine);
  expect_tensors_bitwise(direct.backward(g), lowered.backward(g), "grad_input");
  const auto dp = direct.parameters();
  const auto lp = lowered.parameters();
  expect_tensors_bitwise(*dp[0].grad, *lp[0].grad, "weight_grad");
  expect_tensors_bitwise(*dp[1].grad, *lp[1].grad, "bias_grad");
}

TEST_P(ConvAlgoEquivalence, BinaryConv2dForwardAndBackwardBitwise) {
  const ConvCase c = GetParam();
  auto engine = engine_for(47);
  BinaryConv2d direct(c.in_ch, c.out_ch, c.kernel, c.padding, engine);
  direct.set_algo(Conv2d::Algo::kDirect);
  auto engine2 = engine_for(47);
  BinaryConv2d lowered(c.in_ch, c.out_ch, c.kernel, c.padding, engine2);

  // Feed sign-valued activations like the binary CNN's inner layers see.
  Tensor x = Tensor::randn({c.batch, c.in_ch, c.h, c.w}, 1.0f, engine);
  x = sign_of(x);
  expect_tensors_bitwise(direct.forward(x, true), lowered.forward(x, true),
                         "forward");

  auto g_engine = engine_for(53);
  const Tensor g = Tensor::randn(
      {c.batch, c.out_ch, c.h + 2 * c.padding - c.kernel + 1,
       c.w + 2 * c.padding - c.kernel + 1},
      1.0f, g_engine);
  expect_tensors_bitwise(direct.backward(g), lowered.backward(g), "grad_input");
  const auto dp = direct.parameters();
  const auto lp = lowered.parameters();
  expect_tensors_bitwise(*dp[0].grad, *lp[0].grad, "weight_grad");
  expect_tensors_bitwise(*dp[1].grad, *lp[1].grad, "bias_grad");
}

INSTANTIATE_TEST_SUITE_P(
    SmallCnnAndEdgeShapes, ConvAlgoEquivalence,
    ::testing::Values(ConvCase{1, 8, 3, 1, 2, 16, 16},   // small-CNN conv1
                      ConvCase{8, 16, 3, 1, 2, 8, 8},    // small-CNN conv2
                      ConvCase{1, 1, 3, 0, 1, 3, 3},     // kernel == image
                      ConvCase{2, 3, 3, 2, 1, 4, 5},     // padding > kernel/2
                      ConvCase{3, 2, 1, 0, 2, 5, 5},     // 1x1 kernel
                      ConvCase{2, 2, 2, 1, 1, 4, 4}));   // even kernel

TEST(Conv2d, BackwardRequiresTrainingForward) {
  // Backward state is only kept for training-mode forwards: calling
  // backward before any forward, or after an inference forward (the
  // serving hot path, which must not retain the patch matrix), throws.
  auto engine = engine_for(59);
  Conv2d conv(1, 2, 3, 1, engine);
  const Tensor g({1, 2, 4, 4}, 1.0f);
  EXPECT_THROW((void)conv.backward(g), std::logic_error);
  const Tensor x = Tensor::randn({1, 1, 4, 4}, 1.0f, engine);
  (void)conv.forward(x, false);
  EXPECT_THROW((void)conv.backward(g), std::logic_error);
  (void)conv.forward(x, true);
  EXPECT_NO_THROW((void)conv.backward(g));

  BinaryConv2d bconv(1, 2, 3, 1, engine);
  EXPECT_THROW((void)bconv.backward(g), std::logic_error);
  (void)bconv.forward(x, false);
  EXPECT_THROW((void)bconv.backward(g), std::logic_error);
  (void)bconv.forward(x, true);
  EXPECT_NO_THROW((void)bconv.backward(g));
}

TEST(Conv2d, DirectAlgoGradientCheck) {
  // The default-algo GradientCheck above now exercises the im2col path;
  // keep the direct reference loop finite-difference-checked too.
  auto engine = engine_for(57);
  Conv2d layer(2, 3, 3, 1, engine);
  layer.set_algo(Conv2d::Algo::kDirect);
  Tensor x = Tensor::randn({2, 2, 5, 5}, 1.0f, engine);
  check_input_gradient(layer, x);
  check_param_gradient(layer, x, 0);
  check_param_gradient(layer, x, 1);
}

TEST(MaxPool2d, SelectsMaximum) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  (void)pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, std::vector<float>{2.0f});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

/// The 2x2 pooling loop as it stood before the branch-free rewrite, kept
/// as the reference for pooled values and argmax routing.
struct ReferencePool {
  Tensor out;
  std::vector<std::size_t> argmax;
};

ReferencePool reference_maxpool(const Tensor& input) {
  const std::size_t n = input.dim(0);
  const std::size_t c = input.dim(1);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = h / 2;
  const std::size_t ow = w / 2;
  ReferencePool ref{Tensor({n, c, oh, ow}), std::vector<std::size_t>(n * c * oh * ow)};
  std::size_t flat = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++flat) {
          float best = input.at4(b, ch, 2 * y, 2 * x);
          std::size_t best_idx = ((b * c + ch) * h + 2 * y) * w + 2 * x;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const float v = input.at4(b, ch, 2 * y + dy, 2 * x + dx);
              if (v > best) {
                best = v;
                best_idx = ((b * c + ch) * h + 2 * y + dy) * w + 2 * x + dx;
              }
            }
          }
          ref.out.at4(b, ch, y, x) = best;
          ref.argmax[flat] = best_idx;
        }
      }
    }
  }
  return ref;
}

/// Inputs drawn from a handful of values, NaN and both zeros included, so
/// most windows hold ties.
Tensor tie_heavy_input(const Shape& shape, std::uint64_t seed) {
  const std::vector<float> values = {-1.0f, -0.0f, 0.0f, 0.5f, 1.0f,
                                     std::numeric_limits<float>::quiet_NaN()};
  std::mt19937_64 engine(seed);
  Tensor x(shape);
  for (float& v : x.data()) {
    v = values[engine() % values.size()];
  }
  return x;
}

void expect_same_bits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]), std::bit_cast<std::uint32_t>(want[i]))
        << what << " differs at flat index " << i;
  }
}

// Even and odd H/W (odd rows and columns are dropped by the floor).
const std::vector<Shape> kPoolShapes = {
    {2, 3, 4, 6}, {1, 2, 5, 7}, {3, 1, 3, 3}, {1, 1, 2, 9}};

/// Windows whose maximum is a -0/+0 tie at every pair of scan positions,
/// in both orders, with -1 elsewhere: the earlier position must win, so
/// the result's sign bit shows which compare order ran.
Tensor signed_zero_tie_windows() {
  std::vector<float> values;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      for (bool negative_first : {true, false}) {
        float window[4] = {-1.0f, -1.0f, -1.0f, -1.0f};
        window[i] = negative_first ? -0.0f : 0.0f;
        window[j] = negative_first ? 0.0f : -0.0f;
        values.insert(values.end(), window, window + 4);
      }
    }
  }
  const std::size_t windows = values.size() / 4;
  return Tensor({1, windows, 2, 2}, std::move(values));
}

TEST(MaxPool2d, InferenceMatchesTrainingForwardBitwise) {
  // Hand-made windows: a NaN seed is never replaced, a NaN candidate never
  // wins, -0 and +0 tie (the earlier one stays), equal maxima keep the first.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor windows({1, 4, 2, 2}, std::vector<float>{nan, 1, 2, 3,     //
                                                        1, nan, 0, nan,   //
                                                        -0.0f, 0.0f, 0.0f, -0.0f,  //
                                                        2, 5, 5, 1});
  MaxPool2d training_pool;
  MaxPool2d inference_pool;
  const Tensor inferred = inference_pool.forward(windows, false);
  expect_same_bits(inferred, training_pool.forward(windows, true), "hand-made windows");
  expect_same_bits(inferred, reference_maxpool(windows).out, "hand-made windows");
  EXPECT_TRUE(std::isnan(inferred[0]));
  EXPECT_EQ(inferred[1], 1.0f);
  EXPECT_TRUE(std::signbit(inferred[2])) << "the -0 seed must survive a +0 tie";
  EXPECT_EQ(inferred[3], 5.0f);

  const Tensor ties = signed_zero_tie_windows();
  const Tensor tied = inference_pool.forward(ties, false);
  expect_same_bits(tied, training_pool.forward(ties, true), "signed-zero ties");
  expect_same_bits(tied, reference_maxpool(ties).out, "signed-zero ties");
  for (std::size_t k = 0; k < tied.numel(); ++k) {
    EXPECT_EQ(std::signbit(tied[k]), k % 2 == 0) << "tie window " << k;
  }

  for (std::size_t k = 0; k < kPoolShapes.size(); ++k) {
    SCOPED_TRACE(shape_to_string(kPoolShapes[k]));
    const Tensor x = tie_heavy_input(kPoolShapes[k], 100 + k);
    const Tensor y = inference_pool.forward(x, false);
    expect_same_bits(y, training_pool.forward(x, true), "inference vs training");
    expect_same_bits(y, reference_maxpool(x).out, "inference vs reference");
  }
}

TEST(MaxPool2d, TrainingForwardMatchesReferenceLoop) {
  std::mt19937_64 engine(58);
  std::vector<Tensor> inputs = {signed_zero_tie_windows()};
  for (std::size_t k = 0; k < kPoolShapes.size(); ++k) {
    inputs.push_back(tie_heavy_input(kPoolShapes[k], 200 + k));
    inputs.push_back(Tensor::randn(kPoolShapes[k], 1.0f, engine));
  }
  for (const Tensor& x : inputs) {
    SCOPED_TRACE(shape_to_string(x.shape()));
    const ReferencePool ref = reference_maxpool(x);
    MaxPool2d pool;
    expect_same_bits(pool.forward(x, true), ref.out, "pooled values");
    // Backward routes each gradient to the reference argmax.
    const Tensor g = Tensor::randn(ref.out.shape(), 1.0f, engine);
    Tensor expected(x.shape());
    for (std::size_t i = 0; i < g.numel(); ++i) {
      expected[ref.argmax[i]] += g[i];
    }
    expect_same_bits(pool.backward(g), expected, "input gradient");
  }
}

TEST(MaxPool2d, BackwardAfterInferenceForwardThrows) {
  MaxPool2d pool;
  const Tensor x({1, 2, 4, 4}, 1.0f);
  const Tensor g({1, 2, 2, 2}, 1.0f);
  EXPECT_THROW((void)pool.backward(g), std::logic_error) << "before any forward";
  (void)pool.forward(x, false);
  EXPECT_THROW((void)pool.backward(g), std::logic_error);
  (void)pool.forward(x, true);
  EXPECT_NO_THROW((void)pool.backward(g));
  (void)pool.forward(x, false);
  EXPECT_THROW((void)pool.backward(g), std::logic_error)
      << "an inference forward drops the argmax routing";
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  Tensor x = Tensor({2, 3, 4, 4}, 1.5f);
  Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(ReLU, ForwardAndGradient) {
  auto engine = engine_for(7);
  ReLU relu;
  Tensor x({1, 4}, std::vector<float>{-1.0f, 2.0f, -0.5f, 3.0f});
  Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  // Keep probe inputs away from the kink at zero, where finite
  // differences are invalid.
  Tensor x2 = Tensor::randn({3, 6}, 1.0f, engine);
  for (std::size_t i = 0; i < x2.numel(); ++i) {
    if (std::abs(x2[i]) < 0.1f) {
      x2[i] = x2[i] >= 0.0f ? 0.1f : -0.1f;
    }
  }
  check_input_gradient(relu, x2);
}

TEST(HardTanh, ClampsAndGates) {
  HardTanh ht;
  Tensor x({1, 3}, std::vector<float>{-2.0f, 0.5f, 2.0f});
  Tensor y = ht.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  Tensor g({1, 3}, std::vector<float>{1.0f, 1.0f, 1.0f});
  Tensor gx = ht.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(SignActivation, BinarizesAndUsesSteWindow) {
  SignActivation sign;
  Tensor x({1, 4}, std::vector<float>{-0.5f, 0.5f, -2.0f, 0.0f});
  Tensor y = sign.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], 1.0f);
  EXPECT_FLOAT_EQ(y[2], -1.0f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
  Tensor g({1, 4}, std::vector<float>{1, 1, 1, 1});
  Tensor gx = sign.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 1.0f) << "inside STE window";
  EXPECT_FLOAT_EQ(gx[2], 0.0f) << "outside STE window";
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  BatchNorm bn(3);
  std::mt19937_64 engine(8);
  Tensor x = Tensor::randn({64, 3}, 2.0f, engine);
  Tensor y = bn.forward(x, true);
  for (std::size_t f = 0; f < 3; ++f) {
    float mean = 0.0f;
    float var = 0.0f;
    for (std::size_t i = 0; i < 64; ++i) {
      mean += y.at(i, f);
    }
    mean /= 64.0f;
    for (std::size_t i = 0; i < 64; ++i) {
      const float d = y.at(i, f) - mean;
      var += d * d;
    }
    var /= 64.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(BatchNorm, RunningStatsUsedAtEval) {
  BatchNorm bn(2);
  std::mt19937_64 engine(9);
  for (int step = 0; step < 200; ++step) {
    Tensor x = Tensor::randn({32, 2}, 1.0f, engine);
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x[i] += 5.0f;  // shifted distribution
    }
    (void)bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 0.3f);
  Tensor probe({1, 2}, std::vector<float>{5.0f, 5.0f});
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

TEST(BatchNorm, GradientCheck) {
  BatchNorm bn(4);
  std::mt19937_64 engine(10);
  Tensor x = Tensor::randn({8, 4}, 1.0f, engine);
  check_input_gradient(bn, x, 5e-2f);
  check_param_gradient(bn, x, 0, 5e-2f);
  check_param_gradient(bn, x, 1, 5e-2f);
}

TEST(BatchNorm, SupportsNchw) {
  BatchNorm bn(3);
  std::mt19937_64 engine(11);
  Tensor x = Tensor::randn({4, 3, 5, 5}, 1.0f, engine);
  Tensor y = bn.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Dropout, InactiveAtEvalByDefault) {
  Dropout drop(0.5f, 1);
  Tensor x({1, 100}, 1.0f);
  Tensor y = drop.forward(x, false);
  for (std::size_t i = 0; i < y.numel(); ++i) {
    EXPECT_FLOAT_EQ(y[i], 1.0f);
  }
}

TEST(Dropout, McModeSamplesAtEval) {
  Dropout drop(0.5f, 2);
  drop.enable_at_inference(true);
  Tensor x({1, 1000}, 1.0f);
  Tensor y = drop.forward(x, false);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
}

TEST(Dropout, InvertedScalingKeepsExpectation) {
  Dropout drop(0.25f, 3);
  Tensor x({1, 20000}, 1.0f);
  Tensor y = drop.forward(x, true);
  EXPECT_NEAR(y.mean(), 1.0f, 0.05f);
}

// ------------------------------------------------------- Binary layers ----

TEST(BinaryDense, OutputUsesBinarizedWeights) {
  auto engine = engine_for(12);
  BinaryDense layer(4, 2, engine);
  layer.latent_weight() = Tensor({4, 2}, std::vector<float>{0.3f, -0.2f, 0.7f, 0.1f,
                                                            -0.4f, 0.9f, 0.2f, -0.6f});
  layer.bias().fill(0.0f);
  Tensor x({1, 4}, std::vector<float>{1, 1, 1, 1});
  Tensor y = layer.forward(x, true);
  // Column 0: signs (+,+,-,+) -> sum 2; alpha0 = (0.3+0.7+0.4+0.2)/4 = 0.4
  EXPECT_NEAR(y.at(0, 0), 2.0f * 0.4f, 1e-5f);
  // Column 1: signs (-,+,+,-) -> sum 0; alpha irrelevant.
  EXPECT_NEAR(y.at(0, 1), 0.0f, 1e-5f);
}

TEST(BinaryDense, ScalesArePerColumnAbsMean) {
  auto engine = engine_for(13);
  BinaryDense layer(3, 2, engine);
  layer.latent_weight() = Tensor({3, 2}, std::vector<float>{1, -2, 3, 4, -5, 6});
  Tensor alpha = layer.scales();
  EXPECT_NEAR(alpha[0], 3.0f, 1e-6f);
  EXPECT_NEAR(alpha[1], 4.0f, 1e-6f);
}

TEST(BinaryDense, TrainingReducesLossOnToyProblem) {
  auto engine = engine_for(14);
  BinaryDense layer(8, 2, engine);
  Tensor x = Tensor::randn({16, 8}, 1.0f, engine);
  // Supervise toward a fixed random target through MSE-style probe loss.
  neuspin::testing::ProbeLoss loss(Shape{16, 2});
  float first = 0.0f;
  auto params = layer.parameters();
  for (int step = 0; step < 50; ++step) {
    Tensor y = layer.forward(x, true);
    const float l = loss.value(y);
    if (step == 0) {
      first = l;
    }
    (void)layer.backward(loss.grad());
    for (auto& p : params) {
      for (std::size_t i = 0; i < p.value->numel(); ++i) {
        (*p.value)[i] -= 0.01f * (*p.grad)[i];
      }
      p.grad->fill(0.0f);
    }
  }
  Tensor y = layer.forward(x, true);
  EXPECT_LT(loss.value(y), first) << "STE updates must reduce the probe loss";
}

TEST(BinaryConv2d, ChannelScalesMatchAbsMean) {
  auto engine = engine_for(15);
  BinaryConv2d layer(1, 2, 3, 1, engine);
  layer.latent_weight().fill(0.5f);
  Tensor alpha = layer.channel_scales();
  EXPECT_NEAR(alpha[0], 0.5f, 1e-6f);
  EXPECT_NEAR(alpha[1], 0.5f, 1e-6f);
}

TEST(BinaryConv2d, OutputShape) {
  auto engine = engine_for(16);
  BinaryConv2d layer(2, 4, 3, 1, engine);
  Tensor x = Tensor::randn({1, 2, 8, 8}, 1.0f, engine);
  Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 8, 8}));
}

TEST(SignOf, Binarizes) {
  Tensor t({3}, std::vector<float>{-0.1f, 0.0f, 5.0f});
  Tensor s = sign_of(t);
  EXPECT_FLOAT_EQ(s[0], -1.0f);
  EXPECT_FLOAT_EQ(s[1], 1.0f);
  EXPECT_FLOAT_EQ(s[2], 1.0f);
}

// ----------------------------------------------------------------- LSTM ----

TEST(Lstm, OutputShape) {
  auto engine = engine_for(17);
  Lstm lstm(3, 5, engine);
  Tensor x = Tensor::randn({2, 7, 3}, 1.0f, engine);
  Tensor h = lstm.forward(x, true);
  EXPECT_EQ(h.shape(), (Shape{2, 5}));
}

TEST(Lstm, GradientCheck) {
  auto engine = engine_for(18);
  Lstm lstm(2, 3, engine);
  Tensor x = Tensor::randn({2, 4, 2}, 0.8f, engine);
  check_input_gradient(lstm, x, 3e-2f);
  check_param_gradient(lstm, x, 0, 3e-2f);
  check_param_gradient(lstm, x, 1, 3e-2f);
  check_param_gradient(lstm, x, 2, 3e-2f);
}

TEST(Lstm, HiddenStateBounded) {
  auto engine = engine_for(19);
  Lstm lstm(1, 4, engine);
  Tensor x = Tensor::randn({1, 50, 1}, 5.0f, engine);
  Tensor h = lstm.forward(x, true);
  for (std::size_t i = 0; i < h.numel(); ++i) {
    EXPECT_LE(std::abs(h[i]), 1.0f) << "LSTM hidden state is tanh-bounded";
  }
}

}  // namespace
}  // namespace neuspin::nn
