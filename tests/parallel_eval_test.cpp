// Parallel Monte-Carlo evaluation: the threaded predictor must be bitwise
// identical to the serial one for a fixed seed and sample count — that is
// the contract that lets the pipeline scale across cores without changing
// a single reproduced paper number.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/models.h"
#include "core/pipeline.h"
#include "core/thread_pool.h"
#include "core/uncertainty.h"
#include "data/strokes.h"

namespace {

using namespace neuspin;

nn::Dataset tiny_dataset(std::uint64_t seed) {
  data::StrokeConfig sc;
  sc.samples_per_class = 5;  // 50 samples of 256 features
  return data::standardize_per_sample(data::make_stroke_digits_flat(sc, seed));
}

core::BuiltModel tiny_model(core::Method method, bool hw_noise = false,
                            double hw_variation = 0.0) {
  core::ModelConfig mc;
  mc.method = method;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  mc.hw_variation = hw_variation;
  if (hw_noise) {
    mc.hw.enabled = true;
    mc.hw.noise_fraction = 0.02f;
  }
  return core::make_binary_mlp(mc, 256, {32, 16}, 10);
}

core::EvalOptions options_with_threads(std::size_t threads) {
  core::EvalOptions opts;
  opts.mc_samples = 12;
  opts.batch_size = 16;  // several batches, including a ragged tail
  opts.threads = threads;
  opts.seed = 1234;
  return opts;
}

void expect_identical(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.nll, b.nll);
  EXPECT_EQ(a.ece, b.ece);
  EXPECT_EQ(a.brier, b.brier);
  EXPECT_EQ(a.mean_entropy, b.mean_entropy);
}

TEST(ThreadPool, RunsEveryTask) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(tasks));
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  core::ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.push_back([] {});
  tasks.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  core::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run_all(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 24);
}

TEST(ModelClone, MatchesOriginalPassForPass) {
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  model.enable_mc(true);
  core::BuiltModel copy = model.clone();
  const nn::Dataset data = tiny_dataset(3);
  const nn::Tensor x = data.batch(0, 8).first;

  for (std::uint64_t pass_seed : {1ull, 42ull, 0xdeadbeefull}) {
    model.reseed_stochastic(pass_seed);
    copy.reseed_stochastic(pass_seed);
    const nn::Tensor a = model.stochastic_logits(x);
    const nn::Tensor b = copy.stochastic_logits(x);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "pass_seed " << pass_seed << " element " << i;
    }
  }
}

TEST(ModelClone, IsIndependentOfTheOriginal) {
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  model.enable_mc(true);
  const nn::Dataset data = tiny_dataset(4);
  const nn::Tensor x = data.batch(0, 4).first;

  model.reseed_stochastic(11);
  const nn::Tensor before = model.stochastic_logits(x);

  // Burn randomness on the clone; the original's stream must not move.
  core::BuiltModel copy = model.clone();
  copy.reseed_stochastic(999);
  (void)copy.stochastic_logits(x);
  (void)copy.stochastic_logits(x);

  model.reseed_stochastic(11);
  const nn::Tensor after = model.stochastic_logits(x);
  for (std::size_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before[i], after[i]);
  }
}

TEST(McPredictor, ThreadedMatchesSerialBitwise) {
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  model.enable_mc(true);
  const nn::Dataset data = tiny_dataset(5);
  const nn::Tensor x = data.batch(0, 16).first;

  const core::McPredictor predictor(9, /*base_seed=*/77);
  const core::McPredictor::SeededForward serial_forward =
      [&model](const nn::Tensor& in, std::uint64_t pass_seed) {
        model.reseed_stochastic(pass_seed);
        return model.stochastic_logits(in);
      };
  const core::Prediction serial = predictor.predict(x, serial_forward);

  std::vector<core::BuiltModel> replicas;
  for (int w = 0; w < 3; ++w) {
    replicas.push_back(model.clone());
  }
  std::vector<core::McPredictor::SeededForward> forwards;
  for (auto& replica : replicas) {
    forwards.push_back([&replica](const nn::Tensor& in, std::uint64_t pass_seed) {
      replica.reseed_stochastic(pass_seed);
      return replica.stochastic_logits(in);
    });
  }
  core::ThreadPool pool(3);
  const core::Prediction threaded = predictor.predict(x, forwards, pool);

  ASSERT_EQ(serial.mean_probs.numel(), threaded.mean_probs.numel());
  for (std::size_t i = 0; i < serial.mean_probs.numel(); ++i) {
    ASSERT_EQ(serial.mean_probs[i], threaded.mean_probs[i]);
  }
  ASSERT_EQ(serial.entropy.size(), threaded.entropy.size());
  for (std::size_t i = 0; i < serial.entropy.size(); ++i) {
    ASSERT_EQ(serial.entropy[i], threaded.entropy[i]);
  }
  for (std::size_t i = 0; i < serial.mutual_info.size(); ++i) {
    ASSERT_EQ(serial.mutual_info[i], threaded.mutual_info[i]);
  }
}

// Every stochastic method must survive the serial == threaded contract:
// this is what proves each layer's reseed() covers all of its randomness.
TEST(Evaluate, ThreadedMatchesSerialForEveryMethod) {
  const nn::Dataset test = tiny_dataset(6);
  const std::vector<core::Method> methods = {
      core::Method::kSpinDrop,     core::Method::kSpatialSpinDrop,
      core::Method::kSpinScaleDrop, core::Method::kAffineDropout,
      core::Method::kSubsetVi,
  };
  for (core::Method method : methods) {
    core::BuiltModel model = tiny_model(method);
    const core::EvalResult serial =
        core::evaluate(model, test, options_with_threads(1));
    const core::EvalResult threaded =
        core::evaluate(model, test, options_with_threads(4));
    SCOPED_TRACE(core::method_name(method));
    expect_identical(serial, threaded);
  }
}

TEST(Evaluate, ThreadedMatchesSerialWithHardwareNoiseAndVariation) {
  const nn::Dataset test = tiny_dataset(7);
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop, /*hw_noise=*/true,
                                      /*hw_variation=*/0.3);
  const core::EvalResult serial = core::evaluate(model, test, options_with_threads(1));
  const core::EvalResult threaded = core::evaluate(model, test, options_with_threads(3));
  expect_identical(serial, threaded);
}

TEST(Evaluate, ThreadedMatchesSerialForConvertedSpinBayes) {
  const nn::Dataset test = tiny_dataset(8);
  core::BuiltModel model = tiny_model(core::Method::kSpinBayes);
  core::SpinBayesConfig sb;
  sb.instances = 4;
  core::convert_to_spinbayes(model, sb);
  const core::EvalResult serial = core::evaluate(model, test, options_with_threads(1));
  const core::EvalResult threaded = core::evaluate(model, test, options_with_threads(4));
  expect_identical(serial, threaded);
}

// evaluate() must not touch the caller's model: its RNG streams (including
// the training-path engines) would otherwise depend on the thread count,
// making interleaved fit/evaluate programs machine-dependent.
TEST(Evaluate, DoesNotPerturbTheCallersModel) {
  const nn::Dataset test = tiny_dataset(13);
  core::BuiltModel untouched = tiny_model(core::Method::kSpinDrop);
  core::BuiltModel evaluated = tiny_model(core::Method::kSpinDrop);
  (void)core::evaluate(evaluated, test, options_with_threads(1));
  (void)core::evaluate(evaluated, test, options_with_threads(4));

  // Both models must now emit the same *unreseeded* stochastic sequence,
  // i.e. evaluation consumed none of the evaluated model's randomness.
  untouched.enable_mc(true);
  evaluated.enable_mc(true);
  const nn::Tensor x = test.batch(0, 4).first;
  for (int pass = 0; pass < 3; ++pass) {
    const nn::Tensor a = untouched.stochastic_logits(x);
    const nn::Tensor b = evaluated.stochastic_logits(x);
    for (std::size_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "pass " << pass << " element " << i;
    }
  }
}

// Small T, many batches: the pool fans whole batches out (one replica per
// batch chunk) instead of MC passes. Results must not move.
TEST(Evaluate, BatchFanoutMatchesSerialWhenMcSamplesAreFew) {
  const nn::Dataset test = tiny_dataset(14);  // 50 samples
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  core::EvalOptions serial_opts = options_with_threads(1);
  serial_opts.mc_samples = 2;
  serial_opts.batch_size = 8;  // 7 batches incl. ragged tail
  core::EvalOptions pooled_opts = options_with_threads(6);
  pooled_opts.mc_samples = 2;
  pooled_opts.batch_size = 8;
  const core::EvalResult serial = core::evaluate(model, test, serial_opts);
  const core::EvalResult pooled = core::evaluate(model, test, pooled_opts);
  expect_identical(serial, pooled);

  // Per-sample scores take the same fan-out path.
  const auto serial_scores = core::entropy_scores(model, test, serial_opts);
  const auto pooled_scores = core::entropy_scores(model, test, pooled_opts);
  ASSERT_EQ(serial_scores.size(), pooled_scores.size());
  for (std::size_t i = 0; i < serial_scores.size(); ++i) {
    ASSERT_EQ(serial_scores[i], pooled_scores[i]) << "sample " << i;
  }
}

TEST(Evaluate, RejectsZeroMcSamples) {
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  const nn::Dataset test = tiny_dataset(15);
  core::EvalOptions opts = options_with_threads(2);
  opts.mc_samples = 0;
  EXPECT_THROW((void)core::evaluate(model, test, opts), std::invalid_argument);
}

TEST(Evaluate, EntropyScoresOnEmptyDatasetYieldNoScores) {
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  const nn::Dataset empty;
  EXPECT_TRUE(core::entropy_scores(model, empty, options_with_threads(2)).empty());
}

TEST(Evaluate, RepeatedRunsAreDeterministic) {
  const nn::Dataset test = tiny_dataset(9);
  core::BuiltModel model = tiny_model(core::Method::kSpinScaleDrop);
  const core::EvalResult first = core::evaluate(model, test, options_with_threads(0));
  const core::EvalResult second = core::evaluate(model, test, options_with_threads(0));
  expect_identical(first, second);
}

TEST(Evaluate, OodPathIsThreadCountInvariant) {
  const nn::Dataset in_dist = tiny_dataset(10);
  const nn::Dataset ood = tiny_dataset(11);
  core::BuiltModel model = tiny_model(core::Method::kSpinDrop);
  const core::OodResult serial =
      core::evaluate_ood(model, in_dist, ood, options_with_threads(1));
  const core::OodResult threaded =
      core::evaluate_ood(model, in_dist, ood, options_with_threads(4));
  EXPECT_EQ(serial.auroc, threaded.auroc);
  EXPECT_EQ(serial.detection_rate, threaded.detection_rate);
}

TEST(Evaluate, CorruptionSweepCoversEveryPoint) {
  data::StrokeConfig sc;
  sc.samples_per_class = 3;
  const nn::Dataset images = data::make_stroke_digits(sc, 12);  // NCHW
  core::ModelConfig mc;
  mc.method = core::Method::kSpatialSpinDrop;
  mc.seed = 7;
  core::BuiltModel model = core::make_binary_cnn(mc);

  const std::vector<data::CorruptionKind> kinds = {
      data::CorruptionKind::kGaussianNoise, data::CorruptionKind::kBlur};
  const std::vector<float> severities = {0.3f, 0.9f};
  core::EvalOptions serial_opts = options_with_threads(1);
  serial_opts.mc_samples = 6;
  core::EvalOptions threaded_opts = options_with_threads(4);
  threaded_opts.mc_samples = 6;
  const auto serial =
      core::evaluate_corruption(model, images, kinds, severities, 5, serial_opts);
  const auto threaded =
      core::evaluate_corruption(model, images, kinds, severities, 5, threaded_opts);
  ASSERT_EQ(serial.size(), kinds.size() * severities.size());
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].kind, threaded[i].kind);
    EXPECT_EQ(serial[i].severity, threaded[i].severity);
    expect_identical(serial[i].result, threaded[i].result);
  }
}

// ---------------------------------------------------------- Shared head ----
//
// The offline evaluator runs the network's deterministic head once per
// batch and each pass from the first stochastic layer on. The reference
// here is the protocol without that split: one MC-mode clone, batches in
// order, and McPredictor over a reseed plus a full Sequential::forward per
// pass. Every entry point must match it bit for bit.

/// Every learnable parameter nudged away from its initial value, so that
/// the scale, affine and variational methods draw passes that differ (at
/// initialisation their scales are 1 and InvertedNorm is the identity).
void perturb_parameters(core::BuiltModel& model, std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  std::uniform_real_distribution<float> noise(-0.3f, 0.3f);
  for (const nn::ParamRef& param : model.net.parameters()) {
    for (float& v : param.value->data()) {
      v += noise(engine);
    }
  }
}

core::BuiltModel head_test_model(bool cnn, core::Method method, bool hw_noise) {
  core::ModelConfig mc;
  mc.method = method;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  if (hw_noise) {
    mc.hw.enabled = true;
    mc.hw.noise_fraction = 0.02f;
  }
  core::BuiltModel model =
      cnn ? core::make_binary_cnn(mc) : core::make_binary_mlp(mc, 256, {32, 16}, 10);
  perturb_parameters(model, 99);
  return model;
}

/// 30 stroke digits: 1x16x16 images for the CNN, 256 features for the MLP.
nn::Dataset head_test_data(bool cnn, std::uint64_t seed) {
  data::StrokeConfig sc;
  sc.samples_per_class = 3;
  return data::standardize_per_sample(cnn ? data::make_stroke_digits(sc, seed)
                                          : data::make_stroke_digits_flat(sc, seed));
}

std::vector<core::Prediction> full_forward_predictions(const core::BuiltModel& model,
                                                       const nn::Dataset& data,
                                                       const core::EvalOptions& options) {
  core::BuiltModel replica = model.clone();
  replica.enable_mc(true);
  const core::McPredictor::SeededForward forward =
      [&replica](const nn::Tensor& x, std::uint64_t pass_seed) {
        replica.reseed_stochastic(pass_seed);
        return replica.net.forward(x, /*training=*/false);
      };
  std::vector<core::Prediction> predictions;
  for (std::size_t begin = 0, i = 0; begin < data.size(); begin += options.batch_size, ++i) {
    const std::size_t end = std::min(begin + options.batch_size, data.size());
    const core::McPredictor predictor(options.mc_samples, nn::mix_seed(options.seed, i));
    predictions.push_back(predictor.predict(data.batch(begin, end).first, forward));
  }
  return predictions;
}

std::vector<float> reference_entropy_scores(const core::BuiltModel& model,
                                            const nn::Dataset& data,
                                            const core::EvalOptions& options) {
  std::vector<float> scores;
  for (const core::Prediction& pred : full_forward_predictions(model, data, options)) {
    scores.insert(scores.end(), pred.entropy.begin(), pred.entropy.end());
  }
  return scores;
}

core::EvalResult reference_evaluate(const core::BuiltModel& model, const nn::Dataset& data,
                                    const core::EvalOptions& options) {
  const std::vector<core::Prediction> predictions =
      full_forward_predictions(model, data, options);
  const std::size_t classes = predictions.front().mean_probs.dim(1);
  nn::Tensor probs({data.size(), classes});
  std::size_t row = 0;
  float entropy_sum = 0.0f;
  for (const core::Prediction& pred : predictions) {
    for (std::size_t i = 0; i < pred.mean_probs.dim(0); ++i, ++row) {
      for (std::size_t j = 0; j < classes; ++j) {
        probs.at(row, j) = pred.mean_probs.at(i, j);
      }
    }
    for (float e : pred.entropy) {
      entropy_sum += e;
    }
  }
  core::EvalResult result;
  result.accuracy = core::accuracy(probs, data.labels);
  result.nll = core::negative_log_likelihood(probs, data.labels);
  result.ece = core::expected_calibration_error(probs, data.labels);
  result.brier = core::brier_score(probs, data.labels);
  result.mean_entropy = entropy_sum / static_cast<float>(data.size());
  return result;
}

core::OodResult reference_ood(const core::BuiltModel& model, const nn::Dataset& in_dist,
                              const nn::Dataset& ood, const core::EvalOptions& options) {
  const std::vector<float> id_scores = reference_entropy_scores(model, in_dist, options);
  core::EvalOptions ood_options = options;
  ood_options.seed = nn::mix_seed(options.seed, 0x00d);
  const std::vector<float> ood_scores = reference_entropy_scores(model, ood, ood_options);
  std::vector<float> all = id_scores;
  all.insert(all.end(), ood_scores.begin(), ood_scores.end());
  std::vector<bool> is_ood(id_scores.size(), false);
  is_ood.insert(is_ood.end(), ood_scores.size(), true);
  core::OodResult result;
  result.auroc = core::auroc(all, is_ood);
  result.detection_rate = core::detection_rate(id_scores, ood_scores);
  return result;
}

/// evaluate, entropy_scores and evaluate_ood of all five Table-I methods,
/// with and without behavioural hardware noise, at threads 1 and 2,
/// against the full-forward reference. 30 samples in batches of 8 make
/// four batches: T = 3 takes the batch-parallel fan-out at threads 2 and
/// T = 4 the pass-parallel one.
void expect_shared_head_matches_full_forward(bool cnn) {
  const nn::Dataset in_dist = head_test_data(cnn, 31);
  const nn::Dataset ood = head_test_data(cnn, 32);
  for (core::Method method : core::table1_methods()) {
    for (bool hw_noise : {false, true}) {
      const core::BuiltModel model = head_test_model(cnn, method, hw_noise);
      for (std::size_t threads : {1u, 2u}) {
        for (std::size_t mc_samples : {3u, 4u}) {
          SCOPED_TRACE(core::method_name(method) + (hw_noise ? " +hw" : "") +
                       " threads " + std::to_string(threads) + " T " +
                       std::to_string(mc_samples));
          core::EvalOptions opts = options_with_threads(threads);
          opts.mc_samples = mc_samples;
          opts.batch_size = 8;
          expect_identical(core::evaluate(model, in_dist, opts),
                           reference_evaluate(model, in_dist, opts));
          const std::vector<float> scores = core::entropy_scores(model, ood, opts);
          const std::vector<float> expected = reference_entropy_scores(model, ood, opts);
          ASSERT_EQ(scores.size(), expected.size());
          for (std::size_t i = 0; i < scores.size(); ++i) {
            ASSERT_EQ(scores[i], expected[i]) << "sample " << i;
          }
          const core::OodResult got = core::evaluate_ood(model, in_dist, ood, opts);
          const core::OodResult want = reference_ood(model, in_dist, ood, opts);
          EXPECT_EQ(got.auroc, want.auroc);
          EXPECT_EQ(got.detection_rate, want.detection_rate);
        }
      }
    }
  }
}

TEST(SharedHead, MlpMatchesFullForwardPerPass) {
  expect_shared_head_matches_full_forward(/*cnn=*/false);
}

TEST(SharedHead, CnnMatchesFullForwardPerPass) {
  expect_shared_head_matches_full_forward(/*cnn=*/true);
}

/// A BatchNorm subclass: not on the allowlist, so it must end the head
/// even though its base type is deterministic.
class DerivedBatchNorm : public nn::BatchNorm {
 public:
  using nn::BatchNorm::BatchNorm;
};

TEST(SharedHead, HeadLengthStopsAtTheFirstLayerOffTheAllowlist) {
  const auto head = [](bool cnn, core::Method method, bool hw_noise = false) {
    return core::deterministic_head_length(head_test_model(cnn, method, hw_noise).net);
  };
  // BinaryDense -> BatchNorm -> Sign | SpinDrop.
  EXPECT_EQ(head(false, core::Method::kSpinDrop), 3u);
  // BinaryConv2d -> BatchNorm -> Sign | ScaleDrop.
  EXPECT_EQ(head(true, core::Method::kSpinScaleDrop), 3u);
  // BinaryConv2d -> BatchNorm -> Sign -> MaxPool2d | SpinDrop.
  EXPECT_EQ(head(true, core::Method::kSpatialSpinDrop), 4u);
  for (bool cnn : {false, true}) {
    SCOPED_TRACE(cnn ? "cnn" : "mlp");
    // The first binary layer | AnalogReadout.
    EXPECT_EQ(head(cnn, core::Method::kSpinDrop, /*hw_noise=*/true), 1u);
    // The first binary layer | InvertedNorm.
    EXPECT_EQ(head(cnn, core::Method::kAffineDropout), 1u);
    // No stochastic layer: the whole network is the head.
    const core::BuiltModel deterministic = head_test_model(cnn, core::Method::kDeterministic,
                                                           false);
    EXPECT_EQ(core::deterministic_head_length(deterministic.net), deterministic.net.size());
  }

  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<DerivedBatchNorm>(4);
  net.emplace<nn::ReLU>();
  EXPECT_EQ(core::deterministic_head_length(net), 1u);
  nn::Sequential dropout_first;
  dropout_first.emplace<nn::Dropout>(0.5f, 1);
  dropout_first.emplace<nn::ReLU>();
  EXPECT_EQ(core::deterministic_head_length(dropout_first), 0u);
}

TEST(SharedHead, ForwardRangeComposesToTheFullForward) {
  core::BuiltModel model = head_test_model(/*cnn=*/true, core::Method::kSpatialSpinDrop,
                                           /*hw_noise=*/false);
  model.enable_mc(true);
  const nn::Tensor x = head_test_data(/*cnn=*/true, 33).batch(0, 5).first;
  model.reseed_stochastic(17);
  const nn::Tensor full = model.net.forward(x, /*training=*/false);
  model.reseed_stochastic(17);
  const nn::Tensor head = model.net.forward_range(x, 0, 4, /*training=*/false);
  const nn::Tensor tail =
      model.net.forward_range(head, 4, model.net.size(), /*training=*/false);
  ASSERT_EQ(full.shape(), tail.shape());
  for (std::size_t i = 0; i < full.numel(); ++i) {
    ASSERT_EQ(full[i], tail[i]) << "element " << i;
  }
  const nn::Tensor empty = model.net.forward_range(x, 2, 2, /*training=*/false);
  EXPECT_EQ(empty.shape(), x.shape());
  EXPECT_THROW((void)model.net.forward_range(x, 3, 2, false), std::out_of_range);
  EXPECT_THROW((void)model.net.forward_range(x, 0, model.net.size() + 1, false),
               std::out_of_range);
}

}  // namespace
