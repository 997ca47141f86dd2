// Fused batched Monte-Carlo path: core::predict_fused_batch runs the
// deterministic head once on the B requests and stacks the T stochastic
// passes of the tail into one (B*T x width) forward per layer.
// Its contract — pinned here as a property over arbitrary (method, B, T,
// worker count) — is bitwise equality with the unfused per-request loop:
// every row's Prediction must equal McPredictor(T, seed_b).predict(row_b)
// on a reseeding replica, the serving runtime's batch-of-one reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/bayesian.h"
#include "core/hw_model.h"
#include "core/models.h"
#include "core/thread_pool.h"
#include "data/strokes.h"
#include "nn/model.h"

namespace {

using namespace neuspin;

nn::Dataset tiny_dataset(std::uint64_t seed, std::size_t per_class = 4) {
  data::StrokeConfig sc;
  sc.samples_per_class = per_class;
  return data::standardize_per_sample(data::make_stroke_digits_flat(sc, seed));
}

/// `hw_variation` > 0 backs SpinDrop with variation-shifted MTJ dropout
/// sources (the per-row replay path) instead of pseudo sources (the inline
/// row-mode draw).
core::BuiltModel build_model(core::Method method, bool hw_noise,
                             double hw_variation = 0.0) {
  core::ModelConfig mc;
  mc.method = method;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  mc.hw_variation = hw_variation;
  if (hw_noise) {
    mc.hw.enabled = true;
    mc.hw.quant_levels = 64;
    mc.hw.noise_fraction = 0.02f;
  }
  core::BuiltModel model = core::make_binary_mlp(mc, 256, {32, 16}, 10);
  if (method == core::Method::kSpinBayes) {
    core::convert_to_spinbayes(model, mc.spinbayes);
  }
  return model;
}

/// Unfused reference: the per-request Monte-Carlo loop every request of
/// the serving runtime used to run — optionally fanned over the pool with
/// `workers` replicas to confirm thread count does not matter either.
std::vector<core::Prediction> unfused_reference(const core::BuiltModel& model,
                                                const nn::Tensor& inputs,
                                                const std::vector<std::uint64_t>& seeds,
                                                std::size_t mc_samples,
                                                std::size_t workers) {
  std::vector<core::BuiltModel> replicas;
  std::vector<core::McPredictor::SeededForward> forwards;
  replicas.reserve(workers);
  forwards.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    replicas.push_back(model.clone());
    replicas.back().enable_mc(true);
  }
  for (auto& replica : replicas) {
    forwards.push_back([&replica](const nn::Tensor& x, std::uint64_t pass_seed) {
      replica.reseed_stochastic(pass_seed);
      return replica.stochastic_logits(x);
    });
  }
  std::vector<core::Prediction> out;
  out.reserve(inputs.dim(0));
  for (std::size_t b = 0; b < inputs.dim(0); ++b) {
    nn::Tensor row({1, inputs.dim(1)});
    for (std::size_t f = 0; f < inputs.dim(1); ++f) {
      row.at(0, f) = inputs.at(b, f);
    }
    const core::McPredictor predictor(mc_samples, seeds[b]);
    out.push_back(workers <= 1
                      ? predictor.predict(row, forwards.front())
                      : predictor.predict(row, forwards, core::ThreadPool::shared()));
  }
  return out;
}

void expect_bitwise_equal(const core::Prediction& fused,
                          const core::Prediction& reference, std::size_t row) {
  ASSERT_EQ(fused.mean_probs.numel(), reference.mean_probs.numel());
  for (std::size_t c = 0; c < fused.mean_probs.numel(); ++c) {
    ASSERT_EQ(fused.mean_probs[c], reference.mean_probs[c])
        << "row " << row << " class " << c;
  }
  ASSERT_EQ(fused.entropy.front(), reference.entropy.front()) << "row " << row;
  ASSERT_EQ(fused.mutual_info.front(), reference.mutual_info.front()) << "row " << row;
  ASSERT_EQ(fused.member_probs.size(), reference.member_probs.size());
  for (std::size_t t = 0; t < fused.member_probs.size(); ++t) {
    for (std::size_t c = 0; c < fused.member_probs[t].numel(); ++c) {
      ASSERT_EQ(fused.member_probs[t][c], reference.member_probs[t][c])
          << "row " << row << " pass " << t << " class " << c;
    }
  }
}

// ------------------------------------------------- the fused == unfused ----

// GoogleTest prints a parameter without a PrintTo as its raw bytes, and
// CTest names each case after that print. The six bytes after `hw_noise` are
// therefore an explicit zeroed field rather than padding, whose indeterminate
// contents would make the case names change from build to build.
struct FusedCase {
  FusedCase(core::Method method_, bool hw_noise_, std::size_t batch_,
            std::size_t mc_samples_, std::size_t workers_)
      : method(method_), hw_noise(hw_noise_), batch(batch_), mc_samples(mc_samples_),
        workers(workers_) {}

  core::Method method;
  bool hw_noise;
  std::uint8_t zero_fill[6] = {};
  std::size_t batch;
  std::size_t mc_samples;
  std::size_t workers;
};
static_assert(std::has_unique_object_representations_v<FusedCase>,
              "FusedCase must have no padding bytes");

void expect_fused_matches_unfused(const FusedCase& c, double hw_variation = 0.0) {
  const core::BuiltModel model = build_model(c.method, c.hw_noise, hw_variation);
  const nn::Dataset data = tiny_dataset(31);
  ASSERT_GE(data.size(), c.batch);
  const nn::Tensor inputs = data.batch(0, c.batch).first;

  std::vector<std::uint64_t> seeds(c.batch);
  for (std::size_t b = 0; b < c.batch; ++b) {
    seeds[b] = nn::mix_seed(0xfeed, b);
  }

  core::BuiltModel fused_model = model.clone();
  fused_model.enable_mc(true);
  const std::vector<core::Prediction> fused =
      core::predict_fused_batch(fused_model, inputs, seeds, c.mc_samples);
  const std::vector<core::Prediction> reference =
      unfused_reference(model, inputs, seeds, c.mc_samples, c.workers);

  ASSERT_EQ(fused.size(), c.batch);
  for (std::size_t b = 0; b < c.batch; ++b) {
    expect_bitwise_equal(fused[b], reference[b], b);
  }

  // Pool-partitioned fused path: a team of c.workers clones splitting the
  // stacked rows into contiguous partitions over the shared pool must
  // reproduce the same bits — the partition is invisible in the results.
  std::vector<core::BuiltModel> team;
  team.reserve(c.workers);
  for (std::size_t w = 0; w < c.workers; ++w) {
    team.push_back(model.clone());
    team.back().enable_mc(true);
  }
  const std::vector<core::Prediction> pooled = core::predict_fused_batch(
      std::span<core::BuiltModel>(team), inputs, seeds, c.mc_samples);
  ASSERT_EQ(pooled.size(), c.batch);
  for (std::size_t b = 0; b < c.batch; ++b) {
    expect_bitwise_equal(pooled[b], reference[b], b);
  }
}

class FusedMatchesUnfused : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedMatchesUnfused, BitwiseAcrossBatchSamplesAndWorkers) {
  expect_fused_matches_unfused(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndShapes, FusedMatchesUnfused,
    ::testing::Values(
        FusedCase{core::Method::kSpinDrop, false, 1, 1, 1},
        FusedCase{core::Method::kSpinDrop, false, 7, 5, 1},
        FusedCase{core::Method::kSpinDrop, false, 16, 8, 4},
        FusedCase{core::Method::kSpinDrop, true, 6, 4, 2},
        FusedCase{core::Method::kSpatialSpinDrop, false, 5, 6, 3},
        FusedCase{core::Method::kSpinScaleDrop, false, 9, 4, 2},
        FusedCase{core::Method::kSpinScaleDrop, true, 4, 3, 1},
        FusedCase{core::Method::kAffineDropout, false, 8, 5, 2},
        FusedCase{core::Method::kSubsetVi, false, 6, 7, 3},
        FusedCase{core::Method::kSpinBayes, false, 10, 4, 2},
        // No stochastic layer: the head is the whole network and the
        // stacked tail is empty.
        FusedCase{core::Method::kDeterministic, false, 5, 4, 3}));

// SpinDrop backed by MTJ modules keeps the per-row replay (reseed every
// module, sample each unit, charge the ledger) while pseudo pools draw
// inline; the MTJ path has to hold the same contract at B > 1, T > 1 and
// more than one worker.
TEST(FusedMtjSources, BitwiseAcrossBatchSamplesAndWorkers) {
  for (const FusedCase& c : {FusedCase{core::Method::kSpinDrop, false, 7, 5, 3},
                             FusedCase{core::Method::kSpinDrop, true, 4, 6, 2},
                             FusedCase{core::Method::kSpatialSpinDrop, false, 6, 4, 2}}) {
    SCOPED_TRACE("method " + std::to_string(static_cast<int>(c.method)) + ", B=" +
                 std::to_string(c.batch) + ", T=" + std::to_string(c.mc_samples) +
                 ", workers=" + std::to_string(c.workers));
    expect_fused_matches_unfused(c, /*hw_variation=*/2.0);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A fused batch must also be insensitive to its companions: serving the
// same row inside different stacks may never change its prediction.
TEST(FusedBatch, RowResultsAreCompositionInvariant) {
  const core::BuiltModel model = build_model(core::Method::kSpinDrop, false);
  const nn::Dataset data = tiny_dataset(33);
  const nn::Tensor inputs = data.batch(0, 12).first;
  std::vector<std::uint64_t> seeds(12);
  for (std::size_t b = 0; b < 12; ++b) {
    seeds[b] = nn::mix_seed(0xabc, b);
  }

  core::BuiltModel all_model = model.clone();
  all_model.enable_mc(true);
  const auto all = core::predict_fused_batch(all_model, inputs, seeds, 5);

  // Same rows, sliced into two unequal stacks.
  for (const auto& [begin, end] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 5}, {5, 12}}) {
    const nn::Tensor part = data.batch(begin, end).first;
    std::vector<std::uint64_t> part_seeds(seeds.begin() + begin, seeds.begin() + end);
    core::BuiltModel part_model = model.clone();
    part_model.enable_mc(true);
    const auto sliced =
        core::predict_fused_batch(part_model, part, part_seeds, 5);
    for (std::size_t b = begin; b < end; ++b) {
      expect_bitwise_equal(sliced[b - begin], all[b], b);
    }
  }
}

// Oversized teams (more members than stacked rows) must cap their chunk
// count instead of handing empty partitions to clones, and still match.
TEST(FusedBatch, TeamLargerThanStackStillMatches) {
  const core::BuiltModel model = build_model(core::Method::kSpinDrop, false);
  const nn::Dataset data = tiny_dataset(36);
  const std::size_t batch = 3;
  const std::size_t mc_samples = 2;
  const nn::Tensor inputs = data.batch(0, batch).first;
  std::vector<std::uint64_t> seeds(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    seeds[b] = nn::mix_seed(0xbee, b);
  }
  const std::vector<core::Prediction> reference =
      unfused_reference(model, inputs, seeds, mc_samples, 1);

  // 16 members (more than the 6 stacked rows) and 4 members (a ragged
  // ceil partition of 6: chunk sizes 2,2,2 and an empty tail chunk) both
  // exercise the partition edge cases.
  for (const std::size_t team_size : {16, 4}) {
    std::vector<core::BuiltModel> team;
    for (std::size_t w = 0; w < team_size; ++w) {
      team.push_back(model.clone());
      team.back().enable_mc(true);
    }
    const auto pooled = core::predict_fused_batch(std::span<core::BuiltModel>(team),
                                                  inputs, seeds, mc_samples);
    ASSERT_EQ(pooled.size(), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      expect_bitwise_equal(pooled[b], reference[b], b);
    }
  }
}

TEST(FusedBatch, RejectsBadArguments) {
  const std::vector<std::uint64_t> team_seeds{1, 2};
  const nn::Tensor team_inputs({2, 4}, 1.0f);
  EXPECT_THROW((void)core::predict_fused_batch(std::span<core::BuiltModel>{},
                                               team_inputs, team_seeds, 3),
               std::invalid_argument);
  core::BuiltModel model = build_model(core::Method::kSpinDrop, false);
  model.enable_mc(true);
  const nn::Dataset data = tiny_dataset(34, 1);
  const nn::Tensor inputs = data.batch(0, 2).first;
  const std::vector<std::uint64_t> seeds{1, 2};
  EXPECT_THROW((void)core::predict_fused_batch(model, inputs, seeds, 0),
               std::invalid_argument);
  const std::vector<std::uint64_t> short_seeds{1};
  EXPECT_THROW((void)core::predict_fused_batch(model, inputs, short_seeds, 3),
               std::invalid_argument);
}

// ------------------------------------------------------ tile cloning ----

TEST(TiledClone, CloneServesIdenticalPredictions) {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.seed = 7;
  core::BuiltModel model = core::make_binary_mlp(mc, 256, {16}, 10);
  const nn::Dataset data = tiny_dataset(35, 1);
  const nn::Tensor inputs = data.batch(0, 3).first;

  xbar::TileConfig tile;
  tile.read_noise_sigma = 0.01;  // exercise the stochastic electrical path
  core::BuiltModel staging = model.clone();
  core::TiledMlp original(staging.net, tile, 42);
  // Mutate post-construction state too: injected defects must survive the
  // copy (a rebuild from the seed would lose them).
  device::DefectRates rates;
  rates.stuck_at_p = 0.01;
  original.inject_defects(rates, 5);
  core::TiledMlp copy = original.clone();

  for (std::size_t pass = 0; pass < 3; ++pass) {
    original.reseed(100 + pass);
    copy.reseed(100 + pass);
    const nn::Tensor a = original.forward_spindrop(inputs, 0.2, nullptr);
    const nn::Tensor b = copy.forward_spindrop(inputs, 0.2, nullptr);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "pass " << pass << " element " << i;
    }
  }
}

}  // namespace
