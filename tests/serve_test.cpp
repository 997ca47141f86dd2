// Serving runtime: the request path must be a pure function of
// (model, features, mc_samples, request seed) — worker count, batch
// composition and linger tuning may change only *when* a prediction
// arrives, never what it says. Plus: the i-th auto-seeded request must
// reproduce the offline core::evaluate path at batch_size 1 bit for bit,
// abstention policies must threshold correctly, and shutdown must drain
// every request exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bayesian.h"
#include "core/hw_model.h"
#include "core/models.h"
#include "core/pipeline.h"
#include "data/strokes.h"
#include "obs/export.h"
#include "serve/batcher.h"
#include "serve/policy.h"
#include "serve/runtime.h"

namespace {

using namespace neuspin;
using namespace std::chrono_literals;

nn::Dataset tiny_dataset(std::uint64_t seed, std::size_t per_class = 2) {
  data::StrokeConfig sc;
  sc.samples_per_class = per_class;
  return data::standardize_per_sample(data::make_stroke_digits_flat(sc, seed));
}

core::BuiltModel tiny_model(core::Method method = core::Method::kSpinDrop) {
  core::ModelConfig mc;
  mc.method = method;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  return core::make_binary_mlp(mc, 256, {32, 16}, 10);
}

std::vector<float> sample_row(const nn::Dataset& data, std::size_t i) {
  const nn::Tensor x = data.batch(i, i + 1).first;
  return std::vector<float>(x.data().begin(), x.data().end());
}

// ---------------------------------------------------------------- policy

TEST(SelectivePolicy, AcceptAllNeverAbstains) {
  const serve::SelectivePolicy policy(serve::PolicyConfig{});
  EXPECT_TRUE(policy.decide(0.05f, 5.0f, 3.0f).accepted);
}

TEST(SelectivePolicy, EntropyCeilingThresholds) {
  serve::PolicyConfig config;
  config.kind = serve::PolicyKind::kMaxEntropy;
  config.threshold = 1.0f;
  const serve::SelectivePolicy policy(config);
  EXPECT_TRUE(policy.decide(0.9f, 0.99f, 0.1f).accepted);
  EXPECT_FALSE(policy.decide(0.9f, 1.01f, 0.1f).accepted);
  EXPECT_EQ(policy.decide(0.9f, 0.5f, 0.1f).score, 0.5f);
}

TEST(SelectivePolicy, MutualInfoCeilingThresholds) {
  serve::PolicyConfig config;
  config.kind = serve::PolicyKind::kMaxMutualInfo;
  config.threshold = 0.2f;
  const serve::SelectivePolicy policy(config);
  EXPECT_TRUE(policy.decide(0.9f, 2.0f, 0.19f).accepted);
  EXPECT_FALSE(policy.decide(0.9f, 0.1f, 0.21f).accepted);
}

TEST(SelectivePolicy, ConfidenceFloorThresholds) {
  serve::PolicyConfig config;
  config.kind = serve::PolicyKind::kMinConfidence;
  config.threshold = 0.7f;
  const serve::SelectivePolicy policy(config);
  EXPECT_TRUE(policy.decide(0.71f, 0.0f, 0.0f).accepted);
  EXPECT_FALSE(policy.decide(0.69f, 0.0f, 0.0f).accepted);
}

TEST(SelectivePolicy, RejectsInvalidThresholds) {
  serve::PolicyConfig entropy;
  entropy.kind = serve::PolicyKind::kMaxEntropy;
  entropy.threshold = -0.1f;
  EXPECT_THROW(serve::SelectivePolicy{entropy}, std::invalid_argument);
  serve::PolicyConfig confidence;
  confidence.kind = serve::PolicyKind::kMinConfidence;
  confidence.threshold = 1.5f;
  EXPECT_THROW(serve::SelectivePolicy{confidence}, std::invalid_argument);
}

// --------------------------------------------------------------- batcher

serve::Request make_request(std::uint64_t id) {
  serve::Request r;
  r.id = id;
  r.enqueued = std::chrono::steady_clock::now();
  return r;
}

TEST(Batcher, FlushesFullBatchesInFifoOrder) {
  serve::BatcherConfig config;
  config.max_batch = 4;
  config.max_linger = 1h;  // only full batches flush in this test
  serve::Batcher batcher(config);
  for (std::uint64_t i = 0; i < 8; ++i) {
    batcher.push(make_request(i));
  }
  const auto first = batcher.pop_batch();
  const auto second = batcher.pop_batch();
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(second.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first[i].id, i);
    EXPECT_EQ(second[i].id, i + 4);
  }
}

TEST(Batcher, LingerFlushesPartialBatch) {
  serve::BatcherConfig config;
  config.max_batch = 64;
  config.max_linger = 2ms;
  serve::Batcher batcher(config);
  for (std::uint64_t i = 0; i < 3; ++i) {
    batcher.push(make_request(i));
  }
  const auto batch = batcher.pop_batch();  // blocks at most ~2ms
  EXPECT_EQ(batch.size(), 3u);
}

TEST(Batcher, BacklogIsSplitAcrossConsumers) {
  serve::BatcherConfig config;
  config.max_batch = 8;
  config.max_linger = 1h;
  config.consumers = 4;
  serve::Batcher batcher(config);
  for (std::uint64_t i = 0; i < 8; ++i) {
    batcher.push(make_request(i));
  }
  // Fair share is ceil(pending / consumers), not max_batch: 8 pending
  // across 4 consumers pops 2 at a time so idle workers get their cut.
  EXPECT_EQ(batcher.pop_batch().size(), 2u);
  EXPECT_EQ(batcher.pop_batch().size(), 2u);
  EXPECT_EQ(batcher.pop_batch().size(), 2u);
  EXPECT_EQ(batcher.pop_batch().size(), 2u);
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(Batcher, CloseDrainsRemainingThenSignalsExit) {
  serve::BatcherConfig config;
  config.max_batch = 2;
  config.max_linger = 1h;
  serve::Batcher batcher(config);
  for (std::uint64_t i = 0; i < 5; ++i) {
    batcher.push(make_request(i));
  }
  batcher.close();
  EXPECT_EQ(batcher.pop_batch().size(), 2u);
  EXPECT_EQ(batcher.pop_batch().size(), 2u);
  EXPECT_EQ(batcher.pop_batch().size(), 1u);
  EXPECT_TRUE(batcher.pop_batch().empty());
  // A rejected push fails the request's promise too, so a future already
  // handed to a client resolves with the error instead of broken_promise.
  serve::Request rejected = make_request(9);
  auto future = rejected.promise.get_future();
  EXPECT_THROW(batcher.push(std::move(rejected)), std::runtime_error);
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

// --------------------------------------------------------------- runtime

std::vector<serve::ServedPrediction> serve_all(serve::Runtime& runtime,
                                               const nn::Dataset& data,
                                               std::size_t count) {
  std::vector<std::future<serve::ServedPrediction>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i)));
  }
  std::vector<serve::ServedPrediction> out;
  out.reserve(count);
  for (auto& f : futures) {
    out.push_back(f.get());
  }
  return out;
}

// The acceptance contract: request i served online must equal sample i of
// the offline core::evaluate path at batch_size 1, bit for bit.
TEST(Runtime, MatchesOfflineEvaluatePathBitwise) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(21);
  constexpr std::size_t kRequests = 12;
  constexpr std::size_t kMcSamples = 6;
  constexpr std::uint64_t kSeed = 555;

  serve::RuntimeConfig config;
  config.workers = 3;
  config.mc_samples = kMcSamples;
  config.seed = kSeed;
  config.batcher.max_batch = 4;
  config.batcher.max_linger = 200us;
  serve::Runtime runtime(model, config);
  const auto served = serve_all(runtime, data, kRequests);

  // Offline reference 1: the real evaluate-path entry point.
  core::EvalOptions offline;
  offline.mc_samples = kMcSamples;
  offline.batch_size = 1;
  offline.threads = 1;
  offline.seed = kSeed;
  const std::vector<float> offline_entropy =
      core::entropy_scores(model, data, offline);

  // Offline reference 2: the raw Monte-Carlo loop, for the probabilities.
  core::BuiltModel reference = model.clone();
  reference.enable_mc(true);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const core::McPredictor predictor(
        kMcSamples, serve::Runtime::request_stream_seed(kSeed, i));
    const core::Prediction expected = predictor.predict(
        data.batch(i, i + 1).first,
        core::McPredictor::SeededForward(
            [&reference](const nn::Tensor& x, std::uint64_t pass_seed) {
              reference.reseed_stochastic(pass_seed);
              return reference.stochastic_logits(x);
            }));
    ASSERT_EQ(served[i].request_id, i);
    ASSERT_EQ(served[i].probs.size(), expected.mean_probs.numel());
    for (std::size_t c = 0; c < served[i].probs.size(); ++c) {
      ASSERT_EQ(served[i].probs[c], expected.mean_probs[c])
          << "request " << i << " class " << c;
    }
    ASSERT_EQ(served[i].entropy, expected.entropy.front()) << "request " << i;
    ASSERT_EQ(served[i].entropy, offline_entropy[i]) << "request " << i;
    ASSERT_EQ(served[i].mutual_info, expected.mutual_info.front());
    ASSERT_EQ(served[i].mc_samples, kMcSamples);
  }
}

TEST(Runtime, InvariantToWorkerCountAndBatching) {
  const core::BuiltModel model = tiny_model(core::Method::kSpinScaleDrop);
  const nn::Dataset data = tiny_dataset(22);
  constexpr std::size_t kRequests = 16;

  serve::RuntimeConfig serial;
  serial.workers = 1;
  serial.mc_samples = 5;
  serial.seed = 99;
  serial.batcher.max_batch = 1;
  serial.batcher.max_linger = 0us;

  serve::RuntimeConfig pooled = serial;
  pooled.workers = 4;
  pooled.batcher.max_batch = 8;
  pooled.batcher.max_linger = 2ms;

  serve::Runtime a(model, serial);
  serve::Runtime b(model, pooled);
  const auto served_a = serve_all(a, data, kRequests);
  const auto served_b = serve_all(b, data, kRequests);

  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(served_a[i].probs, served_b[i].probs) << "request " << i;
    EXPECT_EQ(served_a[i].entropy, served_b[i].entropy);
    EXPECT_EQ(served_a[i].mutual_info, served_b[i].mutual_info);
    EXPECT_EQ(served_a[i].predicted_class, served_b[i].predicted_class);
    EXPECT_EQ(served_a[i].accepted, served_b[i].accepted);
  }
}

// The same requests through deliberately different batch compositions
// (singletons, odd-sized partial batches, one big stack) and with the
// stacked tail split over a team: every configuration must serve bitwise
// identical predictions.
TEST(Runtime, InvariantToMixedBatchCompositionAndFusion) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(28);
  constexpr std::size_t kRequests = 15;

  serve::RuntimeConfig base;
  base.workers = 1;
  base.mc_samples = 4;
  base.seed = 4242;

  std::vector<serve::RuntimeConfig> configs;
  {
    serve::RuntimeConfig c = base;  // degenerate: one request per batch
    c.batcher.max_batch = 1;
    c.batcher.max_linger = 0us;
    configs.push_back(c);
  }
  {
    serve::RuntimeConfig c = base;  // odd partial batches: 15 = 4x3 + 3
    c.batcher.max_batch = 4;
    c.batcher.max_linger = 1ms;
    c.workers = 2;
    configs.push_back(c);
  }
  {
    serve::RuntimeConfig c = base;  // one big stack
    c.batcher.max_batch = 32;
    c.batcher.max_linger = 5ms;
    configs.push_back(c);
  }
  {
    serve::RuntimeConfig c = base;  // stacked tail split over a team of 2
    c.fused_workers = 2;
    c.batcher.max_batch = 8;
    c.batcher.max_linger = 1ms;
    configs.push_back(c);
  }

  std::vector<std::vector<serve::ServedPrediction>> runs;
  for (const auto& config : configs) {
    serve::Runtime runtime(model, config);
    runs.push_back(serve_all(runtime, data, kRequests));
  }
  for (std::size_t v = 1; v < runs.size(); ++v) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_EQ(runs[v][i].probs, runs[0][i].probs)
          << "variant " << v << " request " << i;
      ASSERT_EQ(runs[v][i].entropy, runs[0][i].entropy);
      ASSERT_EQ(runs[v][i].mutual_info, runs[0][i].mutual_info);
    }
  }
}

// A malformed submission sharing a fused batch with well-formed requests
// must fail alone: its group throws, the companions' group computes.
TEST(Runtime, MalformedRequestFailsWithoutPoisoningItsBatch) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(29);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  config.batcher.max_batch = 4;
  config.batcher.max_linger = 50ms;  // hold the batch open until all arrive

  serve::Runtime runtime(model, config);
  auto good0 = runtime.submit(sample_row(data, 0));
  auto bad = runtime.submit(std::vector<float>(7, 0.5f));  // wrong width
  auto good1 = runtime.submit(sample_row(data, 1));
  auto good2 = runtime.submit(sample_row(data, 2));

  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  EXPECT_EQ(good0.get().probs.size(), 10u);
  EXPECT_EQ(good1.get().probs.size(), 10u);
  EXPECT_EQ(good2.get().probs.size(), 10u);
}

// ------------------------------------------------------- observability

TEST(Runtime, AdmissionControlShedsAboveQueueBound) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(30);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  config.max_queue_depth = 2;
  // A huge linger keeps queued requests pending so submissions pile up
  // behind the bound deterministically.
  config.batcher.max_batch = 64;
  config.batcher.max_linger = 10s;

  serve::Runtime runtime(model, config);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i)));
  }
  // The first max_queue_depth submissions queue; everything beyond them is
  // shed with an immediate error (workers are parked on the linger).
  // Shutdown drains the queued ones so the harvest below cannot block on
  // the 10s linger.
  runtime.shutdown();
  std::size_t shed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::runtime_error&) {
      ++shed;
    }
  }
  EXPECT_GE(shed, 4u);
  EXPECT_EQ(runtime.stats().shed, shed);
}

TEST(Runtime, ShedResponsesCarryReasonAndRetryHint) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(36);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  config.max_queue_depth = 1;
  config.batcher.max_batch = 64;
  config.batcher.max_linger = 10s;  // park the worker so the queue fills

  serve::Runtime runtime(model, config);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i)));
  }
  runtime.shutdown();

  std::size_t queue_full = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const serve::OverloadError& e) {
      EXPECT_EQ(e.reason(), serve::ShedReason::kQueueFull);
      // Even before any completion the hint is floored at
      // max(max_linger, 100us) — a client must never busy-retry.
      EXPECT_GE(e.retry_after_us(), 100.0);
      EXPECT_GE(e.queue_depth(), config.max_queue_depth);
      ++queue_full;
    }
  }
  EXPECT_GE(queue_full, 2u);

  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.shed_queue_full, queue_full);
  EXPECT_EQ(stats.shed, stats.shed_queue_full + stats.shed_shutdown);

  // Post-shutdown submissions are typed sheds too (reason: shutdown, no
  // retry hint — retrying is pointless) and are counted separately.
  try {
    (void)runtime.submit(sample_row(data, 0));
    FAIL() << "submit after shutdown must throw";
  } catch (const serve::OverloadError& e) {
    EXPECT_EQ(e.reason(), serve::ShedReason::kShutdown);
    EXPECT_EQ(e.retry_after_us(), 0.0);
  }
  EXPECT_EQ(runtime.stats().shed_shutdown, 1u);
  EXPECT_EQ(runtime.stats().shed, queue_full + 1);
}

TEST(Runtime, FusedWorkerCountNeverChangesPredictions) {
  // The pool-parallel fused path must be invisible: any fused_workers
  // value serves bitwise-identical predictions for the same request seed.
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(37);
  std::vector<std::vector<float>> baseline;
  for (const std::size_t fused_workers : {1, 3}) {
    serve::RuntimeConfig config;
    config.workers = 1;
    config.mc_samples = 4;
    config.fused_workers = fused_workers;
    config.batcher.max_batch = 8;
    config.batcher.max_linger = 20ms;  // coalesce into real batches
    serve::Runtime runtime(model, config);
    std::vector<std::future<serve::ServedPrediction>> futures;
    for (std::size_t i = 0; i < 12; ++i) {
      futures.push_back(
          runtime.submit(sample_row(data, i), nn::mix_seed(0xf00d, i)));
    }
    std::vector<std::vector<float>> probs;
    for (auto& f : futures) {
      probs.push_back(f.get().probs);
    }
    if (baseline.empty()) {
      baseline = std::move(probs);
      continue;
    }
    ASSERT_EQ(baseline.size(), probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      ASSERT_EQ(baseline[i].size(), probs[i].size());
      for (std::size_t j = 0; j < probs[i].size(); ++j) {
        ASSERT_EQ(baseline[i][j], probs[i][j])
            << "request " << i << " class " << j << " fused_workers "
            << fused_workers;
      }
    }
  }
}

TEST(Runtime, RollingLatencyWindowReportsPercentiles) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(31);
  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 2;
  serve::Runtime runtime(model, config);
  const auto served = serve_all(runtime, data, 12);

  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_GT(stats.window_p50_us, 0.0);
  EXPECT_GE(stats.window_p99_us, stats.window_p50_us);
  // The window only ever holds latencies that were actually observed.
  double max_seen = 0.0;
  for (const auto& p : served) {
    max_seen = std::max(max_seen, p.total_latency_us);
  }
  EXPECT_LE(stats.window_p99_us, max_seen);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(Runtime, ShutdownDrainsEveryRequestExactlyOnce) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(23, 7);  // 70 samples
  constexpr std::size_t kRequests = 64;

  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 2;
  config.batcher.max_batch = 8;
  config.batcher.max_linger = 50us;
  serve::Runtime runtime(model, config);

  std::vector<std::future<serve::ServedPrediction>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i)));
  }
  runtime.shutdown();  // must serve everything queued before joining

  std::set<std::uint64_t> ids;
  for (auto& f : futures) {
    const serve::ServedPrediction p = f.get();  // throws if any was dropped
    ids.insert(p.request_id);
  }
  EXPECT_EQ(ids.size(), kRequests);
  EXPECT_EQ(runtime.stats().requests, kRequests);
  EXPECT_THROW((void)runtime.submit(sample_row(data, 0)), std::runtime_error);
}

TEST(Runtime, BehavioralEnergyIsCensusPricedAndConstantPerRequest) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(24);
  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 3;
  serve::Runtime runtime(model, config);
  const auto served = serve_all(runtime, data, 4);
  ASSERT_GT(served.front().energy_pj, 0.0);
  for (const auto& p : served) {
    EXPECT_EQ(p.energy_pj, served.front().energy_pj);
  }
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_DOUBLE_EQ(stats.total_energy_pj, 4.0 * served.front().energy_pj);
}

TEST(Runtime, AbstentionPolicyMarksRequests) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(25);
  // An impossible confidence floor of 1.0 forces abstention on every
  // (untrained, near-uniform) prediction.
  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 2;
  config.policy.kind = serve::PolicyKind::kMinConfidence;
  config.policy.threshold = 1.0f;
  serve::Runtime runtime(model, config);
  const auto served = serve_all(runtime, data, 6);
  for (const auto& p : served) {
    EXPECT_FALSE(p.accepted);
    EXPECT_EQ(p.policy_score, p.confidence);
  }
  EXPECT_EQ(runtime.stats().abstained, 6u);
}

// ------------------------------------------------------ tiled fidelity

TEST(Runtime, TiledBackendMatchesSerialTiledReference) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(26);
  constexpr std::size_t kRequests = 4;
  constexpr std::size_t kMcSamples = 3;
  constexpr std::uint64_t kSeed = 777;
  constexpr double kDropP = 0.15;

  serve::RuntimeConfig config;
  config.backend = serve::Backend::kTiled;
  config.workers = 2;
  config.mc_samples = kMcSamples;
  config.seed = kSeed;
  config.spindrop_p = kDropP;
  config.tile_seed = 42;
  serve::Runtime runtime(model, config);
  const auto served = serve_all(runtime, data, kRequests);

  core::BuiltModel staging = model.clone();
  core::TiledMlp reference(staging.net, config.tile, config.tile_seed);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const core::McPredictor predictor(
        kMcSamples, serve::Runtime::request_stream_seed(kSeed, i));
    const core::Prediction expected = predictor.predict(
        data.batch(i, i + 1).first,
        core::McPredictor::SeededForward(
            [&reference, kDropP](const nn::Tensor& x, std::uint64_t pass_seed) {
              reference.reseed(pass_seed);
              return reference.forward_spindrop(x, kDropP, nullptr);
            }));
    ASSERT_EQ(served[i].probs.size(), expected.mean_probs.numel());
    for (std::size_t c = 0; c < served[i].probs.size(); ++c) {
      ASSERT_EQ(served[i].probs[c], expected.mean_probs[c])
          << "request " << i << " class " << c;
    }
    EXPECT_EQ(served[i].entropy, expected.entropy.front());
    EXPECT_GT(served[i].energy_pj, 0.0);  // measured, not census-derived
  }
}

TEST(TiledMcEvaluator, ThreadCountInvariantIncludingLedger) {
  core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(27);
  const nn::Tensor inputs = data.batch(0, 10).first;
  xbar::TileConfig tile;

  core::TiledEvalOptions serial;
  serial.mc_samples = 4;
  serial.dropout_p = 0.15;
  serial.threads = 1;
  serial.seed = 9;
  core::TiledEvalOptions pooled = serial;
  pooled.threads = 4;

  core::BuiltModel a = model.clone();
  core::BuiltModel b = model.clone();
  core::TiledMcEvaluator eval_serial(a.net, tile, 42, serial);
  core::TiledMcEvaluator eval_pooled(b.net, tile, 42, pooled);

  energy::EnergyLedger ledger_serial;
  energy::EnergyLedger ledger_pooled;
  const core::Prediction ps = eval_serial.predict(inputs, &ledger_serial);
  const core::Prediction pp = eval_pooled.predict(inputs, &ledger_pooled);

  ASSERT_EQ(ps.mean_probs.numel(), pp.mean_probs.numel());
  for (std::size_t i = 0; i < ps.mean_probs.numel(); ++i) {
    ASSERT_EQ(ps.mean_probs[i], pp.mean_probs[i]);
  }
  for (std::size_t i = 0; i < ps.entropy.size(); ++i) {
    ASSERT_EQ(ps.entropy[i], pp.entropy[i]);
    ASSERT_EQ(ps.mutual_info[i], pp.mutual_info[i]);
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(energy::Component::kCount_);
       ++c) {
    EXPECT_EQ(ledger_serial.count(static_cast<energy::Component>(c)),
              ledger_pooled.count(static_cast<energy::Component>(c)));
  }
}

// ----------------------------------------------------- cascade fidelity

struct CascadeRun {
  std::vector<serve::ServedPrediction> served;
  serve::RuntimeStats stats;
};

CascadeRun run_backend(const core::BuiltModel& model, const nn::Dataset& data,
                       std::size_t requests, serve::Backend backend,
                       double entropy_threshold, std::size_t workers) {
  serve::RuntimeConfig config;
  config.backend = backend;
  config.workers = workers;
  config.mc_samples = 3;
  config.seed = 777;
  config.spindrop_p = 0.15;
  config.tile_seed = 42;
  config.cascade.entropy_threshold = entropy_threshold;
  serve::Runtime runtime(model, config);
  CascadeRun run;
  run.served = serve_all(runtime, data, requests);
  run.stats = runtime.stats();
  return run;
}

// The cascade determinism contract: the request seed fixes the answer — the
// escalation threshold and the worker count only pick WHICH rung's bits a
// request carries, and those bits are exactly the bits the pure
// single-fidelity runtime would have served.
TEST(Runtime, CascadeDeterministicAcrossWorkersAndMatchesRungs) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(26);
  constexpr std::size_t kRequests = 6;

  const CascadeRun cheap =
      run_backend(model, data, kRequests, serve::Backend::kBehavioral, 0.0, 1);
  const CascadeRun expensive =
      run_backend(model, data, kRequests, serve::Backend::kTiled, 0.0, 1);

  // A mid threshold that provably splits the workload: the median cheap
  // entropy escalates itself and everything above it.
  std::vector<float> entropies;
  for (const auto& p : cheap.served) {
    entropies.push_back(p.entropy);
  }
  std::sort(entropies.begin(), entropies.end());
  const double mid = entropies[kRequests / 2];

  for (const double threshold : {0.0, mid, 1e9}) {
    const CascadeRun one =
        run_backend(model, data, kRequests, serve::Backend::kCascade, threshold, 1);
    const CascadeRun three =
        run_backend(model, data, kRequests, serve::Backend::kCascade, threshold, 3);
    std::uint64_t escalated = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      // Worker-count invariance, including the escalation decision.
      ASSERT_EQ(one.served[i].escalated, three.served[i].escalated) << i;
      ASSERT_EQ(one.served[i].probs, three.served[i].probs) << i;
      ASSERT_EQ(one.served[i].entropy, three.served[i].entropy) << i;
      // Rung fidelity: an escalated answer is the tiled runtime's answer,
      // bit for bit; a non-escalated one is the behavioural runtime's.
      const auto& rung = one.served[i].escalated ? expensive : cheap;
      ASSERT_EQ(one.served[i].probs, rung.served[i].probs) << i;
      ASSERT_EQ(one.served[i].entropy, rung.served[i].entropy) << i;
      ASSERT_EQ(one.served[i].mutual_info, rung.served[i].mutual_info) << i;
      escalated += one.served[i].escalated ? 1 : 0;
    }
    EXPECT_EQ(one.stats.escalated, escalated);
    EXPECT_EQ(three.stats.escalated, escalated);
    if (threshold == 0.0) {
      // Entropy is non-negative, so threshold 0 escalates every request...
      EXPECT_EQ(escalated, kRequests);
    } else if (threshold >= 1e9) {
      // ...and an unreachable threshold escalates none.
      EXPECT_EQ(escalated, 0u);
    } else {
      EXPECT_GT(escalated, 0u);
      EXPECT_LT(escalated, kRequests);
    }
  }
}

// An escalated request pays both rungs: census-priced behavioural pass plus
// the measured electrical pass. A never-escalating cascade is priced (and
// answers) exactly like the behavioural backend.
TEST(Runtime, CascadeEnergyCombinesRungs) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(26);
  constexpr std::size_t kRequests = 3;

  const CascadeRun cheap =
      run_backend(model, data, kRequests, serve::Backend::kBehavioral, 0.0, 1);
  const CascadeRun expensive =
      run_backend(model, data, kRequests, serve::Backend::kTiled, 0.0, 1);
  const CascadeRun all =
      run_backend(model, data, kRequests, serve::Backend::kCascade, 0.0, 1);
  const CascadeRun none =
      run_backend(model, data, kRequests, serve::Backend::kCascade, 1e9, 1);

  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_GT(cheap.served[i].energy_pj, 0.0);  // census-priced
    EXPECT_DOUBLE_EQ(all.served[i].energy_pj,
                     cheap.served[i].energy_pj + expensive.served[i].energy_pj);
    EXPECT_DOUBLE_EQ(none.served[i].energy_pj, cheap.served[i].energy_pj);
    EXPECT_FALSE(none.served[i].escalated);
  }
}

TEST(CascadeBackend, ShouldEscalateGatesOnEntropyAndMargin) {
  serve::CascadeConfig config;
  config.entropy_threshold = 0.5;
  EXPECT_TRUE(serve::should_escalate(config, 0.5, 1.0));
  EXPECT_TRUE(serve::should_escalate(config, 0.9, 1.0));
  EXPECT_FALSE(serve::should_escalate(config, 0.49, 1.0));
  config.margin_threshold = 0.1;  // close top-2 race also escalates
  EXPECT_TRUE(serve::should_escalate(config, 0.1, 0.05));
  EXPECT_FALSE(serve::should_escalate(config, 0.1, 0.2));
}

// ------------------------------------------------- CNN electrical path

// The Table-I CNN runs end to end on the electrical substrate: conv stages
// through ConvTile (one MVM per output pixel), pooling/flattening as
// digital periphery, dense tail on DenseTiles.
TEST(TiledMlp, TableOneCnnRunsElectrically) {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  core::BuiltModel cnn = core::make_binary_cnn(mc);
  xbar::TileConfig tile;
  core::TiledMlp hw(cnn.net, tile, 42);
  EXPECT_EQ(hw.conv_stage_count(), 2u);
  EXPECT_EQ(hw.layer_count(), 4u);
  EXPECT_EQ(hw.out_features(), 10u);

  // Stroke digits are 16x16 flat — exactly the CNN's input plane.
  const nn::Dataset data = tiny_dataset(31, 1);
  const nn::Tensor x = data.batch(0, 1).first;
  energy::EnergyLedger ledger;
  const nn::Tensor logits = hw.forward(x, &ledger);
  ASSERT_EQ(logits.dim(0), 1u);
  ASSERT_EQ(logits.dim(1), 10u);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_TRUE(std::isfinite(logits[c]));
  }
  // Conv stages charge the ledger like real crossbar reads.
  EXPECT_GT(ledger.count(energy::Component::kXbarCellRead), 0u);
  EXPECT_GT(ledger.count(energy::Component::kAdcConversion), 0u);

  // A reseeded SpinDrop pass is a pure function of (tiles, input, p, seed),
  // and a clone carries the programmed conv stages bit for bit.
  hw.reseed(5);
  const nn::Tensor a = hw.forward_spindrop(x, 0.2, nullptr);
  core::TiledMlp copy = hw.clone();
  copy.reseed(5);
  const nn::Tensor b = copy.forward_spindrop(x, 0.2, nullptr);
  hw.reseed(5);
  const nn::Tensor c = hw.forward_spindrop(x, 0.2, nullptr);
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]);
    ASSERT_EQ(a[i], c[i]);
  }

  // The repeated passes re-drove the tiles with mostly-identical inputs;
  // the event engine must have skipped rows.
  EXPECT_GT(hw.delta_stats().skip_ratio(), 0.0);
}

// --------------------------------------------------------- observability

// The observability determinism contract: tracing and metrics read clocks,
// never RNG streams — enabling them must not change a single result bit.
TEST(Runtime, TracingOnOffPredictionsBitwiseIdentical) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(38);
  constexpr std::size_t kRequests = 10;
  std::vector<serve::ServedPrediction> baseline;
  for (const bool tracing : {false, true}) {
    serve::RuntimeConfig config;
    config.workers = 2;
    config.mc_samples = 4;
    config.batcher.max_batch = 4;
    config.batcher.max_linger = 1ms;  // coalesce into real batches
    config.trace.enabled = tracing;
    config.trace.sample_every = 1;
    serve::Runtime runtime(model, config);
    std::vector<std::future<serve::ServedPrediction>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(
          runtime.submit(sample_row(data, i), nn::mix_seed(0xace, i)));
    }
    std::vector<serve::ServedPrediction> served;
    for (auto& f : futures) {
      served.push_back(f.get());
    }
    if (!tracing) {
      baseline = std::move(served);
      continue;
    }
    ASSERT_EQ(baseline.size(), served.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      ASSERT_EQ(baseline[i].probs.size(), served[i].probs.size());
      for (std::size_t c = 0; c < served[i].probs.size(); ++c) {
        ASSERT_EQ(baseline[i].probs[c], served[i].probs[c])
            << "request " << i << " class " << c;
      }
      ASSERT_EQ(baseline[i].predicted_class, served[i].predicted_class);
      ASSERT_EQ(baseline[i].entropy, served[i].entropy);
      ASSERT_EQ(baseline[i].mutual_info, served[i].mutual_info);
      ASSERT_EQ(baseline[i].accepted, served[i].accepted);
    }
  }
}

// The same contract through the cascade (and its tiled escalation rung,
// whose per-tile spans ride the same tracer).
TEST(Runtime, CascadeTracingOnOffBitwiseIdenticalAndSpansCarryDeltaStats) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(39);
  constexpr std::size_t kRequests = 3;
  std::vector<serve::ServedPrediction> baseline;
  for (const bool tracing : {false, true}) {
    serve::RuntimeConfig config;
    config.backend = serve::Backend::kCascade;
    config.workers = 1;
    config.mc_samples = 2;
    config.spindrop_p = 0.15;
    config.cascade.entropy_threshold = 0.0;  // escalate everything
    config.trace.enabled = tracing;
    serve::Runtime runtime(model, config);
    std::vector<std::future<serve::ServedPrediction>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(
          runtime.submit(sample_row(data, i), nn::mix_seed(0xbee, i)));
    }
    std::vector<serve::ServedPrediction> served;
    for (auto& f : futures) {
      served.push_back(f.get());
    }
    if (!tracing) {
      baseline = std::move(served);
      continue;
    }
    for (std::size_t i = 0; i < served.size(); ++i) {
      ASSERT_EQ(baseline[i].probs.size(), served[i].probs.size());
      for (std::size_t c = 0; c < served[i].probs.size(); ++c) {
        ASSERT_EQ(baseline[i].probs[c], served[i].probs[c]);
      }
      EXPECT_TRUE(served[i].escalated);
    }
    // The trace covers the whole escalation chain: cascade wrapper, both
    // rungs, and the electrical path's per-tile spans with the event
    // engine's rows-skipped census attached.
    std::set<std::string> names;
    bool tile_span_has_census = false;
    for (const auto& span : runtime.tracer().spans()) {
      names.insert(span.name);
      if (span.name.rfind("tile:", 0) == 0) {
        for (const auto& [key, value] : span.args) {
          if (key == "rows_skipped" && value >= 0.0) {
            tile_span_has_census = true;
          }
        }
      }
    }
    EXPECT_TRUE(names.count("cascade"));
    EXPECT_TRUE(names.count("rung:behavioral"));
    EXPECT_TRUE(names.count("rung:tiled"));
    EXPECT_TRUE(names.count("tile:dense0"));
    EXPECT_TRUE(tile_span_has_census);
  }
}

TEST(Runtime, TraceSpansCoverRequestLifecycle) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(40);
  constexpr std::size_t kRequests = 6;
  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 2;
  config.trace.enabled = true;
  config.trace.sample_every = 1;
  serve::Runtime runtime(model, config);
  (void)serve_all(runtime, data, kRequests);
  runtime.shutdown();

  // Every request's track carries the full lifecycle: a request span
  // enclosing queue, forward and policy.
  const std::vector<obs::SpanRecord> spans = runtime.tracer().spans();
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    const std::uint64_t track = obs::Tracer::kRequestTrackBase + id;
    const obs::SpanRecord* request = nullptr;
    const obs::SpanRecord* queue = nullptr;
    const obs::SpanRecord* forward = nullptr;
    const obs::SpanRecord* policy = nullptr;
    for (const auto& span : spans) {
      if (span.track != track) {
        continue;
      }
      if (span.name == "request") request = &span;
      if (span.name == "queue") queue = &span;
      if (span.name == "forward") forward = &span;
      if (span.name == "policy") policy = &span;
    }
    ASSERT_NE(request, nullptr) << "request " << id;
    ASSERT_NE(queue, nullptr) << "request " << id;
    ASSERT_NE(forward, nullptr) << "request " << id;
    ASSERT_NE(policy, nullptr) << "request " << id;
    // Nesting: the request span contains its children; the queue interval
    // precedes the forward interval.
    EXPECT_LE(request->begin_us, queue->begin_us);
    EXPECT_LE(queue->end_us, forward->begin_us);
    EXPECT_LE(forward->end_us, request->end_us);
    EXPECT_LE(policy->begin_us, policy->end_us);
    EXPECT_LE(request->begin_us, policy->begin_us);
    EXPECT_LE(policy->end_us, request->end_us);
  }
  // Worker-track spans: every pop got a batch span, every forward a rung
  // span, and they share the worker's thread track.
  std::size_t batch_spans = 0;
  std::size_t rung_spans = 0;
  for (const auto& span : spans) {
    batch_spans += span.name == "batch" ? 1 : 0;
    rung_spans += span.name == "rung:behavioral" ? 1 : 0;
  }
  EXPECT_GE(batch_spans, 1u);
  EXPECT_GE(rung_spans, 1u);
  EXPECT_EQ(runtime.tracer().dropped(), 0u);

  // And the export is a loadable Chrome trace.
  const std::string json = runtime.tracer().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
}

TEST(Runtime, TraceSamplingGatesRequestSpans) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(41);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  config.trace.enabled = true;
  config.trace.sample_every = 2;  // even request ids only
  serve::Runtime runtime(model, config);
  (void)serve_all(runtime, data, 6);
  runtime.shutdown();
  std::size_t request_spans = 0;
  for (const auto& span : runtime.tracer().spans()) {
    if (span.name == "request") {
      ++request_spans;
      EXPECT_EQ((span.track - obs::Tracer::kRequestTrackBase) % 2, 0u);
    }
  }
  EXPECT_EQ(request_spans, 3u);  // ids 0, 2, 4
}

TEST(Runtime, MetricsRegistryExposesServeSeries) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(42);
  constexpr std::size_t kRequests = 8;
  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 2;
  serve::Runtime runtime(model, config);
  (void)serve_all(runtime, data, kRequests);

  const serve::RuntimeStats stats = runtime.stats();
  const obs::Registry& metrics = runtime.metrics();
  ASSERT_NE(metrics.find_counter("serve.requests"), nullptr);
  EXPECT_EQ(metrics.find_counter("serve.requests")->value(), kRequests);
  EXPECT_EQ(metrics.find_counter("serve.requests")->value(), stats.requests);
  EXPECT_EQ(metrics.find_counter("serve.batches")->value(), stats.batches);
  EXPECT_EQ(metrics.find_counter("serve.accepted")->value() +
                metrics.find_counter("serve.abstained")->value(),
            kRequests);
  // The batcher's instruments: one batch-size sample per non-empty pop,
  // and the queue-depth gauge drained back to zero.
  const obs::Histogram* batch_size = metrics.find_histogram("serve.batch_size");
  ASSERT_NE(batch_size, nullptr);
  EXPECT_EQ(batch_size->count(), stats.batches);
  EXPECT_DOUBLE_EQ(metrics.find_gauge("serve.queue_depth")->value(), 0.0);
  // Latency histograms: one sample per completed request, and the stats()
  // percentiles are exactly histogram reads.
  const obs::Histogram* latency =
      metrics.find_histogram("serve.latency.total_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), kRequests);
  EXPECT_DOUBLE_EQ(stats.window_p50_us, latency->quantile(0.50));
  EXPECT_DOUBLE_EQ(stats.window_p99_us, latency->quantile(0.99));
  EXPECT_GT(stats.window_p50_us, 0.0);
  // Energy: census-priced behavioural total folds into the gauge.
  EXPECT_DOUBLE_EQ(metrics.find_gauge("serve.energy_pj.total")->value(),
                   stats.total_energy_pj);
  // Exposition renders the serve series.
  const std::string prom = obs::render_prometheus(metrics);
  EXPECT_NE(prom.find("serve_requests " + std::to_string(kRequests)),
            std::string::npos);
  EXPECT_NE(prom.find("serve_latency_total_us_count"), std::string::npos);
}

TEST(Runtime, TiledBackendFoldsPerComponentEnergyIntoRegistry) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(43);
  serve::RuntimeConfig config;
  config.backend = serve::Backend::kTiled;
  config.workers = 1;
  config.mc_samples = 2;
  serve::Runtime runtime(model, config);
  (void)serve_all(runtime, data, 2);
  const obs::Registry& metrics = runtime.metrics();
  const obs::Counter* reads = metrics.find_counter("energy.events.xbar_cell_read");
  ASSERT_NE(reads, nullptr);
  EXPECT_GT(reads->value(), 0u);
  const obs::Gauge* read_pj = metrics.find_gauge("energy.pj.xbar_cell_read");
  ASSERT_NE(read_pj, nullptr);
  EXPECT_GT(read_pj->value(), 0.0);
}

TEST(TiledMcEvaluator, CnnPredictsThroughConvTiles) {
  core::ModelConfig mc;
  mc.method = core::Method::kSpinDrop;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  core::BuiltModel cnn = core::make_binary_cnn(mc);

  const nn::Dataset data = tiny_dataset(33, 1);
  const nn::Tensor inputs = data.batch(0, 2).first;
  core::TiledEvalOptions options;
  options.mc_samples = 2;
  options.dropout_p = 0.15;
  options.threads = 1;
  xbar::TileConfig tile;
  core::TiledMcEvaluator evaluator(cnn.net, tile, 42, options);
  const core::Prediction p = evaluator.predict(inputs);
  ASSERT_EQ(p.mean_probs.dim(0), 2u);
  ASSERT_EQ(p.mean_probs.dim(1), 10u);
  for (std::size_t row = 0; row < 2; ++row) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 10; ++c) {
      sum += p.mean_probs.at(row, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
    EXPECT_GE(p.entropy[row], 0.0);
  }
  EXPECT_GT(evaluator.delta_stats().rows_total, 0u);
}

}  // namespace
