// Robustness contracts (fault-tolerant serving + resumable training):
//
//  * nn::checkpoint rejects truncated / mangled / wrong-shape files with a
//    typed CheckpointError and NEVER half-loads a model.
//  * train::Trainer kill-and-resume is bitwise identical to the
//    uninterrupted run — final weights, optimizer moments, RNG streams —
//    across the {shards} x {workers} grid, including mid-epoch preemption.
//  * Deterministic fault injection: the fault schedule is a pure function
//    of (plan seed, forward ticket); a crashed worker's batch re-queues
//    exactly once and every completed answer matches the fault-free run's
//    bits per request seed (zero requests lost).
//  * Deadlines fail late requests typed BEFORE any forward work; the
//    retry helper backs off on kQueueFull and never retries kShutdown.
//  * Supervision rescues batches off stalled workers; the worker's
//    backend is re-cloned; nothing is answered twice.
//  * The cascade's circuit breaker degrades to the cheap rung (flagged)
//    under a failing expensive rung and recovers through half-open probes.
//  * Graceful-drain shutdown: drain=false sheds the backlog typed; a
//    drain timeout bounds the wait.
//  * Mid-serving inject_defects keeps event-driven and full tile
//    evaluation bitwise locked on live TiledBackends.
//  * Self-healing (serve::HealthConfig + xbar/health.h): a seeded defect
//    burst is detected by a scheduled canary probe within one probe
//    cadence, quarantined (cascade rung degraded, flagged) and healed by
//    spare-line remap — zero requests lost, post-heal answers bitwise
//    equal to the fault-free run.
//  * Graceful drain stays accountable under active chaos: every future
//    settles exactly once, shed futures carry the typed shutdown error,
//    and the drain timeout bounds the wall-clock wait.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fidelity.h"
#include "core/models.h"
#include "core/spindrop.h"
#include "data/strokes.h"
#include "device/defects.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "serve/backend.h"
#include "serve/batcher.h"
#include "serve/fault.h"
#include "serve/policy.h"
#include "serve/runtime.h"
#include "train/trainer.h"
#include "xbar/tile.h"

namespace {

using namespace neuspin;
using namespace std::chrono_literals;

// ------------------------------------------------------------- helpers ----

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "neuspin_robustness_" + name;
}

/// Snapshot every learnable scalar (bit pattern) of a model.
std::vector<std::uint32_t> param_bits(nn::Sequential& model) {
  std::vector<std::uint32_t> bits;
  for (const auto& p : model.parameters()) {
    for (std::size_t i = 0; i < p.value->numel(); ++i) {
      bits.push_back(std::bit_cast<std::uint32_t>((*p.value)[i]));
    }
  }
  for (nn::Tensor* t : model.state_tensors()) {
    for (std::size_t i = 0; i < t->numel(); ++i) {
      bits.push_back(std::bit_cast<std::uint32_t>((*t)[i]));
    }
  }
  return bits;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Small deterministic classification dataset.
nn::Dataset make_dataset(std::size_t samples, std::size_t features,
                         std::size_t classes, std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  nn::Dataset data;
  data.inputs = nn::Tensor::randn({samples, features}, 1.0f, engine);
  data.labels.resize(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    data.labels[i] = i % classes;
    data.inputs.at(i, data.labels[i] % features) += 2.0f;
  }
  return data;
}

/// MLP with every checkpointable stochastic flavour: per-sample masks
/// (Dropout, SpinDrop), batch-norm running statistics, and the layers'
/// own training engines.
nn::Sequential make_stochastic_mlp(std::size_t features, std::size_t classes,
                                   std::uint64_t seed) {
  std::mt19937_64 engine(seed);
  nn::Sequential model;
  model.emplace<nn::Dense>(features, 16, engine);
  model.emplace<nn::BatchNorm>(16);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dropout>(0.25f, seed + 1);
  model.add(core::make_pseudo_spindrop(core::DropGranularity::kNeuron, 16, 0.2,
                                       seed + 2));
  model.emplace<nn::Dense>(16, classes, engine);
  return model;
}

core::BuiltModel tiny_model(core::Method method = core::Method::kSpinDrop) {
  core::ModelConfig mc;
  mc.method = method;
  mc.seed = 7;
  mc.dropout_p = 0.2;
  return core::make_binary_mlp(mc, 256, {32, 16}, 10);
}

nn::Dataset tiny_dataset(std::uint64_t seed, std::size_t per_class = 2) {
  data::StrokeConfig sc;
  sc.samples_per_class = per_class;
  return data::standardize_per_sample(data::make_stroke_digits_flat(sc, seed));
}

std::vector<float> sample_row(const nn::Dataset& data, std::size_t i) {
  const nn::Tensor x = data.batch(i, i + 1).first;
  return std::vector<float>(x.data().begin(), x.data().end());
}

// ------------------------------------------------ checkpoint hardening ----

TEST(CheckpointHardening, TruncatedFileThrowsTypedAndLeavesModelIntact) {
  nn::Sequential model = make_stochastic_mlp(8, 3, 11);
  const std::string path = temp_path("trunc.nsp");
  nn::save_checkpoint(model, path);
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  write_file(path, bytes.substr(0, bytes.size() / 2));

  nn::Sequential victim = make_stochastic_mlp(8, 3, 12);  // different bits
  const auto before = param_bits(victim);
  try {
    nn::load_checkpoint(victim, path);
    FAIL() << "truncated checkpoint must throw";
  } catch (const nn::CheckpointError& error) {
    EXPECT_EQ(error.fault(), nn::CheckpointFault::kTruncated)
        << nn::checkpoint_fault_name(error.fault());
  }
  EXPECT_EQ(param_bits(victim), before)
      << "failed load must not mutate the model (all-or-nothing)";
  std::remove(path.c_str());
}

TEST(CheckpointHardening, BadMagicThrowsTyped) {
  nn::Sequential model = make_stochastic_mlp(8, 3, 11);
  const std::string path = temp_path("magic.nsp");
  nn::save_checkpoint(model, path);
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 2u);
  bytes[0] = 'X';
  bytes[1] = 'X';
  write_file(path, bytes);
  try {
    nn::load_checkpoint(model, path);
    FAIL() << "mangled magic must throw";
  } catch (const nn::CheckpointError& error) {
    EXPECT_EQ(error.fault(), nn::CheckpointFault::kBadMagic);
  }
  std::remove(path.c_str());
}

TEST(CheckpointHardening, WrongShapeThrowsTypedAndLeavesModelIntact) {
  nn::Sequential narrow = make_stochastic_mlp(8, 3, 11);
  const std::string path = temp_path("shape.nsp");
  nn::save_checkpoint(narrow, path);

  nn::Sequential wide = make_stochastic_mlp(12, 3, 11);  // same depth, wider
  const auto before = param_bits(wide);
  try {
    nn::load_checkpoint(wide, path);
    FAIL() << "shape mismatch must throw";
  } catch (const nn::CheckpointError& error) {
    EXPECT_EQ(error.fault(), nn::CheckpointFault::kShapeMismatch);
  }
  EXPECT_EQ(param_bits(wide), before);
  std::remove(path.c_str());
}

TEST(CheckpointHardening, MissingFileThrowsIo) {
  nn::Sequential model = make_stochastic_mlp(8, 3, 11);
  try {
    nn::load_checkpoint(model, temp_path("does_not_exist.nsp"));
    FAIL() << "missing file must throw";
  } catch (const nn::CheckpointError& error) {
    EXPECT_EQ(error.fault(), nn::CheckpointFault::kIo);
  }
}

// ------------------------------------------------- resumable training ----

/// Train under `config`, killed after `preempt_steps` optimizer steps and
/// resumed from the checkpoint in a FRESH trainer + model (the killed
/// process's objects are destroyed). Returns the resumed model's final
/// bits; writes the final trainer snapshot to `final_snapshot`.
std::vector<std::uint32_t> killed_and_resumed_bits(
    const train::TrainerConfig& config, const nn::Dataset& data,
    std::uint64_t model_seed, std::size_t preempt_steps,
    const std::string& final_snapshot) {
  const std::string ckpt = temp_path("resume.trn");
  {
    nn::Sequential model =
        make_stochastic_mlp(data.inputs.dim(1), 3, model_seed);
    train::Trainer trainer(model, config);
    std::size_t steps = 0;
    trainer.set_preemption_check(
        [&steps, preempt_steps] { return ++steps >= preempt_steps; });
    (void)trainer.fit(data);
    EXPECT_TRUE(trainer.preempted());
    trainer.save(ckpt);
  }  // the "killed" process
  nn::Sequential model = make_stochastic_mlp(data.inputs.dim(1), 3, model_seed);
  train::Trainer trainer(model, config);
  trainer.restore(ckpt);
  (void)trainer.fit(data);
  EXPECT_FALSE(trainer.preempted());
  trainer.save(final_snapshot);
  std::remove(ckpt.c_str());
  return param_bits(model);
}

TEST(ResumableTraining, KillAndResumeBitwiseAcrossShardAndWorkerGrid) {
  const nn::Dataset data = make_dataset(30, 12, 3, 5);
  for (const std::size_t shards : std::array<std::size_t, 3>{1, 2, 5}) {
    for (const std::size_t workers : std::array<std::size_t, 2>{1, 4}) {
      train::TrainerConfig config;
      config.epochs = 2;
      config.batch_size = 8;  // 4 steps per epoch, ragged tail included
      config.shards = shards;
      config.workers = workers;
      config.shuffle_seed = 21;

      nn::Sequential reference = make_stochastic_mlp(12, 3, 33);
      train::Trainer uninterrupted(reference, config);
      (void)uninterrupted.fit(data);
      const std::string ref_snapshot = temp_path("ref.trn");
      uninterrupted.save(ref_snapshot);

      // Preempt after 5 steps: one full epoch (4 steps) plus one step into
      // the second — exercises the mid-epoch cursor, the partial epoch
      // stats and the cumulative shuffle order.
      const std::string resumed_snapshot = temp_path("resumed.trn");
      const auto resumed =
          killed_and_resumed_bits(config, data, 33, 5, resumed_snapshot);
      EXPECT_EQ(resumed, param_bits(reference))
          << "shards=" << shards << " workers=" << workers;
      // The snapshot files cover what param_bits cannot see: Adam moments
      // and step count, every RNG stream, the shuffle order. Byte-equal
      // files == bitwise-equal complete training state.
      EXPECT_EQ(read_file(resumed_snapshot), read_file(ref_snapshot))
          << "shards=" << shards << " workers=" << workers;
      std::remove(ref_snapshot.c_str());
      std::remove(resumed_snapshot.c_str());
    }
  }
}

TEST(ResumableTraining, RestoreRejectsConfigFingerprintMismatch) {
  const nn::Dataset data = make_dataset(16, 8, 3, 5);
  train::TrainerConfig config;
  config.epochs = 1;
  config.batch_size = 8;
  nn::Sequential model = make_stochastic_mlp(8, 3, 3);
  train::Trainer trainer(model, config);
  (void)trainer.fit(data);
  const std::string path = temp_path("fingerprint.trn");
  trainer.save(path);

  train::TrainerConfig other = config;
  other.lr = config.lr * 2.0f;  // a numeric knob: it defines the bits
  nn::Sequential victim = make_stochastic_mlp(8, 3, 3);
  train::Trainer mismatched(victim, other);
  try {
    mismatched.restore(path);
    FAIL() << "restore under a different numeric config must throw";
  } catch (const nn::CheckpointError& error) {
    EXPECT_EQ(error.fault(), nn::CheckpointFault::kBadHeader);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------- fault injection ----

TEST(FaultInjector, ScheduleIsPureFunctionOfSeedAndTicket) {
  serve::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 99;
  plan.crash_p = 0.2;
  plan.stall_p = 0.2;
  plan.defect_p = 0.1;
  plan.warmup = 3;
  plan.stop_after = 40;
  serve::FaultInjector a(plan);
  serve::FaultInjector b(plan);
  bool any_fault = false;
  for (int i = 0; i < 64; ++i) {
    const auto da = a.next();
    const auto db = b.next();
    EXPECT_EQ(da.ticket, db.ticket);
    EXPECT_EQ(static_cast<int>(da.action), static_cast<int>(db.action));
    EXPECT_EQ(da.burst_seed, db.burst_seed);
    if (da.ticket < plan.warmup || da.ticket >= plan.stop_after) {
      EXPECT_EQ(static_cast<int>(da.action),
                static_cast<int>(serve::FaultInjector::Action::kNone))
          << "warmup/stop_after tickets never fault";
    }
    any_fault |= da.action != serve::FaultInjector::Action::kNone;
  }
  EXPECT_TRUE(any_fault);
  EXPECT_EQ(a.tickets(), 64u);
  EXPECT_EQ(a.crashes(), b.crashes());
  EXPECT_EQ(a.stalls(), b.stalls());
  EXPECT_EQ(a.bursts(), b.bursts());
}

TEST(FaultInjector, RejectsInvalidPlans) {
  serve::FaultPlan plan;
  plan.crash_p = 0.8;
  plan.stall_p = 0.3;  // sums above 1
  EXPECT_THROW(serve::FaultInjector{plan}, std::invalid_argument);
}

// ------------------------------------------------------------ batcher ----

TEST(Batcher, RequeuePreservesOrderAndWorksAfterClose) {
  serve::BatcherConfig config;
  config.max_batch = 8;
  config.max_linger = 0us;
  serve::Batcher batcher(config);
  for (std::uint64_t id = 0; id < 3; ++id) {
    serve::Request request;
    request.id = id;
    request.enqueued = std::chrono::steady_clock::now();
    batcher.push(std::move(request));
  }
  std::vector<serve::Request> batch = batcher.pop_batch();
  ASSERT_EQ(batch.size(), 3u);
  batcher.close();
  batcher.requeue(std::move(batch));  // admitted requests outlive close()
  std::vector<serve::Request> again = batcher.pop_batch();
  ASSERT_EQ(again.size(), 3u);
  for (std::uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(again[id].id, id) << "requeue must preserve FIFO order";
  }
  EXPECT_TRUE(batcher.pop_batch().empty()) << "closed and drained";
}

TEST(Batcher, ShedPendingEmptiesTheQueue) {
  serve::Batcher batcher(serve::BatcherConfig{});
  for (std::uint64_t id = 0; id < 4; ++id) {
    serve::Request request;
    request.id = id;
    request.enqueued = std::chrono::steady_clock::now();
    batcher.push(std::move(request));
  }
  std::vector<serve::Request> shed = batcher.shed_pending();
  EXPECT_EQ(shed.size(), 4u);
  EXPECT_EQ(batcher.pending(), 0u);
}

// ----------------------------------------------------- crash recovery ----

TEST(Runtime, CrashedBatchIsRequeuedOnceAndCompletesWithFaultFreeBits) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(31);
  constexpr std::size_t kRequests = 3;
  constexpr std::uint64_t kSeed = 4242;

  serve::RuntimeConfig clean;
  clean.workers = 1;
  clean.mc_samples = 4;
  clean.seed = kSeed;
  std::vector<std::vector<float>> reference;
  {
    serve::Runtime runtime(model, clean);
    for (std::size_t i = 0; i < kRequests; ++i) {
      reference.push_back(runtime.predict(sample_row(data, i)).probs);
    }
  }

  serve::RuntimeConfig chaotic = clean;
  chaotic.batcher.max_linger = 20ms;  // coalesce all three into one batch
  chaotic.fault.enabled = true;
  chaotic.fault.seed = 1;
  chaotic.fault.crash_p = 1.0;
  chaotic.fault.stop_after = 1;  // ONLY forward ticket 0 crashes
  serve::Runtime runtime(model, chaotic);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.submit(
        sample_row(data, i), serve::Runtime::request_stream_seed(kSeed, i)));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::ServedPrediction served = futures[i].get();  // must not throw
    EXPECT_EQ(served.probs, reference[i])
        << "retried request " << i << " must carry the fault-free bits";
  }
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.requeued, 1u) << "the crashed batch re-queues";
  EXPECT_GE(stats.worker_restarts, 1u) << "the crashed worker re-clones";
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_GE(runtime.metrics().counter("serve.fault.crashes").value(), 1u);
}

TEST(Runtime, SeededChaosLosesNoRequestAndCompletedBitsMatchFaultFree) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(32, 3);
  constexpr std::size_t kRequests = 24;
  constexpr std::uint64_t kSeed = 777;

  serve::RuntimeConfig clean;
  clean.workers = 2;
  clean.mc_samples = 3;
  clean.seed = kSeed;
  std::vector<std::vector<float>> reference;
  {
    serve::Runtime runtime(model, clean);
    for (std::size_t i = 0; i < kRequests; ++i) {
      reference.push_back(
          runtime
              .submit(sample_row(data, i % data.size()),
                      serve::Runtime::request_stream_seed(kSeed, i))
              .get()
              .probs);
    }
  }

  serve::RuntimeConfig chaotic = clean;
  chaotic.fault.enabled = true;
  chaotic.fault.crash_p = 0.25;
  chaotic.fault.stall_p = 0.15;
  chaotic.fault.stall = 2ms;
  // Batch composition (and so the tickets a given request draws) is a
  // scheduling accident, but the schedule per ticket is not: pick a plan
  // seed whose ticket 0 crashes, so the run deterministically exercises
  // the re-queue path no matter how the batches form.
  chaotic.fault.seed = 0;
  for (std::uint64_t s = 1; s < 256; ++s) {
    serve::FaultPlan probe_plan = chaotic.fault;
    probe_plan.seed = s;
    serve::FaultInjector probe(probe_plan);
    if (probe.next().action == serve::FaultInjector::Action::kCrash) {
      chaotic.fault.seed = s;
      break;
    }
  }
  ASSERT_NE(chaotic.fault.seed, 0u);

  serve::Runtime runtime(model, chaotic);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.submit(
        sample_row(data, i % data.size()),
        serve::Runtime::request_stream_seed(kSeed, i)));
  }
  std::size_t completed = 0;
  std::size_t failed_typed = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    try {
      const serve::ServedPrediction served = futures[i].get();
      EXPECT_EQ(served.probs, reference[i])
          << "request " << i
          << " completed with bits differing from the fault-free run";
      ++completed;
    } catch (const std::runtime_error&) {
      // A request whose first attempt AND retry both drew crash tickets
      // fails typed. Allowed — but never silent: every future settles,
      // nothing hangs, nothing is answered twice.
      ++failed_typed;
    }
  }
  EXPECT_EQ(completed + failed_typed, kRequests) << "zero requests lost";
  EXPECT_GT(completed, 0u);
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.requests, completed);
  EXPECT_GE(stats.requeued, 1u) << "ticket 0 crashes by seed selection";
  EXPECT_GE(stats.worker_restarts, 1u);
}

// -------------------------------------------------- deadlines + retry ----

TEST(Runtime, ExpiredDeadlineFailsTypedBeforeForwardWork) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(33);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 3;
  config.batcher.max_linger = 5ms;
  serve::Runtime runtime(model, config);

  auto late = runtime.submit(sample_row(data, 0), 7, 1us);
  try {
    (void)late.get();
    FAIL() << "a 1us deadline must expire in the queue";
  } catch (const serve::DeadlineExceeded& error) {
    EXPECT_EQ(error.request_id(), 0u);
    EXPECT_GT(error.overrun_us(), 0.0);
  }
  // An undeadlined companion is unaffected.
  const serve::ServedPrediction ok =
      runtime.submit(sample_row(data, 1), 8).get();
  EXPECT_FALSE(ok.probs.empty());
  EXPECT_EQ(runtime.stats().deadline_expired, 1u);
}

TEST(Runtime, PredictWithRetryBacksOffQueueFullAndSucceeds) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(34);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 3;
  config.max_queue_depth = 1;
  config.batcher.max_linger = 20ms;
  std::vector<float> expected;
  {
    serve::RuntimeConfig fast = config;
    fast.max_queue_depth = 0;
    fast.batcher.max_linger = 200us;
    serve::Runtime reference(model, fast);
    expected = reference.submit(sample_row(data, 1), 1234).get().probs;
  }

  serve::Runtime runtime(model, config);
  // The blocker fills the depth-1 queue and lingers for up to 20ms.
  auto blocker = runtime.submit(sample_row(data, 0), 5678);
  serve::RetryPolicy policy;
  policy.max_attempts = 8;
  const serve::ServedPrediction served =
      serve::predict_with_retry(runtime, sample_row(data, 1), 1234, policy);
  EXPECT_EQ(served.probs, expected)
      << "the retried answer must carry the exact no-shed bits";
  (void)blocker.get();
  EXPECT_GE(runtime.stats().shed_queue_full, 1u);
  EXPECT_GE(runtime.metrics().counter("serve.retry.attempts").value(), 1u);
}

TEST(Runtime, PredictWithRetryNeverRetriesShutdown) {
  const core::BuiltModel model = tiny_model();
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  serve::Runtime runtime(model, config);
  runtime.shutdown();
  const std::vector<float> features(256, 0.0f);
  try {
    (void)serve::predict_with_retry(runtime, features, 1);
    FAIL() << "kShutdown must propagate immediately";
  } catch (const serve::OverloadError& error) {
    EXPECT_EQ(error.reason(), serve::ShedReason::kShutdown);
  }
}

// ------------------------------------------------------ input contract ----

void expect_rejected_at(std::future<serve::ServedPrediction>& future,
                        std::size_t feature) {
  try {
    (void)future.get();
    FAIL() << "a non-finite feature must fail the request";
  } catch (const std::invalid_argument& error) {
    const std::string expected = "feature " + std::to_string(feature) + " is not finite";
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
}

/// NaN and infinite features fail their request at submission, naming the
/// first such feature, and leave a finite request of the same burst with
/// the bits it gets when served alone.
void expect_non_finite_rejected(serve::Backend backend) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(37);
  serve::RuntimeConfig config;
  config.backend = backend;
  config.workers = 1;
  config.mc_samples = 3;
  config.batcher.max_batch = 8;
  config.batcher.max_linger = 5ms;

  const std::vector<float> good = sample_row(data, 0);
  constexpr std::uint64_t kGoodSeed = 77;
  std::vector<float> reference;
  {
    serve::Runtime alone(model, config);
    reference = alone.submit(good, kGoodSeed).get().probs;
  }

  const std::vector<float> all_nan(good.size(), std::numeric_limits<float>::quiet_NaN());
  std::vector<float> pos_inf = good;
  pos_inf[5] = std::numeric_limits<float>::infinity();
  std::vector<float> neg_inf = good;
  neg_inf[200] = -std::numeric_limits<float>::infinity();

  serve::Runtime runtime(model, config);
  auto nan_future = runtime.submit(all_nan, 1);
  auto good_future = runtime.submit(good, kGoodSeed);
  auto pos_future = runtime.submit(pos_inf, 2);
  auto neg_future = runtime.submit(neg_inf, 3);
  expect_rejected_at(nan_future, 0);
  expect_rejected_at(pos_future, 5);
  expect_rejected_at(neg_future, 200);
  EXPECT_EQ(good_future.get().probs, reference);
  EXPECT_EQ(runtime.metrics().counter("serve.rejected_input").value(), 3u);
  EXPECT_EQ(runtime.stats().shed, 0u);
}

TEST(InputContract, NonFiniteFeaturesFailBeforeAdmissionBehavioral) {
  expect_non_finite_rejected(serve::Backend::kBehavioral);
}

TEST(InputContract, NonFiniteFeaturesFailBeforeAdmissionCascade) {
  expect_non_finite_rejected(serve::Backend::kCascade);
}

// -------------------------------------------------------- supervision ----

TEST(Runtime, SupervisorRescuesStalledWorkerBatch) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(35);
  constexpr std::uint64_t kSeed = 606;
  serve::RuntimeConfig clean;
  clean.workers = 1;
  clean.mc_samples = 3;
  clean.seed = kSeed;
  std::vector<std::vector<float>> reference;
  {
    serve::Runtime runtime(model, clean);
    for (std::size_t i = 0; i < 2; ++i) {
      reference.push_back(
          runtime
              .submit(sample_row(data, i),
                      serve::Runtime::request_stream_seed(kSeed, i))
              .get()
              .probs);
    }
  }

  serve::RuntimeConfig stalled = clean;
  stalled.batcher.max_linger = 5ms;
  stalled.fault.enabled = true;
  stalled.fault.seed = 3;
  stalled.fault.stall_p = 1.0;
  stalled.fault.stall = 120ms;
  stalled.fault.stop_after = 1;  // only the first forward stalls
  stalled.supervision.enabled = true;
  stalled.supervision.heartbeat = 2ms;
  stalled.supervision.stall_timeout = 15ms;
  serve::Runtime runtime(model, stalled);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < 2; ++i) {
    futures.push_back(runtime.submit(
        sample_row(data, i), serve::Runtime::request_stream_seed(kSeed, i)));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(futures[i].get().probs, reference[i])
        << "rescued request " << i << " must carry the fault-free bits";
  }
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.worker_stalls, 1u);
  EXPECT_GE(stats.requeued, 1u);
  EXPECT_GE(stats.worker_restarts, 1u) << "a deposed worker re-clones";
  EXPECT_EQ(stats.requests, 2u) << "nothing lost, nothing answered twice";
}

// ---------------------------------------------------- circuit breaker ----

TEST(BreakerCore, StateMachineTripsCoolsAndRecovers) {
  serve::BreakerConfig config;
  config.enabled = true;
  config.failure_threshold = 2;
  config.open_cooldown = 2;
  config.half_open_probes = 1;
  serve::BreakerCore breaker(config);
  using State = serve::BreakerCore::State;

  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kClosed) << "one failure below threshold";
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_FALSE(breaker.allow()) << "cooldown 2 -> 1: still open";
  EXPECT_TRUE(breaker.allow()) << "cooldown exhausted: this is the probe";
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kOpen) << "a failed probe reopens";
  EXPECT_EQ(breaker.times_opened(), 2u);
  EXPECT_FALSE(breaker.allow());
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), State::kClosed) << "a successful probe closes";
  // Interleaved failures below the threshold never trip a closed breaker.
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST(Runtime, BreakerDegradesToCheapRungAndRecoversHalfOpen) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(36);
  constexpr std::uint64_t kSeed = 4040;
  constexpr std::size_t kMc = 3;
  constexpr std::size_t kRequests = 6;

  // Reference: the cheap rung alone — degraded answers must carry ITS bits.
  std::vector<std::vector<float>> cheap_bits;
  {
    serve::RuntimeConfig behavioral;
    behavioral.backend = serve::Backend::kBehavioral;
    behavioral.workers = 1;
    behavioral.mc_samples = kMc;
    serve::Runtime runtime(model, behavioral);
    for (std::size_t i = 0; i < kRequests; ++i) {
      cheap_bits.push_back(
          runtime
              .submit(sample_row(data, i % data.size()),
                      serve::Runtime::request_stream_seed(kSeed, i))
              .get()
              .probs);
    }
  }

  serve::RuntimeConfig config;
  config.backend = serve::Backend::kCascade;
  config.workers = 1;
  config.mc_samples = kMc;
  config.cascade.entropy_threshold = 0.0;  // every request wants the tiled rung
  config.cascade.breaker.enabled = true;
  config.cascade.breaker.failure_threshold = 2;
  config.cascade.breaker.open_cooldown = 3;
  config.cascade.breaker.half_open_probes = 1;
  config.fault.enabled = true;
  config.fault.seed = 8;
  config.fault.crash_p = 1.0;
  config.fault.stop_after = 2;  // rung tickets 0 and 1 crash, then healed
  config.fault_site = serve::FaultSite::kExpensiveRung;
  serve::Runtime runtime(model, config);

  // Serial submits on one worker make the breaker sequence deterministic:
  // 1-2 rung crashes (degraded; the breaker trips at two), 3-4 denied by
  // the open breaker (degraded, no rung ticket spent), 5 is the half-open
  // probe on healed ticket 2 (escalated), 6 closed (escalated).
  std::vector<serve::ServedPrediction> served;
  for (std::size_t i = 0; i < kRequests; ++i) {
    served.push_back(
        runtime
            .submit(sample_row(data, i % data.size()),
                    serve::Runtime::request_stream_seed(kSeed, i))
            .get());
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(served[i].degraded) << "request " << i;
    EXPECT_FALSE(served[i].escalated) << "request " << i;
    EXPECT_EQ(served[i].probs, cheap_bits[i])
        << "degraded request " << i << " must serve the cheap rung's bits";
  }
  for (std::size_t i = 4; i < kRequests; ++i) {
    EXPECT_FALSE(served[i].degraded) << "request " << i;
    EXPECT_TRUE(served[i].escalated) << "request " << i;
  }
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.degraded, 4u);
  EXPECT_EQ(stats.escalated, 2u);
  EXPECT_EQ(runtime.metrics().counter("serve.breaker.opened").value(), 1u);
  EXPECT_GE(runtime.metrics().counter("serve.breaker.probes").value(), 1u);
  EXPECT_EQ(runtime.metrics().gauge("serve.breaker.state").value(), 0.0)
      << "recovered: closed again";
}

// ----------------------------------------------------- drain shutdown ----

TEST(Runtime, NoDrainShutdownShedsBacklogTyped) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(37);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  config.batcher.max_linger = 200ms;  // the backlog lingers until shutdown
  serve::Runtime runtime(model, config);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i)));
  }
  serve::Runtime::ShutdownOptions options;
  options.drain = false;
  runtime.shutdown(options);
  std::size_t shed = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
    } catch (const serve::OverloadError& error) {
      EXPECT_EQ(error.reason(), serve::ShedReason::kShutdown);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 3u) << "a lingering backlog sheds typed on no-drain shutdown";
  EXPECT_EQ(runtime.metrics().counter("serve.drain.shed").value(), 3u);
}

TEST(Runtime, DrainTimeoutShedsWhatTheBudgetCannotServe) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(38, 3);
  serve::RuntimeConfig config;
  config.workers = 1;
  config.mc_samples = 2;
  config.batcher.max_batch = 1;  // one request per pop: the stalls serialize
  config.fault.enabled = true;
  config.fault.seed = 11;
  config.fault.stall_p = 1.0;
  config.fault.stall = 30ms;  // every batch takes >= 30ms
  serve::Runtime runtime(model, config);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i)));
  }
  serve::Runtime::ShutdownOptions options;
  options.drain = true;
  options.drain_timeout = 10ms;  // can serve at most a request or two
  runtime.shutdown(options);
  std::size_t served = 0;
  std::size_t shed = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const serve::OverloadError& error) {
      EXPECT_EQ(error.reason(), serve::ShedReason::kShutdown);
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, 6u) << "every future settles";
  EXPECT_GT(shed, 0u) << "a 10ms budget cannot drain 6 x 30ms batches";
}

// --------------------------------------- mid-serving defect injection ----

TEST(TiledBackend, MidServingDefectBurstKeepsEventAndFullBitwiseLocked) {
  core::BuiltModel model = tiny_model();
  core::TiledBackendConfig full_config;
  full_config.mc_samples = 2;
  full_config.tile.eval_mode = xbar::EvalMode::kFull;
  core::TiledBackendConfig event_config = full_config;
  event_config.tile.eval_mode = xbar::EvalMode::kEventDriven;
  core::TiledBackend full(model.net, full_config);
  core::TiledBackend event(model.net, event_config);

  const nn::Dataset data = tiny_dataset(39);
  const nn::Tensor inputs = data.batch(0, 3).first;
  const std::vector<std::uint64_t> seeds = {11, 22, 33};

  const auto expect_equal = [&](const char* when) {
    const core::BackendBatch a = full.forward(inputs, seeds, nullptr);
    const core::BackendBatch b = event.forward(inputs, seeds, nullptr);
    ASSERT_EQ(a.predictions.size(), b.predictions.size());
    for (std::size_t r = 0; r < a.predictions.size(); ++r) {
      const nn::Tensor& pa = a.predictions[r].mean_probs;
      const nn::Tensor& pb = b.predictions[r].mean_probs;
      ASSERT_EQ(pa.numel(), pb.numel());
      for (std::size_t c = 0; c < pa.numel(); ++c) {
        ASSERT_EQ(pa[c], pb[c]) << when << ": row " << r << " class " << c;
      }
    }
  };

  expect_equal("before the burst");
  // The burst lands BETWEEN batches on the live backends — the event
  // engine's delta caches hold state from the previous batch and must
  // invalidate, not reuse, the pre-defect currents.
  device::DefectRates rates;
  rates.stuck_at_p = 0.03;
  rates.stuck_at_ap = 0.03;
  rates.open = 0.01;
  full.inject_defects(rates, 515);
  event.inject_defects(rates, 515);
  expect_equal("after the burst");
  expect_equal("steady state after the burst");
}

// -------------------------------------------------------- self-healing ----

/// Find a fault-plan seed whose ticket-0 defect burst on the plan's target
/// tile is both DETECTED by a canary probe and REPAIRABLE within the
/// provisioned spare lines — established offline on a simulation replica
/// built exactly the way Runtime::make_backend builds the worker's tiled
/// substrate, so the serving tests below exercise the full
/// detect -> quarantine -> remap -> recover path deterministically (no
/// restart fallback, no undetectable no-op burst).
std::uint64_t repairable_burst_seed(const core::BuiltModel& model,
                                    const serve::RuntimeConfig& config) {
  for (std::uint64_t seed = 1; seed <= 128; ++seed) {
    serve::FaultPlan plan = config.fault;
    plan.seed = seed;
    serve::FaultInjector probe(plan);
    const serve::FaultInjector::Decision decision = probe.next();
    if (decision.action != serve::FaultInjector::Action::kDefectBurst) {
      continue;
    }
    core::TiledBackendConfig sim_config;
    sim_config.tile = config.tile;
    sim_config.tile_seed = config.tile_seed;
    sim_config.mc_samples = config.mc_samples;
    core::BuiltModel staging = model.clone();
    core::TiledBackend sim(staging.net, sim_config);
    sim.inject_defects_at(static_cast<std::size_t>(config.fault.defect_tile),
                          config.fault.defect_rates, decision.burst_seed);
    if (sim.check_health(config.health.probe).healthy()) {
      continue;  // the burst drew no effective defect: nothing to detect
    }
    if (!sim.heal(config.health.probe).healthy_after) {
      continue;  // the damage exceeds the spare budget
    }
    return seed;
  }
  return 0;
}

/// Tiled serving with health monitoring on and a single seeded defect
/// burst aimed at the classifier tile on forward ticket 0.
serve::RuntimeConfig self_healing_config(std::uint64_t request_seed_base) {
  serve::RuntimeConfig config;
  config.backend = serve::Backend::kTiled;
  config.workers = 1;
  config.mc_samples = 2;
  config.seed = request_seed_base;
  config.tile.crossbar.spare_rows = 4;
  config.tile.crossbar.spare_cols = 4;
  config.health.enabled = true;
  config.health.probe_every = 1;
  config.fault.enabled = true;
  config.fault.defect_p = 1.0;
  config.fault.stop_after = 1;   // exactly one burst, on forward ticket 0
  config.fault.defect_tile = 2;  // the 16 x 10 classifier tile
  config.fault.defect_rates.open = 0.01;
  config.fault.defect_rates.stuck_at_ap = 0.01;
  return config;
}

TEST(Runtime, SelfHealingDetectsSeededBurstHealsAndLosesNoRequest) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(41, 3);
  constexpr std::size_t kRequests = 8;
  constexpr std::uint64_t kSeed = 909;

  serve::RuntimeConfig config = self_healing_config(kSeed);
  config.fault.seed = repairable_burst_seed(model, config);
  ASSERT_NE(config.fault.seed, 0u);

  // Fault-free reference bits (monitoring off, no faults: same substrate).
  std::vector<std::vector<float>> reference;
  {
    serve::RuntimeConfig clean = config;
    clean.fault = {};
    clean.health.enabled = false;
    serve::Runtime runtime(model, clean);
    for (std::size_t i = 0; i < kRequests; ++i) {
      reference.push_back(
          runtime
              .submit(sample_row(data, i % data.size()),
                      serve::Runtime::request_stream_seed(kSeed, i))
              .get()
              .probs);
    }
  }

  serve::Runtime runtime(model, config);
  std::vector<serve::ServedPrediction> served;
  for (std::size_t i = 0; i < kRequests; ++i) {
    // Serial submits: request 0 rides the burst batch; the probe scheduled
    // right after that batch must detect and heal before request 1 runs.
    served.push_back(
        runtime
            .submit(sample_row(data, i % data.size()),
                    serve::Runtime::request_stream_seed(kSeed, i))
            .get());
  }
  // Request 0 was computed on the freshly-damaged substrate — inside the
  // detection window its bits may differ. Everything after the first
  // probe's heal is bitwise equal to the fault-free run.
  for (std::size_t i = 1; i < kRequests; ++i) {
    EXPECT_EQ(served[i].probs, reference[i])
        << "request " << i << " served after the heal must carry clean bits";
  }
  // Join the workers first: the probe after the LAST batch runs on the
  // worker thread after the final future resolves.
  runtime.shutdown();
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.requests, kRequests) << "zero requests lost to healing";
  EXPECT_EQ(stats.health_probes, kRequests) << "probe_every=1: one per batch";
  EXPECT_EQ(stats.health_failures, 1u);
  EXPECT_EQ(stats.heals, 1u);
  EXPECT_EQ(stats.worker_restarts, 0u)
      << "the seed was chosen repairable in-place: no chip-swap fallback";
  EXPECT_EQ(stats.health_score, 1.0) << "healed back to pristine";
  EXPECT_GE(runtime.metrics().counter("xbar.remap.rows").value() +
                runtime.metrics().counter("xbar.remap.cols").value(),
            1u)
      << "the heal remapped at least one quarantined line onto a spare";
  EXPECT_EQ(runtime.metrics().counter("xbar.remap.exhausted").value(), 0u);
  EXPECT_EQ(runtime.metrics().counter("xbar.health.canary_failures").value(), 1u);
}

TEST(Runtime, DetectionLatencyIsBoundedByProbeCadence) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(44, 3);
  constexpr std::size_t kRequests = 9;
  constexpr std::uint64_t kSeed = 1213;
  constexpr std::uint64_t kProbeEvery = 3;

  serve::RuntimeConfig config = self_healing_config(kSeed);
  config.health.probe_every = kProbeEvery;
  config.fault.seed = repairable_burst_seed(model, config);
  ASSERT_NE(config.fault.seed, 0u);

  std::vector<std::vector<float>> reference;
  {
    serve::RuntimeConfig clean = config;
    clean.fault = {};
    clean.health.enabled = false;
    serve::Runtime runtime(model, clean);
    for (std::size_t i = 0; i < kRequests; ++i) {
      reference.push_back(
          runtime
              .submit(sample_row(data, i % data.size()),
                      serve::Runtime::request_stream_seed(kSeed, i))
              .get()
              .probs);
    }
  }

  serve::Runtime runtime(model, config);
  std::vector<serve::ServedPrediction> served;
  for (std::size_t i = 0; i < kRequests; ++i) {
    served.push_back(
        runtime
            .submit(sample_row(data, i % data.size()),
                    serve::Runtime::request_stream_seed(kSeed, i))
            .get());
  }
  runtime.shutdown();  // join workers: the last probe trails the last future
  const serve::RuntimeStats stats = runtime.stats();
  // The burst lands on batch ticket 1; probes run at tickets 3, 6, 9. The
  // FIRST scheduled probe catches it — detection latency is the probe
  // cadence, never more — and every later probe sees the healed substrate.
  EXPECT_EQ(stats.health_probes, kRequests / kProbeEvery);
  EXPECT_EQ(stats.health_failures, 1u)
      << "exactly the first post-burst probe fails";
  EXPECT_EQ(stats.heals, 1u);
  EXPECT_EQ(stats.health_score, 1.0);
  // Requests inside the detection window (served before probe ticket 3)
  // may carry damaged bits; every request after the heal is clean.
  for (std::size_t i = kProbeEvery; i < kRequests; ++i) {
    EXPECT_EQ(served[i].probs, reference[i])
        << "request " << i << " follows the heal and must serve clean bits";
  }
}

TEST(Runtime, FailedProbeQuarantinesRungDegradesTypedThenRecovers) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(45);
  constexpr std::uint64_t kSeed = 5050;
  constexpr std::size_t kMc = 3;
  constexpr std::size_t kRequests = 5;

  // Cheap-rung reference: degraded answers must carry ITS bits.
  std::vector<std::vector<float>> cheap_bits;
  {
    serve::RuntimeConfig behavioral;
    behavioral.backend = serve::Backend::kBehavioral;
    behavioral.workers = 1;
    behavioral.mc_samples = kMc;
    serve::Runtime runtime(model, behavioral);
    for (std::size_t i = 0; i < kRequests; ++i) {
      cheap_bits.push_back(
          runtime
              .submit(sample_row(data, i % data.size()),
                      serve::Runtime::request_stream_seed(kSeed, i))
              .get()
              .probs);
    }
  }

  serve::RuntimeConfig config = self_healing_config(kSeed);
  config.backend = serve::Backend::kCascade;
  config.mc_samples = kMc;
  config.cascade.entropy_threshold = 0.0;  // every request wants the rung
  config.cascade.breaker.enabled = true;
  config.cascade.breaker.failure_threshold = 5;  // only the quarantine opens
  config.cascade.breaker.open_cooldown = 2;
  config.cascade.breaker.half_open_probes = 1;
  config.fault_site = serve::FaultSite::kExpensiveRung;
  config.fault.seed = repairable_burst_seed(model, config);
  ASSERT_NE(config.fault.seed, 0u);
  serve::Runtime runtime(model, config);

  // Serial submits on one worker pin the sequence: request 0 escalates and
  // its rung forward draws the burst; the probe after the batch fails the
  // canary, quarantines the rung (breaker forced open) and heals the
  // substrate in place. Request 1 is denied by the open breaker — cheap
  // bits, flagged degraded. Request 2 is the half-open probe on the healed
  // rung (escalated; the success closes the breaker); 3 and 4 escalate
  // normally.
  std::vector<serve::ServedPrediction> served;
  for (std::size_t i = 0; i < kRequests; ++i) {
    served.push_back(
        runtime
            .submit(sample_row(data, i % data.size()),
                    serve::Runtime::request_stream_seed(kSeed, i))
            .get());
  }
  EXPECT_TRUE(served[0].escalated);
  EXPECT_FALSE(served[0].degraded);
  EXPECT_TRUE(served[1].degraded)
      << "the quarantined rung must degrade, not serve damaged bits";
  EXPECT_FALSE(served[1].escalated);
  EXPECT_EQ(served[1].probs, cheap_bits[1])
      << "a degraded answer carries the cheap rung's exact bits";
  for (std::size_t i = 2; i < kRequests; ++i) {
    EXPECT_TRUE(served[i].escalated) << "request " << i << " (healed rung)";
    EXPECT_FALSE(served[i].degraded) << "request " << i;
  }
  runtime.shutdown();  // join workers: the last probe trails the last future
  const serve::RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.health_failures, 1u);
  EXPECT_EQ(stats.heals, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.escalated, kRequests - 1);
  EXPECT_EQ(stats.health_score, 1.0);
  EXPECT_EQ(runtime.metrics().counter("serve.breaker.opened").value(), 1u);
  EXPECT_EQ(runtime.metrics().gauge("serve.breaker.state").value(), 0.0)
      << "recovered: the half-open probe observed the healed rung";
}

TEST(Runtime, DrainTimeoutUnderActiveChaosAccountsEveryRequest) {
  const core::BuiltModel model = tiny_model();
  const nn::Dataset data = tiny_dataset(46, 3);
  constexpr std::size_t kRequests = 12;
  serve::RuntimeConfig config;
  config.workers = 2;
  config.mc_samples = 2;
  config.batcher.max_batch = 1;  // one request per pop: the stalls serialize
  config.fault.enabled = true;
  config.fault.seed = 99;
  config.fault.crash_p = 0.25;
  config.fault.stall_p = 0.75;  // every ticket faults: crash or 20ms stall
  config.fault.stall = 20ms;
  serve::Runtime runtime(model, config);
  std::vector<std::future<serve::ServedPrediction>> futures;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(runtime.submit(sample_row(data, i % data.size())));
  }
  serve::Runtime::ShutdownOptions options;
  options.drain = true;
  options.drain_timeout = 30ms;  // far less than 12 x 20ms of stalls
  const auto begin = std::chrono::steady_clock::now();
  runtime.shutdown(options);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, 2s) << "the drain timeout bounds the shutdown wait";

  // Chaos accounting: every future settles exactly once — served, shed
  // typed by the drain budget, or failed typed by a double-crash. Nothing
  // hangs, nothing is silently dropped.
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t failed_typed = 0;
  for (auto& future : futures) {
    try {
      (void)future.get();
      ++served;
    } catch (const serve::OverloadError& error) {
      EXPECT_EQ(error.reason(), serve::ShedReason::kShutdown);
      ++shed;
    } catch (const std::runtime_error&) {
      ++failed_typed;  // first attempt AND its one retry both crashed
    }
  }
  EXPECT_EQ(served + shed + failed_typed, kRequests) << "zero requests lost";
  EXPECT_GT(shed, 0u) << "a 30ms budget cannot drain 12 x 20ms batches";
  EXPECT_EQ(runtime.metrics().counter("serve.drain.shed").value(), shed)
      << "the shed counter matches the typed shed futures one for one";
}

}  // namespace
