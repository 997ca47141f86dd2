#include "train/trainer.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/thread_pool.h"
#include "nn/checkpoint.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neuspin::train {

namespace {

using Clock = std::chrono::steady_clock;

/// Salt that keeps per-shard module streams disjoint from the per-row mask
/// streams (rows are salted with their index, which is always < 2^63).
constexpr std::uint64_t kShardSalt = 0x8000000000000000ull;

/// Magic of the trainer's full-training-state checkpoint ("NSPTRN1" — a
/// superset of the NSP1 model checkpoint, built on the same primitives).
constexpr std::uint64_t kTrainerMagic = 0x314e525450534eull;

/// Engine states and RNG blobs are text; anything past this is corruption,
/// not a plausible mt19937_64 dump (312 words * <=20 digits ≈ 7 KiB, the
/// model blob scales with stochastic layer count).
constexpr std::uint64_t kMaxRngBlobBytes = 1ull << 24;

std::uint64_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float bits_float(std::uint64_t v) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(v));
}

std::string dump_engine(const std::mt19937_64& engine) {
  std::ostringstream os;
  os << engine;
  return os.str();
}

/// One numeric config field of the checkpoint fingerprint: the saved value
/// must equal the restoring trainer's, else the trained bits would diverge.
void check_fingerprint(std::uint64_t saved, std::uint64_t current,
                       const char* field) {
  if (saved != current) {
    throw nn::CheckpointError(
        nn::CheckpointFault::kBadHeader,
        std::string("trainer checkpoint was written under a different '") + field +
            "' (" + std::to_string(saved) + " saved, " + std::to_string(current) +
            " configured) — resuming would break the bitwise contract");
  }
}

}  // namespace

Trainer::Trainer(nn::Sequential& model, TrainerConfig config)
    : model_(model),
      config_(std::move(config)),
      optimizer_(model.parameters(), config_.lr, 0.9f, 0.999f, 1e-8f,
                 config_.weight_decay),
      shuffle_engine_(config_.shuffle_seed),
      epoch_start_engine_(dump_engine(shuffle_engine_)),
      params_(model.parameters()),
      state_(model.state_tensors()) {
  if (config_.batch_size == 0) {
    throw std::invalid_argument("train::Trainer: batch_size must be at least 1");
  }
}

std::size_t Trainer::shard_count(std::size_t rows) const {
  return std::min(std::max<std::size_t>(config_.shards, 1), rows);
}

void Trainer::ensure_clones(std::size_t count) {
  while (clones_.size() < count) {
    // Sequential moves on vector growth keep the heap-allocated layers (and
    // therefore the cached ParamRef / state pointers) stable.
    clones_.push_back(model_.clone());
    clone_params_.push_back(clones_.back().parameters());
    clone_state_.push_back(clones_.back().state_tensors());
  }
}

Trainer::StepStats Trainer::step_serial(const nn::Dataset& train,
                                        std::span<const std::size_t> order,
                                        std::size_t begin, std::size_t end) {
  // The historical nn::train_classifier step, statement for statement: the
  // serial contract is bitwise equality with the pre-Trainer loop.
  auto [inputs, labels] = train.batch(order, begin, end);
  obs::ScopedSpan span(config_.tracer, "train:step", "train");
  span.arg("rows", static_cast<double>(end - begin));
  nn::Tensor logits = model_.forward(inputs, /*training=*/true);
  nn::LossResult loss =
      nn::softmax_cross_entropy(logits, labels, config_.label_smoothing);
  if (config_.regularizer) {
    loss.value += config_.regularizer();
  }
  (void)model_.backward(loss.grad);
  if (config_.grad_clip > 0.0f) {
    (void)nn::clip_grad_norm(params_, config_.grad_clip);
  }
  optimizer_.step();

  StepStats stats;
  stats.loss = loss.value;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (nn::argmax_row(logits, i) == labels[i]) {
      ++stats.correct;
    }
  }
  return stats;
}

Trainer::StepStats Trainer::step_sharded(const nn::Dataset& train,
                                         std::span<const std::size_t> order,
                                         std::size_t begin, std::size_t end,
                                         std::uint64_t step_seed) {
  const std::size_t rows = end - begin;
  const std::size_t shards = shard_count(rows);
  ensure_clones(shards);

  // Snapshot the primary's persistent state (batch-norm running stats) so
  // every shard starts from it and the fold-back below can apply each
  // shard's movement exactly once.
  prior_state_.resize(state_.size());
  for (std::size_t t = 0; t < state_.size(); ++t) {
    prior_state_[t] = *state_[t];
  }

  // Per-sample mask streams keyed to the row's index within the minibatch
  // — a global coordinate shared by every shard grid, so per-sample masks
  // never depend on how the batch was split.
  std::vector<std::uint64_t> row_seeds(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    row_seeds[r] = nn::mix_seed(step_seed, r);
  }

  // Contiguous ceil-balanced shard boundaries: a pure function of
  // (rows, shards).
  std::vector<std::size_t> bounds(shards + 1, 0);
  const std::size_t q = rows / shards;
  const std::size_t rem = rows % shards;
  for (std::size_t s = 0; s < shards; ++s) {
    bounds[s + 1] = bounds[s] + q + (s < rem ? 1 : 0);
  }

  std::vector<StepStats> partial(shards);
  auto run_shard = [&](std::size_t s) {
    nn::Sequential& clone = clones_[s];
    std::vector<nn::ParamRef>& cp = clone_params_[s];
    std::vector<nn::Tensor*>& cs = clone_state_[s];
    for (std::size_t k = 0; k < cp.size(); ++k) {
      *cp[k].value = *params_[k].value;
      cp[k].grad->fill(0.0f);
    }
    for (std::size_t t = 0; t < cs.size(); ++t) {
      *cs[t] = prior_state_[t];
    }
    // Per-pass module streams keyed to (step, shard); then row mode keys
    // the per-sample streams to the global row indices of this shard.
    clone.reseed(nn::mix_seed(step_seed, kShardSalt + s));
    clone.reseed_rows(
        std::span<const std::uint64_t>(row_seeds).subspan(bounds[s],
                                                          bounds[s + 1] - bounds[s]));

    auto [inputs, labels] =
        train.batch(order, begin + bounds[s], begin + bounds[s + 1]);
    // Per-shard fwd/bwd spans land on the pool thread's track.
    obs::ScopedSpan fwd_span(config_.tracer, "shard:fwd", "train");
    fwd_span.arg("shard", static_cast<double>(s));
    fwd_span.arg("rows", static_cast<double>(bounds[s + 1] - bounds[s]));
    nn::Tensor logits = clone.forward(inputs, /*training=*/true);
    fwd_span.end();
    // Normalize by the FULL minibatch row count: shard losses/gradients are
    // partial terms of the whole-minibatch mean.
    nn::LossResult loss =
        nn::softmax_cross_entropy(logits, labels, config_.label_smoothing, rows);
    obs::ScopedSpan bwd_span(config_.tracer, "shard:bwd", "train");
    bwd_span.arg("shard", static_cast<double>(s));
    (void)clone.backward(loss.grad);
    bwd_span.end();

    partial[s].loss = loss.value;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (nn::argmax_row(logits, i) == labels[i]) {
        ++partial[s].correct;
      }
    }
  };

  // `workers` picks how many pool threads the shard tasks spread over; the
  // shard -> clone binding and the reduction below are shard-indexed, so
  // the schedule cannot influence the numbers.
  core::ThreadPool::shared().run_chunked(
      shards, core::resolve_worker_count(config_.workers),
      [&run_shard](std::size_t /*chunk*/, std::size_t s_begin, std::size_t s_end) {
        for (std::size_t s = s_begin; s < s_end; ++s) {
          run_shard(s);
        }
      });

  // Fixed ascending-shard reduction into the primary ParamRefs.
  obs::ScopedSpan reduce_span(config_.tracer, "shard:reduce", "train");
  reduce_span.arg("shards", static_cast<double>(shards));
  StepStats stats;
  const float inv_shards = 1.0f / static_cast<float>(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t k = 0; k < params_.size(); ++k) {
      *params_[k].grad += *clone_params_[s][k].grad;
    }
    for (std::size_t t = 0; t < state_.size(); ++t) {
      nn::Tensor& primary = *state_[t];
      const nn::Tensor& updated = *clone_state_[s][t];
      const nn::Tensor& prior = prior_state_[t];
      // Shard-AVERAGED EMA movement: summing raw deltas would scale the
      // prior's coefficient to (1 - shards * momentum), negative (and a
      // negative running variance -> NaN eval) once shards * momentum
      // exceeds 1. Averaging applies exactly one EMA step built from the
      // mean of the shard statistics, matching the serial update rate and
      // staying in the shard statistics' convex hull for any shard count.
      for (std::size_t i = 0; i < primary.numel(); ++i) {
        primary[i] += (updated[i] - prior[i]) * inv_shards;
      }
    }
    stats.loss += partial[s].loss;
    stats.correct += partial[s].correct;
  }
  reduce_span.end();

  if (config_.regularizer) {
    stats.loss += config_.regularizer();
  }
  if (config_.grad_clip > 0.0f) {
    (void)nn::clip_grad_norm(params_, config_.grad_clip);
  }
  optimizer_.step();
  return stats;
}

std::vector<nn::EpochStats> Trainer::fit(const nn::Dataset& train) {
  if (train.size() == 0) {
    throw std::invalid_argument("train::Trainer: empty dataset");
  }
  // Establish the loop's preconditions without touching any RNG engine:
  // an empty row-seed set returns every stochastic layer to shared-stream
  // mode (a prior fused-MC eval leaves row mode sticky, which a training
  // forward would otherwise reject or silently replay), and stale
  // gradients a caller accumulated outside the loop are dropped. Both are
  // no-ops on a fresh model, so the serial path stays bitwise-legacy.
  model_.reseed_rows(std::span<const std::uint64_t>());
  model_.zero_grad();
  preempted_ = false;
  if (cursor_epoch_ >= config_.epochs) {
    // The previous fit() ran to completion (or this is the first): start a
    // fresh pass with a freshly seeded shuffle stream — the historical
    // consecutive-fit semantics. A preempted or restored cursor is left
    // alone so this fit continues the interrupted run instead.
    cursor_epoch_ = 0;
    step_in_epoch_ = 0;
    partial_loss_ = 0.0f;
    partial_correct_ = 0;
    shuffle_engine_.seed(config_.shuffle_seed);
    epoch_start_engine_ = dump_engine(shuffle_engine_);
    order_.clear();
  }
  if (order_.empty()) {
    order_.resize(train.size());
    std::iota(order_.begin(), order_.end(), 0);
  } else if (order_.size() != train.size()) {
    throw std::invalid_argument(
        "train::Trainer::fit: resuming an interrupted run with a dataset of "
        "different size");
  }

  // Optional observability: instruments resolved once so the per-step
  // recording is one relaxed atomic op (a null registry costs a pointer
  // check per step).
  obs::Counter* ctr_steps = nullptr;
  obs::Counter* ctr_examples = nullptr;
  obs::Histogram* hist_step_us = nullptr;
  if (config_.metrics != nullptr) {
    ctr_steps = &config_.metrics->counter("train.steps");
    ctr_examples = &config_.metrics->counter("train.examples");
    hist_step_us = &config_.metrics->histogram("train.step_us");
  }

  std::vector<nn::EpochStats> history;
  history.reserve(config_.epochs - cursor_epoch_);
  for (std::size_t epoch = cursor_epoch_; epoch < config_.epochs; ++epoch) {
    optimizer_.set_lr(config_.lr *
                      std::pow(config_.lr_decay,
                               static_cast<float>(epoch / std::max<std::size_t>(
                                                              config_.lr_decay_period, 1))));
    // Snapshot the pre-shuffle engine/order, then shuffle: a resumed run
    // restores the snapshot and replays this shuffle, so engine and order
    // land exactly where the uninterrupted run's would.
    epoch_start_engine_ = dump_engine(shuffle_engine_);
    epoch_start_order_ = order_;
    std::shuffle(order_.begin(), order_.end(), shuffle_engine_);
    const std::uint64_t epoch_seed = nn::mix_seed(config_.stream_seed, epoch);

    const auto t0 = Clock::now();
    nn::EpochStats stats;
    // Resume mid-epoch: fold in the interrupted run's partial accumulators
    // and start the step counter where it left off — step seeds are
    // mix_seed(epoch_seed, steps), so the counter must stay aligned.
    stats.train_loss = partial_loss_;
    std::size_t correct = partial_correct_;
    std::size_t steps = step_in_epoch_;
    for (std::size_t begin = step_in_epoch_ * config_.batch_size;
         begin < train.size(); begin += config_.batch_size) {
      const std::size_t end = std::min(begin + config_.batch_size, train.size());
      const auto step_t0 = Clock::now();
      StepStats step;
      if (shard_count(end - begin) <= 1) {
        step = step_serial(train, order_, begin, end);
      } else {
        step = step_sharded(train, order_, begin, end, nn::mix_seed(epoch_seed, steps));
      }
      if (ctr_steps != nullptr) {
        ctr_steps->inc();
        ctr_examples->inc(end - begin);
        hist_step_us->record(
            std::chrono::duration<double, std::micro>(Clock::now() - step_t0)
                .count());
      }
      stats.train_loss += step.loss;
      correct += step.correct;
      ++steps;
      // Every optimizer step is a valid checkpoint boundary: keep the
      // cursor and partial accumulators current, then honor a pending
      // preemption — the caller save()s and a later restore()+fit()
      // continues from exactly this boundary.
      step_in_epoch_ = steps;
      partial_loss_ = stats.train_loss;
      partial_correct_ = correct;
      if (preempt_check_ && preempt_check_()) {
        cursor_epoch_ = epoch;
        preempted_ = true;
        return history;
      }
    }
    cursor_epoch_ = epoch + 1;
    step_in_epoch_ = 0;
    partial_loss_ = 0.0f;
    partial_correct_ = 0;
    stats.train_loss /= static_cast<float>(std::max<std::size_t>(steps, 1));
    stats.train_accuracy =
        static_cast<float>(correct) / static_cast<float>(train.size());
    stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    stats.examples_per_sec =
        stats.seconds > 0.0 ? static_cast<double>(train.size()) / stats.seconds : 0.0;
    history.push_back(stats);
    if (config_.metrics != nullptr) {
      config_.metrics->gauge("train.epoch.loss").set(stats.train_loss);
      config_.metrics->gauge("train.epoch.accuracy").set(stats.train_accuracy);
    }
    if (config_.verbose) {
      std::printf("epoch %zu: loss=%.4f acc=%.4f (%.2fs, %.0f ex/s)\n", epoch,
                  stats.train_loss, static_cast<double>(stats.train_accuracy),
                  stats.seconds, stats.examples_per_sec);
    }
    if (callback_) {
      callback_(epoch, stats);
    }
  }
  return history;
}

void Trainer::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw nn::CheckpointError(nn::CheckpointFault::kIo,
                              "cannot open " + path + " for writing");
  }
  nn::write_u64(out, kTrainerMagic);
  // Config fingerprint: the numeric fields that define the trained bits.
  nn::write_u64(out, config_.epochs);
  nn::write_u64(out, config_.batch_size);
  nn::write_u64(out, config_.lr_decay_period);
  nn::write_u64(out, config_.shards);
  nn::write_u64(out, config_.shuffle_seed);
  nn::write_u64(out, config_.stream_seed);
  nn::write_u64(out, float_bits(config_.lr));
  nn::write_u64(out, float_bits(config_.lr_decay));
  nn::write_u64(out, float_bits(config_.label_smoothing));
  nn::write_u64(out, float_bits(config_.grad_clip));
  nn::write_u64(out, float_bits(config_.weight_decay));
  // Epoch/step cursor and the partially accumulated epoch statistics.
  nn::write_u64(out, cursor_epoch_);
  nn::write_u64(out, step_in_epoch_);
  nn::write_u64(out, float_bits(partial_loss_));
  nn::write_u64(out, partial_correct_);
  // Shuffle stream: pre-shuffle engine state and order of the cursor epoch.
  nn::write_string(out, epoch_start_engine_);
  nn::write_u64(out, epoch_start_order_.size());
  for (const std::size_t idx : epoch_start_order_) {
    nn::write_u64(out, idx);
  }
  // Every layer's own RNG streams (the serial path advances them in place).
  std::ostringstream rng;
  model_.save_rng_state(rng);
  nn::write_string(out, rng.str());
  // Model tensors and optimizer state.
  nn::write_u64(out, params_.size());
  for (const auto& p : params_) {
    nn::write_tensor(out, *p.value);
  }
  nn::write_u64(out, state_.size());
  for (const nn::Tensor* t : state_) {
    nn::write_tensor(out, *t);
  }
  nn::write_u64(out, optimizer_.step_count());
  for (const nn::Tensor& m : optimizer_.first_moments()) {
    nn::write_tensor(out, m);
  }
  for (const nn::Tensor& v : optimizer_.second_moments()) {
    nn::write_tensor(out, v);
  }
  if (!out) {
    throw nn::CheckpointError(nn::CheckpointFault::kIo, "write failed for " + path);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->counter("train.checkpoint.saves").inc();
  }
}

void Trainer::restore(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw nn::CheckpointError(nn::CheckpointFault::kIo, "cannot open " + path);
  }
  if (nn::read_u64(in, "trainer checkpoint magic") != kTrainerMagic) {
    throw nn::CheckpointError(nn::CheckpointFault::kBadMagic,
                              path + " is not a trainer checkpoint");
  }
  check_fingerprint(nn::read_u64(in, "epochs"), config_.epochs, "epochs");
  check_fingerprint(nn::read_u64(in, "batch_size"), config_.batch_size, "batch_size");
  check_fingerprint(nn::read_u64(in, "lr_decay_period"), config_.lr_decay_period,
                    "lr_decay_period");
  check_fingerprint(nn::read_u64(in, "shards"), config_.shards, "shards");
  check_fingerprint(nn::read_u64(in, "shuffle_seed"), config_.shuffle_seed,
                    "shuffle_seed");
  check_fingerprint(nn::read_u64(in, "stream_seed"), config_.stream_seed,
                    "stream_seed");
  check_fingerprint(nn::read_u64(in, "lr"), float_bits(config_.lr), "lr");
  check_fingerprint(nn::read_u64(in, "lr_decay"), float_bits(config_.lr_decay),
                    "lr_decay");
  check_fingerprint(nn::read_u64(in, "label_smoothing"),
                    float_bits(config_.label_smoothing), "label_smoothing");
  check_fingerprint(nn::read_u64(in, "grad_clip"), float_bits(config_.grad_clip),
                    "grad_clip");
  check_fingerprint(nn::read_u64(in, "weight_decay"),
                    float_bits(config_.weight_decay), "weight_decay");

  // Stage EVERYTHING before committing anything: a fault below must leave
  // the trainer and model exactly as they were.
  const std::uint64_t cursor_epoch = nn::read_u64(in, "cursor epoch");
  const std::uint64_t step_in_epoch = nn::read_u64(in, "cursor step");
  const float partial_loss = bits_float(nn::read_u64(in, "partial loss"));
  const std::uint64_t partial_correct = nn::read_u64(in, "partial correct");
  const std::string engine_state =
      nn::read_string(in, kMaxRngBlobBytes, "shuffle engine state");
  const std::uint64_t order_len = nn::read_u64(in, "order length");
  if (order_len > (1ull << 40)) {
    throw nn::CheckpointError(nn::CheckpointFault::kBadHeader,
                              "implausible order length " + std::to_string(order_len));
  }
  std::vector<std::size_t> order(order_len);
  for (std::uint64_t i = 0; i < order_len; ++i) {
    order[i] = static_cast<std::size_t>(nn::read_u64(in, "order entry"));
  }
  const std::string rng_blob =
      nn::read_string(in, kMaxRngBlobBytes, "model rng state");
  const std::uint64_t param_count = nn::read_u64(in, "parameter count");
  if (param_count != params_.size()) {
    throw nn::CheckpointError(nn::CheckpointFault::kCountMismatch,
                              path + " holds " + std::to_string(param_count) +
                                  " parameters, model expects " +
                                  std::to_string(params_.size()));
  }
  std::vector<nn::Tensor> staged_params;
  staged_params.reserve(params_.size());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    nn::Tensor scratch(params_[k].value->shape());
    nn::read_tensor(in, scratch, "parameter " + std::to_string(k));
    staged_params.push_back(std::move(scratch));
  }
  const std::uint64_t state_count = nn::read_u64(in, "state tensor count");
  if (state_count != state_.size()) {
    throw nn::CheckpointError(nn::CheckpointFault::kCountMismatch,
                              path + " holds " + std::to_string(state_count) +
                                  " state tensors, model expects " +
                                  std::to_string(state_.size()));
  }
  std::vector<nn::Tensor> staged_state;
  staged_state.reserve(state_.size());
  for (std::size_t t = 0; t < state_.size(); ++t) {
    nn::Tensor scratch(state_[t]->shape());
    nn::read_tensor(in, scratch, "state tensor " + std::to_string(t));
    staged_state.push_back(std::move(scratch));
  }
  const std::uint64_t adam_t = nn::read_u64(in, "optimizer step count");
  std::vector<nn::Tensor> staged_m;
  staged_m.reserve(params_.size());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    nn::Tensor scratch(optimizer_.first_moments()[k].shape());
    nn::read_tensor(in, scratch, "first moment " + std::to_string(k));
    staged_m.push_back(std::move(scratch));
  }
  std::vector<nn::Tensor> staged_v;
  staged_v.reserve(params_.size());
  for (std::size_t k = 0; k < params_.size(); ++k) {
    nn::Tensor scratch(optimizer_.second_moments()[k].shape());
    nn::read_tensor(in, scratch, "second moment " + std::to_string(k));
    staged_v.push_back(std::move(scratch));
  }

  // Parse both RNG blobs against scratch targets before touching the real
  // ones: a corrupt blob throws here with nothing modified.
  std::mt19937_64 engine;
  {
    std::istringstream es(engine_state);
    es >> engine;
    if (es.fail()) {
      throw nn::CheckpointError(nn::CheckpointFault::kTruncated,
                                "shuffle engine state is corrupt");
    }
  }
  {
    nn::Sequential probe = model_.clone();
    std::istringstream rs(rng_blob);
    probe.load_rng_state(rs);
    if (rs.fail()) {
      throw nn::CheckpointError(nn::CheckpointFault::kTruncated,
                                "model RNG state blob is corrupt");
    }
  }

  // Commit.
  for (std::size_t k = 0; k < params_.size(); ++k) {
    *params_[k].value = staged_params[k];
    params_[k].grad->fill(0.0f);
    optimizer_.first_moments()[k] = std::move(staged_m[k]);
    optimizer_.second_moments()[k] = std::move(staged_v[k]);
  }
  for (std::size_t t = 0; t < state_.size(); ++t) {
    *state_[t] = staged_state[t];
  }
  optimizer_.set_step_count(static_cast<std::size_t>(adam_t));
  {
    std::istringstream rs(rng_blob);
    model_.load_rng_state(rs);
  }
  shuffle_engine_ = engine;
  epoch_start_engine_ = engine_state;
  order_ = order;
  epoch_start_order_ = std::move(order);
  cursor_epoch_ = static_cast<std::size_t>(cursor_epoch);
  step_in_epoch_ = static_cast<std::size_t>(step_in_epoch);
  partial_loss_ = partial_loss;
  partial_correct_ = static_cast<std::size_t>(partial_correct);
  preempted_ = false;
  if (config_.metrics != nullptr) {
    config_.metrics->counter("train.checkpoint.restores").inc();
  }
}

}  // namespace neuspin::train
