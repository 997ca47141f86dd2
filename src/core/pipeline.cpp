#include "core/pipeline.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.h"
#include "data/strokes.h"
#include "train/trainer.h"

namespace neuspin::core {

float fit(BuiltModel& model, const nn::Dataset& train, const FitConfig& config) {
  model.enable_mc(false);
  train::TrainerConfig tc;
  tc.epochs = config.epochs;
  tc.batch_size = config.batch_size;
  tc.lr = config.lr;
  tc.verbose = config.verbose;
  tc.label_smoothing = config.label_smoothing;
  tc.shards = config.shards;
  tc.workers = config.workers;
  tc.grad_clip = config.grad_clip;
  tc.regularizer = model.make_regularizer(config.kl_weight, config.scale_lambda);
  train::Trainer trainer(model.net, std::move(tc));
  const auto history = trainer.fit(train);
  return history.empty() ? 0.0f : history.back().train_accuracy;
}

namespace {

/// Number of batches a dataset splits into under `batch_size`.
std::size_t batch_count(std::size_t dataset_size, std::size_t batch_size) {
  if (batch_size == 0) {
    throw std::invalid_argument("evaluate: batch_size must be at least 1");
  }
  return (dataset_size + batch_size - 1) / batch_size;
}

/// Worker count actually used: capped by the useful parallelism of the run
/// (`parallel_cap` = max of MC sample count and batch count — beyond that,
/// extra clones would sit idle) and resolved against the hardware when
/// `requested` is 0. An explicit request above the hardware thread count is
/// honored, not capped: results are thread-count invariant, and
/// over-subscribed counts are how single-core hosts (and CI) exercise the
/// multi-replica path.
std::size_t resolve_workers(std::size_t requested, std::size_t parallel_cap) {
  return std::max<std::size_t>(
      1, std::min(resolve_worker_count(requested), parallel_cap));
}

/// Owns the per-worker model clones of one evaluation run and serves
/// batch predictions through the MC predictor. The caller's model is
/// never mutated — MC mode and reseeding happen on the clones only, so
/// the model's RNG state after evaluation is independent of the thread
/// count, and an exception mid-construction leaves nothing toggled.
///
/// The network's deterministic head (deterministic_head_length) returns
/// the same tensor on every pass, so each batch runs it once; each pass
/// then reseeds and runs only the layers from the first stochastic one on.
/// Splitting the forward at the head changes no bit of any pass.
class PooledEvaluator {
 public:
  /// `batches_hint` is the largest batch count this evaluator will be asked
  /// to predict in one call; together with mc_samples it bounds the useful
  /// replica count.
  PooledEvaluator(const BuiltModel& model, const EvalOptions& options,
                  std::size_t batches_hint)
      : options_(options),
        workers_(resolve_workers(options.threads,
                                 std::max(options.mc_samples, batches_hint))),
        head_(deterministic_head_length(model.net)) {
    if (options.mc_samples == 0) {
      throw std::invalid_argument("evaluate: need at least one MC sample");
    }
    replicas_.reserve(workers_);
    forwards_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
      replicas_.push_back(model.clone());
      replicas_.back().enable_mc(true);
    }
    for (auto& replica : replicas_) {
      forwards_.push_back(
          [&replica, head = head_](const nn::Tensor& x, std::uint64_t pass_seed) {
            replica.reseed_stochastic(pass_seed);
            return replica.net.forward_range(x, head, replica.net.size(),
                                             /*training=*/false);
          });
    }
  }

  PooledEvaluator(const PooledEvaluator&) = delete;
  PooledEvaluator& operator=(const PooledEvaluator&) = delete;

  /// Predict one batch. `batch_seed` feeds the per-pass seed derivation,
  /// so distinct batches draw distinct (but reproducible) mask sets.
  [[nodiscard]] Prediction predict(const nn::Tensor& inputs, std::uint64_t batch_seed) {
    const McPredictor predictor(options_.mc_samples, batch_seed);
    const nn::Tensor head = run_head(replicas_.front(), inputs);
    if (workers_ <= 1) {
      return predictor.predict(head, forwards_.front());
    }
    return predictor.predict(head, forwards_, ThreadPool::shared());
  }

  /// Predict a whole run of batches; batch i uses the stream seed
  /// mix_seed(base_seed, i) exactly like the serial loop always did.
  ///
  /// Two fan-out strategies cover the pool:
  ///  * pass-parallel (few large batches, many MC passes): batches run in
  ///    order, each one's T passes split across every replica;
  ///  * batch-parallel (many batches, few MC passes): contiguous batch
  ///    chunks run concurrently, one replica per chunk, each batch's head
  ///    and passes serial on its chunk's replica.
  /// Either way a batch's prediction is the same pure function of
  /// (weights, inputs, mc_samples, batch seed), and the reduction order is
  /// fixed by batch index — so results are bitwise identical for any
  /// thread count and strategy choice.
  [[nodiscard]] std::vector<Prediction> predict_many(
      const std::vector<nn::Tensor>& batches, std::uint64_t base_seed) {
    std::vector<Prediction> out(batches.size());
    if (batches.empty()) {
      return out;  // entropy_scores on an empty dataset yields no scores
    }
    // Critical-path cost of each strategy, in serial pass-units: batch-
    // parallel runs per_chunk batches of T serial passes on the busiest
    // replica; pass-parallel runs every batch in order, each batch's T
    // passes split across the replicas.
    const std::size_t chunks = std::min(workers_, batches.size());
    const std::size_t per_chunk = (batches.size() + chunks - 1) / chunks;
    const std::size_t pass_workers = std::min(workers_, options_.mc_samples);
    const std::size_t batch_parallel_cost = per_chunk * options_.mc_samples;
    const std::size_t pass_parallel_cost =
        batches.size() * ((options_.mc_samples + pass_workers - 1) / pass_workers);
    const bool batch_parallel = workers_ > 1 && batches.size() > 1 &&
                                batch_parallel_cost < pass_parallel_cost;
    if (!batch_parallel) {
      for (std::size_t i = 0; i < batches.size(); ++i) {
        out[i] = predict(batches[i], nn::mix_seed(base_seed, i));
        discard_member_probs(out[i]);
      }
      return out;
    }
    ThreadPool::shared().run_chunked(
        batches.size(), workers_,
        [this, &batches, &out, base_seed](std::size_t chunk, std::size_t begin,
                                          std::size_t end) {
          const McPredictor::SeededForward& forward = forwards_[chunk];
          for (std::size_t i = begin; i < end; ++i) {
            const McPredictor predictor(options_.mc_samples,
                                        nn::mix_seed(base_seed, i));
            out[i] = predictor.predict(run_head(replicas_[chunk], batches[i]), forward);
            discard_member_probs(out[i]);
          }
        });
    return out;
  }

 private:
  /// Layers [0, head_) of `replica` on `inputs`: the part of every pass
  /// that no pass seed changes.
  [[nodiscard]] nn::Tensor run_head(BuiltModel& replica, const nn::Tensor& inputs) const {
    return replica.net.forward_range(inputs, 0, head_, /*training=*/false);
  }

  /// The evaluation entry points only consume mean_probs/entropy; dropping
  /// the T per-pass tensors right after each batch's reduction keeps peak
  /// memory at O(T x batch) instead of O(T x dataset).
  static void discard_member_probs(Prediction& pred) {
    pred.member_probs.clear();
    pred.member_probs.shrink_to_fit();
  }

  EvalOptions options_;
  std::size_t workers_;
  std::size_t head_;  ///< deterministic head length of the network
  std::vector<BuiltModel> replicas_;
  std::vector<McPredictor::SeededForward> forwards_;
};

/// Split a dataset into its input batch tensors.
std::vector<nn::Tensor> input_batches(const nn::Dataset& data,
                                      std::size_t batch_size) {
  std::vector<nn::Tensor> batches;
  batches.reserve(batch_count(data.size(), batch_size));
  for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, data.size());
    batches.push_back(data.batch(begin, end).first);
  }
  return batches;
}

EvalResult evaluate_with(PooledEvaluator& evaluator, const nn::Dataset& test,
                         const EvalOptions& options) {
  if (test.size() == 0) {
    throw std::invalid_argument("evaluate: empty dataset");
  }
  const std::vector<Prediction> predictions =
      evaluator.predict_many(input_batches(test, options.batch_size), options.seed);
  std::vector<nn::Tensor> prob_batches;
  std::vector<float> entropies;
  for (const Prediction& pred : predictions) {
    prob_batches.push_back(pred.mean_probs);
    entropies.insert(entropies.end(), pred.entropy.begin(), pred.entropy.end());
  }
  // Stitch the batches back together.
  const std::size_t classes = prob_batches.front().dim(1);
  nn::Tensor probs({test.size(), classes});
  std::size_t row = 0;
  for (const auto& batch : prob_batches) {
    for (std::size_t i = 0; i < batch.dim(0); ++i, ++row) {
      for (std::size_t j = 0; j < classes; ++j) {
        probs.at(row, j) = batch.at(i, j);
      }
    }
  }

  EvalResult result;
  result.accuracy = accuracy(probs, test.labels);
  result.nll = negative_log_likelihood(probs, test.labels);
  result.ece = expected_calibration_error(probs, test.labels);
  result.brier = brier_score(probs, test.labels);
  float h = 0.0f;
  for (float e : entropies) {
    h += e;
  }
  result.mean_entropy = entropies.empty() ? 0.0f
                                          : h / static_cast<float>(entropies.size());
  return result;
}

std::vector<float> entropy_scores_with(PooledEvaluator& evaluator,
                                       const nn::Dataset& data,
                                       const EvalOptions& options) {
  std::vector<float> scores;
  scores.reserve(data.size());
  const std::vector<Prediction> predictions =
      evaluator.predict_many(input_batches(data, options.batch_size), options.seed);
  for (const Prediction& pred : predictions) {
    scores.insert(scores.end(), pred.entropy.begin(), pred.entropy.end());
  }
  return scores;
}

}  // namespace

EvalResult evaluate(const BuiltModel& model, const nn::Dataset& test,
                    const EvalOptions& options) {
  PooledEvaluator evaluator(model, options,
                            batch_count(test.size(), options.batch_size));
  return evaluate_with(evaluator, test, options);
}

EvalResult evaluate(const BuiltModel& model, const nn::Dataset& test,
                    std::size_t mc_samples, std::size_t batch_size) {
  EvalOptions options;
  options.mc_samples = mc_samples;
  options.batch_size = batch_size;
  return evaluate(model, test, options);
}

std::vector<float> entropy_scores(const BuiltModel& model, const nn::Dataset& data,
                                  const EvalOptions& options) {
  PooledEvaluator evaluator(model, options,
                            batch_count(data.size(), options.batch_size));
  return entropy_scores_with(evaluator, data, options);
}

std::vector<float> entropy_scores(const BuiltModel& model, const nn::Dataset& data,
                                  std::size_t mc_samples, std::size_t batch_size) {
  EvalOptions options;
  options.mc_samples = mc_samples;
  options.batch_size = batch_size;
  return entropy_scores(model, data, options);
}

OodResult evaluate_ood(const BuiltModel& model, const nn::Dataset& in_dist,
                       const nn::Dataset& ood, const EvalOptions& options) {
  // One clone set serves both score passes.
  PooledEvaluator evaluator(model, options,
                            std::max(batch_count(in_dist.size(), options.batch_size),
                                     batch_count(ood.size(), options.batch_size)));
  const std::vector<float> id_scores = entropy_scores_with(evaluator, in_dist, options);
  // Salt the OOD batches so they do not reuse the in-distribution streams.
  EvalOptions ood_options = options;
  ood_options.seed = nn::mix_seed(options.seed, 0x00d);
  const std::vector<float> ood_scores = entropy_scores_with(evaluator, ood, ood_options);

  std::vector<float> all = id_scores;
  all.insert(all.end(), ood_scores.begin(), ood_scores.end());
  std::vector<bool> is_ood(id_scores.size(), false);
  is_ood.insert(is_ood.end(), ood_scores.size(), true);

  OodResult result;
  result.auroc = auroc(all, is_ood);
  result.detection_rate = detection_rate(id_scores, ood_scores);
  return result;
}

OodResult evaluate_ood(const BuiltModel& model, const nn::Dataset& in_dist,
                       const nn::Dataset& ood, std::size_t mc_samples,
                       std::size_t batch_size) {
  EvalOptions options;
  options.mc_samples = mc_samples;
  options.batch_size = batch_size;
  return evaluate_ood(model, in_dist, ood, options);
}

std::vector<CorruptionEval> evaluate_corruption(
    const BuiltModel& model, const nn::Dataset& images,
    const std::vector<data::CorruptionKind>& kinds,
    const std::vector<float>& severities, std::uint64_t corruption_seed,
    const EvalOptions& options) {
  PooledEvaluator evaluator(model, options,
                            batch_count(images.size(), options.batch_size));
  std::vector<CorruptionEval> sweep;
  sweep.reserve(kinds.size() * severities.size());
  for (data::CorruptionKind kind : kinds) {
    for (float severity : severities) {
      const nn::Dataset corrupted = data::standardize_per_sample(
          data::corrupt(images, kind, severity, corruption_seed));
      CorruptionEval point;
      point.kind = kind;
      point.severity = severity;
      point.result = evaluate_with(evaluator, corrupted, options);
      sweep.push_back(std::move(point));
    }
  }
  return sweep;
}

}  // namespace neuspin::core
