#include "core/bayesian.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/models.h"
#include "core/thread_pool.h"
#include "nn/model.h"

namespace neuspin::core {

namespace {

constexpr std::uint64_t kDefaultBaseSeed = 0x6d635f7061737365ull;  // "mc_passe"

nn::Tensor checked_probs(nn::Tensor logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("McPredictor: forward must return (batch x classes)");
  }
  return nn::softmax_rows(logits);
}

}  // namespace

std::vector<std::size_t> Prediction::predicted_class() const {
  std::vector<std::size_t> out(mean_probs.dim(0));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = nn::argmax_row(mean_probs, i);
  }
  return out;
}

McPredictor::McPredictor(std::size_t samples)
    : McPredictor(samples, kDefaultBaseSeed) {}

McPredictor::McPredictor(std::size_t samples, std::uint64_t base_seed)
    : samples_(samples), base_seed_(base_seed) {
  if (samples == 0) {
    throw std::invalid_argument("McPredictor: need at least one MC sample");
  }
}

Prediction McPredictor::reduce(std::vector<nn::Tensor> member_probs) const {
  Prediction pred;
  pred.member_probs = std::move(member_probs);
  pred.mean_probs = nn::Tensor(pred.member_probs.front().shape());
  // Accumulate in pass order: float addition is not associative, and this
  // fixed order is what keeps serial and threaded results bitwise equal.
  for (const auto& p : pred.member_probs) {
    pred.mean_probs += p;
  }
  pred.mean_probs *= 1.0f / static_cast<float>(samples_);
  pred.entropy = predictive_entropy(pred.mean_probs);
  pred.mutual_info = mutual_information(pred.member_probs);
  return pred;
}

Prediction McPredictor::predict(const nn::Tensor& input,
                                const Forward& stochastic_forward) const {
  std::vector<nn::Tensor> member_probs;
  member_probs.reserve(samples_);
  for (std::size_t t = 0; t < samples_; ++t) {
    member_probs.push_back(checked_probs(stochastic_forward(input)));
  }
  return reduce(std::move(member_probs));
}

Prediction McPredictor::predict(const nn::Tensor& input,
                                const SeededForward& stochastic_forward) const {
  std::vector<nn::Tensor> member_probs;
  member_probs.reserve(samples_);
  for (std::size_t t = 0; t < samples_; ++t) {
    member_probs.push_back(
        checked_probs(stochastic_forward(input, nn::mix_seed(base_seed_, t))));
  }
  return reduce(std::move(member_probs));
}

Prediction McPredictor::predict(const nn::Tensor& input,
                                const std::vector<SeededForward>& replicas,
                                ThreadPool& pool) const {
  if (replicas.empty()) {
    throw std::invalid_argument("McPredictor: need at least one forward replica");
  }
  if (replicas.size() == 1) {
    return predict(input, replicas.front());
  }
  std::vector<nn::Tensor> member_probs(samples_);
  // Contiguous chunks, one per replica: a replica is only ever inside one
  // chunk, so its model clone needs no locking.
  pool.run_chunked(
      samples_, replicas.size(),
      [this, &input, &member_probs, &replicas](std::size_t chunk, std::size_t begin,
                                               std::size_t end) {
        const SeededForward& forward = replicas[chunk];
        for (std::size_t t = begin; t < end; ++t) {
          member_probs[t] =
              checked_probs(forward(input, nn::mix_seed(base_seed_, t)));
        }
      });
  return reduce(std::move(member_probs));
}

std::vector<Prediction> predict_fused_batch(BuiltModel& model,
                                            const nn::Tensor& inputs,
                                            std::span<const std::uint64_t> request_seeds,
                                            std::size_t mc_samples) {
  return predict_fused_batch(std::span<BuiltModel>(&model, 1), inputs,
                             request_seeds, mc_samples);
}

std::vector<Prediction> predict_fused_batch(std::span<BuiltModel> team,
                                            const nn::Tensor& inputs,
                                            std::span<const std::uint64_t> request_seeds,
                                            std::size_t mc_samples, ThreadPool* pool) {
  if (team.empty()) {
    throw std::invalid_argument("predict_fused_batch: need at least one model");
  }
  if (inputs.rank() != 2) {
    throw std::invalid_argument("predict_fused_batch: expected (batch x features)");
  }
  const std::size_t batch = inputs.dim(0);
  if (batch == 0 || batch != request_seeds.size()) {
    throw std::invalid_argument(
        "predict_fused_batch: expected one request seed per input row");
  }
  if (mc_samples == 0) {
    throw std::invalid_argument("predict_fused_batch: need at least one MC sample");
  }

  // The deterministic head returns the same tensor on every pass, so it
  // runs once on the B request rows. Tail row b*T + t is head row b under
  // pass t's stream.
  nn::Sequential& lead = team[0].net;
  const std::size_t head = deterministic_head_length(lead);
  const std::size_t depth = lead.size();
  const nn::Tensor head_out = lead.forward_range(inputs, 0, head, /*training=*/false);
  const std::size_t width = head_out.numel() / batch;
  const std::size_t rows = batch * mc_samples;
  std::vector<std::uint64_t> row_seeds(rows);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t t = 0; t < mc_samples; ++t) {
      row_seeds[b * mc_samples + t] = nn::mix_seed(request_seeds[b], t);
    }
  }

  // Tail rows [begin, end) on one team member. Each row computes under its
  // own stream seed and the forward is row-independent, so any contiguous
  // partition of the tail rows gives the single-model bits — the partition
  // only decides which clone computes which rows. Every chunk reads the
  // one shared head tensor.
  const std::size_t chunks = std::min(team.size(), rows);
  std::vector<nn::Tensor> chunk_logits(chunks);
  const auto run_chunk = [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    nn::Shape shape = head_out.shape();
    shape[0] = end - begin;
    nn::Tensor tail_in(shape);
    const float* src = head_out.data().data();
    float* dst = tail_in.data().data();
    for (std::size_t r = begin; r < end; ++r) {
      std::copy_n(src + (r / mc_samples) * width, width, dst + (r - begin) * width);
    }
    nn::Sequential& net = team[chunk].net;
    net.reseed_rows(std::span<const std::uint64_t>(row_seeds).subspan(begin, end - begin));
    chunk_logits[chunk] = net.forward_range(tail_in, head, depth, /*training=*/false);
  };
  if (chunks <= 1) {
    run_chunk(0, 0, rows);
  } else {
    (pool != nullptr ? *pool : ThreadPool::shared()).run_chunked(rows, chunks, run_chunk);
  }

  nn::Tensor logits;
  std::size_t classes = 0;
  std::size_t filled = 0;
  for (const nn::Tensor& part : chunk_logits) {
    if (part.empty() && part.rank() == 0) {
      continue;  // ragged ceil partition: trailing chunks may be empty
    }
    if (part.rank() != 2 || (classes != 0 && part.dim(1) != classes) ||
        filled + part.dim(0) > rows) {
      throw std::invalid_argument(
          "predict_fused_batch: model returned bad logits shape");
    }
    if (classes == 0) {
      classes = part.dim(1);
      logits = nn::Tensor({rows, classes});
    }
    std::copy(part.data().begin(), part.data().end(),
              logits.data().begin() + static_cast<std::ptrdiff_t>(filled * classes));
    filled += part.dim(0);
  }
  if (filled != rows) {
    throw std::invalid_argument("predict_fused_batch: model returned bad logits shape");
  }
  const nn::Tensor probs = nn::softmax_rows(logits);

  std::vector<Prediction> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<nn::Tensor> member_probs;
    member_probs.reserve(mc_samples);
    for (std::size_t t = 0; t < mc_samples; ++t) {
      const auto row = probs.data().subspan((b * mc_samples + t) * classes, classes);
      member_probs.emplace_back(nn::Shape{1, classes},
                                std::vector<float>(row.begin(), row.end()));
    }
    out.push_back(
        McPredictor(mc_samples, request_seeds[b]).reduce(std::move(member_probs)));
  }
  return out;
}

}  // namespace neuspin::core
