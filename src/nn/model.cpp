#include "nn/model.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "train/trainer.h"

namespace neuspin::nn {

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t salt) {
  // splitmix64 (Steele et al.) over base + salt * odd constant: full-period
  // scrambling, so nearby (base, salt) pairs give unrelated streams.
  std::uint64_t z = base + salt * 0x9e3779b97f4a7c15ull + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::pair<Tensor, std::vector<std::size_t>> Dataset::batch(std::size_t begin,
                                                           std::size_t end) const {
  if (begin >= end || end > size()) {
    throw std::out_of_range("Dataset::batch: invalid range");
  }
  const std::size_t per_sample = inputs.numel() / size();
  Shape batch_shape = inputs.shape();
  batch_shape[0] = end - begin;
  Tensor out(batch_shape);
  std::copy(inputs.data().begin() + static_cast<std::ptrdiff_t>(begin * per_sample),
            inputs.data().begin() + static_cast<std::ptrdiff_t>(end * per_sample),
            out.data().begin());
  std::vector<std::size_t> batch_labels(labels.begin() + static_cast<std::ptrdiff_t>(begin),
                                        labels.begin() + static_cast<std::ptrdiff_t>(end));
  return {std::move(out), std::move(batch_labels)};
}

std::pair<Tensor, std::vector<std::size_t>> Dataset::batch(
    std::span<const std::size_t> order, std::size_t begin, std::size_t end) const {
  if (begin >= end || end > order.size()) {
    throw std::out_of_range("Dataset::batch: invalid order range");
  }
  const std::size_t per_sample = inputs.numel() / size();
  Shape batch_shape = inputs.shape();
  batch_shape[0] = end - begin;
  Tensor out(batch_shape);
  std::vector<std::size_t> batch_labels(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t src = order[i];
    if (src >= size()) {
      throw std::out_of_range("Dataset::batch: order index out of range");
    }
    std::copy(
        inputs.data().begin() + static_cast<std::ptrdiff_t>(src * per_sample),
        inputs.data().begin() + static_cast<std::ptrdiff_t>((src + 1) * per_sample),
        out.data().begin() + static_cast<std::ptrdiff_t>((i - begin) * per_sample));
    batch_labels[i - begin] = labels[src];
  }
  return {std::move(out), std::move(batch_labels)};
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  return forward_range(input, 0, layers_.size(), training);
}

Tensor Sequential::forward_range(const Tensor& input, std::size_t begin,
                                 std::size_t end, bool training) {
  if (begin > end || end > layers_.size()) {
    throw std::out_of_range("Sequential::forward_range: bad layer range [" +
                            std::to_string(begin) + ", " + std::to_string(end) +
                            ") of " + std::to_string(layers_.size()));
  }
  if (begin == end) {
    return input;
  }
  Tensor x = layers_[begin]->forward(input, training);
  for (std::size_t i = begin + 1; i < end; ++i) {
    x = layers_[i]->forward(x, training);
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) {
    auto cloned = layer->clone();
    if (cloned == nullptr) {
      throw std::logic_error("Sequential::clone: layer '" + layer->name() +
                             "' does not implement clone()");
    }
    copy.add(std::move(cloned));
  }
  return copy;
}

void Sequential::reseed(std::uint64_t seed) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->reseed(mix_seed(seed, i));
  }
}

void Sequential::reseed_rows(std::span<const std::uint64_t> row_seeds) {
  std::vector<std::uint64_t> mixed(row_seeds.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (std::size_t r = 0; r < row_seeds.size(); ++r) {
      mixed[r] = mix_seed(row_seeds[r], i);
    }
    layers_[i]->reseed_rows(mixed);
  }
}

void Sequential::save_rng_state(std::ostream& out) const {
  for (const auto& layer : layers_) {
    layer->save_rng_state(out);
  }
}

void Sequential::load_rng_state(std::istream& in) {
  for (auto& layer : layers_) {
    layer->load_rng_state(in);
  }
}

std::vector<ParamRef> Sequential::parameters() {
  std::vector<ParamRef> all;
  for (auto& layer : layers_) {
    auto p = layer->parameters();
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

std::vector<Tensor*> Sequential::state_tensors() {
  std::vector<Tensor*> all;
  for (auto& layer : layers_) {
    auto s = layer->state_tensors();
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

void Sequential::zero_grad() {
  for (auto& p : parameters()) {
    p.grad->fill(0.0f);
  }
}

std::size_t Sequential::parameter_count() {
  std::size_t n = 0;
  for (const auto& p : parameters()) {
    n += p.value->numel();
  }
  return n;
}

std::vector<EpochStats> train_classifier(Sequential& model, const Dataset& train,
                                         const TrainConfig& config) {
  // Thin compatibility shim: the loop that used to live here moved to
  // train::Trainer. One shard + one worker selects the trainer's serial
  // path, which replays the historical loop bit for bit.
  neuspin::train::TrainerConfig tc;
  tc.epochs = config.epochs;
  tc.batch_size = config.batch_size;
  tc.lr = config.lr;
  tc.lr_decay = config.lr_decay;
  tc.lr_decay_period = config.lr_decay_period;
  tc.shuffle_seed = config.shuffle_seed;
  tc.verbose = config.verbose;
  tc.label_smoothing = config.label_smoothing;
  tc.regularizer = config.regularizer;
  tc.shards = 1;
  tc.workers = 1;
  neuspin::train::Trainer trainer(model, std::move(tc));
  return trainer.fit(train);
}

float evaluate_accuracy(Sequential& model, const Dataset& test) {
  if (test.size() == 0) {
    throw std::invalid_argument("evaluate_accuracy: empty dataset");
  }
  std::size_t correct = 0;
  const std::size_t batch_size = 64;
  for (std::size_t begin = 0; begin < test.size(); begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, test.size());
    auto [inputs, labels] = test.batch(begin, end);
    const Tensor logits = model.forward(inputs, /*training=*/false);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (argmax_row(logits, i) == labels[i]) {
        ++correct;
      }
    }
  }
  return static_cast<float>(correct) / static_cast<float>(test.size());
}

}  // namespace neuspin::nn
