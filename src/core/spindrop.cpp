#include "core/spindrop.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/model.h"

namespace neuspin::core {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// The splitmix64 output function (Steele et al.). nn::mix_seed is
/// finalize(base + (salt + 1) * kGolden); a PseudoDropoutSource draw is
/// finalize(state += kGolden). The row-mode tests pin the inline draw
/// below against both.
inline std::uint64_t splitmix_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Stream state of source `unit` after reseed(nn::mix_seed(row_seed, unit)).
inline std::uint64_t row_source_state(std::uint64_t row_seed, std::uint64_t unit) {
  return splitmix_finalize(row_seed + unit * kGolden + kGolden);
}

/// ceil(p * 2^53): for x < 2^53, x < threshold exactly when
/// double(x) * 2^-53 < p (both scalings by 2^53 are exact).
std::uint64_t drop_threshold(double p) {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// Per-source thresholds when every source is pseudo, else empty.
std::vector<std::uint64_t> pseudo_thresholds(
    const std::vector<std::unique_ptr<DropoutSource>>& sources) {
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(sources.size());
  for (const auto& s : sources) {
    if (dynamic_cast<const PseudoDropoutSource*>(s.get()) == nullptr) {
      return {};
    }
    thresholds.push_back(drop_threshold(s->probability()));
  }
  return thresholds;
}

}  // namespace

PseudoDropoutSource::PseudoDropoutSource(double p, std::uint64_t seed)
    : p_(p), state_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("PseudoDropoutSource: p must lie in [0,1)");
  }
}

bool PseudoDropoutSource::sample() {
  // splitmix64 step (Steele et al.) -> uniform double in [0, 1) from the
  // top 53 bits. Full-period, statistically solid for Bernoulli gating,
  // and O(1) to reseed.
  state_ += kGolden;
  const std::uint64_t z = splitmix_finalize(state_);
  return static_cast<double>(z >> 11) * 0x1.0p-53 < p_;
}

namespace {

device::SpinRngConfig spin_config_for(double target_p, double delta_shift) {
  device::SpinRngConfig config;
  config.target_probability = target_p;
  if (delta_shift != 0.0) {
    config.delta_override = config.mtj.delta + delta_shift;
  }
  return config;
}

}  // namespace

SpinDropoutSource::SpinDropoutSource(double target_p, double delta_shift,
                                     std::uint64_t seed, energy::EnergyLedger* ledger)
    : rng_(spin_config_for(target_p, delta_shift), seed), ledger_(ledger) {}

bool SpinDropoutSource::sample() {
  if (ledger_ != nullptr) {
    ledger_->add(energy::Component::kRngDropoutCycle, 1);
  }
  return rng_.next_bit();
}

double SpinDropoutSource::probability() const { return rng_.realized_probability(); }

SpinDropLayer::SpinDropLayer(DropGranularity granularity,
                             std::vector<std::unique_ptr<DropoutSource>> sources,
                             std::uint64_t train_seed)
    : granularity_(granularity), sources_(std::move(sources)), train_engine_(train_seed) {
  if (sources_.empty()) {
    throw std::invalid_argument("SpinDropLayer: need at least one dropout source");
  }
  for (const auto& s : sources_) {
    if (s == nullptr) {
      throw std::invalid_argument("SpinDropLayer: null dropout source");
    }
  }
  pseudo_thresholds_ = pseudo_thresholds(sources_);
}

SpinDropLayer::SpinDropLayer(const SpinDropLayer& other)
    : granularity_(other.granularity_),
      pseudo_thresholds_(other.pseudo_thresholds_),
      train_engine_(other.train_engine_),
      mc_mode_(other.mc_mode_),
      mask_(other.mask_) {
  sources_.reserve(other.sources_.size());
  for (const auto& s : other.sources_) {
    sources_.push_back(s->clone());
  }
}

void SpinDropLayer::reseed(std::uint64_t seed) {
  for (std::size_t u = 0; u < sources_.size(); ++u) {
    sources_[u]->reseed(nn::mix_seed(seed, u));
  }
  train_engine_.seed(nn::mix_seed(seed, sources_.size()));
  row_seeds_.clear();
}

void SpinDropLayer::reseed_rows(std::span<const std::uint64_t> row_seeds) {
  row_seeds_.assign(row_seeds.begin(), row_seeds.end());
}

std::string SpinDropLayer::name() const {
  switch (granularity_) {
    case DropGranularity::kNeuron:
      return "SpinDrop";
    case DropGranularity::kFeatureMap:
      return "SpatialSpinDrop";
    case DropGranularity::kLayer:
      return "LayerSpinDrop";
  }
  return "SpinDrop";
}

double SpinDropLayer::realized_probability() const {
  double p = 0.0;
  for (const auto& s : sources_) {
    p += s->probability();
  }
  return p / static_cast<double>(sources_.size());
}

std::size_t SpinDropLayer::unit_count(const nn::Shape& shape) const {
  switch (granularity_) {
    case DropGranularity::kNeuron: {
      std::size_t per_sample = 1;
      for (std::size_t a = 1; a < shape.size(); ++a) {
        per_sample *= shape[a];
      }
      return per_sample;
    }
    case DropGranularity::kFeatureMap:
      if (shape.size() < 2) {
        throw std::invalid_argument("SpinDropLayer: feature-map dropout needs rank>=2");
      }
      return shape[1];
    case DropGranularity::kLayer:
      return 1;
  }
  return 1;
}

void SpinDropLayer::apply_unit_mask(const nn::Tensor& input, nn::Tensor& out,
                                    std::span<const float> unit_mask,
                                    std::size_t b_begin, std::size_t b_end) {
  // Same values as gating a copy of the input in place and a tensor of ones
  // alongside it: kept units copy x (feature-map / layer) or multiply it by
  // 1 (neuron), dropped units multiply by 0 (neuron / feature-map) or write
  // 0 (layer), and the mask holds the unit's decision.
  const std::size_t batch = input.dim(0);
  const std::size_t per_sample = input.numel() / batch;
  const float* x = input.data().data();
  float* y = out.data().data();
  float* m = mask_.data().data();
  switch (granularity_) {
    case DropGranularity::kNeuron:
      for (std::size_t b = b_begin; b < b_end; ++b) {
        const std::size_t row = b * per_sample;
        for (std::size_t u = 0; u < per_sample; ++u) {
          y[row + u] = x[row + u] * unit_mask[u];
          m[row + u] = unit_mask[u];
        }
      }
      break;
    case DropGranularity::kFeatureMap: {
      const std::size_t channels = input.dim(1);
      const std::size_t inner = per_sample / channels;
      for (std::size_t b = b_begin; b < b_end; ++b) {
        for (std::size_t c = 0; c < channels; ++c) {
          const float keep = unit_mask[c];
          const std::size_t base = (b * channels + c) * inner;
          if (keep == 1.0f) {
            std::copy_n(x + base, inner, y + base);
          } else {
            for (std::size_t i = 0; i < inner; ++i) {
              y[base + i] = x[base + i] * keep;
            }
          }
          std::fill_n(m + base, inner, keep);
        }
      }
      break;
    }
    case DropGranularity::kLayer: {
      const bool keep = unit_mask[0] == 1.0f;
      const std::size_t begin = b_begin * per_sample;
      const std::size_t count = (b_end - b_begin) * per_sample;
      if (keep) {
        std::copy_n(x + begin, count, y + begin);
      } else {
        std::fill_n(y + begin, count, 0.0f);
      }
      std::fill_n(m + begin, count, keep ? 1.0f : 0.0f);
      break;
    }
  }
}

void SpinDropLayer::draw_unit_mask(std::size_t units) {
  unit_mask_.resize(units);
  for (std::size_t u = 0; u < units; ++u) {
    unit_mask_[u] = sources_[u]->sample() ? 0.0f : 1.0f;
  }
}

void SpinDropLayer::forward_pseudo_rows(const nn::Tensor& input, nn::Tensor& out,
                                        std::size_t units) {
  const std::size_t batch = input.dim(0);
  unit_mask_.resize(units);
  for (std::size_t r = 0; r < batch; ++r) {
    // Unit u's bit: reseed(mix_seed(row_seed, u)), then one sample() step.
    const std::uint64_t row_seed = row_seeds_[r];
    for (std::size_t u = 0; u < units; ++u) {
      const std::uint64_t z = splitmix_finalize(row_source_state(row_seed, u) + kGolden);
      unit_mask_[u] = (z >> 11) < pseudo_thresholds_[u] ? 0.0f : 1.0f;
    }
    apply_unit_mask(input, out, unit_mask_, r, r + 1);
  }
  // Leave the streams where the per-row replay leaves them: reseeded from
  // the last row, then advanced by one draw for each sampled unit.
  const std::uint64_t last = row_seeds_.back();
  for (std::size_t u = 0; u < sources_.size(); ++u) {
    sources_[u]->reseed(row_source_state(last, u) + (u < units ? kGolden : 0));
  }
}

nn::Tensor SpinDropLayer::forward(const nn::Tensor& input, bool training) {
  const bool active = training || mc_mode_;
  if (!active) {
    mask_ = nn::Tensor(input.shape(), 1.0f);
    return input;
  }
  if (training) {
    // Per-sample pseudo masks at the layer's granularity (fast path, the
    // standard MC-dropout training procedure).
    const double p = sources_.front()->probability();
    std::bernoulli_distribution drop(p);
    mask_ = nn::Tensor(input.shape(), 1.0f);
    const std::size_t batch = input.dim(0);
    const std::size_t per_sample = input.numel() / batch;
    const std::size_t units = unit_count(input.shape());
    const std::size_t inner = per_sample / units;
    const bool row_mode = !row_seeds_.empty();
    if (row_mode && batch != row_seeds_.size()) {
      throw std::invalid_argument("SpinDropLayer: row-seed count does not match batch");
    }
    for (std::size_t b = 0; b < batch; ++b) {
      if (row_mode) {
        // Sharded-trainer contract: sample b's mask comes from a stream
        // keyed to its global row seed — bit for bit the mask a
        // batch-of-one training forward after reseed(row_seeds_[b]) would
        // draw (reseed() seeds the train engine with salt source count).
        train_engine_.seed(nn::mix_seed(row_seeds_[b], sources_.size()));
      }
      for (std::size_t u = 0; u < units; ++u) {
        if (drop(train_engine_)) {
          for (std::size_t i = 0; i < inner; ++i) {
            mask_[(b * units + u) * inner + i] = 0.0f;
          }
        }
      }
    }
    nn::Tensor out = input;
    for (std::size_t i = 0; i < out.numel(); ++i) {
      out[i] *= mask_[i];
    }
    return out;
  }
  const std::size_t units = unit_count(input.shape());
  if (units > sources_.size()) {
    throw std::logic_error("SpinDropLayer: " + std::to_string(units) +
                           " units but only " + std::to_string(sources_.size()) +
                           " dropout modules");
  }
  const std::size_t batch = input.dim(0);
  if (mask_.shape() != input.shape()) {
    mask_ = nn::Tensor(input.shape());  // every element is written below
  }
  nn::Tensor out(input.shape());
  if (row_seeds_.empty()) {
    // Bayesian inference: one decision per unit per pass, drawn from the
    // physical (or pseudo) modules and shared across the batch. The mask is
    // cached element-wise so backward stays correct even in mc mode.
    draw_unit_mask(units);
    apply_unit_mask(input, out, unit_mask_, 0, batch);
    return out;
  }
  if (batch != row_seeds_.size()) {
    throw std::invalid_argument("SpinDropLayer: row-seed count does not match batch");
  }
  if (!pseudo_thresholds_.empty()) {
    forward_pseudo_rows(input, out, units);
    return out;
  }
  // Fused MC over MTJ modules: every row replays the batch-of-one procedure
  // under its own seed — reseed all modules, then draw one decision per
  // unit (each draw is charged to the energy ledger).
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t u = 0; u < sources_.size(); ++u) {
      sources_[u]->reseed(nn::mix_seed(row_seeds_[r], u));
    }
    draw_unit_mask(units);
    apply_unit_mask(input, out, unit_mask_, r, r + 1);
  }
  return out;
}

nn::Tensor SpinDropLayer::backward(const nn::Tensor& grad_output) {
  nn::Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] *= mask_[i];
  }
  return grad;
}

std::unique_ptr<SpinDropLayer> make_pseudo_spindrop(DropGranularity granularity,
                                                    std::size_t units, double p,
                                                    std::uint64_t seed) {
  std::vector<std::unique_ptr<DropoutSource>> sources;
  sources.reserve(units);
  for (std::size_t u = 0; u < units; ++u) {
    sources.push_back(std::make_unique<PseudoDropoutSource>(p, seed + 31 * u + 1));
  }
  return std::make_unique<SpinDropLayer>(granularity, std::move(sources), seed ^ 0xabcd);
}

std::unique_ptr<SpinDropLayer> make_spintronic_spindrop(DropGranularity granularity,
                                                        std::size_t units, double p,
                                                        double delta_sigma,
                                                        std::uint64_t seed,
                                                        energy::EnergyLedger* ledger) {
  std::mt19937_64 engine(seed);
  std::normal_distribution<double> shift(0.0, delta_sigma);
  std::vector<std::unique_ptr<DropoutSource>> sources;
  sources.reserve(units);
  for (std::size_t u = 0; u < units; ++u) {
    sources.push_back(std::make_unique<SpinDropoutSource>(
        p, delta_sigma > 0.0 ? shift(engine) : 0.0, seed + 977 * u + 5, ledger));
  }
  return std::make_unique<SpinDropLayer>(granularity, std::move(sources), seed ^ 0xdcba);
}

}  // namespace neuspin::core
