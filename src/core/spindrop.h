// SpinDrop and Spatial-SpinDrop layers (paper §III-A.1, §III-A.2).
//
// SpinDrop equips each neuron with a stochastic MTJ dropout module: a
// calibrated sub-critical SET pulse flips the device with probability p,
// a sense-amp read of the state *is* the dropout signal, and a RESET
// rearms it. Spatial-SpinDrop replaces per-neuron gating with per-feature-
// map gating, cutting the module count by ~an order of magnitude and
// making the module generalize over both conv mapping strategies (Fig. 1).
//
// Both layers draw their bits from a DropoutSource, so training can use a
// fast pseudo-random source while hardware-accurate inference uses
// device::SpinRng modules whose *realized* probability is shifted by
// device variation. Generated bits are charged to an EnergyLedger.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <random>
#include <vector>

#include "device/rng.h"
#include "energy/accountant.h"
#include "nn/layers.h"

namespace neuspin::core {

/// Source of dropout decisions (true = drop).
class DropoutSource {
 public:
  virtual ~DropoutSource() = default;
  /// Draw one dropout decision.
  [[nodiscard]] virtual bool sample() = 0;
  /// Probability the source actually realizes.
  [[nodiscard]] virtual double probability() const = 0;
  /// Deep copy (model replication for threaded MC evaluation).
  [[nodiscard]] virtual std::unique_ptr<DropoutSource> clone() const = 0;
  /// Reset the source's entropy stream; realized probability is untouched.
  virtual void reseed(std::uint64_t seed) = 0;
  /// Serialize / restore the stream mid-run (text), so a checkpointed
  /// training run resumes this source bitwise. Sources that skip these
  /// hooks still work — they just aren't bitwise across kill-and-resume.
  virtual void save_state(std::ostream& out) const { (void)out; }
  virtual void load_state(std::istream& in) { (void)in; }
};

/// Ideal Bernoulli source (software training path).
///
/// Backed by a splitmix64 counter stream rather than std::mt19937_64: the
/// Monte-Carlo evaluator reseeds every module before every pass, so
/// reseed() has to be cheap. A splitmix64 reseed is a single store where an
/// mt19937_64 reseed initializes 312 state words. The stream is also what
/// lets the fused row-mode forward of SpinDropLayer skip the sources
/// altogether: a row's bit for unit u is a pure function of the row seed,
/// u and p (see SpinDropLayer::reseed_rows).
class PseudoDropoutSource final : public DropoutSource {
 public:
  PseudoDropoutSource(double p, std::uint64_t seed);
  [[nodiscard]] bool sample() override;
  [[nodiscard]] double probability() const override { return p_; }
  [[nodiscard]] std::unique_ptr<DropoutSource> clone() const override {
    return std::make_unique<PseudoDropoutSource>(*this);
  }
  void reseed(std::uint64_t seed) override { state_ = seed; }
  void save_state(std::ostream& out) const override { out << state_ << '\n'; }
  void load_state(std::istream& in) override { in >> state_; }

 private:
  double p_;
  std::uint64_t state_;
};

/// Hardware source backed by one stochastic MTJ module. The realized
/// probability deviates from the target according to the device's
/// variation-shifted thermal stability factor.
class SpinDropoutSource final : public DropoutSource {
 public:
  /// `target_p` is the requested dropout probability; `delta_shift` is the
  /// variation offset applied to the MTJ's thermal stability factor (0 for
  /// a nominal device); bits are charged to `ledger` when non-null.
  SpinDropoutSource(double target_p, double delta_shift, std::uint64_t seed,
                    energy::EnergyLedger* ledger = nullptr);

  [[nodiscard]] bool sample() override;
  [[nodiscard]] double probability() const override;
  [[nodiscard]] const device::SpinRng& rng() const { return rng_; }
  /// Clones share the (optional) energy ledger pointer; concurrent clones
  /// must therefore run without a ledger or with external synchronization.
  [[nodiscard]] std::unique_ptr<DropoutSource> clone() const override {
    return std::make_unique<SpinDropoutSource>(*this);
  }
  void reseed(std::uint64_t seed) override { rng_.reseed(seed); }
  void save_state(std::ostream& out) const override { rng_.save_stream(out); }
  void load_state(std::istream& in) override { rng_.load_stream(in); }

 private:
  device::SpinRng rng_;
  energy::EnergyLedger* ledger_;
};

/// Dropout granularity of the spin-dropout layer family.
enum class DropGranularity : std::uint8_t {
  kNeuron,      ///< SpinDrop: one decision per neuron (per element)
  kFeatureMap,  ///< Spatial-SpinDrop: one decision per channel
  kLayer,       ///< one decision for the whole layer (scale-dropout style)
};

/// Dropout layer whose decisions come from DropoutSources.
///
/// Training uses per-sample pseudo-random masks (standard MC-dropout
/// training); during Bayesian inference (`mc_mode`), masks are drawn once
/// per forward pass and shared across the batch, matching the hardware,
/// where one physical module gates one neuron/feature map for the pass.
/// Dropped units output zero, which on the crossbar is a disabled
/// word-line pair — no rescaling is applied, matching the binary-NN
/// convention of the paper.
class SpinDropLayer : public nn::Layer {
 public:
  /// `sources`: one per gated unit (neuron count for kNeuron, channel
  /// count for kFeatureMap, 1 for kLayer). `train_seed` drives the
  /// training-path pseudo masks.
  SpinDropLayer(DropGranularity granularity,
                std::vector<std::unique_ptr<DropoutSource>> sources,
                std::uint64_t train_seed);
  /// Deep copy: every dropout source is cloned (RNG state included).
  SpinDropLayer(const SpinDropLayer& other);

  nn::Tensor forward(const nn::Tensor& input, bool training) override;
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<SpinDropLayer>(*this);
  }
  void reseed(std::uint64_t seed) override;
  /// Row mode: row r of the next MC forward draws its own unit mask, bit
  /// for bit the mask a batch-of-one pass after reseed(row_seeds[r]) would
  /// draw. MTJ-backed pools (or mixed ones) replay exactly that per row:
  /// reseed every module, then sample one decision per unit. An all-pseudo
  /// pool computes the same bits inline from the row seed (two splitmix64
  /// steps per unit against a ceil(p·2^53) integer threshold), with no
  /// virtual call or allocation per row, and afterwards leaves every source
  /// in the state the replay would. Training forwards honor row mode too
  /// (the data-parallel trainer's contract): sample r's pseudo mask comes
  /// from the train stream reseeded by row_seeds[r], exactly the
  /// batch-of-one training draw.
  void reseed_rows(std::span<const std::uint64_t> row_seeds) override;
  void save_rng_state(std::ostream& out) const override {
    out << train_engine_ << '\n';
    for (const auto& source : sources_) {
      source->save_state(out);
    }
  }
  void load_rng_state(std::istream& in) override {
    in >> train_engine_;
    for (auto& source : sources_) {
      source->load_state(in);
    }
  }

  void enable_mc(bool on) { mc_mode_ = on; }
  [[nodiscard]] bool mc_enabled() const { return mc_mode_; }
  [[nodiscard]] DropGranularity granularity() const { return granularity_; }
  [[nodiscard]] std::size_t module_count() const { return sources_.size(); }
  /// Mean realized probability across this layer's physical modules.
  [[nodiscard]] double realized_probability() const;

 private:
  /// Units gated for `shape` (elements, channels or 1).
  [[nodiscard]] std::size_t unit_count(const nn::Shape& shape) const;
  /// Gate batch rows [b_begin, b_end) of `input` by the per-unit mask,
  /// writing those rows of `out` and of the backward mask in one pass.
  void apply_unit_mask(const nn::Tensor& input, nn::Tensor& out,
                       std::span<const float> unit_mask, std::size_t b_begin,
                       std::size_t b_end);

  /// Draw one per-unit mask into unit_mask_ with the modules' current
  /// streams (the shared body of the batch-shared and per-row MC paths).
  void draw_unit_mask(std::size_t units);
  /// Row-mode MC forward of an all-pseudo pool into `out` (see reseed_rows).
  void forward_pseudo_rows(const nn::Tensor& input, nn::Tensor& out, std::size_t units);

  DropGranularity granularity_;
  std::vector<std::unique_ptr<DropoutSource>> sources_;
  /// ceil(p·2^53) per source when every source is a PseudoDropoutSource
  /// (a draw x = z>>11 drops iff x < threshold); empty otherwise.
  std::vector<std::uint64_t> pseudo_thresholds_;
  std::mt19937_64 train_engine_;
  bool mc_mode_ = false;
  std::vector<std::uint64_t> row_seeds_;  ///< non-empty = row mode
  std::vector<float> unit_mask_;          ///< scratch: one decision per unit
  nn::Tensor mask_;  ///< element-wise mask cached for backward
};

/// Build a SpinDropLayer with ideal pseudo sources (training / ablation).
[[nodiscard]] std::unique_ptr<SpinDropLayer> make_pseudo_spindrop(
    DropGranularity granularity, std::size_t units, double p, std::uint64_t seed);

/// Build a SpinDropLayer backed by MTJ modules with device-to-device
/// variation of the thermal stability factor (sigma `delta_sigma`).
[[nodiscard]] std::unique_ptr<SpinDropLayer> make_spintronic_spindrop(
    DropGranularity granularity, std::size_t units, double p, double delta_sigma,
    std::uint64_t seed, energy::EnergyLedger* ledger = nullptr);

}  // namespace neuspin::core
