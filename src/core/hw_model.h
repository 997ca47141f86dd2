// Hardware deployment models.
//
// Two fidelity levels, used for different purposes (README.md,
// "Substitutions and ablations"):
//
//  * DenseTile-based inference (TiledMlp): full electrical simulation of
//    every MVM — crossbar currents, ADC quantization, IR drop, defects.
//    Used by the quickstart example, integration tests and substrate
//    benches. Exact but too slow for full accuracy sweeps of CNNs.
//
//  * Behavioural hardware noise (AnalogReadout + inject_weight_defects):
//    the same non-idealities folded into fast tensor ops — pre-activation
//    quantization to the ADC LSB, Gaussian read noise, and binary-weight
//    sign flips for stuck-at defects. Validated against the tile path in
//    the HwConsistency.* tests in tests/integration_test.cpp; used by the
//    accuracy benches.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <random>
#include <vector>

#include "core/bayesian.h"
#include "energy/accountant.h"
#include "nn/binarize.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "xbar/conv_tile.h"
#include "xbar/health.h"
#include "xbar/tile.h"

namespace neuspin::obs {
class Tracer;  // obs/trace.h
}

namespace neuspin::core {

class FidelityBackend;  // core/fidelity.h

/// Behavioural non-ideality knobs for fast hardware-aware evaluation.
struct HwNoiseConfig {
  bool enabled = false;
  /// ADC level count (2^bits); pre-activations are quantized onto this
  /// many levels across the batch's observed dynamic range (a SAR ADC
  /// with auto-ranged full scale). 0 disables quantization.
  std::size_t quant_levels = 256;
  /// Read-noise sigma as a fraction of the observed dynamic range
  /// (cycle-to-cycle conductance noise + residual IR drop).
  float noise_fraction = 0.0f;
  std::uint64_t seed = 99;
};

/// Identity during training; at evaluation applies ADC quantization and
/// additive read noise to the pre-activations of the preceding binary
/// layer. Backward is a straight pass-through (STE), so the layer can stay
/// in the graph during training without affecting gradients.
class AnalogReadout : public nn::Layer {
 public:
  explicit AnalogReadout(const HwNoiseConfig& config);

  nn::Tensor forward(const nn::Tensor& input, bool training) override;
  nn::Tensor backward(const nn::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "AnalogReadout"; }
  [[nodiscard]] std::unique_ptr<nn::Layer> clone() const override {
    return std::make_unique<AnalogReadout>(*this);
  }
  void reseed(std::uint64_t seed) override {
    engine_.seed(seed);
    row_seeds_.clear();
  }
  /// Row mode (fused MC): row r auto-ranges its full scale over its own
  /// values and draws read noise from a stream seeded by row_seeds[r] —
  /// bit for bit the batch-of-one evaluation pass, whose SAR reference
  /// tracked exactly that one row.
  void reseed_rows(std::span<const std::uint64_t> row_seeds) override {
    row_seeds_.assign(row_seeds.begin(), row_seeds.end());
  }
  void save_rng_state(std::ostream& out) const override { out << engine_ << '\n'; }
  void load_rng_state(std::istream& in) override { in >> engine_; }

 private:
  HwNoiseConfig config_;
  std::mt19937_64 engine_;
  std::vector<std::uint64_t> row_seeds_;  ///< non-empty = row mode
};

/// Flip the sign of a fraction `flip_rate` of latent weights in every
/// BinaryDense / BinaryConv2d layer of `net` — the behavioural equivalent
/// of stuck-at defects landing on the wrong state. Returns the number of
/// flipped weights.
std::size_t inject_weight_defects(nn::Sequential& net, float flip_rate,
                                  std::uint64_t seed);

/// Multiply every learnable parameter of `net` by (1 + N(0, rel_sigma)) —
/// the conductance-variation analogue for layers whose parameters live in
/// the NVM crossbars (LSTM gates, dense weights, multi-level cells).
/// Normalization parameters are skipped by default: they live in digital
/// registers, not in analog conductances. Returns the perturbed count.
std::size_t perturb_weights(nn::Sequential& net, float rel_sigma, std::uint64_t seed,
                            bool include_norm_params = false);

/// Tile-backed inference for a trained binary network of the canonical
/// layout
///   [BinaryConv2d -> BatchNorm -> Sign -> (MaxPool2d)]*
///   [BinaryDense -> BatchNorm -> Sign]* -> BinaryDense.
/// Batch-norm is folded into per-neuron (dense) or per-channel (conv)
/// thresholds; hidden activations are computed with sign read-out, the
/// final layer with the configured ADC. Conv stages run on ConvTile
/// (mapping strategy 1: one MVM per output pixel), pooling and flattening
/// are digital periphery on the ±1 activations, so the Table-I CNN has a
/// fully electrical path. Flat (batch x features) inputs to a CNN-shaped
/// net are reshaped to NCHW assuming square feature maps.
class TiledMlp {
 public:
  /// Map `net` (which must follow the canonical layout) onto tiles.
  TiledMlp(nn::Sequential& net, const xbar::TileConfig& tile_config,
           std::uint64_t seed);

  /// Deep copy via DenseTile::clone: every programmed cell, variability
  /// draw, folded threshold and injected defect is preserved, so a clone
  /// serves the same predictions as a rebuild from (net, config, seed)
  /// without re-running the tile programming pass. The replica primitive
  /// of TiledMcEvaluator and the tiled serving backend.
  TiledMlp(const TiledMlp& other);
  TiledMlp& operator=(const TiledMlp&) = delete;
  TiledMlp(TiledMlp&&) = default;
  TiledMlp& operator=(TiledMlp&&) = default;
  [[nodiscard]] TiledMlp clone() const { return TiledMlp(*this); }

  /// Deterministic hardware forward pass of a (batch x features) tensor.
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& input,
                                   energy::EnergyLedger* ledger = nullptr);

  /// SpinDrop hardware pass: hidden dense activations are gated by
  /// per-neuron stochastic MTJ modules with dropout probability `p`; conv
  /// stages use one Spatial-SpinDrop module per feature map (a dropped
  /// channel disables its whole K*K row group in the next conv tile —
  /// strategy 1's grouped multi-row enable).
  [[nodiscard]] nn::Tensor forward_spindrop(const nn::Tensor& input, double p,
                                            energy::EnergyLedger* ledger = nullptr);

  [[nodiscard]] std::size_t layer_count() const {
    return conv_stages_.size() + tiles_.size();
  }
  [[nodiscard]] std::size_t conv_stage_count() const { return conv_stages_.size(); }
  /// Output width of the classifier layer.
  [[nodiscard]] std::size_t out_features() const;
  /// Inject extra stuck-at defects into every tile.
  void inject_defects(const device::DefectRates& rates, std::uint64_t seed);
  /// Inject into one tile only. Tiles index conv stages first, then dense
  /// layers — the order of layer_count(); the per-tile seed derivation
  /// matches inject_defects so targeting tile t reproduces exactly the
  /// defects a whole-model injection would have put there.
  void inject_defects_at(std::size_t tile_index, const device::DefectRates& rates,
                         std::uint64_t seed);

  /// One conductance-drift increment on every tile (deterministic in
  /// `seed`, compounding across calls).
  void apply_drift(double magnitude, std::uint64_t seed);
  /// Canary-probe every tile (localization sweep only where the canary
  /// fails, unless `config.force_sweep`).
  [[nodiscard]] xbar::HealthReport probe_health(const xbar::ProbeConfig& config) const;
  /// Probe + spare-line remap + recalibrate every tile.
  [[nodiscard]] xbar::HealSummary heal(const xbar::ProbeConfig& config);
  /// Re-program all tiles to reference conductances and zero ADC offsets.
  std::size_t recalibrate();

  /// Reset the electrical RNG stream (cycle-to-cycle read noise and MTJ
  /// dropout draws) so the next forward pass is a pure function of
  /// (programmed tiles, input, p, seed). The pooled Monte-Carlo evaluator
  /// and the serving runtime reseed before every pass, which is what makes
  /// tile-level inference reproducible across worker counts.
  void reseed(std::uint64_t seed) { engine_.seed(seed); }

  /// Aggregate event-engine work census over every tile (conv and dense):
  /// how much row propagation the delta caches skipped since construction.
  [[nodiscard]] xbar::DeltaStats delta_stats() const;

  /// Attach a span tracer (nullptr detaches): every subsequent tile
  /// evaluation emits a span carrying the event engine's rows-skipped
  /// census for that call. Observability only — never touches the
  /// electrical RNG stream or a result bit. Not copied by clone().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct FoldedLayer {
    std::unique_ptr<xbar::DenseTile> tile;
    std::vector<float> bias;       ///< dense bias per column
    std::vector<float> threshold;  ///< folded BN threshold (hidden layers)
    std::vector<float> bn_sign;    ///< sign of gamma (threshold comparison flips)
    bool hidden = false;
  };
  /// One electrical conv block: ConvTile + bias + folded BN threshold,
  /// followed by optional 2x2 digital max pooling of the ±1 activations.
  struct ConvStage {
    std::unique_ptr<xbar::ConvTile> tile;
    std::vector<float> bias;       ///< conv bias per output channel
    std::vector<float> threshold;  ///< folded BN threshold per channel
    std::vector<float> bn_sign;    ///< sign of gamma per channel
    bool pool = false;             ///< MaxPool2d follows the activation
  };

  /// Run the conv stages on one flat sample, replacing `x`/`enabled` with
  /// the flattened ±1 feature maps and their Spatial-SpinDrop gating.
  void run_conv_stages(std::vector<float>& x, std::vector<std::uint8_t>& enabled,
                       double p, energy::EnergyLedger* ledger);

  std::vector<ConvStage> conv_stages_;
  std::vector<FoldedLayer> tiles_;
  std::mt19937_64 engine_;
  std::uint64_t dropout_seed_;
  /// Span sink for per-tile evaluation spans (null = no tracing). Not
  /// copied: a clone's owner re-attaches its own tracer.
  obs::Tracer* tracer_ = nullptr;
};

/// Knobs of the pooled tile-level Monte-Carlo evaluator.
struct TiledEvalOptions {
  std::size_t mc_samples = 20;  ///< T electrical passes per sample
  /// SpinDrop probability of each hidden neuron's MTJ dropout module
  /// (0 = deterministic hardware forward, still subject to read noise).
  double dropout_p = 0.0;
  /// Replica count: 0 = one per hardware thread, 1 = serial. Results are
  /// independent of this value.
  std::size_t threads = 0;
  /// Base seed of the per-(sample, pass) RNG streams.
  std::uint64_t seed = 0x74696c65646d63ull;  // "tiledmc"
};

/// Parallel Monte-Carlo inference over the electrical fidelity level: the
/// clone-per-worker pattern of core::evaluate driven through replicated
/// core::TiledBackend instances (core/fidelity.h).
///
/// The first replica is programmed eagerly (construction is a
/// deterministic function of (net weights, tile config, tile seed), and a
/// non-canonical net layout fails here, not at the first predict);
/// additional replicas are FidelityBackend::clone() copies of its
/// programmed state — bit-identical hardware, including the variability
/// and defect draws, without re-running the programming pass per worker.
/// Replicas are built lazily, up to min(threads, batch rows), so a small
/// predict() on a many-core host does not clone tiles that would sit
/// idle. Samples are fanned across replicas in contiguous chunks; sample
/// `row` runs its T passes under the backend request seed
/// mix_seed(seed, row) (so pass t draws mix_seed(mix_seed(seed, row), t)).
/// Predictions are therefore a pure function of (net, tile config, tile
/// seed, options, inputs) — bitwise identical for any thread count. Note
/// the streams are keyed by in-call row index: predicting the same rows
/// split across several predict() calls draws different streams than one
/// combined call (the serving runtime, which needs per-request
/// invariance, derives its own per-request seeds instead).
class TiledMcEvaluator {
 public:
  /// Programs the first replica from `net` (read-only; the caller's net is
  /// never referenced after construction).
  TiledMcEvaluator(nn::Sequential& net, const xbar::TileConfig& tile_config,
                   std::uint64_t tile_seed, const TiledEvalOptions& options);
  ~TiledMcEvaluator();
  TiledMcEvaluator(TiledMcEvaluator&&) noexcept;
  TiledMcEvaluator& operator=(TiledMcEvaluator&&) noexcept;
  TiledMcEvaluator(const TiledMcEvaluator&) = delete;
  TiledMcEvaluator& operator=(const TiledMcEvaluator&) = delete;

  /// Bayesian prediction of a (batch x features) tensor. When `ledger` is
  /// non-null, every chargeable event of every pass is accumulated into it
  /// (per-replica sub-ledgers are merged deterministically).
  [[nodiscard]] Prediction predict(const nn::Tensor& inputs,
                                   energy::EnergyLedger* ledger = nullptr);

  /// Replicas constructed so far (grows on demand, never past `threads`).
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] const TiledEvalOptions& options() const { return options_; }
  /// Event-engine work census summed over every replica's tiles.
  [[nodiscard]] xbar::DeltaStats delta_stats() const;

 private:
  TiledEvalOptions options_;
  std::size_t max_replicas_;
  std::vector<std::unique_ptr<FidelityBackend>> replicas_;
};

}  // namespace neuspin::core
