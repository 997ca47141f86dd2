#include "core/fidelity.h"

#include <stdexcept>
#include <utility>

#include "nn/model.h"
#include "obs/trace.h"

namespace neuspin::core {

namespace {

void check_inputs(const nn::Tensor& inputs,
                  std::span<const std::uint64_t> request_seeds) {
  if (inputs.rank() != 2) {
    throw std::invalid_argument("FidelityBackend: expected (batch x features) input");
  }
  if (inputs.dim(0) == 0 || inputs.dim(0) != request_seeds.size()) {
    throw std::invalid_argument(
        "FidelityBackend: expected one request seed per input row");
  }
}

nn::Tensor copy_row(const nn::Tensor& inputs, std::size_t b) {
  const std::size_t features = inputs.dim(1);
  nn::Tensor row({1, features});
  std::copy(inputs.data().begin() + static_cast<std::ptrdiff_t>(b * features),
            inputs.data().begin() + static_cast<std::ptrdiff_t>((b + 1) * features),
            row.data().begin());
  return row;
}

}  // namespace

BehavioralBackend::BehavioralBackend(const BuiltModel& model,
                                     const BehavioralBackendConfig& config)
    : config_(config) {
  if (config.mc_samples == 0) {
    throw std::invalid_argument("BehavioralBackend: need at least one MC sample");
  }
  if (config.team_size == 0) {
    throw std::invalid_argument("BehavioralBackend: team_size must be at least 1");
  }
  team_.reserve(config.team_size);
  for (std::size_t m = 0; m < config.team_size; ++m) {
    team_.push_back(model.clone());
    team_.back().enable_mc(true);
  }
}

BehavioralBackend::BehavioralBackend(const BehavioralBackend& other)
    : config_(other.config_) {
  team_.reserve(other.team_.size());
  for (const auto& member : other.team_) {
    team_.push_back(member.clone());
  }
}

void BehavioralBackend::reseed(std::uint64_t seed) {
  for (auto& member : team_) {
    member.reseed_stochastic(seed);
  }
}

BackendBatch BehavioralBackend::forward(const nn::Tensor& inputs,
                                        std::span<const std::uint64_t> request_seeds,
                                        energy::EnergyLedger* /*ledger*/) {
  check_inputs(inputs, request_seeds);
  const std::size_t batch = inputs.dim(0);
  obs::ScopedSpan span(tracer_, "rung:behavioral", "backend");
  span.arg("rows", static_cast<double>(batch));
  span.arg("mc_samples", static_cast<double>(config_.mc_samples));
  BackendBatch out;
  // Head once per request, the stochastic tail as one stacked
  // (requests x T) forward per layer; per-row streams keep every row the
  // bit-exact batch-of-one prediction.
  out.predictions = predict_fused_batch(std::span<BuiltModel>(team_), inputs,
                                        request_seeds, config_.mc_samples);
  // No electrical events on this path: energy is the census-priced
  // constant, and a caller ledger has nothing to merge.
  out.energy_pj.assign(batch, config_.energy_pj_per_request);
  out.escalated.assign(batch, 0);
  return out;
}

TiledBackend::TiledBackend(nn::Sequential& net, const TiledBackendConfig& config)
    : config_(config), replica_(net, config.tile, config.tile_seed) {
  if (config.mc_samples == 0) {
    throw std::invalid_argument("TiledBackend: need at least one MC sample");
  }
}

TiledBackend::TiledBackend(const TiledBackend& other)
    : config_(other.config_), replica_(other.replica_) {}

void TiledBackend::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  replica_.set_tracer(tracer);
}

BackendBatch TiledBackend::forward(const nn::Tensor& inputs,
                                   std::span<const std::uint64_t> request_seeds,
                                   energy::EnergyLedger* ledger) {
  check_inputs(inputs, request_seeds);
  const std::size_t batch = inputs.dim(0);
  obs::ScopedSpan span(tracer_, "rung:tiled", "backend");
  span.arg("rows", static_cast<double>(batch));
  span.arg("mc_samples", static_cast<double>(config_.mc_samples));
  const xbar::DeltaStats before = span.active() ? replica_.delta_stats()
                                                : xbar::DeltaStats{};
  BackendBatch out;
  out.predictions.reserve(batch);
  out.energy_pj.assign(batch, 0.0);
  out.escalated.assign(batch, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    const nn::Tensor row = copy_row(inputs, b);
    const McPredictor predictor(config_.mc_samples, request_seeds[b]);
    if (config_.measure_energy) {
      // Per-request attribution: a fresh ledger per row, merged into the
      // caller's afterwards (row order, so chunked and serial accumulation
      // agree event count by event count).
      energy::EnergyLedger row_ledger(config_.tile.adc_bits);
      out.predictions.push_back(predictor.predict(
          row, McPredictor::SeededForward(
                   [this, &row_ledger](const nn::Tensor& x, std::uint64_t pass_seed) {
                     replica_.reseed(pass_seed);
                     return replica_.forward_spindrop(x, config_.spindrop_p,
                                                      &row_ledger);
                   })));
      out.energy_pj[b] = row_ledger.total_energy(energy::default_energy_params());
      if (ledger != nullptr) {
        *ledger += row_ledger;
      }
    } else {
      out.predictions.push_back(predictor.predict(
          row, McPredictor::SeededForward(
                   [this, ledger](const nn::Tensor& x, std::uint64_t pass_seed) {
                     replica_.reseed(pass_seed);
                     return replica_.forward_spindrop(x, config_.spindrop_p, ledger);
                   })));
    }
  }
  if (span.active()) {
    xbar::DeltaStats delta = replica_.delta_stats();
    delta.evaluations -= before.evaluations;
    delta.rows_total -= before.rows_total;
    delta.rows_dirty -= before.rows_dirty;
    span.arg("rows_total", static_cast<double>(delta.rows_total));
    span.arg("rows_dirty", static_cast<double>(delta.rows_dirty));
    span.arg("rows_skipped",
             static_cast<double>(delta.rows_total - delta.rows_dirty));
  }
  return out;
}

}  // namespace neuspin::core
