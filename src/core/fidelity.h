// Fidelity backends: one batched-prediction interface over the two
// hardware-simulation fidelity levels (README.md, "Substitutions and
// ablations").
//
// Everything that answers Bayesian prediction requests — the serving
// runtime's workers, the pooled tile evaluator, the benches — used to
// hard-code which fidelity level it drove (BuiltModel clones vs TiledMlp
// replicas) and duplicate the per-request seeding, energy attribution and
// replica plumbing around it. FidelityBackend extracts that contract:
//
//   forward(inputs, request_seeds[, ledger])  ->  BackendBatch
//
// where row b's prediction is a pure function of (model, row b,
// mc_samples, request_seeds[b]) — the per-request reproducibility contract
// of serve::Runtime, now enforced at the backend seam. clone() yields an
// independent replica with identical programmed state (the worker-replica
// primitive), and cost_hint() ranks backends by per-request cost so a
// cascade can order its rungs.
//
// Two leaf backends live here, next to the machinery they wrap:
//
//  * BehavioralBackend — BuiltModel clones running the fast tensor path
//    (core::predict_fused_batch: the deterministic head once per request,
//    the stochastic tail on the (requests x T) stack); energy is
//    census-priced per request by the caller.
//  * TiledBackend — a TiledMlp replica running the full electrical
//    simulation (crossbar currents, ADC, defects, event-driven delta
//    evaluation); energy is measured event by event per request.
//
// serve::CascadeBackend (serve/backend.h) composes two of these into an
// uncertainty-gated escalation chain.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/bayesian.h"
#include "core/hw_model.h"
#include "core/models.h"
#include "energy/accountant.h"
#include "nn/tensor.h"
#include "xbar/tile.h"

namespace neuspin::obs {
class Registry;  // obs/metrics.h
class Tracer;    // obs/trace.h
}  // namespace neuspin::obs

namespace neuspin::core {

/// One batch of answered requests: parallel arrays, one entry per input
/// row. Each Prediction is a batch-of-one (1 x classes) result.
struct BackendBatch {
  std::vector<Prediction> predictions;
  /// Per-request energy attribution in picojoules (all zeros when the
  /// backend was configured without energy accounting).
  std::vector<double> energy_pj;
  /// Per-request cascade flag: 1 when an escalation rung answered the
  /// request. Leaf backends always report 0.
  std::vector<std::uint8_t> escalated;
  /// Per-request degraded flag: 1 when the answer SHOULD have escalated
  /// but a circuit-broken (or failing) expensive rung forced the cheap
  /// bits instead (serve::CascadeBackend). EMPTY means "no row degraded"
  /// — leaf backends never fill it, so the common path stays two
  /// allocations, not three.
  std::vector<std::uint8_t> degraded;
};

/// A replicable engine that answers batches of seeded prediction requests
/// at one fidelity level (or a composition of levels).
class FidelityBackend {
 public:
  virtual ~FidelityBackend() = default;

  /// Answer one (batch x features) tensor of requests. Row b runs the
  /// T-pass Monte-Carlo loop under streams derived from request_seeds[b]
  /// (pass t draws mix_seed(request_seeds[b], t)) — bitwise identical for
  /// any batch composition, replica, or worker count. When `ledger` is
  /// non-null every chargeable electrical event is also merged into it in
  /// row order.
  [[nodiscard]] virtual BackendBatch forward(
      const nn::Tensor& inputs, std::span<const std::uint64_t> request_seeds,
      energy::EnergyLedger* ledger) = 0;

  /// Independent replica with identical programmed state: clones share no
  /// mutable state, so each serving worker forwards on its own clone
  /// without locking. A clone answers every request with the same bits as
  /// its source.
  [[nodiscard]] virtual std::unique_ptr<FidelityBackend> clone() const = 0;

  /// Reset any internal RNG streams. forward() re-derives all stochastic
  /// streams from the request seeds, so this only matters for callers
  /// driving the wrapped model outside the seeded contract.
  virtual void reseed(std::uint64_t seed) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Estimated cost of answering one request, in arbitrary units where
  /// the behavioural tensor path is 1.0. Cascades order their rungs
  /// cheapest-first by this hint; it carries no accuracy meaning.
  [[nodiscard]] virtual double cost_hint() const = 0;

  /// Event-engine work census (rows skipped by the delta caches) summed
  /// over the backend's tiles. Backends without an electrical substrate
  /// report an empty census.
  [[nodiscard]] virtual xbar::DeltaStats delta_stats() const { return {}; }

  /// Attach a span tracer (nullptr detaches): forward() then emits one
  /// rung-level span per call (and the tiled backend per-tile evaluation
  /// spans). Observability only — spans read clocks, never RNG streams,
  /// so attaching a tracer cannot change a single result bit. Not
  /// propagated by clone(); the owner re-attaches per replica.
  virtual void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Inject extra stuck-at defects into the backend's substrate mid-run.
  /// No-op for backends without an electrical substrate (behavioural);
  /// composite backends (cascade, fault decorator) propagate to their
  /// children. Affects only THIS instance — sibling clones keep serving
  /// the pristine bits until the caller injects into them too.
  virtual void inject_defects(const device::DefectRates& rates, std::uint64_t seed) {
    (void)rates;
    (void)seed;
  }

  /// Targeted variant: defects land on one tile only (TiledMlp tile
  /// indexing — conv stages first, then dense layers). Chaos tests aim
  /// bursts with this to measure per-tile detection latency. No-op without
  /// a substrate; out-of-range tile indices are also a no-op (a cascade's
  /// cheap rung has no tile to hit).
  virtual void inject_defects_at(std::size_t tile_index,
                                 const device::DefectRates& rates, std::uint64_t seed) {
    (void)tile_index;
    (void)rates;
    (void)seed;
  }

  /// One conductance-drift increment across the substrate (deterministic
  /// in `seed`, compounding). No-op without a substrate.
  virtual void apply_drift(double magnitude, std::uint64_t seed) {
    (void)magnitude;
    (void)seed;
  }

  /// Canary-probe the substrate (xbar/health.h). Backends without tiles
  /// report an empty, healthy record.
  [[nodiscard]] virtual xbar::HealthReport check_health(
      const xbar::ProbeConfig& config) const {
    (void)config;
    return {};
  }

  /// Probe + spare-line remap + recalibrate the substrate. Backends
  /// without tiles heal vacuously (healthy_after = true, nothing touched).
  virtual xbar::HealSummary heal(const xbar::ProbeConfig& config) {
    (void)config;
    return {};
  }

  /// Re-program the substrate to its reference conductances and zero ADC
  /// offsets; returns cells moved. No-op without a substrate.
  virtual std::size_t recalibrate() { return 0; }

  /// Attach a metrics registry (nullptr detaches): backends with internal
  /// health state (the cascade's circuit breaker, the fault injector) then
  /// record their counters/gauges into it. Observability only — like
  /// set_tracer, binding cannot change a result bit. Not propagated by
  /// clone(); the owner re-binds per replica (shared state like a breaker
  /// core binds idempotently).
  virtual void bind_metrics(obs::Registry* registry) { (void)registry; }

 protected:
  obs::Tracer* tracer_ = nullptr;
};

/// Knobs of the behavioural (fast tensor path) backend.
struct BehavioralBackendConfig {
  std::size_t mc_samples = 20;  ///< T stochastic passes per request
  /// Clones splitting the fused stacked tail over the shared pool
  /// (resolved; 1 = run inline on the calling thread).
  std::size_t team_size = 1;
  /// Census-priced energy of one request (0 = no energy accounting). The
  /// behavioural path has no electrical events to measure, so the caller
  /// prices a request once from the architecture census
  /// (core::inference_census) and every answer reports that constant.
  double energy_pj_per_request = 0.0;
};

/// BuiltModel clones running the behavioural tensor path, with whatever
/// HwNoiseConfig non-idealities the model was built with.
class BehavioralBackend : public FidelityBackend {
 public:
  /// Clones `model` team_size times (MC mode enabled); the caller's model
  /// is never mutated.
  BehavioralBackend(const BuiltModel& model, const BehavioralBackendConfig& config);
  BehavioralBackend(const BehavioralBackend& other);

  [[nodiscard]] BackendBatch forward(const nn::Tensor& inputs,
                                     std::span<const std::uint64_t> request_seeds,
                                     energy::EnergyLedger* ledger) override;
  [[nodiscard]] std::unique_ptr<FidelityBackend> clone() const override {
    return std::make_unique<BehavioralBackend>(*this);
  }
  void reseed(std::uint64_t seed) override;
  [[nodiscard]] std::string name() const override { return "behavioral"; }
  [[nodiscard]] double cost_hint() const override { return 1.0; }

  [[nodiscard]] const BehavioralBackendConfig& config() const { return config_; }

 private:
  BehavioralBackendConfig config_;
  std::vector<BuiltModel> team_;
};

/// Knobs of the tiled (full electrical simulation) backend.
struct TiledBackendConfig {
  xbar::TileConfig tile{};       ///< crossbar design point
  std::uint64_t tile_seed = 42;  ///< programming seed (same seed = same bits)
  std::size_t mc_samples = 20;   ///< T electrical passes per request
  double spindrop_p = 0.0;       ///< hardware dropout-module probability
  /// Measure per-request energy event-by-event into BackendBatch::energy_pj.
  /// Off, forward() still merges events into a caller ledger when given one
  /// (the pooled evaluator's mode: chunk ledgers, no per-row attribution).
  bool measure_energy = true;
};

/// One TiledMlp replica serving the electrically faithful path: crossbar
/// currents, ADC quantization, IR drop, defects, SpinDrop row gating —
/// roughly three orders of magnitude more work per request than the
/// behavioural path (see cost_hint).
class TiledBackend : public FidelityBackend {
 public:
  /// Programs a replica from `net` (read-only; the canonical-layout
  /// requirements of TiledMlp apply).
  TiledBackend(nn::Sequential& net, const TiledBackendConfig& config);
  /// Deep copy of the programmed replica (variability and defect draws
  /// included) — same bits as a rebuild, without the programming pass.
  TiledBackend(const TiledBackend& other);

  [[nodiscard]] BackendBatch forward(const nn::Tensor& inputs,
                                     std::span<const std::uint64_t> request_seeds,
                                     energy::EnergyLedger* ledger) override;
  [[nodiscard]] std::unique_ptr<FidelityBackend> clone() const override {
    return std::make_unique<TiledBackend>(*this);
  }
  void reseed(std::uint64_t seed) override { replica_.reseed(seed); }
  [[nodiscard]] std::string name() const override { return "tiled"; }
  [[nodiscard]] double cost_hint() const override { return 1000.0; }
  [[nodiscard]] xbar::DeltaStats delta_stats() const override {
    return replica_.delta_stats();
  }
  /// Propagates to the replica so per-tile evaluation spans (with the
  /// event engine's rows-skipped census) land on the same tracer.
  void set_tracer(obs::Tracer* tracer) override;

  /// Extra stuck-at defects on every tile of the replica.
  void inject_defects(const device::DefectRates& rates, std::uint64_t seed) override {
    replica_.inject_defects(rates, seed);
  }
  void inject_defects_at(std::size_t tile_index, const device::DefectRates& rates,
                         std::uint64_t seed) override {
    if (tile_index < replica_.layer_count()) {
      replica_.inject_defects_at(tile_index, rates, seed);
    }
  }
  void apply_drift(double magnitude, std::uint64_t seed) override {
    replica_.apply_drift(magnitude, seed);
  }
  [[nodiscard]] xbar::HealthReport check_health(
      const xbar::ProbeConfig& config) const override {
    return replica_.probe_health(config);
  }
  xbar::HealSummary heal(const xbar::ProbeConfig& config) override {
    return replica_.heal(config);
  }
  std::size_t recalibrate() override { return replica_.recalibrate(); }

  [[nodiscard]] const TiledBackendConfig& config() const { return config_; }

 private:
  TiledBackendConfig config_;
  TiledMlp replica_;
};

}  // namespace neuspin::core
