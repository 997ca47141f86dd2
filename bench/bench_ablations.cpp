// Ablations of the design choices listed in README.md ("Substitutions and
// ablations"):
//   A1  ADC bit-width vs inference accuracy (the §II-D quantization-error
//       discussion)
//   A2  variability sigma sweep on tile-level inference ("stochasticity as
//       a feature vs a foe")
//   A3  adaptive vs fixed scale-dropout probability
//   A4  SpinBayes instance count N vs accuracy/uncertainty
//   A5  dropout granularity: neuron vs feature-map vs layer (module count
//       vs predictive quality)
//   A6  data retention: accuracy decay of a stored network over idle time
//       as thermally weak devices relax (paper takeaway 4)
//   A7  MC-DropConnect: the per-weight design point the paper's §II-D
//       scalability argument warns about
#include <cstdio>

#include "bench_util.h"
#include "core/dropconnect.h"
#include "core/hw_model.h"
#include "device/retention.h"
#include "core/models.h"
#include "core/pipeline.h"
#include "data/ood.h"
#include "data/strokes.h"

int main() {
  using namespace neuspin;
  bench::banner("bench_ablations", "design-choice ablations (README.md, \"Substitutions and ablations\")");

  data::StrokeConfig sc;
  sc.samples_per_class = 120;
  const nn::Dataset train_img =
      data::standardize_per_sample(data::make_stroke_digits(sc, 91));
  sc.samples_per_class = 40;
  const nn::Dataset test_img = data::make_stroke_digits(sc, 92);
  const nn::Dataset train = data::flatten_dataset(train_img);
  const nn::Dataset test =
      data::flatten_dataset(data::standardize_per_sample(test_img));

  // ---------- A1: ADC resolution vs accuracy ----------
  std::printf("A1. ADC resolution vs accuracy (behavioural quantization):\n");
  std::printf("    %-10s %10s\n", "levels", "acc[%]");
  for (std::size_t levels : {8u, 16u, 64u, 256u, 0u}) {
    core::ModelConfig mc;
    mc.method = core::Method::kDeterministic;
    mc.hw.enabled = true;
    mc.hw.quant_levels = levels;  // 0 = ideal read-out
    core::BuiltModel model = core::make_binary_mlp(mc, 256, {128, 128}, 10);
    core::FitConfig fc;
    fc.epochs = 6;
    (void)core::fit(model, train, fc);
    const float acc = core::evaluate(model, test, 1).accuracy;
    if (levels == 0) {
      std::printf("    %-10s %10.2f\n", "ideal", 100.0f * acc);
    } else {
      std::printf("    %-10zu %10.2f\n", levels, 100.0f * acc);
    }
  }

  // ---------- A2: variability sigma on the exact tile path ----------
  std::printf("\nA2. device variability vs tile-level accuracy (TiledMlp):\n");
  std::printf("    %-10s %10s\n", "sigma", "acc[%]");
  core::ModelConfig base_cfg;
  base_cfg.method = core::Method::kDeterministic;
  core::BuiltModel software = core::make_binary_mlp(base_cfg, 256, {64}, 10);
  core::FitConfig fit_cfg;
  fit_cfg.epochs = 6;
  (void)core::fit(software, train, fit_cfg);
  for (double sigma : {0.0, 0.05, 0.10, 0.20}) {
    xbar::TileConfig tc;
    tc.variability.resistance_sigma = sigma;
    core::TiledMlp hw(software.net, tc, 93);
    std::size_t correct = 0;
    const std::size_t probe = 200;
    auto [inputs, labels] = test.batch(0, probe);
    const nn::Tensor logits = hw.forward(inputs);
    for (std::size_t i = 0; i < probe; ++i) {
      if (nn::argmax_row(logits, i) == labels[i]) {
        ++correct;
      }
    }
    std::printf("    %-10.2f %10.2f\n", sigma,
                100.0 * static_cast<double>(correct) / static_cast<double>(probe));
  }

  // ---------- A3: adaptive vs fixed scale-dropout p ----------
  std::printf("\nA3. scale-dropout probability rule:\n");
  std::printf("    %-12s %10s %10s\n", "rule", "acc[%]", "NLL");
  for (bool adaptive : {true, false}) {
    core::ModelConfig mc;
    mc.method = core::Method::kSpinScaleDrop;
    mc.adaptive_p = adaptive;
    mc.dropout_p = 0.15;  // the fixed alternative
    core::BuiltModel model = core::make_binary_mlp(mc, 256, {128, 128}, 10);
    core::FitConfig fc;
    fc.epochs = 6;
    (void)core::fit(model, train, fc);
    const auto ev = core::evaluate(model, test, 20);
    std::printf("    %-12s %10.2f %10.3f\n", adaptive ? "adaptive" : "fixed",
                100.0f * ev.accuracy, ev.nll);
  }

  // ---------- A4: SpinBayes instance count x cell resolution ----------
  // Instance diversity is gated by the multi-level cell: with a coarse
  // grid, most posterior samples quantize to the same level and the N
  // crossbars store near-identical scales.
  std::printf("\nA4. SpinBayes crossbar instances N x cell levels vs accuracy/OOD:\n");
  std::printf("    %-6s %-8s %10s %10s %12s\n", "N", "levels", "acc[%]", "NLL",
              "ood AUROC");
  const nn::Dataset ood = data::standardize_per_sample(
      data::make_ood(test_img, data::OodKind::kUniformNoise, 150, 94));
  const nn::Dataset ood_flat = data::flatten_dataset(ood);
  for (std::size_t n : {2u, 8u, 16u}) {
    for (std::size_t levels : {4u, 16u}) {
      core::ModelConfig mc;
      mc.method = core::Method::kSpinBayes;
      core::BuiltModel model = core::make_binary_mlp(mc, 256, {128, 128}, 10);
      core::FitConfig fc;
      fc.epochs = 6;
      fc.kl_weight = 1e-4f;
      (void)core::fit(model, train, fc);
      core::SpinBayesConfig conv;
      conv.instances = n;
      conv.quant_levels = levels;
      core::convert_to_spinbayes(model, conv);
      const auto ev = core::evaluate(model, test, 20);
      const auto ood_res = core::evaluate_ood(model, test, ood_flat, 20);
      std::printf("    %-6zu %-8zu %10.2f %10.3f %12.3f\n", n, levels,
                  100.0f * ev.accuracy, ev.nll, ood_res.auroc);
    }
  }

  // ---------- A5: dropout granularity ----------
  std::printf("\nA5. dropout granularity (CNN): modules vs predictive quality:\n");
  std::printf("    %-14s %10s %10s %10s\n", "granularity", "modules", "acc[%]", "NLL");
  for (auto method : {core::Method::kSpinDrop, core::Method::kSpatialSpinDrop,
                      core::Method::kSpinScaleDrop}) {
    core::ModelConfig mc;
    mc.method = method;
    mc.dropout_p = 0.1;
    core::BuiltModel model = core::make_binary_cnn(mc);
    core::FitConfig fc;
    fc.epochs = 5;
    (void)core::fit(model, train_img, fc);
    const auto ev =
        core::evaluate(model, data::standardize_per_sample(test_img), 20);
    std::printf("    %-14s %10zu %10.2f %10.3f\n", core::method_name(method).c_str(),
                core::dropout_module_count(model.arch, method), 100.0f * ev.accuracy,
                ev.nll);
  }

  // ---------- A6: retention drift ----------
  // A stored binary network relaxes thermally: each MTJ flips with the
  // Neel-Brown probability of its (variation-shifted) Delta. Flips map to
  // sign errors on the stored weights.
  std::printf("\nA6. retention: accuracy of a stored network over idle time\n");
  std::printf("    (device Delta = 30, i.e. a thermally weak low-power corner)\n");
  std::printf("    %-14s %14s %10s\n", "idle time", "flip prob", "acc[%]");
  device::MtjParams weak;
  weak.delta = 30.0;
  const device::RetentionModel retention(weak);
  for (double seconds : {0.0, 1e3, 1e5, 3e5, 1e6}) {
    core::ModelConfig mc;
    mc.method = core::Method::kDeterministic;
    core::BuiltModel model = core::make_binary_mlp(mc, 256, {128, 128}, 10);
    core::FitConfig fc;
    fc.epochs = 6;
    (void)core::fit(model, train, fc);
    const double p_flip = retention.flip_probability(seconds);
    if (p_flip > 0.0) {
      (void)core::inject_weight_defects(model.net, static_cast<float>(p_flip), 95);
    }
    const float acc = core::evaluate(model, test, 1).accuracy;
    std::printf("    %-14.0f %14.4f %10.2f\n", seconds, p_flip, 100.0f * acc);
  }

  // ---------- A7: MC-DropConnect cost ----------
  std::printf("\nA7. MC-DropConnect (per-weight dropout, paper SS II-D):\n");
  {
    std::mt19937_64 engine(96);
    energy::EnergyLedger ledger;
    core::DropConnectDense layer(256, 128, 0.2, engine, 97, &ledger);
    layer.enable_mc(true);
    nn::Tensor x({1, 256}, 1.0f);
    (void)layer.forward(x, false);
    const auto& params = energy::default_energy_params();
    std::printf("    one 256x128 layer, ONE stochastic pass: %llu RNG decisions "
                "= %.1f nJ\n",
                static_cast<unsigned long long>(
                    ledger.count(energy::Component::kRngDropoutCycle)),
                ledger.component_energy(energy::Component::kRngDropoutCycle, params) /
                    1000.0);
    std::printf("    the same layer under scale-dropout: 1 decision = %.4f nJ -> "
                "%.0fx more stochastic work per pass,\n    which is why NeuSpin's "
                "resource-aware methods exist (paper SS III).\n",
                params.rng_dropout_cycle / 1000.0,
                static_cast<double>(layer.decisions_per_pass()));
  }
  return 0;
}
