// Reproduces Table I: "Comparison of Methods" — inference accuracy and
// energy per image for the five NeuSpin methods.
//
// Protocol: every method trains the SAME binary CNN backbone (stroke-digit
// dataset, the README's substitution for the paper's image benchmarks) with
// its own Bayesian machinery, is evaluated with T=20 Monte-Carlo passes
// under behavioural hardware noise, and its energy comes from the
// architecture census under the shared component cost table.
//
// Paper reference values (µJ/image): SpinDrop 2.00 @ 91.95%,
// Spatial-SpinDrop 0.68 @ 90.34%, SpinScaleDropout 0.18 @ 90.45%,
// Bayesian Sub-Set 0.30 @ 90.62%, SpinBayes 0.26 (accuracy not reported).
#include <cstdio>

#include "bench_util.h"
#include "core/census.h"
#include "core/models.h"
#include "core/pipeline.h"
#include "data/strokes.h"

namespace {

using namespace neuspin;

struct Row {
  core::Method method;
  float paper_accuracy;  ///< percent; <0 means "not reported"
  double paper_energy;   ///< uJ/image
};

}  // namespace

int main() {
  bench::banner("bench_table1", "Table I — accuracy & energy of the five methods");

  data::StrokeConfig sc;
  sc.samples_per_class = 120;
  const nn::Dataset train = data::standardize_per_sample(data::make_stroke_digits(sc, 11));
  sc.samples_per_class = 40;
  const nn::Dataset test = data::standardize_per_sample(data::make_stroke_digits(sc, 22));

  const std::vector<Row> rows = {
      {core::Method::kSpinDrop, 91.95f, 2.00},
      {core::Method::kSpatialSpinDrop, 90.34f, 0.68},
      {core::Method::kSpinScaleDrop, 90.45f, 0.18},
      {core::Method::kSubsetVi, 90.62f, 0.30},
      {core::Method::kSpinBayes, -1.0f, 0.26},
  };

  const core::ArchSpec arch = core::small_cnn_arch();
  core::CensusConfig census_cfg;
  census_cfg.mc_passes = 20;

  std::printf("%-22s %10s %10s | %12s %12s\n", "method", "acc[%]", "paper[%]",
              "energy[uJ]", "paper[uJ]");
  for (const Row& row : rows) {
    core::ModelConfig mc;
    mc.method = row.method;
    mc.dropout_p = 0.1;
    mc.hw.enabled = true;         // behavioural CIM non-idealities at eval
    mc.hw.quant_levels = 256;     // 8-bit ADC class
    mc.hw.noise_fraction = 0.01f; // 1% read noise
    core::BuiltModel model = core::make_binary_cnn(mc);

    core::FitConfig fc;
    fc.epochs = 7;
    fc.lr = 0.01f;
    (void)core::fit(model, train, fc);
    if (row.method == core::Method::kSpinBayes) {
      core::SpinBayesConfig sb;
      sb.instances = 8;
      core::convert_to_spinbayes(model, sb);
    }
    const core::EvalResult ev = core::evaluate(model, test, census_cfg.mc_passes);

    const double energy_uj = energy::to_microjoule(
        core::inference_census(arch, row.method, census_cfg).total_energy());
    if (row.paper_accuracy > 0.0f) {
      std::printf("%-22s %10.2f %10.2f | %12.3f %12.2f\n",
                  core::method_name(row.method).c_str(), 100.0f * ev.accuracy,
                  row.paper_accuracy, energy_uj, row.paper_energy);
    } else {
      std::printf("%-22s %10.2f %10s | %12.3f %12.2f\n",
                  core::method_name(row.method).c_str(), 100.0f * ev.accuracy, "-",
                  energy_uj, row.paper_energy);
    }
  }
  std::printf("\nNotes: accuracies are measured on the stroke-digit substitute "
              "task (README.md, \"Substitutions and ablations\");\nenergies follow "
              "from the architecture census calibrated once against the SpinDrop row.\n");
  return 0;
}
