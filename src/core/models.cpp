#include "core/models.h"

#include <stdexcept>
#include <typeinfo>

#include "nn/binarize.h"
#include "nn/loss.h"

namespace neuspin::core {

namespace {

/// Everything a builder needs while appending one hidden block.
struct BuildContext {
  BuiltModel* model = nullptr;
  const ModelConfig* config = nullptr;
  std::mt19937_64* engine = nullptr;
  std::size_t slot = 0;  ///< running index used to diversify seeds
};

/// Insert the method's scale-type layer (after the binary activation; see
/// the placement note in make_binary_mlp), if the method has one.
void add_scale_slot(BuildContext& ctx, std::size_t channels,
                    std::size_t layer_param_count) {
  BuiltModel& m = *ctx.model;
  const ModelConfig& cfg = *ctx.config;
  const std::uint64_t seed = cfg.seed + 1000 + 17 * ctx.slot;
  switch (cfg.method) {
    case Method::kSpinScaleDrop: {
      ScaleDropConfig sc;
      sc.channels = channels;
      sc.dropout_p = cfg.adaptive_p ? adaptive_scale_dropout_p(layer_param_count)
                                    : cfg.dropout_p;
      sc.hw_p_sigma = cfg.hw_variation * 0.05;  // variation shifts p directly
      sc.seed = seed;
      m.scale_layers.push_back(&m.net.emplace<ScaleDropLayer>(sc));
      break;
    }
    case Method::kSubsetVi:
    case Method::kSpinBayes: {
      BayesScaleConfig bc;
      bc.channels = channels;
      bc.seed = seed;
      m.bayes_layer_indices.push_back(m.net.size());
      m.bayes_layers.push_back(&m.net.emplace<BayesianScaleLayer>(bc));
      break;
    }
    default:
      break;
  }
  ++ctx.slot;
}

/// Insert the normalization stage: InvertedNorm for the affine-dropout
/// method, plain BatchNorm otherwise.
void add_norm(BuildContext& ctx, std::size_t channels) {
  BuiltModel& m = *ctx.model;
  const ModelConfig& cfg = *ctx.config;
  if (cfg.method == Method::kAffineDropout) {
    AffineDropConfig ac;
    ac.features = channels;
    ac.dropout_p = cfg.dropout_p;
    ac.seed = cfg.seed + 2000 + 13 * ctx.slot;
    m.inv_norm_layers.push_back(&m.net.emplace<InvertedNormLayer>(ac));
  } else {
    m.net.emplace<nn::BatchNorm>(channels);
  }
}

/// Insert the dropout slot after the activation (and pooling): neuron
/// dropout for SpinDrop, feature-map dropout for Spatial-SpinDrop.
void add_drop_slot(BuildContext& ctx, std::size_t neuron_units,
                   std::size_t feature_map_units) {
  BuiltModel& m = *ctx.model;
  const ModelConfig& cfg = *ctx.config;
  const std::uint64_t seed = cfg.seed + 3000 + 29 * ctx.slot;
  switch (cfg.method) {
    case Method::kSpinDrop: {
      auto layer = cfg.hw_variation > 0.0
                       ? make_spintronic_spindrop(DropGranularity::kNeuron, neuron_units,
                                                  cfg.dropout_p, cfg.hw_variation, seed)
                       : make_pseudo_spindrop(DropGranularity::kNeuron, neuron_units,
                                              cfg.dropout_p, seed);
      m.drop_layers.push_back(layer.get());
      m.net.add(std::move(layer));
      break;
    }
    case Method::kSpatialSpinDrop: {
      auto layer = cfg.hw_variation > 0.0
                       ? make_spintronic_spindrop(DropGranularity::kFeatureMap,
                                                  feature_map_units, cfg.dropout_p,
                                                  cfg.hw_variation, seed)
                       : make_pseudo_spindrop(DropGranularity::kFeatureMap,
                                              feature_map_units, cfg.dropout_p, seed);
      m.drop_layers.push_back(layer.get());
      m.net.add(std::move(layer));
      break;
    }
    default:
      break;
  }
  ++ctx.slot;
}

void add_analog_readout(BuildContext& ctx) {
  const ModelConfig& cfg = *ctx.config;
  if (cfg.hw.enabled) {
    HwNoiseConfig hw = cfg.hw;
    hw.seed = cfg.hw.seed + 47 * ctx.slot;
    ctx.model->net.emplace<AnalogReadout>(hw);
  }
}

}  // namespace

void BuiltModel::enable_mc(bool on) {
  for (auto* l : drop_layers) {
    l->enable_mc(on);
  }
  for (auto* l : scale_layers) {
    l->enable_mc(on);
  }
  for (auto* l : inv_norm_layers) {
    l->enable_mc(on);
  }
  for (auto* l : bayes_layers) {
    l->enable_mc(on);
  }
  for (auto* l : spinbayes_layers) {
    l->enable_mc(on);
  }
}

std::function<float()> BuiltModel::make_regularizer(float kl_weight,
                                                    float scale_lambda) {
  if (bayes_layers.empty() && scale_layers.empty()) {
    return {};
  }
  auto bayes = bayes_layers;
  auto scales = scale_layers;
  return [bayes, scales, kl_weight, scale_lambda]() {
    float reg = 0.0f;
    for (auto* l : bayes) {
      reg += nn::gaussian_scale_kl(l->mu(), l->rho(), l->config().prior_sigma,
                                   kl_weight, l->mu_grad(), l->rho_grad());
    }
    for (auto* l : scales) {
      reg += nn::scale_regularizer(l->scale(), scale_lambda, l->scale_grad());
    }
    return reg;
  };
}

nn::Tensor BuiltModel::stochastic_logits(const nn::Tensor& input) {
  return net.forward(input, /*training=*/false);
}

nn::Tensor BuiltModel::stochastic_logits_rows(
    const nn::Tensor& stacked, std::span<const std::uint64_t> row_seeds) {
  if (stacked.rank() != 2 || stacked.dim(0) != row_seeds.size()) {
    throw std::invalid_argument(
        "stochastic_logits_rows: expected one row seed per stacked row");
  }
  net.reseed_rows(row_seeds);
  return net.forward(stacked, /*training=*/false);
}

BuiltModel BuiltModel::clone() const {
  BuiltModel copy;
  copy.net = net.clone();
  copy.method = method;
  copy.arch = arch;
  // Rebuild the typed views against the cloned layers. The builders append
  // views in net order, so a single ordered scan reproduces them exactly.
  for (std::size_t i = 0; i < copy.net.size(); ++i) {
    nn::Layer* layer = &copy.net.layer(i);
    if (auto* l = dynamic_cast<SpinDropLayer*>(layer)) {
      copy.drop_layers.push_back(l);
    } else if (auto* l = dynamic_cast<ScaleDropLayer*>(layer)) {
      copy.scale_layers.push_back(l);
    } else if (auto* l = dynamic_cast<InvertedNormLayer*>(layer)) {
      copy.inv_norm_layers.push_back(l);
    } else if (auto* l = dynamic_cast<BayesianScaleLayer*>(layer)) {
      copy.bayes_layers.push_back(l);
      copy.bayes_layer_indices.push_back(i);
    } else if (auto* l = dynamic_cast<SpinBayesScaleLayer*>(layer)) {
      copy.spinbayes_layers.push_back(l);
    }
  }
  return copy;
}

std::size_t deterministic_head_length(const nn::Sequential& net) {
  std::size_t head = 0;
  for (; head < net.size(); ++head) {
    const std::type_info& type = typeid(net.layer(head));
    const bool deterministic =
        type == typeid(nn::BinaryDense) || type == typeid(nn::BinaryConv2d) ||
        type == typeid(nn::Dense) || type == typeid(nn::Conv2d) ||
        type == typeid(nn::BatchNorm) || type == typeid(nn::SignActivation) ||
        type == typeid(nn::MaxPool2d) || type == typeid(nn::Flatten) ||
        type == typeid(nn::ReLU) || type == typeid(nn::HardTanh);
    if (!deterministic) {
      break;
    }
  }
  return head;
}

BuiltModel make_binary_mlp(const ModelConfig& config, std::size_t inputs,
                           const std::vector<std::size_t>& hidden,
                           std::size_t classes) {
  if (hidden.empty()) {
    throw std::invalid_argument("make_binary_mlp: need at least one hidden layer");
  }
  BuiltModel model;
  model.method = config.method;
  std::mt19937_64 engine(config.seed);
  BuildContext ctx{&model, &config, &engine, 0};

  std::size_t prev = inputs;
  for (std::size_t h : hidden) {
    model.net.emplace<nn::BinaryDense>(prev, h, engine);
    add_analog_readout(ctx);
    add_norm(ctx, h);
    model.net.emplace<nn::SignActivation>();
    // The scale stage sits after the binary activation: it modulates the
    // drive amplitude of the next crossbar's word lines. Placing it before
    // the normalization would make a positive per-channel scale a no-op
    // (batch statistics absorb it), killing both its gradient and the
    // dropout modulation.
    add_scale_slot(ctx, h, prev * h);
    add_drop_slot(ctx, h, h);
    model.arch.layers.push_back(LayerSpec::dense(prev, h, true));
    prev = h;
  }
  model.net.emplace<nn::BinaryDense>(prev, classes, engine);
  model.arch.layers.push_back(LayerSpec::dense(prev, classes, false));
  return model;
}

BuiltModel make_binary_cnn(const ModelConfig& config) {
  BuiltModel model;
  model.method = config.method;
  std::mt19937_64 engine(config.seed);
  BuildContext ctx{&model, &config, &engine, 0};

  // conv1: 1x16x16 -> 8x16x16, pooled to 8x8x8.
  model.net.emplace<nn::BinaryConv2d>(1, 8, 3, 1, engine);
  add_analog_readout(ctx);
  add_norm(ctx, 8);
  model.net.emplace<nn::SignActivation>();
  add_scale_slot(ctx, 8, 1 * 8 * 9);  // after the activation; see make_binary_mlp
  model.net.emplace<nn::MaxPool2d>();
  add_drop_slot(ctx, 8 * 8 * 8, 8);
  model.arch.layers.push_back(LayerSpec::conv(1, 8, 3, 16, 16));

  // conv2: 8x8x8 -> 16x8x8, pooled to 16x4x4.
  model.net.emplace<nn::BinaryConv2d>(8, 16, 3, 1, engine);
  add_analog_readout(ctx);
  add_norm(ctx, 16);
  model.net.emplace<nn::SignActivation>();
  add_scale_slot(ctx, 16, 8 * 16 * 9);
  model.net.emplace<nn::MaxPool2d>();
  add_drop_slot(ctx, 16 * 4 * 4, 16);
  model.arch.layers.push_back(LayerSpec::conv(8, 16, 3, 8, 8));

  model.net.emplace<nn::Flatten>();

  // dense: 256 -> 64.
  model.net.emplace<nn::BinaryDense>(256, 64, engine);
  add_analog_readout(ctx);
  add_norm(ctx, 64);
  model.net.emplace<nn::SignActivation>();
  add_scale_slot(ctx, 64, 256 * 64);
  add_drop_slot(ctx, 64, 64);
  model.arch.layers.push_back(LayerSpec::dense(256, 64, true));

  model.net.emplace<nn::BinaryDense>(64, 10, engine);
  model.arch.layers.push_back(LayerSpec::dense(64, 10, false));
  return model;
}

void convert_to_spinbayes(BuiltModel& model, const SpinBayesConfig& config) {
  if (model.method != Method::kSpinBayes) {
    throw std::logic_error("convert_to_spinbayes: model was not built for SpinBayes");
  }
  if (model.bayes_layers.size() != model.bayes_layer_indices.size()) {
    throw std::logic_error("convert_to_spinbayes: inconsistent layer bookkeeping");
  }
  for (std::size_t i = 0; i < model.bayes_layers.size(); ++i) {
    SpinBayesConfig layer_cfg = config;
    layer_cfg.seed = config.seed + 71 * i;
    auto replacement =
        SpinBayesScaleLayer::from_posterior(*model.bayes_layers[i], layer_cfg);
    model.spinbayes_layers.push_back(replacement.get());
    model.net.replace(model.bayes_layer_indices[i], std::move(replacement));
  }
  model.bayes_layers.clear();
}

}  // namespace neuspin::core
