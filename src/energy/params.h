// Component-level energy/latency constants for the CIM architecture models.
//
// Digital-logic constants follow Horowitz, ISSCC 2014 ("Computing's energy
// problem") — the paper's own reference [16] — at a 45nm-class node:
// 32-bit int add 0.1 pJ, 32-bit int multiply 3.1 pJ, 8KB SRAM 32-bit read
// 10 pJ. Mixed-signal and spintronic constants are calibrated once against
// the SpinDrop row of the paper's Table I (2.00 uJ/image on a LeNet-class
// binary CNN with 20 Monte-Carlo passes); every other method's number then
// *follows from its architecture census* — no per-method tuning. This is
// the documented substitution for the authors' circuit-level simulations
// (README.md, "Substitutions and ablations"): relative comparisons are preserved by construction.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "device/units.h"

namespace neuspin::energy {

using device::Nanosecond;
using device::PicoJoule;

/// Energy cost table. All values in picojoules per event.
struct EnergyParams {
  // --- analog CIM path ---
  /// One bit-cell contributing to an analog MAC during a read pulse
  /// (V_read^2 / R * t averaged over P/AP; ~fJ class for MOhm SOT cells).
  PicoJoule xbar_cell_read = 0.0005;
  /// Driving one word line for one read cycle (decoder + line charge).
  PicoJoule wordline_activation = 0.02;
  /// One conversion of a multi-bit SAR ADC; scales 4x per +2 bits around
  /// the 8-bit anchor below (adc_conversion() helper).
  PicoJoule adc_8bit = 2.0;
  /// One sense-amplifier (1-bit) evaluation: the cheap alternative used by
  /// the binary-activation architectures (Fig. 2 / Fig. 3).
  PicoJoule sense_amp = 0.05;
  /// Charging one input DAC / bit-line conditioning circuit per vector bit.
  PicoJoule input_driver = 0.01;

  // --- spintronic stochastic path ---
  /// One full dropout-signal generation cycle: stochastic SET, sense-amp
  /// verify read, deterministic RESET, plus write-driver and control CMOS.
  /// The device part alone is ~0.3 pJ (see device::SpinRng::energy_per_bit);
  /// the driver/control overhead dominates. Calibrated to Table I.
  PicoJoule rng_dropout_cycle = 17.5;
  /// One deterministic MTJ write (weight programming, not inference).
  PicoJoule mtj_write = 0.3;

  // --- digital periphery (Horowitz ISSCC'14, 45nm) ---
  PicoJoule add32 = 0.1;
  PicoJoule mult32 = 3.1;
  PicoJoule sram_read_word = 10.0;  ///< 32-bit word from an 8KB SRAM macro
  PicoJoule register_access = 0.03;

  // --- latency (ns per event; used for sampling-latency comparisons) ---
  Nanosecond t_xbar_read = 10.0;       ///< one crossbar read phase
  Nanosecond t_adc = 5.0;              ///< one ADC conversion
  Nanosecond t_rng_cycle = 6.0;        ///< SET+read+RESET dropout cycle
  Nanosecond t_digital_mac = 1.0;      ///< one digital MAC
  Nanosecond t_sram_read = 2.0;

  /// ADC conversion energy at `bits` resolution: each extra bit costs ~2x
  /// (SAR energy roughly doubles per bit in this regime).
  [[nodiscard]] PicoJoule adc_conversion(std::size_t bits) const {
    if (bits == 0 || bits > 16) {
      throw std::invalid_argument("EnergyParams: ADC resolution must be 1..16 bits");
    }
    double e = adc_8bit;
    for (std::size_t b = 8; b < bits; ++b) {
      e *= 2.0;
    }
    for (std::size_t b = bits; b < 8; ++b) {
      e *= 0.5;
    }
    return e;
  }
};

/// Default parameter set shared by all experiments.
[[nodiscard]] const EnergyParams& default_energy_params();

}  // namespace neuspin::energy
