// Alpha-power-law gate-delay model — the SPICE stand-in.
//
// The drain saturation current of a velocity-saturated MOSFET follows
// I_dsat ~ (W/L) (Vdd - Vth)^alpha (Sakurai-Newton), so gate delay scales as
//
//   d = d_nominal * (L/L0)^2-ish * [(Vdd - Vth0)/(Vdd - Vth0 - dVth)]^alpha
//
// (the L exponent ~2 folds the mobility/short-channel dependence into one
// knob; only relative sensitivities matter for reproducing the paper).
// Composed with the logical-effort decomposition this gives, for a cell of
// kind k, size x, driving load C (inverter-cap units), at parameter shift
// (dVth, dL/L):
//
//   d = tau * (p_k + C/x) * varfactor(dVth, dL/L)      [ps]
//
// which is exactly the quantity the paper's SPICE Monte-Carlo measures per
// stage before feeding (mu_i, sigma_i) into the analytical model.
//
// Layer contract (src/device, see docs/ARCHITECTURE.md): owns cell-level
// physics — delay, power and latch models over (kind, size, load,
// parameter shift).  May depend on src/stats and src/process; must not
// know about netlists (a cell instance is described by its arguments, not
// by graph position) or any layer above.
#pragma once

#include <cmath>
#include <cstddef>

#include "device/gate_library.h"
#include "process/variation.h"

namespace statpipe::device {

class AlphaPowerModel {
 public:
  /// Throws std::invalid_argument unless 0 < tech.alpha <= 3.9: the
  /// velocity-saturation index is physically 1..2, and the cap is what
  /// lets variation_factor's fixed drive-ratio window guarantee the pow
  /// core's |alpha * log2(ratio)| <= 1020 precondition (delay_model.cpp).
  explicit AlphaPowerModel(process::Technology tech);

  const process::Technology& technology() const noexcept { return tech_; }

  /// Multiplicative delay factor for threshold shift dvth [V] and relative
  /// channel-length shift dl_rel.  factor(0,0) == 1.
  /// Throws std::domain_error if dvth drives the gate out of saturation
  /// (Vdd - Vth <= 0) — a die that badly broken is a functional failure,
  /// not a timing sample.
  /// The exponentiation runs on the shared vectorizable pow core
  /// (stats::lanes::pow_pos), the same per-element function the block
  /// sample-STA walk evaluates — so the scalar and block sample-STA paths
  /// stay bitwise-identical by construction.
  double variation_factor(double dvth, double dl_rel = 0.0) const;

  /// The variation-factor arithmetic flattened to plain doubles, for
  /// callers that inline the computation into a dispatched SIMD kernel
  /// (the block sample-STA walk): factor = pow_pos(drive0 / (drive0 -
  /// dvth), alpha) * (1 + dl_rel)^2, valid only while drive0 - dvth > 0,
  /// 1 + dl_rel > 0 and the drive ratio stays within [min_ratio,
  /// max_ratio] — outside that window the scalar variation_factor throws,
  /// and kernel callers must reproduce the same rejection.
  struct VariationKernelParams {
    double drive0;     ///< Vdd - Vth0
    double alpha;      ///< velocity-saturation index
    double min_ratio;  ///< drive-ratio window accepted by the pow core
    double max_ratio;
  };
  VariationKernelParams variation_kernel_params() const noexcept;

  /// Nominal (variation-free) delay of a cell instance [ps].
  /// `load_cap` in min-inverter-cap units; `size` >= minimum size.  Throws
  /// std::invalid_argument for a real cell with size <= 0 or load_cap < 0
  /// (pseudo-gates return 0 unchecked).
  double nominal_delay(GateKind kind, double size, double load_cap) const {
    const GateTraits& t = traits(kind);
    check_cell(t, size, load_cap);
    return nominal_body(t, size, load_cap);
  }

  /// Lane form: out[k] = nominal_delay(kind, size[k], load_cap[k]) for
  /// k < n, bitwise (the same inline body).  Every lane is checked before
  /// anything is written, and the first bad lane throws the scalar call's
  /// exception.
  __attribute__((always_inline)) void nominal_delay_lanes(
      GateKind kind, const double* size, const double* load_cap,
      std::size_t n, double* out) const {
    const GateTraits& t = traits(kind);
    for (std::size_t k = 0; k < n; ++k) check_cell(t, size[k], load_cap[k]);
    for (std::size_t k = 0; k < n; ++k)
      out[k] = nominal_body(t, size[k], load_cap[k]);
  }

  /// Delay under parameter shift [ps].
  double delay(GateKind kind, double size, double load_cap, double dvth,
               double dl_rel = 0.0) const;

  /// First-order sensitivity d(delay)/d(Vth) [ps/V] at the nominal point —
  /// used to map sigma_Vth into per-gate delay sigma analytically:
  ///   sigma_d ~ |d(delay)/dVth| * sigma_Vth.
  double dvth_sensitivity(GateKind kind, double size, double load_cap) const {
    const GateTraits& t = traits(kind);
    check_cell(t, size, load_cap);
    return sensitivity_body(t, size, load_cap);
  }

  /// Analytic per-gate delay sigma decomposition for a cell instance:
  /// {sigma from inter-die Vth, sigma from systematic Vth, sigma from RDF}.
  struct DelaySigmas {
    double inter = 0.0;
    double systematic = 0.0;
    double random = 0.0;
    double total() const {
      return std::sqrt(inter * inter + systematic * systematic +
                       random * random);
    }
  };
  DelaySigmas delay_sigmas(GateKind kind, double size, double load_cap,
                           const process::VariationSpec& spec) const {
    const GateTraits& t = traits(kind);
    check_sigmas(t, size, load_cap, spec);
    return sigmas_body(t, size, load_cap, spec);
  }

  /// Where delay_sigmas_lanes writes lane k of each component: [k].
  struct DelaySigmaLanes {
    double* inter;
    double* systematic;
    double* random;
  };
  /// Lane form of delay_sigmas, bitwise per lane and checked like
  /// nominal_delay_lanes.
  __attribute__((always_inline)) void delay_sigmas_lanes(
      GateKind kind, const double* size, const double* load_cap,
      std::size_t n, const process::VariationSpec& spec,
      const DelaySigmaLanes& out) const {
    const GateTraits& t = traits(kind);
    for (std::size_t k = 0; k < n; ++k)
      check_sigmas(t, size[k], load_cap[k], spec);
    for (std::size_t k = 0; k < n; ++k) {
      const DelaySigmas s = sigmas_body(t, size[k], load_cap[k], spec);
      out.inter[k] = s.inter;
      out.systematic[k] = s.systematic;
      out.random[k] = s.random;
    }
  }

 private:
  // The checks and the one body of nominal_delay and delay_sigmas, shared
  // by the scalar calls and their lane forms.
  __attribute__((always_inline)) static void check_cell(const GateTraits& t,
                                                        double size,
                                                        double load_cap) {
    if (t.is_pseudo) return;
    if (size <= 0.0) throw_bad_cell("nominal_delay: size <= 0");
    if (load_cap < 0.0) throw_bad_cell("nominal_delay: load < 0");
  }
  __attribute__((always_inline)) void check_sigmas(
      const GateTraits& t, double size, double load_cap,
      const process::VariationSpec& spec) const {
    check_cell(t, size, load_cap);
    // Reached by pseudo-gates only: check_cell rejected real cells' sizes.
    if (spec.enable_rdf && size <= 0.0) (void)tech_.sigma_vth_rdf(size);
  }
  __attribute__((always_inline)) double nominal_body(const GateTraits& t,
                                                     double size,
                                                     double load_cap) const {
    return t.is_pseudo ? 0.0 : tech_.tau_ps * (t.parasitic + load_cap / size);
  }
  // d/dVth [ (drive0/(drive0 - dvth))^alpha ] at dvth=0  =  alpha/drive0.
  __attribute__((always_inline)) double sensitivity_body(
      const GateTraits& t, double size, double load_cap) const {
    return nominal_body(t, size, load_cap) * tech_.alpha /
           (tech_.vdd - tech_.vth0);
  }
  /// The sensitivity times each Vth sigma.
  __attribute__((always_inline)) DelaySigmas sigmas_body(
      const GateTraits& t, double size, double load_cap,
      const process::VariationSpec& spec) const {
    const double sens = sensitivity_body(t, size, load_cap);
    return {sens * spec.sigma_vth_inter, sens * spec.sigma_vth_systematic,
            spec.enable_rdf ? sens * tech_.sigma_vth_rdf_unchecked(size)
                            : 0.0};
  }
  [[noreturn]] static void throw_bad_cell(const char* what);

  process::Technology tech_;
};

}  // namespace statpipe::device
