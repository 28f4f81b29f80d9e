// Process-variation model for sub-100nm CMOS, mirroring the decomposition
// used in the paper (section 2.1):
//
//   dVth(total) = dVth(inter-die)                 -- one draw per die,
//                                                    shared by every device
//             + dVth(intra, systematic/spatial)   -- correlated across the
//                                                    die with a decay length
//             + dVth(intra, random / RDF)         -- independent per device,
//                                                    sigma ~ Avt/sqrt(W L)
//
// Channel-length variation uses the same inter/systematic split (RDF does
// not apply to L).  These parameter shifts feed the device module's
// alpha-power delay model, which converts them into gate-delay shifts —
// the stand-in for the paper's 70nm-BPTM SPICE Monte-Carlo.
//
// Layer contract (src/process, see docs/ARCHITECTURE.md): owns the
// variation decomposition and correlated die sampling — parameter space
// only, never delays.  May depend on src/stats alone; must not know about
// devices, netlists, timing or anything above them.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/lanes.h"
#include "stats/rng.h"

namespace statpipe::process {

/// Nominal technology parameters, loosely matched to the 70nm Berkeley
/// Predictive Technology Model node the paper simulates.
struct Technology {
  double vdd = 1.0;          ///< supply voltage [V]
  double vth0 = 0.20;        ///< nominal NMOS threshold [V]
  double leff = 70e-9;       ///< nominal effective channel length [m]
  double wmin = 140e-9;      ///< minimum device width [m]
  double alpha = 1.3;        ///< alpha-power-law velocity-saturation index
  double tau_ps = 4.0;       ///< delay of a min inverter driving one copy [ps]

  /// Avt mismatch coefficient: sigma_Vth(RDF) = avt / sqrt(W*L) [V*m].
  /// Chosen so a minimum device (W=wmin, L=leff) sees ~30 mV RDF sigma,
  /// consistent with sub-100nm random-dopant-fluctuation data [6].
  double avt = 30e-3 * 9.899494936611665e-8;  // 30mV * sqrt(140e-9 * 70e-9)

  /// sigma_Vth(RDF) for a device of `width_mult` minimum widths.  Throws
  /// std::invalid_argument unless width_mult > 0.
  double sigma_vth_rdf(double width_mult) const;

  /// sigma_vth_rdf's arithmetic without the width check: the one body the
  /// checked call and the delay model's lane forms share (those check every
  /// width first).
  __attribute__((always_inline)) double sigma_vth_rdf_unchecked(
      double width_mult) const {
    return avt / std::sqrt(width_mult * wmin * leff);
  }
};

/// Strengths of each variation component.
struct VariationSpec {
  double sigma_vth_inter = 0.020;      ///< inter-die Vth sigma [V]
  double sigma_vth_systematic = 0.0;   ///< intra-die spatially-correlated [V]
  double correlation_length = 0.5;     ///< decay length for systematic field,
                                       ///< in normalized die units
  bool enable_rdf = true;              ///< random (RDF) component on/off
  double sigma_l_inter_rel = 0.0;      ///< inter-die dL/L (relative)
  double sigma_l_systematic_rel = 0.0; ///< systematic dL/L (relative)

  /// Named presets used across benches (match the paper's figure legends).
  static VariationSpec intra_only();                  ///< RDF only
  static VariationSpec inter_only(double sigma_v = 0.040);
  static VariationSpec inter_intra(double sigma_v_inter,
                                   double sigma_v_systematic = 0.010,
                                   double corr_length = 0.5);
};

/// One sampled die: parameter shifts for every device site.
struct DieSample {
  double dvth_inter = 0.0;              ///< shared Vth shift [V]
  double dl_inter_rel = 0.0;            ///< shared relative L shift
  std::vector<double> dvth_systematic;  ///< per-site systematic Vth [V]
  std::vector<double> dl_systematic_rel;///< per-site systematic dL/L
  std::vector<double> dvth_random;      ///< per-site RDF Vth [V] (unit width;
                                        ///< scale by 1/sqrt(w) at the device)

  /// Total Vth shift at site i for a device of `width_mult` min-widths.
  double dvth_at(std::size_t i, double width_mult) const;
  /// Shared (inter + systematic) Vth shift at site i, excluding RDF — the
  /// shift seen by multi-transistor cells like latches whose internal RDF
  /// is modeled separately (device::LatchTiming::random_sigma_rel).
  double dvth_shared_at(std::size_t i) const;
  /// Total relative channel-length shift at site i.
  double dl_rel_at(std::size_t i) const;
};

/// Structure-of-arrays block of `width` sampled dies — the unit the
/// block-vectorized sampling/STA kernel layer streams through the gate-level
/// Monte-Carlo hot path.  Per-site arrays are site-major with lanes
/// contiguous: value of site i on die (lane) j lives at [i * width + j], so
/// one gate visit of the block sample STA reads `width` consecutive doubles.
/// Component presence mirrors DieSample: an absent component's vector is
/// empty, and lane accessors execute exactly the scalar DieSample accessors'
/// floating-point sequence (same adds, same order) so per-die results are
/// bitwise-identical to the scalar path.
struct DieBlock {
  std::size_t width = 0;  ///< lanes (dies) per block, <= the active SIMD
                          ///< backend's stats::lanes::max_width()
  std::size_t sites = 0;  ///< device sites per die
  std::vector<double> dvth_inter;         ///< [width] shared Vth shift [V]
  std::vector<double> dl_inter_rel;       ///< [width] shared relative L shift
  std::vector<double> dvth_systematic;    ///< [sites*width] or empty
  std::vector<double> dl_systematic_rel;  ///< [sites*width] or empty
  std::vector<double> dvth_random;        ///< [sites*width] or empty (unit width)

  /// Total Vth shift at site i on lane j for a device of `width_mult`
  /// min-widths — DieSample::dvth_at, lane-indexed.
  double dvth_at(std::size_t i, std::size_t j, double width_mult) const;
  /// Shared (inter + systematic) Vth shift at site i on lane j, excluding
  /// RDF — DieSample::dvth_shared_at, lane-indexed.
  double dvth_shared_at(std::size_t i, std::size_t j) const;
  /// Total relative channel-length shift at site i on lane j.
  double dl_rel_at(std::size_t i, std::size_t j) const;
};

/// Reusable scratch for VariationSampler::sample_block_into, one per
/// Monte-Carlo shard: the draw kernel fills it with the field's standard
/// normals and the field recursion correlates them in place.
struct BlockWorkspace {
  std::vector<double> field;  ///< [sites*width] site-major field
};

/// Generates correlated DieSamples for a fixed set of device sites.
///
/// Sites are positions in normalized die coordinates [0,1]; the systematic
/// field over sites has correlation exp(-d/correlation_length).  That 1-D
/// kernel is Markov (Ornstein-Uhlenbeck; Rasmussen & Williams, GPML 4.2),
/// so the field is exact in O(sites): over the sites in stable position
/// order o, f[o_0] = z[o_0] and f[o_k] = r_k f[o_{k-1}] + s_k z[o_k], with
/// r_k = exp(-d_k/L), s_k = sqrt(1 - r_k^2) and d_k the gap to the previous
/// site (coincident sites share the field bit for bit).  Sampling is const
/// and reentrant: concurrent sample()/sample_block_into calls on one
/// sampler are safe as long as each caller owns its Rng/workspace.
class VariationSampler {
 public:
  /// Throws std::invalid_argument on no sites, a negative Vth sigma, or,
  /// with a systematic component, a non-finite position or length <= 0.
  VariationSampler(Technology tech, VariationSpec spec,
                   std::vector<double> site_positions);

  const Technology& technology() const noexcept { return tech_; }
  const VariationSpec& spec() const noexcept { return spec_; }
  std::size_t site_count() const noexcept { return positions_.size(); }

  /// Draw one die: the inter shifts, the field's standard normals (one per
  /// site), then per-site RDF — the scalar reference of sample_block_into.
  DieSample sample(stats::Rng& rng) const;

  /// Draw `width` correlated dies into an SoA block in one call: every draw
  /// — inter shifts, the systematic field's standard normals (written
  /// site-major directly, no transpose pass) and RDF — runs lane-batched
  /// through the active SIMD backend's draw kernels (stats::RngBlock over
  /// stats/simd.h's normal_fill_lanes), and the field recursion runs once
  /// over the sites with the lanes innermost, per lane in sample()'s
  /// operation order.  Lane j consumes lane_rngs[j] with exactly the draw
  /// sequence of sample() (lane_rngs[j] is left advanced accordingly), so
  /// lane j of the block is bitwise-identical to a sample() call on the
  /// same Rng state — the equivalence the block Monte-Carlo path's
  /// determinism rests on.  `out` and `ws` are reused across calls; width
  /// must be in [1, stats::lanes::max_width()] for the active backend
  /// (validated, never clamped).
  void sample_block_into(stats::Rng* lane_rngs, std::size_t width,
                         DieBlock& out, BlockWorkspace& ws) const;

  /// Effective stage-to-stage delay correlation implied by the spec when a
  /// stage's delay sigma decomposes into inter + systematic + random parts:
  /// rho = shared_variance / total_variance.  Used by the analytical side
  /// to build stage correlation matrices consistent with MC.
  static double implied_correlation(double sigma_shared, double sigma_private);

 private:
  // The recursion in place over site-major normals, w lanes per site.
  void correlate_field(double* f, std::size_t w) const;

  Technology tech_;
  VariationSpec spec_;
  std::vector<double> positions_;
  bool has_systematic_ = false;
  // The recursion's o, r and s (class comment), empty without a field;
  // r_[0] and s_[0] are unused.
  std::vector<std::size_t> order_;
  std::vector<double> r_, s_;
};

/// Evenly spaced site positions in [0,1] — the default placement for a
/// pipeline's stages or a chain's gates along the die.
std::vector<double> linear_sites(std::size_t n);

}  // namespace statpipe::process
