// Gate-level statistical static timing analysis (SSTA) in a reduced
// canonical first-order form.
//
// Every arrival time is represented as
//
//   A = mu + b_inter * Z_inter + b_sys * Z_sys + sigma_ind * Z_local
//
// where Z_inter is the single die-wide standard normal shared by all gates
// (inter-die variation), Z_sys is the stage-wide systematic normal (the
// spatially-correlated intra-die field: its correlation length spans a
// whole pipe stage, so within one stage netlist it acts as a single shared
// variable — matching process::VariationSampler's geometry), and Z_local
// is the gate-private RDF residual (treated as independent between paths;
// reconvergent-path residual correlation is the standard first-order SSTA
// approximation, quantified against full Monte-Carlo in tests/bench).
//
//   SUM:  mus add, b's add linearly, sigma_ind adds in quadrature.
//   MAX:  Clark's operator with rho = (b1i*b2i + b1s*b2s) / (s1*s2); the
//         result's b's are split back out by matching covariance with each
//         shared normal (Cov(max, Z) = b1*Phi(alpha) + b2*Phi(-alpha),
//         Clark eq. 6), the residual keeps the total variance exact.
#pragma once

#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "stats/clark.h"
#include "stats/gaussian.h"

namespace statpipe::sta {

/// First-order canonical arrival time.  (b_sys is declared after
/// sigma_ind so two-/three-value aggregate initializers keep their
/// historical meaning {mu, b_inter, sigma_ind}.)
struct CanonicalDelay {
  double mu = 0.0;
  double b_inter = 0.0;    ///< coefficient on the shared inter-die normal
  double sigma_ind = 0.0;  ///< independent residual sigma
  double b_sys = 0.0;      ///< coefficient on the stage-wide systematic normal

  double variance() const noexcept {
    return b_inter * b_inter + b_sys * b_sys + sigma_ind * sigma_ind;
  }
  double sigma() const noexcept;
  stats::Gaussian as_gaussian() const;

  /// Correlation with another canonical delay (shared Z_inter only).
  double correlation(const CanonicalDelay& other) const noexcept;

  friend CanonicalDelay operator+(const CanonicalDelay& a,
                                  const CanonicalDelay& b) noexcept;
};

/// Clark max of two canonical delays, re-projected onto the canonical form.
CanonicalDelay canonical_max(const CanonicalDelay& a, const CanonicalDelay& b);

/// Structure-of-arrays view over K parallel canonical delays (one sweep lane
/// each) — the layout the lane SSTA fold keeps per gate: four contiguous
/// K-wide vectors instead of K interleaved structs.
struct CanonicalLanes {
  double* mu = nullptr;
  double* b_inter = nullptr;
  double* sigma_ind = nullptr;
  double* b_sys = nullptr;

  CanonicalDelay load(std::size_t k) const {
    return {mu[k], b_inter[k], sigma_ind[k], b_sys[k]};
  }
  void store(std::size_t k, const CanonicalDelay& d) const {
    mu[k] = d.mu;
    b_inter[k] = d.b_inter;
    sigma_ind[k] = d.sigma_ind;
    b_sys[k] = d.b_sys;
  }
};

/// Owning gate-major lane storage behind CanonicalLanes views: four vectors
/// of gates * lanes doubles, gate g's lanes contiguous at
/// [g * lanes, (g + 1) * lanes).  The layout fold_ssta_lanes walks.
struct CanonicalLaneArrays {
  std::vector<double> mu, b_inter, sigma_ind, b_sys;
  std::size_t lanes = 0;

  CanonicalLaneArrays(std::size_t gates, std::size_t n_lanes)
      : mu(gates * n_lanes, 0.0),
        b_inter(gates * n_lanes, 0.0),
        sigma_ind(gates * n_lanes, 0.0),
        b_sys(gates * n_lanes, 0.0),
        lanes(n_lanes) {}

  /// Gate g's lanes.
  CanonicalLanes at(std::size_t g) {
    const std::size_t off = g * lanes;
    return {mu.data() + off, b_inter.data() + off, sigma_ind.data() + off,
            b_sys.data() + off};
  }
};

/// The level schedule of fold_ssta_lanes over one netlist at a fixed lane
/// count, and the staging it folds through.  A gate's fanins all sit on
/// lower logic levels, so the gates of one level fold independently: at
/// each fanin position p >= 1, every gate of the level with a fanin at p,
/// in every lane, goes through one call of the backend's
/// canonical_max_lanes kernel (stats/simd.h).  The schedule lists each
/// level's real gates (fewest fanins first, so the gates with a fanin at p
/// are a suffix of the level) and, per position, their fanin rows.  It
/// rests on Netlist::topological_order() being sorted by logic level; the
/// constructor checks that and throws std::logic_error if it fails.  Built
/// once per lane evaluator (sta::SizeLanes), so a fold allocates nothing.
class LevelSchedule {
 public:
  LevelSchedule(const netlist::Netlist& nl, std::size_t lanes);

 private:
  friend void fold_ssta_lanes(LevelSchedule& schedule,
                              CanonicalLaneArrays& arrival,
                              const CanonicalLanes& out);

  /// fold_ssta_lanes' body; kLanes > 0 fixes the lane count at compile
  /// time, kLanes == 0 reads lanes_.
  template <std::size_t kLanes>
  void fold(CanonicalLaneArrays& arrival, const CanonicalLanes& out);

  /// Fanin position `position` of a level's slots from `first_slot` on
  /// (the ones with a fanin there), whose fanin rows start at rows_[rows].
  /// Every level has a position-0 step; its slots before first_slot have
  /// no fanins.
  struct Step {
    std::size_t position;
    std::size_t first_slot;
    std::size_t rows;
  };

  const netlist::Netlist& nl_;
  std::size_t lanes_;
  std::vector<netlist::GateId> gates_;  // real gates, level by level
  std::vector<std::size_t> level_begin_;  // levels + 1 offsets into gates_
  std::vector<std::size_t> step_begin_;   // levels + 1 offsets into steps_
  std::vector<Step> steps_;
  std::vector<netlist::GateId> rows_;
  CanonicalLaneArrays acc_, other_;  // staging, one row each
};

struct SstaOptions {
  double output_load = 2.0;
};

// The scalar references.  gate_canonical_delay, analyze_ssta and
// fold_ssta are what the tests hold the lane evaluator (sta::SizeLanes)
// and characterize_grid to, bit for bit; no other library code calls
// them.  Characterizations come from characterize_grid
// (sta/ssta_batch.h).

/// Canonical delay of one cell instance under the variation spec.
CanonicalDelay gate_canonical_delay(const netlist::Netlist& nl,
                                    netlist::GateId id,
                                    const device::AlphaPowerModel& model,
                                    const process::VariationSpec& spec,
                                    const SstaOptions& opt = {});

/// Full-netlist SSTA: canonical arrival at the critical output.  This is
/// fold_ssta over every gate's gate_canonical_delay: the scalar reference
/// of one characterize_grid lane.
CanonicalDelay analyze_ssta(const netlist::Netlist& nl,
                            const device::AlphaPowerModel& model,
                            const process::VariationSpec& spec,
                            const SstaOptions& opt = {});

/// The SSTA fold over precomputed per-gate delays, in topological order:
/// on entry `arrival[id]` holds gate id's own canonical delay ({} for
/// pseudo-gates, as gate_canonical_delay returns), on exit its canonical
/// arrival.  Returns the arrival at the critical output: analyze_ssta's
/// fold, and the scalar reference fold_ssta_lanes is held to.
CanonicalDelay fold_ssta(const netlist::Netlist& nl,
                         std::vector<CanonicalDelay>& arrival);

/// Lane form of fold_ssta over the schedule's netlist: its lane count of
/// size configurations in one walk, level by level.  On entry gate id's lanes
/// hold its own canonical delay (zeros for pseudo-gates), on exit its
/// canonical arrival; `out`, one gate of lanes, receives each lane's
/// arrival at the critical output, folded over the outputs in order.  Lane
/// k is bitwise fold_ssta over lane k's delays: every (gate, lane) runs
/// canonical_max's exact operation sequence, and the schedule and the
/// batches a level is cut into are not operands.  A lane that fails
/// stats::clark_max's input check (a NaN sigma) is replayed through the
/// scalar operator, which throws its std::invalid_argument.  Throws
/// std::logic_error if the netlist has no primary outputs.  The lane
/// evaluator (sta::SizeLanes, behind both characterize_grid and the LR
/// sizer) folds through it.
void fold_ssta_lanes(LevelSchedule& schedule, CanonicalLaneArrays& arrival,
                     const CanonicalLanes& out);

}  // namespace statpipe::sta
