#include "device/delay_model.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/lanes.h"

namespace statpipe::device {

namespace {

// Drive-ratio window accepted by the pow core: together with the
// constructor's alpha <= 3.9 cap it keeps |alpha * log2(ratio)| <= 998,
// inside pow_pos's documented |y*log2 x| <= 1020 precondition.  A die
// whose drive collapsed (or exploded) by 2^256 is a functional failure,
// not a timing sample — same rationale as the existing out-of-saturation
// rejection.
constexpr double kMinDriveRatio = 0x1p-256;
constexpr double kMaxDriveRatio = 0x1p256;
constexpr double kMaxAlpha = 3.9;

}  // namespace

AlphaPowerModel::AlphaPowerModel(process::Technology tech) : tech_(tech) {
  if (!(tech_.alpha > 0.0 && tech_.alpha <= kMaxAlpha))
    throw std::invalid_argument(
        "AlphaPowerModel: alpha must be in (0, " + std::to_string(kMaxAlpha) +
        "] (velocity saturation is physically 1..2; the cap bounds the pow "
        "core's exponent range)");
}

double AlphaPowerModel::variation_factor(double dvth, double dl_rel) const {
  const double drive0 = tech_.vdd - tech_.vth0;
  const double drive = drive0 - dvth;
  if (drive <= 0.0)
    throw std::domain_error(
        "variation_factor: Vth shift drives gate out of saturation");
  const double lf = 1.0 + dl_rel;
  if (lf <= 0.0)
    throw std::domain_error("variation_factor: channel length <= 0");
  const double ratio = drive0 / drive;
  if (!(ratio >= kMinDriveRatio && ratio <= kMaxDriveRatio))
    throw std::domain_error(
        "variation_factor: drive ratio beyond physical range");
  return stats::lanes::pow_pos(ratio, tech_.alpha) * lf * lf;
}

AlphaPowerModel::VariationKernelParams
AlphaPowerModel::variation_kernel_params() const noexcept {
  return {tech_.vdd - tech_.vth0, tech_.alpha, kMinDriveRatio,
          kMaxDriveRatio};
}

void AlphaPowerModel::throw_bad_cell(const char* what) {
  throw std::invalid_argument(what);
}

double AlphaPowerModel::delay(GateKind kind, double size, double load_cap,
                              double dvth, double dl_rel) const {
  return nominal_delay(kind, size, load_cap) * variation_factor(dvth, dl_rel);
}

}  // namespace statpipe::device
