// Shared check for the variation-spec validation every entry point runs
// (process::check_variation_spec): a NaN, negative or +inf value in any
// sigma field, and a NaN or non-positive correlation length with a
// systematic component on, must throw std::invalid_argument naming the
// field.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "process/variation.h"

namespace bad_specs {

/// Runs `run` on a valid inter+intra spec with one field made bad at a
/// time and expects each run to throw std::invalid_argument naming it.
inline void expect_rejected(
    const std::function<void(const statpipe::process::VariationSpec&)>& run) {
  using Spec = statpipe::process::VariationSpec;
  const std::pair<const char*, double Spec::*> sigmas[] = {
      {"sigma_vth_inter", &Spec::sigma_vth_inter},
      {"sigma_vth_systematic", &Spec::sigma_vth_systematic},
      {"sigma_l_inter_rel", &Spec::sigma_l_inter_rel},
      {"sigma_l_systematic_rel", &Spec::sigma_l_systematic_rel}};
  auto expect_throws = [&](const Spec& spec, const std::string& field,
                           double bad) {
    try {
      run(spec);
      ADD_FAILURE() << field << " = " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << field << " = " << bad << ": " << e.what();
    }
  };
  for (const auto& [field, member] : sigmas)
    for (const double bad : {std::nan(""), -0.02, HUGE_VAL}) {
      Spec spec = Spec::inter_intra(0.020, 0.010, 0.5);
      spec.*member = bad;
      expect_throws(spec, field, bad);
    }
  for (const double bad : {std::nan(""), 0.0, -1.0}) {
    Spec spec = Spec::inter_intra(0.020, 0.010, 0.5);
    spec.correlation_length = bad;
    expect_throws(spec, "correlation_length", bad);
  }
}

}  // namespace bad_specs
