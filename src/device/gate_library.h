// Standard-cell gate library in the logical-effort parameterization.
//
// Every combinational cell is characterized by:
//   g    logical effort      (input cap per unit drive, inverter = 1)
//   p    parasitic delay     (in units of tau, the technology constant)
//   area area per unit size  (in minimum-inverter areas)
//
// A cell instance carries a continuous size factor x >= x_min; its input
// capacitance is x*g (inverter-cap units), its drive grows with x, and its
// area is x*area.  This is the currency of the sizing optimizer: the paper's
// gate-level sizing ([3]) manipulates exactly these x's.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace statpipe::device {

enum class GateKind : std::uint8_t {
  kInput,   ///< primary-input pseudo-gate (zero delay, zero area)
  kOutput,  ///< primary-output pseudo-gate (zero delay, zero area)
  kBuf,
  kNot,
  kNand2,
  kNand3,
  kNand4,
  kNor2,
  kNor3,
  kNor4,
  kAnd2,
  kAnd3,
  kOr2,
  kOr3,
  kXor2,
  kXnor2,
};

/// Logical-effort characterization of one cell type.
struct GateTraits {
  double logical_effort;   ///< g
  double parasitic;        ///< p  [tau units]
  double area;             ///< area per unit size [min-inv areas]
  int max_fanin;           ///< arity (0 for pseudo-gates)
  bool is_pseudo;          ///< true for kInput/kOutput
};

namespace detail {

inline constexpr std::array<GateTraits, 16> kTraits = {{
    // g,     p,    area, fanin, pseudo
    {0.0, 0.0, 0.0, 0, true},      // kInput
    {0.0, 0.0, 0.0, 1, true},      // kOutput
    {1.0, 2.0, 2.0, 1, false},     // kBuf (two inverters lumped)
    {1.0, 1.0, 1.0, 1, false},     // kNot
    {4.0 / 3.0, 2.0, 1.6, 2, false},   // kNand2
    {5.0 / 3.0, 3.0, 2.2, 3, false},   // kNand3
    {6.0 / 3.0, 4.0, 2.8, 4, false},   // kNand4
    {5.0 / 3.0, 2.0, 1.9, 2, false},   // kNor2
    {7.0 / 3.0, 3.0, 2.7, 3, false},   // kNor3
    {9.0 / 3.0, 4.0, 3.5, 4, false},   // kNor4
    {4.0 / 3.0, 3.0, 2.6, 2, false},   // kAnd2 (nand+inv lumped)
    {5.0 / 3.0, 4.0, 3.2, 3, false},   // kAnd3
    {5.0 / 3.0, 3.0, 2.9, 2, false},   // kOr2 (nor+inv lumped)
    {7.0 / 3.0, 4.0, 3.7, 3, false},   // kOr3
    {4.0, 4.0, 4.5, 2, false},         // kXor2
    {4.0, 4.0, 4.5, 2, false},         // kXnor2
}};

[[noreturn]] void throw_bad_kind();

// The one body of input_cap and cell_area each, shared by the scalar call
// and its lane form.
__attribute__((always_inline)) inline double input_cap(const GateTraits& t,
                                                       double size) {
  return t.is_pseudo ? 0.0 : size * t.logical_effort;
}
__attribute__((always_inline)) inline double cell_area(const GateTraits& t,
                                                       double size) {
  return t.is_pseudo ? 0.0 : size * t.area;
}

}  // namespace detail

/// Traits table lookup.  The values follow Sutherland/Sproull/Harris
/// "Logical Effort" for static CMOS (XORs modeled as the usual 2-stage
/// transmission-gate implementation lumped into one cell).  Throws
/// std::out_of_range for a kind outside the enum.  Inline, like the cell
/// functions below: the sizer calls them per gate and lane.
__attribute__((always_inline)) inline const GateTraits& traits(GateKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  if (i >= detail::kTraits.size()) detail::throw_bad_kind();
  return detail::kTraits[i];
}

/// Parser/printer for the ISCAS .bench netlist dialect ("NAND", "NOT", ...).
std::string_view to_string(GateKind kind);
GateKind gate_kind_from_string(std::string_view name);

/// Input capacitance of an instance, in min-inverter-cap units.
__attribute__((always_inline)) inline double input_cap(GateKind kind,
                                                       double size) {
  return detail::input_cap(traits(kind), size);
}

/// Lane form of input_cap, accumulating: acc[k] += input_cap(kind, size[k])
/// for k < n, bitwise — one fanout's share of a gate's load in n lanes.
__attribute__((always_inline)) inline void add_input_cap_lanes(
    GateKind kind, const double* size, std::size_t n, double* acc) {
  const GateTraits& t = traits(kind);
  for (std::size_t k = 0; k < n; ++k) acc[k] += detail::input_cap(t, size[k]);
}

/// Cell area of an instance, in min-inverter areas.
__attribute__((always_inline)) inline double cell_area(GateKind kind,
                                                       double size) {
  return detail::cell_area(traits(kind), size);
}

/// Lane form of cell_area, accumulating: acc[k] += cell_area(kind, size[k])
/// for k < n, bitwise — one gate's term of a netlist's area in n lanes.
__attribute__((always_inline)) inline void add_cell_area_lanes(
    GateKind kind, const double* size, std::size_t n, double* acc) {
  const GateTraits& t = traits(kind);
  for (std::size_t k = 0; k < n; ++k) acc[k] += detail::cell_area(t, size[k]);
}

}  // namespace statpipe::device
