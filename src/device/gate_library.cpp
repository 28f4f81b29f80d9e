#include "device/gate_library.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <stdexcept>

namespace statpipe::device {

namespace {

constexpr std::size_t kKindCount = detail::kTraits.size();

constexpr std::array<std::string_view, kKindCount> kNames = {
    "INPUT", "OUTPUT", "BUFF", "NOT",  "NAND",  "NAND3", "NAND4", "NOR",
    "NOR3",  "NOR4",   "AND",  "AND3", "OR",    "OR3",   "XOR",   "XNOR"};

}  // namespace

void detail::throw_bad_kind() {
  throw std::out_of_range("traits: bad GateKind");
}

std::string_view to_string(GateKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  if (i >= kNames.size()) throw std::out_of_range("to_string: bad GateKind");
  return kNames[i];
}

GateKind gate_kind_from_string(std::string_view name) {
  std::string up(name);
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  // .bench uses arity-free names; map NAND/NOR/AND/OR to the 2-input cell
  // (the parser widens to NAND3/NAND4 etc. based on actual fanin).
  if (up == "INPUT") return GateKind::kInput;
  if (up == "OUTPUT") return GateKind::kOutput;
  if (up == "BUFF" || up == "BUF") return GateKind::kBuf;
  if (up == "NOT" || up == "INV") return GateKind::kNot;
  if (up == "NAND") return GateKind::kNand2;
  if (up == "NAND3") return GateKind::kNand3;
  if (up == "NAND4") return GateKind::kNand4;
  if (up == "NOR") return GateKind::kNor2;
  if (up == "NOR3") return GateKind::kNor3;
  if (up == "NOR4") return GateKind::kNor4;
  if (up == "AND") return GateKind::kAnd2;
  if (up == "AND3") return GateKind::kAnd3;
  if (up == "OR") return GateKind::kOr2;
  if (up == "OR3") return GateKind::kOr3;
  if (up == "XOR") return GateKind::kXor2;
  if (up == "XNOR") return GateKind::kXnor2;
  throw std::invalid_argument("gate_kind_from_string: unknown gate '" +
                              std::string(name) + "'");
}

}  // namespace statpipe::device
