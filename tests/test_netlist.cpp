// Unit tests for the netlist DAG, the .bench parser and the generators.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "netlist/bench_parser.h"
#include "netlist/generators.h"
#include "netlist/netlist.h"

namespace nl = statpipe::netlist;
using statpipe::device::GateKind;

// ----------------------------------------------------------------- netlist

namespace {

nl::Netlist tiny() {
  // in -> inv -> nand(in, inv) -> out
  nl::Netlist n("tiny");
  const auto in = n.add_input("in");
  const auto inv = n.add_gate("inv", GateKind::kNot, {in});
  const auto nand = n.add_gate("nand", GateKind::kNand2, {in, inv});
  n.mark_output(nand);
  return n;
}

}  // namespace

TEST(Netlist, BasicConstruction) {
  auto n = tiny();
  EXPECT_EQ(n.size(), 3u);
  EXPECT_EQ(n.gate_count(), 2u);
  EXPECT_EQ(n.inputs().size(), 1u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.validate(), 3u);
}

TEST(Netlist, TopologicalOrderRespectsEdges) {
  auto n = tiny();
  const auto& topo = n.topological_order();
  std::vector<std::size_t> pos(n.size());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (std::size_t id = 0; id < n.size(); ++id)
    for (auto f : n.gate(id).fanins) EXPECT_LT(pos[f], pos[id]);
}

namespace {

// True when levels() never decreases along topological_order().
bool topological_order_is_level_sorted(const nl::Netlist& n) {
  const auto lvl = n.levels();
  const auto& topo = n.topological_order();
  for (std::size_t i = 1; i < topo.size(); ++i)
    if (lvl[topo[i]] < lvl[topo[i - 1]]) return false;
  return true;
}

}  // namespace

TEST(Netlist, TopologicalOrderIsSortedByLevel) {
  // The lane SSTA fold cuts its levels out of topological_order().  Every
  // built-in circuit, the generators at other shapes and seeds, and a
  // parsed DAG whose gate ids are not in level order.
  for (const char* c : {"c432", "c499", "c880", "c1355", "c1908", "c2670",
                        "c3540", "c5315", "c6288", "c7552"}) {
    EXPECT_TRUE(topological_order_is_level_sorted(nl::iscas_like(c))) << c;
    EXPECT_TRUE(topological_order_is_level_sorted(nl::iscas_like(c, 9))) << c;
  }
  EXPECT_TRUE(topological_order_is_level_sorted(nl::iscas_c17()));
  EXPECT_TRUE(topological_order_is_level_sorted(nl::inverter_chain(12)));
  EXPECT_TRUE(topological_order_is_level_sorted(nl::inverter_grid(5, 7)));
  EXPECT_TRUE(topological_order_is_level_sorted(tiny()));

  // The parser adds each gate once its fanins exist, in file order: the
  // 3-deep chain gets ids before the level-1 gate m, and y, a forward
  // reference, comes last.
  const std::string text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = NAND(c3, m)
c1 = NOT(a)
c2 = NOT(c1)
c3 = NOT(c2)
m = NOR(a, b)
z = AND(m, b)
)";
  const auto n = nl::parse_bench_string(text);
  const auto lvl = n.levels();
  bool ids_level_sorted = true;
  for (nl::GateId id = 1; id < n.size(); ++id)
    if (lvl[id] < lvl[id - 1]) ids_level_sorted = false;
  ASSERT_FALSE(ids_level_sorted) << "the fixture must not be level-ordered";
  EXPECT_TRUE(topological_order_is_level_sorted(n));
}

TEST(Netlist, LevelsAndDepth) {
  auto n = tiny();
  const auto lvl = n.levels();
  EXPECT_EQ(lvl[n.find("in")], 0u);
  EXPECT_EQ(lvl[n.find("inv")], 1u);
  EXPECT_EQ(lvl[n.find("nand")], 2u);
  EXPECT_EQ(n.depth(), 2u);
}

TEST(Netlist, AreaAndLoad) {
  auto n = tiny();
  // inv size 1 (area 1.0) + nand2 size 1 (area 1.6).
  EXPECT_NEAR(n.total_area(), 2.6, 1e-12);
  // inv drives one nand2 input: load = g_nand2 = 4/3.
  EXPECT_NEAR(n.load_of(n.find("inv")), 4.0 / 3.0, 1e-12);
  // nand drives the primary output load (default 2.0).
  EXPECT_NEAR(n.load_of(n.find("nand")), 2.0, 1e-12);
}

TEST(Netlist, MarkOutputTwiceCountsOnce) {
  auto n = tiny();
  const auto inv = n.find("inv");
  const auto nand = n.find("nand");
  n.mark_output(nand);  // already an output
  n.mark_output(inv);
  n.mark_output(inv);
  EXPECT_EQ(n.outputs(), (std::vector<nl::GateId>{nand, inv}));
  // One output load each, on top of inv's nand2 fanout (4/3).
  EXPECT_EQ(n.load_of(nand, 3.0), 3.0);
  EXPECT_NEAR(n.load_of(inv, 0.0), 4.0 / 3.0, 1e-12);
  EXPECT_EQ(n.load_of(inv, 3.0), n.load_of(inv, 0.0) + 3.0);
  EXPECT_EQ(n.load_of(n.find("in"), 3.0), n.load_of(n.find("in"), 0.0));

  // A copy keeps the flags and keeps deduplicating, also for gates it
  // gains after the copy.
  auto c = n;
  c.mark_output(inv);
  EXPECT_EQ(c.outputs(), n.outputs());
  EXPECT_EQ(c.load_of(inv, 3.0), n.load_of(inv, 3.0));
  const auto extra = c.add_gate("extra", GateKind::kNot, {nand});
  c.mark_output(extra);
  c.mark_output(extra);
  EXPECT_EQ(c.outputs().size(), 3u);
  EXPECT_EQ(c.load_of(extra, 3.0), 3.0);
  EXPECT_EQ(n.outputs().size(), 2u);
  EXPECT_THROW(n.mark_output(n.size()), std::out_of_range);
}

TEST(Netlist, ScaleSizes) {
  auto n = tiny();
  n.scale_sizes(2.0);
  EXPECT_NEAR(n.total_area(), 5.2, 1e-12);
  EXPECT_THROW(n.scale_sizes(0.0), std::invalid_argument);
}

TEST(Netlist, ValidateCatchesArityViolation) {
  nl::Netlist n("bad");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  // NOT with 3 fanins: legal to construct, caught by validate.
  n.add_gate("bad_not", GateKind::kNot, {a, b, c});
  EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Netlist, FindMissingReturnsInvalid) {
  auto n = tiny();
  EXPECT_EQ(n.find("nonexistent"), nl::kInvalidGate);
}

TEST(Netlist, PositionsAssigned) {
  auto n = tiny();
  n.assign_linear_positions();
  EXPECT_DOUBLE_EQ(n.gate(n.topological_order().front()).position, 0.0);
  EXPECT_DOUBLE_EQ(n.gate(n.topological_order().back()).position, 1.0);
}

// ------------------------------------------------------------------- bench

TEST(BenchParser, ParsesSmallCircuit) {
  const std::string text = R"(
# small test circuit
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
y = NOT(n1)
)";
  const auto n = nl::parse_bench_string(text, "small");
  EXPECT_EQ(n.inputs().size(), 2u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.gate_count(), 2u);
  EXPECT_EQ(n.gate(n.find("n1")).kind, GateKind::kNand2);
}

TEST(BenchParser, WidensArityFreeNames) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = NAND(a, b, c)
)";
  const auto n = nl::parse_bench_string(text);
  EXPECT_EQ(n.gate(n.find("y")).kind, GateKind::kNand3);
}

TEST(BenchParser, HandlesForwardReferences) {
  // y is defined before its fanin n1 appears — legal in .bench files.
  const std::string text = R"(
INPUT(a)
OUTPUT(y)
y = NOT(n1)
n1 = NOT(a)
)";
  const auto n = nl::parse_bench_string(text);
  EXPECT_EQ(n.gate_count(), 2u);
}

TEST(BenchParser, RejectsUndefinedSignal) {
  const std::string text = "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n";
  EXPECT_THROW(nl::parse_bench_string(text), std::runtime_error);
}

TEST(BenchParser, RejectsDuplicateDefinition) {
  const std::string text =
      "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n";
  EXPECT_THROW(nl::parse_bench_string(text), std::runtime_error);
}

TEST(BenchParser, RejectsDff) {
  const std::string text = "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n";
  EXPECT_THROW(nl::parse_bench_string(text), std::runtime_error);
}

TEST(BenchParser, RejectsMalformedLine) {
  EXPECT_THROW(nl::parse_bench_string("INPUT a\n"), std::runtime_error);
  EXPECT_THROW(nl::parse_bench_string("x = NAND(a\n"), std::runtime_error);
}

TEST(BenchParser, RoundTripsThroughWriter) {
  const auto original = nl::iscas_like("c432");
  const auto text = nl::write_bench(original);
  const auto reparsed = nl::parse_bench_string(text);
  EXPECT_EQ(reparsed.gate_count(), original.gate_count());
  EXPECT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  EXPECT_EQ(reparsed.depth(), original.depth());
}

// -------------------------------------------------------------- generators

TEST(Generators, InverterChainShape) {
  const auto n = nl::inverter_chain(10);
  EXPECT_EQ(n.gate_count(), 10u);
  EXPECT_EQ(n.depth(), 10u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.validate(), 11u);
  EXPECT_THROW(nl::inverter_chain(0), std::invalid_argument);
}

TEST(Generators, InverterGridShape) {
  const auto n = nl::inverter_grid(4, 6);
  EXPECT_EQ(n.gate_count(), 24u);
  EXPECT_EQ(n.depth(), 6u);
  EXPECT_EQ(n.outputs().size(), 4u);
}

TEST(Generators, IscasStatsKnownValues) {
  EXPECT_EQ(nl::iscas_stats("c432").gates, 160u);
  EXPECT_EQ(nl::iscas_stats("c3540").gates, 1669u);
  // The paper's "c1980" typo maps to c1908.
  EXPECT_EQ(nl::iscas_stats("c1980").name, "c1908");
  EXPECT_THROW(nl::iscas_stats("c9999"), std::invalid_argument);
}

class IscasLikeShape : public ::testing::TestWithParam<const char*> {};

TEST_P(IscasLikeShape, MatchesPublishedStats) {
  const auto stats = nl::iscas_stats(GetParam());
  const auto n = nl::iscas_like(GetParam());
  EXPECT_EQ(n.gate_count(), stats.gates);
  EXPECT_EQ(n.inputs().size(), stats.inputs);
  EXPECT_EQ(n.outputs().size(), stats.outputs);
  EXPECT_EQ(n.depth(), stats.depth);
  EXPECT_NO_THROW(n.validate());
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, IscasLikeShape,
                         ::testing::Values("c432", "c1908", "c2670", "c3540"));

TEST(Generators, DeterministicForSeed) {
  const auto a = nl::iscas_like("c432", 7);
  const auto b = nl::iscas_like("c432", 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.gate(i).kind, b.gate(i).kind);
    EXPECT_EQ(a.gate(i).fanins, b.gate(i).fanins);
  }
}

TEST(Generators, DifferentSeedsDiffer) {
  const auto a = nl::iscas_like("c432", 1);
  const auto b = nl::iscas_like("c432", 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    if (a.gate(i).kind != b.gate(i).kind || a.gate(i).fanins != b.gate(i).fanins)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}
