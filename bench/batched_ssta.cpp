// Batched vs. scalar SSTA characterization of a candidate size grid.
//
// Workload: the sizer's characteristic access pattern — one stage netlist,
// K candidate size assignments (a sweep grid), full SSTA characterization
// per candidate.  The scalar loop pays a netlist copy + topological walk +
// per-gate structure chasing per candidate; sta::characterize_grid walks
// the structure once per lane block and evaluates every lane of the block
// in that walk.
//
// Prints per-circuit timings (best of kReps) for:
//   scalar-1t  : copy + characterize_ssta per lane, serial
//   scalar-Nt  : same, fanned out over the shared pool
//   batch-Nt   : sta::characterize_grid, lane blocks over the pool
// and verifies the batch results are bitwise-equal to the scalar loop
// (exit 1 otherwise).
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "netlist/generators.h"
#include "sim/engine.h"
#include "sta/characterize.h"
#include "sta/ssta_batch.h"

namespace sp = statpipe;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kLanes = 32;
constexpr int kReps = 5;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<std::vector<double>> make_grid(const sp::netlist::Netlist& nl) {
  std::vector<std::vector<double>> grid(kLanes,
                                        std::vector<double>(nl.size()));
  for (std::size_t k = 0; k < kLanes; ++k)
    for (std::size_t g = 0; g < nl.size(); ++g)
      grid[k][g] =
          nl.gate(g).size * (0.6 + 0.1 * static_cast<double>((k + g) % 8));
  return grid;
}

template <typename Fn>
double best_of(Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

bool bitwise_eq(const sp::sta::StageCharacterization& a,
                const sp::sta::StageCharacterization& b) {
  return a.delay.mean == b.delay.mean && a.delay.sigma == b.delay.sigma &&
         a.sigma_inter == b.sigma_inter && a.sigma_private == b.sigma_private &&
         a.area == b.area && a.nominal_delay == b.nominal_delay;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  try {
    json_path = bench_util::take_json_arg(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batched_ssta: %s\n", e.what());
    return EXIT_FAILURE;
  }
  bench_util::banner(
      "batched_ssta",
      "Batched (characterize_grid) vs scalar SSTA characterization, K=32 "
      "sweep grid");

  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);

  bench_util::JsonReport report("batched_ssta");
  report.meta("lanes", static_cast<double>(kLanes));

  bench_util::row({"circuit", "gates", "scalar-1t", "scalar-Nt", "batch-Nt",
                   "speedup", "bitwise"});
  bench_util::csv_begin("batched_ssta",
                        "circuit,gates,scalar_1t_ms,scalar_nt_ms,batch_nt_ms,"
                        "speedup_nt,bitwise_equal");

  bool all_equal = true;
  bool all_faster = true;
  for (const char* name : {"c432", "c1908", "c3540", "c6288"}) {
    const auto nl = sp::netlist::iscas_like(name);
    (void)nl.topological_order();
    const auto grid = make_grid(nl);

    std::vector<sp::sta::StageCharacterization> scalar(kLanes);
    const double scalar_1t = best_of([&] {
      for (std::size_t k = 0; k < kLanes; ++k) {
        sp::netlist::Netlist work = nl;
        work.set_sizes(grid[k]);
        scalar[k] = sp::sta::characterize_ssta(work, model, spec);
      }
    });
    const double scalar_nt = best_of([&] {
      sp::sim::parallel_for(kLanes, [&](std::size_t k) {
        sp::netlist::Netlist work = nl;
        work.set_sizes(grid[k]);
        scalar[k] = sp::sta::characterize_ssta(work, model, spec);
      });
    });

    std::vector<sp::sta::StageCharacterization> batched;
    const double batch_nt = best_of([&] {
      batched = sp::sta::characterize_grid(nl, model, grid, spec, {});
    });

    bool equal = true;
    for (std::size_t k = 0; k < kLanes; ++k)
      equal = equal && bitwise_eq(scalar[k], batched[k]);
    all_equal = all_equal && equal;
    const double speedup = scalar_nt / batch_nt;
    all_faster = all_faster && batch_nt < scalar_nt;

    bench_util::row({name, std::to_string(nl.gate_count()),
                     bench_util::fmt(scalar_1t) + "ms",
                     bench_util::fmt(scalar_nt) + "ms",
                     bench_util::fmt(batch_nt) + "ms",
                     bench_util::fmt(speedup) + "x", equal ? "yes" : "NO"});
    std::printf("%s,%zu,%.3f,%.3f,%.3f,%.2f,%d\n", name, nl.gate_count(),
                scalar_1t, scalar_nt, batch_nt, speedup, equal ? 1 : 0);

    report.row();
    report.col("circuit", name);
    report.col("gates", static_cast<double>(nl.gate_count()));
    report.col("scalar_1t_ms", scalar_1t);
    report.col("scalar_nt_ms", scalar_nt);
    report.col("batch_nt_ms", batch_nt);
    report.col("speedup_nt", speedup);
    report.col("bitwise_equal", equal ? 1.0 : 0.0);
  }
  bench_util::csv_end();
  try {
    report.write(json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "batched_ssta: %s\n", e.what());
    return EXIT_FAILURE;
  }

  if (!all_equal) {
    std::printf("FAIL: batched characterization diverged from scalar\n");
    return EXIT_FAILURE;
  }
  std::printf("batched characterization %s the scalar loop on every circuit\n",
              all_faster ? "beat" : "did NOT beat");
  return EXIT_SUCCESS;
}
