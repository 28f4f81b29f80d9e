#include "sta/ssta_batch.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/telemetry.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "sta/size_lanes.h"

namespace statpipe::sta {

namespace {

/// Lanes per block, at most kMaxGridBlockLanes.  Several pool workers
/// get ~2 blocks each for load balance, so the optimizer's small grids
/// still occupy the pool.  One worker has nothing to balance: it gets the
/// fewest blocks, cut as evenly as a common width allows (10 lanes run as
/// 5 + 5, 8 as one block, 160 as 20 x 8).  Purely a throughput knob: no
/// lane depends on its block.
std::size_t block_lanes(std::size_t lanes) {
  const std::size_t workers = sim::ThreadPool::shared().thread_count();
  const std::size_t blocks =
      workers <= 1 ? (lanes + kMaxGridBlockLanes - 1) / kMaxGridBlockLanes
                   : 2 * workers;
  return std::clamp<std::size_t>((lanes + blocks - 1) / blocks, 1,
                                 kMaxGridBlockLanes);
}

/// Characterizes lanes grid[0 .. L) into out[0 .. L) in one walk of
/// `lanes`, an evaluator of width L.  The one map from the canonical form
/// to a StageCharacterization.
template <class Lanes>
void characterize_block(const netlist::Netlist& nl, Lanes& lanes,
                        const std::vector<double>* grid,
                        StageCharacterization* out) {
  const std::size_t L = lanes.lanes();
  static const obs::SpanId kGridBlock("sta.grid_block");
  obs::ScopedSpan block_span(kGridBlock, static_cast<std::int64_t>(L));
  static obs::Counter c_lanes("sta.grid_lanes");
  c_lanes.add(L);

  std::vector<double>& x = lanes.sizes();
  for (netlist::GateId id = 0; id < nl.size(); ++id)
    for (std::size_t k = 0; k < L; ++k) x[id * L + k] = grid[k][id];
  lanes.evaluate();
  std::vector<double> area(L);
  lanes.area(area.data());
  CanonicalLaneArrays res(1, L);
  lanes.fold_ssta(res.at(0));

  for (std::size_t k = 0; k < L; ++k) {
    const CanonicalDelay d = res.at(0).load(k);
    out[k] = {d.as_gaussian(), std::abs(d.b_inter), area[k]};
  }
}

}  // namespace

std::vector<StageCharacterization> characterize_grid(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec, const SstaOptions& opt,
    const GridCharacterizer& hook) {
  check_size_grid(nl, size_grid, opt);
  if (hook) return hook(nl, model, size_grid, spec, opt);
  if (nl.outputs().empty())
    throw std::logic_error("characterize_grid: netlist has no primary outputs");
  const std::size_t n = size_grid.size();
  std::vector<StageCharacterization> out(n);
  if (n == 0) return out;
  (void)nl.topological_order();  // cached before the blocks share it
  const std::size_t per = block_lanes(n);
  // Wide blocks borrow their evaluator from a pool, so a grid allocates
  // lane storage once per concurrently running block rather than once per
  // block: fresh multi-lane storage per block can cost more in page
  // faults than the walk itself saves.
  sim::WorkspacePool<std::optional<SizeLanes<0>>> pool;
  sim::parallel_for((n + per - 1) / per, [&](std::size_t b) {
    const std::size_t begin = b * per;
    const std::size_t count = std::min(per, n - begin);
    // A one-lane block runs the compile-time one-lane evaluator; the bits
    // are the same either way.
    if (count == 1) {
      SizeLanes<1> lanes(nl, model, spec, opt.output_load, 0.0);
      characterize_block(nl, lanes, &size_grid[begin], &out[begin]);
      return;
    }
    auto lanes = pool.acquire();
    if (!*lanes || (*lanes)->lanes() != count)
      lanes->emplace(nl, model, spec, opt.output_load, 0.0, count);
    characterize_block(nl, **lanes, &size_grid[begin], &out[begin]);
  });
  return out;
}

}  // namespace statpipe::sta
