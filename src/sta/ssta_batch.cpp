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

/// Lanes per block: ~2 blocks per pool worker for load balance, but at
/// most 8 lanes so the optimizer's small grids still occupy the pool.
/// Purely a throughput knob: no lane depends on its block.
std::size_t block_lanes(std::size_t lanes) {
  const std::size_t workers =
      std::max<std::size_t>(sim::ThreadPool::shared().thread_count(), 1);
  const std::size_t blocks = 2 * workers;
  return std::clamp<std::size_t>((lanes + blocks - 1) / blocks, 1, 8);
}

/// Characterizes lanes grid[0 .. L) into out[0 .. L) in one walk of
/// `lanes`, an evaluator of width L at z = 0, whose arrivals are then the
/// nominal STA's.
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

  const std::vector<double>& arrival = lanes.arrivals();
  for (std::size_t k = 0; k < L; ++k) {
    const CanonicalDelay d = res.at(0).load(k);
    StageCharacterization& c = out[k];
    c.delay = d.as_gaussian();
    c.sigma_inter = std::abs(d.b_inter);
    // Same split as characterize_ssta: systematic is shared within the
    // stage but private across stages.
    c.sigma_private = std::sqrt(d.b_sys * d.b_sys + d.sigma_ind * d.sigma_ind);
    c.area = area[k];
    // sta::analyze's critical delay: the last maximal output arrival.
    double critical = 0.0;
    for (netlist::GateId o : nl.outputs())
      if (arrival[o * L + k] >= critical) critical = arrival[o * L + k];
    c.nominal_delay = critical;
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
