// Host-speed probe of the statbench runner; see host_probe.cpp.
#pragma once

namespace statbench {

/// Runs the fixed probe kernel once (a few milliseconds of CPU) and returns
/// its result, which is the same on every call.
double host_probe();

}  // namespace statbench
