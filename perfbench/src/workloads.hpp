// The four workloads. Each runs in its own process (main.cpp) and returns
// everything main() prints; BENCHMARK.json and perfbench/layers.json say
// why each exists and which layers it exercises.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Majority to consensus on the count-space engines.
Result run_consensus_count(const Context& ctx);
/// Per-agent clock protocols on Engine and BatchEngine.
Result run_clock_agents(const Context& ctx);
/// popprotod on loopback under a mixed request stream.
Result run_serve_mixed(const Context& ctx);
/// A popsweep grid with checkpoints and a fault line.
Result run_sweep_grid(const Context& ctx);

}  // namespace perfbench
