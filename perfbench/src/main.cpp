// popbench: runs one benchmark workload and prints its result.
//
//   popbench --workload NAME --seed N --seconds S --trace 0|1
//            --bin-dir DIR --work-dir DIR [--trace-out FILE] [--source-sha SHA]
//
// Human-readable lines first (a stamp, then the workload's own metric names
// with sample counts); the last line is one JSON object with `correct`,
// `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
// --trace 1 the per-layer metrics (BENCHMARK.json lists both sets).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "support/simd.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_IPO
#define PERFBENCH_IPO "unknown"
#endif

namespace {

using namespace perfbench;

// Per-layer metric names, in the order BENCHMARK.json lists them. A
// workload that bypasses a layer reports 0 for it.
const char* const kLayerMetrics[] = {
    "core.count_engine.busy_s",
    "core.count_engine.effective_frac",
    "core.count_engine.batch_blocks",
    "core.count_engine.batch_collisions",
    "core.count_shard_engine.busy_s",
    "core.count_shard_engine.cpu_per_wall",
    "core.count_shard_engine.rounds_to_consensus",
    "core.observe.check_s",
    "core.engine.ns_per_interaction",
    "core.batch_engine.round_ms.p50",
    "core.batch_engine.round_ms.tail",
    "core.batch_engine.cpu_per_wall",
    "core.transition_cache.states.phase_clock",
    "core.transition_cache.states.oscillator",
    "core.transition_cache.pairs.phase_clock",
    "core.transition_cache.pairs.oscillator",
    "core.transition_cache.builds.phase_clock",
    "core.transition_cache.builds.oscillator",
    "server.rtt_us.read.p50",
    "server.rtt_us.read.tail",
    "server.rtt_us.advance.p50",
    "server.rtt_us.advance.tail",
    "server.rtt_us.persist.p50",
    "server.rtt_us.persist.tail",
    "server.rtt_us.lifecycle.p50",
    "server.rtt_us.lifecycle.tail",
    "server.execute_us.read.p50",
    "server.execute_us.read.tail",
    "server.execute_us.advance.p50",
    "server.execute_us.advance.tail",
    "server.execute_us.persist.p50",
    "server.execute_us.persist.tail",
    "server.execute_us.lifecycle.p50",
    "server.execute_us.lifecycle.tail",
    "server.io_wait_us.p50",
    "server.io_wait_us.tail",
    "server.registry.create_ms",
    "persist.snapshot_ms",
    "persist.restore_ms",
    "persist.snapshot_bytes",
    "persist.checkpoints",
    "persist.checkpoint_bytes",
    "sweep.job_wall_s.p50",
    "sweep.overhead_s",
    "faults.events",
    "server.latency_ms.low.p50",
    "server.latency_ms.low.tail",
    "server.latency_ms.high.p50",
    "server.latency_ms.high.tail",
    "server.saturation_rps",
    "bench.work_per_s",
    "bench.op_latency_ms.p50",
    "bench.op_latency_ms.tail",
    "bench.generator_lag_ms.tail",
    "bench.trace_overhead_frac",
    "bench.uncovered_frac",
};

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"cpu_s", "s"},
    {"pass_s", "s"},
};

std::string layer_unit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (ends("_per_s") || ends("_rps")) return "1/s";
  if (name.find("_us") != std::string::npos) return "us";
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("_s.") != std::string::npos || ends("_s")) return "s";
  if (ends("_frac") || ends("cpu_per_wall")) return "ratio";
  if (ends("ns_per_interaction")) return "ns";
  if (ends("_bytes")) return "bytes";
  return "count";
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

int usage() {
  std::fprintf(stderr,
               "usage: popbench --workload consensus_count|clock_agents|"
               "serve_mixed|sweep_grid --seed N --seconds S --trace 0|1 "
               "--bin-dir DIR --work-dir DIR [--trace-out FILE] "
               "[--source-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.t_start = now_s();
  std::string workload, trace_out, source_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") ctx.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") ctx.trace = val == "1";
    else if (key == "--bin-dir") ctx.bin_dir = val;
    else if (key == "--work-dir") ctx.work_dir = val;
    else if (key == "--trace-out") trace_out = val;
    else if (key == "--source-sha") source_sha = val;
    else return usage();
  }
  if (workload.empty() || ctx.bin_dir.empty() || ctx.work_dir.empty() ||
      !(ctx.seconds > 0.0))
    return usage();

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__)
  std::fprintf(stderr,
               "popbench: refusing to report from an unoptimised or "
               "sanitized build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  Tracer tracer(false);
  ctx.tracer = &tracer;
  std::filesystem::create_directories(ctx.work_dir);

  std::printf(
      "stamp: {\"source_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"ipo\": \"%s\", \"simd_tier\": \"%s\", "
      "\"nproc\": %ld, \"hardware_threads\": %u, \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      source_sha.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      PERFBENCH_IPO,
      popproto::simd::tier_name(popproto::simd::active_tier()),
      sysconf(_SC_NPROCESSORS_ONLN), popproto::probe_hardware_threads(),
      workload.c_str(), static_cast<unsigned long long>(ctx.seed),
      ctx.seconds, ctx.trace ? 1 : 0);

  const double steal0 = host_steal_s();
  Result r;
  try {
    if (workload == "consensus_count") r = run_consensus_count(ctx);
    else if (workload == "clock_agents") r = run_clock_agents(ctx);
    else if (workload == "serve_mixed") r = run_serve_mixed(ctx);
    else if (workload == "sweep_grid") r = run_sweep_grid(ctx);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "popbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (ctx.trace) {
    add_trace_accounting(ctx, r);
    r.layer["bench.work_per_s"] = r.work_per_s;
    r.layer["bench.op_latency_ms.p50"] = r.op_latency.p50;
    r.layer["bench.op_latency_ms.tail"] = r.op_latency.tail;
  }

  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());
  std::printf("%s: failed_frac %.6g (%llu of %llu operations), %zu passes\n",
              workload.c_str(), r.tally.failed_frac(),
              static_cast<unsigned long long>(r.tally.failed),
              static_cast<unsigned long long>(r.tally.attempted),
              r.passes.size());
  // Time the hypervisor ran other guests on this machine's CPUs: a run
  // with a large share here was measured on a contended host.
  const double run_s = now_s() - ctx.t_start;
  std::printf("host steal: %.1f%% of CPU time over %.1f s\n",
              100.0 * (host_steal_s() - steal0) /
                  (run_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))),
              run_s);
  std::vector<double> walls, cpus;
  for (const Pass& p : r.passes) {
    if (p.traced) continue;
    walls.push_back(p.wall_s);
    cpus.push_back(p.cpu_s);
  }
  std::printf("timings: setup_s %s; pass_s %s; cpu_s %s\n",
              summarize(r.setup_times).describe("s").c_str(),
              summarize(walls).describe("s").c_str(),
              summarize(cpus).describe("s").c_str());
  if (ctx.trace && !trace_out.empty() && !tracer.write_json(trace_out))
    std::fprintf(stderr, "popbench: cannot write %s\n", trace_out.c_str());

  const bool correct =
      r.checks_ok && r.tally.failed == 0 && r.tally.attempted > 0;
  std::string metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), finite_or_zero(value),
                  unit.c_str());
    metrics += buf;
  };
  if (ctx.trace) {
    for (const char* name : kLayerMetrics) {
      const auto it = r.layer.find(name);
      add(name, it == r.layer.end() ? 0.0 : it->second, layer_unit(name));
    }
  } else {
    const double values[] = {quantile(r.setup_times, 0.5), r.peak_rss_mb,
                             median_cpu(r.passes, false),
                             median_wall(r.passes, false)};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
      add(kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.tally.attempted),
      static_cast<unsigned long long>(r.tally.failed), metrics.c_str());
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::remove_all(ctx.work_dir, ec);
  return 0;
}
