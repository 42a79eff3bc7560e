// What every workload shares: the run context, the result it hands back to
// main(), the pass loop that fills --seconds, and process accounting.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Tracer* tracer = nullptr;  // never null; disabled in untraced runs
  /// Directory holding the popprotod and popsweep binaries.
  std::string bin_dir;
  /// Scratch directory this run owns (snapshots, sweep dirs).
  std::string work_dir;
  /// now_s() at process start.
  double t_start = 0.0;
  /// Threads given to each parallel backend: half of the 4-core host the
  /// benchmark was sized on, so repeated runs do not fight over cores.
  unsigned threads = 2;
};

/// One measured pass over a workload's fixed work list.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

struct Result {
  Tally tally;
  /// Checks that are not per-operation (e.g. the daemon exits cleanly).
  bool checks_ok = true;
  /// Duration of each of the workload's repeated set-ups; setup_s is their
  /// median.
  std::vector<double> setup_times;
  std::vector<Pass> passes;
  /// Work units per wall second (interactions, requests or jobs) and the
  /// latency of one operation (a job, a round call, a request). Printed in
  /// every run; too noisy on a shared host to carry a regression bound, so
  /// the traced run reports them among the unbounded per-layer metrics.
  double work_per_s = 0.0;
  Summary op_latency;
  double peak_rss_mb = 0.0;
  /// Per-layer metrics this workload measured (traced runs only).
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the result (workload-specific
  /// metric names, sample counts).
  std::vector<std::string> report;
};

/// Seed for the j-th job of a workload (splitmix64 of the workload seed).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t j);

/// Run `body(k, traced)` pass after pass: at least two, then more while the
/// measured time so far plus the median pass still fits in ctx.seconds.
/// In a traced run every odd pass is traced (the tracer records only
/// then) and even passes are not, so the overhead is the ratio of their
/// median walls. `cpu_now` reads the CPU seconds of the process tree.
/// `prepare(k)`, if given, runs before pass k, untimed and untraced.
void run_passes(const Context& ctx, const std::function<void(int)>& body,
                const std::function<double()>& cpu_now,
                std::vector<Pass>& out,
                const std::function<void(int)>& prepare = {});

/// Median wall of the passes with the given traced flag.
double median_wall(const std::vector<Pass>& passes, bool traced);
double median_cpu(const std::vector<Pass>& passes, bool traced);

/// Fill the layer metrics every traced run reports: tracing overhead and
/// the share of traced wall time that no layer span covers.
void add_trace_accounting(const Context& ctx, Result& r);

// -- Process accounting ------------------------------------------------------
double cpu_self_s();
double cpu_children_s();       // reaped children and their reaped children
double cpu_pid_s(pid_t pid);   // a live child, from /proc
double maxrss_self_mb();
double maxrss_children_mb();   // largest reaped descendant
/// CPU time the hypervisor gave to other guests (steal), summed over all
/// CPUs, from /proc/stat; 0 where the kernel does not report it.
double host_steal_s();

/// A child process started by the benchmark. Runs in its own process group
/// and dies with the benchmark (PR_SET_PDEATHSIG).
struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;  // read end when capture_stdout, else -1
};

/// fork/exec argv[0] with argv. stdout is captured through a pipe or sent
/// to /dev/null; stderr is inherited. A non-empty `cpus` pins the child
/// (and every thread it starts) to those CPUs.
Child spawn(const std::vector<std::string>& argv, bool capture_stdout,
            const std::vector<int>& cpus = {});

/// Pin the calling thread to `cpus`; false when the kernel refuses.
bool pin_to(const std::vector<int>& cpus);

/// Wait up to `timeout_s` for the child; on timeout SIGKILL its process
/// group and reap it. Returns the exit status (-1 when killed or on
/// abnormal exit).
int wait_child(Child& child, double timeout_s);

/// Recursively remove a directory tree (best effort).
void remove_tree(const std::string& path);

}  // namespace perfbench
