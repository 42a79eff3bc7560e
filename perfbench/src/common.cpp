#include "common.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/rng.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t j) {
  std::uint64_t state = seed + 0x9e3779b97f4a7c15ull * j;
  return popproto::splitmix64(state);
}

void run_passes(const Context& ctx, const std::function<void(int)>& body,
                const std::function<double()>& cpu_now,
                std::vector<Pass>& out,
                const std::function<void(int)>& prepare) {
  const double t0 = now_s();
  for (int k = 0;; ++k) {
    if (k >= 2) {
      std::vector<double> walls;
      for (const Pass& p : out) walls.push_back(p.wall_s);
      if (now_s() - t0 + quantile(walls, 0.5) > ctx.seconds) break;
    }
    ctx.tracer->set_enabled(false);
    if (prepare) prepare(k);
    const bool traced = ctx.trace && (k % 2 == 1);
    ctx.tracer->set_enabled(traced);
    const double c0 = cpu_now();
    const double w0 = now_s();
    {
      Tracer::Scope span(*ctx.tracer, "bench.pass", static_cast<std::uint64_t>(k));
      body(k);
    }
    const double w1 = now_s();
    out.push_back({w1 - w0, cpu_now() - c0, traced});
  }
  ctx.tracer->set_enabled(false);
}

double median_wall(const std::vector<Pass>& passes, bool traced) {
  std::vector<double> v;
  for (const Pass& p : passes)
    if (p.traced == traced) v.push_back(p.wall_s);
  return quantile(v, 0.5);
}

double median_cpu(const std::vector<Pass>& passes, bool traced) {
  std::vector<double> v;
  for (const Pass& p : passes)
    if (p.traced == traced) v.push_back(p.cpu_s);
  return quantile(v, 0.5);
}

void add_trace_accounting(const Context& ctx, Result& r) {
  // Pass 0 warms caches of engines that live across passes; leave it out
  // of the comparison when later untraced passes exist.
  const std::vector<Pass> later(
      r.passes.begin() + (r.passes.size() >= 3 ? 1 : 0), r.passes.end());
  const double untraced = median_wall(later, false);
  const double traced = median_wall(later, true);
  r.layer["bench.trace_overhead_frac"] =
      untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
  const auto& spans = ctx.tracer->spans();
  const std::vector<double> self = ctx.tracer->self_times();
  double pass_wall = 0.0, pass_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "bench.pass") continue;
    pass_wall += spans[i].end - spans[i].start;
    pass_self += self[i];
  }
  r.layer["bench.uncovered_frac"] =
      pass_wall > 0.0 ? pass_self / pass_wall : 0.0;
  char line[200];
  std::snprintf(line, sizeof line,
                "trace: overhead %.4f (traced pass median %.4f s vs "
                "untraced %.4f s); uncovered %.4f of %.3f s traced wall",
                r.layer["bench.trace_overhead_frac"], traced, untraced,
                r.layer["bench.uncovered_frac"], pass_wall);
  r.report.emplace_back(line);
}

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

double usage_cpu(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double usage_maxrss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double cpu_self_s() { return usage_cpu(RUSAGE_SELF); }
double cpu_children_s() { return usage_cpu(RUSAGE_CHILDREN); }
double maxrss_self_mb() { return usage_maxrss_mb(RUSAGE_SELF); }
double maxrss_children_mb() { return usage_maxrss_mb(RUSAGE_CHILDREN); }

double cpu_pid_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int i = 1; i <= 8 && in >> field; ++i)
    if (i == 8) steal = field;
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Child spawn(const std::vector<std::string>& argv, bool capture_stdout,
            const std::vector<int>& cpus) {
  int fds[2] = {-1, -1};
  if (capture_stdout && pipe(fds) != 0) return {};
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    setpgid(0, 0);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (!cpus.empty()) pin_to(cpus);
    int out = -1;
    if (capture_stdout) {
      close(fds[0]);
      out = fds[1];
    } else {
      out = open("/dev/null", O_WRONLY);
    }
    dup2(out, STDOUT_FILENO);
    close(out);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  Child child;
  child.pid = pid;
  if (capture_stdout) {
    close(fds[1]);
    child.stdout_fd = fds[0];
    if (pid < 0) close(fds[0]);
  }
  if (pid < 0) child = {};
  return child;
}

int wait_child(Child& child, double timeout_s) {
  if (child.pid <= 0) return -1;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  pid_t got = 0;
  while ((got = waitpid(child.pid, &status, WNOHANG)) == 0 &&
         now_s() < deadline)
    usleep(1000);
  if (got == 0) {
    kill(-child.pid, SIGKILL);
    kill(child.pid, SIGKILL);
    waitpid(child.pid, &status, 0);
    status = -1;
  }
  // Kill anything left in the group (sweep workers of a killed popsweep).
  kill(-child.pid, SIGKILL);
  if (child.stdout_fd >= 0) close(child.stdout_fd);
  child = {};
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
