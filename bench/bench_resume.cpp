// Crash-resume harness (ISSUE 6 acceptance): SIGKILL a child mid-run and
// prove the parent can resume from the last periodic auto-checkpoint onto
// the exact uninterrupted trajectory.
//
// Protocol per backend:
//   1. fork() a child; the child constructs its engine only after the fork
//      (no engine or thread pool exists across fork), attaches an
//      AutoCheckpoint with a small period, and loops run_rounds(1) + tick()
//      forever.
//   2. The parent waits for the checkpoint file to appear (plus a beat so
//      the kill lands mid-run, not at the first tick), SIGKILLs the child,
//      and reaps it.
//   3. The parent restores a fresh engine from the surviving checkpoint,
//      replays the child's drive loop for `kExtraRounds` more, and
//      compares against a reference engine driven identically from scratch
//      past the checkpoint time: species tables, interaction counts, and
//      the IEEE-754 bit pattern of parallel time must all match.
//
// The checkpoint file is written atomically (tmp + rename), so whatever the
// kill interrupts, the file the parent reads is a complete container.
//
// Exit 0 on success; any divergence or harness failure exits non-zero.
// Single-threaded backends only (Engine, CountEngine): forking a process
// that owns a thread pool is undefined, and the parent never constructs an
// engine before the child is reaped.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "clocks/phase_clock.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "persist/checkpoint.hpp"
#include "protocols/baselines.hpp"

namespace popproto {
namespace {

constexpr double kCheckpointEvery = 4.0;
constexpr double kExtraRounds = 16.0;

bool bits_equal(double a, double b) {
  std::uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

using Factory = std::function<std::unique_ptr<SimBackend>()>;

/// Child body: build the engine, checkpoint every kCheckpointEvery rounds,
/// run until killed. The round cap only guards against a parent that never
/// delivers the SIGKILL.
[[noreturn]] void child_main(const Factory& make, const std::string& path) {
  auto eng = make();
  AutoCheckpoint ckpt(*eng, {kCheckpointEvery, path});
  while (eng->rounds() < 1e6) {
    eng->run_rounds(1.0);
    ckpt.tick();
  }
  ::_exit(2);  // unreachable under a working parent
}

/// Drive `eng` with the same unit-round loop the child uses until its clock
/// passes `until` (exclusive start, so `until` itself must already be hit
/// bit-exactly by an integer number of unit calls — which it is, both runs
/// being the same deterministic process).
void drive_until(SimBackend& eng, double until) {
  while (eng.rounds() < until) eng.run_rounds(1.0);
}

int run_backend(const std::string& label, const Factory& make) {
  const std::string path = "bench_resume_" + label + ".ckpt";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) child_main(make, path);

  // Let at least one checkpoint land, then a beat more so the kill arrives
  // mid-run (typically several checkpoints in).
  int waited_ms = 0;
  while (!file_exists(path) && waited_ms < 30000) {
    ::usleep(10 * 1000);
    waited_ms += 10;
  }
  ::usleep(200 * 1000);
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!file_exists(path)) {
    std::fprintf(stderr, "%s: child produced no checkpoint in %d ms\n",
                 label.c_str(), waited_ms);
    return 1;
  }
  if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)) {
    std::fprintf(stderr, "%s: child was not SIGKILLed (status %d)\n",
                 label.c_str(), status);
    return 1;
  }

  // Resume from the surviving checkpoint and run kExtraRounds further.
  auto resumed = make();
  if (!AutoCheckpoint::load(path, *resumed)) {
    std::fprintf(stderr, "%s: checkpoint load failed\n", label.c_str());
    return 1;
  }
  const double resume_at = resumed->rounds();
  drive_until(*resumed, resume_at + kExtraRounds);

  // Uninterrupted reference: identical construction, identical drive loop,
  // no crash — must land on bit-identical state.
  auto ref = make();
  drive_until(*ref, resume_at);
  if (!bits_equal(ref->rounds(), resume_at)) {
    std::fprintf(stderr, "%s: reference missed the checkpoint time\n",
                 label.c_str());
    return 1;
  }
  drive_until(*ref, resume_at + kExtraRounds);

  int rc = 0;
  if (ref->species() != resumed->species()) {
    std::fprintf(stderr, "%s: species diverged after resume\n", label.c_str());
    rc = 1;
  }
  if (ref->interactions() != resumed->interactions()) {
    std::fprintf(stderr, "%s: interactions diverged (%llu vs %llu)\n",
                 label.c_str(),
                 static_cast<unsigned long long>(ref->interactions()),
                 static_cast<unsigned long long>(resumed->interactions()));
    rc = 1;
  }
  if (!bits_equal(ref->rounds(), resumed->rounds())) {
    std::fprintf(stderr, "%s: parallel time diverged\n", label.c_str());
    rc = 1;
  }
  if (ref->active_n() != resumed->active_n()) {
    std::fprintf(stderr, "%s: active population diverged\n", label.c_str());
    rc = 1;
  }
  if (rc == 0)
    std::printf("%-8s resumed at round %.2f after SIGKILL: trajectory matches "
                "uninterrupted reference\n",
                label.c_str(), resume_at);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return rc;
}

int run() {
  int rc = 0;
  {
    auto vars = make_var_space();
    const Protocol proto = make_phase_clock_protocol(vars);
    const auto init = phase_clock_initial_states(1 << 12, 1 << 4, *vars);
    rc |= run_backend("agent", [&] {
      return std::make_unique<Engine>(proto, init, /*seed=*/7);
    });
  }
  {
    auto vars = make_var_space();
    const Protocol proto = make_approximate_majority_protocol(vars);
    const State a = var_bit(*vars->find("BA"));
    const State b = var_bit(*vars->find("BB"));
    rc |= run_backend("count", [&, a, b] {
      return std::make_unique<CountEngine>(
          proto,
          std::vector<std::pair<State, std::uint64_t>>{{a, 1 << 13},
                                                       {b, 1 << 13}},
          /*seed=*/7);
    });
  }
  return rc;
}

}  // namespace
}  // namespace popproto

int main() { return popproto::run(); }
