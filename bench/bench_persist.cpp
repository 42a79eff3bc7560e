// Snapshot/restore overhead (ISSUE 6): bytes on the wire and save/load
// wall time vs n for each backend, recorded into BENCH_engine.json (suite
// "bench_persist", same history schema as bench_kernel — run it before
// bench_kernel in CI so the kernel suite stays the top-level snapshot).
//
// Each record runs the phase clock for a few rounds to a mid-run state,
// snapshots it (timed), restores a fresh backend from the bytes (timed),
// and sanity-checks that the restored species table matches. The agent
// backends serialize O(n) state; CountEngine serializes O(#species), which
// is why its curve is flat in n — that contrast is the point of recording
// all three.
//
// Flags: --smoke shrinks the n ladder for CI.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"
#include "support/bench_io.hpp"

namespace popproto {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `make()` to a mid-run state, snapshot it, restore a fresh instance,
/// and record {snapshot_bytes, save_ms, load_ms, n}. Returns false when the
/// restored backend disagrees with the original (which would make the
/// timing numbers meaningless).
bool record_backend(
    const std::string& name, std::uint64_t n,
    const std::function<std::unique_ptr<SimBackend>()>& make,
    std::vector<BenchRecord>& out) {
  auto ref = make();
  ref->run_rounds(8.0);

  const double t0 = now_seconds();
  std::ostringstream snap;
  ref->snapshot(snap);
  const double save_s = now_seconds() - t0;
  const std::string bytes = snap.str();

  auto res = make();
  const double t1 = now_seconds();
  std::istringstream in(bytes);
  res->restore(in);
  const double load_s = now_seconds() - t1;

  if (res->species() != ref->species() ||
      res->interactions() != ref->interactions()) {
    std::fprintf(stderr, "%s: restored state diverged from original\n",
                 name.c_str());
    return false;
  }

  BenchRecord rec;
  rec.name = name;
  rec.wall_seconds = save_s + load_s;
  rec.extra.emplace_back("n", static_cast<double>(n));
  rec.extra.emplace_back("snapshot_bytes", static_cast<double>(bytes.size()));
  rec.extra.emplace_back("save_ms", save_s * 1e3);
  rec.extra.emplace_back("load_ms", load_s * 1e3);
  out.push_back(std::move(rec));
  std::printf("%-28s %10zu bytes   save %8.3f ms   load %8.3f ms\n",
              name.c_str(), bytes.size(), save_s * 1e3, load_s * 1e3);
  return true;
}

int run(bool smoke) {
  std::vector<BenchRecord> records;
  const std::vector<std::uint64_t> ns =
      smoke ? std::vector<std::uint64_t>{1 << 12, 1 << 14}
            : std::vector<std::uint64_t>{1 << 14, 1 << 16, 1 << 18};

  for (const std::uint64_t n : ns) {
    auto vars = make_var_space();
    const Protocol proto = make_phase_clock_protocol(vars);
    const auto init = phase_clock_initial_states(n, n >> 8, *vars);
    const auto suffix = "_n" + std::to_string(n);

    if (!record_backend(
            "persist_agent" + suffix, n,
            [&] { return std::make_unique<Engine>(proto, init, /*seed=*/7); },
            records))
      return 1;
    if (!record_backend(
            "persist_batch_t2" + suffix, n,
            [&] {
              BatchEngine::Params params;
              params.threads = 2;
              return std::make_unique<BatchEngine>(proto, init, /*seed=*/7,
                                                   params);
            },
            records))
      return 1;
  }

  // CountEngine state is O(#species), not O(n): one size on the ladder tells
  // the story (the bytes barely move with n).
  for (const std::uint64_t n : ns) {
    auto vars = make_var_space();
    const Protocol proto = make_approximate_majority_protocol(vars);
    const State a = var_bit(*vars->find("BA"));
    const State b = var_bit(*vars->find("BB"));
    if (!record_backend(
            "persist_count_batch_n" + std::to_string(n), n,
            [&, a, b] {
              return std::make_unique<CountEngine>(
                  proto,
                  std::vector<std::pair<State, std::uint64_t>>{{a, n / 2},
                                                               {b, n - n / 2}},
                  /*seed=*/7);
            },
            records))
      return 1;
  }

  const std::string path = bench_json_path("BENCH_engine.json");
  if (!write_bench_json(path, "bench_persist", records)) return 1;
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
  return 0;
}

}  // namespace
}  // namespace popproto

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  return popproto::run(smoke);
}
