// T12 — §1.2 comparison for leader election: fratricide (folklore 2-state,
// Θ(n)) vs LeaderElection (this paper, O(log^2 n)): who wins and where the
// crossover falls.
#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "analysis/report.hpp"
#include "core/count_engine.hpp"
#include "lang/runtime.hpp"
#include "protocols/baselines.hpp"
#include "protocols/leader_election.hpp"
#include "support/bench_io.hpp"

using namespace popproto;

int main(int argc, char** argv) {
  const BenchContext ctx = parse_bench_args(argc, argv);
  print_experiment_header(
      std::cout, "T12: Leader election vs fratricide",
      "§1.2 — fratricide is Θ(n); LeaderElection is O(log^2 n): polylog "
      "wins from moderate n onward.",
      ctx);

  const auto ns = pow2_range(8, ctx.scale >= 2.0 ? 17 : 15);
  const std::size_t trials = scaled(10, ctx);

  Table t(scaling_headers({"protocol"}));
  auto ours = run_sweep_parallel(
      ns, trials, 0x7C12,
      [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
        auto vars = make_var_space();
        const Program p = make_leader_election_program(vars);
        RuntimeOptions opts;
        opts.seed = seed;
        FrameworkRuntime rt(p, static_cast<std::size_t>(n), opts);
        return rt.run_until(
            [&](const AgentPopulation& pop) {
              return leader_count(pop, *vars) == 1;
            },
            400);
      });
  auto frat = run_sweep_parallel(
      ns, trials, 0x7C13,
      [&](std::uint64_t n, std::uint64_t seed) -> std::optional<double> {
        auto vars = make_var_space();
        const Protocol p = make_fratricide_protocol(vars);
        const VarId l = *vars->find("L");
        CountEngine eng(p, {{var_bit(l), n}}, seed);
        return eng.run_until(
            [&](const CountEngine& e) {
              return e.count_matching(BoolExpr::var(l)) == 1;
            },
            1e9);
      });
  for (const auto& r : ours) {
    t.row().add("LeaderElection (this paper)");
    add_scaling_columns(t, r);
  }
  for (const auto& r : frat) {
    t.row().add("fratricide 2-state");
    add_scaling_columns(t, r);
  }
  t.print(std::cout, "rounds to a unique leader", ctx.csv);

  const PolylogChoice fo = fit_rows_polylog(ours, 3);
  const LinearFit ff = fit_rows_power(frat);
  std::cout << "ours       " << describe_polylog(fo)
            << "   [paper: O(log^2 n)]\n";
  std::cout << "fratricide ~ n^" << format_double(ff.slope, 2)
            << " (R^2=" << format_double(ff.r_squared, 3)
            << ")   [folklore: Θ(n)]\n";

  // Crossover: first n in the sweep where our median beats fratricide's.
  for (std::size_t i = 0; i < ours.size(); ++i) {
    if (ours[i].value.median < frat[i].value.median) {
      std::cout << "crossover: ours wins from n = " << ours[i].n << "\n";
      break;
    }
  }

  // --- Engine-mode series: direct vs skip vs batch on fratricide. ---
  // The Θ(n) baseline is effective-interaction sparse late in the run (only
  // leader-leader meetings change state), the regime skip-ahead is for; the
  // series records direct stepping and the sampler policy (DESIGN.md §9),
  // which at this n never batches, into the BENCH_engine.json trajectory.
  std::vector<BenchRecord> recs;
  const std::uint64_t n_eng = 1 << 12;
  double direct_eff = 0.0;
  const std::pair<const char*, CountEngineMode> eng_modes[] = {
      {"t12_fratricide_direct", CountEngineMode::kDirect},
      {"t12_fratricide_adaptive", CountEngineMode::kAdaptive}};
  for (const auto& [rec_name, mode] : eng_modes) {
    auto vars = make_var_space();
    const Protocol p = make_fratricide_protocol(vars);
    const VarId l = *vars->find("L");
    CountEngine eng(p, {{var_bit(l), n_eng}}, 0x7C15, mode);
    const auto t0 = std::chrono::steady_clock::now();
    eng.run_until(
        [&](const CountEngine& e) {
          return e.count_matching(BoolExpr::var(l)) == 1;
        },
        1e9);
    const double wall = std::max(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        1e-9);
    BenchRecord rec;
    rec.name = rec_name;
    rec.wall_seconds = wall;
    rec.interactions_per_sec = static_cast<double>(eng.interactions()) / wall;
    rec.effective_interactions_per_sec =
        static_cast<double>(eng.effective_interactions()) / wall;
    rec.extra.emplace_back("n", static_cast<double>(n_eng));
    if (mode == CountEngineMode::kDirect)
      direct_eff = rec.effective_interactions_per_sec;
    else if (direct_eff > 0.0)
      rec.extra.emplace_back("speedup_vs_direct_effective",
                             rec.effective_interactions_per_sec / direct_eff);
    recs.push_back(std::move(rec));
  }
  write_bench_json(bench_json_path("BENCH_engine.json"), "bench_t12_le_baselines",
                   recs);
  return 0;
}
