#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"
#include "reference_engine.hpp"
#include "server/protocol_registry.hpp"
#include "support/stats.hpp"

namespace popproto {
namespace {

Protocol elimination_protocol(VarSpacePtr vars) {
  const VarId x = vars->intern("X");
  Protocol p("elim", std::move(vars));
  p.add_thread("T", {make_rule(BoolExpr::var(x), BoolExpr::var(x),
                               !BoolExpr::var(x), BoolExpr::any(), "elim")});
  return p;
}

TEST(CountEngine, ConservesPopulation) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1000}}, 3);
  eng.run_rounds(50);
  std::uint64_t total = 0;
  for (const auto& [s, c] : eng.species()) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(CountEngine, EliminationKeepsAtLeastOneX) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 512}}, 5);
  eng.run_rounds(4000);
  EXPECT_GE(eng.count_matching(BoolExpr::var(x)), 1u);
}

TEST(CountEngine, EliminationEventuallySilent) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 64}}, 5);
  // Keep stepping effective interactions until only one X remains.
  while (eng.count_matching(BoolExpr::var(x)) > 1) {
    ASSERT_TRUE(eng.step());
  }
  EXPECT_FALSE(eng.step());  // one X left: silent
  EXPECT_TRUE(eng.silent());
}

TEST(CountEngine, SkipAndDirectAgreeInDistribution) {
  // Compare the mean #X after a fixed time under both modes. At n = 256 the
  // policy's skip threshold is above any change weight, so the default mode
  // runs skip-ahead only.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  auto mean_x = [&](CountEngineMode mode, std::uint64_t seed0) {
    double sum = 0;
    for (int t = 0; t < 40; ++t) {
      CountEngine eng(p, {{var_bit(x), 256}}, seed0 + t, mode);
      eng.run_rounds(20);
      EXPECT_EQ(eng.counters().batch_blocks, 0u);
      sum += static_cast<double>(eng.count_matching(BoolExpr::var(x)));
    }
    return sum / 40;
  };
  const double direct = mean_x(CountEngineMode::kDirect, 100);
  const double skip = mean_x(CountEngineMode::kAdaptive, 900);
  EXPECT_NEAR(direct, skip, std::max(2.0, 0.15 * direct));
}

TEST(CountEngine, MatchesAgentEngineOnEpidemic) {
  auto vars = make_var_space();
  const VarId i = vars->intern("I");
  Protocol p("epi", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(i), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(i))});
  auto count_frac_at = [&](double rounds) {
    double agent_sum = 0, count_sum = 0;
    for (int t = 0; t < 30; ++t) {
      std::vector<State> init(500, 0);
      init[0] = var_bit(i);
      Engine ag(p, std::move(init), 50 + t);
      ag.run_rounds(rounds);
      agent_sum += static_cast<double>(ag.population().count_var(i));
      CountEngine ce(p, {{var_bit(i), 1}, {0, 499}}, 950 + t);
      ce.run_rounds(rounds);
      count_sum += static_cast<double>(ce.count_matching(BoolExpr::var(i)));
    }
    return std::pair{agent_sum / 30, count_sum / 30};
  };
  const auto [agent_mean, count_mean] = count_frac_at(6.0);
  EXPECT_NEAR(agent_mean, count_mean, 0.2 * agent_mean + 10);
}

TEST(CountEngine, RoundsAccounting) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 100}}, 3);
  eng.run_rounds(7.0);
  EXPECT_GE(eng.rounds(), 7.0);
  EXPECT_LT(eng.rounds(), 7.2);
}

TEST(CountEngine, SilentFastForwardsTime) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1}, {0, 99}}, 3);
  eng.run_rounds(1000.0);  // nothing can ever happen
  EXPECT_TRUE(eng.silent());
  EXPECT_GE(eng.rounds(), 1000.0);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 1u);
}

TEST(CountEngine, RunUntilFindsThreshold) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 4096}}, 17);
  const auto t = eng.run_until(
      [&](const CountEngine& e) {
        return e.count_matching(BoolExpr::var(x)) <= 64;
      },
      1e7);
  ASSERT_TRUE(t.has_value());
  // #X drops from n to n/64 in Θ(64) rounds (dx/dt = -x²/n).
  EXPECT_GT(*t, 20.0);
  EXPECT_LT(*t, 400.0);
}

TEST(CountEngine, Dv12ExactMajorityIsAlwaysCorrect) {
  // The Θ(n log n)-time baseline is only tractable with skip-ahead.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const VarId ma = *vars->find("MA");
    const VarId mb = *vars->find("MB");
    const VarId st = *vars->find("STRONG");
    const std::uint64_t n = 400;
    // Gap of exactly 2: 201 vs 199.
    CountEngine eng(p,
                    {{var_bit(ma) | var_bit(st), 201},
                     {var_bit(mb) | var_bit(st), 199}},
                    seed);
    const auto t = eng.run_until(
        [&](const CountEngine& e) {
          return e.count_matching(BoolExpr::var(ma)) == n;
        },
        5e6);
    ASSERT_TRUE(t.has_value()) << "seed " << seed;
  }
}

TEST(CountEngine, SaturatedSkipDrawLandsPastTheLimit) {
  // Two X among 2^40 agents: the change weight is ~1.8e-24 and a skip-ahead
  // draw is ~5e23 no-ops, past the 64-bit range. The saturated draw must
  // idle to the limit (one round for an unbounded step) and leave the pair
  // alone, in the engine and in the reference stepper alike.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  const std::uint64_t n = std::uint64_t{1} << 40;
  const std::vector<std::pair<State, std::uint64_t>> init = {
      {var_bit(x), 2}, {0, n - 2}};
  CountEngine eng(p, init, 3);
  ASSERT_TRUE(eng.step());
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 2u);
  EXPECT_EQ(eng.rounds(), 1.0);
  EXPECT_EQ(eng.interactions(), n);
  eng.run_rounds(5.5);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 2u);
  EXPECT_DOUBLE_EQ(eng.rounds(), 6.5);

  ReferenceCountEngine ref(p, init, 3);
  ASSERT_TRUE(ref.skip_step());
  EXPECT_EQ(ref.effective(), 0u);
  EXPECT_EQ(ref.rounds(), 1.0);
  EXPECT_EQ(ref.interactions(), n);
}

// -- The sampler policy ------------------------------------------------------

TEST(CountEngine, PolicySkipsOnSparseDynamics) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 32}, {0, 100000}}, 3);
  // With 32 X among 100k agents, effective interactions are ~1e-7 of all;
  // stepping 500000 rounds would be 5e10 interactions. The policy must go
  // straight to skip-ahead and finish this quickly.
  eng.run_rounds(500000);
  EXPECT_LE(eng.count_matching(BoolExpr::var(x)), 4u);
  EXPECT_LT(eng.effective_interactions(), 2000u);
  EXPECT_EQ(eng.counters().batch_blocks, 0u);
}

TEST(CountEngine, PolicyCrossesBothWays) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  const std::uint64_t n = 100032;
  CountEngine eng(p, {{var_bit(x), 32}, {0, n - 32}}, 3);
  ASSERT_TRUE(eng.step());
  EXPECT_TRUE(eng.skip_engaged());
  EXPECT_EQ(eng.counters().batch_blocks, 0u);
  // Densify: rewrite 60% of the agents to X, pushing the total change
  // weight to ~0.36, far above the skip threshold at this n. The very next
  // activation must batch.
  Rng fault_rng(99);
  eng.mutate_random_agents(60000, fault_rng,
                           [&](State, std::uint64_t) { return var_bit(x); });
  ASSERT_TRUE(eng.step());
  EXPECT_FALSE(eng.skip_engaged());
  EXPECT_EQ(eng.counters().batch_blocks, 1u);
  // Sparsify again: all but 32 X back to the blank state.
  eng.mutate_random_agents(n, fault_rng, [&](State, std::uint64_t j) {
    return j < 32 ? var_bit(x) : State{0};
  });
  ASSERT_TRUE(eng.step());
  EXPECT_TRUE(eng.skip_engaged());
  // Accounting stays exact across the switches: parallel time is exactly
  // interactions / n (population size never changed).
  EXPECT_NEAR(eng.rounds(),
              static_cast<double>(eng.interactions()) / static_cast<double>(n),
              1e-9 * eng.rounds());
}

// Sampler counters of one seeded approx_majority run to minority extinction.
EngineCounters approx_majority_to_consensus(std::uint64_t n) {
  const auto inst = make_protocol_instance("approx_majority", n);
  const Guard minority(BoolExpr::var(*inst->vars->find("BB")));
  CountEngine eng(*inst->protocol, inst->initial_counts, /*seed=*/1);
  while (eng.count_matching(minority) > 0 && eng.rounds() < 1000.0)
    eng.run_rounds(1.0);
  EXPECT_EQ(eng.count_matching(minority), 0u);
  return eng.counters();
}

TEST(CountEngine, PolicySkipsApproxMajorityAtSmallN) {
  // At n = 2^12 approx_majority's change weight never reaches the skip
  // threshold: skip-ahead all the way.
  const EngineCounters c = approx_majority_to_consensus(std::uint64_t{1} << 12);
  EXPECT_EQ(c.batch_blocks, 0u);
  EXPECT_GT(c.skip_jumps, 0u);
}

TEST(CountEngine, PolicyBatchesApproxMajorityAtLargeN) {
  // At n = 2^20 the dense phase batches and only the sparse tail skips:
  // far fewer jumps than the ~3.1M a skip-or-direct engine takes here.
  const EngineCounters c = approx_majority_to_consensus(std::uint64_t{1} << 20);
  EXPECT_GT(c.batch_blocks, 10000u);
  EXPECT_GT(c.skip_jumps, 0u);
  EXPECT_LT(c.skip_jumps, 1000000u);
}

TEST(CountEngine, PolicyStepsDirectlyUnderBias) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1u << 16}}, 5);
  SchedulerBias bias;
  bias.prefer = Guard(BoolExpr::var(x));
  bias.epsilon = 0.5;
  eng.set_scheduler_bias(bias);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(eng.step());
  const EngineCounters c = eng.counters();
  EXPECT_EQ(c.batch_blocks, 0u);
  EXPECT_EQ(c.skip_jumps, 0u);
  EXPECT_EQ(eng.interactions(), 1000u);
  EXPECT_FALSE(eng.skip_engaged());

  // A skip-ahead choice made before the bias was installed does not linger.
  CountEngine sparse(p, {{var_bit(x), 16}, {0, (1u << 16) - 16}}, 5);
  ASSERT_TRUE(sparse.step());
  ASSERT_TRUE(sparse.skip_engaged());
  sparse.set_scheduler_bias(bias);
  ASSERT_TRUE(sparse.step());
  EXPECT_FALSE(sparse.skip_engaged());
}

TEST(CountEngine, PolicyAfterResetPopulationMatchesFreshEngine) {
  // The policy keeps no statistics, so an engine that ran a while and then
  // had its population replaced (a CountShardEngine re-deal) picks the same
  // sampler as a fresh engine over the same counts.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  const std::uint64_t n = std::uint64_t{1} << 18;
  const std::vector<std::pair<State, std::uint64_t>> dense = {
      {var_bit(x), n}};
  const std::vector<std::pair<State, std::uint64_t>> sparse = {
      {var_bit(x), 16}, {0, n - 16}};
  for (const auto& [before, after] :
       {std::pair{dense, sparse}, std::pair{sparse, dense}}) {
    CountEngine used(p, before, 7);
    used.run_rounds(2.0);
    used.reset_population(after);
    CountEngine fresh(p, after, 7);
    const EngineCounters u0 = used.counters();
    ASSERT_TRUE(used.step());
    ASSERT_TRUE(fresh.step());
    EXPECT_EQ(used.skip_engaged(), fresh.skip_engaged());
    EXPECT_EQ(used.counters().batch_blocks - u0.batch_blocks,
              fresh.counters().batch_blocks);
    EXPECT_EQ(used.counters().skip_jumps - u0.skip_jumps,
              fresh.counters().skip_jumps);
  }
}

// -- The batch sampler (batched collision sampling, DESIGN.md §9) -----------
//
// Elimination from an all-X start has change weight ~(x/n)^2, above the skip
// threshold 32/sqrt(n) until x/n drops to ~(32/sqrt(n))^(1/2), so the
// default policy batches through these tests' dense phases.

TEST(CountEngine, BatchConservesPopulationAndAccounting) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  const std::uint64_t n = 5000;
  CountEngine eng(p, {{var_bit(x), n}}, 7);
  eng.run_rounds(25.0);
  std::uint64_t total = 0;
  for (const auto& [s, c] : eng.species()) total += c;
  EXPECT_EQ(total, n);
  EXPECT_GE(eng.rounds(), 25.0);
  EXPECT_NEAR(eng.rounds(),
              static_cast<double>(eng.interactions()) / static_cast<double>(n),
              1e-9 * eng.rounds());
  EXPECT_GT(eng.counters().batch_blocks, 0u);
}

TEST(CountEngine, BatchAndDirectAgreeInDistribution) {
  // Stationary comparison: #X after a fixed time under elimination must be
  // chi-square-indistinguishable between direct and batch sampling. One
  // round from n = 2^16 X ends at x/n ~ 1/2, where the change weight is
  // still above the skip threshold: the default mode only batches. Also
  // the CI release-smoke equivalence check (--gtest_filter=*Batch*).
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  auto samples = [&](CountEngineMode mode, std::uint64_t seed0) {
    std::vector<double> out;
    for (int t = 0; t < 60; ++t) {
      CountEngine eng(p, {{var_bit(x), 1u << 16}}, seed0 + t, mode);
      eng.run_rounds(1.0);
      EXPECT_EQ(eng.counters().skip_jumps, 0u);
      out.push_back(static_cast<double>(eng.count_matching(BoolExpr::var(x))));
    }
    return out;
  };
  const auto direct = samples(CountEngineMode::kDirect, 300);
  const auto batch = samples(CountEngineMode::kAdaptive, 1300);
  std::size_t dof = 0;
  const double stat = chi_square_two_sample(direct, batch, 8, &dof);
  ASSERT_GE(dof, 1u);
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001));
}

// Hitting times of "#X <= n / ratio" under elimination from n X, with the
// sampler counters of each default-mode run.
struct HittingTimes {
  std::vector<double> times;
  std::uint64_t runs_with_both_samplers = 0;
};

HittingTimes elimination_hitting_times(CountEngineMode mode,
                                       std::uint64_t seed0, std::uint64_t n,
                                       std::uint64_t ratio,
                                       double check_interval) {
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  HittingTimes out;
  for (int t = 0; t < 80; ++t) {
    CountEngine eng(p, {{var_bit(x), n}}, seed0 + t, mode);
    const auto hit = eng.run_until(
        [&](const CountEngine& e) {
          return e.count_matching(BoolExpr::var(x)) <= n / ratio;
        },
        1e5, check_interval);
    EXPECT_TRUE(hit.has_value());
    out.times.push_back(hit.value_or(1e5));
    const EngineCounters c = eng.counters();
    if (c.batch_blocks > 0 && c.skip_jumps > 0) ++out.runs_with_both_samplers;
  }
  return out;
}

TEST(CountEngine, BatchVsDirectHittingTimeKS) {
  // Temporal comparison at alpha = 0.01: the hitting time of "#X <= 64"
  // from 4096 must have the same law under the default policy (a short
  // batched start, then skip-ahead) and direct sampling (KS two-sample).
  const auto direct = elimination_hitting_times(CountEngineMode::kDirect,
                                                4000, 4096, 64, 0.5);
  const auto policy = elimination_hitting_times(CountEngineMode::kAdaptive,
                                                14000, 4096, 64, 0.5);
  EXPECT_EQ(policy.runs_with_both_samplers, policy.times.size());
  const double d = ks_statistic(direct.times, policy.times);
  EXPECT_LT(d, ks_critical_value(direct.times.size(), policy.times.size(),
                                 0.01));
}

TEST(CountEngine, BatchThenSkipHittingTimeKS) {
  // Both samplers carry a real share of one trajectory: from n = 2^14 X,
  // "#X <= n/4" takes ~3 rounds, about the first of which is batched and
  // the rest skip-ahead. Its law must match direct sampling (KS at
  // alpha = 0.01) on a fine check grid.
  const auto direct = elimination_hitting_times(CountEngineMode::kDirect,
                                                5000, 1u << 14, 4, 0.02);
  const auto policy = elimination_hitting_times(CountEngineMode::kAdaptive,
                                                15000, 1u << 14, 4, 0.02);
  EXPECT_EQ(policy.runs_with_both_samplers, policy.times.size());
  const double d = ks_statistic(direct.times, policy.times);
  EXPECT_LT(d, ks_critical_value(direct.times.size(), policy.times.size(),
                                 0.01));
}

TEST(CountEngine, BatchModeHandsOffToSkipOnSparseDynamics) {
  // Once elimination goes sparse, sqrt(n)-sized batches of no-ops lose to
  // one event draw per effective interaction: a dense start batches, then
  // the policy must hand off to skip-ahead and still finish huge horizons.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 100000}}, 3);
  eng.run_rounds(500000);
  EXPECT_GT(eng.counters().batch_blocks, 0u);
  // The run may end silent (idling, so skip_engaged() is false); the jump
  // counter shows the hand-off.
  EXPECT_GT(eng.counters().skip_jumps, 0u);
  EXPECT_LE(eng.count_matching(BoolExpr::var(x)), 4u);
}

TEST(CountEngine, BatchDv12ExactMajorityIsAlwaysCorrect) {
  // End-to-end on a protocol that exercises collision interactions, the
  // outcome multinomial and the skip hand-off together: at n = 2^18 DV12's
  // dense start batches, and a 3% gap keeps the sparse tail short.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto vars = make_var_space();
    const Protocol p = make_dv12_majority_protocol(vars);
    const VarId ma = *vars->find("MA");
    const VarId mb = *vars->find("MB");
    const VarId st = *vars->find("STRONG");
    const std::uint64_t n = std::uint64_t{1} << 18;
    const std::uint64_t gap = n / 32;
    CountEngine eng(p,
                    {{var_bit(ma) | var_bit(st), (n + gap) / 2},
                     {var_bit(mb) | var_bit(st), (n - gap) / 2}},
                    seed);
    const auto t = eng.run_until(
        [&](const CountEngine& e) {
          return e.count_matching(BoolExpr::var(ma)) == n;
        },
        5e6);
    ASSERT_TRUE(t.has_value()) << "seed " << seed;
    EXPECT_GT(eng.counters().batch_blocks, 0u) << "seed " << seed;
    EXPECT_GT(eng.counters().skip_jumps, 0u) << "seed " << seed;
  }
}

TEST(CountEngine, BatchTruncatesAtFaultBoundaries) {
  // With an on_round schedule installed, batches must stop at every whole
  // round so hooks fire exactly once per boundary, in order — the same
  // contract skip-ahead jumps honor.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1u << 16}}, 11);
  std::vector<double> fired;
  InjectionHook hook;
  hook.on_round = [&](double r) { fired.push_back(r); };
  eng.set_injection_hook(std::move(hook));
  eng.run_rounds(5.5);
  ASSERT_EQ(fired.size(), 5u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_DOUBLE_EQ(fired[i], static_cast<double>(i + 1));
  EXPECT_GT(eng.counters().batch_blocks, 0u);
}

TEST(CountEngine, BatchFallsBackUnderDropoutHook) {
  // A per-interaction dropout predicate cannot be consulted in aggregate:
  // on a population it would batch, the policy must take skip-ahead (one
  // dropout draw per effective interaction) and still honor the hook.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountEngine eng(p, {{var_bit(x), 1u << 16}}, 13);
  InjectionHook hook;
  hook.drop_interaction = [](Rng&) { return true; };  // drop everything
  eng.set_injection_hook(std::move(hook));
  eng.run_rounds(5.0);
  EXPECT_EQ(eng.effective_interactions(), 0u);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 1u << 16);
  EXPECT_EQ(eng.counters().batch_blocks, 0u);
  EXPECT_GT(eng.counters().skip_jumps, 0u);
  EXPECT_GT(eng.counters().dropped_interactions, 0u);
}

}  // namespace
}  // namespace popproto
