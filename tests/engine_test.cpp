#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"

namespace popproto {
namespace {

/// One-way epidemic: ▷ (I) + (.) -> (.) + (I).
Protocol epidemic_protocol(VarSpacePtr vars) {
  const VarId i = vars->intern("I");
  Protocol p("epidemic", std::move(vars));
  p.add_thread("Epidemic",
               {make_rule(BoolExpr::var(i), BoolExpr::any(), BoolExpr::any(),
                          BoolExpr::var(i), "spread")});
  return p;
}

TEST(Engine, EpidemicSaturates) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(1000, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 7);
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) == 1000; },
      200.0);
  ASSERT_TRUE(t.has_value());
  // Epidemics complete in Θ(log n) rounds; allow generous slack.
  EXPECT_LT(*t, 12 * std::log(1000.0));
  EXPECT_GT(*t, std::log(1000.0) / 2);
}

TEST(Engine, EpidemicCompletesUnderMatchingScheduler) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(1000, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 7, SchedulerKind::kRandomMatching);
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) == 1000; },
      400.0);
  ASSERT_TRUE(t.has_value());
}

TEST(Engine, RoundsAccounting) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(100, 0), 3);
  eng.run_rounds(5.0);
  EXPECT_GE(eng.rounds(), 5.0);
  EXPECT_LT(eng.rounds(), 5.1);
  EXPECT_GE(eng.interactions(), 500u);
}

TEST(Engine, MatchingRoundCountsAsOneRound) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(101, 0), 3, SchedulerKind::kRandomMatching);
  eng.step();
  EXPECT_DOUBLE_EQ(eng.rounds(), 1.0);
  EXPECT_EQ(eng.interactions(), 50u);  // 101 agents: 50 pairs, 1 unmatched
}

TEST(Engine, RoundHookFiresOncePerRound) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(64, 0), 3);
  int calls = 0;
  eng.set_round_hook([&](double, const AgentPopulation&) { ++calls; });
  eng.run_rounds(10.0);
  EXPECT_GE(calls, 9);
  EXPECT_LE(calls, 11);
}

TEST(Engine, RoundHookFiresExactlyOncePerWholeRound) {
  // Regression: the round-hook cadence must not drift — over a long run the
  // hook fires at every whole round exactly once, in order, under both
  // schedulers (a matching activation can cross a boundary in one step; a
  // sequential run crosses one every n interactions).
  for (const SchedulerKind sched :
       {SchedulerKind::kSequential, SchedulerKind::kRandomMatching}) {
    auto vars = make_var_space();
    const Protocol p = epidemic_protocol(vars);
    Engine eng(p, std::vector<State>(96, 0), 17, sched);
    std::vector<double> fired;
    eng.set_round_hook(
        [&](double r, const AgentPopulation&) { fired.push_back(r); });
    eng.run_rounds(200.0);
    ASSERT_EQ(fired.size(),
              static_cast<std::size_t>(std::floor(eng.rounds() + 1e-9)))
        << "scheduler " << static_cast<int>(sched);
    for (std::size_t k = 0; k < fired.size(); ++k)
      EXPECT_DOUBLE_EQ(fired[k], static_cast<double>(k + 1));
  }
}

TEST(Engine, RunUntilQuantizesToCheckIntervalGrid) {
  // Pin the documented resolution semantics: run_until returns the first
  // *check* at which the predicate held — the true first-hold time rounded
  // UP to the check grid (plus sub-round scheduler overshoot) — so a finer
  // interval never reports a later time.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  auto run = [&](double interval) {
    std::vector<State> init(256, 0);
    init[0] = var_bit(i);
    Engine eng(p, std::move(init), 29);
    const auto t = eng.run_until(
        [&](const AgentPopulation& pop) { return pop.count_var(i) >= 128; },
        100.0, interval);
    EXPECT_TRUE(t.has_value());
    return t.value_or(-1.0);
  };
  const double coarse = run(4.0);
  const double fine = run(0.25);
  // Same seed, and the predicate consumes no randomness: both runs follow
  // the identical trajectory and quantize the same instant.
  EXPECT_GT(fine, 0.0);
  EXPECT_LE(fine, coarse + 1e-9);
  EXPECT_LT(coarse - fine, 4.0 + 0.1);
  // Grid alignment, up to the accumulated per-call overshoot (< 1/n each).
  EXPECT_LT(std::fmod(coarse + 1e-9, 4.0), 0.1);
}

TEST(Engine, DeterministicGivenSeed) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  auto run = [&](std::uint64_t seed) {
    std::vector<State> init(200, 0);
    init[0] = var_bit(i);
    Engine eng(p, std::move(init), seed);
    eng.run_rounds(5.0);
    return eng.population().count_var(i);
  };
  EXPECT_EQ(run(11), run(11));
  // Different seeds should (almost surely) differ at some point mid-epidemic.
  bool diverged = false;
  for (std::uint64_t s = 1; s < 6 && !diverged; ++s)
    diverged = run(s) != run(s + 100);
  EXPECT_TRUE(diverged);
}

TEST(Engine, SchedulerPairsAreUniform) {
  // With an always-matching marker rule, every ordered pair should be hit
  // roughly uniformly; track via per-agent initiator counts.
  auto vars = make_var_space();
  const VarId m = vars->intern("M");
  Protocol p("marker", vars);
  p.add_thread("T", {make_rule(BoolExpr::any(), BoolExpr::any(),
                               BoolExpr::var(m), BoolExpr::any())});
  const std::size_t n = 16;
  Engine eng(p, std::vector<State>(n, 0), 5);
  // After one interaction each initiator has M set; instead count how often
  // agent 0 keeps getting chosen by clearing the flag.
  std::size_t agent0_initiations = 0;
  const std::size_t steps = 64000;
  for (std::size_t s = 0; s < steps; ++s) {
    eng.population().set_state(0, 0);
    eng.step();
    if (var_is_set(eng.population().state(0), m)) ++agent0_initiations;
  }
  const double freq = static_cast<double>(agent0_initiations) /
                      static_cast<double>(steps);
  EXPECT_NEAR(freq, 1.0 / n, 0.01);
}

TEST(Engine, ThreadsShareSchedulingEqually) {
  // Two threads, each setting a different marker on any pair; the markers
  // should accumulate at the same rate.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  const VarId y = vars->intern("Y");
  Protocol p("two_threads", vars);
  p.add_thread("TX", {make_rule(!BoolExpr::var(x), BoolExpr::any(),
                                BoolExpr::var(x), BoolExpr::any())});
  p.add_thread("TY", {make_rule(!BoolExpr::var(y), BoolExpr::any(),
                                BoolExpr::var(y), BoolExpr::any())});
  Engine eng(p, std::vector<State>(1000, 0), 9);
  // Run a few interactions only, so first-arrival rates reflect selection.
  std::uint64_t fired_x = 0, fired_y = 0;
  for (int i = 0; i < 20000; ++i) {
    eng.step();
    fired_x = eng.population().count_var(x);
    fired_y = eng.population().count_var(y);
    for (std::size_t a = 0; a < 1000; ++a) eng.population().set_state(a, 0);
  }
  // Both threads fire; equality is checked statistically over fresh runs.
  Engine eng2(p, std::vector<State>(1000, 0), 10);
  eng2.run_rounds(1.0);
  const double cx = static_cast<double>(eng2.population().count_var(x));
  const double cy = static_cast<double>(eng2.population().count_var(y));
  EXPECT_NEAR(cx / (cx + cy), 0.5, 0.1);
  (void)fired_x;
  (void)fired_y;
}

TEST(Engine, RunUntilTimesOut) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  Engine eng(p, std::vector<State>(100, 0), 3);  // no infected agent
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) > 0; }, 10.0);
  EXPECT_FALSE(t.has_value());
}

// -- run_until edge contract (see SimBackend::run_until doc) -----------------
// Regressions pinning the clamped-horizon semantics: max_rounds is an
// absolute budget, never overshot by a whole check_interval, and the
// predicate is always evaluated at least once.

TEST(Engine, RunUntilIntervalLargerThanHorizonStillChecks) {
  // check_interval > max_rounds used to run a full interval past the
  // horizon; the final interval is now clamped so the (single) check lands
  // exactly on max_rounds.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 11);
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) >= 2; },
      /*max_rounds=*/10.0, /*check_interval=*/100.0);
  ASSERT_TRUE(t.has_value());  // spread to 2 agents happens in O(1) rounds
  EXPECT_LE(*t, 10.0 + 0.05);  // checked at the horizon, not at 100 rounds
  EXPECT_LE(eng.rounds(), 10.0 + 0.05);
}

TEST(Engine, RunUntilTimeoutStopsAtHorizonNotInterval) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  Engine eng(p, std::vector<State>(100, 0), 3);  // no infected agent: timeout
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) > 0; },
      /*max_rounds=*/10.0, /*check_interval=*/100.0);
  EXPECT_FALSE(t.has_value());
  // Left within one activation (1/n rounds) of the horizon, not 100 rounds.
  EXPECT_GE(eng.rounds(), 10.0);
  EXPECT_LE(eng.rounds(), 10.0 + 0.05);
}

TEST(Engine, RunUntilZeroHorizonIsInitialCheckOnly) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 5);
  // Unsatisfied predicate + max_rounds = 0: no time passes, clean timeout.
  const auto miss = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) >= 2; }, 0.0);
  EXPECT_FALSE(miss.has_value());
  EXPECT_DOUBLE_EQ(eng.rounds(), 0.0);
  EXPECT_EQ(eng.interactions(), 0u);
  // Already-satisfied predicate succeeds even with a zero budget.
  const auto hit = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) >= 1; }, 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.0);
  EXPECT_EQ(eng.interactions(), 0u);
}

TEST(Engine, RunUntilAlreadySatisfiedReturnsCurrentTime) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine eng(p, std::move(init), 5);
  eng.run_rounds(3.0);
  const double before = eng.rounds();
  const std::uint64_t steps_before = eng.interactions();
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) >= 1; },
      1000.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, before);            // current time, not quantized up
  EXPECT_EQ(eng.interactions(), steps_before);  // no simulation ran
  // An engine already past the horizon still gets its initial check.
  const auto late = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) >= 1; }, 1.0);
  ASSERT_TRUE(late.has_value());
  EXPECT_DOUBLE_EQ(*late, before);
}

TEST(SimBackendContract, RunUntilEdgeCasesAcrossBackends) {
  // The same edge contract through the backend-generic overload, for both
  // the agent and count substrates.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);
  Engine agent(p, std::move(init), 13);
  CountEngine count(p, {{var_bit(i), 1}, {State{0}, 99}}, 13);
  const BoolExpr infected = BoolExpr::var(i);
  for (SimBackend* b : {static_cast<SimBackend*>(&agent),
                        static_cast<SimBackend*>(&count)}) {
    SCOPED_TRACE(b->backend_name());
    // Already satisfied at a zero horizon: initial check wins.
    const auto hit = b->run_until(
        [&](const SimBackend& s) { return s.count_matching(infected) >= 1; },
        0.0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(*hit, 0.0);
    // check_interval > max_rounds: converges within the horizon...
    const auto t = b->run_until(
        [&](const SimBackend& s) { return s.count_matching(infected) >= 2; },
        /*max_rounds=*/20.0, /*check_interval=*/500.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_LE(*t, 20.0 + 0.05);
    // ...and a timeout never overshoots it by a whole interval.
    const auto miss = b->run_until(
        [&](const SimBackend& s) { return s.count_matching(infected) > 200; },
        /*max_rounds=*/b->rounds() + 5.0, /*check_interval=*/500.0);
    EXPECT_FALSE(miss.has_value());
    EXPECT_LE(b->rounds(), t.value_or(0.0) + 5.0 + 1.0);
  }
}

TEST(SimBackendContract, SilentStepLoopReachesTimeTarget) {
  // No agent is infected, so no rule can ever fire. step() must still
  // advance parallel time on every backend (and every count mode), so a
  // plain `while (rounds() < T) step();` loop ends.
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  constexpr std::uint64_t kN = 512;
  constexpr double kTarget = 30.0;
  const std::vector<State> states(kN, 0);
  const std::vector<std::pair<State, std::uint64_t>> counts = {{0, kN}};
  BatchEngine::Params batch_params;
  batch_params.threads = 1;
  CountShardEngine::Params shard_params;
  shard_params.shards = 2;
  shard_params.threads = 1;
  Engine agent(p, states, 21);
  BatchEngine batch(p, states, 21, batch_params);
  CountShardEngine shard(p, counts, 21, shard_params);
  std::vector<std::unique_ptr<SimBackend>> backends;
  for (const CountEngineMode mode :
       {CountEngineMode::kDirect, CountEngineMode::kAdaptive})
    backends.push_back(std::make_unique<CountEngine>(p, counts, 21, mode));
  std::vector<SimBackend*> all = {&agent, &batch, &shard};
  for (const auto& b : backends) all.push_back(b.get());
  for (std::size_t k = 0; k < all.size(); ++k) {
    SimBackend& b = *all[k];
    SCOPED_TRACE(std::string(b.backend_name()) + " #" + std::to_string(k));
    std::uint64_t calls = 0;
    while (b.rounds() < kTarget) {
      const double before = b.rounds();
      b.step();
      ASSERT_GT(b.rounds(), before) << "step() left time unchanged";
      ASSERT_LE(++calls, static_cast<std::uint64_t>(kTarget) * kN);
    }
    EXPECT_EQ(b.count_matching(BoolExpr::var(i)), 0u);
    EXPECT_EQ(b.active_n(), kN);
  }
}

TEST(SchedulerTest, MatchingIsDisjointAndNearPerfect) {
  Rng rng(21);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  sample_random_matching(101, rng, pairs);
  EXPECT_EQ(pairs.size(), 50u);
  std::vector<bool> seen(101, false);
  for (const auto& [a, b] : pairs) {
    EXPECT_FALSE(seen[a]);
    EXPECT_FALSE(seen[b]);
    seen[a] = seen[b] = true;
  }
}

TEST(SchedulerTest, MatchingCoversEachAgentAtMostOnceAcrossSizes) {
  Rng rng(37);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const std::size_t n : {2u, 3u, 7u, 8u, 100u, 101u}) {
    for (int rep = 0; rep < 50; ++rep) {
      sample_random_matching(n, rng, pairs);
      EXPECT_EQ(pairs.size(), n / 2);
      std::vector<bool> seen(n, false);
      for (const auto& [a, b] : pairs) {
        ASSERT_LT(a, n);
        ASSERT_LT(b, n);
        EXPECT_FALSE(seen[a]);
        EXPECT_FALSE(seen[b]);
        seen[a] = seen[b] = true;
      }
      // Exactly one agent unmatched when n is odd, none when n is even.
      std::size_t unmatched = 0;
      for (std::size_t a = 0; a < n; ++a) unmatched += !seen[a];
      EXPECT_EQ(unmatched, n % 2);
    }
  }
}

TEST(SchedulerTest, MatchingOrientationIsUniform) {
  // Within a sampled pair, which endpoint acts as initiator must be a fair
  // coin: track how often agent 0 appears in initiator position.
  Rng rng(41);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  int zero_initiates = 0, zero_matched = 0;
  const int rounds = 40000;
  for (int r = 0; r < rounds; ++r) {
    sample_random_matching(9, rng, pairs);
    for (const auto& [a, b] : pairs) {
      if (a == 0 || b == 0) {
        ++zero_matched;
        if (a == 0) ++zero_initiates;
      }
    }
  }
  ASSERT_GT(zero_matched, 10000);
  EXPECT_NEAR(zero_initiates / static_cast<double>(zero_matched), 0.5, 0.02);
}

TEST(SchedulerTest, MatchingIsUniformish) {
  Rng rng(23);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  int together = 0;
  const int rounds = 20000;
  for (int r = 0; r < rounds; ++r) {
    sample_random_matching(8, rng, pairs);
    for (const auto& [a, b] : pairs)
      if ((a == 0 && b == 1) || (a == 1 && b == 0)) ++together;
  }
  // P(0 matched with 1) = 1/7.
  EXPECT_NEAR(together / static_cast<double>(rounds), 1.0 / 7.0, 0.01);
}

}  // namespace
}  // namespace popproto
