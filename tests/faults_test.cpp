#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "analysis/recovery.hpp"
#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"

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

/// A protocol whose single rule can never fire (no agent ever holds Z), so
/// the only state changes come from the fault layer.
Protocol inert_protocol(VarSpacePtr vars) {
  const VarId z = vars->intern("Z");
  Protocol p("inert", std::move(vars));
  p.add_thread("Inert", {make_rule(BoolExpr::var(z), BoolExpr::var(z),
                                   BoolExpr::any(), BoolExpr::any())});
  return p;
}

std::vector<std::pair<State, std::uint64_t>> sorted_species(
    const CountEngine& eng) {
  auto s = eng.species();
  std::sort(s.begin(), s.end());
  return s;
}

// ---------------------------------------------------------------------------
// FaultPlan builder

TEST(FaultPlan, BuilderCollectsEventsAndHorizon) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  CorruptSpec cs;
  cs.count = 4;
  plan.corrupt_at(3.0, cs)
      .crash_bernoulli(0.5, 2.0, 12.0, CrashSpec{0.0, 2})
      .dropout_window(1.0, 9.0, 0.25);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kDropout);
  EXPECT_DOUBLE_EQ(plan.last_scheduled_round(), 12.0);
}

// ---------------------------------------------------------------------------
// Acceptance (iii): empty-plan runs are bit-for-bit uninjected runs.

TEST(FaultInjector, EmptyPlanIsBitForBitIdenticalOnEngine) {
  for (const auto scheduler :
       {SchedulerKind::kSequential, SchedulerKind::kRandomMatching}) {
    auto vars = make_var_space();
    const Protocol p = epidemic_protocol(vars);
    const VarId i = *vars->find("I");
    std::vector<State> init(300, 0);
    init[0] = var_bit(i);

    Engine plain(p, init, 42, scheduler);
    Engine hooked(p, init, 42, scheduler);
    FaultInjector injector(FaultPlan{}, 7);
    injector.attach(hooked);

    plain.run_rounds(15.0);
    hooked.run_rounds(15.0);
    EXPECT_EQ(plain.interactions(), hooked.interactions());
    EXPECT_DOUBLE_EQ(plain.rounds(), hooked.rounds());
    for (std::size_t a = 0; a < 300; ++a)
      ASSERT_EQ(plain.population().state(a), hooked.population().state(a))
          << "agent " << a;
    EXPECT_TRUE(injector.log().empty());
  }
}

TEST(FaultInjector, EmptyPlanIsBitForBitIdenticalOnCountEngine) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  const std::vector<std::pair<State, std::uint64_t>> init = {
      {0, 999}, {var_bit(i), 1}};

  CountEngine plain(p, init, 42);
  CountEngine hooked(p, init, 42);
  FaultInjector injector(FaultPlan{}, 7);
  injector.attach(hooked);

  plain.run_rounds(25.0);
  hooked.run_rounds(25.0);
  EXPECT_EQ(plain.interactions(), hooked.interactions());
  EXPECT_EQ(plain.effective_interactions(), hooked.effective_interactions());
  EXPECT_DOUBLE_EQ(plain.rounds(), hooked.rounds());
  EXPECT_EQ(sorted_species(plain), sorted_species(hooked));
}

// Attaching an injector with an empty plan must DETACH whatever a previous
// injector installed on the engine: the old hook captures its injector by
// raw `this`, so leaving it installed would dangle the moment that injector
// is destroyed (heap use-after-free under the sanitize job — the popprotod
// restore path hit exactly this), and its dropout window would keep
// suppressing interactions with no owner.
TEST(FaultInjector, EmptyPlanReattachDetachesPreviousInjector) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(256, 0);
  init[0] = var_bit(i);

  Engine engine(p, init, 42, SchedulerKind::kSequential);
  const BoolExpr infected = BoolExpr::var(i);

  // Total dropout: every interaction is vetoed, the epidemic cannot spread.
  FaultPlan plan;
  plan.dropout_window(0.0, 1e9, 1.0);
  auto blocker = std::make_unique<FaultInjector>(std::move(plan), 7);
  blocker->attach(engine);
  engine.run_rounds(5.0);
  EXPECT_EQ(engine.count_matching(infected), 1u);

  // Detach by attaching an empty plan, then destroy the old injector. A
  // stale hook would now be dangling: running must neither crash nor keep
  // dropping interactions.
  FaultInjector detached(FaultPlan{}, 9);
  detached.attach(engine);
  blocker = nullptr;
  engine.run_rounds(50.0);
  EXPECT_GT(engine.count_matching(infected), 1u);
}

// ---------------------------------------------------------------------------
// Acceptance (i): a converged oscillator hit by a 25% corruption burst
// returns to its healthy predicate within bounded parallel time.

TEST(FaultInjector, OscillatorRecoversFromQuarterCorruption) {
  const std::uint64_t n = 4096;
  const std::uint64_t x = 8;
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_protocol(vars);
  // The bitmask protocol samples one of its rules u.a.r. per interaction, so
  // macroscopic timescales dilate by num_rules versus the typed simulator.
  const double dil = static_cast<double>(proto.num_rules());

  // A dominance configuration is a converged (healthy) oscillator state;
  // settle briefly so the trajectory is on the oscillatory flow.
  std::vector<std::pair<State, std::uint64_t>> init;
  init.emplace_back(var_bit(*vars->find(kOscX)), x);
  const std::uint64_t minority = n / 64;
  init.emplace_back(oscillator_state(0, 0, *vars), n - x - 2 * minority);
  init.emplace_back(oscillator_state(1, 0, *vars), minority);
  init.emplace_back(oscillator_state(2, 0, *vars), minority);
  CountEngine eng(proto, std::move(init), 1234);
  eng.run_rounds(10.0 * dil);

  // Healthy: phase coherence = some species is suppressed. A 25% burst dealt
  // evenly across the palette lifts every species to >= ~n/12 > n/16.
  const std::uint64_t threshold = n / 16;
  auto healthy = [&] { return oscillator_min_species(eng, *vars) <= threshold; };
  ASSERT_TRUE(healthy()) << "a_min=" << oscillator_min_species(eng, *vars);

  const double burst_round = eng.rounds() + 1.0;
  CorruptSpec cs;
  cs.fraction = 0.25;
  cs.mode = CorruptMode::kSpread;
  cs.palette = oscillator_species_states(*vars);
  FaultPlan plan;
  plan.corrupt_at(burst_round, cs);
  FaultInjector injector(plan, 99);
  injector.attach(eng);

  RecoveryProbe probe(/*stable_for=*/3.0 * dil);
  probe.on_fault(burst_round);
  eng.run_rounds(2.0);  // past the burst boundary
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_EQ(injector.log()[0].kind, FaultKind::kCorrupt);
  EXPECT_EQ(injector.log()[0].affected, n / 4);
  EXPECT_FALSE(healthy()) << "a_min=" << oscillator_min_species(eng, *vars);
  probe.observe(eng.rounds(), healthy());  // capture the violation

  const double budget = 60.0 * dil;  // O(log n) with very generous slack
  while (eng.rounds() < burst_round + budget) {
    eng.run_rounds(0.25 * dil);
    probe.observe(eng.rounds(), healthy());
    if (probe.last_recovery_time().has_value()) break;
  }
  ASSERT_TRUE(probe.last_recovery_time().has_value());
  EXPECT_FALSE(probe.violation_delays().empty());
  EXPECT_GT(*probe.last_recovery_time(), 0.0);
  EXPECT_LT(*probe.last_recovery_time(), budget);
}

// ---------------------------------------------------------------------------
// Acceptance (ii): crash/rejoin churn keeps population-size invariants.

TEST(FaultInjector, ChurnKeepsInvariantsOnEngine) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(100, 0);
  init[0] = var_bit(i);

  FaultPlan plan;
  plan.crash_at(2.0, CrashSpec{0.3, 0});
  plan.rejoin_at(6.0, RejoinSpec{0.0, 0, /*all=*/true});
  Engine eng(p, std::move(init), 11);
  FaultInjector injector(plan, 5);
  injector.attach(eng);

  eng.run_rounds(3.2);
  EXPECT_EQ(eng.active_n(), 70u);
  EXPECT_EQ(eng.n(), 100u);  // crashed agents still exist, frozen
  std::size_t inactive = 0;
  for (std::size_t a = 0; a < eng.n(); ++a)
    if (!eng.is_active(a)) ++inactive;
  EXPECT_EQ(eng.active_n() + inactive, eng.n());

  eng.run_rounds(4.0);  // past the rejoin at round 6
  EXPECT_EQ(eng.active_n(), 100u);
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_EQ(injector.log()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(injector.log()[0].affected, 30u);
  EXPECT_EQ(injector.log()[1].kind, FaultKind::kRejoin);
  EXPECT_EQ(injector.log()[1].affected, 30u);
}

TEST(Engine, CrashFreezesStateAndRejoinIsStaleOrFresh) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(50, 0);
  init[0] = var_bit(i);
  init[7] = var_bit(i);
  Engine eng(p, std::move(init), 3);

  eng.crash_agent(7);
  EXPECT_FALSE(eng.is_active(7));
  EXPECT_EQ(eng.active_n(), 49u);
  eng.crash_agent(7);  // idempotent
  EXPECT_EQ(eng.active_n(), 49u);

  eng.run_rounds(40.0);  // epidemic saturates the *active* population
  EXPECT_EQ(eng.population().state(7), var_bit(i));  // frozen, never touched
  EXPECT_EQ(eng.population().count_var(i), 50u);

  eng.rejoin_agent(7);
  EXPECT_TRUE(eng.is_active(7));
  EXPECT_EQ(eng.population().state(7), var_bit(i));  // stale state kept

  eng.crash_agent(7);
  eng.rejoin_agent(7, /*fresh=*/0);
  EXPECT_EQ(eng.population().state(7), 0u);
}

TEST(Engine, ChurnKeepsTimeCalibratedToActivePopulation) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  Engine eng(p, std::vector<State>(100, 0), 3);
  for (std::size_t a = 10; a < 60; ++a) eng.crash_agent(a);
  ASSERT_EQ(eng.active_n(), 50u);
  const double t0 = eng.rounds();
  const std::uint64_t i0 = eng.interactions();
  eng.run_rounds(4.0);
  // One round of parallel time is one interaction per *active* agent.
  EXPECT_NEAR(static_cast<double>(eng.interactions() - i0),
              (eng.rounds() - t0) * 50.0, 1.5);
}

TEST(FaultInjector, ChurnConservesAgentsOnCountEngine) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  const std::uint64_t n = 1000;
  const std::vector<std::pair<State, std::uint64_t>> init = {
      {0, n - 10}, {var_bit(i), 10}};

  FaultPlan plan;
  plan.crash_bernoulli(0.8, 1.0, 10.0, CrashSpec{0.02, 0});
  plan.rejoin_bernoulli(0.5, 4.0, 12.0, RejoinSpec{0.0, 5, false});
  plan.rejoin_at(15.0, RejoinSpec{0.0, 0, /*all=*/true});
  CountEngine eng(p, init, 21);
  FaultInjector injector(plan, 13);
  injector.attach(eng);

  for (int r = 0; r < 14; ++r) {
    eng.run_rounds(1.0);
    std::uint64_t scheduled = 0;
    for (const auto& [s, c] : eng.species()) scheduled += c;
    std::uint64_t crashed = 0;
    for (const auto& [s, c] : eng.crashed_species()) crashed += c;
    ASSERT_EQ(scheduled, eng.n());
    ASSERT_EQ(crashed, eng.crashed_count());
    ASSERT_EQ(eng.n() + eng.crashed_count(), n);
  }
  EXPECT_GT(injector.log().size(), 2u);  // churn actually happened

  eng.run_rounds(3.0);  // past the rejoin-all at round 15
  EXPECT_EQ(eng.crashed_count(), 0u);
  EXPECT_EQ(eng.n(), n);
  // The epidemic still completes despite the churn.
  const auto t = eng.run_until(
      [&](const CountEngine& e) {
        return e.count_matching(BoolExpr::var(i)) == n;
      },
      400.0);
  EXPECT_TRUE(t.has_value());
}

// ---------------------------------------------------------------------------
// Interaction dropout

TEST(FaultInjector, FullDropoutWindowFreezesEngineDynamics) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  std::vector<State> init(200, 0);
  init[0] = var_bit(i);

  FaultPlan plan;
  plan.dropout_window(0.0, 20.0, 1.0);
  Engine eng(p, std::move(init), 17);
  FaultInjector injector(plan, 23);
  injector.attach(eng);

  eng.run_rounds(19.5);
  EXPECT_EQ(eng.population().count_var(i), 1u);  // every interaction dropped
  EXPECT_GE(eng.interactions(), 19u * 200u);     // but time kept flowing

  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) { return pop.count_var(i) == 200; },
      300.0);
  ASSERT_TRUE(t.has_value());  // dynamics resume once the window closes
}

TEST(FaultInjector, FullDropoutWindowFreezesCountEngineSkipMode) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  const std::vector<std::pair<State, std::uint64_t>> init = {
      {0, 990}, {var_bit(i), 10}};

  FaultPlan plan;
  plan.dropout_window(0.0, 10.0, 1.0);
  // Skip mode exercises the geometric-thinning composition of dropout.
  CountEngine eng(p, init, 29);
  FaultInjector injector(plan, 31);
  injector.attach(eng);

  eng.run_rounds(9.5);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(i)), 10u);
  EXPECT_GE(eng.rounds(), 9.5);

  const auto t = eng.run_until(
      [&](const CountEngine& e) {
        return e.count_matching(BoolExpr::var(i)) == 1000;
      },
      300.0);
  ASSERT_TRUE(t.has_value());
}

TEST(FaultInjector, PartialDropoutSlowsButDoesNotStopEpidemic) {
  auto vars = make_var_space();
  const Protocol p = epidemic_protocol(vars);
  const VarId i = *vars->find("I");
  auto completion = [&](FaultPlan plan) {
    std::vector<State> init(400, 0);
    init[0] = var_bit(i);
    Engine eng(p, std::move(init), 53);
    FaultInjector injector(std::move(plan), 57);
    injector.attach(eng);
    const auto t = eng.run_until(
        [&](const AgentPopulation& pop) { return pop.count_var(i) == 400; },
        500.0);
    return t;
  };
  const auto plain = completion(FaultPlan{});
  FaultPlan lossy;
  lossy.dropout_window(0.0, 1e9, 0.75);
  const auto dropped = completion(std::move(lossy));
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(dropped.has_value());
  // Keeping 1/4 of interactions stretches the epidemic ~4x.
  EXPECT_GT(*dropped, *plain * 2.0);
}

// ---------------------------------------------------------------------------
// Scheduler bias

TEST(FaultInjector, SequentialBiasSkewsInitiatorSelection) {
  // Rule: the (single) A-agent marks its responder. With an ε=1 bias toward
  // A-initiators, marks accrue far faster than the uniform 1/n rate.
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  const VarId m = vars->intern("M");
  Protocol p("mark", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(a), !BoolExpr::var(a),
                               BoolExpr::any(), BoolExpr::var(m))});
  auto marks_after = [&](bool biased) {
    std::vector<State> init(1000, 0);
    init[0] = var_bit(a);
    Engine eng(p, std::move(init), 61);
    SchedulerBias bias;
    bias.epsilon = 1.0;
    bias.prefer = Guard(BoolExpr::var(a));
    bias.tries = 64;
    FaultPlan plan;
    if (biased) plan.bias_window(0.0, 1e9, bias);
    FaultInjector injector(std::move(plan), 67);
    injector.attach(eng);
    for (int s = 0; s < 2000; ++s) eng.step();
    return eng.population().count_var(m);
  };
  const auto biased = marks_after(true);
  const auto uniform = marks_after(false);
  // E[uniform] = 2, E[biased] ~ 2000 * (1 - (1 - 1/1000)^64) ~ 124.
  EXPECT_LT(uniform, 20u);
  EXPECT_GT(biased, 50u);
  EXPECT_GT(biased, uniform * 4);
}

TEST(Engine, MatchingBiasFlipsOrientationTowardPreferred) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  const VarId m = vars->intern("M");
  Protocol p("mark", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(a), !BoolExpr::var(a),
                               BoolExpr::any(), BoolExpr::var(m))});
  auto marks_after = [&](double epsilon) {
    std::vector<State> init(80, 0);
    init[5] = var_bit(a);
    Engine eng(p, std::move(init), 71, SchedulerKind::kRandomMatching);
    SchedulerBias bias;
    bias.epsilon = epsilon;
    bias.prefer = Guard(BoolExpr::var(a));
    eng.set_scheduler_bias(bias);
    eng.run_rounds(60.0);
    return eng.population().count_var(m);
  };
  // ε=1: A initiates its pair every round; ε=0: only half the time.
  const auto flipped = marks_after(1.0);
  const auto uniform = marks_after(0.0);
  EXPECT_GT(flipped, uniform);
  EXPECT_GE(flipped, 30u);
}

TEST(CountEngine, BiasForcesDirectModeAndSkewsSampling) {
  auto vars = make_var_space();
  const VarId a = vars->intern("A");
  const VarId m = vars->intern("M");
  Protocol p("mark", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(a), !BoolExpr::var(a),
                               BoolExpr::any(), BoolExpr::var(m))});
  auto marks_after = [&](bool biased) {
    const std::vector<std::pair<State, std::uint64_t>> init = {
        {0, 999}, {var_bit(a), 1}};
    // Direct mode for both arms: a skip-ahead step() lands on an
    // effective interaction by construction, which would mask the skew.
    CountEngine eng(p, init, 73, CountEngineMode::kDirect);
    if (biased) {
      SchedulerBias bias;
      bias.epsilon = 1.0;
      bias.prefer = Guard(BoolExpr::var(a));
      bias.tries = 64;
      eng.set_scheduler_bias(bias);
    }
    for (int s = 0; s < 2000; ++s) eng.step();
    return eng.count_matching(BoolExpr::var(m));
  };
  const auto biased = marks_after(true);
  const auto uniform = marks_after(false);
  EXPECT_LT(uniform, 20u);
  EXPECT_GT(biased, 50u);
}

// ---------------------------------------------------------------------------
// Corruption specifics

TEST(FaultInjector, CorruptionRespectsCountModeAndMask) {
  auto vars = make_var_space();
  const Protocol p = inert_protocol(vars);
  const VarId i = vars->intern("I");
  const VarId j = vars->intern("J");

  // All agents carry J; corruption may only touch the I bit.
  std::vector<State> init(100, var_bit(j));
  CorruptSpec cs;
  cs.count = 5;
  cs.mode = CorruptMode::kFixed;
  cs.fixed_state = var_bit(i);
  cs.mask = var_bit(i);
  FaultPlan plan;
  plan.corrupt_at(1.0, cs);
  Engine eng(p, std::move(init), 83);
  FaultInjector injector(plan, 89);
  injector.attach(eng);
  eng.run_rounds(2.0);
  EXPECT_EQ(eng.population().count_var(i), 5u);
  EXPECT_EQ(eng.population().count_var(j), 100u);  // J untouched by mask
}

TEST(FaultInjector, SpreadCorruptionDealsAcrossPalette) {
  auto vars = make_var_space();
  const Protocol p = inert_protocol(vars);
  const VarId i = vars->intern("I");
  const VarId j = vars->intern("J");

  CorruptSpec cs;
  cs.count = 90;
  cs.mode = CorruptMode::kSpread;
  cs.palette = {0, var_bit(i), var_bit(j)};
  FaultPlan plan;
  plan.corrupt_at(1.0, cs);
  const std::vector<std::pair<State, std::uint64_t>> init = {{0, 100}};
  CountEngine eng(p, init, 91);
  FaultInjector injector(plan, 97);
  injector.attach(eng);
  eng.run_rounds(2.0);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(i)), 30u);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(j)), 30u);
}

// ---------------------------------------------------------------------------
// RecoveryProbe

TEST(RecoveryProbe, RecordsViolationAndRecovery) {
  RecoveryProbe probe;
  probe.on_fault(10.0);
  probe.observe(11.0, false);
  probe.observe(12.0, false);
  probe.observe(13.0, true);
  ASSERT_EQ(probe.events().size(), 1u);
  const RecoveryEvent& e = probe.events()[0];
  ASSERT_TRUE(e.violated_round.has_value());
  EXPECT_DOUBLE_EQ(*e.violated_round, 11.0);
  ASSERT_TRUE(e.recovered());
  EXPECT_DOUBLE_EQ(e.recovery_time(), 3.0);
  EXPECT_EQ(probe.recovery_times(), std::vector<double>{3.0});
  EXPECT_EQ(probe.violation_delays(), std::vector<double>{1.0});
}

TEST(RecoveryProbe, StableForRejectsFlickers) {
  RecoveryProbe probe(/*stable_for=*/2.0);
  probe.on_fault(10.0);
  probe.observe(11.0, false);
  probe.observe(12.0, true);  // flicker...
  probe.observe(13.0, false);
  probe.observe(14.0, true);
  probe.observe(15.0, true);
  EXPECT_FALSE(probe.last_recovery_time().has_value());
  probe.observe(16.0, true);  // healthy since 14, streak length 2
  ASSERT_TRUE(probe.last_recovery_time().has_value());
  // Recovery is dated to the *start* of the sustained healthy stretch.
  EXPECT_DOUBLE_EQ(*probe.last_recovery_time(), 4.0);
}

TEST(RecoveryProbe, ImmediateHealthIsZeroIshRecovery) {
  RecoveryProbe probe;
  probe.on_fault(5.0);
  probe.observe(6.0, true);  // the burst never showed in the predicate
  ASSERT_TRUE(probe.last_recovery_time().has_value());
  EXPECT_DOUBLE_EQ(*probe.last_recovery_time(), 1.0);
  EXPECT_TRUE(probe.violation_delays().empty());
}

TEST(RecoveryProbe, NewBurstPreemptsUnrecoveredEvent) {
  RecoveryProbe probe;
  probe.on_fault(10.0);
  probe.observe(11.0, false);
  probe.on_fault(12.0);  // pre-empts the first event
  probe.observe(13.0, true);
  ASSERT_EQ(probe.events().size(), 2u);
  EXPECT_FALSE(probe.events()[0].recovered());
  ASSERT_TRUE(probe.events()[1].recovered());
  EXPECT_EQ(probe.recovery_times().size(), 1u);
  const Summary s = probe.recovery_summary();
  EXPECT_EQ(s.count, 1u);
}

// ---------------------------------------------------------------------------
// Phase-clock scramble + composite coherence predicate

TEST(PhaseClockSim, ScrambleRecoversCompositeCoherence) {
  PhaseClockSim sim(2048, 9, 5);
  sim.run_rounds(250.0);  // ticking well underway
  ASSERT_LE(sim.composite_spread(), 1);

  Rng rng(55);
  const std::uint64_t hit = sim.scramble(0.75, rng, /*max_digit_offset=*/0);
  EXPECT_EQ(hit, 1536u);
  EXPECT_LE(sim.digit_spread(), 1);      // digits untouched
  EXPECT_GT(sim.composite_spread(), 1);  // believers scrambled

  RecoveryProbe probe(/*stable_for=*/2.0);
  probe.on_fault(sim.rounds());
  const double deadline = sim.rounds() + 200.0;
  while (sim.rounds() < deadline) {
    sim.run_rounds(0.5);
    probe.observe(sim.rounds(), sim.composite_spread() <= 1);
    if (probe.last_recovery_time().has_value()) break;
  }
  ASSERT_TRUE(probe.last_recovery_time().has_value());
  EXPECT_LT(*probe.last_recovery_time(), 200.0);
}

TEST(PhaseClockSim, ScrambleConservesSpeciesCounts) {
  PhaseClockSim sim(512, 3, 5);
  sim.run_rounds(20.0);
  Rng rng(56);
  sim.scramble(0.5, rng, 1);
  std::uint64_t total = 0;
  std::array<std::uint64_t, 3> recount{};
  for (std::size_t a = 0; a < sim.n(); ++a)
    if (!sim.is_x(a)) ++recount[sim.agent(a).osc.species];
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(sim.species_count(s), recount[static_cast<std::size_t>(s)]);
    total += sim.species_count(s);
  }
  EXPECT_EQ(total, sim.n() - 3);
}

}  // namespace
}  // namespace popproto
