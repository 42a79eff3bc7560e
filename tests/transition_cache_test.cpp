// Kernel equivalence tests: the memoized transition kernel must be a pure
// performance change — cached and uncached walks map every draw to the same
// result, so engines follow bit-identical trajectories to an uncached
// reference stepper from the same seed, with every special-cased fast path
// (sample_indexed, the sidx_ shadow, run_steps' prefetch pipeline, the cap
// fallback) exercised explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"
#include "server/protocol_registry.hpp"
#include "reference_engine.hpp"
#include "support/rng.hpp"

namespace popproto {
namespace {

// ---------------------------------------------------------------------------
// Protocol fixtures: the three state-space regimes the kernel must cover.
// ---------------------------------------------------------------------------

struct Fixture {
  VarSpacePtr vars;
  Protocol proto;
  std::vector<State> init;
};

Fixture oscillator_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_oscillator_protocol(vars);
  std::vector<State> init(n);
  const auto x = *vars->find(kOscX);
  for (std::size_t i = 0; i < n; ++i)
    init[i] = i < n / 16 ? var_bit(x)
                         : oscillator_state(static_cast<int>(i % 3), 0, *vars);
  return Fixture{vars, std::move(p), std::move(init)};
}

Fixture phase_clock_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_phase_clock_protocol(vars);
  std::vector<State> init = phase_clock_initial_states(n, n / 16, *vars);
  return Fixture{vars, std::move(p), std::move(init)};
}

Fixture dv12_fixture(std::size_t n) {
  auto vars = make_var_space();
  Protocol p = make_dv12_majority_protocol(vars);
  const State ma = var_bit(*vars->find("MA")) | var_bit(*vars->find("STRONG"));
  const State mb = var_bit(*vars->find("MB")) | var_bit(*vars->find("STRONG"));
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i) init[i] = i < n / 2 + 2 ? ma : mb;
  return Fixture{vars, std::move(p), std::move(init)};
}

std::vector<Fixture> all_fixtures(std::size_t n) {
  std::vector<Fixture> fs;
  fs.push_back(oscillator_fixture(n));
  fs.push_back(phase_clock_fixture(n));
  fs.push_back(dv12_fixture(n));
  return fs;
}

// ---------------------------------------------------------------------------
// Cache-level equivalence: cached == uncached on every API, on state pairs
// actually reachable by the protocol (harvested from a short engine run).
// ---------------------------------------------------------------------------

std::vector<State> reachable_states(const Fixture& f, std::uint64_t seed) {
  Engine eng(f.proto, f.init, seed);
  eng.run_steps(20'000);
  std::vector<State> out;
  for (std::size_t i = 0; i < eng.n(); ++i)
    out.push_back(eng.population().state(i));
  return out;
}

TEST(TransitionCacheEquivalence, CachedMatchesUncachedOnRandomTriples) {
  for (const Fixture& f : all_fixtures(256)) {
    const std::vector<State> pool = reachable_states(f, 11);
    TransitionCache cache(f.proto);
    const TransitionCache& uncached = cache;
    Rng rng(99);
    for (int t = 0; t < 20'000; ++t) {
      const State sa = pool[rng.below(pool.size())];
      const State sb = pool[rng.below(pool.size())];
      const double u = rng.uniform();
      const PairOutcome c = cache.sample(sa, sb, u);
      const PairOutcome r = uncached.sample_uncached(sa, sb, u);
      ASSERT_EQ(c.a, r.a) << f.proto.name();
      ASSERT_EQ(c.b, r.b) << f.proto.name();
      // Change weights must agree exactly (same running sums, same doubles).
      const double cw = cache.change_weight(sa, sb);
      ASSERT_EQ(cw, uncached.change_weight_uncached(sa, sb)) << f.proto.name();
      if (cw > 0.0) {
        const double u01 = rng.uniform();
        const PairOutcome cc = cache.sample_change(sa, sb, u01);
        const PairOutcome rc = uncached.sample_change_uncached(sa, sb, u01);
        ASSERT_EQ(cc.a, rc.a) << f.proto.name();
        ASSERT_EQ(cc.b, rc.b) << f.proto.name();
      }
    }
    EXPECT_GT(cache.num_states(), 1u);
    EXPECT_GT(cache.num_pairs(), 1u);
    EXPECT_FALSE(cache.cap_reached());
  }
}

TEST(TransitionCacheEquivalence, IndexedPathMatchesStateBasedPath) {
  for (const Fixture& f : all_fixtures(256)) {
    const std::vector<State> pool = reachable_states(f, 12);
    TransitionCache cache(f.proto);
    Rng rng(100);
    for (int t = 0; t < 20'000; ++t) {
      const State sa = pool[rng.below(pool.size())];
      const State sb = pool[rng.below(pool.size())];
      const std::uint32_t ia = cache.state_index(sa);
      const std::uint32_t ib = cache.state_index(sb);
      ASSERT_NE(ia, TransitionCache::kNoState);
      ASSERT_NE(ib, TransitionCache::kNoState);
      const double u = rng.uniform();
      const IndexedPair r = cache.sample_indexed(ia, ib, u);
      const PairOutcome o = cache.sample(sa, sb, u);
      ASSERT_NE(r.a, TransitionCache::kNoState);
      ASSERT_NE(r.b, TransitionCache::kNoState);
      ASSERT_EQ(cache.state_at(r.a), o.a) << f.proto.name();
      ASSERT_EQ(cache.state_at(r.b), o.b) << f.proto.name();
    }
  }
}

TEST(TransitionCacheEquivalence, CapFallbackStillCorrect) {
  // A two-state cap on the phase clock forces constant cap misses; every
  // sample must still agree with the uncached walk, and the cap flag trips.
  const Fixture f = phase_clock_fixture(256);
  const std::vector<State> pool = reachable_states(f, 13);
  TransitionCache tiny(f.proto, /*max_states=*/2);
  Rng rng(101);
  for (int t = 0; t < 10'000; ++t) {
    const State sa = pool[rng.below(pool.size())];
    const State sb = pool[rng.below(pool.size())];
    const double u = rng.uniform();
    const PairOutcome c = tiny.sample(sa, sb, u);
    const PairOutcome r = tiny.sample_uncached(sa, sb, u);
    ASSERT_EQ(c.a, r.a);
    ASSERT_EQ(c.b, r.b);
    ASSERT_EQ(tiny.change_weight(sa, sb), tiny.change_weight_uncached(sa, sb));
  }
  EXPECT_TRUE(tiny.cap_reached());
  EXPECT_LE(tiny.num_states(), 2u);
}

// ---------------------------------------------------------------------------
// Engine trajectory equivalence: same seed => bit-identical populations, the
// memoized engine vs the uncached reference stepper (reference_engine.hpp),
// across schedulers, fault hooks, churn and external mutation.
// ---------------------------------------------------------------------------

void expect_identical(const Engine& a, const ReferenceEngine& ref,
                      const char* what) {
  ASSERT_EQ(a.n(), ref.states().size());
  for (std::size_t i = 0; i < a.n(); ++i)
    ASSERT_EQ(a.population().state(i), ref.states()[i])
        << what << " diverged at agent " << i;
  EXPECT_EQ(a.interactions(), ref.interactions());
  EXPECT_EQ(a.rounds(), ref.rounds());
}

void run_and_compare(const Fixture& f, SchedulerKind sched,
                     const char* what) {
  Engine eng(f.proto, f.init, /*seed=*/21, sched);
  ReferenceEngine ref(f.proto, f.init, /*seed=*/21, sched);
  for (int chunk = 0; chunk < 10; ++chunk) {
    for (int s = 0; s < 2'000; ++s) {
      eng.step();
      ref.step();
    }
    expect_identical(eng, ref, what);
  }
}

TEST(EngineEquivalence, SequentialTrajectoriesBitIdentical) {
  for (const Fixture& f : all_fixtures(256))
    run_and_compare(f, SchedulerKind::kSequential, f.proto.name().c_str());
}

TEST(EngineEquivalence, MatchingTrajectoriesBitIdentical) {
  for (const Fixture& f : all_fixtures(128))
    run_and_compare(f, SchedulerKind::kRandomMatching, f.proto.name().c_str());
}

TEST(EngineEquivalence, RunStepsMatchesStepLoop) {
  // run_steps takes a specialized pipelined path on the plain sequential
  // configuration; it must consume the RNG in the same order as k plain
  // step() calls, and both must match the reference.
  const Fixture f = phase_clock_fixture(256);
  Engine batched(f.proto, f.init, /*seed=*/22);
  Engine stepped(f.proto, f.init, /*seed=*/22);
  ReferenceEngine ref(f.proto, f.init, /*seed=*/22);
  for (const std::uint64_t k : {1ull, 2ull, 7'919ull, 1ull, 10'000ull}) {
    batched.run_steps(k);
    for (std::uint64_t s = 0; s < k; ++s) {
      stepped.step();
      ref.step();
    }
    expect_identical(batched, ref, "run_steps");
    expect_identical(stepped, ref, "step loop");
  }
}

TEST(EngineEquivalence, DropHookPreservesEquivalence) {
  const Fixture f = oscillator_fixture(256);
  const auto drop = [](Rng& r) { return r.chance(0.25); };
  Engine eng(f.proto, f.init, /*seed=*/23);
  InjectionHook hook;
  hook.drop_interaction = drop;
  eng.set_injection_hook(std::move(hook));
  ReferenceEngine ref(f.proto, f.init, /*seed=*/23);
  ref.set_drop(drop);
  for (int s = 0; s < 20'000; ++s) {
    eng.step();
    ref.step();
  }
  expect_identical(eng, ref, "drop hook");
}

TEST(EngineEquivalence, ChurnPreservesEquivalence) {
  // Crash/rejoin flips active_identity_ off and exercises the indirected
  // pair sampling; the engine must keep tracking the reference through it.
  const Fixture f = phase_clock_fixture(128);
  Engine eng(f.proto, f.init, /*seed=*/24);
  ReferenceEngine ref(f.proto, f.init, /*seed=*/24);
  const State fresh = f.init[f.init.size() - 1];
  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t i = 0; i < 20; ++i) {
      eng.crash_agent(3 * i + static_cast<std::uint32_t>(round));
      ref.crash(3 * i + static_cast<std::uint32_t>(round));
    }
    eng.run_steps(3'000);
    for (int s = 0; s < 3'000; ++s) ref.step();
    for (std::uint32_t i = 0; i < 20; ++i) {
      const std::uint32_t a = 3 * i + static_cast<std::uint32_t>(round);
      eng.rejoin_agent(a, fresh);
      ref.rejoin(a, fresh);
    }
    expect_identical(eng, ref, "churn");
  }
}

TEST(EngineEquivalence, ExternalMutationResyncsShadow) {
  // Writing states through population() bypasses the engine; the version
  // counter must invalidate the sidx_ shadow so the engine relearns
  // instead of acting on stale indices.
  const Fixture f = oscillator_fixture(256);
  Engine eng(f.proto, f.init, /*seed=*/25);
  ReferenceEngine ref(f.proto, f.init, /*seed=*/25);
  for (int round = 0; round < 8; ++round) {
    eng.run_steps(2'500);
    for (int s = 0; s < 2'500; ++s) ref.step();
    for (std::size_t i = 0; i < 32; ++i) {
      const State s = f.init[(i * 7 + static_cast<std::size_t>(round)) %
                             f.init.size()];
      eng.population().set_state(i, s);
      ref.set_state(i, s);
    }
    expect_identical(eng, ref, "external mutation");
  }
}

TEST(EngineEquivalence, TinyCapEngineStillBitIdentical) {
  // A kernel whose cache cap overflows constantly (kNoState inputs and
  // results) must fall back per pair and still match: a shadow stepper
  // resolving every draw through a two-state TransitionCache::sample
  // tracks both the engine and the uncached reference.
  auto vars = make_var_space();
  Protocol p = make_phase_clock_protocol(vars);
  std::vector<State> init = phase_clock_initial_states(128, 8, *vars);
  TransitionCache tiny(p, /*max_states=*/2);
  Engine eng(p, init, /*seed=*/26);
  ReferenceEngine ref(p, init, /*seed=*/26);
  Rng shadow(26);  // replays the engine's draw order: pair, then uniform
  for (int s = 0; s < 30'000; ++s) {
    const auto [a, b] = shadow.distinct_pair(init.size());
    const double u = shadow.uniform();
    const PairOutcome o = tiny.sample(init[a], init[b], u);
    init[a] = o.a;
    init[b] = o.b;
    eng.step();
    ref.step();
  }
  EXPECT_TRUE(tiny.cap_reached());
  for (std::size_t i = 0; i < init.size(); ++i) {
    ASSERT_EQ(init[i], eng.population().state(i)) << i;
    ASSERT_EQ(init[i], ref.states()[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// CountEngine equivalence: identical statistics memoized vs the uncached
// reference, in both direct and skip-ahead modes.
// ---------------------------------------------------------------------------

TEST(CountEngineEquivalence, SkipModeDv12ToSilence) {
  auto vars = make_var_space();
  const Protocol p = make_dv12_majority_protocol(vars);
  const State ma = var_bit(*vars->find("MA")) | var_bit(*vars->find("STRONG"));
  const State mb = var_bit(*vars->find("MB")) | var_bit(*vars->find("STRONG"));
  const std::vector<std::pair<State, std::uint64_t>> init = {{ma, 2'060},
                                                             {mb, 2'036}};
  CountEngine eng(p, init, /*seed=*/31);
  ReferenceCountEngine ref(p, init, /*seed=*/31);
  bool eng_alive = true, ref_alive = true;
  while (eng_alive || ref_alive) {
    eng_alive = eng.step();
    ref_alive = ref.skip_step();
    ASSERT_EQ(eng_alive, ref_alive);
  }
  EXPECT_EQ(eng.interactions(), ref.interactions());
  EXPECT_EQ(eng.effective_interactions(), ref.effective());
  EXPECT_EQ(eng.rounds(), ref.rounds());
  EXPECT_EQ(eng.species(), ref.species());
  // skip-ahead must actually have skipped no-ops
  EXPECT_GT(eng.interactions(), eng.effective_interactions());
}

TEST(CountEngineEquivalence, SkipModePhaseClockGrowsSpecies) {
  // The phase clock appends species slots mid-run (from a handful to 15-18
  // live ones) while others go extinct, so the change-weight table is
  // re-strided and dropped along the way. At n = 2^12 its change weight
  // stays far below the skip threshold, so the default mode takes skip-ahead
  // jumps only and must match the reference stepper draw for draw.
  const auto inst = make_protocol_instance("phase_clock", 1u << 12);
  CountEngine eng(*inst->protocol, inst->initial_counts, /*seed=*/33);
  ReferenceCountEngine ref(*inst->protocol, inst->initial_counts,
                           /*seed=*/33);
  std::size_t max_species = 0;
  while (eng.rounds() < 48.0) {
    ASSERT_TRUE(eng.step());
    ASSERT_TRUE(ref.skip_step());
    ASSERT_EQ(eng.interactions(), ref.interactions());
    max_species = std::max(max_species, eng.species().size());
  }
  EXPECT_EQ(eng.effective_interactions(), ref.effective());
  EXPECT_EQ(eng.rounds(), ref.rounds());
  EXPECT_EQ(eng.species(), ref.species());
  EXPECT_EQ(eng.counters().batch_blocks, 0u);
  EXPECT_GT(max_species, 8u);
}

TEST(CountEngineEquivalence, DirectModeOscillator) {
  auto vars = make_var_space();
  const Protocol p = make_oscillator_protocol(vars);
  const auto x = *vars->find(kOscX);
  std::vector<std::pair<State, std::uint64_t>> init;
  init.emplace_back(var_bit(x), 64);
  for (int s = 0; s < 3; ++s)
    init.emplace_back(oscillator_state(s, 0, *vars), 1'000);
  CountEngine eng(p, init, /*seed=*/32, CountEngineMode::kDirect);
  ReferenceCountEngine ref(p, init, /*seed=*/32);
  for (int s = 0; s < 50'000; ++s) {
    eng.step();
    ref.direct_step();
  }
  EXPECT_EQ(eng.interactions(), ref.interactions());
  EXPECT_EQ(eng.effective_interactions(), ref.effective());
  EXPECT_EQ(eng.rounds(), ref.rounds());
  EXPECT_EQ(eng.species(), ref.species());
}

// ---------------------------------------------------------------------------
// Bitmask phase-clock protocol structure (the benchmark workload itself).
// ---------------------------------------------------------------------------

TEST(PhaseClockProtocol, BuildsAndEnumeratesInitialStates) {
  auto vars = make_var_space();
  const Protocol p = make_phase_clock_protocol(vars);
  EXPECT_GT(p.num_rules(), 20u);
  const auto init = phase_clock_initial_states(64, 4, *vars);
  ASSERT_EQ(init.size(), 64u);
  for (const State s : init) EXPECT_EQ(phase_clock_digit_of(s, *vars), 0);
}

TEST(PhaseClockProtocol, DigitsAdvanceUnderTheEngine) {
  auto vars = make_var_space();
  const Protocol p = make_phase_clock_protocol(vars);
  // The rule-diluted believer chain is slow (digit ticks start around round
  // 4000 at this n); 16000 rounds is comfortably past the first wrap.
  Engine eng(p, phase_clock_initial_states(512, 32, *vars), /*seed=*/41);
  eng.run_steps(512 * 16'000);
  int max_digit = 0;
  for (std::size_t i = 0; i < eng.n(); ++i) {
    const int d = phase_clock_digit_of(eng.population().state(i), *vars);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 8);
    if (d > max_digit) max_digit = d;
  }
  EXPECT_GT(max_digit, 0) << "no digit ever ticked";
  // The cache memoized a nontrivial reachable space along the way.
  EXPECT_GT(eng.transition_cache().num_states(), 16u);
  EXPECT_GT(eng.transition_cache().num_pairs(), 100u);
  EXPECT_FALSE(eng.transition_cache().cap_reached());
}

}  // namespace
}  // namespace popproto
