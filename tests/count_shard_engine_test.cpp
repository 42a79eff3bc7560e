// CountShardEngine contract tests (DESIGN.md §11): thread-count-independent
// determinism, exact shards=1 equivalence to a default CountEngine,
// hitting-time distribution parity on majority, snapshot round-trip +
// structural-config rejection, and the fault hooks keeping shards off the
// batch sampler.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "persist/replay_check.hpp"
#include "protocols/baselines.hpp"
#include "support/serialize.hpp"
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

std::vector<std::pair<State, std::uint64_t>> majority_init(
    const VarSpace& vars, std::uint64_t n_a, std::uint64_t n_b) {
  const State a = var_bit(*vars.find("BA"));
  const State b = var_bit(*vars.find("BB"));
  return {{a, n_a}, {b, n_b}};
}

void expect_equal_counters(const EngineCounters& x, const EngineCounters& y) {
  EXPECT_EQ(x.interactions, y.interactions);
  EXPECT_EQ(x.effective_steps, y.effective_steps);
  EXPECT_EQ(x.dropped_interactions, y.dropped_interactions);
  EXPECT_EQ(x.skip_jumps, y.skip_jumps);
  EXPECT_EQ(x.skipped_interactions, y.skipped_interactions);
  EXPECT_EQ(x.batch_blocks, y.batch_blocks);
  EXPECT_EQ(x.batch_collisions, y.batch_collisions);
  // Cache warmth (builds/fallbacks/hits) is an implementation diagnostic and
  // deliberately excluded, matching replay_check's comparison surface.
}

TEST(CountShardEngine, DeterministicAcrossThreadCounts) {
  // Threads are execution-only: any worker count must replay the identical
  // trajectory for a fixed (seed, shards, migrate_every).
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  CountShardEngine::Params params;
  params.shards = 4;
  params.migrate_every = 2;
  params.min_shard = 16;

  struct Observed {
    std::size_t shards;
    double rounds;
    std::uint64_t interactions;
    std::vector<std::pair<State, std::uint64_t>> species;
    std::array<std::uint64_t, 4> migration_rng;
    EngineCounters ctr;
  };
  auto run_one = [&](unsigned threads) {
    CountShardEngine::Params pp = params;
    pp.threads = threads;
    // Four shards of 2^18 agents: the shards batch, then skip once the
    // minority thins out.
    CountShardEngine eng(p, majority_init(*vars, 614400, 434176), 11, pp);
    eng.run_rounds(13.0);
    eng.run_rounds(20.5);
    return Observed{eng.shards(),    eng.rounds(),
                    eng.interactions(), eng.species(),
                    eng.migration_rng().state(), eng.counters()};
  };
  const Observed a = run_one(1);
  const Observed b = run_one(3);
  EXPECT_EQ(a.shards, 4u);
  EXPECT_GT(a.ctr.batch_blocks, 0u);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.species, b.species);
  EXPECT_EQ(a.migration_rng, b.migration_rng);
  expect_equal_counters(a.ctr, b.ctr);
}

TEST(CountShardEngine, ShardsOneExactlyMatchesCountEngineBatch) {
  // The shards=1 anchor: the wrapper must be a bit-for-bit pass-through to
  // a default-mode CountEngine seeded with the documented shard-0 stream —
  // same species order, same time base, same interaction totals, same RNG
  // consumption (visible through the counters).
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const std::uint64_t seed = 21;
  // n = 2^18, where the default sampler policy batches.
  const auto init = majority_init(*vars, 143360, 118784);

  CountShardEngine sharded(p, init, seed);  // default Params: one shard
  CountEngine ref(p, init, CountShardEngine::shard_seed(seed, 0));
  ASSERT_EQ(sharded.shards(), 1u);

  // Segmented identically: the wrapper forwards each call whole, so batch
  // truncation at run targets lines up between the two.
  for (const double seg : {1.25, 2.0, 3.75}) {
    sharded.run_rounds(seg);
    ref.run_rounds(seg);
  }
  EXPECT_GT(ref.counters().batch_blocks, 0u);
  EXPECT_EQ(sharded.rounds(), ref.rounds());
  EXPECT_EQ(sharded.interactions(), ref.interactions());
  EXPECT_EQ(sharded.species(), ref.species());
  expect_equal_counters(sharded.counters(), ref.counters());
  EXPECT_TRUE(sharded.shard(0).silent() == ref.silent());
}

TEST(CountShardEngine, EliminationMergesToOneSurvivorAcrossShards) {
  // Locally silent is not globally silent: shards holding one X each cannot
  // react internally, but migration keeps re-dealing until the survivors
  // meet. The engine may only latch silence when no cross-shard pair could
  // change state.
  auto vars = make_var_space();
  const Protocol p = elimination_protocol(vars);
  const VarId x = *vars->find("X");
  CountShardEngine::Params params;
  params.shards = 4;
  params.migrate_every = 1;
  params.min_shard = 2;
  CountShardEngine eng(p, {{var_bit(x), 64}}, 5, params);
  ASSERT_EQ(eng.shards(), 4u);
  eng.run_rounds(20000);
  EXPECT_EQ(eng.count_matching(BoolExpr::var(x)), 1u);
  EXPECT_FALSE(eng.step());  // silent: time still advances
  EXPECT_EQ(eng.active_n(), 64u);
}

TEST(CountShardEngine, MajorityHittingTimeKSMatchesCountEngine) {
  // Distributional acceptance at alpha = 0.01: the sharded composition
  // (windowed isolation + hypergeometric re-deals) must leave the hitting
  // time of majority consensus indistinguishable from the exact
  // uniform-scheduler CountEngine.
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State b = var_bit(*vars->find("BB"));
  const std::uint64_t n = 4096;
  const auto gone = [&](const SimBackend& e) {
    return e.count_matching(Guard(BoolExpr::var(*vars->find("BB")))) == 0 ||
           e.count_matching(Guard(BoolExpr::var(*vars->find("BA")))) == 0;
  };
  (void)b;

  auto count_times = [&](std::uint64_t seed0) {
    std::vector<double> out;
    for (int t = 0; t < 80; ++t) {
      CountEngine eng(p, majority_init(*vars, n * 3 / 5, n - n * 3 / 5),
                      seed0 + t);
      const auto hit =
          static_cast<SimBackend&>(eng).run_until(gone, 1e5, 0.5);
      EXPECT_TRUE(hit.has_value());
      out.push_back(hit.value_or(1e5));
    }
    return out;
  };
  auto shard_times = [&](std::uint64_t seed0) {
    std::vector<double> out;
    for (int t = 0; t < 80; ++t) {
      CountShardEngine::Params params;
      params.shards = 4;
      params.migrate_every = 2;
      params.min_shard = 16;
      CountShardEngine eng(p, majority_init(*vars, n * 3 / 5, n - n * 3 / 5),
                           seed0 + t, params);
      const auto hit = eng.run_until(gone, 1e5, 0.5);
      EXPECT_TRUE(hit.has_value());
      out.push_back(hit.value_or(1e5));
    }
    return out;
  };
  const auto reference = count_times(5000);
  const auto sharded = shard_times(25000);
  const double d = ks_statistic(reference, sharded);
  EXPECT_LT(d, ks_critical_value(reference.size(), sharded.size(), 0.01));
}

TEST(CountShardEngine, SnapshotRoundTripReplaysBitIdentically) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const auto factory = [&]() -> std::unique_ptr<SimBackend> {
    CountShardEngine::Params params;
    params.shards = 3;
    params.migrate_every = 2;
    params.min_shard = 2;
    return std::make_unique<CountShardEngine>(
        p, majority_init(*vars, 350, 250), 9, params);
  };
  const ReplayCheckResult result = replay_check(factory, 24.0);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(CountShardEngine, RestoreRejectsDifferentShardCount) {
  // The shard count is structural (part of the determinism tuple); worker
  // threads are not. A mismatched restore must throw kConfigMismatch and
  // leave the target engine untouched.
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  CountShardEngine::Params two;
  two.shards = 2;
  two.min_shard = 2;
  CountShardEngine src(p, majority_init(*vars, 300, 212), 13, two);
  src.run_rounds(8.0);
  std::ostringstream blob;
  src.snapshot(blob);

  CountShardEngine::Params four = two;
  four.shards = 4;
  CountShardEngine dst(p, majority_init(*vars, 300, 212), 14, four);
  dst.run_rounds(3.0);
  const auto before_species = dst.species();
  const double before_rounds = dst.rounds();
  const std::uint64_t before_interactions = dst.interactions();

  std::istringstream in(blob.str());
  try {
    dst.restore(in);
    FAIL() << "restore accepted a snapshot with a different shard count";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::kConfigMismatch);
  }
  EXPECT_EQ(dst.species(), before_species);
  EXPECT_EQ(dst.rounds(), before_rounds);
  EXPECT_EQ(dst.interactions(), before_interactions);
}

TEST(CountShardEngine, RestoreOntoDifferentThreadCountSucceeds) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  CountShardEngine::Params params;
  params.shards = 2;
  params.min_shard = 2;
  CountShardEngine src(p, majority_init(*vars, 300, 212), 13, params);
  src.run_rounds(8.0);
  std::ostringstream blob;
  src.snapshot(blob);

  CountShardEngine::Params other = params;
  other.threads = 2;
  CountShardEngine dst(p, majority_init(*vars, 300, 212), 77, other);
  std::istringstream in(blob.str());
  dst.restore(in);
  EXPECT_EQ(dst.species(), src.species());
  EXPECT_EQ(dst.rounds(), src.rounds());

  src.run_rounds(10.0);
  dst.run_rounds(10.0);
  EXPECT_EQ(dst.species(), src.species());
  EXPECT_EQ(dst.interactions(), src.interactions());
}

TEST(CountShardEngine, FaultHooksForcePerInteractionPath) {
  // Batch aggregation assumes unbiased uniform pair draws, each one kept; a
  // dropout hook or SchedulerBias must keep every shard off the batch
  // sampler (batch_blocks stays zero). Shards of 2^18 agents are large
  // enough for approx_majority to batch without hooks.
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  CountShardEngine::Params params;
  params.shards = 2;
  params.min_shard = 2;
  const std::uint64_t half = std::uint64_t{1} << 18;

  {
    CountShardEngine eng(p, majority_init(*vars, half, half), 3, params);
    InjectionHook hook;
    hook.drop_interaction = [](Rng&) { return false; };
    eng.set_injection_hook(std::move(hook));
    eng.run_rounds(4.0);
    EXPECT_EQ(eng.counters().batch_blocks, 0u);
    EXPECT_GT(eng.interactions(), 0u);
  }
  {
    CountShardEngine eng(p, majority_init(*vars, half, half), 3, params);
    eng.set_scheduler_bias(
        SchedulerBias{0.5, Guard(BoolExpr::var(*vars->find("BA"))), 4});
    eng.run_rounds(4.0);
    EXPECT_EQ(eng.counters().batch_blocks, 0u);
    EXPECT_GT(eng.interactions(), 0u);
  }
  {
    // And without hooks the same configuration does batch.
    CountShardEngine eng(p, majority_init(*vars, half, half), 3, params);
    eng.run_rounds(4.0);
    EXPECT_GT(eng.counters().batch_blocks, 0u);
  }
}

}  // namespace
}  // namespace popproto
