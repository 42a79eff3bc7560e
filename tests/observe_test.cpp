#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/recovery.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "faults/injector.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "observe/profile.hpp"
#include "observe/telemetry.hpp"
#include "protocols/baselines.hpp"
#include "reference_engine.hpp"
#include "support/bench_io.hpp"
#include "support/rng.hpp"

namespace popproto {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// EventTrace: ring semantics.
// ---------------------------------------------------------------------------

TEST(EventTrace, RetainsEverythingBelowCapacity) {
  EventTrace trace(8);
  trace.push(EventKind::kPhaseTick, 1.0, 3.0);
  trace.push(EventKind::kConvergenceDetected, 2.5);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kPhaseTick);
  EXPECT_DOUBLE_EQ(events[0].round, 1.0);
  EXPECT_DOUBLE_EQ(events[0].value, 3.0);
  EXPECT_EQ(events[1].kind, EventKind::kConvergenceDetected);
  EXPECT_EQ(trace.total_pushed(), 2u);
  EXPECT_EQ(trace.overwritten(), 0u);
}

TEST(EventTrace, OverwritesOldestOnceFull) {
  EventTrace trace(4);
  for (int i = 0; i < 7; ++i)
    trace.push(EventKind::kCustom, static_cast<double>(i));
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_pushed(), 7u);
  EXPECT_EQ(trace.overwritten(), 3u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first window onto the most recent pushes: rounds 3, 4, 5, 6.
  for (int i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(events[i].round, static_cast<double>(i + 3));
}

TEST(EventTrace, ClearKeepsCapacity) {
  EventTrace trace(4);
  for (int i = 0; i < 6; ++i) trace.push(EventKind::kCustom, 0.0);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_pushed(), 0u);
  EXPECT_EQ(trace.capacity(), 4u);
  trace.push(EventKind::kPhaseTick, 1.0);
  EXPECT_EQ(trace.events().size(), 1u);
}

TEST(EventTrace, KindNamesAreStable) {
  EXPECT_STREQ(event_kind_name(EventKind::kConvergenceDetected),
               "convergence_detected");
  EXPECT_STREQ(event_kind_name(EventKind::kPhaseTick), "phase_tick");
  EXPECT_STREQ(event_kind_name(EventKind::kFaultInjected), "fault_injected");
  EXPECT_STREQ(event_kind_name(EventKind::kRecoveryComplete),
               "recovery_complete");
}

// ---------------------------------------------------------------------------
// Engine counters: cheap tier, cached engine vs uncached reference.
// ---------------------------------------------------------------------------

TEST(EngineCounters, CachedAndUncachedAgreeOnEffectiveSteps) {
  // Same protocol, same seed: the memoized engine and the uncached
  // reference stepper follow bit-identical trajectories, so the cheap-tier
  // counters must agree on everything the cache cannot change.
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  std::vector<State> init(512);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = i < 300 ? a : b;
  Engine eng(p, init, /*seed=*/99);
  ReferenceEngine ref(p, init, /*seed=*/99);
  eng.run_steps(20000);
  for (int s = 0; s < 20000; ++s) ref.step();
  const EngineCounters cached = eng.counters();
  EXPECT_EQ(cached.interactions, 20000u);
  EXPECT_EQ(ref.interactions(), 20000u);
  EXPECT_EQ(cached.effective_steps, ref.effective());
  EXPECT_GT(cached.effective_steps, 0u);
  EXPECT_LT(cached.effective_steps, cached.interactions);
  EXPECT_EQ(cached.noop_steps() + cached.effective_steps,
            cached.interactions);
  // The engine builds pair distributions as it meets new pairs.
  EXPECT_GT(cached.cache_builds, 0u);
}

TEST(EngineCounters, RunUntilPushesConvergenceEvent) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  std::vector<State> init(256);
  for (std::size_t i = 0; i < init.size(); ++i) init[i] = i < 200 ? a : b;
  Engine eng(p, std::move(init), /*seed=*/5);
  EventTrace trace;
  eng.set_event_trace(&trace);
  const VarId ba = *vars->find("BA");
  const VarId bb = *vars->find("BB");
  const auto t = eng.run_until(
      [&](const AgentPopulation& pop) {
        return pop.count_var(ba) == 0 || pop.count_var(bb) == 0;
      },
      /*max_rounds=*/500.0);
  ASSERT_TRUE(t.has_value());
  bool saw = false;
  for (const auto& e : trace.events())
    if (e.kind == EventKind::kConvergenceDetected) {
      saw = true;
      EXPECT_DOUBLE_EQ(e.round, *t);
    }
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// CountEngine counters: skip accounting and churn events.
// ---------------------------------------------------------------------------

TEST(CountEngineCounters, SkipJumpsAccountForSkippedInteractions) {
  // Sparse elimination: skip-ahead jumps over long no-op stretches, and the
  // counters must balance: interactions >= effective + skipped.
  auto vars = make_var_space();
  const VarId x = vars->intern("X");
  Protocol p("elim", vars);
  p.add_thread("T", {make_rule(BoolExpr::var(x), BoolExpr::var(x),
                               !BoolExpr::var(x), BoolExpr::any())});
  CountEngine eng(p, {{var_bit(x), 16}, {0, (1 << 14) - 16}}, /*seed=*/3);
  while (eng.count_state(var_bit(x)) > 1) eng.step();
  const EngineCounters c = eng.counters();
  EXPECT_EQ(c.interactions, eng.interactions());
  EXPECT_EQ(c.effective_steps, eng.effective_interactions());
  EXPECT_GT(c.skip_jumps, 0u);
  EXPECT_GT(c.skipped_interactions, 0u);
  EXPECT_GE(c.interactions, c.effective_steps + c.skipped_interactions);
  EXPECT_EQ(c.noop_steps(),
            c.interactions - c.effective_steps - c.skipped_interactions);
}

TEST(CountEngineCounters, ChurnAndCorruptionAreCountedAndTraced) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  CountEngine eng(p, {{a, 500}, {b, 500}}, /*seed=*/11,
                  CountEngineMode::kDirect);
  EventTrace trace;
  eng.set_event_trace(&trace);
  Rng rng(17);
  const std::uint64_t crashed = eng.crash_random(100, rng);
  const std::uint64_t rejoined = eng.rejoin_all(rng);
  // Flip every victim so corrupted_agents (which counts only rewrites that
  // changed a state) equals the number of agents drawn.
  const std::uint64_t corrupted = eng.mutate_random_agents(
      50, rng, [&](State s, std::uint64_t) { return s == a ? b : a; });
  const EngineCounters c = eng.counters();
  EXPECT_EQ(c.crash_events, crashed);
  EXPECT_EQ(c.rejoin_events, rejoined);
  EXPECT_EQ(c.corrupted_agents, corrupted);
  double crash_v = 0.0, rejoin_v = 0.0, fault_v = 0.0;
  for (const auto& e : trace.events()) {
    if (e.kind == EventKind::kChurnCrash) crash_v += e.value;
    if (e.kind == EventKind::kChurnRejoin) rejoin_v += e.value;
    if (e.kind == EventKind::kFaultInjected) fault_v += e.value;
  }
  EXPECT_DOUBLE_EQ(crash_v, static_cast<double>(crashed));
  EXPECT_DOUBLE_EQ(rejoin_v, static_cast<double>(rejoined));
  EXPECT_DOUBLE_EQ(fault_v, static_cast<double>(corrupted));
}

// ---------------------------------------------------------------------------
// Corruption accounting, the same on every backend: corrupted_agents counts
// the agents a corruption event rewrote (a victim already in the target
// state is drawn but not rewritten), and each event pushes one
// kFaultInjected carrying that number. The injector's log keeps the number
// drawn.
// ---------------------------------------------------------------------------

using CountsBackend = std::function<std::unique_ptr<SimBackend>(
    const Protocol&, const std::vector<std::pair<State, std::uint64_t>>&)>;

std::vector<State> expand(
    const std::vector<std::pair<State, std::uint64_t>>& counts) {
  std::vector<State> states;
  for (const auto& [s, c] : counts) states.insert(states.end(), c, s);
  return states;
}

void expect_corruption_counts_rewritten(const CountsBackend& make) {
  auto vars = make_var_space();
  const Protocol p = make_approximate_majority_protocol(vars);
  const State a = var_bit(*vars->find("BA"));
  const State b = var_bit(*vars->find("BB"));
  const auto eng = make(p, {{a, 6144}, {b, 2048}});
  EventTrace trace;
  eng->set_event_trace(&trace);
  // Every victim is set to `a`: only those drawn from the 2048 `b` agents
  // change state. corrupt_at(0) fires inside attach, before any interaction.
  CorruptSpec to_a;
  to_a.count = 1000;
  to_a.fixed_state = a;
  FaultPlan plan;
  plan.corrupt_at(0.0, to_a);
  FaultInjector inj(plan, /*seed=*/9);
  const Guard is_b(BoolExpr::var(*vars->find("BB")));
  inj.attach(*eng);
  const std::uint64_t rewritten = 2048 - eng->count_matching(is_b);
  ASSERT_GT(rewritten, 0u);
  ASSERT_LT(rewritten, 1000u);
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].affected, 1000u);
  EXPECT_EQ(eng->counters().corrupted_agents, rewritten);
  std::vector<double> injected;
  for (const auto& e : trace.events())
    if (e.kind == EventKind::kFaultInjected) injected.push_back(e.value);
  ASSERT_EQ(injected.size(), 1u);
  EXPECT_DOUBLE_EQ(injected[0], static_cast<double>(rewritten));
}

TEST(CorruptionCounters, AgentCountsRewrittenAgents) {
  expect_corruption_counts_rewritten([](const Protocol& p, const auto& c) {
    return std::make_unique<Engine>(p, expand(c), /*seed=*/3);
  });
}

TEST(CorruptionCounters, BatchCountsRewrittenAgents) {
  expect_corruption_counts_rewritten([](const Protocol& p, const auto& c) {
    BatchEngine::Params params;
    params.threads = 2;
    return std::make_unique<BatchEngine>(p, expand(c), /*seed=*/3, params);
  });
}

TEST(CorruptionCounters, CountCountsRewrittenAgents) {
  expect_corruption_counts_rewritten([](const Protocol& p, const auto& c) {
    return std::make_unique<CountEngine>(p, c, /*seed=*/3);
  });
}

TEST(CorruptionCounters, CountShardCountsRewrittenAgents) {
  expect_corruption_counts_rewritten([](const Protocol& p, const auto& c) {
    CountShardEngine::Params params;
    params.shards = 4;
    params.threads = 1;
    return std::make_unique<CountShardEngine>(p, c, /*seed=*/3, params);
  });
}

// ---------------------------------------------------------------------------
// RecoveryProbe event mirroring.
// ---------------------------------------------------------------------------

TEST(RecoveryProbe, MirrorsLifecycleIntoTrace) {
  EventTrace trace;
  RecoveryProbe probe(/*stable_for=*/0.0);
  probe.set_event_trace(&trace);
  probe.on_fault(10.0);
  probe.observe(11.0, false);
  probe.observe(12.0, true);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kFaultInjected);
  EXPECT_DOUBLE_EQ(events[0].round, 10.0);
  EXPECT_EQ(events[1].kind, EventKind::kViolationObserved);
  EXPECT_DOUBLE_EQ(events[1].round, 11.0);
  EXPECT_DOUBLE_EQ(events[1].value, 1.0);  // fault-to-violation delay
  EXPECT_EQ(events[2].kind, EventKind::kRecoveryComplete);
  EXPECT_DOUBLE_EQ(events[2].round, 12.0);
  EXPECT_DOUBLE_EQ(events[2].value, 2.0);  // recovery time
}

// ---------------------------------------------------------------------------
// Profiler registry (always compiled; scopes only time under
// POPPROTO_PROFILE).
// ---------------------------------------------------------------------------

TEST(Profiler, AggregatesAndResets) {
  Profiler::instance().reset();
  Profiler::instance().add("test/a", 0.5);
  Profiler::instance().add("test/a", 0.25);
  Profiler::instance().add("test/b", 0.1);
  const auto snap = Profiler::instance().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Sorted by descending total time.
  EXPECT_EQ(snap[0].name, "test/a");
  EXPECT_EQ(snap[0].calls, 2u);
  EXPECT_DOUBLE_EQ(snap[0].seconds, 0.75);
  EXPECT_EQ(snap[1].name, "test/b");
  Profiler::instance().reset();
  EXPECT_TRUE(Profiler::instance().snapshot().empty());
}

TEST(Profiler, DisabledScopesCostNothingAndRecordNothing) {
  Profiler::instance().reset();
  {
    POPPROTO_PROFILE_SCOPE("test/scope");
  }
  if (!Profiler::compiled_in())
    EXPECT_TRUE(Profiler::instance().snapshot().empty());
  else
    EXPECT_EQ(Profiler::instance().snapshot().size(), 1u);
  Profiler::instance().reset();
}

// ---------------------------------------------------------------------------
// Telemetry exporter.
// ---------------------------------------------------------------------------

TEST(Telemetry, WritesSchemaConformingJson) {
  Telemetry telemetry("unit_suite");
  telemetry.add_counter("plain", 3.0);
  telemetry.add_counter("quo\"ted", 1.5);
  EngineCounters c;
  c.interactions = 10;
  c.effective_steps = 4;
  telemetry.add_counters(c, "eng.");
  EventTrace trace(4);
  trace.push(EventKind::kPhaseTick, 2.0, 7.0);
  telemetry.add_events(trace);

  const std::string path = testing::TempDir() + "observe_telemetry_test.json";
  ASSERT_TRUE(telemetry.write_json(path));
  const std::string json = read_file(path);
  std::remove(path.c_str());

  EXPECT_NE(json.find("\"suite\": \"unit_suite\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"plain\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"quo\\\"ted\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"eng.interactions\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"eng.noop_steps\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"phase_tick\""), std::string::npos);
  EXPECT_NE(json.find("\"events_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
}

TEST(Telemetry, WritesCsvCounterRows) {
  Telemetry telemetry("csv_suite");
  telemetry.add_counter("alpha", 1.0);
  telemetry.add_counter("with,comma", 2.0);
  const std::string path = testing::TempDir() + "observe_telemetry_test.csv";
  ASSERT_TRUE(telemetry.write_csv(path));
  const std::string csv = read_file(path);
  std::remove(path.c_str());
  EXPECT_NE(csv.find("key,value"), std::string::npos);
  EXPECT_NE(csv.find("alpha,1"), std::string::npos);
  EXPECT_NE(csv.find("\"with,comma\",2"), std::string::npos);
}

TEST(Telemetry, PathHonorsEnvOverride) {
  // No override set: the relative fallback is anchored to the repo root
  // (same rule as BENCH_*.json — the trajectory must not land in whatever
  // directory the binary runs from), and the env override wins verbatim.
  unsetenv("POPPROTO_TELEMETRY_OUT");
  EXPECT_EQ(telemetry_json_path("TELEMETRY_x.json"),
            anchor_to_repo_root("TELEMETRY_x.json"));
  const std::string anchored = telemetry_json_path("TELEMETRY_x.json");
  EXPECT_EQ(anchored.substr(anchored.size() - 17), "/TELEMETRY_x.json");
  setenv("POPPROTO_TELEMETRY_OUT", "/tmp/override.json", 1);
  EXPECT_EQ(telemetry_json_path("TELEMETRY_x.json"), "/tmp/override.json");
  unsetenv("POPPROTO_TELEMETRY_OUT");
}

}  // namespace
}  // namespace popproto
