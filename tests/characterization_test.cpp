// Trajectory pins for the engines' advance paths. Each case drives a seeded
// engine to majority consensus (the minority opinion extinct) and compares
// three observables against recorded values: the CRC32 of the engine's
// snapshot bytes, interactions(), and the bit pattern of rounds(). The
// snapshot covers the species table, RNG stream, mode/sampler state,
// time base and telemetry counters, so any drift in draw order, mode
// switching, time accounting or counter bookkeeping shows up here.
//
// The agent and count "direct" values come from the implementation in which
// CountEngine's step() and run_rounds() each carried their own mode dispatch
// and skip-ahead sampler and every engine its own run_until loop (the
// count/phase_clock/direct pins from the later engine that rebuilt its
// species index and probed the transition cache by state on every
// skip-ahead jump). The count "adaptive", count/batching, count/faults and
// count_shard values were recorded when the batch/skip sampler policy became
// the count engine's default mode. Any change that keeps seeded trajectories
// bit-identical leaves them unchanged. The faults/ values were recorded
// while FaultInjector still bound each backend through its own overload;
// the agent and batch engine rows were re-recorded, counter section only,
// when every backend began counting corrupted agents as those rewritten.
// On a mismatch the failure message prints the observed row in table form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "server/protocol_registry.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

constexpr std::uint64_t kN = std::uint64_t{1} << 12;
// Smallest power of two at which the count engine's default policy batches
// both majority protocols.
constexpr std::uint64_t kBatchingN = std::uint64_t{1} << 18;
constexpr double kHorizon = 2000.0;

struct Pin {
  std::uint32_t crc;
  std::uint64_t interactions;
  std::uint64_t rounds_bits;
};

// name -> recorded outcome.
const std::map<std::string, Pin>& pins() {
  static const std::map<std::string, Pin> table = {
      {"agent/matching/churn", {0xd5ffe12eu, 265940ull, 0x4060400000000000ull}},
      {"agent/matching/run_until", {0x4ec0cf16u, 221184ull, 0x405b000000000000ull}},
      {"agent/sequential/churn", {0x2bc31880u, 191913ull, 0x4047800869222a50ull}},
      {"agent/sequential/run_steps", {0x0f38ea08u, 222102ull, 0x404b1cb000000000ull}},
      {"agent/sequential/run_until", {0x810d6566u, 204800ull, 0x4049000000000000ull}},
      {"count/batching/approx_majority/1", {0x5df707a0u, 18087936ull, 0x4051400000000000ull}},
      {"count/batching/approx_majority/2", {0x23082e5au, 17825792ull, 0x4051000000000000ull}},
      {"count/batching/dv12_majority/1", {0xa6e9f606u, 90177536ull, 0x4075800000000000ull}},
      {"count/batching/dv12_majority/2", {0xcd244c34u, 88866816ull, 0x4075300000000000ull}},
      {"count/faults/approx_majority", {0x651dbdf3u, 205616ull, 0x4049800000000000ull}},
      {"count/faults/churn/approx_majority", {0x5e208154u, 18140372ull, 0x4051800040000004ull}},
      {"count/faults/churn/dv12_majority", {0xbe7273f4u, 97045713ull, 0x407730000471c69eull}},
      {"count/faults/dv12_majority", {0x6365b6bau, 1049392ull, 0x4070100000000000ull}},
      // CRC of the species table, not of the snapshot (see the test).
      {"count/past_cap/adaptive", {0x3f25d186u, 212ull, 0x3fc8ab498ab498abull}},
      {"count/past_cap/direct", {0x59d35b27u, 2200ull, 0x4000000000000060ull}},
      {"count/phase_clock/adaptive/1", {0xe503c536u, 49152ull, 0x4028000000000000ull}},
      {"count/phase_clock/adaptive/2", {0x23300a6du, 49152ull, 0x4028000000000000ull}},
      {"count/phase_clock/direct/1", {0xd7c7be2du, 49152ull, 0x4028000000000000ull}},
      {"count/phase_clock/direct/2", {0x4c3184aeu, 49152ull, 0x4028000000000000ull}},
      {"count/run_rounds/approx_majority/adaptive/1", {0xc8cf7400u, 233472ull, 0x404c800000000000ull}},
      {"count/run_rounds/approx_majority/adaptive/2", {0x57bdc423u, 196608ull, 0x4048000000000000ull}},
      {"count/run_rounds/approx_majority/direct/1", {0xf5c0596cu, 233472ull, 0x404c800000000000ull}},
      {"count/run_rounds/approx_majority/direct/2", {0xa34f2584u, 208896ull, 0x4049800000000000ull}},
      {"count/run_rounds/dv12_majority/adaptive/1", {0xdaa961b7u, 1269760ull, 0x4073600000000000ull}},
      {"count/run_rounds/dv12_majority/adaptive/2", {0x528ada7fu, 1052672ull, 0x4070100000000000ull}},
      {"count/run_rounds/dv12_majority/direct/1", {0xad5b5bf0u, 921600ull, 0x406c200000000000ull}},
      {"count/run_rounds/dv12_majority/direct/2", {0xe06632bdu, 1196032ull, 0x4072400000000000ull}},
      {"count/run_until/approx_majority/adaptive/1", {0x118524acu, 215040ull, 0x404a400000000000ull}},
      {"count/run_until/approx_majority/adaptive/2", {0x8d931c4cu, 225280ull, 0x404b800000000000ull}},
      {"count/run_until/approx_majority/direct/1", {0x71522125u, 235520ull, 0x404cc00000000000ull}},
      {"count/run_until/approx_majority/direct/2", {0xbd1dae77u, 215040ull, 0x404a400000000000ull}},
      {"count/run_until/dv12_majority/adaptive/1", {0x2cff1468u, 1177600ull, 0x4071f80000000000ull}},
      {"count/run_until/dv12_majority/adaptive/2", {0xb9404a25u, 1269760ull, 0x4073600000000000ull}},
      {"count/run_until/dv12_majority/direct/1", {0xad5b5bf0u, 921600ull, 0x406c200000000000ull}},
      {"count/run_until/dv12_majority/direct/2", {0x660fe88du, 1198080ull, 0x4072480000000000ull}},
      {"count_shard/approx_majority/1", {0x1e818137u, 81788928ull, 0x4053800000000000ull}},
      {"count_shard/approx_majority/2", {0x61d2e666u, 71303168ull, 0x4051000000000000ull}},
      {"count_shard/dv12_majority/1", {0x4a87d95bu, 417333248ull, 0x4078e00000000000ull}},
      {"count_shard/dv12_majority/2", {0x4692db5du, 411041792ull, 0x4078800000000000ull}},
      // The /injector rows pin the injector snapshot's CRC, the applied-event
      // log's length and the agents its events touched (see the test).
      {"faults/agent/matching", {0xc16a33b1u, 30918ull, 0x4030000000000000ull}},
      {"faults/agent/matching/injector", {0xa8dc0223u, 10ull, 0x000000000000048dull}},
      {"faults/agent/sequential", {0x0b5022c7u, 61843ull, 0x4030007024befe27ull}},
      {"faults/agent/sequential/injector", {0xa8dc0223u, 10ull, 0x000000000000048dull}},
      {"faults/batch/t2", {0xa5035114u, 61721ull, 0x4030000000000000ull}},
      {"faults/batch/t2/injector", {0x0d362674u, 12ull, 0x00000000000008dcull}},
      {"faults/count/262144", {0xc54d914eu, 3958528ull, 0x40300000000203ceull}},
      {"faults/count/262144/injector", {0xa7d88975u, 9ull, 0x0000000000010063ull}},
      {"faults/count/4096", {0x8146b05cu, 61838ull, 0x4030002345b7d0caull}},
      {"faults/count/4096/injector", {0xb07bace2u, 10ull, 0x000000000000048dull}},
      {"faults/count_shard/4", {0x90796febu, 3958268ull, 0x4030000000000000ull}},
      {"faults/count_shard/4/injector", {0x995b9b75u, 11ull, 0x00000000000100b3ull}},
  };
  return table;
}

void expect_pin(const std::string& name, const Pin& got) {
  char row[160];
  std::snprintf(row, sizeof row, "{\"%s\", {0x%08xu, %lluull, 0x%016llxull}},",
                name.c_str(), got.crc,
                static_cast<unsigned long long>(got.interactions),
                static_cast<unsigned long long>(got.rounds_bits));
  const auto it = pins().find(name);
  ASSERT_NE(it, pins().end()) << "no pin recorded; observed " << row;
  EXPECT_EQ(got.crc, it->second.crc) << row;
  EXPECT_EQ(got.interactions, it->second.interactions) << row;
  EXPECT_EQ(got.rounds_bits, it->second.rounds_bits) << row;
}

void expect_pinned(const std::string& name, const SimBackend& b) {
  std::ostringstream out;
  b.snapshot(out);
  expect_pin(name, Pin{crc32(out.str()), b.interactions(),
                       std::bit_cast<std::uint64_t>(b.rounds())});
}

struct Case {
  std::unique_ptr<ProtocolInstance> inst;
  Guard minority;
};

Case make_case(const char* protocol, std::uint64_t n = kN) {
  Case c;
  c.inst = make_protocol_instance(protocol, n);
  const char* minority =
      std::string(protocol) == "approx_majority" ? "BB" : "MB";
  c.minority = Guard(BoolExpr::var(*c.inst->vars->find(minority)));
  return c;
}

std::vector<State> counts_to_states(
    const std::vector<std::pair<State, std::uint64_t>>& counts) {
  std::vector<State> states;
  for (const auto& [s, c] : counts) states.insert(states.end(), c, s);
  return states;
}

const char* mode_name(CountEngineMode m) {
  return m == CountEngineMode::kDirect ? "direct" : "adaptive";
}

constexpr CountEngineMode kModes[] = {CountEngineMode::kDirect,
                                      CountEngineMode::kAdaptive};
constexpr const char* kProtocols[] = {"approx_majority", "dv12_majority"};
constexpr std::uint64_t kSeeds[] = {1, 2};

// Whole rounds until the minority is extinct (and, with a fault plan, until
// the plan has run out).
void run_rounds_to_consensus(SimBackend& b, const Guard& minority,
                             double not_before = 0.0) {
  while ((b.count_matching(minority) > 0 || b.rounds() < not_before) &&
         b.rounds() < kHorizon)
    b.run_rounds(1.0);
}

TEST(Characterization, CountEngineRunRounds) {
  for (const char* proto : kProtocols)
    for (const CountEngineMode mode : kModes)
      for (const std::uint64_t seed : kSeeds) {
        const Case c = make_case(proto);
        CountEngine eng(*c.inst->protocol, c.inst->initial_counts, seed, mode);
        run_rounds_to_consensus(eng, c.minority);
        EXPECT_EQ(eng.count_matching(c.minority), 0u);
        expect_pinned(std::string("count/run_rounds/") + proto + "/" +
                          mode_name(mode) + "/" + std::to_string(seed),
                      eng);
      }
}

TEST(Characterization, CountEngineRunUntil) {
  for (const char* proto : kProtocols)
    for (const CountEngineMode mode : kModes)
      for (const std::uint64_t seed : kSeeds) {
        const Case c = make_case(proto);
        CountEngine eng(*c.inst->protocol, c.inst->initial_counts, seed, mode);
        const auto t = eng.run_until(
            [&](const CountEngine& e) {
              return e.count_matching(c.minority) == 0;
            },
            kHorizon, /*check_interval=*/2.5);
        ASSERT_TRUE(t.has_value());
        expect_pinned(std::string("count/run_until/") + proto + "/" +
                          mode_name(mode) + "/" + std::to_string(seed),
                      eng);
      }
}

// At n = 2^12 the default policy only skips (see CountEngineRunRounds); at
// 2^18 it batches while the change weight is high and skips once the
// minority thins out, so these pins cover batch blocks, the hand-off and
// the skip-ahead tail in one trajectory.
TEST(Characterization, CountEngineBatching) {
  for (const char* proto : kProtocols)
    for (const std::uint64_t seed : kSeeds) {
      const Case c = make_case(proto, kBatchingN);
      CountEngine eng(*c.inst->protocol, c.inst->initial_counts, seed);
      run_rounds_to_consensus(eng, c.minority);
      EXPECT_GT(eng.counters().batch_blocks, 0u);
      EXPECT_GT(eng.counters().skip_jumps, 0u);
      expect_pinned(std::string("count/batching/") + proto + "/" +
                        std::to_string(seed),
                    eng);
    }
}

TEST(Characterization, CountEngineBatchUnderFaults) {
  // Crash a tenth of the population, then rejoin everyone: at n = 2^18 the
  // engine batches, with every batch truncated at the fault rounds.
  FaultPlan churn;
  churn.crash_at(3.0, CrashSpec{0.1, 0})
      .rejoin_at(11.0, RejoinSpec{0.0, 0, true});
  // The same plus an interaction dropout window. An installed dropout hook
  // rules out batching for the whole run (the injector installs it for the
  // plan, not for the window), so this one runs skip-ahead at n = 2^12.
  FaultPlan dropout;
  dropout.crash_at(3.0, CrashSpec{0.1, 0})
      .dropout_window(4.0, 9.0, 0.3)
      .rejoin_at(11.0, RejoinSpec{0.0, 0, true});
  for (const char* proto : kProtocols) {
    const Case large = make_case(proto, kBatchingN);
    CountEngine eng(*large.inst->protocol, large.inst->initial_counts,
                    /*seed=*/1);
    FaultInjector inj(churn, /*seed=*/5);
    inj.attach(eng);
    run_rounds_to_consensus(eng, large.minority, /*not_before=*/12.0);
    EXPECT_EQ(eng.crashed_count(), 0u);
    EXPECT_GT(eng.counters().batch_blocks, 0u);
    expect_pinned(std::string("count/faults/churn/") + proto, eng);
  }
  for (const char* proto : kProtocols) {
    const Case c = make_case(proto);
    CountEngine eng(*c.inst->protocol, c.inst->initial_counts, /*seed=*/1);
    FaultInjector inj(dropout, /*seed=*/5);
    inj.attach(eng);
    run_rounds_to_consensus(eng, c.minority, /*not_before=*/12.0);
    EXPECT_EQ(eng.crashed_count(), 0u);
    EXPECT_GT(eng.counters().dropped_interactions, 0u);
    expect_pinned(std::string("count/faults/") + proto, eng);
  }
}

// The phase clock grows its species table mid-run (15-18 live species out of
// a handful at the start), so these pins cover slot appends, extinctions and
// the compactions between them in every mode.
TEST(Characterization, CountEnginePhaseClock) {
  for (const CountEngineMode mode : kModes)
    for (const std::uint64_t seed : kSeeds) {
      const auto inst = make_protocol_instance("phase_clock", kN);
      CountEngine eng(*inst->protocol, inst->initial_counts, seed, mode);
      for (int r = 0; r < 12; ++r) eng.run_rounds(1.0);
      expect_pinned(std::string("count/phase_clock/") + mode_name(mode) + "/" +
                        std::to_string(seed),
                    eng);
    }
}

// A snapshot taken mid-run, restored into an engine that has already
// run another seed from the opinions listed in the other order (so its
// species table is ordered differently and everything it derived from that
// table is stale), continues exactly like the uninterrupted run.
TEST(Characterization, CountEngineRestoreMidSkip) {
  const Case c = make_case("dv12_majority");
  std::ostringstream mid;
  {
    CountEngine eng(*c.inst->protocol, c.inst->initial_counts, /*seed=*/1);
    for (int r = 0; r < 40; ++r) eng.run_rounds(1.0);
    ASSERT_GT(eng.count_matching(c.minority), 0u);
    eng.snapshot(mid);
  }
  const std::vector<std::pair<State, std::uint64_t>> reversed(
      c.inst->initial_counts.rbegin(), c.inst->initial_counts.rend());
  CountEngine eng(*c.inst->protocol, reversed, /*seed=*/2);
  for (int r = 0; r < 60; ++r) eng.run_rounds(1.0);
  std::istringstream in(mid.str());
  eng.restore(in);
  run_rounds_to_consensus(eng, c.minority);
  expect_pinned("count/run_rounds/dv12_majority/adaptive/1", eng);
}

// Past the transition cache's state cap (1024 interned states) the count
// engine resolves pairs by value and finds species slots by scanning. An
// 11-bit per-bit voter model started from 1100 distinct states puts the
// engine there from the start in every mode. At n = 1100 the default mode
// takes skip-ahead jumps, each over a 1100^2-entry event list, so it runs 40
// of them instead of two rounds. Which states got interned
// first is cache bookkeeping (it moves cache_builds in the snapshot's
// counter section), not trajectory, so these pins cover interactions,
// rounds and the CRC32 of the species table instead of the snapshot bytes.
TEST(Characterization, CountEnginePastCacheCap) {
  constexpr int kBits = 11;
  constexpr std::uint64_t kSpecies = 1100;
  auto vars = make_var_space();
  std::vector<Rule> rules;
  std::vector<State> bit(kBits);
  for (int k = 0; k < kBits; ++k) {
    const BoolExpr b = BoolExpr::var(vars->intern("B" + std::to_string(k)));
    bit[k] = var_bit(*vars->find("B" + std::to_string(k)));
    rules.push_back(make_rule(b, !b, !b, BoolExpr::any()));
    rules.push_back(make_rule(!b, b, b, BoolExpr::any()));
  }
  Protocol proto("bit_voter", vars);
  proto.add_thread("T", std::move(rules));
  std::vector<std::pair<State, std::uint64_t>> initial;
  for (std::uint64_t v = 0; v < kSpecies; ++v) {
    State s = 0;
    for (int k = 0; k < kBits; ++k)
      if (v >> k & 1) s |= bit[k];
    initial.emplace_back(s, 1);
  }
  for (const CountEngineMode mode : kModes) {
    CountEngine eng(proto, initial, /*seed=*/1, mode);
    if (mode == CountEngineMode::kAdaptive) {
      for (int i = 0; i < 40; ++i) eng.step();
    } else {
      eng.run_rounds(2.0);
    }
    EXPECT_TRUE(eng.transition_cache().cap_reached());
    std::string table;
    BinWriter w(table);
    for (const auto& [st, c] : eng.species()) {
      w.u64(st);
      w.u64(c);
    }
    expect_pin(std::string("count/past_cap/") + mode_name(mode),
               Pin{crc32(table), eng.interactions(),
                   std::bit_cast<std::uint64_t>(eng.rounds())});
  }
}

// Four shards of kBatchingN agents each, so the shards batch as well.
TEST(Characterization, CountShardEngine) {
  for (const char* proto : kProtocols)
    for (const std::uint64_t seed : kSeeds) {
      const Case c = make_case(proto, 4 * kBatchingN);
      CountShardEngine::Params params;
      params.shards = 4;
      params.threads = 1;
      CountShardEngine eng(*c.inst->protocol, c.inst->initial_counts, seed,
                           params);
      ASSERT_EQ(eng.shards(), 4u);
      run_rounds_to_consensus(eng, c.minority);
      EXPECT_EQ(eng.count_matching(c.minority), 0u);
      EXPECT_GT(eng.counters().batch_blocks, 0u);
      expect_pinned(std::string("count_shard/") + proto + "/" +
                        std::to_string(seed),
                    eng);
    }
}

TEST(Characterization, AgentEngine) {
  const Case c = make_case("approx_majority");
  const std::vector<State> init = counts_to_states(c.inst->initial_counts);
  const VarId bb = *c.inst->vars->find("BB");
  for (const SchedulerKind sched :
       {SchedulerKind::kSequential, SchedulerKind::kRandomMatching}) {
    const std::string tag =
        sched == SchedulerKind::kSequential ? "sequential" : "matching";
    {
      // Crash 200 agents for a few rounds, then rejoin half stale and half
      // with a fresh (majority) state.
      Engine eng(*c.inst->protocol, init, /*seed=*/3, sched);
      eng.run_rounds(2.0);
      for (std::size_t i = 0; i < 200; ++i) eng.crash_agent(7 * i + 1);
      eng.run_rounds(3.0);
      for (std::size_t i = 0; i < 200; ++i) {
        if (i % 2 == 0)
          eng.rejoin_agent(7 * i + 1);
        else
          eng.rejoin_agent(7 * i + 1, init.front());
      }
      run_rounds_to_consensus(eng, c.minority);
      expect_pinned("agent/" + tag + "/churn", eng);
    }
    {
      Engine eng(*c.inst->protocol, init, /*seed=*/4, sched);
      const auto t = eng.run_until(
          [&](const AgentPopulation& pop) { return pop.count_var(bb) == 0; },
          kHorizon, /*check_interval=*/2.5);
      ASSERT_TRUE(t.has_value());
      expect_pinned("agent/" + tag + "/run_until", eng);
    }
  }
  // The pipelined run_steps loop of the sequential scheduler.
  Engine eng(*c.inst->protocol, init, /*seed=*/5);
  while (eng.count_matching(c.minority) > 0 && eng.rounds() < kHorizon)
    eng.run_steps(kN + 17);
  expect_pinned("agent/sequential/run_steps", eng);
}

// One plan with every fault kind and both trigger forms, replayed through
// FaultInjector::attach on every backend for 16 whole rounds. Each backend
// pins two rows: the engine (snapshot CRC, interactions, rounds bits) and
// the injector (the CRC of its snapshot, which carries its RNG stream,
// firing state and applied-event log; the log's length; the agents its
// events touched in total).
TEST(Characterization, FaultInjectorEveryBackend) {
  using Make = std::function<std::unique_ptr<SimBackend>(const Case&)>;
  const auto agent = [](SchedulerKind sched) -> Make {
    return [sched](const Case& c) {
      return std::make_unique<Engine>(
          *c.inst->protocol, counts_to_states(c.inst->initial_counts),
          /*seed=*/1, sched);
    };
  };
  const Make count = [](const Case& c) {
    return std::make_unique<CountEngine>(*c.inst->protocol,
                                         c.inst->initial_counts, /*seed=*/1);
  };
  struct Backend {
    std::string name;
    std::uint64_t n;
    Make make;
  };
  const std::vector<Backend> backends = {
      {"agent/sequential", kN, agent(SchedulerKind::kSequential)},
      {"agent/matching", kN, agent(SchedulerKind::kRandomMatching)},
      {"batch/t2", 2 * kN,
       [](const Case& c) {
         BatchEngine::Params params;
         params.threads = 2;
         return std::make_unique<BatchEngine>(
             *c.inst->protocol, counts_to_states(c.inst->initial_counts),
             /*seed=*/1, params);
       }},
      {"count/" + std::to_string(kN), kN, count},
      {"count/" + std::to_string(kBatchingN), kBatchingN, count},
      {"count_shard/4", kBatchingN,
       [](const Case& c) {
         CountShardEngine::Params params;
         params.shards = 4;
         params.threads = 1;
         return std::make_unique<CountShardEngine>(
             *c.inst->protocol, c.inst->initial_counts, /*seed=*/1, params);
       }},
  };
  for (const Backend& b : backends) {
    const Case c = make_case("approx_majority", b.n);
    const State ba = var_bit(*c.inst->vars->find("BA"));
    const State bb = var_bit(*c.inst->vars->find("BB"));
    CorruptSpec random;
    random.fraction = 0.05;
    random.mode = CorruptMode::kRandom;
    random.palette = {ba, bb, 0};
    CorruptSpec spread;
    spread.count = 100;
    spread.mode = CorruptMode::kSpread;
    spread.palette = {bb, 0};
    SchedulerBias bias;
    bias.epsilon = 0.5;
    bias.prefer = Guard(BoolExpr::var(*c.inst->vars->find("BB")));
    FaultPlan plan;
    plan.corrupt_at(2.0, random)
        .crash_at(3.0, CrashSpec{0.1, 0})
        .crash_bernoulli(0.5, 4.0, 8.0, CrashSpec{0.0, 20})
        .corrupt_at(5.0, spread)
        .dropout_window(6.0, 10.0, 0.2)
        .bias_window(7.0, 11.0, bias)
        .rejoin_at(9.0, RejoinSpec{0.0, 50, false})
        .rejoin_at(12.0, RejoinSpec{0.0, 0, true});

    const auto eng = b.make(c);
    FaultInjector inj(plan, /*seed=*/5);
    inj.attach(*eng);
    for (int r = 0; r < 16; ++r) eng->run_rounds(1.0);
    EXPECT_EQ(eng->active_n(), b.n) << b.name;
    expect_pinned("faults/" + b.name, *eng);

    std::ostringstream out;
    inj.snapshot(out);
    std::uint64_t touched = 0;
    for (const FaultInjector::Applied& a : inj.log()) touched += a.affected;
    expect_pin("faults/" + b.name + "/injector",
               Pin{crc32(out.str()), inj.log().size(), touched});
  }
}

}  // namespace
}  // namespace popproto
