// Cross-substrate equivalence: the agent-based Engine and the count-based
// CountEngine simulate the same stochastic process; the typed OscillatorSim
// matches the systematic semantics of the bitmask encoding up to the known
// rule-dilution factor. These tests pin the statistical agreement that all
// experiment results rest on.
#include <gtest/gtest.h>

#include <cmath>

#include "clocks/oscillator.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "protocols/baselines.hpp"

namespace popproto {
namespace {

struct ProcessCase {
  const char* name;
  // Builds the protocol, the initial agent states, the equivalent count
  // configuration, and the observable to compare.
  Protocol (*make)(VarSpacePtr);
  std::vector<std::pair<State, std::uint64_t>> (*init)(const VarSpace&);
  const char* observed_var;
  double rounds;
};

Protocol make_epidemic(VarSpacePtr vars) {
  const VarId i = vars->intern("I");
  Protocol p("epidemic", std::move(vars));
  p.add_thread("T", {make_rule(BoolExpr::var(i), BoolExpr::any(),
                               BoolExpr::any(), BoolExpr::var(i))});
  return p;
}

std::vector<std::pair<State, std::uint64_t>> init_epidemic(
    const VarSpace& vars) {
  return {{var_bit(*vars.find("I")), 4}, {0, 1996}};
}

Protocol make_am3(VarSpacePtr vars) {
  return make_approximate_majority_protocol(std::move(vars));
}

std::vector<std::pair<State, std::uint64_t>> init_am3(const VarSpace& vars) {
  return {{var_bit(*vars.find("BA")), 1200},
          {var_bit(*vars.find("BB")), 800}};
}

Protocol make_frat(VarSpacePtr vars) {
  return make_fratricide_protocol(std::move(vars));
}

std::vector<std::pair<State, std::uint64_t>> init_frat(const VarSpace& vars) {
  return {{var_bit(*vars.find("L")), 2000}};
}

const ProcessCase kCases[] = {
    {"epidemic", make_epidemic, init_epidemic, "I", 4.0},
    {"approx_majority", make_am3, init_am3, "BA", 6.0},
    {"fratricide", make_frat, init_frat, "L", 20.0},
};

class SubstrateEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SubstrateEquivalence, AgentAndCountEnginesAgreeInMean) {
  const ProcessCase& c = kCases[GetParam()];
  const int trials = 40;
  double agent_mean = 0, count_mean = 0;
  for (int t = 0; t < trials; ++t) {
    auto vars = make_var_space();
    const Protocol p = c.make(vars);
    const auto counts = c.init(*vars);
    const VarId v = *vars->find(c.observed_var);
    // Agent engine.
    {
      std::vector<State> init;
      for (const auto& [s, k] : counts)
        init.insert(init.end(), k, s);
      Engine eng(p, std::move(init), 500 + static_cast<std::uint64_t>(t));
      eng.run_rounds(c.rounds);
      agent_mean += static_cast<double>(eng.population().count_var(v));
    }
    // Count engine (direct mode, to match step-for-step semantics).
    {
      CountEngine eng(p, counts, 9000 + static_cast<std::uint64_t>(t),
                      CountEngineMode::kDirect);
      eng.run_rounds(c.rounds);
      count_mean += static_cast<double>(
          eng.count_matching(BoolExpr::var(v)));
    }
  }
  agent_mean /= trials;
  count_mean /= trials;
  EXPECT_NEAR(agent_mean, count_mean,
              std::max(30.0, 0.12 * std::max(agent_mean, count_mean)))
      << c.name;
}

TEST_P(SubstrateEquivalence, SkipModeMatchesDirectMode) {
  const ProcessCase& c = kCases[GetParam()];
  const int trials = 40;
  double direct_mean = 0, skip_mean = 0;
  for (int t = 0; t < trials; ++t) {
    auto vars = make_var_space();
    const Protocol p = c.make(vars);
    const auto counts = c.init(*vars);
    const VarId v = *vars->find(c.observed_var);
    {
      CountEngine eng(p, counts, 100 + static_cast<std::uint64_t>(t),
                      CountEngineMode::kDirect);
      eng.run_rounds(c.rounds);
      direct_mean +=
          static_cast<double>(eng.count_matching(BoolExpr::var(v)));
    }
    {
      CountEngine eng(p, counts, 7100 + static_cast<std::uint64_t>(t));
      eng.run_rounds(c.rounds);
      skip_mean += static_cast<double>(eng.count_matching(BoolExpr::var(v)));
    }
  }
  direct_mean /= trials;
  skip_mean /= trials;
  EXPECT_NEAR(direct_mean, skip_mean,
              std::max(30.0, 0.12 * std::max(direct_mean, skip_mean)))
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(Processes, SubstrateEquivalence,
                         ::testing::Range(0, 3));

TEST(OscillatorEquivalence, TypedSimMatchesBitmaskDynamics) {
  // The bitmask protocol samples one of its 16 rules per interaction; the
  // typed simulator applies all matching rules systematically. Up to that
  // known dilution factor, the macroscopic trajectory (time of the first
  // dominance event) must agree within a small constant factor.
  const std::size_t n = 3000;
  // Typed: first dominance time.
  double typed_time = -1;
  {
    OscillatorSim sim = OscillatorSim::uniform(n, 8, 77);
    while (sim.rounds() < 4000) {
      sim.run_rounds(1.0);
      if (sim.a_max() > (n * 8) / 10) {
        typed_time = sim.rounds();
        break;
      }
    }
  }
  ASSERT_GT(typed_time, 0);
  // Bitmask: same, with the 16x dilution allowance.
  auto vars = make_var_space();
  const Protocol proto = make_oscillator_protocol(vars);
  const std::size_t rules = proto.num_rules();
  const VarId b0 = *vars->find(kOscBit0);
  const VarId b1 = *vars->find(kOscBit1);
  const VarId x = *vars->find(kOscX);
  std::vector<State> init(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 8) {
      init[i] = var_bit(x);
    } else {
      const int sp = static_cast<int>(i % 3);
      init[i] = (sp & 1 ? var_bit(b0) : 0) | (sp & 2 ? var_bit(b1) : 0);
    }
  }
  Engine eng(proto, std::move(init), 78);
  double bitmask_time = -1;
  auto species_count = [&](int sp) {
    BoolExpr e0 = (sp & 1) ? BoolExpr::var(b0) : !BoolExpr::var(b0);
    BoolExpr e1 = (sp & 2) ? BoolExpr::var(b1) : !BoolExpr::var(b1);
    return eng.population().count_matching(!BoolExpr::var(x) && e0 && e1);
  };
  while (eng.rounds() < typed_time * static_cast<double>(rules) * 12.0) {
    eng.run_rounds(10.0);
    for (int sp = 0; sp < 3; ++sp)
      if (species_count(sp) > (n * 8) / 10) bitmask_time = eng.rounds();
    if (bitmask_time > 0) break;
  }
  ASSERT_GT(bitmask_time, 0);
  const double normalized = bitmask_time / static_cast<double>(rules);
  EXPECT_LT(normalized, typed_time * 8.0);
  EXPECT_GT(normalized, typed_time / 8.0);
}

TEST(OscillatorEquivalence, MatchingAndSequentialSchedulersAgree) {
  // Thm 5.1's "holds under both schedulers": compare oscillation periods.
  auto period = [](bool matching) {
    OscillatorSim sim = OscillatorSim::uniform(30000, 30, 99);
    sim.run_rounds(150.0, matching);
    int dominant = sim.dominant();
    int switches = 0;
    const double t0 = sim.rounds();
    while (sim.rounds() < t0 + 300.0) {
      sim.run_rounds(matching ? 1.0 : 0.25, matching);
      if (sim.a_max() > sim.n() - sim.n() / 10) {
        const int d = sim.dominant();
        if (d != dominant) {
          ++switches;
          dominant = d;
        }
      }
    }
    return switches > 0 ? 300.0 / switches : 1e9;
  };
  const double seq = period(false);
  const double mat = period(true);
  EXPECT_LT(mat, 3.0 * seq);
  EXPECT_GT(mat, seq / 3.0);
}

}  // namespace
}  // namespace popproto
