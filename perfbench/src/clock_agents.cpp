// clock_agents: the §5.2 bitmask phase clock (hundreds of reachable states)
// and the 3-species oscillator (7 states) at n = 2^18, each on Engine and
// on BatchEngine, advanced one round per call. Every pass starts from
// freshly built engines with the same seeds, so every pass replays the same
// rounds, cold transition caches included, and the run's memory and cache
// sizes do not depend on how many passes fit in it.
#include <cstdio>
#include <memory>
#include <string>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace popproto;

// At popprotod's max_agent_n (2^22) each 32 MiB state array lives in the
// shared L3; on a shared 4-vCPU Xeon virtual machine an agent round there
// took 194-451 ms from run to run with the neighbours' load. At 2^18 the
// arrays fit a core's own L2.
constexpr std::size_t kN = std::size_t{1} << 18;
// Rounds per engine per pass: a multiple of BatchEngine's migration period
// (4), so every pass does the same migration work, and short enough (about
// a third of a second) that a run holds dozens of passes.
constexpr int kRoundsPerPass = 16;
// Set-ups per run; the median is reported. One takes about 70 ms.
constexpr int kSetups = 21;

struct ClockJob {
  std::string protocol;  // "phase_clock" or "oscillator"
  std::string backend;   // "agent" or "batch"
  VarSpacePtr vars;
  std::unique_ptr<Protocol> proto;
  std::unique_ptr<SimBackend> eng;
  Engine* agent = nullptr;  // set for the agent backend
};

std::vector<State> initial_states(const std::string& protocol,
                                  const VarSpace& vars) {
  if (protocol == "phase_clock")
    return phase_clock_initial_states(kN, kN >> 6, vars);
  std::vector<State> init(kN);
  const State x = var_bit(*vars.find(kOscX));
  for (std::size_t i = 0; i < kN; ++i)
    init[i] = i < (kN >> 6) ? x : oscillator_state(static_cast<int>(i % 3), 0,
                                                   vars);
  return init;
}

/// Order-independent hash of the species table: changes whenever the
/// configuration does.
std::uint64_t fingerprint(const SimBackend& eng, std::uint64_t* total) {
  std::uint64_t h = 0;
  *total = 0;
  for (const auto& [state, count] : eng.species()) {
    std::uint64_t z = state * 0x9e3779b97f4a7c15ull + count;
    z = (z ^ (z >> 31)) * 0xbf58476d1ce4e5b9ull;
    h += z ^ (z >> 29);
    *total += count;
  }
  return h;
}

}  // namespace

Result run_clock_agents(const Context& ctx) {
  Result r;
  Tracer& tr = *ctx.tracer;
  std::vector<ClockJob> jobs;
  const auto build = [&] {
    jobs.clear();
    std::uint64_t j_index = 0;
    for (const char* protocol : {"phase_clock", "oscillator"}) {
      for (const char* backend : {"agent", "batch"}) {
        ClockJob j;
        j.protocol = protocol;
        j.backend = backend;
        j.vars = make_var_space();
        j.proto = std::make_unique<Protocol>(
            j.protocol == "phase_clock" ? make_phase_clock_protocol(j.vars)
                                        : make_oscillator_protocol(j.vars));
        const std::uint64_t seed = derive_seed(ctx.seed, j_index++);
        if (j.backend == "agent") {
          auto e = std::make_unique<Engine>(
              *j.proto, initial_states(j.protocol, *j.vars), seed);
          j.agent = e.get();
          j.eng = std::move(e);
        } else {
          BatchEngine::Params p;
          p.threads = ctx.threads;
          j.eng = std::make_unique<BatchEngine>(
              *j.proto, initial_states(j.protocol, *j.vars), seed, p);
        }
        jobs.push_back(std::move(j));
      }
    }
  };
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_s();
    build();
    r.setup_times.push_back(now_s() - t0);
  }
  // Every pass starts from this configuration and, replaying the same
  // seeds, ends in the configuration pass 0 ended in.
  std::vector<std::uint64_t> start_fp(jobs.size()), end_fp(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::uint64_t total = 0;
    start_fp[i] = fingerprint(*jobs[i].eng, &total);
  }

  std::vector<std::vector<double>> round_ms(jobs.size());
  double sim_s = 0.0, rounds_done = 0.0;
  std::uint64_t sim_interactions = 0;
  double agent_s = 0.0, batch_cpu = 0.0, batch_wall = 0.0;
  std::uint64_t agent_interactions = 0;
  std::vector<double> batch_round_ms;

  run_passes(
      ctx,
      [&](int pass) {
        const bool traced = tr.enabled();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          ClockJob& j = jobs[i];
          const bool agent = j.agent != nullptr;
          const std::string span =
              agent ? "core.engine.run_rounds" : "core.batch_engine.run_rounds";
          for (int k = 0; k < kRoundsPerPass; ++k) {
            const std::uint64_t e0 = j.eng->counters().effective_steps;
            const std::uint64_t i0 = j.eng->interactions();
            const double c0 = traced && !agent ? cpu_self_s() : 0.0;
            const double t0 = now_s();
            {
              Tracer::Scope s(tr, span);
              j.eng->run_rounds(1.0);
            }
            const double dt = now_s() - t0;
            const std::uint64_t di = j.eng->interactions() - i0;
            round_ms[i].push_back(dt * 1e3);
            sim_s += dt;
            rounds_done += 1.0;
            sim_interactions += di;
            if (traced && agent) {
              agent_s += dt;
              agent_interactions += di;
            }
            if (traced && !agent) {
              batch_cpu += cpu_self_s() - c0;
              batch_wall += dt;
              batch_round_ms.push_back(dt * 1e3);
            }
            // The clock keeps moving: every round changes agent states and
            // no agent is lost.
            const bool ok = j.eng->counters().effective_steps > e0 &&
                            j.eng->active_n() == kN;
            r.tally.record(ok);
          }
          std::uint64_t total = 0;
          std::uint64_t fp = 0;
          {
            Tracer::Scope s(tr, "bench.check");
            fp = fingerprint(*j.eng, &total);
          }
          if (pass == 0) end_fp[i] = fp;
          if (!r.tally.record(total == kN && fp != start_fp[i] &&
                              fp == end_fp[i]))
            std::fprintf(stderr,
                         "clock_agents: %s/%s failed its pass check (total "
                         "%llu, %s)\n",
                         j.protocol.c_str(), j.backend.c_str(),
                         static_cast<unsigned long long>(total),
                         fp == start_fp[i] ? "configuration frozen"
                                           : "differs from pass 0");
        }
      },
      cpu_self_s, r.passes, [&](int pass) {
        if (pass > 0) build();
      });

  r.work_per_s =
      sim_s > 0.0 ? static_cast<double>(sim_interactions) / sim_s : 0.0;
  r.op_latency = summarize_groups(round_ms);
  r.peak_rss_mb = maxrss_self_mb();

  char line[256];
  std::snprintf(line, sizeof line,
                "clock_agents: rounds_per_s %.4f, interactions_per_s %.4g, "
                "round call %s",
                sim_s > 0.0 ? rounds_done / sim_s : 0.0, r.work_per_s,
                r.op_latency.describe("ms").c_str());
  r.report.emplace_back(line);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::snprintf(line, sizeof line, "  %s/%s n=2^18: round call %s",
                  jobs[i].protocol.c_str(), jobs[i].backend.c_str(),
                  summarize(round_ms[i]).describe("ms").c_str());
    r.report.emplace_back(line);
  }

  if (ctx.trace) {
    r.layer["core.engine.ns_per_interaction"] =
        agent_interactions ? agent_s * 1e9 / agent_interactions : 0.0;
    const Summary b = summarize(batch_round_ms);
    r.layer["core.batch_engine.round_ms.p50"] = b.p50;
    r.layer["core.batch_engine.round_ms.tail"] = b.tail;
    r.layer["core.batch_engine.cpu_per_wall"] =
        batch_wall > 0.0 ? batch_cpu / batch_wall : 0.0;
    for (const ClockJob& j : jobs) {
      if (j.agent == nullptr) continue;
      const TransitionCache& c = j.agent->transition_cache();
      const std::string suffix = "." + j.protocol;
      r.layer["core.transition_cache.states" + suffix] =
          static_cast<double>(c.num_states());
      r.layer["core.transition_cache.pairs" + suffix] =
          static_cast<double>(c.num_pairs());
      r.layer["core.transition_cache.builds" + suffix] =
          static_cast<double>(c.builds());
    }
  }
  return r;
}

}  // namespace perfbench
