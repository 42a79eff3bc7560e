// consensus_count: approx_majority and dv12_majority from a 9:7 split, run
// until the minority opinion is extinct, on CountEngine (registry default
// mode) and CountShardEngine. One pass brings the fixed job list to
// consensus; every pass replays the same seeds, so pass-to-pass variation
// is the machine's, not the protocol's.
#include <cstdio>
#include <memory>
#include <string>

#include "core/count_shard_engine.hpp"
#include "core/expr.hpp"
#include "server/protocol_registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace popproto;

struct JobConfig {
  const char* protocol;
  const char* backend;
  unsigned log2n;
  const char* minority;  // guard for the initial minority opinion
  const char* majority;
};

// count at 2^20; count_shard at 2^22, where one pass still fits a run
// several times over (2^24 takes 6 s for approx and 17 s for dv12 alone).
constexpr JobConfig kJobs[] = {
    {"approx_majority", "count", 20, "BB", "BA"},
    {"dv12_majority", "count", 20, "MB", "MA"},
    {"approx_majority", "count_shard", 22, "BB", "BA"},
    {"dv12_majority", "count_shard", 22, "MB", "MA"},
};
constexpr std::size_t kJobCount = sizeof kJobs / sizeof kJobs[0];
// dv12 needs ~480 rounds at 2^24; a job still running here has failed.
constexpr double kHorizon = 5000.0;
constexpr std::size_t kShards = 4;
constexpr int kSetups = 9;

struct Job {
  const JobConfig* cfg = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t n = 0;
  std::unique_ptr<ProtocolInstance> inst;
  Guard minority, majority;
  bool shard() const { return std::string(cfg->backend) == "count_shard"; }
};

std::unique_ptr<SimBackend> make_backend(const Job& j, unsigned threads) {
  if (!j.shard()) return make_backend_instance("count", *j.inst, j.seed);
  CountShardEngine::Params p;
  p.shards = kShards;
  p.threads = threads;
  return std::make_unique<CountShardEngine>(*j.inst->protocol,
                                            j.inst->initial_counts, j.seed, p);
}

}  // namespace

Result run_consensus_count(const Context& ctx) {
  Result r;
  Tracer& tr = *ctx.tracer;
  std::vector<Job> jobs;
  std::vector<std::unique_ptr<SimBackend>> ready;
  std::vector<double> setup_times;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_s();
    // Engines hold references into their protocol instances: drop them
    // first.
    ready = std::vector<std::unique_ptr<SimBackend>>(kJobCount);
    jobs = std::vector<Job>(kJobCount);
    for (std::size_t i = 0; i < kJobCount; ++i) {
      Job& j = jobs[i];
      j.cfg = &kJobs[i];
      j.seed = derive_seed(ctx.seed, i);
      j.n = std::uint64_t{1} << j.cfg->log2n;
      j.inst = make_protocol_instance(j.cfg->protocol, j.n);
      j.minority = Guard(parse_bool_expr(j.cfg->minority, *j.inst->vars));
      j.majority = Guard(parse_bool_expr(j.cfg->majority, *j.inst->vars));
      ready[i] = make_backend(j, ctx.threads);
    }
    setup_times.push_back(now_s() - t0);
  }
  r.setup_times = setup_times;

  std::vector<std::vector<double>> round_ms(kJobCount), job_ms(kJobCount);
  double sim_s = 0.0;
  std::uint64_t sim_interactions = 0;
  // Per-layer accumulators over traced passes.
  int traced_passes = 0;
  double shard_cpu = 0.0, shard_wall = 0.0;
  std::uint64_t count_eff = 0, count_inter = 0, blocks = 0, collisions = 0;
  double shard_rounds = 0.0;
  std::vector<double> job_rounds(kJobCount, 0.0);

  run_passes(
      ctx,
      [&](int) {
        const bool traced = tr.enabled();
        if (traced) ++traced_passes;
        for (std::size_t i = 0; i < kJobCount; ++i) {
          const Job& j = jobs[i];
          std::unique_ptr<SimBackend> eng =
              ready[i] ? std::move(ready[i]) : make_backend(j, ctx.threads);
          const std::string span =
              j.shard() ? "core.count_shard_engine.run_rounds"
                        : "core.count_engine.run_rounds";
          bool converged = false;
          const double job_t0 = now_s();
          for (;;) {
            std::uint64_t left = 0;
            {
              Tracer::Scope s(tr, "core.observe.check");
              left = eng->count_matching(j.minority);
            }
            if (left == 0) {
              converged = true;
              break;
            }
            if (eng->rounds() >= kHorizon) break;
            const double c0 = traced && j.shard() ? cpu_self_s() : 0.0;
            const std::uint64_t i0 = eng->interactions();
            const double t0 = now_s();
            {
              Tracer::Scope s(tr, span);
              eng->run_rounds(1.0);
            }
            const double dt = now_s() - t0;
            round_ms[i].push_back(dt * 1e3);
            sim_s += dt;
            sim_interactions += eng->interactions() - i0;
            if (traced && j.shard()) {
              shard_cpu += cpu_self_s() - c0;
              shard_wall += dt;
            }
          }
          job_ms[i].push_back((now_s() - job_t0) * 1e3);
          std::uint64_t total = 0;
          for (const auto& [state, count] : eng->species()) total += count;
          const bool ok = converged && eng->count_matching(j.majority) > 0 &&
                          total == j.n && eng->active_n() == j.n;
          if (!r.tally.record(ok))
            std::fprintf(stderr,
                         "consensus_count: %s/%s seed %llu failed its check "
                         "(converged %d, rounds %.0f, total %llu)\n",
                         j.cfg->protocol, j.cfg->backend,
                         static_cast<unsigned long long>(j.seed), converged,
                         eng->rounds(), static_cast<unsigned long long>(total));
          job_rounds[i] = eng->rounds();
          if (traced) {
            const EngineCounters c = eng->counters();
            blocks += c.batch_blocks;
            collisions += c.batch_collisions;
            if (j.shard()) {
              shard_rounds += eng->rounds();
            } else {
              count_eff += c.effective_steps;
              count_inter += eng->interactions();
            }
          }
        }
      },
      cpu_self_s, r.passes);

  r.work_per_s = sim_s > 0.0 ? static_cast<double>(sim_interactions) / sim_s
                             : 0.0;
  r.op_latency = summarize_groups(job_ms);
  r.peak_rss_mb = maxrss_self_mb();

  char line[256];
  std::snprintf(line, sizeof line,
                "consensus_count: time_to_consensus_s %.4f (median of %zu "
                "passes), interactions_per_s %.4g, job %s",
                median_wall(r.passes, false), r.passes.size(), r.work_per_s,
                r.op_latency.describe("ms").c_str());
  r.report.emplace_back(line);
  for (std::size_t i = 0; i < kJobCount; ++i) {
    std::snprintf(line, sizeof line,
                  "  %s/%s n=2^%u seed %llu: %.0f rounds to consensus, "
                  "job %s, round call %s",
                  kJobs[i].protocol, kJobs[i].backend, kJobs[i].log2n,
                  static_cast<unsigned long long>(jobs[i].seed),
                  job_rounds[i], summarize(job_ms[i]).describe("ms").c_str(),
                  summarize(round_ms[i]).describe("ms").c_str());
    r.report.emplace_back(line);
  }

  if (ctx.trace && traced_passes > 0) {
    const double tp = traced_passes;
    r.layer["core.count_engine.busy_s"] =
        tr.total("core.count_engine.run_rounds") / tp;
    r.layer["core.count_engine.effective_frac"] =
        count_inter ? static_cast<double>(count_eff) / count_inter : 0.0;
    r.layer["core.count_engine.batch_blocks"] = blocks / tp;
    r.layer["core.count_engine.batch_collisions"] = collisions / tp;
    r.layer["core.count_shard_engine.busy_s"] =
        tr.total("core.count_shard_engine.run_rounds") / tp;
    r.layer["core.count_shard_engine.cpu_per_wall"] =
        shard_wall > 0.0 ? shard_cpu / shard_wall : 0.0;
    r.layer["core.count_shard_engine.rounds_to_consensus"] = shard_rounds / tp;
    r.layer["core.observe.check_s"] = tr.total("core.observe.check") / tp;
  }
  return r;
}

}  // namespace perfbench
