// sweep_grid: one popsweep grid per pass — {approx_majority, phase_clock} x
// {agent, count} x 2 values of n x 4 seeds, checkpointing every 4 rounds
// with one fault line — driven by the popsweep binary with --jobs 2. Each
// job does little engine work, so the time goes to fork/exec, manifest
// journaling and checkpoint files. The row set of every pass is compared
// with a reference computed in-process by the same job runner.
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "faults/injector.hpp"
#include "persist/checkpoint.hpp"
#include "server/protocol_registry.hpp"
#include "sweep/manifest.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace popproto;

constexpr int kSweepJobs = 2;
constexpr int kSeeds = 4;
constexpr double kPassTimeout = 120.0;
constexpr int kSetups = 3;

std::string make_spec_text(std::uint64_t seed) {
  std::string seeds;
  for (int i = 0; i < kSeeds; ++i)
    seeds += " " + std::to_string(derive_seed(seed, i) % 1000000000 + 1);
  return "# perfbench sweep_grid\n"
         "protocol approx_majority phase_clock\n"
         "backend agent count\n"
         "n 4096 16384\n"
         "seed" + seeds + "\n"
         "max_rounds 16\n"
         "checkpoint_every 4\n"
         "fault corrupt 6 0.05\n";
}

std::string config_of(const JobSpec& j) {
  return j.protocol + "/" + j.backend + "/" + std::to_string(j.n);
}

}  // namespace

Result run_sweep_grid(const Context& ctx) {
  Result r;
  Tracer& tr = *ctx.tracer;
  // Set-up: write and parse the spec, expand the grid, and compute the
  // reference row set — the same jobs run in-process through the job
  // runner, with no orchestrator, manifest or worker processes between.
  const std::string spec_path = ctx.work_dir + "/grid.sweep";
  const std::string ref_dir = ctx.work_dir + "/reference";
  SweepSpec spec;
  std::vector<JobSpec> grid;
  std::map<std::string, JobResult> reference;
  std::vector<double> setup_times;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    {
      std::ofstream out(spec_path);
      out << make_spec_text(ctx.seed);
    }
    spec = load_sweep_spec(spec_path);
    grid = expand_grid(spec);
    remove_tree(ref_dir);
    std::filesystem::create_directories(ref_dir);
    reference.clear();
    for (const JobSpec& job : grid) {
      try {
        reference[job.id] =
            run_one_job(job, spec, ref_dir + "/" + job.id + ".ckpt");
      } catch (const RunnerError& e) {
        std::fprintf(stderr, "sweep_grid: reference %s: %s\n",
                     job.id.c_str(), e.message.c_str());
      }
    }
    setup_times.push_back(now_s() - t0);
  }
  r.setup_times = setup_times;
  const std::string popsweep = ctx.bin_dir + "/popsweep";

  std::map<std::string, std::vector<double>> job_wall_by_config;
  std::vector<double> job_walls, overheads;
  std::vector<std::vector<JobRow>> pass_rows;
  double total_wall = 0.0;
  std::size_t total_jobs = 0;

  run_passes(
      ctx,
      [&](int k) {
        const std::string dir = ctx.work_dir + "/sweep-" + std::to_string(k);
        std::filesystem::create_directories(dir);
        const double t0 = now_s();
        int status = -1;
        {
          Tracer::Scope s(tr, "sweep.popsweep_run");
          Child c = spawn({popsweep, "run", "--spec", spec_path, "--dir", dir,
                           "--jobs", std::to_string(kSweepJobs)},
                          false);
          status = wait_child(c, kPassTimeout);
        }
        const double wall = now_s() - t0;
        total_wall += wall;
        Tracer::Scope s(tr, "bench.check");
        std::vector<JobRow> rows;
        try {
          rows = Manifest::load(manifest_path(dir)).jobs();
        } catch (const ManifestError& e) {
          std::fprintf(stderr, "sweep_grid: %s\n", e.message.c_str());
        }
        double job_sum = 0.0;
        for (const JobRow& row : rows) {
          if (row.state != JobState::kDone) continue;
          job_sum += row.result.wall_seconds;
          job_walls.push_back(row.result.wall_seconds);
          job_wall_by_config[config_of(row.spec)].push_back(
              row.result.wall_seconds * 1e3);
        }
        overheads.push_back(wall - job_sum / kSweepJobs);
        // One operation per grid job: done and (checked below) matching
        // the reference.
        if (status != 0 || rows.size() != grid.size()) {
          std::fprintf(stderr, "sweep_grid: pass %d exit %d, %zu rows\n", k,
                       status, rows.size());
          for (std::size_t i = rows.size(); i < grid.size(); ++i)
            r.tally.record(false);
        }
        total_jobs += rows.size();
        pass_rows.push_back(std::move(rows));
        remove_tree(dir);
      },
      [] { return cpu_self_s() + cpu_children_s(); }, r.passes);

  for (const auto& rows : pass_rows) {
    for (const JobRow& row : rows) {
      const auto it = reference.find(row.spec.id);
      const bool ok = row.state == JobState::kDone &&
                      it != reference.end() &&
                      deterministic_fields_equal(row.result, it->second) &&
                      row.result.active_n == row.spec.n;
      if (!r.tally.record(ok))
        std::fprintf(stderr, "sweep_grid: row %s differs from the reference\n",
                     row.spec.id.c_str());
    }
  }

  r.work_per_s = total_wall > 0.0 ? total_jobs / total_wall : 0.0;
  std::vector<std::vector<double>> groups;
  for (auto& [config, walls] : job_wall_by_config) groups.push_back(walls);
  r.op_latency = summarize_groups(groups);
  // Children run at most kSweepJobs workers plus the orchestrator at once;
  // the kernel reports only the largest child's peak, so this is a bound.
  r.peak_rss_mb = maxrss_self_mb() + (kSweepJobs + 1) * maxrss_children_mb();

  char line[256];
  std::snprintf(line, sizeof line,
                "sweep_grid: jobs_per_s %.4f (%zu jobs/pass, %zu passes), "
                "job wall %s",
                r.work_per_s, grid.size(), r.passes.size(),
                r.op_latency.describe("ms").c_str());
  r.report.emplace_back(line);

  if (ctx.trace) {
    r.layer["sweep.job_wall_s.p50"] = quantile(job_walls, 0.5);
    r.layer["sweep.overhead_s"] = quantile(overheads, 0.5);
    // Checkpoints the reference jobs left behind, and the fault events
    // recorded in them.
    double files = 0.0, bytes = 0.0, events = 0.0;
    for (const JobSpec& job : grid) {
      const std::string path = ref_dir + "/" + job.id + ".ckpt";
      struct stat st {};
      if (::stat(path.c_str(), &st) != 0) continue;
      files += 1.0;
      bytes += static_cast<double>(st.st_size);
      auto inst = make_protocol_instance(job.protocol, job.n);
      auto eng = make_backend_instance(job.backend, *inst, job.seed, job.threads);
      FaultInjector injector(FaultPlan{}, job.seed);
      if (AutoCheckpoint::load(path, *eng, &injector))
        events += static_cast<double>(injector.log().size());
    }
    r.layer["persist.checkpoints"] = files;
    r.layer["persist.checkpoint_bytes"] = bytes;
    r.layer["faults.events"] = events;
  }
  remove_tree(ref_dir);
  return r;
}

}  // namespace perfbench
