// Count-sharded batch simulation backend (DESIGN.md §11).
//
// The fourth SimBackend substrate composes the two scaling mechanisms the
// library already has: BatchEngine's shard decomposition (independent
// subpopulations between periodic global reshuffles) and CountEngine's
// batch/skip sampler policy (whole collision-free blocks of ~sqrt(n)
// interactions advanced with O(species^2) exact distributional draws,
// DESIGN.md §9). Each shard is a species-count subpopulation driven by its
// own default-mode CountEngine on a private split RNG stream; every
// `migrate_every` global rounds the scheduled agents are re-dealt across
// shards by exact multivariate-hypergeometric draws on a dedicated
// migration stream.
//
// Why this composes: within a window a shard of m agents is an isolated
// uniform-scheduler population, so §9's collision-sampling law applies to
// it verbatim — the per-shard work for one round is O(sqrt(m) * species^2)
// draws instead of m per-interaction draws. The hypergeometric re-deal is
// the count-space image of BatchEngine's id reshuffle: dealing the pooled
// species counts back into shard-sized subsets without replacement is
// exactly a uniform partition of the (exchangeable) agents, so the window
// composition approximates the global uniform scheduler with the same
// O(shards / n) boundary error as the sharded matching backend.
//
// Determinism: the trajectory is a pure function of (protocol, initial
// counts, seed, shards, migrate_every). Worker threads are an execution
// detail only — shards touch disjoint engines and private streams, so any
// thread count (including 1) replays the identical trajectory. This is
// stronger than BatchEngine, where threads == shards is structural.
//
// Scale: populations are species *counts* (u64), so n = 2^30 costs the
// same memory as n = 2^10; per-round work grows as sqrt(n * shards), which
// is what makes billion-agent majority runs interactive (bench_kernel's
// count_shard_majority_n30 record).
//
// Fault surface: the standard InjectionHook / SchedulerBias points plus
// CountEngine-style churn and corruption, distributed across shards by
// hypergeometric victim allocation so global victim selection stays
// uniform. A SchedulerBias routes every shard back through CountEngine's
// exact per-interaction path and a dropout hook through skip-ahead (batch
// aggregation assumes unbiased uniform pair draws, each one kept).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/count_engine.hpp"
#include "core/injection.hpp"
#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace popproto {

class CountShardEngine final : public SimBackend {
 public:
  struct Params {
    /// Species-count shards. Structural: part of the determinism tuple and
    /// of the snapshot config (restore with a different shard count throws
    /// kConfigMismatch). The engine lowers this until every shard holds at
    /// least min_shard agents.
    std::size_t shards = 1;
    /// Global rounds between hypergeometric cross-shard re-deals. Smaller
    /// is closer to the exact global uniform scheduler; larger amortizes
    /// the O(shards * species) re-deal. See docs/TUNING.md.
    std::uint32_t migrate_every = 4;
    /// Worker threads for advancing shards. 0 = min(shards, probed
    /// hardware). Execution-only: any value replays the same trajectory.
    unsigned threads = 0;
    /// Minimum agents per shard (floor 2; a 1-agent shard cannot interact,
    /// and tiny shards waste the sqrt(m) batch amortization).
    std::uint64_t min_shard = 256;
  };

  /// Initial configuration as species counts, like CountEngine. With one
  /// shard the counts pass through untouched, so the trajectory equals a
  /// default-mode CountEngine seeded with this engine's shard-0 stream
  /// (shard_seed(seed, 0)); with more shards the initial deal is the same
  /// hypergeometric partition migration uses, drawn on the migration
  /// stream.
  CountShardEngine(const Protocol& protocol,
                   std::vector<std::pair<State, std::uint64_t>> initial,
                   std::uint64_t seed, Params params);
  CountShardEngine(const Protocol& protocol,
                   std::vector<std::pair<State, std::uint64_t>> initial,
                   std::uint64_t seed);

  CountShardEngine(const CountShardEngine&) = delete;
  CountShardEngine& operator=(const CountShardEngine&) = delete;

  /// The documented stream-split law (stable across versions, needed by the
  /// shards=1 equivalence contract): splitmix64 walks the master seed, the
  /// migration stream takes the first output, shard s takes output s + 2.
  static std::uint64_t shard_seed(std::uint64_t master_seed, std::size_t s);

  /// One global round: every shard advances one round of parallel time
  /// (whole collision-free blocks internally), then migration/hooks fire if
  /// due. Returns false iff the pooled configuration is silent — no species
  /// pair anywhere could change state, even after a re-deal.
  bool step() override;

  void run_rounds(double rounds) override;

  // -- SimBackend observables ------------------------------------------------
  const char* backend_name() const override { return "count_shard"; }
  double rounds() const override { return time_; }
  std::uint64_t interactions() const override;
  std::uint64_t active_n() const override;
  std::uint64_t count_matching(const Guard& g) const override;
  using SimBackend::count_matching;  // + the BoolExpr convenience overload
  /// Merged species counts across shards, in first-appearance shard-scan
  /// order (deterministic; with one shard, identical to CountEngine's).
  std::vector<std::pair<State, std::uint64_t>> species() const override;
  EngineCounters counters() const override;

  void set_injection_hook(InjectionHook hook) override;
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;
  void set_event_trace(EventTrace* trace) override;

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: engine config and time base, the migration
  /// stream, and every shard's complete CountEngine snapshot embedded as a
  /// length-prefixed container (each self-validating: own magic, CRC,
  /// fingerprint).
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore. The shard count is structural: a snapshot
  /// taken with a different shard count throws SnapshotError
  /// {kConfigMismatch} and leaves this engine untouched. Worker threads are
  /// NOT structural — a snapshot restores onto any thread count. Adopts the
  /// saved migrate_every.
  void restore(std::istream& in) override;

  // -- Count-shard surface ---------------------------------------------------
  /// Shards actually in use (post min_shard clamping).
  std::size_t shards() const { return shards_.size(); }
  std::uint32_t migrate_every() const { return params_.migrate_every; }
  /// Worker threads the pool advances shards with (== 1 on a 1-core host).
  unsigned threads() const { return pool_.size(); }
  /// Direct read access to one shard's sub-engine (tests, diagnostics).
  const CountEngine& shard(std::size_t s) const { return *shards_[s]; }
  /// The dedicated cross-shard migration stream.
  const Rng& migration_rng() const { return migrate_rng_; }

  // -- Churn and corruption (SimBackend) -------------------------------------
  // Victims are allocated to shards by exact multivariate-hypergeometric
  // draws on the caller's rng, so global victim selection is uniform
  // without replacement.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all(Rng& rng) override;
  std::uint64_t crashed_count() const;
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

 protected:
  EventTrace* event_trace() const override { return trace_; }

 private:
  /// Advance every shard whose local clock lags `target` up to it, in
  /// parallel across the worker pool.
  void advance_shards_to(double target);
  /// Pool every shard's scheduled species counts into mig_states_ /
  /// mig_counts_ (first-appearance scan order); returns the total.
  std::uint64_t pool_scheduled();
  /// Empty the pooled table (keeping its capacity).
  void pool_clear();
  /// Add `c` agents of `s` to the pooled table, appending `s` if new.
  void pool_add(State s, std::uint64_t c);
  /// Pool all scheduled species counts and deal them back into shard-sized
  /// subsets by multivariate-hypergeometric draws on the migration stream
  /// (the last shard takes the forced remainder, consuming no draws).
  void migrate();
  /// Exact global-silence test on the pooled counts: true iff no ordered
  /// species pair with positive pair count has positive change weight.
  bool globally_silent();
  bool all_shards_silent() const;
  void fire_round_hooks_if_due();
  /// Forward the wrapper's hooks to the sub-engines: drop_interaction and
  /// bias go down (per-shard streams), on_round stays wrapper-fired.
  void push_hooks_to_shards();
  /// Per-shard allocation of `k` without-replacement draws over per-shard
  /// `weights` (scheduled or crashed sizes), on the caller's rng.
  std::vector<std::uint64_t> deal_victims(std::uint64_t k,
                                          const std::vector<std::uint64_t>& weights,
                                          Rng& rng) const;

  const Protocol& protocol_;
  Params params_;
  std::vector<std::unique_ptr<CountEngine>> shards_;
  Rng migrate_rng_;
  // Fork-join pool advancing shards between barriers.
  ThreadPool pool_;
  double time_ = 0.0;
  double next_migrate_time_ = 0.0;
  double last_injection_round_ = 0.0;
  bool silent_ = false;  // latched by globally_silent(), cleared by faults
  InjectionHook injection_;
  std::optional<SchedulerBias> bias_;
  EventTrace* trace_ = nullptr;
  TransitionCache cache_;  // wrapper-owned, for the global-silence test
  // Migration scratch (pooled species table + per-shard deal), kept as
  // members so steady-state migrations allocate nothing.
  std::vector<State> mig_states_;
  std::vector<std::uint64_t> mig_counts_;
  // Pooled-table index: each entry's interned cache_ index (kNoState past
  // the cache's cap; those entries are found by a scan) and the inverse
  // map from interned index to entry.
  std::vector<std::uint32_t> mig_idx_;
  std::vector<std::size_t> mig_slot_of_;
  std::vector<std::uint64_t> mig_deal_;
  std::vector<std::pair<State, std::uint64_t>> mig_init_;
};

}  // namespace popproto
