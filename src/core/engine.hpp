// Agent-based simulation engine for protocols over boolean state variables.
#pragma once

#include <functional>
#include <optional>

#include "core/injection.hpp"
#include "core/population.hpp"
#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"

namespace popproto {

/// Drives a Protocol on an AgentPopulation under a chosen scheduler.
///
/// Parallel time accounting: one sequential interaction advances time by
/// 1/n_active rounds; one random-matching activation advances time by one
/// round. n_active is the number of non-crashed agents, so parallel time
/// stays calibrated to the scheduled population under churn.
///
/// Implements SimBackend (core/sim_backend.hpp) as the "agent" substrate;
/// the per-interaction hot path (run_steps / resolve) never crosses
/// a virtual boundary.
class Engine final : public SimBackend {
 public:
  Engine(const Protocol& protocol, std::vector<State> initial_states,
         std::uint64_t seed,
         SchedulerKind scheduler = SchedulerKind::kSequential);

  /// One scheduler activation: a single interaction (sequential) or a full
  /// random matching (matching scheduler). Always returns true (an agent
  /// engine is never silent; rules may still all be no-ops).
  bool step() override;

  /// Exactly `k` scheduler activations. Equivalent to calling step() k
  /// times, but the loop stays inside the engine so the per-activation call
  /// overhead amortizes away (the throughput-measurement entry point).
  void run_steps(std::uint64_t k);

  /// Run for (at least) `rounds` additional units of parallel time.
  void run_rounds(double rounds) override;

  /// Run until `predicate(population)` holds, checking every
  /// `check_interval` rounds; gives up after `max_rounds`.
  ///
  /// Resolution semantics: the predicate is only evaluated on the
  /// check-interval grid, so the returned value is the parallel time of the
  /// first *check* at which the predicate held — i.e. the true first-hold
  /// time quantized UP to the next multiple of `check_interval` (plus at
  /// most one interaction of scheduler overshoot). It is not the exact
  /// first instant the predicate became true; shrink `check_interval` when
  /// finer resolution is needed. Returns nullopt on timeout. Edge cases
  /// (initial check, absolute horizon, clamped final interval) follow the
  /// contract documented on SimBackend::run_until.
  std::optional<double> run_until(
      const std::function<bool(const AgentPopulation&)>& predicate,
      double max_rounds, double check_interval = 1.0);
  /// The backend-generic overload (predicate over SimBackend) is also
  /// available through a SimBackend reference.
  using SimBackend::run_until;

  /// Callback invoked exactly once per whole round of parallel time, with
  /// strictly increasing rounds. Installing a hook mid-run starts the
  /// cadence at the next whole round after the current time.
  using RoundHook = std::function<void(double round, const AgentPopulation&)>;
  void set_round_hook(RoundHook hook);

  /// The memoized transition kernel every interaction resolves through.
  /// Protocols whose reachable state space exceeds its cap degrade to
  /// per-pair fallback automatically (see core/transition_cache.hpp).
  const TransitionCache& transition_cache() const { return cache_; }

  /// Fault-layer injection points (see core/injection.hpp). Unset hooks
  /// leave the engine's RNG stream and trajectory bit-for-bit unchanged.
  void set_injection_hook(InjectionHook hook) override;
  /// Enable (or, with nullopt, disable) the ε-of-uniform pair-sampling skew.
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;

  // -- Dynamic population (agent churn) -------------------------------------
  /// Remove agent `i` from the scheduled set: it takes part in no further
  /// interactions and its state is frozen until it rejoins. At least two
  /// agents must remain active. No-op if already crashed.
  void crash_agent(std::size_t i);
  /// Return a crashed agent to the scheduled set with its stale state, or
  /// with `fresh` when provided. No-op if the agent is active.
  void rejoin_agent(std::size_t i);
  void rejoin_agent(std::size_t i, State fresh);
  bool is_active(std::size_t i) const {
    return pos_in_active_[i] != kNotActive;
  }

  // -- Churn and corruption (SimBackend) -------------------------------------
  // Victims come from a partial Fisher-Yates shuffle of the scheduled ids
  // (crash, corruption) or of the crashed ids in ascending order (rejoin),
  // one rng draw per victim. Crashes go through crash_agent and rejoins
  // through rejoin_agent (stale state); rejoin_all is rejoin_random over
  // every crashed agent, so it draws the rejoin order too.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all(Rng& rng) override;
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

  // -- Observability (src/observe/, DESIGN.md §7) ---------------------------
  /// Telemetry counter snapshot: engine-side tallies merged with the
  /// transition cache's build count. Cheap tier is always maintained;
  /// cache_hits stays 0 unless built with POPPROTO_PROFILE.
  EngineCounters counters() const override;
  /// Attach (or, with nullptr, detach) a structured event sink. The engine
  /// pushes churn events and run_until convergence; it never owns the trace.
  void set_event_trace(EventTrace* trace) override { trace_ = trace; }

  // -- SimBackend observables (core/sim_backend.hpp) ------------------------
  const char* backend_name() const override { return "agent"; }
  std::uint64_t active_n() const override { return active_.size(); }
  /// Scheduled agents whose state satisfies the guard (crashed agents'
  /// frozen states are excluded, matching the other backends).
  std::uint64_t count_matching(const Guard& g) const override;
  using SimBackend::count_matching;  // + the BoolExpr convenience overload
  std::vector<std::pair<State, std::uint64_t>> species() const override;

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: per-agent states, active set, RNG stream,
  /// scheduler kind, time base and counters. The transition cache is NOT
  /// serialized — it is derived state, so a restored engine relearns pair
  /// bindings lazily with no trajectory drift.
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore (see SimBackend::restore). Adopts the saved
  /// scheduler kind and population size; hooks, traces, and
  /// bias are runtime attachments and must be re-installed by the caller.
  void restore(std::istream& in) override;

  double rounds() const override { return time_; }
  std::uint64_t interactions() const override { return interactions_; }
  const AgentPopulation& population() const { return pop_; }
  AgentPopulation& population() { return pop_; }
  /// Direct access to the engine's stream. Flushes the bulk-draw buffer
  /// first (support/rng.hpp BulkDraws) so the returned generator is at the
  /// exact as-if-sequential position — callers may draw from or compare it
  /// without seeing buffered read-ahead.
  Rng& rng() {
    draws_.flush(rng_);
    return rng_;
  }
  std::size_t n() const { return pop_.size(); }
  /// Bulk-draw words buffered but not yet consumed (tests pin the
  /// mid-buffer snapshot contract on this being nonzero).
  std::size_t rng_buffer_pending() const { return draws_.pending(); }

 protected:
  EventTrace* event_trace() const override { return trace_; }

 private:
  static constexpr std::uint32_t kNotActive = ~0u;

  void sequential_step();
  void matching_step();
  void fire_round_hooks_if_due();
  /// Apply one interaction of the protocol to the ordered pair (a, b),
  /// honouring dropout and rule sampling. Shared by both schedulers.
  void interact(std::uint32_t a, std::uint32_t b);
  /// Kernel half of interact(): resolve the fused draw `u` on the
  /// ordered pair via the interned-index shadow. Requires sidx_ in sync.
  void resolve(std::uint32_t a, std::uint32_t b, double u);
  /// ε-mixture initiator skew for a sequential pair (see SchedulerBias).
  void bias_sequential_pair(std::uint32_t& a, std::uint32_t b);
  /// Invalidate the interned-index shadow after an external pop_ mutation.
  void resync_sidx();

  const Protocol& protocol_;
  AgentPopulation pop_;
  Rng rng_;
  // Bulk-draw buffer over rng_, consumed only by the plain run_steps loop.
  // Invariant: every other draw site (step paths, hooks, bias) sees the
  // buffer flushed, so rng_ alone carries the stream there.
  BulkDraws draws_;
  SchedulerKind scheduler_;
  TransitionCache cache_;
  std::uint64_t interactions_ = 0;
  double time_ = 0.0;
  double inv_active_ = 0.0;  // 1 / active_.size(), kept in sync with churn
  double last_hook_round_ = 0.0;
  double last_injection_round_ = 0.0;
  RoundHook round_hook_;
  InjectionHook injection_;
  // Telemetry tallies (interactions_ stays the master interaction count;
  // counters() merges it in). Maintained only on slow/branchy paths.
  EngineCounters ctr_;
  // cache_builds accounting across restore: the cache object survives a
  // restore un-serialized, so counters() reports
  //   base + (cache_.builds() - floor)
  // where base is the snapshot's total and floor the cache's build count at
  // restore time. Both stay 0 on an engine that never restored.
  std::uint64_t cache_builds_base_ = 0;
  std::uint64_t cache_builds_floor_ = 0;
  EventTrace* trace_ = nullptr;
  std::optional<SchedulerBias> bias_;
  std::vector<std::uint32_t> active_;         // scheduled agent ids
  std::vector<std::uint32_t> pos_in_active_;  // agent id -> index in active_
  // Agent id -> interned state index in cache_ (kNoState when unknown);
  // a shadow of pop_ that lets interact() skip the State -> index hash.
  // Trusted while pop_.version() == pop_version_seen_; any mutation that
  // bypassed interact() triggers a wholesale lazy resync.
  std::vector<std::uint32_t> sidx_;
  std::uint64_t pop_version_seen_ = 0;
  bool active_identity_ = true;  // active_[i] == i (no crash yet)
  std::vector<std::pair<std::uint32_t, std::uint32_t>> matching_buf_;
};

}  // namespace popproto
