// Species-abundance simulation engine (DESIGN.md S5, S9).
//
// For a protocol whose reachable state set is small, the population is fully
// described by the count of agents in each state. This engine simulates the
// sequential scheduler exactly on those counts. Its default mode advances
// with one of two samplers, chosen before every activation from the exact
// probability W that a uniformly sampled interaction changes any state:
// *batched collision sampling* (a collision-free block of ~0.63·√n
// interactions drawn as aggregate species-pair counts) while W is high, and
// *skip-ahead* (the number of no-op interactions drawn from the exact
// geometric law, then one state-changing interaction from the conditional
// distribution) once W drops below a threshold that falls as 1/√n. Both are
// equal in distribution to the direct simulation, which stays available as
// the exact reference mode.
//
// Fault support (src/faults/): the engine carries the same InjectionHook /
// SchedulerBias surface as the agent-based Engine, plus count-level churn
// (crash_random / rejoin_random move agents out of and back into the
// scheduled multiset with their state frozen while away) and targeted
// corruption (mutate_random_agents). Parallel time is accumulated as
// 1/n_active per interaction, so it stays calibrated under churn.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/injection.hpp"
#include "core/protocol.hpp"
#include "core/sim_backend.hpp"
#include "core/transition_cache.hpp"
#include "observe/counters.hpp"
#include "observe/event_trace.hpp"
#include "support/rng.hpp"

namespace popproto {

/// kDirect steps one scheduler interaction at a time (the exact reference);
/// kAdaptive is the production policy (batch or skip-ahead by W and n). The
/// values are the mode byte of snapshot format v1, where 1 and 2 named
/// retired modes that now restore as kAdaptive.
enum class CountEngineMode : std::uint8_t { kDirect = 0, kAdaptive = 3 };

/// Implements SimBackend (core/sim_backend.hpp) as the "count" substrate.
/// The backend-generic run_until (predicate over SimBackend) is reachable
/// through a SimBackend reference; the concrete overload below (predicate
/// over CountEngine) stays the native surface.
class CountEngine final : public SimBackend {
 public:
  /// Initial configuration: (state, count) pairs; counts must sum to n >= 2.
  CountEngine(const Protocol& protocol,
              std::vector<std::pair<State, std::uint64_t>> initial,
              std::uint64_t seed,
              CountEngineMode mode = CountEngineMode::kAdaptive);

  /// One activation: a scheduler interaction (direct), one *effective*
  /// interaction plus its geometric prefix of no-ops (skip-ahead), or one
  /// collision-sampled batch, never past the next round of an installed
  /// fault schedule. Returns false iff the configuration is
  /// silent (no rule can change anything); a silent engine idles one round
  /// (or up to that fault round) per call, so time keeps advancing.
  bool step() override;

  void run_rounds(double rounds) override;

  /// SimBackend::run_until with a predicate over the concrete engine. Same
  /// resolution caveat as Engine::run_until: the returned time is the first
  /// *check* at which the predicate held, quantized to the check-interval
  /// grid, not the true first-hold instant. A silent engine whose predicate
  /// never holds runs (cheaply, in idle jumps) to max_rounds.
  std::optional<double> run_until(
      const std::function<bool(const CountEngine&)>& predicate,
      double max_rounds, double check_interval = 1.0) {
    return SimBackend::run_until(
        [&](const SimBackend&) { return predicate(*this); }, max_rounds,
        check_interval);
  }

  const TransitionCache& transition_cache() const { return cache_; }

  /// True iff the last activation the policy chose was a skip-ahead jump.
  bool skip_engaged() const { return use_skip_; }

  /// Fault-layer injection points (see core/injection.hpp). Unset hooks
  /// leave the RNG stream and trajectory bit-for-bit unchanged. While a
  /// SchedulerBias is active the engine steps directly (batching and the
  /// skip-ahead law assume uniform pair sampling); a dropout predicate
  /// rules out batching only.
  void set_injection_hook(InjectionHook hook) override;
  void set_scheduler_bias(std::optional<SchedulerBias> bias) override;

  // -- Churn and corruption on counts (SimBackend) ---------------------------
  // Crashed agents leave the scheduled multiset with their state frozen.
  // Corruption draws its victims by exact multivariate-hypergeometric
  // sampling on the counts; rewrites that leave a victim's state unchanged
  // are applied as no-ops.
  std::uint64_t crash_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_random(std::uint64_t k, Rng& rng) override;
  std::uint64_t rejoin_all(Rng& rng) override;
  std::uint64_t crashed_count() const { return crashed_n_; }
  std::uint64_t mutate_random_agents(
      std::uint64_t k, Rng& rng,
      const std::function<State(State old_state, std::uint64_t j)>& f)
      override;

  /// Replace the scheduled population with `counts` (counts must sum to
  /// >= 2), keeping the RNG stream, time base, interaction/effective
  /// totals, crashed multiset, mode and telemetry intact. This is the
  /// cross-shard migration primitive of CountShardEngine: a re-deal swaps
  /// populations between sub-engines without perturbing any stream or
  /// clock. Clears the silent latch and all derived state (event list,
  /// species index). The next activation chooses its sampler exactly as a
  /// fresh engine with these counts would.
  void reset_population(
      const std::vector<std::pair<State, std::uint64_t>>& counts);

  std::uint64_t count_state(State s) const;
  std::uint64_t count_matching(const Guard& g) const override;
  std::uint64_t count_matching(const BoolExpr& e) const {
    return count_matching(Guard(e));
  }
  bool exists(const BoolExpr& e) const { return count_matching(e) > 0; }

  /// All species with nonzero count (scheduled agents only).
  std::vector<std::pair<State, std::uint64_t>> species() const override;
  /// Call f(state, count) for each species() entry, in the same order,
  /// without building the vector.
  template <class F>
  void for_each_species(F&& f) const {
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (counts_[i] > 0) f(states_[i], counts_[i]);
  }
  /// Crashed agents' frozen states, by species.
  std::vector<std::pair<State, std::uint64_t>> crashed_species() const;

  // -- Observability (src/observe/, DESIGN.md §7) ---------------------------
  /// Telemetry counter snapshot (cheap tier; skip-ahead jump statistics,
  /// churn/corruption tallies and cache builds included).
  EngineCounters counters() const override;
  /// Attach (or detach, with nullptr) a structured event sink for churn,
  /// corruption and run_until convergence events. Not owned.
  void set_event_trace(EventTrace* trace) override { trace_ = trace; }

  // -- Durable state (src/persist/, DESIGN.md §10) --------------------------
  /// Full-fidelity snapshot: the species table in its exact internal order
  /// (sample_species scans counts_ in order, so ordering is part of the
  /// trajectory), crashed multiset, RNG stream, mode/skip state, the
  /// time base, and counters. The event list, its total weight and the
  /// species index are derived and rebuilt before use; format v1's weight
  /// and window fields are carried for layout only.
  void snapshot(std::ostream& out) const override;
  /// All-or-nothing restore (see SimBackend::restore). Adopts the saved
  /// mode and population; hooks/traces/bias must be re-attached
  /// by the caller.
  void restore(std::istream& in) override;

  // -- SimBackend observables (core/sim_backend.hpp) ------------------------
  const char* backend_name() const override { return "count"; }
  std::uint64_t active_n() const override { return n_; }

  double rounds() const override { return time_; }
  std::uint64_t interactions() const override { return interactions_; }
  std::uint64_t effective_interactions() const { return effective_; }
  /// Scheduled (non-crashed) population size.
  std::uint64_t n() const { return n_; }
  bool silent() const { return silent_; }

 protected:
  EventTrace* event_trace() const override { return trace_; }

 private:
  // One state-changing (ordered species pair) event for skip-ahead; the
  // fused per-pair change weight replaces per-rule bookkeeping.
  struct Event {
    double weight;
    std::size_t species_a;
    std::size_t species_b;
  };

  // The sampler one activation uses.
  enum class Sampler { kDirect, kSkip, kBatch, kIdle };
  static constexpr std::size_t kNoSpecies = ~std::size_t{0};

  /// The single advance routine behind step() and run_rounds(): one
  /// activation of the mode's current sampler, never past `limit`, then
  /// due fault-schedule rounds fire.
  bool activate(double limit);
  /// The sampler policy: direct under a SchedulerBias (and in kDirect);
  /// otherwise rebuild the event list and take skip-ahead when W is below
  /// the skip threshold (32 / sqrt(n)) or a dropout hook forbids batching,
  /// a batch when not, and idle once W is 0 (silent).
  Sampler choose_sampler();
  /// Remove zero-count slots in place (order kept). A no-op unless some
  /// species went extinct; a removal drops the change-weight table.
  void compact();
  void direct_step();
  /// One geometric skip-ahead jump over the event list rebuild_events left,
  /// plus the effective interaction it lands on; a jump that would land past
  /// `limit` (or a draw past the 64-bit range) stops there instead.
  void skip_step(double limit);
  /// Advance to `limit` (one round if unbounded) as a run of no-ops.
  void idle(double limit);
  /// One batch of up to `limit`-capped interactions via collision sampling
  /// (DESIGN.md §9): a collision-free block of ~√n interactions drawn as
  /// aggregate species-pair counts plus its boundary collision interaction.
  void batch_step(double limit);
  /// slot_for(s), keeping the batch scratch vectors sized in lockstep.
  std::size_t batch_species_slot(State s);
  /// Apply `k` aggregated interactions of the ordered species pair (ia, ib)
  /// into the touched multiset; returns the number that changed state.
  std::uint64_t batch_apply_pair(std::size_t ia, std::size_t ib,
                                 std::uint64_t k);
  /// Process the single interaction that ended a collision-free run: at
  /// least one participant re-drawn from the `touched` multiset. Updates the
  /// caller's untouched/touched totals in place.
  void batch_collision_interaction(std::uint64_t* m_total,
                                   std::uint64_t* u_total);
  /// Rebuild the event list and its total weight W from the current counts.
  void rebuild_events();
  /// Apply one state-changing interaction to the ordered species pair,
  /// drawing from the conditional-on-change fused distribution.
  void apply_change(std::size_t ia, std::size_t ib);
  /// Resolve one interaction of the species pair (ia, ib) from the uniform
  /// draw `u` — a scheduler step, or with `change_only` a draw conditioned
  /// on a change — and move the two agents to their result species. Goes
  /// through the cache by interned index (no State hashing) unless a state
  /// is past the cache's cap. Returns whether any state changed.
  bool resolve_pair(std::size_t ia, std::size_t ib, double u, bool change_only);
  void add_count(State s, std::uint64_t delta);
  /// Slot of `s` in states_, appending a zero-count slot if new.
  std::size_t slot_for(State s);
  /// Same for a state given by a valid interned cache index.
  std::size_t slot_for_index(std::uint32_t x);
  /// Append a zero-count slot for `s` (interned index `x`, or kNoState).
  std::size_t append_slot(State s, std::uint32_t x);
  /// Empty the species table and everything indexed by slot.
  void clear_slots();
  /// Re-stride the change-weight table to cover every slot, keeping the
  /// filled entries (slots were appended since the last rebuild).
  void extend_change_weights();
  /// Mark every change-weight table entry unfilled (slot order changed).
  void drop_change_weights();
  void remove_count(std::size_t index, std::uint64_t delta);
  /// A uniformly chosen scheduled agent's species, optionally with one agent
  /// of species `exclude_one_of` left out (the initiator of a pair).
  std::size_t sample_species(std::size_t exclude_one_of = kNoSpecies);
  void maybe_fire_injection();

  const Protocol& protocol_;
  TransitionCache cache_;
  std::vector<State> states_;
  std::vector<std::uint64_t> counts_;
  // Interned cache index of each slot's state (TransitionCache::kNoState
  // past the cache's cap), and the inverse map from interned index to slot
  // (kNoSpecies for states without a slot). Past-cap states are found by a
  // scan of states_ instead.
  std::vector<std::uint32_t> slot_idx_;
  std::vector<std::size_t> slot_of_;
  // Per-slot change weights for rebuild_events: cw_[i * cw_stride_ + j] is
  // cache_.change_weight(states_[i], states_[j]), or kUnfilled. Entries are
  // filled lazily, only for pairs rebuild_events reaches with a positive
  // pair count, so the cache builds exactly the pairs a per-jump probe
  // would (its build count is snapshot state). rebuild_events extends the
  // table over slots appended since it last ran; anything that reorders
  // slots drops it. Entries of rows/columns >= states_.size() are always
  // unfilled.
  std::vector<double> cw_;
  std::size_t cw_stride_ = 0;
  std::uint64_t n_ = 0;
  Rng rng_;
  CountEngineMode mode_;
  bool use_skip_ = false;
  bool silent_ = false;
  std::uint64_t interactions_ = 0;
  std::uint64_t effective_ = 0;
  double time_ = 0.0;
  double last_injection_round_ = 0.0;
  // Telemetry tallies (interactions_/effective_ stay the master counts;
  // counters() merges them in).
  EngineCounters ctr_;
  // cache_builds accounting across restore (the cache survives a restore
  // un-serialized): counters() reports base + (cache_.builds() - floor).
  std::uint64_t cache_builds_base_ = 0;
  std::uint64_t cache_builds_floor_ = 0;
  EventTrace* trace_ = nullptr;
  InjectionHook injection_;
  std::optional<SchedulerBias> bias_;
  std::vector<std::pair<State, std::uint64_t>> crashed_;
  std::uint64_t crashed_n_ = 0;
  std::vector<Event> events_;
  double events_total_weight_ = 0.0;
  // Batch-mode scratch (sized to states_.size() inside batch_step; kept as
  // members so steady-state batches allocate nothing).
  std::vector<std::uint64_t> bat_touched_;
  std::vector<std::uint64_t> bat_di_;
  std::vector<std::uint64_t> bat_row_;
  std::vector<std::uint64_t> bat_out_;
  std::vector<double> bat_gap_;          // change-category masses
  std::vector<PairOutcome> bat_ores_;    // outcome snapshot (view-safe)
  std::vector<double> bat_cum_;          // by-value change-dist fallback
  std::vector<PairOutcome> bat_res_;
};

}  // namespace popproto
