// Engine telemetry counters (DESIGN.md §7).
//
// Two cost tiers:
//  * Cheap tier (always on): counters whose increments sit off the no-op
//    fast path — a step that changes no state touches none of them beyond
//    the pre-existing interaction count. Effective steps, cache builds,
//    value-path fallbacks, dropout vetoes, skip-ahead jumps and churn
//    events all live here; each increment rides a branch the engine was
//    already taking.
//  * Detailed tier (compile-gated by POPPROTO_PROFILE): per-draw counters
//    on the hot path itself (cache hit counting). Compiled out entirely in
//    normal builds so the steady-state interaction cost is unchanged.
//
// Both Engine and CountEngine expose `counters()` returning a filled-in
// snapshot of this struct; rates and derived quantities (no-op fraction,
// hit ratio) are computed by consumers, not stored.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace popproto {

struct EngineCounters {
  // -- Cheap tier (always on) ----------------------------------------------
  /// Scheduler interactions executed (skip-ahead no-ops included).
  std::uint64_t interactions = 0;
  /// Interactions that changed at least one agent state.
  std::uint64_t effective_steps = 0;
  /// Interactions vetoed by an InjectionHook::drop_interaction hook.
  std::uint64_t dropped_interactions = 0;
  /// Pair distributions built by the transition cache (first-sight misses).
  std::uint64_t cache_builds = 0;
  /// Interactions resolved by value because an interned index was missing
  /// (state cap reached, or a result state that could not be interned).
  std::uint64_t cache_fallbacks = 0;
  /// Skip-ahead jumps taken (CountEngine's skip-ahead sampler).
  std::uint64_t skip_jumps = 0;
  /// No-op interactions skipped over by those jumps (sum of jump lengths).
  std::uint64_t skipped_interactions = 0;
  /// Churn events applied (agents crashed / rejoined, fault layer).
  std::uint64_t crash_events = 0;
  std::uint64_t rejoin_events = 0;
  /// Agents whose state a corruption changed (mutate_random_agents, every
  /// backend); victims already in their target state are not counted.
  std::uint64_t corrupted_agents = 0;
  /// Collision-free blocks sampled by CountEngine's batch sampler; each
  /// block aggregates ~sqrt(n) interactions into O(species^2) draws.
  std::uint64_t batch_blocks = 0;
  /// Run-ending collision interactions resolved individually by the batch
  /// sampler.
  std::uint64_t batch_collisions = 0;

  // -- Detailed tier (0 unless built with POPPROTO_PROFILE) ----------------
  /// Indexed-path cache resolutions (per-draw hit counting).
  std::uint64_t cache_hits = 0;

  /// No-op interactions: executed but changed nothing (dropped ones count
  /// as no-ops too; skipped-over ones are *not* executed and excluded).
  std::uint64_t noop_steps() const {
    return interactions >= effective_steps + skipped_interactions
               ? interactions - effective_steps - skipped_interactions
               : 0;
  }

  /// Flat key/value view for the telemetry exporter (stable key names; the
  /// TELEMETRY_*.json schema in EXPERIMENTS.md lists them).
  std::vector<std::pair<std::string, double>> to_pairs() const {
    return {
        {"interactions", static_cast<double>(interactions)},
        {"effective_steps", static_cast<double>(effective_steps)},
        {"noop_steps", static_cast<double>(noop_steps())},
        {"dropped_interactions", static_cast<double>(dropped_interactions)},
        {"cache_builds", static_cast<double>(cache_builds)},
        {"cache_fallbacks", static_cast<double>(cache_fallbacks)},
        {"cache_hits", static_cast<double>(cache_hits)},
        {"skip_jumps", static_cast<double>(skip_jumps)},
        {"skipped_interactions", static_cast<double>(skipped_interactions)},
        {"crash_events", static_cast<double>(crash_events)},
        {"rejoin_events", static_cast<double>(rejoin_events)},
        {"corrupted_agents", static_cast<double>(corrupted_agents)},
        {"batch_blocks", static_cast<double>(batch_blocks)},
        {"batch_collisions", static_cast<double>(batch_collisions)},
    };
  }
};

}  // namespace popproto
