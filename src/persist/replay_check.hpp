// Deterministic replay verification (DESIGN.md §10).
//
// The snapshot contract is that a restored run is *bit-identical* to one
// that never stopped. replay_check() proves that for a concrete backend
// configuration:
//
//   reference:  make_backend() -> run k rounds -> snapshot S
//               -> attach trace -> run k more  -> observe final state
//   resumed:    make_backend() -> restore(S)
//               -> attach trace -> run k       -> observe final state
//
// and the two final observations must agree exactly: species vectors
// (State and count, bit for bit), parallel time (IEEE-754 bit pattern),
// interaction totals, telemetry counters, every EventTrace stamp pushed
// after the snapshot point, and the payload bytes of a second snapshot
// taken at the end (which covers all RNG stream states). The only fields
// excluded are the transition-cache warmth diagnostics (cache_builds /
// cache_fallbacks / cache_hits): caches are deliberately not serialized,
// so a resumed run re-learns pair bindings — with, by construction, no
// effect on the trajectory.
//
// replay_check_with_faults() runs the same protocol with a FaultInjector
// attached, snapshotting and restoring the injector alongside the engine,
// and additionally requires the applied-fault logs to match exactly — the
// restored run must replay the *remaining* fault schedule, not restart it.
//
// Used by tests/persist_test.cpp, tools/replay_check_main.cpp, and the CI
// replay-determinism smoke job.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "faults/fault_plan.hpp"
#include "observe/counters.hpp"

namespace popproto {

class SimBackend;

struct ReplayCheckResult {
  bool ok = false;
  /// First divergence found, empty when ok. One check per line when several
  /// fail.
  std::string detail;
  /// Parallel time at which the mid-run snapshot was taken.
  double snapshot_rounds = 0.0;
  /// Size of the mid-run snapshot in bytes.
  std::uint64_t snapshot_bytes = 0;
  /// The reference run's counters at the snapshot and at the end; their
  /// difference shows which samplers the replayed stretch exercised.
  EngineCounters snapshot_counters;
  EngineCounters final_counters;
};

/// Factory producing identically configured backends (same protocol object,
/// initial configuration, seed, and engine parameters). Called twice.
using BackendFactory = std::function<std::unique_ptr<SimBackend>()>;

/// Run the snapshot/restore replay experiment described above: k rounds,
/// snapshot, k more rounds vs. restore + k rounds. Bit-exact or it fails.
ReplayCheckResult replay_check(const BackendFactory& make_backend,
                               double k_rounds);

/// Same, with a fault schedule attached (injector seeded with fault_seed on
/// the reference run; the resumed run's injector state comes entirely from
/// the snapshot). The applied-fault logs must also match bit for bit.
ReplayCheckResult replay_check_with_faults(const BackendFactory& make_backend,
                                           double k_rounds,
                                           const FaultPlan& plan,
                                           std::uint64_t fault_seed);

}  // namespace popproto
