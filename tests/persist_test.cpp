// Snapshot/restore + deterministic replay (src/persist/, DESIGN.md §10).
//
// Coverage map:
//  * bit-identical replay per backend via replay_check(): Engine
//    (sequential + random matching), CountEngine in all four modes, and
//    BatchEngine at t = 1, 2, 4 shards;
//  * RNG stream restore regression: BatchEngine's split per-shard streams
//    and migration stream compare equal generator-state-for-generator-state;
//  * mid-buffer snapshots: a snapshot taken while bulk-draw read-ahead is
//    pending restores bit-identically (all four backends, counters-section
//    exempt like replay_check);
//  * malformed snapshots: truncations, a fuzz loop of single-byte flips,
//    wrong magic/version/backend/fingerprint, shard-count mismatch — every
//    one throws a typed SnapshotError and leaves the target engine
//    bit-for-bit untouched;
//  * FaultPlan and EngineCounters serialization round-trips;
//  * fault-schedule resume: replay_check_with_faults() proves a restored
//    injector replays the *remaining* schedule (not a fresh one);
//  * AutoCheckpoint: tick cadence, atomic write + load, missing-file and
//    injector-flag handling.
#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clocks/oscillator.hpp"
#include "clocks/phase_clock.hpp"
#include "core/batch_engine.hpp"
#include "core/count_engine.hpp"
#include "core/count_shard_engine.hpp"
#include "core/engine.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "persist/checkpoint.hpp"
#include "persist/replay_check.hpp"
#include "persist/snapshot.hpp"
#include "protocols/baselines.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace popproto {
namespace {

// -- Factories ---------------------------------------------------------------

struct ClockFixture {
  std::shared_ptr<VarSpace> vars = make_var_space();
  Protocol proto = make_phase_clock_protocol(vars);
  std::vector<State> init;
  explicit ClockFixture(std::size_t n)
      : init(phase_clock_initial_states(n, n >> 6 ? n >> 6 : 1, *vars)) {}

  BackendFactory agent(std::uint64_t seed,
                       SchedulerKind sched = SchedulerKind::kSequential) const {
    return [this, seed, sched] {
      return std::make_unique<Engine>(proto, init, seed, sched);
    };
  }
  BackendFactory batch(std::uint64_t seed, unsigned threads) const {
    return [this, seed, threads] {
      BatchEngine::Params params;
      params.threads = threads;
      params.min_shard = 256;  // keep t=4 genuinely 4-sharded at small n
      return std::make_unique<BatchEngine>(proto, init, seed, params);
    };
  }
};

struct MajorityFixture {
  std::shared_ptr<VarSpace> vars = make_var_space();
  Protocol proto = make_approximate_majority_protocol(vars);
  State a = var_bit(*vars->find("BA"));
  State b = var_bit(*vars->find("BB"));
  std::uint64_t n;
  explicit MajorityFixture(std::uint64_t population) : n(population) {}

  BackendFactory count(std::uint64_t seed, CountEngineMode mode) const {
    return [this, seed, mode] {
      return std::make_unique<CountEngine>(
          proto,
          std::vector<std::pair<State, std::uint64_t>>{{a, n / 2},
                                                       {b, n - n / 2}},
          seed, mode);
    };
  }
};

std::string snapshot_bytes(const SimBackend& backend) {
  std::ostringstream out;
  backend.snapshot(out);
  return out.str();
}

void restore_bytes(SimBackend& backend, const std::string& bytes) {
  std::istringstream in(bytes);
  backend.restore(in);
}

// -- Replay determinism per backend ------------------------------------------

TEST(ReplayCheck, AgentEngineSequential) {
  ClockFixture fx(2048);
  const ReplayCheckResult r = replay_check(fx.agent(7), 12.0);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.snapshot_bytes, 0u);
  EXPECT_GE(r.snapshot_rounds, 12.0);
}

TEST(ReplayCheck, AgentEngineRandomMatching) {
  ClockFixture fx(2048);
  const ReplayCheckResult r =
      replay_check(fx.agent(11, SchedulerKind::kRandomMatching), 12.0);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(ReplayCheck, CountEngineAllModes) {
  // The default policy at a size where it skips (2^12) and where it batches
  // (2^18); each run must replay the sampler the size calls for.
  const MajorityFixture small(4096);
  const MajorityFixture large(1 << 18);
  ReplayCheckResult r = replay_check(small.count(7, CountEngineMode::kDirect),
                                     16.0);
  EXPECT_TRUE(r.ok) << "direct: " << r.detail;

  r = replay_check(small.count(7, CountEngineMode::kAdaptive), 16.0);
  EXPECT_TRUE(r.ok) << "adaptive 2^12: " << r.detail;
  EXPECT_EQ(r.final_counters.batch_blocks, 0u);
  EXPECT_GT(r.final_counters.skip_jumps, r.snapshot_counters.skip_jumps);

  r = replay_check(large.count(7, CountEngineMode::kAdaptive), 4.0);
  EXPECT_TRUE(r.ok) << "adaptive 2^18: " << r.detail;
  EXPECT_GT(r.final_counters.batch_blocks, r.snapshot_counters.batch_blocks);
}

TEST(ReplayCheck, BatchEngineShardLadder) {
  ClockFixture fx(4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    const ReplayCheckResult r = replay_check(fx.batch(7, threads), 8.0);
    EXPECT_TRUE(r.ok) << "t=" << threads << ": " << r.detail;
  }
}

// Restore overwrites whatever state the target had accumulated — it is a
// substitution, not a merge.
TEST(Restore, OverwritesARunningEngine) {
  ClockFixture fx(1024);
  auto ref = fx.agent(7)();
  ref->run_rounds(6.0);
  const std::string snap = snapshot_bytes(*ref);

  auto target = fx.agent(99)();  // different seed, different trajectory
  target->run_rounds(20.0);
  restore_bytes(*target, snap);
  EXPECT_EQ(target->species(), ref->species());
  EXPECT_EQ(target->interactions(), ref->interactions());
  EXPECT_EQ(snapshot_bytes(*target), snap);
}

// -- RNG stream restore regression (satellite 2) -----------------------------

TEST(RngStreams, BatchEngineSplitStreamsRestoreExactly) {
  ClockFixture fx(4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchEngine::Params params;
    params.threads = threads;
    params.min_shard = 256;
    BatchEngine ref(fx.proto, fx.init, /*seed=*/7, params);
    ref.run_rounds(6.0);
    const std::string snap = snapshot_bytes(ref);

    BatchEngine res(fx.proto, fx.init, /*seed=*/7, params);
    ASSERT_EQ(res.shards(), ref.shards()) << "t=" << threads;
    // Advance the target so its streams visibly differ before the restore.
    res.run_rounds(2.0);
    restore_bytes(res, snap);

    EXPECT_EQ(res.migration_rng(), ref.migration_rng())
        << "t=" << threads << " migration stream: "
        << rng_state_hex(res.migration_rng()) << " vs "
        << rng_state_hex(ref.migration_rng());
    for (std::size_t s = 0; s < ref.shards(); ++s) {
      EXPECT_EQ(res.shard_rng(s), ref.shard_rng(s))
          << "t=" << threads << " shard " << s << ": "
          << rng_state_hex(res.shard_rng(s)) << " vs "
          << rng_state_hex(ref.shard_rng(s));
    }
  }
}

// -- Mid-buffer snapshots (bulk-draw read-ahead, DESIGN.md §13) --------------
// The buffered engines' raw generators run AHEAD of the draws actually
// consumed; snapshots must serialize the logical position so a snapshot
// taken mid-buffer restores bit-identically. Protocol: run to an arbitrary
// point, snapshot, restore into a diverged instance, advance both equally,
// and require byte-equal snapshots on every section except kCounters —
// cache-warmth counters legitimately differ after a restore (caches are
// derived state, relearned lazily), the same convention replay_check uses.

std::string snapshot_sans_counters(const SimBackend& backend) {
  const std::string bytes = snapshot_bytes(backend);
  BinReader r(bytes);
  std::string out;
  BinWriter w(out);
  w.u32(r.u32());  // magic
  w.u32(r.u32());  // version
  for (;;) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t len = r.u64();
    const std::uint32_t crc = r.u32();
    std::string payload;
    for (std::uint64_t i = 0; i < len; ++i)
      payload.push_back(static_cast<char>(r.u8()));
    if (tag != static_cast<std::uint32_t>(SnapshotSection::kCounters)) {
      w.u32(tag);
      w.u64(len);
      w.u32(crc);
      for (const char ch : payload) w.u8(static_cast<std::uint8_t>(ch));
    }
    if (tag == static_cast<std::uint32_t>(SnapshotSection::kEnd)) return out;
  }
}

TEST(MidBufferSnapshot, AgentEngineRestoresBitIdentically) {
  ClockFixture fx(2048);
  Engine ref(fx.proto, fx.init, /*seed=*/7);
  // The plain run_steps loop is the (only) buffered consumer; a step count
  // that is no multiple of the refill size lands mid-buffer.
  ref.run_steps(5001);
  ASSERT_GT(ref.rng_buffer_pending(), 0u)
      << "step count landed on a refill boundary; the test needs read-ahead";
  const std::string snap = snapshot_bytes(ref);
  const std::string sans = snapshot_sans_counters(ref);

  Engine res(fx.proto, fx.init, /*seed=*/99);  // diverged target
  res.run_steps(1234);
  restore_bytes(res, snap);
  EXPECT_EQ(snapshot_sans_counters(res), sans);

  ref.run_steps(4321);
  res.run_steps(4321);
  EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref));
  EXPECT_EQ(res.species(), ref.species());
}

TEST(MidBufferSnapshot, BatchEngineRestoresBitIdentically) {
  ClockFixture fx(4096);
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchEngine::Params params;
    params.threads = threads;
    params.min_shard = 256;
    BatchEngine ref(fx.proto, fx.init, /*seed=*/7, params);
    ref.run_rounds(5.0);  // per-shard buffers sit mid-refill generically
    const std::string snap = snapshot_bytes(ref);
    const std::string sans = snapshot_sans_counters(ref);

    BatchEngine res(fx.proto, fx.init, /*seed=*/7, params);
    res.run_rounds(2.0);
    restore_bytes(res, snap);
    EXPECT_EQ(snapshot_sans_counters(res), sans) << "t=" << threads;

    ref.run_rounds(6.0);
    res.run_rounds(6.0);
    EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref))
        << "t=" << threads;
    EXPECT_EQ(res.species(), ref.species()) << "t=" << threads;
  }
}

// The count backends hold no read-ahead, but the same continue-and-compare
// protocol pins the full four-backend matrix the replay contract covers. At
// n = 2^18 the default policy batches on both sides of the snapshot, and the
// fractional run lengths truncate batches at the run targets.
TEST(MidBufferSnapshot, CountEngineRestoresBitIdentically) {
  MajorityFixture fx(1 << 18);
  const std::vector<std::pair<State, std::uint64_t>> init = {
      {fx.a, fx.n / 2}, {fx.b, fx.n / 2}};
  CountEngine ref(fx.proto, init, /*seed=*/7);
  ref.run_rounds(2.5);
  const std::uint64_t blocks_at_snapshot = ref.counters().batch_blocks;
  ASSERT_GT(blocks_at_snapshot, 0u);
  const std::string snap = snapshot_bytes(ref);
  const std::string sans = snapshot_sans_counters(ref);

  CountEngine res(fx.proto, init, /*seed=*/31);
  res.run_rounds(1.0);
  restore_bytes(res, snap);
  EXPECT_EQ(snapshot_sans_counters(res), sans);

  ref.run_rounds(1.75);
  res.run_rounds(1.75);
  EXPECT_GT(ref.counters().batch_blocks, blocks_at_snapshot);
  EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref));
}

// Four shards of 2^18 agents, so every shard batches.
TEST(MidBufferSnapshot, CountShardEngineRestoresBitIdentically) {
  MajorityFixture fx(1 << 20);
  const std::vector<std::pair<State, std::uint64_t>> init = {
      {fx.a, fx.n / 2}, {fx.b, fx.n / 2}};
  CountShardEngine::Params params;
  params.shards = 4;
  params.min_shard = 256;
  CountShardEngine ref(fx.proto, init, /*seed=*/7, params);
  ref.run_rounds(3.0);
  const std::uint64_t blocks_at_snapshot = ref.counters().batch_blocks;
  ASSERT_GT(blocks_at_snapshot, 0u);
  const std::string snap = snapshot_bytes(ref);
  const std::string sans = snapshot_sans_counters(ref);

  CountShardEngine res(fx.proto, init, /*seed=*/7, params);
  res.run_rounds(1.0);
  restore_bytes(res, snap);
  EXPECT_EQ(snapshot_sans_counters(res), sans);

  ref.run_rounds(2.5);
  res.run_rounds(2.5);
  EXPECT_GT(ref.counters().batch_blocks, blocks_at_snapshot);
  EXPECT_EQ(snapshot_sans_counters(res), snapshot_sans_counters(ref));
}

// -- Malformed snapshots (satellite 3) ---------------------------------------

/// Expect `bytes` to be rejected with a SnapshotError (optionally a specific
/// code) and the target left bit-for-bit unchanged.
void expect_rejected(SimBackend& target, const std::string& bytes,
                     const SnapshotErrc* expected_code,
                     const std::string& what) {
  const std::string before = snapshot_bytes(target);
  try {
    restore_bytes(target, bytes);
    FAIL() << what << ": corrupted snapshot was accepted";
  } catch (const SnapshotError& e) {
    if (expected_code) {
      EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(*expected_code))
          << what << ": wrong error code (" << snapshot_errc_name(e.code())
          << ": " << e.what() << ")";
    }
  } catch (...) {
    FAIL() << what << ": threw something other than SnapshotError";
  }
  EXPECT_EQ(snapshot_bytes(target), before) << what << ": target was mutated";
}

/// `bytes` with one section's payload rewritten by `edit` and its CRC
/// re-sealed, every other byte as written.
std::string with_section_edited(const std::string& bytes,
                                SnapshotSection section,
                                const std::function<void(std::string&)>& edit) {
  BinReader r(bytes);
  std::string out;
  BinWriter w(out);
  w.u32(r.u32());  // magic
  w.u32(r.u32());  // version
  for (;;) {
    const std::uint32_t tag = r.u32();
    const std::uint64_t len = r.u64();
    std::uint32_t crc = r.u32();
    std::string payload;
    for (std::uint64_t i = 0; i < len; ++i)
      payload.push_back(static_cast<char>(r.u8()));
    if (tag == static_cast<std::uint32_t>(section)) {
      edit(payload);
      crc = crc32(payload);
    }
    w.u32(tag);
    w.u64(payload.size());
    w.u32(crc);
    for (const char ch : payload) w.u8(static_cast<std::uint8_t>(ch));
    if (tag == static_cast<std::uint32_t>(SnapshotSection::kEnd)) return out;
  }
}

TEST(MalformedSnapshot, TruncationsAlwaysThrow) {
  ClockFixture fx(512);
  auto src = fx.agent(7)();
  src->run_rounds(4.0);
  const std::string snap = snapshot_bytes(*src);
  auto target = fx.agent(7)();

  const SnapshotErrc trunc = SnapshotErrc::kTruncated;
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{4}, std::size_t{7},
        snap.size() / 3, snap.size() / 2, snap.size() - 1}) {
    // Truncating mid-payload can also surface as a checksum / corrupt
    // failure depending on where the cut lands; "typed error, target
    // untouched" is the contract.
    expect_rejected(*target, snap.substr(0, len),
                    len < 8 ? &trunc : nullptr,
                    "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST(MalformedSnapshot, HeaderFieldRejections) {
  ClockFixture fx(512);
  auto src = fx.agent(7)();
  src->run_rounds(4.0);
  const std::string snap = snapshot_bytes(*src);
  auto target = fx.agent(7)();

  std::string bad_magic = snap;
  bad_magic[0] ^= 0x5a;
  const SnapshotErrc magic = SnapshotErrc::kBadMagic;
  expect_rejected(*target, bad_magic, &magic, "flipped magic");

  std::string bad_version = snap;
  bad_version[4] = 0x7f;
  const SnapshotErrc version = SnapshotErrc::kBadVersion;
  expect_rejected(*target, bad_version, &version, "future format version");
}

TEST(MalformedSnapshot, FlippedCrcByteThrowsBadChecksum) {
  ClockFixture fx(512);
  auto src = fx.agent(7)();
  src->run_rounds(4.0);
  const std::string snap = snapshot_bytes(*src);
  auto target = fx.agent(7)();

  // The first section starts right after the 8-byte header: u32 tag,
  // u64 len, u32 crc — flip a byte of the CRC field itself.
  std::string bad = snap;
  bad[8 + 4 + 8] ^= 0x01;
  const SnapshotErrc checksum = SnapshotErrc::kBadChecksum;
  expect_rejected(*target, bad, &checksum, "flipped CRC byte");
}

TEST(MalformedSnapshot, WrongBackendAndWrongProtocol) {
  MajorityFixture maj(512);
  auto count_src = maj.count(7, CountEngineMode::kDirect)();
  count_src->run_rounds(4.0);

  ClockFixture clock(512);
  auto agent_target = clock.agent(7)();
  const SnapshotErrc backend = SnapshotErrc::kBadBackend;
  expect_rejected(*agent_target, snapshot_bytes(*count_src), &backend,
                  "count snapshot into agent engine");

  // Same substrate, different protocol: fingerprint mismatch.
  auto clock_src = clock.agent(7)();
  clock_src->run_rounds(4.0);
  Engine osc_target(maj.proto, std::vector<State>(512, maj.a), /*seed=*/7);
  const SnapshotErrc fp = SnapshotErrc::kBadFingerprint;
  expect_rejected(osc_target, snapshot_bytes(*clock_src), &fp,
                  "phase-clock snapshot into majority engine");
}

TEST(MalformedSnapshot, BatchShardCountMismatch) {
  ClockFixture fx(4096);
  auto src = fx.batch(7, 2)();
  src->run_rounds(4.0);
  auto target = fx.batch(7, 4)();
  const SnapshotErrc mismatch = SnapshotErrc::kConfigMismatch;
  expect_rejected(*target, snapshot_bytes(*src), &mismatch,
                  "t=2 snapshot into t=4 engine");
}

TEST(MalformedSnapshot, CountEngineFixedBatchCapRejected) {
  // Format v1 keeps a batch-cap field in the count engine's core section;
  // the cap is automatic now, so only 0 restores.
  MajorityFixture fx(512);
  auto src = fx.count(7, CountEngineMode::kAdaptive)();
  src->run_rounds(4.0);
  const std::string capped = with_section_edited(
      snapshot_bytes(*src), SnapshotSection::kCore, [](std::string& core) {
        // mode, cache flag, skip flag, silent flag, then the u64 cap.
        core[4] = 64;
      });
  auto target = fx.count(9, CountEngineMode::kAdaptive)();
  const SnapshotErrc mismatch = SnapshotErrc::kConfigMismatch;
  expect_rejected(*target, capped, &mismatch, "batch cap 64");
}

TEST(MalformedSnapshot, CountEngineUnknownModeRejected) {
  // Mode bytes 0 (direct) to 3 (the policy) restore; 1 and 2 are retired
  // modes that restore into the policy. Anything past 3 is corrupt.
  MajorityFixture fx(512);
  auto src = fx.count(7, CountEngineMode::kAdaptive)();
  src->run_rounds(4.0);
  for (const std::uint8_t mode : {std::uint8_t{4}, std::uint8_t{0xff}}) {
    const std::string bad = with_section_edited(
        snapshot_bytes(*src), SnapshotSection::kCore,
        [&](std::string& core) { core[0] = static_cast<char>(mode); });
    auto target = fx.count(9, CountEngineMode::kAdaptive)();
    const SnapshotErrc corrupt = SnapshotErrc::kCorrupt;
    expect_rejected(*target, bad, &corrupt,
                    "mode byte " + std::to_string(mode));
  }
}

TEST(MalformedSnapshot, ByteFlipFuzz) {
  // Flip one byte at a time at pseudo-random offsets across a valid
  // snapshot of each backend. Every flip must be rejected with a typed
  // error (payload flips by CRC, framing flips by the structural checks)
  // and must leave the target untouched. Seeded mt19937 keeps failures
  // reproducible.
  ClockFixture clock(512);
  MajorityFixture maj(512);
  auto agent = clock.agent(7)();
  auto count = maj.count(7, CountEngineMode::kAdaptive)();
  auto batch = clock.batch(7, 2)();
  struct Case {
    const char* label;
    SimBackend* backend;
  };
  for (const Case c : {Case{"agent", agent.get()}, Case{"count", count.get()},
                       Case{"batch", batch.get()}}) {
    c.backend->run_rounds(4.0);
    const std::string snap = snapshot_bytes(*c.backend);
    std::mt19937 prng(1234);
    std::uniform_int_distribution<std::size_t> pick_offset(0, snap.size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    for (int trial = 0; trial < 120; ++trial) {
      const std::size_t off = pick_offset(prng);
      std::string bad = snap;
      bad[off] ^= static_cast<char>(1 << pick_bit(prng));
      expect_rejected(*c.backend, bad, nullptr,
                      std::string(c.label) + " flip at offset " +
                          std::to_string(off));
    }
  }
}

// -- Serialization round-trips -----------------------------------------------

TEST(Serialization, CountersRoundTrip) {
  EngineCounters c;
  c.interactions = 1;
  c.effective_steps = 2;
  c.dropped_interactions = 3;
  c.cache_builds = 4;
  c.cache_fallbacks = 5;
  c.skip_jumps = 6;
  c.skipped_interactions = 7;
  c.crash_events = 8;
  c.rejoin_events = 9;
  c.corrupted_agents = 10;
  c.batch_blocks = 11;
  c.batch_collisions = 12;
  c.cache_hits = 13;

  std::string bytes;
  BinWriter w(bytes);
  serialize_counters(w, c);
  BinReader r(bytes);
  const EngineCounters d = deserialize_counters(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(d.interactions, c.interactions);
  EXPECT_EQ(d.effective_steps, c.effective_steps);
  EXPECT_EQ(d.dropped_interactions, c.dropped_interactions);
  EXPECT_EQ(d.cache_builds, c.cache_builds);
  EXPECT_EQ(d.cache_fallbacks, c.cache_fallbacks);
  EXPECT_EQ(d.skip_jumps, c.skip_jumps);
  EXPECT_EQ(d.skipped_interactions, c.skipped_interactions);
  EXPECT_EQ(d.crash_events, c.crash_events);
  EXPECT_EQ(d.rejoin_events, c.rejoin_events);
  EXPECT_EQ(d.corrupted_agents, c.corrupted_agents);
  EXPECT_EQ(d.batch_blocks, c.batch_blocks);
  EXPECT_EQ(d.batch_collisions, c.batch_collisions);
  EXPECT_EQ(d.cache_hits, c.cache_hits);
}

TEST(Serialization, FaultPlanRoundTrip) {
  // One event of every kind, exercising every spec payload: palettes,
  // masks, Bernoulli windows, rejoin-all, and a bias window with a compiled
  // guard.
  FaultPlan plan;
  plan.corrupt_at(3.0, CorruptSpec{.fraction = 0.0,
                                   .count = 17,
                                   .mode = CorruptMode::kSpread,
                                   .fixed_state = 0,
                                   .palette = {1, 2, 3},
                                   .mask = 0xff});
  plan.crash_bernoulli(0.25, 2.0, 9.0, CrashSpec{.fraction = 0.01, .count = 0});
  plan.rejoin_at(12.0, RejoinSpec{.fraction = 0.0, .count = 0, .all = true});
  plan.dropout_window(1.0, 5.0, 0.125);
  SchedulerBias bias;
  bias.epsilon = 0.5;
  bias.prefer = Guard::from_minterms(false, {{0x3, 0x1}});
  bias.tries = 6;
  plan.bias_window(4.0, 8.0, bias);

  std::string bytes;
  BinWriter w(bytes);
  serialize_fault_plan(w, plan);
  BinReader r(bytes);
  const FaultPlan back = deserialize_fault_plan(r);
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(back.size(), plan.size());

  // Re-serialize: byte equality is the cleanest whole-struct comparison.
  std::string bytes2;
  BinWriter w2(bytes2);
  serialize_fault_plan(w2, back);
  EXPECT_EQ(bytes2, bytes);
}

TEST(Serialization, FaultPlanRejectsPalettelessRandomCorrupt) {
  FaultPlan plan;
  plan.corrupt_at(1.0, CorruptSpec{.fraction = 0.1,
                                   .count = 0,
                                   .mode = CorruptMode::kRandom,
                                   .fixed_state = 0,
                                   .palette = {4},
                                   .mask = ~State{0}});
  std::string bytes;
  BinWriter w(bytes);
  serialize_fault_plan(w, plan);
  // Surgically empty the palette: find the u64 palette length (1) — it is
  // the only place this plan stores a vector — easier to just rebuild the
  // plan with an empty palette via from_events and serialize that.
  FaultEvent ev = plan.events()[0];
  ev.corrupt.palette.clear();
  std::string bad;
  BinWriter wb(bad);
  serialize_fault_plan(wb, FaultPlan::from_events({ev}));
  BinReader r(bad);
  EXPECT_THROW(deserialize_fault_plan(r), SnapshotError);
}

// -- Fault-schedule resume (satellite 1) -------------------------------------

FaultPlan churn_plan() {
  FaultPlan plan;
  plan.crash_at(6.0, CrashSpec{.fraction = 0.05, .count = 0});
  plan.dropout_window(4.0, 18.0, 0.1);
  plan.crash_bernoulli(0.5, 8.0, 20.0, CrashSpec{.fraction = 0.0, .count = 3});
  plan.rejoin_at(15.0, RejoinSpec{.fraction = 0.0, .count = 0, .all = true});
  plan.corrupt_at(14.0, CorruptSpec{.fraction = 0.02,
                                    .count = 0,
                                    .mode = CorruptMode::kFixed,
                                    .fixed_state = 0,
                                    .palette = {},
                                    .mask = 0x1});
  return plan;
}

TEST(FaultResume, AgentEngineReplaysRemainingSchedule) {
  ClockFixture fx(2048);
  const ReplayCheckResult r =
      replay_check_with_faults(fx.agent(7), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, CountEngineReplaysRemainingSchedule) {
  MajorityFixture fx(4096);
  const ReplayCheckResult r = replay_check_with_faults(
      fx.count(7, CountEngineMode::kDirect), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, BatchEngineReplaysRemainingSchedule) {
  ClockFixture fx(4096);
  const ReplayCheckResult r =
      replay_check_with_faults(fx.batch(7, 2), 10.0, churn_plan(), 42);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(FaultResume, InjectorSnapshotRejectsCorruption) {
  ClockFixture fx(1024);
  auto eng = fx.agent(7)();
  FaultInjector injector(churn_plan(), 42);
  injector.attach(*eng);
  eng->run_rounds(10.0);

  std::ostringstream out;
  injector.snapshot(out);
  const std::string snap = out.str();

  auto target_eng = fx.agent(7)();
  FaultInjector target(churn_plan(), 43);
  std::mt19937 prng(99);
  std::uniform_int_distribution<std::size_t> pick(0, snap.size() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    std::string bad = snap;
    bad[pick(prng)] ^= 0x10;
    std::istringstream in(bad);
    EXPECT_THROW(target.restore(in, *target_eng), SnapshotError);
  }
}

// -- AutoCheckpoint (tentpole harness plumbing) ------------------------------

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(AutoCheckpoint, TickCadenceAndLoad) {
  const std::string path = temp_path("popproto_ckpt_cadence.bin");
  std::remove(path.c_str());

  ClockFixture fx(1024);
  auto eng = fx.agent(7)();
  AutoCheckpoint ckpt(*eng, {/*every_rounds=*/4.0, path});
  EXPECT_FALSE(ckpt.tick());  // nothing accumulated yet

  std::uint64_t ticks = 0;
  for (int i = 0; i < 12; ++i) {
    eng->run_rounds(1.0);
    if (ckpt.tick()) ++ticks;
  }
  EXPECT_EQ(ticks, 3u);  // every 4 rounds over 12
  EXPECT_EQ(ckpt.checkpoints_written(), 3u);

  auto restored = fx.agent(7)();
  ASSERT_TRUE(AutoCheckpoint::load(path, *restored));
  // The last checkpoint fired at the last tick: identical state.
  EXPECT_EQ(restored->species(), eng->species());
  EXPECT_EQ(restored->interactions(), eng->interactions());
  std::remove(path.c_str());
}

TEST(AutoCheckpoint, MissingFileReturnsFalse) {
  ClockFixture fx(512);
  auto eng = fx.agent(7)();
  EXPECT_FALSE(
      AutoCheckpoint::load(temp_path("popproto_ckpt_missing.bin"), *eng));
}

TEST(AutoCheckpoint, InjectorFlagRoundTripAndMismatch) {
  const std::string path = temp_path("popproto_ckpt_faults.bin");
  std::remove(path.c_str());

  ClockFixture fx(1024);
  auto eng = fx.agent(7)();
  FaultInjector injector(churn_plan(), 42);
  injector.attach(*eng);
  eng->run_rounds(10.0);
  AutoCheckpoint ckpt(*eng, {4.0, path}, &injector);
  ckpt.write_now();

  // Loading without an injector must refuse (the checkpoint carries fault
  // state) and leave the engine untouched.
  auto plain = fx.agent(7)();
  const std::string before = snapshot_bytes(*plain);
  try {
    AutoCheckpoint::load(path, *plain);
    FAIL() << "injector-bearing checkpoint accepted without an injector";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(SnapshotErrc::kConfigMismatch));
  }
  EXPECT_EQ(snapshot_bytes(*plain), before);

  // With an injector supplied, the pair resumes onto the reference
  // trajectory.
  auto resumed_eng = fx.agent(7)();
  FaultInjector resumed_injector(churn_plan(), 43);
  ASSERT_TRUE(AutoCheckpoint::load(path, *resumed_eng, &resumed_injector));
  eng->run_rounds(8.0);
  resumed_eng->run_rounds(8.0);
  EXPECT_EQ(resumed_eng->species(), eng->species());
  EXPECT_EQ(resumed_eng->interactions(), eng->interactions());
  ASSERT_EQ(resumed_injector.log().size(), injector.log().size());
  for (std::size_t i = 0; i < injector.log().size(); ++i) {
    EXPECT_EQ(static_cast<int>(resumed_injector.log()[i].kind),
              static_cast<int>(injector.log()[i].kind));
    EXPECT_EQ(resumed_injector.log()[i].affected, injector.log()[i].affected);
  }
  std::remove(path.c_str());
}

// Restored counters() stays exact even though transition caches are
// deliberately not serialized: the saved totals seed a base and new builds
// accumulate on top (never double-counted, never lost).
TEST(Restore, CacheBuildCountersStayMonotonic) {
  ClockFixture fx(1024);
  auto ref = fx.agent(7)();
  ref->run_rounds(8.0);
  const EngineCounters at_snap = ref->counters();
  const std::string snap = snapshot_bytes(*ref);

  auto res = fx.agent(7)();
  restore_bytes(*res, snap);
  EXPECT_EQ(res->counters().cache_builds, at_snap.cache_builds);
  res->run_rounds(8.0);
  // The resumed run relearns pair bindings, so builds grow past the saved
  // total; the trajectory-relevant counters still match the reference.
  EXPECT_GE(res->counters().cache_builds, at_snap.cache_builds);
}

// -- Format v1 snapshots with the kernel-cache flag off -----------------------
// Written by an earlier build, from engines whose memoized kernel was
// switched off (core flag 0). Restore ignores the flag — both kernels map
// every draw to the same outcome — and the replay after it must match the
// recorded snapshot of that earlier build's engine continuing with the
// kernel on.

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

// make_approximate_majority_protocol, CountEngine over {BA: 40, BB: 24},
// seed 11, three rounds, in the retired auto mode (mode byte 2). It now
// continues under the sampler policy; the CRC below pins that continuation.
const char* const kUncachedCountV1 =
    "5050533101000000010000001d000000000000009f2e2d160500000000000000"
    "636f756e7429f71ebf41f7ffcb4000000000000000020000003c000000000000"
    "00aaa6a42c0200000000000000000000000000000000000840c0000000000000"
    "001300000000000000c000000000000000130000000000000000000000000000"
    "000300000058000000000000004338395d400000000000000003000000000000"
    "0001000000000000000200000000000000000000000000000003000000000000"
    "00240000000000000011000000000000000b0000000000000000000000000000"
    "0000000000000000000400000028000000000000007d5931c901000000000000"
    "00b9dbe0996eb16db7676f9a1f70f0d63c27e844fd2fc28acf0ab400d9555329"
    "e9050000006800000000000000852ee080c00000000000000013000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000";

// Written by the engine that still had the skip-ahead-only and auto modes
// (mode bytes 1 and 2), both with skip-ahead engaged:
// make_approximate_majority_protocol over {BA: 40, BB: 24}, seed 11, three
// rounds in skip mode; and over {BA: 200, BB: 56}, seed 5, six rounds in
// auto mode.
const char* const kRetiredSkipModeCountV1 =
    "5050533101000000010000001d000000000000009f2e2d160500000000000000"
    "636f756e7429f71ebf41f7ffcb4000000000000000020000003c000000000000"
    "00551c96a00101010000000000000000000000000000000840c0000000000000"
    "00140000000000000000000000000000000000000000000000711cc7711cc7bb"
    "3f030000005800000000000000ee7d25f8400000000000000003000000000000"
    "0001000000000000000200000000000000000000000000000003000000000000"
    "0023000000000000000f000000000000000e0000000000000000000000000000"
    "00000000000000000004000000280000000000000085f2204901000000000000"
    "00c088cce1cac64b8eb1b59823395a4217f49aa4e8cb46487cff0d6a27f88962"
    "e3050000006800000000000000a4c6d9c2c00000000000000014000000000000"
    "0000000000000000000900000000000000000000000000000015000000000000"
    "00ac000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000";
const char* const kRetiredAutoModeCountV1 =
    "5050533101000000010000001d00000000000000c6e7c7990500000000000000"
    "636f756e7429f71ebf41f7ffcb0001000000000000020000003c000000000000"
    "00a6ec1a5f020101000000000000000000000000000000184000060000000000"
    "00700000000000000000000000000000000000000000000000090909090909b2"
    "3f0300000058000000000000004b465225000100000000000003000000000000"
    "0001000000000000000200000000000000000000000000000003000000000000"
    "00b8000000000000001600000000000000320000000000000000000000000000"
    "000000000000000000040000002800000000000000c5deb5a001000000000000"
    "00db748ad179a150cd5e168ffd8d32c6a0d5c803cb9ad02718617b05a917069e"
    "c00500000068000000000000006e0acbb8000600000000000070000000000000"
    "0000000000000000000900000000000000000000000000000020000000000000"
    "00e1010000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000";

// make_approximate_majority_protocol, sequential Engine over 32 agents,
// seed 12, two rounds.
const char* const kUncachedAgentV1 =
    "5050533101000000010000001d00000000000000e1629bac0500000000000000"
    "6167656e7429f71ebf41f7ffcb20000000000000000200000012000000000000"
    "00a70e1490000000000000000000404000000000000000030000009001000000"
    "0000007f535a4f20000000000000000200000000000000010000000000000000"
    "0000000000000001000000000000000200000000000000010000000000000002"
    "0000000000000001000000000000000200000000000000010000000000000002"
    "0000000000000001000000000000000200000000000000010000000000000002"
    "0000000000000001000000000000000200000000000000000000000000000000"
    "0000000000000001000000000000000200000000000000000000000000000000"
    "0000000000000001000000000000000000000000000000010000000000000002"
    "0000000000000001000000000000000100000000000000010000000000000001"
    "0000000000000001000000000000002000000000000000000000000100000002"
    "000000030000000400000005000000060000000700000008000000090000000a"
    "0000000b0000000c0000000d0000000e0000000f000000100000001100000012"
    "000000130000001400000015000000160000001700000018000000190000001a"
    "0000001b0000001c0000001d0000001e0000001f000000040000002800000000"
    "0000004622cafb0100000000000000bfaa72eb1a16fed13c29ae061ba7963235"
    "8be1d5473379c36bae74f4caf1d37b050000006800000000000000327f34ca40"
    "000000000000000c000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000";

TEST(SnapshotFormatV1, UncachedCountSnapshotRestoresAndReplays) {
  MajorityFixture fx(4);
  const std::string blob = from_hex(kUncachedCountV1);
  CountEngine eng(fx.proto, {{fx.a, 2}, {fx.b, 2}}, /*seed=*/99,
                  CountEngineMode::kDirect);
  restore_bytes(eng, blob);
  eng.run_rounds(20.0);
  EXPECT_EQ(eng.interactions(), 1472u);
  EXPECT_EQ(crc32(snapshot_bytes(eng)), 0x59140a11u);
}

TEST(SnapshotFormatV1, RetiredCountModesRestoreIntoThePolicy) {
  // The trajectories continue under the sampler policy, so only the
  // restore itself, the population and the rewritten mode byte are pinned.
  MajorityFixture fx(4);
  for (const auto& [hex, n] : {std::pair{kRetiredSkipModeCountV1, 64u},
                               std::pair{kRetiredAutoModeCountV1, 256u}}) {
    CountEngine eng(fx.proto, {{fx.a, 2}, {fx.b, 2}}, /*seed=*/99,
                    CountEngineMode::kDirect);
    restore_bytes(eng, from_hex(hex));
    EXPECT_EQ(eng.n(), n);
    eng.run_rounds(20.0);
    std::uint64_t total = 0;
    for (const auto& [s, c] : eng.species()) total += c;
    EXPECT_EQ(total, n);
    EXPECT_EQ(eng.active_n(), n);
    // The engine now writes the policy's mode byte (core section, byte 0).
    std::uint8_t mode = 0;
    with_section_edited(snapshot_bytes(eng), SnapshotSection::kCore,
                        [&](std::string& core) {
                          mode = static_cast<std::uint8_t>(core.at(0));
                        });
    EXPECT_EQ(mode, static_cast<std::uint8_t>(CountEngineMode::kAdaptive));
  }
}

TEST(SnapshotFormatV1, UncachedAgentSnapshotRestoresAndReplays) {
  MajorityFixture fx(32);
  const std::string blob = from_hex(kUncachedAgentV1);
  Engine eng(fx.proto, std::vector<State>(32, fx.a), /*seed=*/77);
  restore_bytes(eng, blob);
  eng.run_rounds(10.0);
  EXPECT_EQ(eng.interactions(), 384u);
  EXPECT_EQ(crc32(snapshot_bytes(eng)), 0x25ddf81cu);
}


}  // namespace
}  // namespace popproto
