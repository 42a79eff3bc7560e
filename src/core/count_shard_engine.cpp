#include "core/count_shard_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/pair_sampler.hpp"
#include "persist/snapshot.hpp"

namespace popproto {

namespace {

// mig_slot_of_ entry of a state with no pooled entry.
constexpr std::size_t kNoEntry = ~std::size_t{0};

std::uint64_t total_count(
    const std::vector<std::pair<State, std::uint64_t>>& initial) {
  std::uint64_t n = 0;
  for (const auto& [s, c] : initial) n += c;
  return n;
}

// Lower the shard count until every shard holds at least max(min_shard, 2)
// agents: a 1-agent shard can never interact, and sub-sqrt shards waste the
// collision-sampling amortization (per-shard work is O(sqrt(m)) draws per
// round regardless of m).
std::size_t clamp_shard_count(std::size_t shards, std::uint64_t n,
                              std::uint64_t min_shard) {
  if (shards == 0) shards = 1;
  const std::uint64_t floor_agents = std::max<std::uint64_t>(min_shard, 2);
  while (shards > 1 && n / shards < floor_agents) --shards;
  return shards;
}

unsigned resolve_threads(unsigned requested, std::size_t shards) {
  if (requested != 0) return requested;
  return static_cast<unsigned>(std::min<std::size_t>(
      shards, probe_hardware_threads()));
}

// Re-frame a sub-engine snapshot with the cache-warmth counter fields
// (cache_builds / cache_fallbacks / cache_hits) zeroed. Transition caches
// are deliberately not serialized — a resumed engine re-learns pair
// bindings — so those diagnostics differ between a never-stopped run and a
// resumed one. Embedded verbatim they would make the wrapper's population
// section fail replay_check's byte comparison even though the trajectory is
// bit-identical; the top-level kCounters skip that covers the other
// backends cannot see inside an embedded container.
std::string normalize_sub_snapshot(const std::string& blob,
                                   std::uint64_t fingerprint) {
  std::istringstream in(blob);
  SnapshotReader reader(in, "count", fingerprint);
  std::ostringstream out;
  SnapshotWriter w(out, "count", fingerprint, reader.population_n());
  SnapshotSection tag;
  std::string payload;
  while (reader.next(&tag, &payload)) {
    if (tag == SnapshotSection::kCounters) {
      BinReader r(payload);
      EngineCounters c = deserialize_counters(r);
      c.cache_builds = c.cache_fallbacks = c.cache_hits = 0;
      payload.clear();
      BinWriter bw(payload);
      serialize_counters(bw, c);
    }
    w.section(tag, payload);
  }
  w.finish();
  return out.str();
}

}  // namespace

std::uint64_t CountShardEngine::shard_seed(std::uint64_t master_seed,
                                           std::size_t s) {
  std::uint64_t sm = master_seed;
  splitmix64(sm);  // first output: the migration stream's seed
  std::uint64_t out = splitmix64(sm);
  for (std::size_t i = 0; i < s; ++i) out = splitmix64(sm);
  return out;
}

CountShardEngine::CountShardEngine(
    const Protocol& protocol,
    std::vector<std::pair<State, std::uint64_t>> initial, std::uint64_t seed)
    : CountShardEngine(protocol, std::move(initial), seed, Params{}) {}

CountShardEngine::CountShardEngine(
    const Protocol& protocol,
    std::vector<std::pair<State, std::uint64_t>> initial, std::uint64_t seed,
    Params params)
    : protocol_(protocol),
      params_(params),
      pool_(resolve_threads(
          params.threads,
          clamp_shard_count(params.shards, total_count(initial),
                            params.min_shard))),
      cache_(protocol) {
  POPPROTO_CHECK(protocol_.num_rules() > 0);
  POPPROTO_CHECK_MSG(params_.migrate_every > 0,
                     "migrate_every must be positive");
  const std::uint64_t n = total_count(initial);
  POPPROTO_CHECK_MSG(n >= 2, "population needs at least 2 agents");
  const std::size_t S =
      clamp_shard_count(params_.shards, n, params_.min_shard);

  std::uint64_t sm = seed;
  migrate_rng_ = Rng(splitmix64(sm));
  std::vector<std::uint64_t> seeds(S);
  for (std::size_t s = 0; s < S; ++s) seeds[s] = splitmix64(sm);
  // (identical to shard_seed(seed, s); the loop just walks sm once)

  shards_.reserve(S);
  if (S == 1) {
    // Untouched pass-through of the caller's counts: the single-shard
    // trajectory must equal a default CountEngine under shard_seed(seed, 0)
    // exactly, including the species-table order.
    shards_.push_back(std::make_unique<CountEngine>(
        protocol_, std::move(initial), seeds[0]));
  } else {
    // Initial deal = the same hypergeometric partition migration uses,
    // drawn on the migration stream before round 0. Merge duplicate
    // species first (first-appearance order).
    pool_clear();
    for (const auto& [s, c] : initial)
      if (c > 0) pool_add(s, c);
    std::uint64_t remaining = n;
    const std::uint64_t base = n / S;
    const std::uint64_t extra = n % S;
    for (std::size_t s = 0; s < S; ++s) {
      const std::uint64_t take = base + (s < extra ? 1 : 0);
      mig_init_.clear();
      if (s + 1 == S) {
        // Forced remainder: consumes no draws (mirrors the MVH early-exit).
        for (std::size_t i = 0; i < mig_states_.size(); ++i)
          if (mig_counts_[i] > 0)
            mig_init_.emplace_back(mig_states_[i], mig_counts_[i]);
      } else {
        sample_multivariate_hypergeometric(migrate_rng_, mig_counts_,
                                           remaining, take, mig_deal_);
        for (std::size_t i = 0; i < mig_states_.size(); ++i) {
          if (mig_deal_[i] == 0) continue;
          mig_init_.emplace_back(mig_states_[i], mig_deal_[i]);
          mig_counts_[i] -= mig_deal_[i];
        }
        remaining -= take;
      }
      shards_.push_back(std::make_unique<CountEngine>(
          protocol_, mig_init_, seeds[s]));
    }
  }
  next_migrate_time_ = static_cast<double>(params_.migrate_every);
}

void CountShardEngine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
  push_hooks_to_shards();
}

void CountShardEngine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
  push_hooks_to_shards();
}

void CountShardEngine::set_event_trace(EventTrace* trace) { trace_ = trace; }

void CountShardEngine::push_hooks_to_shards() {
  // on_round stays wrapper-fired (one global schedule over global time);
  // drop_interaction and bias run inside shards on their private streams —
  // the hook contract already allows any engine-supplied Rng to be a
  // per-shard stream. Forwarding empty hooks leaves the subs' RNG
  // consumption bit-identical to never-hooked engines.
  for (const auto& sub : shards_) {
    InjectionHook down;
    down.drop_interaction = injection_.drop_interaction;
    sub->set_injection_hook(std::move(down));
    sub->set_scheduler_bias(bias_);
  }
}

void CountShardEngine::advance_shards_to(double target) {
  pool_.parallel_for(shards_.size(), [&](std::size_t s) {
    CountEngine& sub = *shards_[s];
    if (sub.rounds() < target) sub.run_rounds(target - sub.rounds());
  });
}

void CountShardEngine::fire_round_hooks_if_due() {
  if (!injection_.on_round) return;
  while (last_injection_round_ + 1.0 <= time_) {
    last_injection_round_ += 1.0;
    injection_.on_round(last_injection_round_);
  }
}

bool CountShardEngine::all_shards_silent() const {
  for (const auto& sub : shards_)
    if (!sub->silent()) return false;
  return true;
}

void CountShardEngine::pool_clear() {
  for (const std::uint32_t x : mig_idx_)
    if (x != TransitionCache::kNoState) mig_slot_of_[x] = kNoEntry;
  mig_states_.clear();
  mig_counts_.clear();
  mig_idx_.clear();
}

void CountShardEngine::pool_add(State s, std::uint64_t c) {
  const std::uint32_t x = cache_.state_index(s);
  std::size_t at = kNoEntry;
  if (x == TransitionCache::kNoState) {
    for (std::size_t i = 0; i < mig_states_.size() && at == kNoEntry; ++i)
      if (mig_idx_[i] == TransitionCache::kNoState && mig_states_[i] == s)
        at = i;
  } else if (x < mig_slot_of_.size()) {
    at = mig_slot_of_[x];
  }
  if (at == kNoEntry) {
    at = mig_states_.size();
    mig_states_.push_back(s);
    mig_counts_.push_back(0);
    mig_idx_.push_back(x);
    if (x != TransitionCache::kNoState) {
      if (x >= mig_slot_of_.size())
        mig_slot_of_.resize(std::max<std::size_t>(x + 1, cache_.num_states()),
                            kNoEntry);
      mig_slot_of_[x] = at;
    }
  }
  mig_counts_[at] += c;
}

std::uint64_t CountShardEngine::pool_scheduled() {
  pool_clear();
  std::uint64_t total = 0;
  for (const auto& sub : shards_)
    sub->for_each_species([&](State s, std::uint64_t c) {
      pool_add(s, c);
      total += c;
    });
  return total;
}

bool CountShardEngine::globally_silent() {
  // A locally silent partition can still be globally live: species that
  // never met inside one shard may react once migration mixes them. Exact
  // test on the pooled counts — any ordered species pair with positive pair
  // count and positive fused change weight disproves silence.
  const std::uint64_t total = pool_scheduled();
  if (total < 2) return true;
  for (std::size_t i = 0; i < mig_states_.size(); ++i) {
    if (mig_counts_[i] == 0) continue;
    for (std::size_t j = 0; j < mig_states_.size(); ++j) {
      const double pairs =
          static_cast<double>(mig_counts_[i]) *
          (static_cast<double>(mig_counts_[j]) - (i == j ? 1.0 : 0.0));
      if (pairs <= 0.0) continue;
      if (cache_.change_weight(mig_states_[i], mig_states_[j]) > 0.0)
        return false;
    }
  }
  return true;
}

void CountShardEngine::migrate() {
  // Pool everything scheduled and deal it back by exact without-replacement
  // draws: the count-space image of BatchEngine's global id reshuffle. Each
  // sub keeps its n >= 2 floor through churn, so total >= 2 * shards and
  // every re-dealt shard stays constructible. Crashed agents keep their
  // frozen state inside the shard they crashed in.
  const std::uint64_t total = pool_scheduled();
  const std::size_t S = shards_.size();
  std::uint64_t remaining = total;
  const std::uint64_t base = total / S;
  const std::uint64_t extra = total % S;
  for (std::size_t s = 0; s < S; ++s) {
    const std::uint64_t take = base + (s < extra ? 1 : 0);
    mig_init_.clear();
    if (s + 1 == S) {
      for (std::size_t i = 0; i < mig_states_.size(); ++i)
        if (mig_counts_[i] > 0)
          mig_init_.emplace_back(mig_states_[i], mig_counts_[i]);
    } else {
      sample_multivariate_hypergeometric(migrate_rng_, mig_counts_, remaining,
                                         take, mig_deal_);
      for (std::size_t i = 0; i < mig_states_.size(); ++i) {
        if (mig_deal_[i] == 0) continue;
        mig_init_.emplace_back(mig_states_[i], mig_deal_[i]);
        mig_counts_[i] -= mig_deal_[i];
      }
      remaining -= take;
    }
    shards_[s]->reset_population(mig_init_);
  }
}

bool CountShardEngine::step() {
  run_rounds(1.0);
  return !silent_;
}

void CountShardEngine::run_rounds(double rounds_to_run) {
  if (!(rounds_to_run > 0.0)) return;
  const std::size_t S = shards_.size();
  if (S == 1 && !injection_.on_round) {
    // Pass-through preserves CountEngine's batch-budget truncation exactly:
    // batch_step caps each batch at the run target, so segmenting a run
    // changes which batches truncate and therefore the RNG consumption.
    // Handing the whole run down in one call keeps the single-shard
    // trajectory bit-identical to a bare default CountEngine — the shards=1
    // equivalence contract (tests/count_shard_engine_test.cpp).
    CountEngine& sub = *shards_[0];
    const double target = time_ + rounds_to_run;
    if (sub.rounds() < target) sub.run_rounds(target - sub.rounds());
    time_ = sub.rounds();
    silent_ = sub.silent();
    return;
  }
  const double target = time_ + rounds_to_run;
  while (time_ < target) {
    // Advance in segments ending at the next migration boundary and (when a
    // fault schedule is installed) the next whole-round hook boundary.
    // Shards overshoot a segment end by less than one interaction each
    // (their local batch truncation), which is absorbed by the per-shard
    // `rounds() < target` guard on the next segment.
    double seg = target;
    if (S > 1) seg = std::min(seg, next_migrate_time_);
    if (injection_.on_round) seg = std::min(seg, last_injection_round_ + 1.0);
    advance_shards_to(seg);
    time_ = seg;
    if (!silent_ && all_shards_silent() && globally_silent()) silent_ = true;
    if (S > 1 && seg >= next_migrate_time_) {
      if (!silent_) migrate();
      next_migrate_time_ += static_cast<double>(params_.migrate_every);
    }
    fire_round_hooks_if_due();
  }
}

std::uint64_t CountShardEngine::interactions() const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->interactions();
  return total;
}

std::uint64_t CountShardEngine::active_n() const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->n();
  return total;
}

std::uint64_t CountShardEngine::count_matching(const Guard& g) const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->count_matching(g);
  return total;
}

std::vector<std::pair<State, std::uint64_t>> CountShardEngine::species()
    const {
  std::vector<std::pair<State, std::uint64_t>> out;
  std::unordered_map<State, std::size_t> idx;
  for (const auto& sub : shards_) {
    for (const auto& [s, c] : sub->species()) {
      const auto [it, inserted] = idx.emplace(s, out.size());
      if (inserted)
        out.emplace_back(s, c);
      else
        out[it->second].second += c;
    }
  }
  return out;
}

EngineCounters CountShardEngine::counters() const {
  EngineCounters c;
  for (const auto& sub : shards_) {
    const EngineCounters sc = sub->counters();
    c.interactions += sc.interactions;
    c.effective_steps += sc.effective_steps;
    c.dropped_interactions += sc.dropped_interactions;
    c.cache_builds += sc.cache_builds;
    c.cache_fallbacks += sc.cache_fallbacks;
    c.skip_jumps += sc.skip_jumps;
    c.skipped_interactions += sc.skipped_interactions;
    c.crash_events += sc.crash_events;
    c.rejoin_events += sc.rejoin_events;
    c.corrupted_agents += sc.corrupted_agents;
    c.batch_blocks += sc.batch_blocks;
    c.batch_collisions += sc.batch_collisions;
    c.cache_hits += sc.cache_hits;
  }
  return c;
}

std::vector<std::uint64_t> CountShardEngine::deal_victims(
    std::uint64_t k, const std::vector<std::uint64_t>& weights,
    Rng& rng) const {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  k = std::min(k, total);
  std::vector<std::uint64_t> out;
  sample_multivariate_hypergeometric(rng, weights, total, k, out);
  return out;
}

std::uint64_t CountShardEngine::crash_random(std::uint64_t k, Rng& rng) {
  // Victim allocation over crashable slots (each shard keeps >= 2 scheduled
  // agents — the migration invariant), then each shard's exact uniform
  // without-replacement crash on the same caller stream.
  std::vector<std::uint64_t> w(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    w[s] = shards_[s]->n() > 2 ? shards_[s]->n() - 2 : 0;
  const auto deal = deal_victims(k, w, rng);
  std::uint64_t moved = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (deal[s] > 0) moved += shards_[s]->crash_random(deal[s], rng);
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnCrash, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountShardEngine::rejoin_random(std::uint64_t k, Rng& rng) {
  std::vector<std::uint64_t> w(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s)
    w[s] = shards_[s]->crashed_count();
  const auto deal = deal_victims(k, w, rng);
  std::uint64_t moved = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (deal[s] > 0) moved += shards_[s]->rejoin_random(deal[s], rng);
  if (moved > 0) silent_ = false;  // stale state may re-enable rules
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountShardEngine::rejoin_all(Rng& rng) {
  std::uint64_t moved = 0;
  for (const auto& sub : shards_) moved += sub->rejoin_all(rng);
  if (moved > 0) silent_ = false;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountShardEngine::crashed_count() const {
  std::uint64_t total = 0;
  for (const auto& sub : shards_) total += sub->crashed_count();
  return total;
}

std::uint64_t CountShardEngine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  std::vector<std::uint64_t> w(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) w[s] = shards_[s]->n();
  const auto deal = deal_victims(k, w, rng);
  std::uint64_t drawn = 0, rewritten = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (deal[s] == 0) continue;
    const std::uint64_t offset = drawn;
    drawn += shards_[s]->mutate_random_agents(
        deal[s], rng,
        [&f, &rewritten, offset](State old_state, std::uint64_t j) {
          const State ns = f(old_state, offset + j);
          rewritten += ns != old_state;
          return ns;
        });
  }
  if (drawn > 0) silent_ = false;
  if (trace_ && drawn > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return drawn;
}

void CountShardEngine::snapshot(std::ostream& out) const {
  std::uint64_t population = 0;
  for (const auto& sub : shards_)
    population += sub->n() + sub->crashed_count();
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   population);

  std::string core;
  BinWriter c(core);
  c.u64(shards_.size());
  c.u32(params_.migrate_every);
  c.u8(silent_ ? 1 : 0);
  c.f64(time_);
  c.f64(next_migrate_time_);
  w.section(SnapshotSection::kCore, core);

  // Each shard's complete CountEngine snapshot rides as a length-prefixed
  // embedded container — self-validating (own magic, per-section CRCs,
  // protocol fingerprint), so a flipped bit inside any shard fails that
  // shard's restore before this engine commits anything. Cache-warmth
  // counters are normalized so the bytes are replay-deterministic.
  std::string popn;
  BinWriter p(popn);
  p.u64(shards_.size());
  for (const auto& sub : shards_) {
    std::ostringstream blob;
    sub->snapshot(blob);
    p.str(normalize_sub_snapshot(blob.str(),
                                 protocol_fingerprint(protocol_)));
  }
  w.section(SnapshotSection::kPopulation, popn);

  std::string rng;
  BinWriter r(rng);
  r.u64(1);  // the migration stream; shard streams live in their blobs
  for (const std::uint64_t word : migrate_rng_.state()) r.u64(word);
  w.section(SnapshotSection::kRngStreams, rng);

  w.finish();
}

void CountShardEngine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));
  const std::size_t S = shards_.size();

  struct Staging {
    std::uint64_t shard_count = 0;
    std::uint32_t migrate_every = 0;
    bool silent = false;
    double time = 0.0;
    double next_migrate = 0.0;
    std::vector<std::unique_ptr<CountEngine>> subs;
    std::array<std::uint64_t, 4> rng{};
  } st;
  bool have_core = false, have_pop = false, have_rng = false;

  SnapshotSection tag;
  std::string payload;
  while (reader.next(&tag, &payload)) {
    BinReader r(payload);
    switch (tag) {
      case SnapshotSection::kCore:
        st.shard_count = r.u64();
        st.migrate_every = r.u32();
        st.silent = r.u8() != 0;
        st.time = r.f64();
        st.next_migrate = r.f64();
        have_core = true;
        if (st.shard_count != S)
          throw SnapshotError(
              SnapshotErrc::kConfigMismatch,
              "snapshot has " + std::to_string(st.shard_count) +
                  " shards, engine has " + std::to_string(S) +
                  " (shard count is structural; worker threads are not)");
        break;
      case SnapshotSection::kPopulation: {
        if (!have_core)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "population section before core");
        if (r.u64() != S)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "per-shard blob count mismatch");
        for (std::size_t s = 0; s < S; ++s) {
          // Stage into throwaway engines: each blob is a full CountEngine
          // container and validates itself (producer, fingerprint, CRCs)
          // before its staging engine adopts it.
          auto sub = std::make_unique<CountEngine>(
              protocol_,
              std::vector<std::pair<State, std::uint64_t>>{{State{0}, 2}},
              /*seed=*/1);
          std::istringstream blob(r.str());
          sub->restore(blob);
          st.subs.push_back(std::move(sub));
        }
        have_pop = true;
        break;
      }
      case SnapshotSection::kRngStreams:
        if (r.u64() != 1)
          throw SnapshotError(
              SnapshotErrc::kConfigMismatch,
              "count-shard snapshots carry one top-level RNG stream");
        for (auto& word : st.rng) word = r.u64();
        have_rng = true;
        break;
      default:
        throw SnapshotError(SnapshotErrc::kCorrupt,
                            "section not used by the count-shard engine");
    }
  }
  if (!(have_core && have_pop && have_rng))
    throw SnapshotError(SnapshotErrc::kTruncated,
                        "snapshot missing a required section");

  // Semantic validation — *this stays untouched until everything passed.
  std::uint64_t population = 0;
  for (const auto& sub : st.subs)
    population += sub->n() + sub->crashed_count();
  if (population != reader.population_n())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "shard populations do not sum to n");
  if (st.migrate_every == 0)
    throw SnapshotError(SnapshotErrc::kCorrupt, "zero migrate_every");
  if (st.rng == std::array<std::uint64_t, 4>{})
    throw SnapshotError(SnapshotErrc::kCorrupt, "all-zero RNG state");
  if (!(st.time >= 0.0) || !(st.next_migrate >= 0.0))  // also rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time base");

  // Commit with throw-free moves. The wrapper's own hook state survives a
  // restore (like the other engines'); the freshly staged subs need it
  // re-forwarded.
  shards_ = std::move(st.subs);
  migrate_rng_.set_state(st.rng);
  params_.migrate_every = st.migrate_every;
  time_ = st.time;
  next_migrate_time_ = st.next_migrate;
  silent_ = st.silent;
  last_injection_round_ = std::floor(time_);
  mig_states_.clear();
  mig_counts_.clear();
  mig_deal_.clear();
  mig_init_.clear();
  push_hooks_to_shards();
}

}  // namespace popproto
