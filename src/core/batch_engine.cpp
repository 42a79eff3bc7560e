#include "core/batch_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>

#include "persist/snapshot.hpp"

namespace popproto {

namespace {

// Keep at least two agents in a shard whenever the population allows it: a
// lone agent can never be matched, so a 1-agent shard would silently idle.
constexpr std::size_t kMinUsableShard = 2;

// Batched bounded draws for the matching shuffle: two 32-bit Lemire
// rejection draws per 64-bit xoshiro output. Slot ids are u32, so every
// Fisher–Yates bound fits in 32 bits and the shuffle can run on half-words,
// halving the generator advances (the dominant cost of the shuffle). Each
// half rejects independently — the accepted stream is still exactly uniform.
// Words come through the shard's bulk-draw buffer, which consumes the
// generator in the same order as direct calls would (support/rng.hpp), so
// the shuffle trajectory is unchanged by the buffering.
class HalfWordDraws {
 public:
  HalfWordDraws(BulkDraws& draws, Rng& rng) : draws_(draws), rng_(rng) {}

  std::uint32_t below(std::uint32_t bound) {
    for (;;) {
      const std::uint64_t m =
          static_cast<std::uint64_t>(next_half()) * bound;
      const auto low = static_cast<std::uint32_t>(m);
      if (low >= bound) [[likely]]
        return static_cast<std::uint32_t>(m >> 32);
      // Rare path: compute the exact rejection threshold (2^32 - b) mod b.
      if (low >= static_cast<std::uint32_t>(-bound) % bound)
        return static_cast<std::uint32_t>(m >> 32);
    }
  }

 private:
  std::uint32_t next_half() {
    if (buffered_) {
      buffered_ = false;
      return static_cast<std::uint32_t>(word_ >> 32);
    }
    word_ = draws_.next(rng_);
    buffered_ = true;
    return static_cast<std::uint32_t>(word_);
  }

  BulkDraws& draws_;
  Rng& rng_;
  std::uint64_t word_ = 0;
  bool buffered_ = false;
};

}  // namespace

BatchEngine::BatchEngine(const Protocol& protocol, std::vector<State> initial,
                         std::uint64_t seed)
    : BatchEngine(protocol, std::move(initial), seed, Params{}) {}

BatchEngine::BatchEngine(const Protocol& protocol, std::vector<State> initial,
                         std::uint64_t seed, Params params)
    : protocol_(protocol), params_(params), states_(std::move(initial)) {
  POPPROTO_CHECK(protocol_.num_rules() > 0);
  POPPROTO_CHECK_MSG(states_.size() >= 2, "need at least two agents");

  const std::size_t n = states_.size();
  std::size_t t = params_.threads != 0
                      ? params_.threads
                      : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t floor_agents =
      std::max(params_.min_shard, kMinUsableShard);
  while (t > 1 && n / t < floor_agents) --t;

  // Stream seeding order (stable across versions, documented for replay):
  // migration stream first, then one stream per shard in shard order.
  std::uint64_t sm = seed;
  migrate_rng_ = Rng(splitmix64(sm));
  shards_.reserve(t);
  const std::size_t base = n / t;
  const std::size_t extra = n % t;
  std::size_t off = 0;
  for (std::size_t s = 0; s < t; ++s) {
    const std::size_t take = base + (s < extra ? 1 : 0);
    Shard sh{Rng(splitmix64(sm)),
             {},
             0,
             {},
             {},
             TransitionCache(protocol_, params_.max_cache_states)};
    sh.slots.reserve(take);
    for (std::size_t i = 0; i < take; ++i)
      sh.slots.push_back(
          pack(TransitionCache::kNoState, static_cast<std::uint32_t>(off + i)));
    off += take;
    shards_.push_back(std::move(sh));
  }
  active_n_ = n;

  workers_.reserve(t - 1);
  for (std::size_t w = 1; w < t; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

BatchEngine::~BatchEngine() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void BatchEngine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
}

void BatchEngine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
}

void BatchEngine::worker_loop(std::size_t shard_index) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    shard_round(shards_[shard_index]);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--unfinished_ == 0) cv_done_.notify_one();
    }
  }
}

void BatchEngine::run_round_parallel() {
  if (shards_.size() == 1) {
    shard_round(shards_[0]);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    unfinished_ = shards_.size() - 1;
    ++epoch_;
  }
  cv_start_.notify_all();
  shard_round(shards_[0]);
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return unfinished_ == 0; });
}

void BatchEngine::resolve(Shard& sh, std::uint64_t& sa, std::uint64_t& sb,
                          double u) {
  // Mirrors Engine::resolve, with the interned-index shadow packed
  // into the slot words instead of a per-agent side array.
  const std::uint32_t id_a = slot_id(sa);
  const std::uint32_t id_b = slot_id(sb);
  std::uint32_t ia = static_cast<std::uint32_t>(sa >> 32);
  if (ia == TransitionCache::kNoState) [[unlikely]] {
    ia = sh.cache.state_index(states_[id_a]);
    sa = pack(ia, id_a);
  }
  std::uint32_t ib = static_cast<std::uint32_t>(sb >> 32);
  if (ib == TransitionCache::kNoState) [[unlikely]] {
    ib = sh.cache.state_index(states_[id_b]);
    sb = pack(ib, id_b);
  }
  if (ia != TransitionCache::kNoState && ib != TransitionCache::kNoState)
      [[likely]] {
    const IndexedPair r = sh.cache.sample_indexed(ia, ib, u);
    if (r.a != TransitionCache::kNoState &&
        r.b != TransitionCache::kNoState) [[likely]] {
#ifdef POPPROTO_PROFILE
      ++sh.ctr.cache_hits;
#endif
      if (r.a == ia && r.b == ib) [[likely]]
        return;
      if (r.a != ia) {
        states_[id_a] = sh.cache.state_at(r.a);
        sa = pack(r.a, id_a);
      }
      if (r.b != ib) {
        states_[id_b] = sh.cache.state_at(r.b);
        sb = pack(r.b, id_b);
      }
      ++sh.ctr.effective_steps;
      return;
    }
  }
  // Cap overflow on an input or result state: resolve by value; the slot
  // shadows reset so the miss path relearns them.
  ++sh.ctr.cache_fallbacks;
  const State va = states_[id_a];
  const State vb = states_[id_b];
  const PairOutcome o = sh.cache.sample(va, vb, u);
  if (o.a != va || o.b != vb) ++sh.ctr.effective_steps;
  if (o.a != va) {
    states_[id_a] = o.a;
    sa = pack(TransitionCache::kNoState, id_a);
  }
  if (o.b != vb) {
    states_[id_b] = o.b;
    sb = pack(TransitionCache::kNoState, id_b);
  }
}

void BatchEngine::shard_round(Shard& sh) {
  auto& slots = sh.slots;
  const std::size_t m = slots.size();
  sh.pairs = 0;
  if (m < 2) return;
  // Uniformly random maximal matching over the shard: Fisher–Yates, then
  // pair consecutive entries — the sample_random_matching law, with the
  // orientation uniform because the shuffle is. The shuffle draws on
  // half-words (two bounded draws per generator advance); the buffered half
  // dies with the local draw state, so the pairing loop below resumes the
  // stream at a whole-word boundary.
  {
    HalfWordDraws draw(sh.draws, sh.rng);
    for (std::size_t i = m - 1; i > 0; --i) {
      const std::size_t j = draw.below(static_cast<std::uint32_t>(i + 1));
      std::swap(slots[i], slots[j]);
    }
  }
  const bool dropping = static_cast<bool>(injection_.drop_interaction);
  const bool biased = bias_ && bias_->epsilon > 0.0;
  const std::uint64_t pairs = m / 2;
  if (dropping || biased) {
    // Hook draws (bias coin, dropout) take the raw generator by reference
    // and interleave with the pairing uniforms, so the buffer must be at
    // its logical position before the first of them fires. Scalar loop —
    // hook paths are fault-injection territory, not the throughput path.
    sh.draws.flush(sh.rng);
    for (std::size_t i = 0; i + 1 < m; i += 2) {
      if (biased && sh.rng.chance(bias_->epsilon) &&
          !bias_->prefer.matches(states_[slot_id(slots[i])]) &&
          bias_->prefer.matches(states_[slot_id(slots[i + 1])]))
        std::swap(slots[i], slots[i + 1]);
      if (dropping && injection_.drop_interaction(sh.rng)) {
        ++sh.ctr.dropped_interactions;
        continue;
      }
      const double u = sh.rng.uniform();
      resolve(sh, slots[i], slots[i + 1], u);
    }
  } else {
    // Hook-free fast path: resolve in blocks. Draw all of a block's fused
    // uniforms up front (legal because resolves never draw — the word
    // sequence is identical to the interleaved order), then let the cache
    // prescan classify proven no-op pairs in one vector pass; only the
    // surviving lanes take the scalar resolve. Pairs within a round are
    // disjoint by construction (consecutive entries of one permutation),
    // so the precomputed interned indices cannot be invalidated by an
    // earlier lane in the same block.
    constexpr std::size_t kBlock = 16;
    static_assert(kBlock <= 64, "prescan mask is one 64-bit word");
    std::uint32_t ia[kBlock];
    std::uint32_t ib[kBlock];
    double bu[kBlock];
    for (std::uint64_t p0 = 0; p0 < pairs; p0 += kBlock) {
      const std::size_t cnt =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, pairs - p0));
      for (std::size_t j = 0; j < cnt; ++j)
        bu[j] = sh.draws.uniform(sh.rng);
      bool fast = true;
      for (std::size_t j = 0; j < cnt; ++j) {
        const std::size_t i = 2 * static_cast<std::size_t>(p0 + j);
        ia[j] = static_cast<std::uint32_t>(slots[i] >> 32);
        ib[j] = static_cast<std::uint32_t>(slots[i + 1] >> 32);
        fast &= (ia[j] != TransitionCache::kNoState) &
                (ib[j] != TransitionCache::kNoState);
      }
      if (fast) {
        std::uint64_t slow = sh.cache.prescan_slow(ia, ib, bu, cnt);
#ifdef POPPROTO_PROFILE
        sh.ctr.cache_hits +=
            cnt - static_cast<std::size_t>(__builtin_popcountll(slow));
#endif
        while (slow != 0) {
          const auto j = static_cast<std::size_t>(__builtin_ctzll(slow));
          slow &= slow - 1;
          const std::size_t i = 2 * static_cast<std::size_t>(p0 + j);
          resolve(sh, slots[i], slots[i + 1], bu[j]);
        }
      } else {
        for (std::size_t j = 0; j < cnt; ++j) {
          const std::size_t i = 2 * static_cast<std::size_t>(p0 + j);
          resolve(sh, slots[i], slots[i + 1], bu[j]);
        }
      }
    }
  }
  sh.pairs = pairs;
}

bool BatchEngine::step() {
  const bool runnable = active_n_ >= 2;
  if (runnable) {
    if (sidx_dirty_) invalidate_sidx();
    run_round_parallel();
    for (const Shard& sh : shards_) interactions_ += sh.pairs;
  }
  time_ += 1.0;
  if (shards_.size() > 1 &&
      ++rounds_since_migrate_ >= params_.migrate_every) {
    migrate();
    rounds_since_migrate_ = 0;
  }
  fire_round_hooks_if_due();
  return runnable;
}

void BatchEngine::run_rounds(double rounds_to_run) {
  const double target = time_ + rounds_to_run;
  while (time_ < target) step();
}

void BatchEngine::fire_round_hooks_if_due() {
  if (!injection_.on_round) return;
  while (last_injection_round_ + 1.0 <= time_) {
    last_injection_round_ += 1.0;
    injection_.on_round(last_injection_round_);
  }
}

void BatchEngine::migrate() {
  // Global reshuffle on the dedicated migration stream, then deal evenly
  // sized contiguous chunks back out. Interned shadows reset: each shard's
  // cache interns independently, so indices do not transfer.
  migration_buf_.clear();
  migration_buf_.reserve(active_n_);
  for (const Shard& sh : shards_)
    for (const std::uint64_t slot : sh.slots)
      migration_buf_.push_back(slot_id(slot));
  const std::size_t total = migration_buf_.size();
  for (std::size_t i = total; i > 1; --i) {
    const std::size_t j = migrate_rng_.below(i);
    std::swap(migration_buf_[i - 1], migration_buf_[j]);
  }
  // A population too small to give every shard a matchable pair collapses
  // into shard 0 (degenerate churn regime; rebalanced again on rejoin).
  const std::size_t s_count =
      total < kMinUsableShard * shards_.size() ? 1 : shards_.size();
  const std::size_t base = total / s_count;
  const std::size_t extra = total % s_count;
  std::size_t off = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& slots = shards_[s].slots;
    slots.clear();
    if (s < s_count) {
      const std::size_t take = base + (s < extra ? 1 : 0);
      for (std::size_t i = 0; i < take; ++i)
        slots.push_back(pack(TransitionCache::kNoState,
                             migration_buf_[off + i]));
      off += take;
    }
  }
}

void BatchEngine::invalidate_sidx() {
  for (Shard& sh : shards_)
    for (std::uint64_t& slot : sh.slots)
      slot = pack(TransitionCache::kNoState, slot_id(slot));
  sidx_dirty_ = false;
}

std::pair<std::size_t, std::size_t> BatchEngine::locate(std::uint64_t r) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (r < shards_[s].slots.size()) return {s, static_cast<std::size_t>(r)};
    r -= shards_[s].slots.size();
  }
  POPPROTO_CHECK_MSG(false, "scheduled-agent index out of range");
  return {0, 0};
}

std::uint64_t BatchEngine::crash_random(std::uint64_t k, Rng& rng) {
  if (active_n_ <= 2) return 0;
  k = std::min<std::uint64_t>(k, active_n_ - 2);
  for (std::uint64_t j = 0; j < k; ++j) {
    const auto [s, pos] = locate(rng.below(active_n_));
    auto& slots = shards_[s].slots;
    crashed_.push_back(slot_id(slots[pos]));
    slots[pos] = slots.back();
    slots.pop_back();
    --active_n_;
  }
  ctr_.crash_events += k;
  if (trace_ && k > 0)
    trace_->push(EventKind::kChurnCrash, time_, static_cast<double>(k));
  return k;
}

std::uint64_t BatchEngine::rejoin_random(std::uint64_t k, Rng& rng) {
  k = std::min<std::uint64_t>(k, crashed_.size());
  for (std::uint64_t j = 0; j < k; ++j) {
    const std::size_t pick = rng.below(crashed_.size());
    std::swap(crashed_[pick], crashed_.back());
    const std::uint32_t id = crashed_.back();
    crashed_.pop_back();
    // Deterministic placement: the smallest shard (lowest index on ties).
    std::size_t dest = 0;
    for (std::size_t s = 1; s < shards_.size(); ++s)
      if (shards_[s].slots.size() < shards_[dest].slots.size()) dest = s;
    shards_[dest].slots.push_back(pack(TransitionCache::kNoState, id));
    ++active_n_;
  }
  ctr_.rejoin_events += k;
  if (trace_ && k > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(k));
  return k;
}

std::uint64_t BatchEngine::rejoin_all(Rng& /*rng*/) {
  const std::uint64_t k = crashed_.size();
  for (const std::uint32_t id : crashed_) {
    std::size_t dest = 0;
    for (std::size_t s = 1; s < shards_.size(); ++s)
      if (shards_[s].slots.size() < shards_[dest].slots.size()) dest = s;
    shards_[dest].slots.push_back(pack(TransitionCache::kNoState, id));
  }
  crashed_.clear();
  active_n_ += k;
  ctr_.rejoin_events += k;
  if (trace_ && k > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(k));
  return k;
}

std::uint64_t BatchEngine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  // Partial Fisher–Yates over a gathered pool of scheduled ids: exact
  // uniform sampling without replacement (the Engine-side convention).
  std::vector<std::uint32_t> pool;
  pool.reserve(active_n_);
  for (const Shard& sh : shards_)
    for (const std::uint64_t slot : sh.slots) pool.push_back(slot_id(slot));
  k = std::min<std::uint64_t>(k, pool.size());
  std::uint64_t rewritten = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    const std::uint32_t victim = pool[j];
    const State ns = f(states_[victim], j);
    if (ns == states_[victim]) continue;
    states_[victim] = ns;
    ++rewritten;
  }
  if (rewritten > 0) sidx_dirty_ = true;
  ctr_.corrupted_agents += rewritten;
  if (trace_ && k > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return k;
}

std::uint64_t BatchEngine::count_matching(const Guard& g) const {
  std::uint64_t count = 0;
  for (const Shard& sh : shards_)
    for (const std::uint64_t slot : sh.slots)
      if (g.matches(states_[slot_id(slot)])) ++count;
  return count;
}

std::vector<std::pair<State, std::uint64_t>> BatchEngine::species() const {
  std::unordered_map<State, std::uint64_t> counts;
  for (const Shard& sh : shards_)
    for (const std::uint64_t slot : sh.slots) ++counts[states_[slot_id(slot)]];
  std::vector<std::pair<State, std::uint64_t>> out(counts.begin(),
                                                   counts.end());
  std::sort(out.begin(), out.end());
  return out;
}

EngineCounters BatchEngine::counters() const {
  EngineCounters c = ctr_;
  c.interactions = interactions_;
  std::uint64_t builds = 0;
  for (const Shard& sh : shards_) {
    c.effective_steps += sh.ctr.effective_steps;
    c.dropped_interactions += sh.ctr.dropped_interactions;
    c.cache_fallbacks += sh.ctr.cache_fallbacks;
    c.cache_hits += sh.ctr.cache_hits;
    builds += sh.cache.builds();
  }
  c.cache_builds += cache_builds_base_ + (builds - cache_builds_floor_);
  return c;
}

void BatchEngine::snapshot(std::ostream& out) const {
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   states_.size());

  std::string core;
  BinWriter c(core);
  c.u64(shards_.size());
  c.u32(params_.migrate_every);
  c.u32(rounds_since_migrate_);
  c.f64(time_);
  c.u64(interactions_);
  c.u64(active_n_);
  w.section(SnapshotSection::kCore, core);

  std::string popn;
  BinWriter p(popn);
  p.u64_vec(states_);
  for (const Shard& sh : shards_) {
    p.u64(sh.slots.size());
    for (const std::uint64_t slot : sh.slots) p.u32(slot_id(slot));
  }
  p.u32_vec(crashed_);
  w.section(SnapshotSection::kPopulation, popn);

  // Stream order mirrors construction: migration stream first, then one
  // stream per shard in shard order. Shard streams are written at their
  // *logical* position (raw generator rewound past unconsumed bulk-draw
  // read-ahead), so the 4-word format is unchanged and a snapshot taken
  // mid-buffer restores bit-identically.
  std::string rng;
  BinWriter r(rng);
  r.u64(1 + shards_.size());
  for (const std::uint64_t word : migrate_rng_.state()) r.u64(word);
  for (const Shard& sh : shards_)
    for (const std::uint64_t word : sh.draws.logical(sh.rng).state())
      r.u64(word);
  w.section(SnapshotSection::kRngStreams, rng);

  std::string ctrs;
  BinWriter k(ctrs);
  // Total cache builds across shards (irrecoverable once caches are
  // relearned), then the engine-level tallies, then per-shard tallies.
  std::uint64_t builds = 0;
  for (const Shard& sh : shards_) builds += sh.cache.builds();
  k.u64(cache_builds_base_ + (builds - cache_builds_floor_));
  serialize_counters(k, ctr_);
  k.u64(shards_.size());
  for (const Shard& sh : shards_) serialize_counters(k, sh.ctr);
  w.section(SnapshotSection::kCounters, ctrs);

  w.finish();
}

void BatchEngine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));
  const std::size_t t = shards_.size();

  struct Staging {
    std::uint64_t shard_count = 0;
    std::uint32_t migrate_every = 0;
    std::uint32_t rounds_since_migrate = 0;
    double time = 0.0;
    std::uint64_t interactions = 0;
    std::uint64_t active_n = 0;
    std::vector<State> states;
    std::vector<std::vector<std::uint32_t>> shard_ids;
    std::vector<std::uint32_t> crashed;
    std::vector<std::array<std::uint64_t, 4>> rngs;  // migration, then shards
    std::uint64_t cache_builds = 0;
    EngineCounters ctr;
    std::vector<EngineCounters> shard_ctrs;
  } st;
  bool have_core = false, have_pop = false, have_rng = false, have_ctr = false;

  SnapshotSection tag;
  std::string payload;
  while (reader.next(&tag, &payload)) {
    BinReader r(payload);
    switch (tag) {
      case SnapshotSection::kCore:
        st.shard_count = r.u64();
        st.migrate_every = r.u32();
        st.rounds_since_migrate = r.u32();
        st.time = r.f64();
        st.interactions = r.u64();
        st.active_n = r.u64();
        have_core = true;
        if (st.shard_count != t)
          throw SnapshotError(
              SnapshotErrc::kConfigMismatch,
              "snapshot has " + std::to_string(st.shard_count) +
                  " shards, engine has " + std::to_string(t) +
                  " (thread pools are structural; match Params::threads)");
        break;
      case SnapshotSection::kPopulation: {
        if (!have_core)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "population section before core");
        st.states = r.u64_vec();
        st.shard_ids.resize(t);
        for (std::size_t s = 0; s < t; ++s) {
          const std::uint64_t m = r.u64();
          if (m > r.remaining() / 4)
            throw SnapshotError(SnapshotErrc::kCorrupt,
                                "shard size exceeds payload");
          st.shard_ids[s].resize(static_cast<std::size_t>(m));
          for (auto& id : st.shard_ids[s]) id = r.u32();
        }
        st.crashed = r.u32_vec();
        have_pop = true;
        break;
      }
      case SnapshotSection::kRngStreams: {
        if (!have_core)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "rng section before core");
        if (r.u64() != 1 + t)
          throw SnapshotError(SnapshotErrc::kConfigMismatch,
                              "rng stream count does not match shard count");
        st.rngs.resize(1 + t);
        for (auto& stream : st.rngs)
          for (auto& word : stream) word = r.u64();
        have_rng = true;
        break;
      }
      case SnapshotSection::kCounters: {
        if (!have_core)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "counters section before core");
        st.cache_builds = r.u64();
        st.ctr = deserialize_counters(r);
        if (r.u64() != t)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "per-shard counter count mismatch");
        st.shard_ctrs.resize(t);
        for (auto& sc : st.shard_ctrs) sc = deserialize_counters(r);
        have_ctr = true;
        break;
      }
      default:
        throw SnapshotError(SnapshotErrc::kCorrupt,
                            "section not used by the batch engine");
    }
  }
  if (!(have_core && have_pop && have_rng && have_ctr))
    throw SnapshotError(SnapshotErrc::kTruncated,
                        "snapshot missing a required section");

  // Semantic validation — *this stays untouched until everything passed.
  const std::size_t n = st.states.size();
  if (n != reader.population_n() || n < 2)
    throw SnapshotError(SnapshotErrc::kCorrupt, "population size mismatch");
  std::uint64_t scheduled = 0;
  for (const auto& ids : st.shard_ids) scheduled += ids.size();
  if (scheduled != st.active_n || scheduled < 2 ||
      scheduled + st.crashed.size() != n)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "scheduled/crashed partition does not cover n");
  std::vector<char> seen(n, 0);
  const auto claim = [&](std::uint32_t id) {
    if (id >= n || seen[id])
      throw SnapshotError(SnapshotErrc::kCorrupt, "invalid agent id");
    seen[id] = 1;
  };
  for (const auto& ids : st.shard_ids)
    for (const std::uint32_t id : ids) claim(id);
  for (const std::uint32_t id : st.crashed) claim(id);
  for (const auto& stream : st.rngs)
    if (stream == std::array<std::uint64_t, 4>{})
      throw SnapshotError(SnapshotErrc::kCorrupt, "all-zero RNG state");
  if (!(st.time >= 0.0))  // also rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time base");

  // Stage slot arrays, then commit with throw-free moves/assignments.
  std::vector<std::vector<std::uint64_t>> staged_slots(t);
  for (std::size_t s = 0; s < t; ++s) {
    staged_slots[s].reserve(st.shard_ids[s].size());
    for (const std::uint32_t id : st.shard_ids[s])
      staged_slots[s].push_back(pack(TransitionCache::kNoState, id));
  }

  std::uint64_t builds_now = 0;
  for (const Shard& sh : shards_) builds_now += sh.cache.builds();

  states_ = std::move(st.states);
  for (std::size_t s = 0; s < t; ++s) {
    shards_[s].slots = std::move(staged_slots[s]);
    // Drop buffered read-ahead *without* rewinding: the saved stream words
    // are already a logical position, and the raw generator is about to be
    // overwritten anyway.
    shards_[s].draws.reset();
    shards_[s].rng.set_state(st.rngs[1 + s]);
    shards_[s].ctr = st.shard_ctrs[s];
    shards_[s].pairs = 0;
  }
  migrate_rng_.set_state(st.rngs[0]);
  crashed_ = std::move(st.crashed);
  active_n_ = st.active_n;
  interactions_ = st.interactions;
  time_ = st.time;
  rounds_since_migrate_ = st.rounds_since_migrate;
  params_.migrate_every = st.migrate_every;
  ctr_ = st.ctr;
  cache_builds_base_ = st.cache_builds;
  cache_builds_floor_ = builds_now;
  sidx_dirty_ = false;  // staged slots already carry kNoState shadows
  migration_buf_.clear();
  last_injection_round_ = std::floor(time_);
}

}  // namespace popproto
