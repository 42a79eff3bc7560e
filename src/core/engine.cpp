#include "core/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <tuple>
#include <unordered_map>

#include "persist/snapshot.hpp"

namespace popproto {

Engine::Engine(const Protocol& protocol, std::vector<State> initial_states,
               std::uint64_t seed, SchedulerKind scheduler)
    : protocol_(protocol),
      pop_(std::move(initial_states)),
      rng_(seed),
      scheduler_(scheduler),
      cache_(protocol) {
  POPPROTO_CHECK(protocol_.num_rules() > 0);
  active_.resize(pop_.size());
  std::iota(active_.begin(), active_.end(), 0u);
  pos_in_active_ = active_;
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  sidx_.assign(pop_.size(), TransitionCache::kNoState);
  pop_version_seen_ = pop_.version();
}

void Engine::set_round_hook(RoundHook hook) {
  round_hook_ = std::move(hook);
  last_hook_round_ = std::floor(time_);
}

void Engine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
}

void Engine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
}

void Engine::crash_agent(std::size_t i) {
  POPPROTO_CHECK(i < pop_.size());
  if (!is_active(i)) return;
  POPPROTO_CHECK_MSG(active_.size() > 2,
                     "at least two agents must stay scheduled");
  const std::uint32_t p = pos_in_active_[i];
  const std::uint32_t last = active_.back();
  active_[p] = last;
  pos_in_active_[last] = p;
  active_.pop_back();
  pos_in_active_[i] = kNotActive;
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  active_identity_ = false;
  ++ctr_.crash_events;
  if (trace_) trace_->push(EventKind::kChurnCrash, time_, 1.0);
}

void Engine::rejoin_agent(std::size_t i) {
  POPPROTO_CHECK(i < pop_.size());
  if (is_active(i)) return;
  pos_in_active_[i] = static_cast<std::uint32_t>(active_.size());
  active_.push_back(static_cast<std::uint32_t>(i));
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  ++ctr_.rejoin_events;
  if (trace_) trace_->push(EventKind::kChurnRejoin, time_, 1.0);
}

void Engine::rejoin_agent(std::size_t i, State fresh) {
  rejoin_agent(i);
  pop_.set_state(i, fresh);
}

std::uint64_t Engine::crash_random(std::uint64_t k, Rng& rng) {
  std::vector<std::uint32_t> pool = active_;
  if (pool.size() <= 2) return 0;
  k = std::min<std::uint64_t>(k, pool.size() - 2);
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    crash_agent(pool[j]);
  }
  return k;
}

std::uint64_t Engine::rejoin_random(std::uint64_t k, Rng& rng) {
  std::vector<std::uint32_t> pool;
  for (std::size_t i = 0; i < pop_.size(); ++i)
    if (!is_active(i)) pool.push_back(static_cast<std::uint32_t>(i));
  k = std::min<std::uint64_t>(k, pool.size());
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    rejoin_agent(pool[j]);
  }
  return k;
}

std::uint64_t Engine::rejoin_all(Rng& rng) {
  return rejoin_random(pop_.size(), rng);
}

std::uint64_t Engine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  std::vector<std::uint32_t> pool = active_;
  k = std::min<std::uint64_t>(k, pool.size());
  std::uint64_t rewritten = 0;
  for (std::uint64_t j = 0; j < k; ++j) {
    std::swap(pool[j], pool[j + rng.below(pool.size() - j)]);
    const std::uint32_t victim = pool[j];
    const State old_state = pop_.state(victim);
    const State ns = f(old_state, j);
    if (ns == old_state) continue;
    pop_.set_state(victim, ns);
    ++rewritten;
  }
  ctr_.corrupted_agents += rewritten;
  if (trace_ && k > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return k;
}

void Engine::resync_sidx() {
  std::fill(sidx_.begin(), sidx_.end(), TransitionCache::kNoState);
  pop_version_seen_ = pop_.version();
}

void Engine::resolve(std::uint32_t a, std::uint32_t b, double u) {
  // Index-based fast path: sidx_ shadows each agent's interned state index,
  // so the steady-state interaction is two index loads, one pair-bound load,
  // and (only when the draw changes a state) a breakpoint scan — no hashing,
  // no guard work. Caller guarantees sidx_ is in sync with pop_.
  std::uint32_t ia = sidx_[a];
  if (ia == TransitionCache::kNoState) [[unlikely]]
    ia = sidx_[a] = cache_.state_index(pop_.state(a));
  std::uint32_t ib = sidx_[b];
  if (ib == TransitionCache::kNoState) [[unlikely]]
    ib = sidx_[b] = cache_.state_index(pop_.state(b));
  if (ia != TransitionCache::kNoState && ib != TransitionCache::kNoState)
      [[likely]] {
    const IndexedPair r = cache_.sample_indexed(ia, ib, u);
    if (r.a != TransitionCache::kNoState &&
        r.b != TransitionCache::kNoState) [[likely]] {
#ifdef POPPROTO_PROFILE
      ++ctr_.cache_hits;  // detailed tier: per-draw accounting
#endif
      if (r.a == ia && r.b == ib) [[likely]]
        return;
      if (r.a != ia) {
        pop_.set_state(a, cache_.state_at(r.a));
        sidx_[a] = r.a;
        ++pop_version_seen_;
      }
      if (r.b != ib) {
        pop_.set_state(b, cache_.state_at(r.b));
        sidx_[b] = r.b;
        ++pop_version_seen_;
      }
      ++ctr_.effective_steps;
      return;
    }
  }
  // Cap overflow on an input or result state: resolve by value. sidx_
  // entries for changed agents are reset so the miss path relearns them.
  ++ctr_.cache_fallbacks;
  const State sa = pop_.state(a);
  const State sb = pop_.state(b);
  const PairOutcome o = cache_.sample(sa, sb, u);
  if (o.a != sa || o.b != sb) ++ctr_.effective_steps;
  if (o.a != sa) {
    pop_.set_state(a, o.a);
    sidx_[a] = TransitionCache::kNoState;
    ++pop_version_seen_;
  }
  if (o.b != sb) {
    pop_.set_state(b, o.b);
    sidx_[b] = TransitionCache::kNoState;
    ++pop_version_seen_;
  }
}

void Engine::interact(std::uint32_t a, std::uint32_t b) {
  if (injection_.drop_interaction && injection_.drop_interaction(rng_)) {
    ++ctr_.dropped_interactions;
    return;
  }
  // One fused draw covers thread choice, rule choice, and the outcome coin
  // (core/transition_cache.hpp).
  const double u = rng_.uniform();
  // The shadow index array is trustworthy as long as every population
  // mutation went through us; a version mismatch (faults or tests writing
  // states directly) invalidates it wholesale and relearns lazily.
  if (pop_.version() != pop_version_seen_) [[unlikely]]
    resync_sidx();
  resolve(a, b, u);
}

void Engine::bias_sequential_pair(std::uint32_t& a, std::uint32_t b) {
  if (!bias_ || bias_->epsilon <= 0.0) return;
  if (!rng_.chance(bias_->epsilon)) return;
  for (int t = 0; t < bias_->tries; ++t) {
    const auto cand = active_[rng_.below(active_.size())];
    if (cand == b) continue;
    a = cand;
    if (bias_->prefer.matches(pop_.state(a))) break;
  }
}

void Engine::sequential_step() {
  const auto [pa, pb] = rng_.distinct_pair(active_.size());
  // Until the first crash, active_ is the identity permutation; skip the
  // indirection (one dependent load per agent on the hot path).
  std::uint32_t a = active_identity_ ? static_cast<std::uint32_t>(pa)
                                     : active_[pa];
  const std::uint32_t b = active_identity_ ? static_cast<std::uint32_t>(pb)
                                           : active_[pb];
  bias_sequential_pair(a, b);
  ++interactions_;
  time_ += inv_active_;
  interact(a, b);
}

void Engine::matching_step() {
  sample_random_matching(active_.size(), rng_, matching_buf_);
  for (const auto& [pa, pb] : matching_buf_) {
    std::uint32_t a = active_[pa];
    std::uint32_t b = active_[pb];
    if (bias_ && bias_->epsilon > 0.0 && rng_.chance(bias_->epsilon) &&
        !bias_->prefer.matches(pop_.state(a)) &&
        bias_->prefer.matches(pop_.state(b)))
      std::swap(a, b);
    interact(a, b);
  }
  interactions_ += matching_buf_.size();
  time_ += 1.0;
}

void Engine::fire_round_hooks_if_due() {
  // Walk every whole-round boundary crossed since the last firing so each
  // hook runs exactly once per round, even when a single activation (a
  // matching round, or a hook installed mid-run) spans several boundaries.
  if (injection_.on_round) {
    while (last_injection_round_ + 1.0 <= time_) {
      last_injection_round_ += 1.0;
      injection_.on_round(last_injection_round_);
    }
  }
  if (round_hook_) {
    while (last_hook_round_ + 1.0 <= time_) {
      last_hook_round_ += 1.0;
      round_hook_(last_hook_round_, pop_);
    }
  }
}

bool Engine::step() {
  // Single-step paths draw from rng_ directly (hooks and bias take Rng&);
  // any read-ahead the plain run_steps loop buffered must be rewound first
  // so the stream stays in as-if-sequential order.
  draws_.flush(rng_);
  if (scheduler_ == SchedulerKind::kSequential) {
    sequential_step();
  } else {
    matching_step();
  }
  fire_round_hooks_if_due();
  return true;
}

namespace {

// All 2m agent ids distinct? (64-entry open-addressing probe; the block is
// tiny, so this is a handful of L1 hits per lane.) Distinctness is what
// lets the block's interned indices be loaded up front: no resolve in the
// block can then touch another lane's agents.
bool block_ids_disjoint(const std::uint32_t* a, const std::uint32_t* b,
                        std::size_t m) {
  constexpr std::uint32_t kEmpty = ~0u;
  std::uint32_t tbl[64];
  std::fill(std::begin(tbl), std::end(tbl), kEmpty);
  const auto insert = [&](std::uint32_t id) {
    std::uint32_t h = (id * 0x9e3779b9u) >> 26;
    while (tbl[h] != kEmpty) {
      if (tbl[h] == id) return false;
      h = (h + 1) & 63u;
    }
    tbl[h] = id;
    return true;
  };
  for (std::size_t j = 0; j < m; ++j)
    if (!insert(a[j]) || !insert(b[j])) return false;
  return true;
}

}  // namespace

void Engine::run_steps(std::uint64_t k) {
  // Specialized loop for the plain configuration (sequential scheduler, no
  // bias, no hooks, no churn so far). Nothing observable differs from k
  // plain step() calls — the RNG word order (pair draws, then the outcome
  // uniform, per step) and all counters are identical — but the draws
  // come from the bulk buffer (refilled 1024 words at a time) and are
  // precomputed a block of 16 steps ahead, so the scattered sidx_ loads of
  // the whole block prefetch while earlier steps resolve.
  // Within a block whose agents are pairwise distinct, the pair-table
  // prescan (TransitionCache::prescan_slow, SIMD-gathered) proves the
  // no-op lanes — the dominant case — in one pass, and only the lanes that
  // may change state take the scalar kernel. No hooks can run, so none of
  // the guard conditions can change mid-loop.
  if (k == 0) return;
  const bool plain = scheduler_ == SchedulerKind::kSequential && !bias_ &&
                     !injection_.drop_interaction && !injection_.on_round &&
                     !round_hook_ && active_identity_;
  if (!plain) {
    for (std::uint64_t i = 0; i < k; ++i) step();
    return;
  }
  if (pop_.version() != pop_version_seen_) resync_sidx();
  const std::uint64_t n = active_.size();
  constexpr std::size_t kBlock = 16;
  std::uint32_t ba[kBlock], bb[kBlock], ia[kBlock], ib[kBlock];
  double bu[kBlock];
  std::uint64_t done = 0;
  while (done < k) {
    const auto m =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, k - done));
    for (std::size_t j = 0; j < m; ++j) {
      const auto [a, b] = draws_.distinct_pair(rng_, n);
      ba[j] = static_cast<std::uint32_t>(a);
      bb[j] = static_cast<std::uint32_t>(b);
      bu[j] = draws_.uniform(rng_);
      __builtin_prefetch(&sidx_[a]);
      __builtin_prefetch(&sidx_[b]);
    }
    // time_ accumulates in the same per-step order as the step loop (the
    // resolves never touch it, so hoisting it out of the resolve loop is
    // bit-preserving).
    for (std::size_t j = 0; j < m; ++j) time_ += inv_active_;
    interactions_ += m;
    bool fast = true;
    for (std::size_t j = 0; j < m; ++j) {
      ia[j] = sidx_[ba[j]];
      ib[j] = sidx_[bb[j]];
      fast = fast && ia[j] != TransitionCache::kNoState &&
             ib[j] != TransitionCache::kNoState;
    }
    if (fast && block_ids_disjoint(ba, bb, m)) {
      const std::uint64_t slow = cache_.prescan_slow(ia, ib, bu, m);
#ifdef POPPROTO_PROFILE
      ctr_.cache_hits +=
          m - static_cast<std::uint64_t>(__builtin_popcountll(slow));
#endif
      for (std::uint64_t bits = slow; bits != 0; bits &= bits - 1) {
        const auto j =
            static_cast<std::size_t>(__builtin_ctzll(bits));
        resolve(ba[j], bb[j], bu[j]);
      }
    } else {
      for (std::size_t j = 0; j < m; ++j) resolve(ba[j], bb[j], bu[j]);
    }
    done += m;
  }
}

void Engine::run_rounds(double rounds_to_run) {
  const double target = time_ + rounds_to_run;
  while (time_ < target) step();
}

std::optional<double> Engine::run_until(
    const std::function<bool(const AgentPopulation&)>& predicate,
    double max_rounds, double check_interval) {
  return SimBackend::run_until(
      [&](const SimBackend&) { return predicate(pop_); }, max_rounds,
      check_interval);
}

EngineCounters Engine::counters() const {
  EngineCounters c = ctr_;
  c.interactions = interactions_;
  c.cache_builds = cache_builds_base_ + (cache_.builds() - cache_builds_floor_);
  return c;
}

void Engine::snapshot(std::ostream& out) const {
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   pop_.size());

  std::string core;
  BinWriter c(core);
  c.u8(static_cast<std::uint8_t>(scheduler_));
  c.u8(1);  // kernel-cache flag of format v1: always on
  c.f64(time_);
  c.u64(interactions_);
  w.section(SnapshotSection::kCore, core);

  std::string popn;
  BinWriter p(popn);
  p.u64_vec(pop_.states());
  p.u32_vec(active_);
  w.section(SnapshotSection::kPopulation, popn);

  std::string rng;
  BinWriter r(rng);
  r.u64(1);  // stream count
  // The *logical* stream state: rng_ rewound past any unconsumed bulk-draw
  // read-ahead (support/rng.hpp BulkDraws). Same 4-word format as ever — a
  // snapshot taken mid-buffer restores to the exact next unconsumed draw,
  // and old snapshots stay readable.
  for (const std::uint64_t word : draws_.logical(rng_).state()) r.u64(word);
  w.section(SnapshotSection::kRngStreams, rng);

  std::string ctrs;
  BinWriter k(ctrs);
  serialize_counters(k, counters());
  w.section(SnapshotSection::kCounters, ctrs);

  w.finish();
}

void Engine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));

  struct Staging {
    std::uint8_t scheduler = 0;
    double time = 0.0;
    std::uint64_t interactions = 0;
    std::vector<State> states;
    std::vector<std::uint32_t> active;
    std::array<std::uint64_t, 4> rng{};
    EngineCounters ctr;
  } st;
  bool have_core = false, have_pop = false, have_rng = false, have_ctr = false;

  SnapshotSection tag;
  std::string payload;
  while (reader.next(&tag, &payload)) {
    BinReader r(payload);
    switch (tag) {
      case SnapshotSection::kCore:
        st.scheduler = r.u8();
        // Format v1 kernel-cache flag: ignored, since the cached and
        // uncached kernels map every draw to the same outcome.
        r.u8();
        st.time = r.f64();
        st.interactions = r.u64();
        have_core = true;
        break;
      case SnapshotSection::kPopulation:
        st.states = r.u64_vec();
        st.active = r.u32_vec();
        have_pop = true;
        break;
      case SnapshotSection::kRngStreams:
        if (r.u64() != 1)
          throw SnapshotError(SnapshotErrc::kConfigMismatch,
                              "agent engine snapshots carry one RNG stream");
        for (auto& word : st.rng) word = r.u64();
        have_rng = true;
        break;
      case SnapshotSection::kCounters:
        st.ctr = deserialize_counters(r);
        have_ctr = true;
        break;
      default:
        throw SnapshotError(SnapshotErrc::kCorrupt,
                            "section not used by the agent engine");
    }
  }
  if (!(have_core && have_pop && have_rng && have_ctr))
    throw SnapshotError(SnapshotErrc::kTruncated,
                        "snapshot missing a required section");

  // Semantic validation — *this stays untouched until everything passed.
  if (st.scheduler > static_cast<std::uint8_t>(SchedulerKind::kRandomMatching))
    throw SnapshotError(SnapshotErrc::kCorrupt, "unknown scheduler kind");
  const std::size_t n = st.states.size();
  if (n != reader.population_n() || n < 2)
    throw SnapshotError(SnapshotErrc::kCorrupt, "population size mismatch");
  if (st.active.size() < 2 || st.active.size() > n)
    throw SnapshotError(SnapshotErrc::kCorrupt, "active set out of range");
  std::vector<char> seen(n, 0);
  bool identity = st.active.size() == n;
  for (std::size_t p = 0; p < st.active.size(); ++p) {
    const std::uint32_t id = st.active[p];
    if (id >= n || seen[id])
      throw SnapshotError(SnapshotErrc::kCorrupt, "invalid active agent id");
    seen[id] = 1;
    identity = identity && id == p;
  }
  if (st.rng == std::array<std::uint64_t, 4>{})
    throw SnapshotError(SnapshotErrc::kCorrupt, "all-zero RNG state");
  if (!(st.time >= 0.0))  // also rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time base");

  // Stage the remaining allocations, then commit with throw-free moves.
  AgentPopulation staged_pop(std::move(st.states));
  std::vector<std::uint32_t> pos(n, kNotActive);
  for (std::size_t p = 0; p < st.active.size(); ++p)
    pos[st.active[p]] = static_cast<std::uint32_t>(p);
  std::vector<std::uint32_t> fresh_sidx(n, TransitionCache::kNoState);

  pop_ = std::move(staged_pop);
  active_ = std::move(st.active);
  pos_in_active_ = std::move(pos);
  sidx_ = std::move(fresh_sidx);
  pop_version_seen_ = pop_.version();
  inv_active_ = 1.0 / static_cast<double>(active_.size());
  active_identity_ = identity;
  draws_.reset();  // buffered read-ahead belongs to the overwritten stream
  rng_.set_state(st.rng);
  scheduler_ = static_cast<SchedulerKind>(st.scheduler);
  time_ = st.time;
  interactions_ = st.interactions;
  ctr_ = st.ctr;
  cache_builds_base_ = st.ctr.cache_builds;
  cache_builds_floor_ = cache_.builds();
  // Hook cadences resume on the uninterrupted run's grid: the next firing is
  // the first whole round after the restored time.
  last_hook_round_ = std::floor(time_);
  last_injection_round_ = std::floor(time_);
  matching_buf_.clear();
}

std::uint64_t Engine::count_matching(const Guard& g) const {
  if (active_identity_) return pop_.count_matching(g);
  std::uint64_t count = 0;
  for (const std::uint32_t i : active_)
    if (g.matches(pop_.state(i))) ++count;
  return count;
}

std::vector<std::pair<State, std::uint64_t>> Engine::species() const {
  std::unordered_map<State, std::uint64_t> counts;
  for (const std::uint32_t i : active_) ++counts[pop_.state(i)];
  std::vector<std::pair<State, std::uint64_t>> out(counts.begin(),
                                                   counts.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace popproto
