#include "core/count_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/pair_sampler.hpp"
#include "persist/snapshot.hpp"

namespace popproto {

namespace {
// The sampler policy takes skip-ahead while the total change weight W is
// below kSkipBelow / sqrt(n), and batches otherwise. A batch advances
// ~0.63 sqrt(n) interactions per O(species^2) set of draws and a skip-ahead
// jump 1/W interactions per O(species^2) event rebuild, so the break-even W
// falls as 1/sqrt(n); the constant comes from the sweep in EXPERIMENTS.md.
constexpr double kSkipBelow = 32.0;
// Change-weight table entry not yet filled (real weights are >= 0).
constexpr double kUnfilled = -1.0;
constexpr std::uint32_t kNoState = TransitionCache::kNoState;

// Batch cap: the most interactions one batch may span. A batch ends at its
// first collision anyway, so the cap only needs to clear the collision-free run
// distribution (E[run] ~ 0.63 sqrt(n) by the birthday bound, tail ~ 2 sqrt(n));
// 2 sqrt(n) lets nearly every run end naturally without truncation, and the
// sweep in EXPERIMENTS.md shows throughput is flat past that point. Clamped
// so tiny populations still batch and huge ones keep per-batch scratch
// bounded.
std::uint64_t auto_batch_cap(std::uint64_t n) {
  const auto r =
      static_cast<std::uint64_t>(2.0 * std::sqrt(static_cast<double>(n)));
  return std::clamp<std::uint64_t>(r, 8, std::uint64_t{1} << 16);
}

// W < kSkipBelow / sqrt(n), without the square root (W >= 0).
bool below_skip_threshold(double w, std::uint64_t n) {
  return w * w * static_cast<double>(n) < kSkipBelow * kSkipBelow;
}

// Index i drawn with probability count_at(i) / total, where `total` is the
// sum of count_at(0..size): one uniform draw in [0, total), then a scan of
// the running sums in index order (the order is part of the trajectory).
template <class CountAt>
std::size_t pick_index(Rng& rng, std::uint64_t total, std::size_t size,
                       CountAt count_at) {
  std::uint64_t r = rng.below(total);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t c = count_at(i);
    if (r < c) return i;
    r -= c;
  }
  POPPROTO_CHECK_MSG(false, "weighted index sampling fell through");
  return 0;
}
}  // namespace

CountEngine::CountEngine(const Protocol& protocol,
                         std::vector<std::pair<State, std::uint64_t>> initial,
                         std::uint64_t seed, CountEngineMode mode)
    : protocol_(protocol),
      cache_(protocol),
      rng_(seed),
      mode_(mode) {
  POPPROTO_CHECK(protocol.num_rules() > 0);
  for (const auto& [s, c] : initial) add_count(s, c);
  POPPROTO_CHECK_MSG(n_ >= 2, "population needs at least 2 agents");
}

void CountEngine::set_injection_hook(InjectionHook hook) {
  injection_ = std::move(hook);
  last_injection_round_ = std::floor(time_);
}

void CountEngine::set_scheduler_bias(std::optional<SchedulerBias> bias) {
  bias_ = std::move(bias);
}

void CountEngine::maybe_fire_injection() {
  if (!injection_.on_round) return;
  while (last_injection_round_ + 1.0 <= time_) {
    last_injection_round_ += 1.0;
    injection_.on_round(last_injection_round_);
  }
}

void CountEngine::add_count(State s, std::uint64_t delta) {
  if (delta == 0) return;
  counts_[slot_for(s)] += delta;
  n_ += delta;
}

std::size_t CountEngine::slot_for(State s) {
  const std::uint32_t x = cache_.state_index(s);
  if (x != kNoState) return slot_for_index(x);
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (slot_idx_[i] == kNoState && states_[i] == s) return i;
  return append_slot(s, kNoState);
}

std::size_t CountEngine::slot_for_index(std::uint32_t x) {
  if (x < slot_of_.size() && slot_of_[x] != kNoSpecies) return slot_of_[x];
  return append_slot(cache_.state_at(x), x);
}

std::size_t CountEngine::append_slot(State s, std::uint32_t x) {
  const std::size_t slot = states_.size();
  states_.push_back(s);
  counts_.push_back(0);
  slot_idx_.push_back(x);
  if (x != kNoState) {
    if (x >= slot_of_.size())
      slot_of_.resize(std::max<std::size_t>(x + 1, cache_.num_states()),
                      kNoSpecies);
    slot_of_[x] = slot;
  }
  return slot;
}

void CountEngine::extend_change_weights() {
  std::size_t stride = std::max<std::size_t>(8, cw_stride_);
  while (stride < states_.size()) stride *= 2;
  std::vector<double> grown(stride * stride, kUnfilled);
  for (std::size_t i = 0; i < cw_stride_; ++i)
    std::copy_n(&cw_[i * cw_stride_], cw_stride_, &grown[i * stride]);
  cw_ = std::move(grown);
  cw_stride_ = stride;
}

void CountEngine::clear_slots() {
  for (const std::uint32_t x : slot_idx_)
    if (x != kNoState) slot_of_[x] = kNoSpecies;
  states_.clear();
  counts_.clear();
  slot_idx_.clear();
  drop_change_weights();
}

void CountEngine::drop_change_weights() {
  std::fill(cw_.begin(), cw_.end(), kUnfilled);
}

void CountEngine::remove_count(std::size_t index, std::uint64_t delta) {
  POPPROTO_DCHECK(counts_[index] >= delta);
  counts_[index] -= delta;
  n_ -= delta;
}

void CountEngine::compact() {
  if (std::find(counts_.begin(), counts_.end(), 0) == counts_.end()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const std::uint32_t x = slot_idx_[i];
    if (counts_[i] == 0) {
      if (x != kNoState) slot_of_[x] = kNoSpecies;
      continue;
    }
    states_[kept] = states_[i];
    counts_[kept] = counts_[i];
    slot_idx_[kept] = x;
    if (x != kNoState) slot_of_[x] = kept;
    ++kept;
  }
  states_.resize(kept);
  counts_.resize(kept);
  slot_idx_.resize(kept);
  drop_change_weights();
}

std::size_t CountEngine::sample_species(std::size_t exclude_one_of) {
  const bool exclude = exclude_one_of != kNoSpecies;
  return pick_index(rng_, n_ - (exclude ? 1 : 0), counts_.size(),
                    [&](std::size_t i) {
                      return counts_[i] - (i == exclude_one_of ? 1 : 0);
                    });
}

std::uint64_t CountEngine::crash_random(std::uint64_t k, Rng& rng) {
  std::uint64_t moved = 0;
  while (moved < k && n_ > 2) {
    const std::size_t i = pick_index(rng, n_, counts_.size(),
                                     [&](std::size_t j) { return counts_[j]; });
    const State s = states_[i];
    remove_count(i, 1);
    auto it = std::find_if(crashed_.begin(), crashed_.end(),
                           [&](const auto& p) { return p.first == s; });
    if (it == crashed_.end()) {
      crashed_.emplace_back(s, 1);
    } else {
      ++it->second;
    }
    ++crashed_n_;
    ++moved;
  }
  ctr_.crash_events += moved;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnCrash, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountEngine::rejoin_random(std::uint64_t k, Rng& rng) {
  std::uint64_t moved = 0;
  while (moved < k && crashed_n_ > 0) {
    auto& [s, c] = crashed_[pick_index(
        rng, crashed_n_, crashed_.size(),
        [&](std::size_t i) { return crashed_[i].second; })];
    --c;
    --crashed_n_;
    add_count(s, 1);
    ++moved;
  }
  if (moved > 0) silent_ = false;  // stale state may re-enable rules
  ctr_.rejoin_events += moved;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountEngine::rejoin_all(Rng& /*rng*/) {
  const std::uint64_t moved = crashed_n_;
  for (auto& [s, c] : crashed_) {
    add_count(s, c);
    c = 0;
  }
  crashed_n_ = 0;
  crashed_.clear();
  if (moved > 0) silent_ = false;
  ctr_.rejoin_events += moved;
  if (trace_ && moved > 0)
    trace_->push(EventKind::kChurnRejoin, time_, static_cast<double>(moved));
  return moved;
}

std::uint64_t CountEngine::mutate_random_agents(
    std::uint64_t k, Rng& rng,
    const std::function<State(State old_state, std::uint64_t j)>& f) {
  k = std::min(k, n_);
  // Draw k distinct agents without replacement from the current counts
  // (exact multivariate hypergeometric), then apply all rewrites.
  std::vector<std::uint64_t> pool = counts_;
  std::uint64_t pool_total = n_;
  std::vector<std::uint64_t> drawn(counts_.size(), 0);
  for (std::uint64_t j = 0; j < k; ++j) {
    const std::size_t i = pick_index(rng, pool_total, pool.size(),
                                     [&](std::size_t m) { return pool[m]; });
    --pool[i];
    ++drawn[i];
    --pool_total;
  }
  std::uint64_t j = 0, rewritten = 0;
  const std::size_t num_species = drawn.size();  // add_count may append
  for (std::size_t i = 0; i < num_species; ++i) {
    const State old_state = states_[i];
    for (std::uint64_t d = 0; d < drawn[i]; ++d, ++j) {
      const State ns = f(old_state, j);
      if (ns == old_state) continue;
      remove_count(i, 1);
      add_count(ns, 1);
      ++rewritten;
    }
  }
  if (rewritten > 0) silent_ = false;
  ctr_.corrupted_agents += rewritten;
  if (trace_ && k > 0)
    trace_->push(EventKind::kFaultInjected, time_,
                 static_cast<double>(rewritten));
  return k;
}

bool CountEngine::resolve_pair(std::size_t ia, std::size_t ib, double u,
                               bool change_only) {
  const std::uint32_t xa = slot_idx_[ia];
  const std::uint32_t xb = slot_idx_[ib];
  if (xa != kNoState && xb != kNoState) {
    const IndexedPair o = change_only ? cache_.sample_change_indexed(xa, xb, u)
                                      : cache_.sample_indexed(xa, xb, u);
    if (o.a == xa && o.b == xb) return false;
    if (o.a != kNoState && o.b != kNoState) {
      --counts_[ia];
      --counts_[ib];
      ++counts_[slot_for_index(o.a)];
      ++counts_[slot_for_index(o.b)];
      return true;
    }
    // A result state is past the cache's cap: redo the same draw by value.
  }
  const State sa = states_[ia];
  const State sb = states_[ib];
  const PairOutcome o = change_only ? cache_.sample_change(sa, sb, u)
                                    : cache_.sample(sa, sb, u);
  if (o.a == sa && o.b == sb) return false;
  --counts_[ia];
  --counts_[ib];
  ++counts_[slot_for(o.a)];
  ++counts_[slot_for(o.b)];
  return true;
}

void CountEngine::apply_change(std::size_t ia, std::size_t ib) {
  if (resolve_pair(ia, ib, rng_.uniform(), /*change_only=*/true)) ++effective_;
}

void CountEngine::direct_step() {
  std::size_t ia = sample_species();
  if (bias_ && bias_->epsilon > 0.0 && rng_.chance(bias_->epsilon)) {
    for (int t = 0; t < bias_->tries; ++t) {
      ia = sample_species();
      if (bias_->prefer.matches(states_[ia])) break;
    }
  }
  const std::size_t ib = sample_species(/*exclude_one_of=*/ia);
  ++interactions_;
  time_ += 1.0 / static_cast<double>(n_);

  if (injection_.drop_interaction && injection_.drop_interaction(rng_)) {
    ++ctr_.dropped_interactions;
    return;
  }

  // One fused draw covers thread choice (incl. empty-thread padding mass),
  // rule choice, and the outcome coin; see core/transition_cache.hpp.
  if (resolve_pair(ia, ib, rng_.uniform(), /*change_only=*/false))
    ++effective_;
}

void CountEngine::rebuild_events() {
  compact();
  if (states_.size() > cw_stride_) extend_change_weights();
  events_.clear();
  events_total_weight_ = 0.0;
  const double pair_norm =
      1.0 / (static_cast<double>(n_) * static_cast<double>(n_ - 1));
  // Pair-major: one fused change weight per ordered species pair, so the
  // event list is |S|^2 entries read from the per-slot table. An entry is
  // filled the first time this loop reaches its pair; filling pairs it
  // never reaches would build cache entries (and move cache_builds) that
  // the trajectory never asked for.
  for (std::size_t i = 0; i < states_.size(); ++i) {
    double* cw_row = cw_.data() + i * cw_stride_;
    for (std::size_t j = 0; j < states_.size(); ++j) {
      const double pairs =
          static_cast<double>(counts_[i]) *
          (static_cast<double>(counts_[j]) - (i == j ? 1.0 : 0.0));
      if (pairs <= 0.0) continue;
      if (cw_row[j] == kUnfilled)
        cw_row[j] = cache_.change_weight(states_[i], states_[j]);
      const double cw = cw_row[j];
      if (cw <= 0.0) continue;
      const double w = pairs * pair_norm * cw;
      events_.push_back(Event{w, i, j});
      events_total_weight_ += w;
    }
  }
}

void CountEngine::idle(double limit) {
  // No effective interaction can happen before `limit`: account the gap as
  // one skipped run of no-ops. An unbounded limit (a step() with no fault
  // schedule) idles one round.
  if (std::isinf(limit)) limit = time_ + 1.0;
  const auto bulk = static_cast<std::uint64_t>(
      std::llround((limit - time_) * static_cast<double>(n_)));
  interactions_ += bulk;
  ++ctr_.skip_jumps;
  ctr_.skipped_interactions += bulk;
  time_ = limit;
}

void CountEngine::skip_step(double limit) {
  const std::uint64_t skip =
      rng_.geometric(std::min(events_total_weight_, 1.0));
  const double landing =
      time_ + (static_cast<double>(skip) + 1.0) / static_cast<double>(n_);
  if (skip == std::numeric_limits<std::uint64_t>::max() || landing > limit) {
    // The geometric law is memoryless, so stopping at `limit` and drawing
    // afresh from there is exact. A saturated draw (2^64 - 1 or more no-ops)
    // lands past any limit.
    idle(limit);
    return;
  }
  interactions_ += skip + 1;
  ++ctr_.skip_jumps;
  ctr_.skipped_interactions += skip;
  time_ = landing;

  double u = rng_.uniform() * events_total_weight_;
  const Event* chosen = &events_.back();
  for (const auto& e : events_) {
    if (u < e.weight) {
      chosen = &e;
      break;
    }
    u -= e.weight;
  }
  // Interaction dropout thins the effective process: a dropped effective
  // interaction is a no-op, and by memorylessness the retry chain composes
  // to the exact Geometric(w * (1 - p)) law.
  if (injection_.drop_interaction && injection_.drop_interaction(rng_)) {
    ++ctr_.dropped_interactions;
  } else {
    apply_change(chosen->species_a, chosen->species_b);
  }
}

std::size_t CountEngine::batch_species_slot(State s) {
  const std::size_t slot = slot_for(s);
  if (bat_touched_.size() < states_.size())
    bat_touched_.resize(states_.size(), 0);
  return slot;
}

std::uint64_t CountEngine::batch_apply_pair(std::size_t ia, std::size_t ib,
                                            std::uint64_t k) {
  // The k initiators (species ia) and k responders (species ib) are already
  // out of counts_; this decides their post-interaction states and deposits
  // them into the touched multiset. Conditioned on the block being
  // collision-free, the k fused draws are i.i.d., so the number that change
  // state is Binomial(k, change_weight) and the changing ones distribute
  // multinomially over the conditional outcome categories.
  const State sa = states_[ia];
  const State sb = states_[ib];
  TransitionCache::ChangeDistView v;
  if (!cache_.change_dist(sa, sb, &v)) {
    // State cap exceeded: resolve this pair by value.
    bat_cum_.clear();
    bat_res_.clear();
    v.change_weight = cache_.change_dist_uncached(sa, sb, bat_cum_, bat_res_);
    v.cum = bat_cum_.data();
    v.res = bat_res_.data();
    v.count = static_cast<std::uint32_t>(bat_cum_.size());
  }
  std::uint64_t changed = 0;
  if (v.count > 0 && v.change_weight > 0.0)
    changed = sample_binomial(rng_, k, std::min(v.change_weight, 1.0));
  if (changed > 0) {
    if (v.count == 1) {
      const PairOutcome o = v.res[0];
      bat_touched_[batch_species_slot(o.a)] += changed;
      bat_touched_[batch_species_slot(o.b)] += changed;
    } else {
      // Category masses are the breakpoint gaps (absolute fused mass;
      // cum[count-1] == change_weight keeps the conditionals exact).
      bat_gap_.resize(v.count);
      bat_gap_[0] = v.cum[0];
      for (std::uint32_t c = 1; c < v.count; ++c)
        bat_gap_[c] = v.cum[c] - v.cum[c - 1];
      // Snapshot outcomes first: batch_species_slot may grow states_ and the
      // by-value fallback's view aliases bat_res_ which we are done mutating,
      // but the cached view's pointers die on the next cache build.
      bat_ores_.assign(v.res, v.res + v.count);
      sample_multinomial(rng_, changed, bat_gap_.data(), v.count,
                         v.change_weight, bat_out_);
      for (std::uint32_t c = 0; c < v.count; ++c) {
        if (bat_out_[c] == 0) continue;
        bat_touched_[batch_species_slot(bat_ores_[c].a)] += bat_out_[c];
        bat_touched_[batch_species_slot(bat_ores_[c].b)] += bat_out_[c];
      }
    }
  }
  bat_touched_[ia] += k - changed;
  bat_touched_[ib] += k - changed;
  effective_ += changed;
  return changed;
}

void CountEngine::batch_collision_interaction(std::uint64_t* m_total,
                                              std::uint64_t* u_total) {
  // The interaction that ended a collision-free run, conditioned on "not
  // collision-free": at least one participant repeats a touched agent.
  // With u touched and m untouched agents the ordered membership categories
  // weigh  TT: u(u-1)   TU: u*m   UT: m*u   (UU is the excluded
  // collision-free event), all over the same denominator n(n-1) - m(m-1),
  // so an integer draw over the three weights is the exact conditional.
  const std::uint64_t u = *u_total;
  const std::uint64_t m = *m_total;
  POPPROTO_CHECK_MSG(u > 0, "collision interaction with no touched agents");
  const std::uint64_t wtt = u > 0 ? u * (u - 1) : 0;
  const std::uint64_t wtu = u * m;
  const std::uint64_t r = rng_.below(wtt + 2 * wtu);
  const bool init_touched = r < wtt + wtu;
  const bool resp_touched = r < wtt || r >= wtt + wtu;
  const auto pick = [&](const std::vector<std::uint64_t>& pool,
                        std::uint64_t total) {
    return pick_index(rng_, total, pool.size(),
                      [&](std::size_t i) { return pool[i]; });
  };
  // Remove the initiator from its pool before drawing the responder, so a
  // TT pair never reuses the same agent.
  std::size_t ia, ib;
  if (init_touched) {
    ia = pick(bat_touched_, *u_total);
    --bat_touched_[ia];
    --*u_total;
  } else {
    ia = pick(counts_, *m_total);
    --counts_[ia];
    --*m_total;
  }
  if (resp_touched) {
    ib = pick(bat_touched_, *u_total);
    --bat_touched_[ib];
    --*u_total;
  } else {
    ib = pick(counts_, *m_total);
    --counts_[ib];
    --*m_total;
  }
  const State sa = states_[ia];
  const State sb = states_[ib];
  const double u01 = rng_.uniform();
  const PairOutcome o = cache_.sample(sa, sb, u01);
  ++bat_touched_[batch_species_slot(o.a)];
  ++bat_touched_[batch_species_slot(o.b)];
  *u_total += 2;
  if (o.a != sa || o.b != sb) ++effective_;
  ++ctr_.batch_collisions;
}

void CountEngine::batch_step(double limit) {
  // Interaction budget until `limit` (round boundary or run target), capped
  // by the batch size. Guard the infinite-limit case before casting.
  const double room = (limit - time_) * static_cast<double>(n_);
  const std::uint64_t cap = auto_batch_cap(n_);
  std::uint64_t budget = cap;
  if (room < static_cast<double>(cap))
    budget = room >= 1.0 ? static_cast<std::uint64_t>(room) : 1;

  // rebuild_events just compacted: dense nonzero counts for the
  // hypergeometric scans.
  bat_touched_.assign(states_.size(), 0);
  std::uint64_t m_total = n_;  // untouched agents (still in counts_)
  std::uint64_t u_total = 0;   // touched agents (in bat_touched_)
  std::uint64_t done = 0;
  // One batch = collision-free runs up to the first collision interaction
  // (or the budget). Ending the batch at the first collision is the
  // throughput sweet spot: merging the touched agents back resets the
  // collision hazard, so every run gets the full-length ~0.63 sqrt(n)
  // amortization for its O(species^2) distributional draws — continuing
  // past a collision would only buy progressively shorter runs (the hazard
  // grows with the touched count) at the same per-run sampling cost.
  while (done < budget) {
    bool collided = false;
    const std::uint64_t run =
        sample_collision_run(rng_, n_, m_total, budget - done, &collided);
    if (run > 0) {
      // Collision-free block of `run` ordered pairs over 2*run distinct
      // untouched agents: initiator species counts are one multivariate
      // hypergeometric draw; each initiator row's responders are a nested
      // one from the pool with all initiators removed (exact by
      // exchangeability of the without-replacement sequence).
      sample_multivariate_hypergeometric(rng_, counts_, m_total, run,
                                         bat_di_);
      for (std::size_t i = 0; i < bat_di_.size(); ++i)
        counts_[i] -= bat_di_[i];
      m_total -= run;
      const std::size_t rows = bat_di_.size();  // slots may grow mid-loop
      for (std::size_t i = 0; i < rows; ++i) {
        const std::uint64_t di = bat_di_[i];
        if (di == 0) continue;
        sample_multivariate_hypergeometric(rng_, counts_, m_total, di,
                                           bat_row_);
        m_total -= di;
        const std::size_t cols = bat_row_.size();
        for (std::size_t j = 0; j < cols; ++j) {
          if (bat_row_[j] == 0) continue;
          counts_[j] -= bat_row_[j];
          batch_apply_pair(i, j, bat_row_[j]);
        }
      }
      u_total += 2 * run;
      done += run;
      ++ctr_.batch_blocks;
    }
    if (collided && done < budget) {
      batch_collision_interaction(&m_total, &u_total);
      ++done;
      break;
    }
    if (!collided && m_total >= 2) break;  // budget reached collision-free
    // Otherwise the untouched pool ran dry before the budget (m_total < 2):
    // loop again — the next sample_collision_run returns an immediate
    // collision and the batch ends on it.
  }
  // Merge the touched multiset back into the scheduled counts; from here on
  // the next block may touch these agents again, which is exact because
  // their updated states are now part of the configuration.
  for (std::size_t i = 0; i < bat_touched_.size(); ++i)
    counts_[i] += bat_touched_[i];
  interactions_ += done;
  time_ += static_cast<double>(done) / static_cast<double>(n_);
}

CountEngine::Sampler CountEngine::choose_sampler() {
  use_skip_ = false;
  if (mode_ == CountEngineMode::kDirect || bias_) return Sampler::kDirect;
  rebuild_events();
  if (events_total_weight_ <= 0.0) return Sampler::kIdle;
  // Batch aggregation resolves same-pair interactions in aggregate, so a
  // per-interaction dropout predicate (consulted once per effective
  // interaction by skip-ahead) rules it out.
  use_skip_ = injection_.drop_interaction ||
              below_skip_threshold(events_total_weight_, n_);
  return use_skip_ ? Sampler::kSkip : Sampler::kBatch;
}

bool CountEngine::activate(double limit) {
  switch (silent_ ? Sampler::kIdle : choose_sampler()) {
    case Sampler::kDirect:
      direct_step();
      break;
    case Sampler::kBatch:
      batch_step(limit);
      break;
    case Sampler::kSkip:
      skip_step(limit);
      break;
    case Sampler::kIdle:
      silent_ = true;
      idle(limit);
      break;
  }
  maybe_fire_injection();
  return !silent_;
}

bool CountEngine::step() {
  return activate(injection_.on_round
                      ? last_injection_round_ + 1.0
                      : std::numeric_limits<double>::infinity());
}

void CountEngine::run_rounds(double rounds_to_run) {
  const double target = time_ + rounds_to_run;
  while (time_ < target) {
    // With a fault schedule installed, activations stop at the next whole
    // round so its events land on time.
    activate(injection_.on_round
                 ? std::min(target, last_injection_round_ + 1.0)
                 : target);
  }
}

EngineCounters CountEngine::counters() const {
  EngineCounters c = ctr_;
  c.interactions = interactions_;
  c.effective_steps = effective_;
  c.cache_builds = cache_builds_base_ + (cache_.builds() - cache_builds_floor_);
  return c;
}

void CountEngine::snapshot(std::ostream& out) const {
  SnapshotWriter w(out, backend_name(), protocol_fingerprint(protocol_),
                   n_ + crashed_n_);

  std::string core;
  BinWriter c(core);
  c.u8(static_cast<std::uint8_t>(mode_));
  c.u8(1);  // kernel-cache flag of format v1: always on
  c.u8(use_skip_ ? 1 : 0);
  c.u8(silent_ ? 1 : 0);
  c.u64(0);  // batch cap of format v1: always automatic
  c.f64(time_);
  c.u64(interactions_);
  c.u64(effective_);
  // Format v1's hysteresis window (steps, effective since the last mode
  // switch). No engine keeps a window any more and restore ignores both
  // fields, so the values are cosmetic. The policy writes 0. A direct engine
  // writes its interaction and effective totals, as the retired window code
  // did for an engine that never switched (that code also zeroed the window
  // on reset_population); this keeps the bytes of the recorded kDirect
  // snapshot pins.
  const bool direct = mode_ == CountEngineMode::kDirect;
  c.u64(direct ? interactions_ : 0);
  c.u64(direct ? effective_ : 0);
  c.f64(events_total_weight_);
  w.section(SnapshotSection::kCore, core);

  std::string popn;
  BinWriter p(popn);
  p.u64(n_);
  p.u64_vec(states_);  // exact internal order, zero-count slots included
  p.u64_vec(counts_);
  p.u64(crashed_n_);
  p.u64(crashed_.size());
  for (const auto& [s, cnt] : crashed_) {
    p.u64(s);
    p.u64(cnt);
  }
  w.section(SnapshotSection::kPopulation, popn);

  std::string rng;
  BinWriter r(rng);
  r.u64(1);  // stream count
  for (const std::uint64_t word : rng_.state()) r.u64(word);
  w.section(SnapshotSection::kRngStreams, rng);

  std::string ctrs;
  BinWriter k(ctrs);
  serialize_counters(k, counters());
  w.section(SnapshotSection::kCounters, ctrs);

  w.finish();
}

void CountEngine::restore(std::istream& in) {
  SnapshotReader reader(in, backend_name(), protocol_fingerprint(protocol_));

  struct Staging {
    std::uint8_t mode = 0;
    bool use_skip = false;
    bool silent = false;
    std::uint64_t batch_size = 0;
    double time = 0.0;
    std::uint64_t interactions = 0;
    std::uint64_t effective = 0;
    double events_total_weight = 0.0;
    std::uint64_t n = 0;
    std::vector<State> states;
    std::vector<std::uint64_t> counts;
    std::uint64_t crashed_n = 0;
    std::vector<std::pair<State, std::uint64_t>> crashed;
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
        st.mode = r.u8();
        // Format v1 kernel-cache flag: ignored, since the cached and
        // uncached kernels map every draw to the same outcome.
        r.u8();
        st.use_skip = r.u8() != 0;
        st.silent = r.u8() != 0;
        st.batch_size = r.u64();
        st.time = r.f64();
        st.interactions = r.u64();
        st.effective = r.u64();
        // Format v1 hysteresis window: ignored, the policy keeps no window.
        r.u64();
        r.u64();
        st.events_total_weight = r.f64();
        have_core = true;
        break;
      case SnapshotSection::kPopulation: {
        st.n = r.u64();
        st.states = r.u64_vec();
        st.counts = r.u64_vec();
        st.crashed_n = r.u64();
        const std::uint64_t pairs = r.u64();
        if (pairs > r.remaining() / 16)
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "crashed-species count exceeds payload");
        st.crashed.reserve(static_cast<std::size_t>(pairs));
        for (std::uint64_t i = 0; i < pairs; ++i) {
          const State s = r.u64();
          const std::uint64_t cnt = r.u64();
          st.crashed.emplace_back(s, cnt);
        }
        have_pop = true;
        break;
      }
      case SnapshotSection::kRngStreams:
        if (r.u64() != 1)
          throw SnapshotError(SnapshotErrc::kConfigMismatch,
                              "count engine snapshots carry one RNG stream");
        for (auto& word : st.rng) word = r.u64();
        have_rng = true;
        break;
      case SnapshotSection::kCounters:
        st.ctr = deserialize_counters(r);
        have_ctr = true;
        break;
      default:
        throw SnapshotError(SnapshotErrc::kCorrupt,
                            "section not used by the count engine");
    }
  }
  if (!(have_core && have_pop && have_rng && have_ctr))
    throw SnapshotError(SnapshotErrc::kTruncated,
                        "snapshot missing a required section");

  // Semantic validation — *this stays untouched until everything passed.
  // Mode bytes 1 and 2 (the retired skip and auto modes) restore into the
  // production policy.
  if (st.mode > static_cast<std::uint8_t>(CountEngineMode::kAdaptive))
    throw SnapshotError(SnapshotErrc::kCorrupt, "unknown count engine mode");
  if (st.batch_size != 0)
    throw SnapshotError(SnapshotErrc::kConfigMismatch,
                        "fixed batch caps are no longer supported");
  if (st.states.size() != st.counts.size())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "species/count table length mismatch");
  std::uint64_t sum = 0;
  for (const std::uint64_t cnt : st.counts) {
    if (cnt > st.n - sum)  // overflow-safe running bound
      throw SnapshotError(SnapshotErrc::kCorrupt, "species counts exceed n");
    sum += cnt;
  }
  if (sum != st.n || st.n < 2)
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "species counts do not sum to n");
  std::uint64_t crashed_sum = 0;
  for (const auto& [s, cnt] : st.crashed) {
    if (cnt > st.crashed_n - crashed_sum)
      throw SnapshotError(SnapshotErrc::kCorrupt,
                          "crashed counts exceed crashed_n");
    crashed_sum += cnt;
  }
  if (crashed_sum != st.crashed_n ||
      st.n + st.crashed_n != reader.population_n())
    throw SnapshotError(SnapshotErrc::kCorrupt, "population size mismatch");
  std::vector<State> sorted_states = st.states;
  std::sort(sorted_states.begin(), sorted_states.end());
  if (std::adjacent_find(sorted_states.begin(), sorted_states.end()) !=
      sorted_states.end())
    throw SnapshotError(SnapshotErrc::kCorrupt, "duplicate species entry");
  if (st.rng == std::array<std::uint64_t, 4>{})
    throw SnapshotError(SnapshotErrc::kCorrupt, "all-zero RNG state");
  if (!(st.time >= 0.0) || !(st.events_total_weight >= 0.0))  // rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt, "negative time or weight");

  // Commit. Re-registering the species table (in its exact order, zero
  // slots included) is the only step that can allocate.
  clear_slots();
  for (std::size_t i = 0; i < st.states.size(); ++i)
    counts_[append_slot(st.states[i], cache_.state_index(st.states[i]))] =
        st.counts[i];
  n_ = st.n;
  crashed_ = std::move(st.crashed);
  crashed_n_ = st.crashed_n;
  rng_.set_state(st.rng);
  mode_ = st.mode == static_cast<std::uint8_t>(CountEngineMode::kDirect)
              ? CountEngineMode::kDirect
              : CountEngineMode::kAdaptive;
  use_skip_ = st.use_skip;
  silent_ = st.silent;
  time_ = st.time;
  interactions_ = st.interactions;
  effective_ = st.effective;
  events_total_weight_ = st.events_total_weight;
  ctr_ = st.ctr;
  cache_builds_base_ = st.ctr.cache_builds;
  cache_builds_floor_ = cache_.builds();
  events_.clear();  // derived; rebuild_events regenerates
  bat_touched_.clear();
  bat_di_.clear();
  bat_row_.clear();
  bat_out_.clear();
  bat_gap_.clear();
  bat_ores_.clear();
  bat_cum_.clear();
  bat_res_.clear();
  last_injection_round_ = std::floor(time_);
}

void CountEngine::reset_population(
    const std::vector<std::pair<State, std::uint64_t>>& counts) {
  clear_slots();
  n_ = 0;
  for (const auto& [s, c] : counts) add_count(s, c);
  POPPROTO_CHECK_MSG(n_ >= 2, "population needs at least 2 agents");
  // A fresh deal may re-enable rules; everything derived from the old
  // species table is rebuilt lazily on the next step.
  silent_ = false;
  events_.clear();
  events_total_weight_ = 0.0;
}

std::uint64_t CountEngine::count_state(State s) const {
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (states_[i] == s) return counts_[i];
  return 0;
}

std::uint64_t CountEngine::count_matching(const Guard& g) const {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (counts_[i] > 0 && g.matches(states_[i])) c += counts_[i];
  return c;
}

std::vector<std::pair<State, std::uint64_t>> CountEngine::species() const {
  std::vector<std::pair<State, std::uint64_t>> out;
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (counts_[i] > 0) out.emplace_back(states_[i], counts_[i]);
  return out;
}

std::vector<std::pair<State, std::uint64_t>> CountEngine::crashed_species()
    const {
  std::vector<std::pair<State, std::uint64_t>> out;
  for (const auto& [s, c] : crashed_)
    if (c > 0) out.emplace_back(s, c);
  return out;
}

}  // namespace popproto
