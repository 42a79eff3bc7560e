#include "core/transition_cache.hpp"

#include <limits>

#include "support/check.hpp"
#include "support/simd.hpp"

namespace popproto {

namespace {

// Fibonacci hashing spreads the (sparse, structured) state bit patterns
// across the probe table.
inline std::size_t hash_state(State s) {
  return static_cast<std::size_t>(s * 0x9e3779b97f4a7c15ull);
}

inline bool changes(const PairOutcome& o, State sa, State sb) {
  return o.a != sa || o.b != sb;
}

}  // namespace

TransitionCache::TransitionCache(const Protocol& protocol,
                                 std::size_t max_states)
    : max_states_(max_states) {
  const auto& threads = protocol.threads();
  const double thread_p =
      threads.empty() ? 0.0 : 1.0 / static_cast<double>(threads.size());
  for (const auto& t : threads) {
    if (t.rules.empty()) {
      // Empty thread: its whole selection mass is a no-op (padding slot).
      slots_.push_back(Slot{nullptr, thread_p, 0, 0});
      continue;
    }
    const double w = thread_p / static_cast<double>(t.rules.size());
    for (const auto& r : t.rules) {
      Slot s;
      s.rule = &r;
      s.width = w;
      s.obegin = static_cast<std::uint32_t>(ocum_.size());
      double cum = 0.0;
      for (const auto& o : r.outcomes()) {
        cum += o.probability;
        double bound = w * cum;
        if (bound > w) bound = w;
        ocum_.push_back(bound);
        omass_.push_back(w * o.probability);
      }
      s.oend = static_cast<std::uint32_t>(ocum_.size());
      slots_.push_back(s);
    }
  }

  rehash(16);
}

PairOutcome TransitionCache::sample_uncached(State sa, State sb,
                                             double u) const {
  double c = 0.0;
  for (const Slot& s : slots_) {
    const double end = c + s.width;
    if (u >= end) {
      c = end;
      continue;
    }
    // The draw landed in this slot; only now evaluate its guards.
    if (s.rule != nullptr && s.rule->matches(sa, sb)) {
      const auto& outs = s.rule->outcomes();
      for (std::uint32_t k = s.obegin; k != s.oend; ++k) {
        if (u < c + ocum_[k]) {
          const Outcome& o = outs[k - s.obegin];
          return PairOutcome{o.initiator.apply(sa), o.responder.apply(sb)};
        }
      }
    }
    return PairOutcome{sa, sb};  // padding slot, guard miss, or residual mass
  }
  return PairOutcome{sa, sb};  // float slack past the last slot
}

double TransitionCache::change_weight_uncached(State sa, State sb) const {
  double cw = 0.0;
  for (const Slot& s : slots_) {
    if (s.rule == nullptr || !s.rule->matches(sa, sb)) continue;
    const auto& outs = s.rule->outcomes();
    for (std::uint32_t k = s.obegin; k != s.oend; ++k) {
      const Outcome& o = outs[k - s.obegin];
      if (o.initiator.is_noop_on(sa) && o.responder.is_noop_on(sb)) continue;
      cw += omass_[k];
    }
  }
  return cw;
}

PairOutcome TransitionCache::sample_change_uncached(State sa, State sb,
                                                    double u01) const {
  const double u = u01 * change_weight_uncached(sa, sb);
  double acc = 0.0;
  PairOutcome last{sa, sb};
  for (const Slot& s : slots_) {
    if (s.rule == nullptr || !s.rule->matches(sa, sb)) continue;
    const auto& outs = s.rule->outcomes();
    for (std::uint32_t k = s.obegin; k != s.oend; ++k) {
      const Outcome& o = outs[k - s.obegin];
      const PairOutcome r{o.initiator.apply(sa), o.responder.apply(sb)};
      if (!changes(r, sa, sb)) continue;
      acc += omass_[k];
      last = r;
      if (u < acc) return r;
    }
  }
  return last;  // float slack: fall back to the last changing outcome
}

bool TransitionCache::change_dist(State sa, State sb, ChangeDistView* out) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return false;
  out->change_weight = d->change_weight;
  out->cum = ccum_.data() + d->cbegin;
  out->res = cres_.data() + d->cbegin;
  out->count = d->cend - d->cbegin;
  return true;
}

double TransitionCache::change_dist_uncached(
    State sa, State sb, std::vector<double>& cum,
    std::vector<PairOutcome>& res) const {
  // Same enumeration as build_dist's push_c: running change mass per
  // changing outcome, adjacent equal-result segments merged.
  const std::size_t base = cum.size();
  double cw = 0.0;
  for (const Slot& s : slots_) {
    if (s.rule == nullptr || !s.rule->matches(sa, sb)) continue;
    const auto& outs = s.rule->outcomes();
    for (std::uint32_t k = s.obegin; k != s.oend; ++k) {
      const Outcome& o = outs[k - s.obegin];
      const PairOutcome r{o.initiator.apply(sa), o.responder.apply(sb)};
      if (!changes(r, sa, sb)) continue;
      cw += omass_[k];
      if (cum.size() > base && res.back().a == r.a && res.back().b == r.b) {
        cum.back() = cw;
      } else {
        cum.push_back(cw);
        res.push_back(r);
      }
    }
  }
  return cw;
}

std::uint32_t TransitionCache::intern(State s) {
  std::size_t i = hash_state(s) & map_mask_;
  while (map_vals_[i] != kNoIndex) {
    if (map_keys_[i] == s) return map_vals_[i];
    i = (i + 1) & map_mask_;
  }
  if (states_.size() >= max_states_) {
    cap_reached_ = true;
    return kNoIndex;
  }
  const auto idx = static_cast<std::uint32_t>(states_.size());
  states_.push_back(s);
  map_keys_[i] = s;
  map_vals_[i] = idx;
  if (2 * states_.size() > map_mask_ + 1) rehash(2 * (map_mask_ + 1));
  if (states_.size() > stride_) grow_stride(states_.size());
  return idx;
}

void TransitionCache::rehash(std::size_t capacity) {
  map_keys_.assign(capacity, 0);
  map_vals_.assign(capacity, kNoIndex);
  map_mask_ = capacity - 1;
  for (std::uint32_t idx = 0; idx < states_.size(); ++idx) {
    std::size_t i = hash_state(states_[idx]) & map_mask_;
    while (map_vals_[i] != kNoIndex) i = (i + 1) & map_mask_;
    map_keys_[i] = states_[idx];
    map_vals_[i] = idx;
  }
}

void TransitionCache::grow_stride(std::size_t need) {
  // Start small: engines intern their initial species at construction, so
  // the first tables are built during set-up; doubling covers the rest.
  std::size_t ns = stride_ == 0 ? 8 : stride_;
  while (ns < need) ns <<= 1;
  if (ns > max_states_) ns = max_states_;
  if (ns == stride_) return;
  std::vector<std::int32_t> grown(ns * ns, kUnbuilt);
  std::vector<double> grown_bounds(ns * ns,
                                   std::numeric_limits<double>::infinity());
  std::vector<std::uint64_t> grown_ref(ns * ns, kUnbuiltRef);
  for (std::size_t ia = 0; ia < stride_; ++ia)
    for (std::size_t ib = 0; ib < stride_; ++ib) {
      grown[ia * ns + ib] = pair_dist_idx_[ia * stride_ + ib];
      grown_bounds[ia * ns + ib] = pair_bounds_[ia * stride_ + ib];
      grown_ref[ia * ns + ib] = pair_uref_[ia * stride_ + ib];
    }
  pair_dist_idx_ = std::move(grown);
  pair_bounds_ = std::move(grown_bounds);
  pair_uref_ = std::move(grown_ref);
  stride_ = ns;
}

const TransitionCache::Dist* TransitionCache::pair_dist(State sa, State sb) {
  const std::uint32_t ia = intern(sa);
  if (ia == kNoIndex) return nullptr;
  const std::uint32_t ib = intern(sb);
  if (ib == kNoIndex) return nullptr;
  return pair_dist_indexed(ia, ib);
}

const TransitionCache::Dist* TransitionCache::pair_dist_indexed(
    std::uint32_t ia, std::uint32_t ib) {
  std::int32_t at = pair_dist_idx_[ia * stride_ + ib];
  if (at == kUnbuilt) [[unlikely]] {
    at = build_dist(states_[ia], states_[ib]);
    // build_dist interns result states, which can re-stride the pair tables;
    // recompute the offset rather than writing through a stale reference.
    const Dist& d = dists_[static_cast<std::size_t>(at)];
    pair_dist_idx_[ia * stride_ + ib] = at;
    pair_bounds_[ia * stride_ + ib] =
        d.uend > d.ubegin ? ucum_[d.uend - 1] : 0.0;
    pair_uref_[ia * stride_ + ib] =
        (static_cast<std::uint64_t>(d.ubegin) << 32) | (d.uend - d.ubegin);
  }
  return &dists_[static_cast<std::size_t>(at)];
}

std::uint64_t TransitionCache::build_pair_ref(std::uint32_t ia,
                                              std::uint32_t ib) {
  pair_dist_indexed(ia, ib);
  return pair_uref_[ia * stride_ + ib];
}

std::uint64_t TransitionCache::prescan_slow(const std::uint32_t* ia,
                                            const std::uint32_t* ib,
                                            const double* u,
                                            std::size_t k) const {
  POPPROTO_DCHECK(k <= 64);
  std::uint64_t off[64];
  for (std::size_t j = 0; j < k; ++j)
    off[j] = static_cast<std::uint64_t>(ia[j]) * stride_ + ib[j];
  return simd::mask_below_bounds(pair_bounds_.data(), off, u, k);
}

std::int32_t TransitionCache::build_dist(State sa, State sb) {
  ++builds_;
  // Replay of the sample_uncached / change-weight walks, recording each
  // outcome's running-sum breakpoint. The recorded bounds are the exact
  // doubles the walks compare against, so "first breakpoint > u" selects the
  // same result as the walk for every u.
  Dist d;
  d.ubegin = static_cast<std::uint32_t>(ucum_.size());
  d.cbegin = static_cast<std::uint32_t>(ccum_.size());
  const auto push_u = [&](double bound, PairOutcome r) {
    if (ucum_.size() > d.ubegin) {
      if (ures_.back().a == r.a && ures_.back().b == r.b) {
        ucum_.back() = bound;  // extend the previous equal-result segment
        return;
      }
      if (bound <= ucum_.back()) return;  // zero-width segment: unreachable
    }
    ucum_.push_back(bound);
    ures_.push_back(r);
  };
  const auto push_c = [&](double bound, PairOutcome r) {
    if (ccum_.size() > d.cbegin && cres_.back().a == r.a &&
        cres_.back().b == r.b) {
      ccum_.back() = bound;
      return;
    }
    ccum_.push_back(bound);
    cres_.push_back(r);
  };
  double c = 0.0;
  double cw = 0.0;
  for (const Slot& s : slots_) {
    const double end = c + s.width;
    if (s.rule != nullptr && s.rule->matches(sa, sb)) {
      const auto& outs = s.rule->outcomes();
      for (std::uint32_t k = s.obegin; k != s.oend; ++k) {
        const Outcome& o = outs[k - s.obegin];
        const PairOutcome r{o.initiator.apply(sa), o.responder.apply(sb)};
        push_u(c + ocum_[k], r);
        if (changes(r, sa, sb)) {
          cw += omass_[k];
          push_c(cw, r);
        }
      }
    }
    push_u(end, PairOutcome{sa, sb});
    c = end;
  }
  // Draws past the last kept breakpoint are no-ops; drop the trailing run.
  while (ucum_.size() > d.ubegin && ures_.back().a == sa &&
         ures_.back().b == sb) {
    ucum_.pop_back();
    ures_.pop_back();
  }
  d.uend = static_cast<std::uint32_t>(ucum_.size());
  d.cend = static_cast<std::uint32_t>(ccum_.size());
  d.change_weight = cw;
  // Mirror the kept breakpoints as interned-index entries for the
  // sample_indexed scan (uentries_ stays index-aligned with ucum_: every
  // build appends exactly uend - ubegin entries to both). Interning result
  // states may grow states_/stride_; the caller recomputes any pair-table
  // offset after this returns.
  for (std::uint32_t i = d.ubegin; i != d.uend; ++i)
    uentries_.push_back(
        UEntry{ucum_[i], intern(ures_[i].a), intern(ures_[i].b)});
  for (std::uint32_t i = d.cbegin; i != d.cend; ++i)
    cidx_.push_back(IndexedPair{intern(cres_[i].a), intern(cres_[i].b)});
  dists_.push_back(d);
  return static_cast<std::int32_t>(dists_.size() - 1);
}

PairOutcome TransitionCache::sample(State sa, State sb, double u) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return sample_uncached(sa, sb, u);
  const double* cum = ucum_.data() + d->ubegin;
  const PairOutcome* res = ures_.data() + d->ubegin;
  const std::uint32_t m = d->uend - d->ubegin;
  for (std::uint32_t k = 0; k < m; ++k)
    if (u < cum[k]) return res[k];
  return PairOutcome{sa, sb};
}

double TransitionCache::change_weight(State sa, State sb) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return change_weight_uncached(sa, sb);
  return d->change_weight;
}

std::uint32_t TransitionCache::change_category(const Dist& d,
                                               double u01) const {
  POPPROTO_DCHECK(d.cend > d.cbegin);
  const double u = u01 * d.change_weight;
  const double* cum = ccum_.data() + d.cbegin;
  const std::uint32_t m = d.cend - d.cbegin;
  for (std::uint32_t k = 0; k + 1 < m; ++k)
    if (u < cum[k]) return k;
  return m - 1;  // last changing outcome doubles as the slack fallback
}

PairOutcome TransitionCache::sample_change(State sa, State sb, double u01) {
  const Dist* d = pair_dist(sa, sb);
  if (d == nullptr) return sample_change_uncached(sa, sb, u01);
  return cres_[d->cbegin + change_category(*d, u01)];
}

}  // namespace popproto
