// Reference steppers for the kernel-equivalence tests: the engines'
// schedulers and RNG draw order, with every outcome taken from
// TransitionCache's uncached walk (sample_uncached, change_weight_uncached,
// sample_change_uncached). The engines resolve through the memoized kernel
// — interned indices, Engine's sidx_ shadow, the pipelined run_steps loop,
// the cap fallback — so a seeded engine that stays bit-identical to its
// reference proves the memo changes nothing but speed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "core/scheduler.hpp"
#include "core/transition_cache.hpp"
#include "support/rng.hpp"

namespace popproto {

/// Engine without hooks or bias: sequential pair draw (or one random
/// matching), optional dropout coin, then the fused uniform.
class ReferenceEngine {
 public:
  ReferenceEngine(const Protocol& protocol, std::vector<State> states,
                  std::uint64_t seed,
                  SchedulerKind scheduler = SchedulerKind::kSequential)
      : kernel_(protocol),
        states_(std::move(states)),
        rng_(seed),
        scheduler_(scheduler) {
    for (std::uint32_t i = 0; i < states_.size(); ++i) {
      pos_.push_back(i);
      active_.push_back(i);
    }
  }

  /// Dropout predicate consulted before each outcome draw, like
  /// InjectionHook::drop_interaction.
  void set_drop(std::function<bool(Rng&)> drop) { drop_ = std::move(drop); }

  void step() {
    if (scheduler_ == SchedulerKind::kSequential) {
      const auto [pa, pb] = rng_.distinct_pair(active_.size());
      ++interactions_;
      time_ += 1.0 / static_cast<double>(active_.size());
      interact(active_[pa], active_[pb]);
      return;
    }
    sample_random_matching(active_.size(), rng_, matching_);
    for (const auto& [pa, pb] : matching_) interact(active_[pa], active_[pb]);
    interactions_ += matching_.size();
    time_ += 1.0;
  }

  /// Engine::crash_agent's swap-remove, so pair draws index the same ids.
  void crash(std::uint32_t i) {
    const std::uint32_t p = pos_[i];
    active_[p] = active_.back();
    pos_[active_[p]] = p;
    active_.pop_back();
  }
  void rejoin(std::uint32_t i, State fresh) {
    pos_[i] = static_cast<std::uint32_t>(active_.size());
    active_.push_back(i);
    states_[i] = fresh;
  }
  void set_state(std::size_t i, State s) { states_[i] = s; }

  const std::vector<State>& states() const { return states_; }
  std::uint64_t interactions() const { return interactions_; }
  std::uint64_t effective() const { return effective_; }
  double rounds() const { return time_; }

 private:
  void interact(std::uint32_t a, std::uint32_t b) {
    if (drop_ && drop_(rng_)) return;
    const double u = rng_.uniform();
    const PairOutcome o = kernel_.sample_uncached(states_[a], states_[b], u);
    if (o.a != states_[a] || o.b != states_[b]) ++effective_;
    states_[a] = o.a;
    states_[b] = o.b;
  }

  TransitionCache kernel_;  // only its uncached walk is used
  std::vector<State> states_;
  std::vector<std::uint32_t> active_, pos_;
  Rng rng_;
  SchedulerKind scheduler_;
  std::function<bool(Rng&)> drop_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> matching_;
  std::uint64_t interactions_ = 0;
  std::uint64_t effective_ = 0;
  double time_ = 0.0;
};

/// CountEngine's kDirect step() and its default mode's skip-ahead step()
/// (wherever the policy never batches: change weights below its skip
/// threshold) without hooks or bias, on a species table kept in the
/// engine's order (append on first sight, zero-count slots dropped only when
/// skip-ahead rebuilds its events).
class ReferenceCountEngine {
 public:
  ReferenceCountEngine(const Protocol& protocol,
                       const std::vector<std::pair<State, std::uint64_t>>& init,
                       std::uint64_t seed)
      : kernel_(protocol), rng_(seed) {
    for (const auto& [s, c] : init) add(s, c);
  }

  void direct_step() {
    const std::size_t ia = sample_species(kNone);
    const std::size_t ib = sample_species(ia);
    ++interactions_;
    time_ += 1.0 / static_cast<double>(n_);
    const State sa = states_[ia];
    const State sb = states_[ib];
    apply(ia, ib, kernel_.sample_uncached(sa, sb, rng_.uniform()));
  }

  /// One geometric jump plus the effective interaction it lands on; once
  /// nothing can change, latches silent and idles one round per call. A
  /// saturated draw (2^64 - 1 or more no-ops) idles one round instead,
  /// which is exact by memorylessness. Returns false iff silent.
  bool skip_step() {
    if (!silent_) rebuild();
    if (silent_ || total_ <= 0.0) {
      silent_ = true;
      idle_round();
      return false;
    }
    const std::uint64_t skip = rng_.geometric(std::min(total_, 1.0));
    if (skip == std::numeric_limits<std::uint64_t>::max()) {
      idle_round();
      return true;
    }
    interactions_ += skip + 1;
    time_ += static_cast<double>(skip + 1) / static_cast<double>(n_);
    double u = rng_.uniform() * total_;
    std::size_t e = events_.size() - 1;
    for (std::size_t k = 0; k < events_.size(); ++k) {
      if (u < events_[k].w) {
        e = k;
        break;
      }
      u -= events_[k].w;
    }
    const std::size_t ia = events_[e].a;
    const std::size_t ib = events_[e].b;
    apply(ia, ib, kernel_.sample_change_uncached(states_[ia], states_[ib],
                                                 rng_.uniform()));
    return true;
  }

  std::vector<std::pair<State, std::uint64_t>> species() const {
    std::vector<std::pair<State, std::uint64_t>> out;
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (counts_[i] > 0) out.emplace_back(states_[i], counts_[i]);
    return out;
  }
  std::uint64_t interactions() const { return interactions_; }
  std::uint64_t effective() const { return effective_; }
  double rounds() const { return time_; }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Event {
    double w;
    std::size_t a, b;
  };

  void idle_round() {
    const double limit = time_ + 1.0;
    interactions_ += static_cast<std::uint64_t>(
        std::llround((limit - time_) * static_cast<double>(n_)));
    time_ = limit;
  }

  std::size_t sample_species(std::size_t exclude) {
    std::uint64_t r = rng_.below(n_ - (exclude == kNone ? 0 : 1));
    for (std::size_t i = 0;; ++i) {
      const std::uint64_t c = counts_[i] - (i == exclude ? 1 : 0);
      if (r < c) return i;
      r -= c;
    }
  }

  void add(State s, std::uint64_t c) {
    n_ += c;
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (states_[i] == s) {
        counts_[i] += c;
        return;
      }
    states_.push_back(s);
    counts_.push_back(c);
  }

  void apply(std::size_t ia, std::size_t ib, PairOutcome o) {
    if (o.a == states_[ia] && o.b == states_[ib]) return;
    --counts_[ia];
    --counts_[ib];
    n_ -= 2;
    add(o.a, 1);
    add(o.b, 1);
    ++effective_;
  }

  void rebuild() {
    std::vector<State> s;
    std::vector<std::uint64_t> c;
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (counts_[i] > 0) {
        s.push_back(states_[i]);
        c.push_back(counts_[i]);
      }
    states_ = std::move(s);
    counts_ = std::move(c);
    events_.clear();
    total_ = 0.0;
    const double norm =
        1.0 / (static_cast<double>(n_) * static_cast<double>(n_ - 1));
    for (std::size_t i = 0; i < states_.size(); ++i)
      for (std::size_t j = 0; j < states_.size(); ++j) {
        const double pairs =
            static_cast<double>(counts_[i]) *
            (static_cast<double>(counts_[j]) - (i == j ? 1.0 : 0.0));
        if (pairs <= 0.0) continue;
        const double cw = kernel_.change_weight_uncached(states_[i], states_[j]);
        if (cw <= 0.0) continue;
        events_.push_back(Event{pairs * norm * cw, i, j});
        total_ += pairs * norm * cw;
      }
  }

  TransitionCache kernel_;  // only its uncached walk is used
  std::vector<State> states_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
  Rng rng_;
  std::vector<Event> events_;
  double total_ = 0.0;
  bool silent_ = false;
  std::uint64_t interactions_ = 0;
  std::uint64_t effective_ = 0;
  double time_ = 0.0;
};

}  // namespace popproto
