#include "lang/compile.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace popproto {

CompiledEngine::CompiledEngine(const Program& program,
                               std::vector<State> inputs,
                               std::unique_ptr<XDriver> x_driver,
                               const ClockLevelParams& clock,
                               std::uint64_t seed)
    : program_(program),
      tree_(precompile(program)),
      n_(inputs.size()),
      user_([&] {
        const State init = program.initial_state();
        for (auto& s : inputs) s |= init;
        return AgentPopulation(std::move(inputs));
      }()),
      background_(program.background_threads()),
      rng_(seed) {
  widths_.assign(static_cast<std::size_t>(tree_.depth), tree_.width);
  HierarchyParams hp;
  hp.levels = tree_.depth;
  hp.level = clock;
  hp.level.module = 4 * (tree_.width + 1);
  hierarchy_ = std::make_unique<ClockHierarchy>(n_, hp, std::move(x_driver),
                                                rng_.split()());
}

void CompiledEngine::step() {
  const auto [a, b] = rng_.distinct_pair(n_);
  ++interactions_;
  const int clock_threads = hierarchy_->num_threads();
  const int total_threads =
      clock_threads + 1 + static_cast<int>(background_.size());
  const int t = static_cast<int>(
      rng_.below(static_cast<std::uint64_t>(total_threads)));
  if (t < clock_threads) {
    hierarchy_->interact_thread(a, b, t);
    return;
  }
  const std::vector<Rule>* rules = nullptr;
  if (t == clock_threads) {
    // Gated program thread: fire only when both agents hold the same
    // non-⊥ time path (Π_τ of §5.4).
    const auto tau_a = hierarchy_->time_path(a, widths_);
    if (!tau_a) return;
    const auto tau_b = hierarchy_->time_path(b, widths_);
    if (!tau_b || *tau_a != *tau_b) return;
    rules = tree_.leaf(*tau_a);
    if (rules == nullptr || rules->empty()) return;
  } else {
    rules = &background_[static_cast<std::size_t>(t - clock_threads - 1)]
                 ->background_rules;
    if (rules->empty()) return;
  }
  const Rule& rule = (*rules)[rng_.below(rules->size())];
  const State sa = user_.state(a);
  const State sb = user_.state(b);
  if (!rule.matches(sa, sb)) return;
  const auto [na, nb] = rule.apply(sa, sb, rng_);
  if (na != sa) user_.set_state(a, na);
  if (nb != sb) user_.set_state(b, nb);
  ++program_firings_;
}

void CompiledEngine::run_rounds(double rounds_to_run) {
  const auto target = static_cast<std::uint64_t>(
      (rounds() + rounds_to_run) * static_cast<double>(n_));
  while (interactions_ < target) step();
}

std::optional<double> CompiledEngine::run_until(
    const std::function<bool(const AgentPopulation&)>& predicate,
    double max_rounds, double check_interval) {
  POPPROTO_CHECK(check_interval > 0.0);
  if (predicate(user_)) return rounds();
  while (rounds() < max_rounds) {
    // Clamped like SimBackend::run_until, so the last check lands on the
    // horizon. Time moves in whole interactions: a horizon that falls
    // between two of them still gets one, so the loop always progresses.
    const std::uint64_t before = interactions_;
    run_rounds(std::min(check_interval, max_rounds - rounds()));
    if (interactions_ == before) step();
    if (predicate(user_)) return rounds();
  }
  return std::nullopt;
}

std::optional<std::vector<int>> CompiledEngine::common_time_path() const {
  auto tau = hierarchy_->time_path(0, widths_);
  if (!tau) return std::nullopt;
  for (std::size_t i = 1; i < n_; ++i) {
    auto t = hierarchy_->time_path(i, widths_);
    if (!t || *t != *tau) return std::nullopt;
  }
  return tau;
}

}  // namespace popproto
