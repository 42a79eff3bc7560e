#include "faults/injector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "core/sim_backend.hpp"
#include "persist/snapshot.hpp"

namespace popproto {

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {}

void FaultInjector::reset_firing_state() {
  fired_.assign(plan_.size(), 0);
  window_on_.assign(plan_.size(), 0);
  dropout_p_ = 0.0;
  log_.clear();
}

std::uint64_t FaultInjector::resolve_k(double fraction, std::uint64_t count) {
  if (count > 0) return count;
  return static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(target_->active_n())));
}

State FaultInjector::corrupt_value(const CorruptSpec& spec, std::uint64_t j) {
  switch (spec.mode) {
    case CorruptMode::kFixed:
      return spec.fixed_state;
    case CorruptMode::kRandom:
      POPPROTO_CHECK_MSG(!spec.palette.empty(),
                         "kRandom corruption needs a palette");
      return spec.palette[rng_.below(spec.palette.size())];
    case CorruptMode::kSpread:
      POPPROTO_CHECK_MSG(!spec.palette.empty(),
                         "kSpread corruption needs a palette");
      return spec.palette[j % spec.palette.size()];
  }
  return spec.fixed_state;
}

double FaultInjector::combined_dropout() const {
  // Overlapping dropout windows compose as independent losses.
  double keep = 1.0;
  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].kind == FaultKind::kDropout && window_on_[i])
      keep *= 1.0 - events[i].dropout_p;
  return 1.0 - keep;
}

void FaultInjector::apply(const FaultEvent& event, double round) {
  std::uint64_t affected = 0;
  switch (event.kind) {
    case FaultKind::kCorrupt: {
      const CorruptSpec& spec = event.corrupt;
      affected = target_->mutate_random_agents(
          resolve_k(spec.fraction, spec.count), rng_,
          [this, &spec](State old, std::uint64_t j) {
            return (old & ~spec.mask) | (corrupt_value(spec, j) & spec.mask);
          });
      break;
    }
    case FaultKind::kCrash:
      affected = target_->crash_random(
          resolve_k(event.crash.fraction, event.crash.count), rng_);
      break;
    case FaultKind::kRejoin:
      affected = event.rejoin.all
                     ? target_->rejoin_all(rng_)
                     : target_->rejoin_random(
                           resolve_k(event.rejoin.fraction, event.rejoin.count),
                           rng_);
      break;
    case FaultKind::kDropout:
    case FaultKind::kBias:
      break;  // windowed; handled in on_round
  }
  log_.push_back(Applied{round, event.kind, affected});
}

void FaultInjector::on_round(double round, bool at_boundary) {
  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    switch (e.kind) {
      case FaultKind::kCorrupt:
      case FaultKind::kCrash:
      case FaultKind::kRejoin:
        if (e.rate <= 0.0) {
          if (!fired_[i] && round >= e.at_round) {
            fired_[i] = 1;
            apply(e, round);
          }
        } else if (at_boundary && round >= e.from_round &&
                   round < e.until_round &&
                   rng_.chance(std::min(e.rate, 1.0))) {
          apply(e, round);
        }
        break;
      case FaultKind::kDropout: {
        const char want = round >= e.from_round && round < e.until_round;
        if (want != window_on_[i]) {
          window_on_[i] = want;
          dropout_p_ = combined_dropout();
          log_.push_back(Applied{round, e.kind, 0});
        }
        break;
      }
      case FaultKind::kBias: {
        const char want = round >= e.from_round && round < e.until_round;
        if (want != window_on_[i]) {
          window_on_[i] = want;
          target_->set_scheduler_bias(
              want ? std::optional<SchedulerBias>(e.bias) : std::nullopt);
          log_.push_back(Applied{round, e.kind, 0});
        }
        break;
      }
    }
  }
}

namespace {

bool plan_has_dropout(const FaultPlan& plan) {
  for (const auto& e : plan.events())
    if (e.kind == FaultKind::kDropout) return true;
  return false;
}

}  // namespace

// Every bind starts by detaching whatever a *previous* injector left on
// the backend: installed hooks capture their injector by raw `this`, so a
// stale hook surviving an empty-plan re-attach (which installs nothing)
// would dangle the moment the old injector is destroyed, and a stale bias
// window would keep skewing the scheduler with no owner. A backend with the
// hook cleared consumes its RNG stream exactly as a never-hooked backend, so
// the empty-plan bit-for-bit guarantee is unaffected.
void FaultInjector::bind(SimBackend& backend) {
  backend.set_injection_hook({});
  backend.set_scheduler_bias(std::nullopt);
  target_ = &backend;
  if (plan_.empty()) return;  // zero-overhead no-op guarantee
  InjectionHook hook;
  hook.on_round = [this](double round) { on_round(round); };
  if (plan_has_dropout(plan_))
    hook.drop_interaction = [this](Rng& rng) {
      return dropout_p_ > 0.0 && rng.chance(dropout_p_);
    };
  backend.set_injection_hook(std::move(hook));
}

void FaultInjector::attach(SimBackend& backend) {
  reset_firing_state();
  bind(backend);
  // Apply the schedule as of the current time: overdue one-shots (e.g.
  // corrupt_at(0) perturbing the initial configuration) fire now, and
  // windows covering the present open immediately.
  on_round(backend.rounds(), /*at_boundary=*/false);
}

void FaultInjector::snapshot(std::ostream& out) const {
  // Producer "fault_injector", fingerprint 0: the schedule is protocol-
  // agnostic, and pairing it with the right engine snapshot is the
  // checkpoint layer's job (persist/checkpoint.hpp).
  SnapshotWriter w(out, "fault_injector", /*fingerprint=*/0,
                   /*population_n=*/0);

  std::string planb;
  BinWriter p(planb);
  serialize_fault_plan(p, plan_);
  w.section(SnapshotSection::kFaultPlan, planb);

  std::string state;
  BinWriter s(state);
  for (const std::uint64_t word : rng_.state()) s.u64(word);
  s.u64(fired_.size());
  for (const char f : fired_) s.u8(f ? 1 : 0);
  s.u64(window_on_.size());
  for (const char f : window_on_) s.u8(f ? 1 : 0);
  s.f64(dropout_p_);
  s.u64(log_.size());
  for (const Applied& a : log_) {
    s.f64(a.round);
    s.u8(static_cast<std::uint8_t>(a.kind));
    s.u64(a.affected);
  }
  w.section(SnapshotSection::kFaultState, state);

  w.finish();
}

void FaultInjector::restore(std::istream& in, SimBackend& backend) {
  SnapshotReader reader(in, "fault_injector", /*expected_fingerprint=*/0);

  FaultPlan staged_plan;
  std::array<std::uint64_t, 4> rng{};
  std::vector<char> fired;
  std::vector<char> window;
  double dropout = 0.0;
  std::vector<Applied> log;
  bool have_plan = false, have_state = false;

  SnapshotSection tag;
  std::string payload;
  while (reader.next(&tag, &payload)) {
    BinReader r(payload);
    switch (tag) {
      case SnapshotSection::kFaultPlan:
        staged_plan = deserialize_fault_plan(r);
        have_plan = true;
        break;
      case SnapshotSection::kFaultState: {
        for (auto& word : rng) word = r.u64();
        const std::uint64_t nf = r.u64();
        if (nf > r.remaining())
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "fired vector exceeds payload");
        fired.resize(static_cast<std::size_t>(nf));
        for (auto& f : fired) f = r.u8() ? 1 : 0;
        const std::uint64_t nw = r.u64();
        if (nw > r.remaining())
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "window vector exceeds payload");
        window.resize(static_cast<std::size_t>(nw));
        for (auto& f : window) f = r.u8() ? 1 : 0;
        dropout = r.f64();
        const std::uint64_t nl = r.u64();
        if (nl > r.remaining() / 17)  // f64 + u8 + u64 per entry
          throw SnapshotError(SnapshotErrc::kCorrupt,
                              "log length exceeds payload");
        log.reserve(static_cast<std::size_t>(nl));
        for (std::uint64_t i = 0; i < nl; ++i) {
          Applied a;
          a.round = r.f64();
          const std::uint8_t kind = r.u8();
          if (kind > static_cast<std::uint8_t>(FaultKind::kBias))
            throw SnapshotError(SnapshotErrc::kCorrupt,
                                "unknown fault kind in log");
          a.kind = static_cast<FaultKind>(kind);
          a.affected = r.u64();
          log.push_back(a);
        }
        have_state = true;
        break;
      }
      default:
        throw SnapshotError(SnapshotErrc::kCorrupt,
                            "section not used by the fault injector");
    }
  }
  if (!have_plan || !have_state)
    throw SnapshotError(SnapshotErrc::kTruncated,
                        "snapshot missing a required section");

  // A snapshot taken before any attach has empty firing vectors; size them.
  if (fired.empty() && window.empty() && !staged_plan.empty()) {
    fired.assign(staged_plan.size(), 0);
    window.assign(staged_plan.size(), 0);
  }
  if (fired.size() != staged_plan.size() ||
      window.size() != staged_plan.size())
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "firing state does not match plan size");
  if (rng == std::array<std::uint64_t, 4>{})
    throw SnapshotError(SnapshotErrc::kCorrupt, "all-zero RNG state");
  if (!(dropout >= 0.0 && dropout <= 1.0))  // also rejects NaN
    throw SnapshotError(SnapshotErrc::kCorrupt,
                        "dropout probability out of range");

  // Commit, then bind. Unlike attach, the restored firing state survives:
  // fired one-shots stay fired and no synchronization on_round runs (it
  // would re-toggle nothing, but neither would it re-install bias — open
  // windows are re-applied explicitly because engine snapshots do not
  // carry runtime attachments).
  plan_ = std::move(staged_plan);
  rng_.set_state(rng);
  fired_ = std::move(fired);
  window_on_ = std::move(window);
  dropout_p_ = dropout;
  log_ = std::move(log);

  // Attach parity: bind detaches any previous injector's hook/bias first —
  // a stale hook captures its (possibly destroyed) injector by raw pointer
  // and must never survive a restore that replaces or drops the schedule.
  bind(backend);
  const auto& events = plan_.events();
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].kind == FaultKind::kBias && window_on_[i])
      backend.set_scheduler_bias(events[i].bias);
}

}  // namespace popproto
