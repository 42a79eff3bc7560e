// The benchmark's own arithmetic: quantiles, the tail-percentile rule,
// failure accounting and open-loop latency. Kept free of any library
// dependency so tests/selftest.cpp can pin it directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "type 7" rule of R and NumPy) of
/// `v` at q in [0, 1]. Returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// The highest percentile of the ladder {50, 75, 90, 95, 99, 99.9, 99.99}
/// that has at least ten of `n` samples beyond it, or 0 when even the
/// median has fewer than ten beyond it (n < 20).
double tail_percentile(std::size_t n);

/// A timing as the benchmark reports it: the median, the tail (the value at
/// tail_percentile(n), or the maximum when n < 20 — then tail_pct is 100),
/// and the sample count.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
  /// "p50 <x> p<pct> <y> n <n>" with `unit` after both values.
  std::string describe(const std::string& unit) const;
};

Summary summarize(const std::vector<double>& samples);

/// For a sample made of fixed groups whose timings differ by design (one
/// group per job configuration): the median of the group medians and the
/// largest group tail. Pooling such groups would put the median on the
/// boundary between two groups, where it jumps from run to run.
Summary summarize_groups(const std::vector<std::vector<double>>& groups);

/// Operations attempted and failed. A failed operation is one that errored
/// or whose output failed a check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Count one operation; returns `ok` so checks can be chained.
  bool record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Open-loop latency: a request is timed from the moment it was due to be
/// sent, not from when the generator got round to sending it, so a stall
/// charges its wait to every request scheduled behind it.
inline double latency_from_due(double due, double done) { return done - due; }

/// How late the generator sent a request (0 when on time or early).
inline double generator_lag(double due, double sent) {
  return sent > due ? sent - due : 0.0;
}

}  // namespace perfbench
