#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0,
                                       90.0,  75.0, 50.0};
  for (const double p : kLadder)
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  return 0.0;
}

std::string Summary::describe(const std::string& unit) const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50 %.6g %s, p%g %.6g %s, n %zu", p50,
                unit.c_str(), tail_pct, tail, unit.c_str(), n);
  return buf;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.p50 = quantile(samples, 0.5);
  s.tail_pct = tail_percentile(s.n);
  if (s.tail_pct == 0.0) {
    s.tail_pct = 100.0;
    s.tail = *std::max_element(samples.begin(), samples.end());
  } else {
    s.tail = quantile(samples, s.tail_pct / 100.0);
  }
  return s;
}

Summary summarize_groups(const std::vector<std::vector<double>>& groups) {
  Summary s;
  std::vector<double> medians;
  double min_pct = 100.0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    const Summary gs = summarize(g);
    medians.push_back(gs.p50);
    s.n += gs.n;
    if (gs.tail >= s.tail) s.tail = gs.tail;
    min_pct = std::min(min_pct, gs.tail_pct);
  }
  s.p50 = quantile(medians, 0.5);
  s.tail_pct = medians.empty() ? 0.0 : min_pct;
  return s;
}

}  // namespace perfbench
