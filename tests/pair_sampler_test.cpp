#include "core/pair_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace popproto {
namespace {

// Exact log pmf helpers for building expected counts.
double log_binomial_pmf(std::uint64_t n, double p, std::uint64_t k) {
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k) +
         static_cast<double>(k) * std::log(p) +
         static_cast<double>(n - k) * std::log1p(-p);
}

double log_hypergeometric_pmf(std::uint64_t good, std::uint64_t bad,
                              std::uint64_t sample, std::uint64_t k) {
  const std::uint64_t pop = good + bad;
  return log_factorial(good) - log_factorial(k) - log_factorial(good - k) +
         log_factorial(bad) - log_factorial(sample - k) -
         log_factorial(bad - (sample - k)) + log_factorial(sample) +
         log_factorial(pop - sample) - log_factorial(pop);
}

TEST(PairSampler, LogFactorialMatchesDirectSum) {
  double acc = 0.0;
  for (std::uint64_t k = 1; k <= 200; ++k) {
    acc += std::log(static_cast<double>(k));
    EXPECT_NEAR(log_factorial(k), acc, 1e-8 * std::max(1.0, acc)) << k;
  }
}

// Chi-square goodness of fit of `trials` draws from `draw()` against the
// exact pmf given by `log_pmf(k)` over support [0, kmax].
void expect_gof(std::uint64_t kmax,
                const std::function<std::uint64_t()>& draw,
                const std::function<double(std::uint64_t)>& log_pmf,
                std::size_t trials) {
  std::vector<double> observed(kmax + 1, 0.0), expected(kmax + 1, 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t k = draw();
    ASSERT_LE(k, kmax);
    ++observed[k];
  }
  for (std::uint64_t k = 0; k <= kmax; ++k)
    expected[k] = static_cast<double>(trials) * std::exp(log_pmf(k));
  std::size_t dof = 0;
  const double stat = chi_square_gof(observed, expected, &dof);
  ASSERT_GE(dof, 1u);
  // alpha = 0.001: loose enough that the suite's fixed seeds stay stable,
  // tight enough to catch an off-by-one or a wrong branch threshold.
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001))
      << "dof=" << dof;
}

TEST(PairSampler, BinomialInversionRegimeGof) {
  Rng rng(11);
  const std::uint64_t n = 40;
  const double p = 0.1;  // n p = 4 < 10: inversion path
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialModeInversionRegimeGof) {
  Rng rng(12);
  const std::uint64_t n = 300;
  const double p = 0.3;  // n p = 90, n p q = 63 < 2500: mode-centered path
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialRejectionRegimeGof) {
  Rng rng(22);
  const std::uint64_t n = 40000;
  const double p = 0.25;  // n p q = 7500 >= 2500: BTRS path
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialSymmetryRegimeGof) {
  Rng rng(13);
  const std::uint64_t n = 200;
  const double p = 0.85;  // p > 0.5: reflected draw
  expect_gof(
      n, [&] { return sample_binomial(rng, n, p); },
      [&](std::uint64_t k) { return log_binomial_pmf(n, p, k); }, 40000);
}

TEST(PairSampler, BinomialEdgeCases) {
  Rng rng(14);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(rng, 17, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 17, 1.0), 17u);
}

TEST(PairSampler, HypergeometricInversionRegimeGof) {
  Rng rng(15);
  const std::uint64_t good = 15, bad = 85, sample = 20;  // mean = 3
  expect_gof(
      std::min(good, sample),
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        if (sample > bad && k < sample - bad) return -1e30;
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricModeInversionRegimeGof) {
  Rng rng(16);
  // mean = 40, var ~ 19 < 2500: mode-centered inversion path.
  const std::uint64_t good = 200, bad = 300, sample = 100;
  expect_gof(
      std::min(good, sample),
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricRejectionRegimeGof) {
  Rng rng(23);
  // mean = 10000, var ~ 4900 >= 2500: HRUA ratio-of-uniforms path.
  const std::uint64_t good = 500000, bad = 500000, sample = 20000;
  expect_gof(
      sample,
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricSymmetryRegimesGof) {
  // sample > pop/2 and good > bad both reduce through reflections; exercise
  // the composition of the two.
  Rng rng(17);
  const std::uint64_t good = 60, bad = 40, sample = 80;
  expect_gof(
      std::min(good, sample),
      [&] { return sample_hypergeometric(rng, good, bad, sample); },
      [&](std::uint64_t k) {
        if (k < sample - bad) return -1e30;  // support floor: 80 - 40 = 40
        return log_hypergeometric_pmf(good, bad, sample, k);
      },
      40000);
}

TEST(PairSampler, HypergeometricEdgeCases) {
  Rng rng(18);
  EXPECT_EQ(sample_hypergeometric(rng, 0, 10, 5), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 10, 0, 5), 5u);
  EXPECT_EQ(sample_hypergeometric(rng, 10, 10, 0), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 10, 10, 20), 10u);
}

TEST(PairSampler, MultivariateHypergeometricMarginalsAndTotal) {
  Rng rng(19);
  const std::vector<std::uint64_t> counts = {50, 0, 30, 120, 7};
  const std::uint64_t total = 207, draws = 60;
  std::vector<std::uint64_t> out;
  std::vector<double> observed0(counts[0] + 1, 0.0);
  const std::size_t trials = 20000;
  for (std::size_t t = 0; t < trials; ++t) {
    sample_multivariate_hypergeometric(rng, counts, total, draws, out);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_LE(out[i], counts[i]);
      sum += out[i];
    }
    ASSERT_EQ(sum, draws);
    ++observed0[out[0]];
  }
  // First coordinate is marginally Hypergeometric(counts[0], rest, draws).
  std::vector<double> expected0(counts[0] + 1, 0.0);
  for (std::uint64_t k = 0; k <= counts[0]; ++k) {
    if (draws < k) continue;
    expected0[k] =
        static_cast<double>(trials) *
        std::exp(log_hypergeometric_pmf(counts[0], total - counts[0], draws, k));
  }
  std::size_t dof = 0;
  const double stat = chi_square_gof(observed0, expected0, &dof);
  ASSERT_GE(dof, 1u);
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001));
}

TEST(PairSampler, MultinomialGofPerCategoryAndTotal) {
  Rng rng(20);
  const std::vector<double> p = {0.05, 0.55, 0.4};
  const double p_total = 1.0;
  const std::uint64_t n = 50;
  const std::size_t trials = 20000;
  std::vector<std::vector<double>> observed(
      p.size(), std::vector<double>(n + 1, 0.0));
  std::vector<std::uint64_t> out;
  for (std::size_t t = 0; t < trials; ++t) {
    sample_multinomial(rng, n, p.data(), p.size(), p_total, out);
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < p.size(); ++c) {
      sum += out[c];
      ++observed[c][out[c]];
    }
    ASSERT_EQ(sum, n);
  }
  // Each category is marginally Binomial(n, p_c).
  for (std::size_t c = 0; c < p.size(); ++c) {
    std::vector<double> expected(n + 1, 0.0);
    for (std::uint64_t k = 0; k <= n; ++k)
      expected[k] = static_cast<double>(trials) *
                    std::exp(log_binomial_pmf(n, p[c], k));
    std::size_t dof = 0;
    const double stat = chi_square_gof(observed[c], expected, &dof);
    ASSERT_GE(dof, 1u);
    EXPECT_LT(stat, chi_square_critical_value(dof, 0.001)) << "category " << c;
  }
}

TEST(PairSampler, CollisionRunSurvivalGof) {
  // Full-population case m = n: compare the empirical run-length histogram
  // (uncapped within [0, lmax]) against P(L* = l) = S(l) - S(l+1),
  // S(l) = m!/(m-2l)! / (n(n-1))^l.
  Rng rng(21);
  const std::uint64_t n = 64;
  const std::uint64_t lmax = n / 2;
  const std::size_t trials = 30000;
  std::vector<double> observed(lmax + 1, 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    bool collided = false;
    const std::uint64_t l = sample_collision_run(rng, n, n, lmax, &collided);
    ASSERT_LE(l, lmax);
    if (!collided) {
      ASSERT_EQ(l, lmax);
    }
    ++observed[l];
  }
  const double log_pairs = std::log(static_cast<double>(n)) +
                           std::log(static_cast<double>(n - 1));
  const auto survival = [&](std::uint64_t l) {
    return std::exp(log_factorial(n) - log_factorial(n - 2 * l) -
                    static_cast<double>(l) * log_pairs);
  };
  std::vector<double> expected(lmax + 1, 0.0);
  for (std::uint64_t l = 0; l < lmax; ++l)
    expected[l] = static_cast<double>(trials) * (survival(l) - survival(l + 1));
  expected[lmax] = static_cast<double>(trials) * survival(lmax);
  std::size_t dof = 0;
  const double stat = chi_square_gof(observed, expected, &dof);
  ASSERT_GE(dof, 1u);
  EXPECT_LT(stat, chi_square_critical_value(dof, 0.001));
}

TEST(PairSampler, CollisionRunRespectsTruncation) {
  Rng rng(22);
  for (int t = 0; t < 2000; ++t) {
    bool collided = false;
    const std::uint64_t l = sample_collision_run(rng, 1 << 20, 1 << 20, 7,
                                                 &collided);
    ASSERT_LE(l, 7u);
    // At n = 2^20 a 7-interaction collision is vanishingly rare; the bound
    // should be what ends the run.
    EXPECT_FALSE(collided);
    EXPECT_EQ(l, 7u);
  }
}

TEST(PairSampler, CollisionRunNoRoomMeansImmediateCollision) {
  Rng rng(23);
  bool collided = false;
  EXPECT_EQ(sample_collision_run(rng, 100, 1, 10, &collided), 0u);
  EXPECT_TRUE(collided);
}

}  // namespace
}  // namespace popproto
