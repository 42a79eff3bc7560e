// Exact discrete samplers for batched collision sampling (DESIGN.md §9).
//
// The batch sampler of CountEngine replaces per-interaction RNG draws with a
// handful of distributional draws per ~√n interactions: a multivariate
// hypergeometric for the block's participant species, nested hypergeometrics
// for the initiator/responder pair matrix, and binomial/multinomial draws
// for aggregate rule outcomes. All samplers here are exact (inversion in the
// small-mean regime, BTRS / HRUA-style rejection above it) and draw only
// from the caller's Rng, so batched runs stay seed-reproducible like
// everything else in the library.
//
// These generalize the sequential without-replacement loop that
// CountEngine::mutate_random_agents has always used for fault corruption:
// one hypergeometric per species instead of one urn scan per victim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace popproto {

/// log(k!) — Stirling series above a small exact table. Accurate to ~1e-10,
/// thread-safe (no signgam global, unlike lgamma on glibc).
double log_factorial(std::uint64_t k);

/// Batched log(k!): out[i] = log_factorial(k[i]) for i in [0, n). Same table
/// and Stirling series as the scalar, dispatched through support/simd.hpp —
/// every tier returns bit-identical doubles. The HRUA samplers evaluate
/// log-pmf terms four arguments at a time through this.
void log_factorial_batch(const std::uint64_t* k, double* out, std::size_t n);

/// Binomial(n, p): number of successes in n trials. Exact: inversion when
/// n * min(p, 1-p) is small, Hörmann's BTRS transformed rejection (with the
/// exact log-pmf acceptance test) otherwise.
std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p);

/// Hypergeometric: successes when drawing `sample` items without replacement
/// from `good` + `bad` items. Exact: inversion in the small regime, HRUA
/// ratio-of-uniforms rejection (Stadlober) above it.
std::uint64_t sample_hypergeometric(Rng& rng, std::uint64_t good,
                                    std::uint64_t bad, std::uint64_t sample);

/// Multivariate hypergeometric: draw `draws` items without replacement from
/// species with counts `counts[0..k)` summing to `total`; writes per-species
/// draw counts into `out[0..k)` (resized). Marginal factorization: one
/// hypergeometric per species, early-exit when the budget is exhausted.
void sample_multivariate_hypergeometric(Rng& rng,
                                        const std::vector<std::uint64_t>& counts,
                                        std::uint64_t total,
                                        std::uint64_t draws,
                                        std::vector<std::uint64_t>& out);

/// Multinomial(n; p): distribute n trials over k categories with
/// probabilities p[0..k) summing to `p_total` (pass the true sum so the
/// conditional binomials stay exact under float accumulation); writes counts
/// into `out[0..k)` (resized). Conditional-binomial factorization.
void sample_multinomial(Rng& rng, std::uint64_t n, const double* p,
                        std::size_t k, double p_total,
                        std::vector<std::uint64_t>& out);

/// Length of the collision-free prefix of a uniform-pair interaction
/// sequence, truncated at `lmax`: the number of consecutive interactions
/// whose participants are all distinct from each other and from `touched`
/// prior participants, in a population of n = m + touched agents with m
/// untouched. Returns min(L*, lmax) where
///   P(L* >= l) = m! / (m-2l)! / (n(n-1))^l ,
/// and sets `*collided` to whether L* < lmax (the run ended in a collision
/// rather than at the truncation bound). Exact inversion via the log
/// survival function (binary search, one log_factorial per probe).
std::uint64_t sample_collision_run(Rng& rng, std::uint64_t n, std::uint64_t m,
                                   std::uint64_t lmax, bool* collided);

}  // namespace popproto
