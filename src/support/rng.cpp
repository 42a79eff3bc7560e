#include "support/rng.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "support/simd.hpp"

namespace popproto {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // Never allow the all-zero state; splitmix64 seeding guarantees this
  // except for pathological fixed points, which we guard against anyway.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

unsigned __int128 Rng::below_slow(std::uint64_t bound, unsigned __int128 m) {
  auto low = static_cast<std::uint64_t>(m);
  const std::uint64_t threshold = -bound % bound;
  while (low < threshold) {
    const std::uint64_t x = (*this)();
    m = static_cast<unsigned __int128>(x) * bound;
    low = static_cast<std::uint64_t>(m);
  }
  return m;
}

std::uint64_t Rng::geometric(double p) {
  POPPROTO_DCHECK(p > 0.0);
  if (p >= 1.0) return 0;
  // Inversion: floor(ln(U) / ln(1-p)), with U in (0, 1].
  double u = 1.0 - uniform();  // (0, 1]
  const double g = std::floor(std::log(u) / std::log1p(-p));
  // 2^64 is exact as a double; casting anything at or past it is undefined.
  if (!(g < 18446744073709551616.0))
    return std::numeric_limits<std::uint64_t>::max();
  return g > 0 ? static_cast<std::uint64_t>(g) : 0;
}

Rng Rng::split() {
  std::uint64_t seed = (*this)();
  return Rng(seed);
}

void Rng::fill_below(std::uint64_t bound, std::uint64_t* out, std::size_t n) {
  POPPROTO_DCHECK(bound > 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = below(bound);
}

void BulkDraws::refill(Rng& rng) {
  if (buf_.empty()) buf_.resize(kDefaultWords);
  base_ = rng;
  rng.fill_u64(buf_.data(), buf_.size());
  pos_ = 0;
  len_ = buf_.size();
}

void CounterStream::fill(std::uint64_t* out, std::size_t n) {
  state_ = simd::splitmix_fill(state_, out, n);
}

std::string rng_state_hex(const Rng& rng) {
  const auto s = rng.state();
  char buf[4 * 16 + 4];
  std::snprintf(buf, sizeof buf, "%016llx:%016llx:%016llx:%016llx",
                static_cast<unsigned long long>(s[0]),
                static_cast<unsigned long long>(s[1]),
                static_cast<unsigned long long>(s[2]),
                static_cast<unsigned long long>(s[3]));
  return buf;
}

}  // namespace popproto
