// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library draw from Rng (xoshiro256**)
// seeded explicitly; experiment harnesses derive per-trial seeds with
// split(). Nothing in the library ever touches global random state, so every
// table in bench/ is reproducible bit-for-bit from its seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace popproto {

/// SplitMix64 step; used for seeding and for deriving independent streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
///
/// The draw primitives (operator(), below, uniform, distinct_pair, ...) are
/// defined inline: they sit on the per-interaction hot path of both engines,
/// where a cross-TU call per draw measurably caps throughput.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t below(std::uint64_t bound) {
    POPPROTO_DCHECK(bound > 0);
    std::uint64_t x = (*this)();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) [[unlikely]]
      m = below_slow(bound, m);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    POPPROTO_DCHECK(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Fair coin.
  bool coin() { return ((*this)() >> 63) != 0; }

  /// Geometric: number of failures before the first success, success
  /// probability p in (0, 1]. Returns 0 immediately when p == 1, and
  /// saturates at UINT64_MAX when the draw is past the 64-bit range (tiny p).
  std::uint64_t geometric(double p);

  /// Ordered pair of distinct indices in [0, n); n must be >= 2.
  std::pair<std::uint64_t, std::uint64_t> distinct_pair(std::uint64_t n) {
    POPPROTO_DCHECK(n >= 2);
    const std::uint64_t a = below(n);
    std::uint64_t b = below(n - 1);
    if (b >= a) ++b;
    return {a, b};
  }

  /// Derive an independent generator (stream-split by jumbling state).
  Rng split();

  // -- Bulk draws (DESIGN.md §13) -------------------------------------------
  /// Fill out[0..n) with the next n raw draws — exactly the sequence n
  /// operator() calls would produce, state advanced identically. The loop
  /// stays in one frame (no per-draw call), which is what the buffered
  /// consumers below amortize their refills through.
  void fill_u64(std::uint64_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = (*this)();
  }

  /// Batched bounded uniforms: out[0..n) gets the results of n sequential
  /// below(bound) calls (same Lemire rejection, same word consumption, so
  /// the stream state afterwards matches the per-draw loop exactly).
  void fill_below(std::uint64_t bound, std::uint64_t* out, std::size_t n);

  /// Advance the stream by `n` draws, discarding the outputs (used to
  /// compute the logical position of a partially consumed bulk buffer).
  void discard(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) (*this)();
  }

  // -- Stream-state persistence (src/persist/, DESIGN.md §10) ---------------
  /// The full 256-bit generator state. Restoring it with set_state resumes
  /// the stream at the exact draw it was captured at — not a reseed: two
  /// generators with equal state produce identical draw sequences forever.
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    POPPROTO_CHECK_MSG(s[0] || s[1] || s[2] || s[3],
                       "all-zero xoshiro256** state is invalid");
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

  /// Exact stream-state equality: true iff both generators will produce the
  /// same draw sequence from here on. This is the persistence-layer check —
  /// same seed is NOT enough once streams have advanced or been split.
  friend bool operator==(const Rng& a, const Rng& b) {
    return a.s_[0] == b.s_[0] && a.s_[1] == b.s_[1] && a.s_[2] == b.s_[2] &&
           a.s_[3] == b.s_[3];
  }
  friend bool operator!=(const Rng& a, const Rng& b) { return !(a == b); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Rejection tail of below(); out of line to keep the common path lean.
  unsigned __int128 below_slow(std::uint64_t bound, unsigned __int128 m);

  std::uint64_t s_[4];
};

/// Hex rendering of a generator's full stream state ("s0:s1:s2:s3"), for
/// test-failure diagnostics alongside operator== checks.
std::string rng_state_hex(const Rng& rng);

/// Buffered word stream over a caller-owned Rng (DESIGN.md §13).
///
/// Draw primitives pull 64-bit words from a private buffer refilled
/// `capacity` words at a time via Rng::fill_u64, consuming the exact word
/// sequence the unbuffered primitives would — so a BulkDraws-backed loop
/// follows a bit-identical trajectory, it just refills in bulk instead of
/// advancing the generator once per draw.
///
/// The generator the caller passes must be the SAME object every call (the
/// buffer caches words already drawn from it). Between refills the Rng's
/// raw state runs AHEAD of the draws actually handed out; logical() maps
/// back to the as-if-sequential state, and flush() rewinds the Rng to it.
/// Snapshots taken mid-buffer therefore serialize the logical state in the
/// unchanged 4-word format, and a restore (which clears the buffer) resumes
/// the stream at exactly the next unconsumed draw — the persistence
/// contract tests/persist_test.cpp pins on every backend.
class BulkDraws {
 public:
  /// Refill size in words.
  static constexpr std::size_t kDefaultWords = 1024;

  BulkDraws() = default;

  std::uint64_t next(Rng& rng) {
    if (pos_ == len_) [[unlikely]]
      refill(rng);
    return buf_[pos_++];
  }

  /// Rng::uniform over buffered words.
  double uniform(Rng& rng) {
    return static_cast<double>(next(rng) >> 11) * 0x1.0p-53;
  }

  /// Rng::below over buffered words (identical Lemire rejection walk).
  std::uint64_t below(Rng& rng, std::uint64_t bound) {
    const std::uint64_t x = next(rng);
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) [[unlikely]] {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        m = static_cast<unsigned __int128>(next(rng)) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Rng::distinct_pair over buffered words.
  std::pair<std::uint64_t, std::uint64_t> distinct_pair(Rng& rng,
                                                        std::uint64_t n) {
    const std::uint64_t a = below(rng, n);
    std::uint64_t b = below(rng, n - 1);
    if (b >= a) ++b;
    return {a, b};
  }

  /// Buffered words not yet handed out.
  std::size_t pending() const { return len_ - pos_; }

  /// The as-if-sequential stream state: `rng` rewound past the unconsumed
  /// tail of the buffer. Equals `rng` itself when the buffer is empty.
  Rng logical(const Rng& rng) const {
    if (len_ == 0) return rng;
    Rng l = base_;
    l.discard(pos_);
    return l;
  }

  /// Rewind `rng` to the logical state and drop the buffer. Required before
  /// any draw bypasses this buffer (direct Rng use, hooks) and before
  /// serializing or comparing the raw generator.
  void flush(Rng& rng) {
    if (len_ == 0) return;
    rng = logical(rng);
    pos_ = len_ = 0;
  }

  /// Drop the buffer WITHOUT rewinding — for restore paths that overwrite
  /// the generator state wholesale right after.
  void reset() { pos_ = len_ = 0; }

 private:
  void refill(Rng& rng);

  std::vector<std::uint64_t> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  Rng base_{1};  // rng's state as of the last refill (pre-fill)
};

/// Counter-based SplitMix64 stream (DESIGN.md §13): the same output
/// sequence as repeated splitmix64(state) calls, but each value is a pure
/// function of the counter, so fill() vectorizes (support/simd.hpp) and a
/// shard can refill a private buffer from its own counter with no shared
/// state and no sequential dependence. Used where streams are *derived*
/// (seeding, stream splitting, scrambling) rather than replay-pinned;
/// xoshiro streams that snapshots serialize stay on Rng.
class CounterStream {
 public:
  explicit CounterStream(std::uint64_t seed) : state_(seed) {}

  /// Next value; identical to splitmix64(state_) on the running counter.
  std::uint64_t operator()() { return splitmix64(state_); }

  /// Bulk fill: out[0..n) gets the next n values, counter advanced past
  /// them. Dispatches to the widest available SIMD tier.
  void fill(std::uint64_t* out, std::size_t n);

  std::uint64_t state() const { return state_; }
  void set_state(std::uint64_t s) { state_ = s; }

 private:
  std::uint64_t state_;
};

}  // namespace popproto
