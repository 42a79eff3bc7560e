// Steady-state allocation guard for CountEngine's hot paths. This binary
// replaces the global operator new with a counting one; after a warm-up
// round (species table, event list, cache entries and batch scratch all
// sized), skip-ahead jumps and collision-sampled batches must not touch the
// heap at all. Zero-count compaction, the per-slot change-weight table and
// the index-based outcome mapping are what keep them there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/count_engine.hpp"
#include "server/protocol_registry.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace popproto {
namespace {

// The sampler policy skips at n = 2^16 and batches approx_majority's dense
// phase at n = 2^20: one test on each side of the switch.
constexpr std::uint64_t kSkipN = std::uint64_t{1} << 16;
constexpr std::uint64_t kBatchN = std::uint64_t{1} << 20;

TEST(Alloc, CountingOperatorNewIsActive) {
  const std::uint64_t before = g_allocations.load();
  auto* p = new std::uint64_t(7);
  delete p;
  EXPECT_EQ(g_allocations.load(), before + 1);
}

TEST(Alloc, SkipJumpsAllocateNothing) {
  const auto inst = make_protocol_instance("dv12_majority", kSkipN);
  CountEngine eng(*inst->protocol, inst->initial_counts, /*seed=*/1);
  eng.run_rounds(1.0);  // warm-up
  const std::uint64_t jumps0 = eng.counters().skip_jumps;
  const std::uint64_t effective0 = eng.effective_interactions();

  const std::uint64_t allocs0 = g_allocations.load();
  while (eng.counters().skip_jumps - jumps0 < 10000 && !eng.silent())
    eng.run_rounds(1.0);
  const std::uint64_t allocs = g_allocations.load() - allocs0;

  EXPECT_GE(eng.counters().skip_jumps - jumps0, 10000u);
  EXPECT_GE(eng.effective_interactions() - effective0, 10000u);
  EXPECT_FALSE(eng.silent());
  EXPECT_EQ(eng.counters().batch_blocks, 0u);
  EXPECT_EQ(allocs, 0u);
}

TEST(Alloc, BatchStretchAllocatesNothing) {
  // Approximate majority stays in the batch sampler through its early
  // rounds.
  const auto inst = make_protocol_instance("approx_majority", kBatchN);
  CountEngine eng(*inst->protocol, inst->initial_counts, /*seed=*/1);
  eng.run_rounds(1.0);  // warm-up
  const std::uint64_t blocks0 = eng.counters().batch_blocks;

  const std::uint64_t allocs0 = g_allocations.load();
  eng.run_rounds(4.0);
  const std::uint64_t allocs = g_allocations.load() - allocs0;

  // 4 rounds at n = 2^20 in blocks of at most 2 sqrt(n) = 2048
  // interactions.
  EXPECT_FALSE(eng.skip_engaged());
  EXPECT_EQ(eng.counters().skip_jumps, 0u);
  EXPECT_GE(eng.counters().batch_blocks - blocks0, 2048u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace popproto
