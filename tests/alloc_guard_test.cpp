// Allocation guard for the client's steady-state miss path.
//
// This binary replaces the global allocation functions with counting ones,
// which is why it is a test executable of its own. Two guards:
//   - the superblock store, driven on its own through full pool cycles
//     (publish, flush, reclaim), allocates nothing once its arena and
//     index have reached their working size;
//   - over a warmed-up window of a thrashing cjpeg run (2 KB tcache,
//     threaded engine), a translated miss allocates at most six times, the
//     request/reply protocol path's share, and neither the superblock
//     arena nor the cache controller's block slab grows. The block
//     table's records keep their vectors' capacity when recycled, so it
//     allocates only when a record meets more edges or stubs than any
//     earlier occupant of its slot held (19 times in this window).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "softcache/system.h"
#include "vm/machine.h"
#include "vm/superblock.h"
#include "workloads/workloads.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

// Out of line, so the compiler never pairs a replaced operator new with
// malloc (or operator delete with free) and warns about the mismatch.
[[gnu::noinline]] void* CountedAlloc(size_t size, size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  return p;
}

[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(size_t size) {
  void* p = CountedAlloc(size, 0);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size) { return ::operator new(size); }
void* operator new(size_t size, std::align_val_t align) {
  void* p = CountedAlloc(size, static_cast<size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace sc {
namespace {

// Publishes one `n_ops`-op block (a run of ADDIs ending in a J) at `start`.
vm::Superblock* PublishBlock(vm::SuperblockCache& cache, uint32_t start,
                             uint32_t n_ops) {
  vm::SbOp ops[vm::kSbMaxOps + 1];
  for (uint32_t i = 0; i < n_ops; ++i) {
    ops[i].pc = start + 4 * i;
    ops[i].kind = i + 1 == n_ops ? vm::kSbJ : vm::kSbAddi;
  }
  return cache.Publish(start, 4 * n_ops, ops, n_ops);
}

TEST(AllocationGuard, SuperblockStoreCyclesWithoutAllocating) {
  vm::SuperblockCache cache;
  vm::SbStats stats;
  uint64_t cycle_allocations[4] = {};
  for (int cycle = 0; cycle < 4; ++cycle) {
    g_allocations.store(0);
    g_counting.store(true);
    // A full pool, as the dispatch loop fills it before it flushes: the
    // index and the line masks reach their working size, and blocks die
    // one by one to overlapping writes along the way.
    for (uint32_t i = 0; i < vm::kSbMaxBlocks; ++i) {
      const uint32_t start = 0x10000 + 0x80 * i;
      PublishBlock(cache, start, 1 + i % vm::kSbMaxOps);
      if (i % 7 == 3) cache.Invalidate(start, 4, &stats);
    }
    for (uint32_t i = 0; i < vm::kSbMaxBlocks; i += 5) {
      static_cast<void>(cache.Find(0x10000 + 0x80 * i));
    }
    cache.FlushMark(&stats);
    cache.Reclaim();
    // Between Reclaim and the next Publish, no dropped block is found.
    EXPECT_EQ(cache.Find(0x10000), nullptr);
    g_counting.store(false);
    cycle_allocations[cycle] = g_allocations.load();
  }
  EXPECT_GT(cycle_allocations[0], 0u) << "the first cycle sizes the store";
  for (int cycle = 1; cycle < 4; ++cycle) {
    EXPECT_EQ(cycle_allocations[cycle], 0u) << "cycle " << cycle;
  }
}

// The request/reply protocol path allocates about six times per translated
// miss (link call, reply parse, the server session's reply and chunk cut,
// the fetched chunk). Measured over this window: 45,343 allocations for
// 7,561 translations (5.997 each), all but about 20 of them in that path
// (the switch and server-loop hop add none: tickets queue intrusively); with
// one heap allocation per superblock, a start-pc index rebuilt at every
// pool flush and map-based block tables it was 115,801 (15.3 each).
constexpr double kMaxAllocationsPerTranslation = 6.0;

TEST(AllocationGuard, SteadyStateMissesAllocateOnlyInTheProtocolPath) {
  const workloads::WorkloadSpec* spec = workloads::FindWorkload("cjpeg");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  softcache::SoftCacheConfig config;
  config.tcache_bytes = 2048;
  softcache::MultiClientSystem system(img, {.base = config});
  system.machine(0).set_engine(vm::Engine::kThreaded);
  system.SetInput(0, workloads::MakeInput(spec->name, 1));

  // Warm-up: long enough for every pool, slab and table to reach its
  // working size.
  vm::RunResult result = system.RunAll(5'000'000)[0];
  ASSERT_EQ(result.reason, vm::StopReason::kInstrLimit) << result.fault_message;
  const uint64_t translated_before = system.cc(0).stats().blocks_translated;
  const uint64_t sb_flushes_before = system.machine(0).sb_stats().flushes;
  const size_t chunks_before = system.machine(0).sb_cache()->arena_chunks();
  const size_t slots_before = system.cc(0).BlockSlots();

  g_allocations.store(0);
  g_counting.store(true);
  result = system.RunAll(10'000'000)[0];  // the budget is absolute
  g_counting.store(false);
  ASSERT_EQ(result.reason, vm::StopReason::kInstrLimit) << result.fault_message;

  const uint64_t translated =
      system.cc(0).stats().blocks_translated - translated_before;
  const uint64_t allocations = g_allocations.load();
  ASSERT_GT(translated, 1000u) << "the window must be miss-dominated";
  ASSERT_GT(system.machine(0).sb_stats().flushes, sb_flushes_before)
      << "the window must cycle the superblock pool";
  EXPECT_EQ(system.machine(0).sb_cache()->arena_chunks(), chunks_before);
  EXPECT_EQ(system.cc(0).BlockSlots(), slots_before);
  EXPECT_LE(static_cast<double>(allocations),
            kMaxAllocationsPerTranslation * static_cast<double>(translated))
      << allocations << " allocations over " << translated << " translations ("
      << static_cast<double>(allocations) / static_cast<double>(translated)
      << " per translated miss)";
}

}  // namespace
}  // namespace sc
