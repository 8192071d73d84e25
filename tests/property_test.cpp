// Property-based tests: generate random (but always-terminating) MiniC
// programs and require that execution under the software I-cache — any
// style, any size, any eviction policy — and under the software D-cache is
// bit-identical to direct execution. This is the repository's strongest
// correctness instrument: it exercises rewriting, patching, eviction,
// stack walking and cell forwarding on program shapes nobody hand-picked.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dcache/dcache.h"
#include "minicc/compiler.h"
#include "net/channel.h"
#include "softcache/system.h"
#include "tests/program_gen.h"
#include "util/rng.h"
#include "vm/machine.h"

namespace sc {
namespace {

struct Baseline {
  int exit_code = 0;
  std::string output;
};

Baseline RunBaseline(const image::Image& img) {
  vm::Machine machine;
  machine.LoadImage(img);
  const vm::RunResult result = machine.Run(400'000'000);
  SC_CHECK(result.reason == vm::StopReason::kHalted)
      << "generated program failed natively: " << result.fault_message;
  return Baseline{result.exit_code, machine.OutputString()};
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, SoftCacheMatchesNativeEverywhere) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed);
  const std::string source = gen.Generate();
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString() << "\n" << source;
  const Baseline baseline = RunBaseline(*img);

  util::Rng cfg_rng(seed * 7919 + 13);
  // A grid of configurations, plus two fully random ones per seed.
  struct Cfg {
    softcache::Style style;
    uint32_t tcache;
    softcache::EvictPolicy evict;
    uint32_t trace_blocks = 1;
  };
  std::vector<Cfg> cfgs = {
      {softcache::Style::kSparc, 64 * 1024, softcache::EvictPolicy::kFifoRing},
      {softcache::Style::kSparc, 1024, softcache::EvictPolicy::kFifoRing},
      {softcache::Style::kSparc, 1024, softcache::EvictPolicy::kFlushAll},
      {softcache::Style::kSparc, 32 * 1024, softcache::EvictPolicy::kFifoRing, 4},
      {softcache::Style::kSparc, 1024, softcache::EvictPolicy::kFifoRing, 6},
      {softcache::Style::kArm, 32 * 1024, softcache::EvictPolicy::kFifoRing},
      {softcache::Style::kArm, 4096, softcache::EvictPolicy::kFifoRing},
  };
  for (int extra = 0; extra < 2; ++extra) {
    cfgs.push_back(Cfg{
        cfg_rng.Chance(1, 2) ? softcache::Style::kSparc : softcache::Style::kArm,
        static_cast<uint32_t>(cfg_rng.Range(2048, 16384)) & ~3u,
        cfg_rng.Chance(1, 2) ? softcache::EvictPolicy::kFifoRing
                             : softcache::EvictPolicy::kFlushAll,
        static_cast<uint32_t>(cfg_rng.Range(1, 4))});
  }

  for (const Cfg& cfg : cfgs) {
    softcache::SoftCacheConfig config;
    config.style = cfg.style;
    config.tcache_bytes = cfg.tcache;
    config.evict = cfg.evict;
    if (cfg.style == softcache::Style::kSparc) {
      config.max_trace_blocks = cfg.trace_blocks;
    }
    softcache::MultiClientSystem system(*img, {.base = config});
    const vm::RunResult result = system.RunAll(4'000'000'000ull)[0];
    ASSERT_EQ(result.reason, vm::StopReason::kHalted)
        << "style=" << (cfg.style == softcache::Style::kSparc ? "sparc" : "arm")
        << " tcache=" << cfg.tcache << " fault=" << result.fault_message
        << "\nseed=" << seed;
    EXPECT_EQ(result.exit_code, baseline.exit_code) << "seed=" << seed;
    EXPECT_EQ(system.OutputString(0), baseline.output) << "seed=" << seed;
    system.cc(0).CheckInvariants();
  }
}

TEST_P(RandomProgramTest, DcacheMatchesNative) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0x5eed);
  const std::string source = gen.Generate();
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const Baseline baseline = RunBaseline(*img);

  util::Rng cfg_rng(seed + 999);
  dcache::DCacheConfig config;
  config.dcache_blocks = static_cast<uint32_t>(cfg_rng.Range(4, 64));
  config.block_bytes = 1u << cfg_rng.Range(3, 6);
  config.scache_bytes = 1u << cfg_rng.Range(9, 13);
  config.prediction = static_cast<dcache::Prediction>(cfg_rng.Below(4));

  vm::Machine machine;
  machine.LoadImage(*img);
  softcache::MemoryController mc(*img, softcache::Style::kSparc, 64);
  net::Channel channel;
  dcache::DataCache cache(machine, mc, channel, config);
  cache.Attach();
  const vm::RunResult result = machine.Run(4'000'000'000ull);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted)
      << result.fault_message << " seed=" << seed;
  EXPECT_EQ(result.exit_code, baseline.exit_code) << "seed=" << seed;
  EXPECT_EQ(machine.OutputString(), baseline.output) << "seed=" << seed;
}

TEST_P(RandomProgramTest, CombinedIcacheAndDcacheMatchesNative) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0xc0de);
  const std::string source = gen.Generate();
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const Baseline baseline = RunBaseline(*img);

  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 4096;
  softcache::MultiClientSystem system(*img, {.base = config});
  dcache::DCacheConfig dconfig;
  dconfig.local_base = system.cc(0).local_limit();
  dcache::DataCache cache(system.machine(0), system.mc(), system.channel(0),
                          dconfig);
  cache.Attach();
  const vm::RunResult result = system.RunAll(4'000'000'000ull)[0];
  ASSERT_EQ(result.reason, vm::StopReason::kHalted)
      << result.fault_message << " seed=" << seed;
  EXPECT_EQ(result.exit_code, baseline.exit_code) << "seed=" << seed;
  EXPECT_EQ(system.OutputString(0), baseline.output) << "seed=" << seed;
  system.cc(0).CheckInvariants();
}

TEST_P(RandomProgramTest, ComputedJumpProgramsMatchUnderSparc) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0xf00d);
  const std::string source = gen.Generate(/*arm_safe=*/false);
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString() << "\n" << source;
  const Baseline baseline = RunBaseline(*img);

  for (const uint32_t tcache : {64u * 1024, 2048u}) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = tcache;
    softcache::MultiClientSystem system(*img, {.base = config});
    // Run in slices, revalidating every rewriting-state invariant between
    // slices — catches transiently corrupt state that a final check could
    // miss after self-healing.
    vm::RunResult result;
    for (;;) {
      result = system.RunAll(system.machine(0).instructions() + 20'000)[0];
      system.cc(0).CheckInvariants();
      if (result.reason != vm::StopReason::kInstrLimit) break;
      ASSERT_LT(system.machine(0).instructions(), 400'000'000u);
    }
    ASSERT_EQ(result.reason, vm::StopReason::kHalted)
        << result.fault_message << " seed=" << seed;
    EXPECT_EQ(result.exit_code, baseline.exit_code) << "seed=" << seed;
    EXPECT_EQ(system.OutputString(0), baseline.output) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace sc
