// Micro-benchmarks (google-benchmark) for the substrate itself: interpreter
// throughput, instruction encode/decode, protocol framing, the hardware
// cache model, and the miss path. These guard against performance
// regressions in the simulation infrastructure, not paper results.
#include <benchmark/benchmark.h>

#include "hwsim/cache.h"
#include "isa/isa.h"
#include "minicc/compiler.h"
#include "softcache/protocol.h"
#include "softcache/system.h"
#include "util/rng.h"
#include "vm/machine.h"

namespace sc {
namespace {

const image::Image& LoopImage() {
  static const image::Image img = [] {
    auto compiled = minicc::CompileMiniC(R"(
      int main() {
        int sum = 0;
        for (int i = 0; i < 100000; i++) sum += i % 7;
        return sum % 251;
      }
    )");
    SC_CHECK(compiled.ok());
    return std::move(*compiled);
  }();
  return img;
}

void BM_VmInterpreterLoop(benchmark::State& state) {
  for (auto _ : state) {
    vm::Machine machine;
    machine.LoadImage(LoopImage());
    const vm::RunResult run = machine.Run();
    benchmark::DoNotOptimize(run.cycles);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(run.instructions));
  }
}
BENCHMARK(BM_VmInterpreterLoop)->Unit(benchmark::kMillisecond);

void BM_IsaDecode(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<uint32_t> words(4096);
  for (auto& w : words) w = rng.Next32();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::Decode(words[i++ & 4095]));
  }
}
BENCHMARK(BM_IsaDecode);

void BM_IsaEncodeBranch(benchmark::State& state) {
  int32_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        isa::EncBranch(isa::Opcode::kBne, isa::kT0, isa::kT1, offset));
    offset = (offset + 1) & 1023;
  }
}
BENCHMARK(BM_IsaEncodeBranch);

void BM_ProtocolChunkRoundTrip(benchmark::State& state) {
  softcache::Reply reply;
  reply.type = softcache::MsgType::kChunkReply;
  reply.payload.resize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const auto bytes = reply.Serialize();
    auto parsed = softcache::Reply::Parse(bytes);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          (reply.wire_bytes() + softcache::kRequestBytes));
}
BENCHMARK(BM_ProtocolChunkRoundTrip)->Arg(32)->Arg(256);

void BM_HwCacheAccess(benchmark::State& state) {
  hwsim::Cache cache(hwsim::CacheConfig{8192, 16, 2});
  util::Rng rng(3);
  std::vector<uint32_t> addrs(8192);
  for (auto& a : addrs) a = static_cast<uint32_t>(rng.Below(64 * 1024)) & ~3u;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addrs[i++ & 8191]));
  }
}
BENCHMARK(BM_HwCacheAccess);

void BM_SoftCacheColdStart(benchmark::State& state) {
  for (auto _ : state) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = 16 * 1024;
    softcache::MultiClientSystem system(LoopImage(), {.base = config});
    const vm::RunResult run = system.RunAll()[0];
    benchmark::DoNotOptimize(run.cycles);
  }
}
BENCHMARK(BM_SoftCacheColdStart)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sc

BENCHMARK_MAIN();
