// Power explorer: walks a workload across local-memory sizes and reports
// the Section 4 power story — where the working set lands, how many SRAM
// banks must stay powered, and the memory-system energy versus a hardware
// cache that burns a tag check on every access.
//
//   $ ./power_explorer [workload]
#include <cstdio>
#include <cstring>

#include "hwsim/cache.h"
#include "hwsim/power.h"
#include "softcache/system.h"
#include "util/stats.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace sc;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "adpcm_enc";
  const auto* spec = workloads::FindWorkload(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; try:", name);
    for (const auto& w : workloads::AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput(name, 4);

  // Hardware baseline for the energy comparison.
  hwsim::ICacheProbe probe(hwsim::CacheConfig{8192, 16, 1});
  vm::Machine native;
  native.LoadImage(img);
  native.SetInput(input);
  native.set_fetch_observer(&probe);
  const vm::RunResult native_run = native.Run();
  if (native_run.reason != vm::StopReason::kHalted) {
    std::fprintf(stderr, "native run failed: %s\n",
                 native_run.fault_message.c_str());
    return 1;
  }
  const hwsim::EnergyModel energy;
  const double hw_energy = hwsim::HardwareCacheEnergy(
      energy, probe.stats().accesses, probe.stats().misses, 16, 1);

  std::printf("workload: %s  (%llu instructions)\n", name,
              (unsigned long long)native_run.instructions);
  std::printf("hardware baseline: 8KB direct-mapped, tag check every fetch\n\n");
  std::printf("%-10s %10s %10s %8s %10s %12s\n", "local mem", "rel.time",
              "wss", "banks", "sw/hw E", "leak vs 8on");
  printf("----------------------------------------------------------------\n");

  const uint32_t kBankBytes = 2048;
  for (const uint32_t size : {2048u, 4096u, 8192u, 16384u, 32768u}) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = size;
    softcache::MultiClientSystem system(img, {.base = config});
    system.SetInput(0, input);
    const vm::RunResult run = system.RunAll()[0];
    if (run.reason != vm::StopReason::kHalted) {
      std::printf("%9.1fK %10s (working set exceeds memory: %s)\n",
                  size / 1024.0, "-", run.fault_message.c_str());
      continue;
    }
    const auto& stats = system.cc(0).stats();
    const uint64_t wss = stats.tcache_bytes_used_peak;
    const uint32_t banks_total = 16;
    const uint32_t banks = static_cast<uint32_t>(
        std::min<uint64_t>(banks_total, (wss + kBankBytes - 1) / kBankBytes));
    const uint64_t extra =
        run.instructions - native_run.instructions;
    const double sw_energy = hwsim::SoftCacheEnergy(
        energy, native_run.instructions, extra, stats.blocks_translated,
        stats.words_installed, 60);
    const double leak_on = hwsim::BankLeakEnergy(energy, run.cycles, banks, banks_total);
    const double leak_all =
        hwsim::BankLeakEnergy(energy, run.cycles, banks_total, banks_total);
    std::printf("%9.1fK %10.2f %9s %8u %10.3f %11.1f%%\n", size / 1024.0,
                (double)run.cycles / (double)native_run.cycles,
                util::HumanBytes(wss).c_str(), banks, sw_energy / hw_energy,
                100.0 * leak_on / leak_all);
  }
  std::printf(
      "\nReading: rel.time near 1 with sw/hw E below 1 = the software cache\n"
      "runs near full speed while skipping every tag check; the banks\n"
      "column is the Section 4 power-down opportunity (only the working\n"
      "set's banks stay awake).\n");
  return 0;
}
