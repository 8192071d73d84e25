// Reproduces Figure 8: evictions per second over time for the ARM-style
// prototype running adpcm encode, at three CC memory sizes.
//
// Paper (800 B / 900 B / 1 KB of CC memory): the smallest memory pages
// continuously through steady state; the middle size is quiet in steady
// state but pages briefly at the end "to load the terminal statistics
// routines"; the largest size pages even less. CC memory sizes are scaled
// to our (smaller) compiled procedures: the three sizes bracket the
// steady-state hot-procedure footprint the same way 800/900/1024 bracketed
// the paper's.
#include <algorithm>

#include "bench/bench_util.h"
#include "util/stats.h"

using namespace sc;

namespace {

// The simulated embedded clock. Low enough that ~10 simulated seconds is
// tractable for the interpreter; all results are rates, so only the ratio
// of work to clock matters.
constexpr uint64_t kClockHz = 4'000'000;
constexpr double kBinSeconds = 0.5;

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 8: paging (evictions/sec) vs time, ARM-style CC, adpcm encode",
      "Figure 8 (Section 2.4)");

  const auto* spec = workloads::FindWorkload("adpcm_enc");
  SC_CHECK(spec != nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);

  // Probe run: measure total footprint (steady state + terminal statistics
  // routines) with ample memory, and size the input for ~10 simulated
  // seconds of encoding.
  softcache::SoftCacheConfig probe;
  probe.style = softcache::Style::kArm;
  probe.tcache_bytes = 64 * 1024;
  probe.channel.clock_hz = kClockHz;
  int scale = 1;
  std::vector<uint8_t> input;
  bench::CachedRun probe_run;
  for (;;) {
    input = workloads::MakeInput("adpcm_enc", scale);
    probe_run = bench::RunCachedWorkload(img, input, probe);
    const double seconds = static_cast<double>(probe_run.result.cycles) /
                           static_cast<double>(kClockHz);
    if (seconds >= 9.0 || scale >= 64) break;
    scale = std::min(64, scale * 2);
  }
  const uint64_t total_bytes = probe_run.stats.tcache_bytes_used_peak;
  // Second probe: stop before the terminal statistics run to observe the
  // steady-state footprint alone (the paper's "hot code" set).
  uint64_t steady_bytes = 0;
  {
    softcache::MultiClientSystem system(img, {.base = probe});
    system.SetInput(0, input);
    system.RunAll(probe_run.result.instructions * 80 / 100);
    steady_bytes = system.cc(0).stats().tcache_bytes_used_peak;
  }
  std::printf("steady-state footprint: %s;  with terminal routines: %s;  "
              "input scale %d\n",
              util::HumanBytes(steady_bytes).c_str(),
              util::HumanBytes(total_bytes).c_str(), scale);

  // Find the paging threshold empirically: sweep CC memory downward from
  // the steady-state footprint until evictions persist through the middle
  // of the run (sustained paging), like the paper's 800 B point. The size
  // one step larger is the "fits steady state" point (900 B analogue).
  struct SweepPoint {
    uint32_t bytes;
    double mid_rate;  // evictions/sec in the middle 60% of the run
  };
  std::vector<SweepPoint> sweep;
  uint32_t small_bytes = 0;
  uint32_t medium_bytes = static_cast<uint32_t>(steady_bytes * 104 / 100) & ~3u;
  for (uint32_t size = static_cast<uint32_t>(steady_bytes * 98 / 100) & ~3u;
       size >= 512; size = static_cast<uint32_t>(size * 93 / 100) & ~3u) {
    softcache::SoftCacheConfig config;
    config.style = softcache::Style::kArm;
    config.tcache_bytes = size;
    config.channel.clock_hz = kClockHz;
    softcache::MultiClientSystem system(img, {.base = config});
    system.SetInput(0, input);
    const vm::RunResult result = system.RunAll(16'000'000'000ull)[0];
    if (result.reason != vm::StopReason::kHalted) break;  // chunk > cache
    const uint64_t lo = result.cycles * 20 / 100;
    const uint64_t hi = result.cycles * 80 / 100;
    const uint64_t mid_evictions =
        system.cc(0).stats().eviction_timeline.CountInRange(lo, hi);
    const double mid_rate = static_cast<double>(mid_evictions) /
                            (static_cast<double>(hi - lo) / kClockHz);
    sweep.push_back({size, mid_rate});
    if (mid_rate > 1.0) {
      small_bytes = size;
      break;
    }
    medium_bytes = size;
  }
  std::printf("\nCC memory sweep (steady-state paging threshold):\n");
  std::printf("%10s %18s\n", "CC bytes", "mid-run evict/sec");
  for (const SweepPoint& p : sweep) {
    std::printf("%10u %18.1f\n", p.bytes, p.mid_rate);
  }
  if (small_bytes == 0 && !sweep.empty()) small_bytes = sweep.back().bytes;
  SC_CHECK_GT(small_bytes, 0u);

  struct MemPoint {
    const char* label;
    uint32_t bytes;
  };
  const MemPoint kMems[] = {
      {"small  (under steady state -> pages continuously)", small_bytes},
      {"medium (fits steady state; terminal blip)", medium_bytes},
      {"large  (fits everything)",
       static_cast<uint32_t>(total_bytes * 108 / 100) & ~3u},
  };

  for (const MemPoint& mem : kMems) {
    softcache::SoftCacheConfig config;
    config.style = softcache::Style::kArm;
    config.tcache_bytes = mem.bytes;
    config.channel.clock_hz = kClockHz;
    const bench::CachedRun run = bench::RunCachedWorkload(img, input, config);
    const double total_seconds = static_cast<double>(run.result.cycles) /
                                 static_cast<double>(kClockHz);
    // 20 equal time bins across the run (paging stretches a thrashing run's
    // simulated time, so bins adapt rather than truncate).
    constexpr int kBins = 20;
    const double bin_seconds = std::max(kBinSeconds, total_seconds / kBins);
    std::vector<int> counts(kBins, 0);
    const obs::Timeline& timeline = run.stats.eviction_timeline;
    if (!timeline.collapsed()) {
      for (const uint64_t cycle : timeline.samples()) {
        const int bin = static_cast<int>(static_cast<double>(cycle) /
                                         static_cast<double>(kClockHz) / bin_seconds);
        counts[static_cast<size_t>(std::min(bin, kBins - 1))]++;
      }
    } else {
      // A run with >64k evictions only has bin-resolution timestamps left;
      // attribute each timeline bin to the display bin holding its midpoint.
      const uint64_t bin_cycles =
          static_cast<uint64_t>(bin_seconds * static_cast<double>(kClockHz));
      for (int bin = 0; bin < kBins; ++bin) {
        const uint64_t lo = static_cast<uint64_t>(bin) * bin_cycles;
        const uint64_t hi = bin == kBins - 1 ? UINT64_MAX : lo + bin_cycles;
        counts[static_cast<size_t>(bin)] +=
            static_cast<int>(timeline.CountInRange(lo, hi));
      }
    }
    std::printf("\nCC memory = %u B  [%s]  run = %.1fs, %llu evictions total\n",
                mem.bytes, mem.label, total_seconds,
                static_cast<unsigned long long>(run.stats.evictions));
    std::printf("%8s %12s  %s\n", "t(s)", "evict/sec", "");
    for (int bin = 0; bin < kBins; ++bin) {
      const double rate =
          static_cast<double>(counts[static_cast<size_t>(bin)]) / bin_seconds;
      std::printf("%8.1f %12.1f  %s\n", (bin + 1) * bin_seconds, rate,
                  bench::Bar(rate, 800.0).c_str());
    }
  }

  std::printf(
      "\npaper: the smallest memory shows sustained paging across the whole\n"
      "run; the medium memory is quiet in steady state with a blip at the\n"
      "end when the terminal statistics routines load; the largest memory\n"
      "shows only the cold-start transient.\n");
  return 0;
}
