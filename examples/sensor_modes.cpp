// The paper's Figure 2 scenario: an embedded sensor whose firmware has
// several modes (initialization, calibration, daytime, nighttime) of which
// only one is active at a time. Local code memory is sized to hold roughly
// ONE mode; the software cache pages each mode in as the device transitions
// and then runs it with zero misses — the programmability-without-hardware
// story the paper opens with.
//
//   $ ./sensor_modes
#include <cstdio>
#include <string>

#include "minicc/compiler.h"
#include "softcache/system.h"
#include "util/stats.h"

using namespace sc;

namespace {

// Sensor firmware. Each mode has its own processing kernel; mode changes
// are driven by the input stream (one command byte per simulated period).
const char* kFirmware = R"(
int samples[256];
int history[64];
int calib_offset = 0;
int calib_gain = 256;

/* pseudo sensor: deterministic synthetic readings */
uint sensor_state = 12345;
int read_sensor() {
  sensor_state = sensor_state * 1103515245 + 12345;
  return (int)((sensor_state >> 16) & 1023);
}

/* ---- initialization mode ---- */
void mode_init() {
  int i;
  for (i = 0; i < 256; i++) samples[i] = 0;
  for (i = 0; i < 64; i++) history[i] = 0;
  calib_offset = 0;
  calib_gain = 256;
  print_str("[init] tables cleared\n");
}

/* ---- calibration mode: least-squares-ish fit of offset/gain ---- */
void mode_calibrate() {
  int sum = 0;
  int sumsq = 0;
  int i;
  for (i = 0; i < 200; i++) {
    int v = read_sensor();
    sum += v;
    sumsq += (v >> 4) * (v >> 4);
  }
  calib_offset = sum / 200;
  calib_gain = 200 + sumsq % 100;
  print_str("[calib] offset=");
  print_int(calib_offset);
  print_str(" gain=");
  print_int(calib_gain);
  print_nl();
}

/* ---- daytime mode: windowed average + peak detection ---- */
int day_peaks = 0;
void mode_daytime(int periods) {
  int p;
  for (p = 0; p < periods; p++) {
    int acc = 0;
    int peak = 0;
    int i;
    for (i = 0; i < 256; i++) {
      int v = (read_sensor() - calib_offset) * calib_gain / 256;
      samples[i] = v;
      acc += v;
      if (v > peak) peak = v;
    }
    history[p & 63] = acc / 256;
    if (peak > 900) day_peaks++;
  }
}

/* ---- nighttime mode: low-rate filtering + event counting ---- */
int night_events = 0;
void mode_nighttime(int periods) {
  int p;
  int level = 0;
  for (p = 0; p < periods; p++) {
    int i;
    for (i = 0; i < 64; i++) {
      int v = (read_sensor() - calib_offset) * calib_gain / 256;
      /* exponential smoothing in fixed point */
      level = (level * 7 + v) / 8;
      if (v > level * 2 && v > 300) night_events++;
    }
  }
}

int main() {
  int cmd;
  mode_init();
  mode_calibrate();
  while ((cmd = getchar()) != -1) {
    if (cmd == 'D') mode_daytime(40);
    else if (cmd == 'N') mode_nighttime(40);
    else if (cmd == 'C') mode_calibrate();
    else if (cmd == 'I') mode_init();
  }
  print_str("[done] peaks=");
  print_int(day_peaks);
  print_str(" events=");
  print_int(night_events);
  print_nl();
  return 0;
}
)";

}  // namespace

int main() {
  auto img = minicc::CompileMiniC(kFirmware, "sensor.mc");
  if (!img.ok()) {
    std::fprintf(stderr, "compile error: %s\n", img.error().ToString().c_str());
    return 1;
  }
  std::printf("firmware text: %s (all modes linked)\n",
              util::HumanBytes(img->text.size()).c_str());

  // A day in the life: day mode, night mode, recalibration, day again.
  const std::string schedule = "DDDDNNNNCDDDD";

  // Local memory sized well below the full firmware: one mode at a time.
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 1536;
  softcache::MultiClientSystem system(*img, {.base = config});
  system.SetInput(0, schedule);
  const vm::RunResult result = system.RunAll()[0];
  if (result.reason != vm::StopReason::kHalted) {
    std::fprintf(stderr, "fault: %s\n", result.fault_message.c_str());
    return 1;
  }
  std::printf("\n--- device console ---\n%s", system.OutputString(0).c_str());

  const auto& stats = system.cc(0).stats();
  std::printf("\n--- softcache behaviour ---\n");
  std::printf("schedule:            %s (one mode active per phase)\n",
              schedule.c_str());
  std::printf("local code memory:   %u B (firmware is %zu B)\n",
              config.tcache_bytes, img->text.size());
  std::printf("blocks translated:   %llu (mode transitions re-page code)\n",
              (unsigned long long)stats.blocks_translated);
  std::printf("evictions:           %llu\n", (unsigned long long)stats.evictions);
  std::printf("instructions:        %llu; miss traps: %llu (%.4f%%)\n",
              (unsigned long long)result.instructions,
              (unsigned long long)stats.tcmiss_traps,
              100.0 * (double)stats.tcmiss_traps / (double)result.instructions);
  std::printf(
      "\nThe device ran firmware %.1fx larger than its code memory; within a\n"
      "mode the loop runs at full speed with no cache checks (Figure 2's\n"
      "'minimum memory = one mode' claim).\n",
      (double)img->text.size() / config.tcache_bytes);
  return 0;
}
