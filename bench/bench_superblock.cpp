// Superblock threaded-code engine vs the classic interpreter: host wall
// time to retire the same guest work, with bit-identical architectural
// results enforced on every row.
//
// Unlike the paper-figure benches (deterministic guest-cycle accounting,
// no wall clock), this bench is *about* host time: the threaded engine
// exists to kill per-instruction dispatch overhead, which only host wall
// time can see. Guest instruction and cycle counts still must not move —
// every engine row is SC_CHECKed bit-identical to the interpreter run
// (output bytes, exit code, instructions, cycles) before its time counts.
//
// Modes: native, softcache (64 KB tcache: the hot set stays resident) and
// softcache-thrash (2 KB tcache: the working set far exceeds it, so most
// host time goes to the miss path, whose tcache writes invalidate
// superblocks). Every row also records the threaded engine's superblock
// fills and invalidations, which are deterministic like the guest counts
// (zero under the interpreter).
//
// Flags:
//   --smoke       one workload, one rep (CI crash check)
//   --check       exit nonzero unless threaded beats interp on sha256
//                 and cjpeg (native guest-execution time) — CI perf smoke
//   --out=PATH    JSON output path (default BENCH_superblock.json)
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace sc;

namespace {

struct Row {
  std::string workload;
  std::string mode;    // "native" | "softcache" | "softcache-thrash"
  std::string engine;  // "interp" | "threaded"
  uint64_t wall_ns = 0;  // best-of-reps, Run() only
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t sb_fills = 0;
  uint64_t sb_invalidations = 0;
  double mips = 0.0;  // guest instructions / host microsecond
};

struct Timed {
  vm::RunResult result;
  std::string output;
  uint64_t wall_ns = 0;
  vm::SbStats sb;
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One native run; only Run() is inside the timer (image load, input setup
// and superblock translation warm-up all count — translation is part of the
// engine's cost, exactly like the paper's software cache counts its misses).
Timed RunNativeTimed(const image::Image& img, const std::vector<uint8_t>& input,
                     vm::Engine engine) {
  vm::Machine machine;
  machine.set_engine(engine);
  machine.LoadImage(img);
  machine.SetInput(input);
  Timed t;
  const uint64_t t0 = NowNs();
  t.result = machine.Run(16'000'000'000ull);
  t.wall_ns = NowNs() - t0;
  t.output = machine.OutputString();
  t.sb = machine.sb_stats();
  return t;
}

Timed RunSoftcacheTimed(const image::Image& img,
                        const std::vector<uint8_t>& input, vm::Engine engine,
                        uint32_t tcache_bytes) {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = tcache_bytes;
  softcache::SoftCacheSystem system(img, config);
  system.machine().set_engine(engine);
  system.SetInput(input);
  Timed t;
  const uint64_t t0 = NowNs();
  t.result = system.Run(16'000'000'000ull);
  t.wall_ns = NowNs() - t0;
  t.output = system.OutputString();
  t.sb = system.machine().sb_stats();
  return t;
}

Timed RunResidentTimed(const image::Image& img,
                       const std::vector<uint8_t>& input, vm::Engine engine) {
  return RunSoftcacheTimed(img, input, engine, 64 * 1024);
}

Timed RunThrashTimed(const image::Image& img,
                     const std::vector<uint8_t>& input, vm::Engine engine) {
  return RunSoftcacheTimed(img, input, engine, 2 * 1024);
}

void CheckIdentical(const Timed& interp, const Timed& threaded,
                    const std::string& what) {
  SC_CHECK(interp.result.reason == vm::StopReason::kHalted)
      << what << " interp: " << interp.result.fault_message;
  SC_CHECK(threaded.result.reason == vm::StopReason::kHalted)
      << what << " threaded: " << threaded.result.fault_message;
  SC_CHECK(interp.result.exit_code == threaded.result.exit_code) << what;
  SC_CHECK(interp.result.instructions == threaded.result.instructions)
      << what << ": instruction counts diverged";
  SC_CHECK(interp.result.cycles == threaded.result.cycles)
      << what << ": cycle counts diverged";
  SC_CHECK(interp.output == threaded.output)
      << what << ": output bytes diverged";
}

Row MakeRow(const std::string& workload, const char* mode, const char* engine,
            const Timed& best) {
  Row row;
  row.workload = workload;
  row.mode = mode;
  row.engine = engine;
  row.wall_ns = best.wall_ns;
  row.instructions = best.result.instructions;
  row.cycles = best.result.cycles;
  row.sb_fills = best.sb.fills;
  row.sb_invalidations = best.sb.invalidations;
  row.mips = best.wall_ns == 0
                 ? 0.0
                 : static_cast<double>(best.result.instructions) * 1000.0 /
                       static_cast<double>(best.wall_ns);
  return row;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  SC_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n  \"bench\": \"superblock\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"mode\": \"%s\", "
                 "\"engine\": \"%s\", \"wall_ns\": %llu, "
                 "\"instructions\": %llu, \"cycles\": %llu, "
                 "\"sb_fills\": %llu, \"sb_invalidations\": %llu, "
                 "\"mips\": %.2f}%s\n",
                 r.workload.c_str(), r.mode.c_str(), r.engine.c_str(),
                 static_cast<unsigned long long>(r.wall_ns),
                 static_cast<unsigned long long>(r.instructions),
                 static_cast<unsigned long long>(r.cycles),
                 static_cast<unsigned long long>(r.sb_fills),
                 static_cast<unsigned long long>(r.sb_invalidations), r.mips,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  std::string out_path = "BENCH_superblock.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  bench::PrintHeader(
      "Superblock threaded-code engine vs per-instruction interpreter",
      "host dispatch overhead; guest-visible results bit-identical");

  std::vector<std::string> names = {"adpcm_enc", "compress95", "gzip",
                                    "cjpeg",     "hextobdd",   "sha256"};
  if (smoke) names = {"sha256"};
  const int scale = smoke ? 2 : 4;
  const int reps = smoke ? 1 : 3;

  std::printf("%-10s %-16s %-8s %10s %10s %12s %8s %10s\n", "workload",
              "mode", "engine", "wall_ms", "speedup", "instrs", "mips",
              "sb_inval");
  bench::PrintRule();

  std::vector<Row> rows;
  double sha256_speedup = 0.0;
  double cjpeg_speedup = 0.0;
  for (const std::string& name : names) {
    const auto* spec = workloads::FindWorkload(name);
    SC_CHECK(spec != nullptr) << "unknown workload " << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, scale);

    const struct {
      const char* mode;
      Timed (*run)(const image::Image&, const std::vector<uint8_t>&,
                   vm::Engine);
    } modes[] = {{"native", RunNativeTimed},
                 {"softcache", RunResidentTimed},
                 {"softcache-thrash", RunThrashTimed}};

    for (const auto& m : modes) {
      Timed interp_best, threaded_best;
      for (int rep = 0; rep < reps; ++rep) {
        const Timed interp = m.run(img, input, vm::Engine::kInterp);
        const Timed threaded = m.run(img, input, vm::Engine::kThreaded);
        CheckIdentical(interp, threaded, name + "/" + m.mode);
        if (rep == 0 || interp.wall_ns < interp_best.wall_ns)
          interp_best = interp;
        if (rep == 0 || threaded.wall_ns < threaded_best.wall_ns)
          threaded_best = threaded;
      }
      const Row ri = MakeRow(name, m.mode, "interp", interp_best);
      const Row rt = MakeRow(name, m.mode, "threaded", threaded_best);
      rows.push_back(ri);
      rows.push_back(rt);
      const double speedup = rt.wall_ns == 0 ? 0.0
                                             : static_cast<double>(ri.wall_ns) /
                                                   static_cast<double>(rt.wall_ns);
      std::printf("%-10s %-16s %-8s %10.2f %10s %12llu %8.1f\n",
                  name.c_str(), m.mode, "interp",
                  static_cast<double>(ri.wall_ns) / 1e6, "",
                  static_cast<unsigned long long>(ri.instructions), ri.mips);
      std::printf("%-10s %-16s %-8s %10.2f %9.2fx %12llu %8.1f %10llu\n",
                  name.c_str(), m.mode, "threaded",
                  static_cast<double>(rt.wall_ns) / 1e6, speedup,
                  static_cast<unsigned long long>(rt.instructions), rt.mips,
                  static_cast<unsigned long long>(rt.sb_invalidations));
      if (std::strcmp(m.mode, "native") == 0) {
        if (name == "sha256") sha256_speedup = speedup;
        if (name == "cjpeg") cjpeg_speedup = speedup;
      }
    }
  }

  WriteJson(out_path, rows);
  std::printf("\nnative guest-execution speedup: sha256 %.2fx, cjpeg %.2fx\n",
              sha256_speedup, cjpeg_speedup);
  std::printf("wrote %s\n", out_path.c_str());

  if (check) {
    // CI perf smoke: the threaded engine must actually be faster where it
    // matters. Kept deliberately lenient (1.0x, not the 2x the full bench
    // demonstrates) so shared CI runners don't flake the gate.
    if (sha256_speedup <= 1.0 || (!smoke && cjpeg_speedup <= 1.0)) {
      std::fprintf(stderr,
                   "FAIL: threaded engine not faster than interpreter "
                   "(sha256 %.2fx, cjpeg %.2fx)\n",
                   sha256_speedup, cjpeg_speedup);
      return 1;
    }
    std::printf("check passed: threaded faster than interp\n");
  }
  return 0;
}
