// Quickstart: compile a MiniC program, run it natively, then run it under
// the software instruction cache and compare.
//
//   $ ./quickstart
//
// This is the smallest end-to-end tour of the public API:
//   minicc::CompileMiniC  -> image::Image
//   vm::Machine           -> direct execution (the "ideal" baseline)
//   softcache::MultiClientSystem -> client/server cached execution (one
//                                client here; the same system runs fleets)
#include <cstdio>

#include "minicc/compiler.h"
#include "softcache/system.h"
#include "vm/machine.h"

using namespace sc;

int main() {
  // A small program: repeated sieve of Eratosthenes (long enough that the
  // cache-fill startup cost is amortized, like the paper's Figure 5 input).
  const char* program = R"(
    char composite[30000];
    int sieve() {
      int count = 0;
      for (int i = 0; i < 30000; i++) composite[i] = 0;
      for (int i = 2; i < 30000; i++) {
        if (!composite[i]) {
          count++;
          for (int j = i + i; j < 30000; j += i) composite[j] = 1;
        }
      }
      return count;
    }
    int main() {
      int count = 0;
      for (int round = 0; round < 8; round++) count = sieve();
      print_str("primes below 30000: ");
      print_int(count);
      print_nl();
      return 0;
    }
  )";

  // 1. Compile.
  auto img = minicc::CompileMiniC(program, "sieve.mc");
  if (!img.ok()) {
    std::fprintf(stderr, "compile error: %s\n", img.error().ToString().c_str());
    return 1;
  }
  std::printf("compiled: %zu bytes of text, %zu bytes of data\n",
              img->text.size(), img->data.size());

  // 2. Run natively — the paper's "ideal" execution.
  vm::Machine machine;
  machine.LoadImage(*img);
  const vm::RunResult native = machine.Run();
  std::printf("\n[native]    %s", machine.OutputString().c_str());
  std::printf("[native]    %llu instructions, %llu cycles\n",
              (unsigned long long)native.instructions,
              (unsigned long long)native.cycles);

  // 3. Run under the software cache: an embedded client with 8 KB of local
  //    code memory, fetching chunks from the server over a 10 Mbps link.
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 8 * 1024;
  softcache::MultiClientSystem system(*img, {.base = config});
  const vm::RunResult cached = system.RunAll()[0];
  std::printf("\n[softcache] %s", system.OutputString(0).c_str());
  std::printf("[softcache] %llu instructions, %llu cycles (%.2fx ideal)\n",
              (unsigned long long)cached.instructions,
              (unsigned long long)cached.cycles,
              (double)cached.cycles / (double)native.cycles);
  const auto& stats = system.cc(0).stats();
  std::printf(
      "[softcache] %llu blocks translated, %llu evictions, %llu bytes over "
      "the wire\n",
      (unsigned long long)stats.blocks_translated,
      (unsigned long long)stats.evictions,
      (unsigned long long)system.channel(0).stats().total_bytes());
  std::printf(
      "[softcache] exit code matches native: %s\n",
      cached.exit_code == native.exit_code ? "yes" : "NO (bug!)");
  return cached.exit_code == native.exit_code ? 0 : 1;
}
