// speed_probe — how fast this CPU runs interpreter-like code right now.
//
//   speed_probe [STEPS]
//
// Runs STEPS (default 2,000,000) steps of a small threaded-code
// interpreter: a fixed pseudo-random program of 16 kinds of operation,
// dispatched by computed goto, with data-dependent branches and loads and
// stores over 16 MiB. Like `srun`'s engine, it leans on the branch
// predictor, the front end and the caches, so a lower clock, a busy
// hyperthread sibling or a neighbour filling the shared cache slows it
// about as much as they slow `srun`. Prints the thread CPU time per
// step in nanoseconds: CPU time leaves out steal and preemption, which
// the benchmark takes out of its own timings separately.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <vector>

namespace {

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e9 + double(ts.tv_nsec);
}

}  // namespace

int main(int argc, char** argv) {
  const long steps = argc > 1 ? std::atol(argv[1]) : 2000000;
  if (steps <= 0) {
    std::fprintf(stderr, "usage: speed_probe [STEPS]\n");
    return 2;
  }
  constexpr unsigned kOps = 8192;        // program length, a power of two
  constexpr unsigned kWords = 1u << 22;  // 16 MiB of data
  std::uint64_t seed = 0x243f6a8885a308d3ull;
  auto next = [&seed] {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  std::vector<std::uint8_t> op(kOps);
  std::vector<std::uint32_t> arg(kOps);
  std::vector<std::uint32_t> mem(kWords);
  for (unsigned i = 0; i < kOps; ++i) {
    op[i] = static_cast<std::uint8_t>(next() % 16);
    arg[i] = static_cast<std::uint32_t>(next());
  }
  for (auto& word : mem) word = static_cast<std::uint32_t>(next());

  static void* const kDispatch[16] = {
      &&op0, &&op1, &&op2,  &&op3,  &&op4,  &&op5,  &&op6,  &&op7,
      &&op8, &&op9, &&op10, &&op11, &&op12, &&op13, &&op14, &&op15};
  std::uint64_t a = 1, b = 2;
  unsigned pc = 0;
  long left = steps;
  const double start = ThreadCpuNs();
#define NEXT()                       \
  do {                               \
    if (--left == 0) goto done;      \
    pc = (pc + 1) & (kOps - 1);      \
    goto* kDispatch[op[pc]];         \
  } while (0)
  goto* kDispatch[op[pc]];
op0: a += arg[pc]; NEXT();
op1: b ^= a >> 3; NEXT();
op2: a = mem[(a + arg[pc]) & (kWords - 1)]; NEXT();
op3: mem[(b ^ arg[pc]) & (kWords - 1)] = static_cast<std::uint32_t>(a); NEXT();
op4: if (a & 1) pc = (pc + arg[pc]) & (kOps - 1); NEXT();
op5: a *= 0x9e3779b1u; NEXT();
op6: b += a; NEXT();
op7: if ((a ^ b) & 2) b = ~b; NEXT();
op8: a = (a << 5) | (a >> 59); NEXT();
op9: b = mem[(b + pc) & (kWords - 1)]; NEXT();
op10: a -= b; NEXT();
op11: if (b & 4) pc = (pc + (a & 63)) & (kOps - 1); NEXT();
op12: a ^= arg[pc]; NEXT();
op13: b = (b >> 1) + arg[pc]; NEXT();
op14: mem[(a >> 3) & (kWords - 1)] += static_cast<std::uint32_t>(b); NEXT();
op15: a += b * 3; NEXT();
#undef NEXT
done:
  const double ns = ThreadCpuNs() - start;
  // The result is printed so that no step can be left out.
  std::printf("%.6f %llu\n", ns / double(steps),
              static_cast<unsigned long long>(a ^ b));
  return 0;
}
