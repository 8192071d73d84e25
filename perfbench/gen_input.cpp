// gen_input — writes a workload's seeded input to a file.
//
//   gen_input NAME SCALE SEED OUT
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads/workloads.h"

int main(int argc, char** argv) {
  if (argc != 5) {
    std::fprintf(stderr, "usage: gen_input NAME SCALE SEED OUT\n");
    return 2;
  }
  const std::string name = argv[1];
  if (sc::workloads::FindWorkload(name) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 2;
  }
  const int scale = std::atoi(argv[2]);
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  if (scale < 1) {
    std::fprintf(stderr, "scale must be >= 1\n");
    return 2;
  }
  const std::vector<uint8_t> input =
      sc::workloads::MakeInput(name, scale, seed);
  FILE* out = std::fopen(argv[4], "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", argv[4]);
    return 1;
  }
  const size_t written = std::fwrite(input.data(), 1, input.size(), out);
  const bool ok = written == input.size() && std::fclose(out) == 0;
  return ok ? 0 : 1;
}
