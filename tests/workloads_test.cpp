// Workload smoke tests: every benchmark compiles, runs natively to a clean
// exit, produces its stats block, and behaves identically under the
// software cache (the repo's central equivalence property on real code).
#include <gtest/gtest.h>

#include "softcache/system.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

struct NativeRun {
  vm::RunResult result;
  std::string output;
};

NativeRun RunWorkload(const workloads::WorkloadSpec& spec, int scale) {
  const image::Image img = workloads::CompileWorkload(spec);
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(workloads::MakeInput(spec.name, scale));
  NativeRun run;
  run.result = machine.Run(2'000'000'000);
  run.output = machine.OutputString();
  return run;
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, CompilesAndRuns) {
  const auto* spec = workloads::FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const NativeRun run = RunWorkload(*spec, 1);
  EXPECT_EQ(run.result.reason, vm::StopReason::kHalted)
      << run.result.fault_message;
  EXPECT_NE(run.output.find("stats =="), std::string::npos) << run.output;
  EXPECT_GT(run.result.instructions, 10'000u);
}

TEST_P(WorkloadTest, DeterministicAcrossRuns) {
  const auto* spec = workloads::FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const NativeRun a = RunWorkload(*spec, 1);
  const NativeRun b = RunWorkload(*spec, 1);
  EXPECT_EQ(a.result.exit_code, b.result.exit_code);
  EXPECT_EQ(a.output, b.output);
}

TEST_P(WorkloadTest, EquivalentUnderSoftCacheSparc) {
  const auto* spec = workloads::FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const NativeRun native = RunWorkload(*spec, 1);
  ASSERT_EQ(native.result.reason, vm::StopReason::kHalted);

  const image::Image img = workloads::CompileWorkload(*spec);
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 64 * 1024;
  softcache::MultiClientSystem system(img, {.base = config});
  system.SetInput(0, workloads::MakeInput(spec->name, 1));
  const vm::RunResult cached = system.RunAll(4'000'000'000ull)[0];
  ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
  EXPECT_EQ(cached.exit_code, native.result.exit_code);
  EXPECT_EQ(system.OutputString(0), native.output);
  system.cc(0).CheckInvariants();
}

TEST_P(WorkloadTest, EquivalentUnderTinySoftCache) {
  const auto* spec = workloads::FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  const NativeRun native = RunWorkload(*spec, 1);
  ASSERT_EQ(native.result.reason, vm::StopReason::kHalted);

  const image::Image img = workloads::CompileWorkload(*spec);
  // Prefetch batches lead with the demanded chunk, which under heavy
  // eviction is often a lone folded jump with no body words.
  for (const softcache::PrefetchPolicy policy :
       {softcache::PrefetchPolicy::kOff, softcache::PrefetchPolicy::kNextN,
        softcache::PrefetchPolicy::kTemperature}) {
    SCOPED_TRACE(static_cast<int>(policy));
    softcache::SoftCacheConfig config;
    config.tcache_bytes = 2048;  // heavy eviction
    config.prefetch.policy = policy;
    softcache::MultiClientSystem system(img, {.base = config});
    system.SetInput(0, workloads::MakeInput(spec->name, 1));
    const vm::RunResult cached = system.RunAll(8'000'000'000ull)[0];
    ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
    EXPECT_EQ(cached.exit_code, native.result.exit_code);
    EXPECT_EQ(system.OutputString(0), native.output);
    EXPECT_GT(system.cc(0).stats().evictions, 0u);
    system.cc(0).CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("compress95", "adpcm_enc", "adpcm_dec",
                                           "gzip", "cjpeg", "mpeg2enc",
                                           "hextobdd", "sha256", "dijkstra"),
                         [](const auto& param_info) { return param_info.param; });

class ArmWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ArmWorkloadTest, EquivalentUnderArmStyle) {
  const auto* spec = workloads::FindWorkload(GetParam());
  ASSERT_NE(spec, nullptr);
  ASSERT_TRUE(spec->arm_safe);
  const NativeRun native = RunWorkload(*spec, 1);
  ASSERT_EQ(native.result.reason, vm::StopReason::kHalted);

  const image::Image img = workloads::CompileWorkload(*spec);
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kArm;
  config.tcache_bytes = 32 * 1024;
  softcache::MultiClientSystem system(img, {.base = config});
  system.SetInput(0, workloads::MakeInput(spec->name, 1));
  const vm::RunResult cached = system.RunAll(8'000'000'000ull)[0];
  ASSERT_EQ(cached.reason, vm::StopReason::kHalted) << cached.fault_message;
  EXPECT_EQ(cached.exit_code, native.result.exit_code);
  EXPECT_EQ(system.OutputString(0), native.output);
  system.cc(0).CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(ArmSafe, ArmWorkloadTest,
                         ::testing::Values("adpcm_enc", "adpcm_dec", "gzip",
                                           "cjpeg", "mpeg2enc", "sha256",
                                           "dijkstra"),
                         [](const auto& param_info) { return param_info.param; });

TEST(WorkloadInputs, GeneratorsAreDeterministic) {
  EXPECT_EQ(workloads::MakeInput("compress95", 1, 7),
            workloads::MakeInput("compress95", 1, 7));
  EXPECT_NE(workloads::MakeInput("compress95", 1, 7),
            workloads::MakeInput("compress95", 1, 8));
}

TEST(WorkloadInputs, TextCorpusIsCompressible) {
  const auto text = workloads::MakeTextCorpus(10'000, 3);
  // Rough entropy check: the corpus uses a small alphabet.
  int distinct[256] = {};
  for (uint8_t b : text) distinct[b] = 1;
  int count = 0;
  for (int present : distinct) count += present;
  EXPECT_LT(count, 64);
}

TEST(WorkloadSelfTests, Sha256KnownAnswer) {
  // SHA-256("abc") =
  // ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad
  const auto* spec = workloads::FindWorkload("sha256");
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.LoadImage(img);
  std::vector<uint8_t> input = {3, 0, 0, 0, 'a', 'b', 'c'};
  machine.SetInput(std::move(input));
  const vm::RunResult run = machine.Run(50'000'000);
  ASSERT_EQ(run.reason, vm::StopReason::kHalted) << run.fault_message;
  EXPECT_NE(machine.OutputString().find(
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            std::string::npos)
      << machine.OutputString();
}

TEST(WorkloadSelfTests, Sha256EmptyMessage) {
  // SHA-256("") =
  // e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
  const auto* spec = workloads::FindWorkload("sha256");
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(std::vector<uint8_t>{0, 0, 0, 0});
  const vm::RunResult run = machine.Run(10'000'000);
  ASSERT_EQ(run.reason, vm::StopReason::kHalted) << run.fault_message;
  EXPECT_NE(machine.OutputString().find(
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            std::string::npos)
      << machine.OutputString();
}

TEST(WorkloadSelfTests, CompressRoundTrip) {
  const auto* spec = workloads::FindWorkload("compress95");
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(workloads::MakeCompressInput(1, 30'000, 11));  // mode 1
  const vm::RunResult run = machine.Run(2'000'000'000);
  ASSERT_EQ(run.reason, vm::StopReason::kHalted) << run.fault_message;
  EXPECT_EQ(run.exit_code, 0) << machine.OutputString();
  EXPECT_NE(machine.OutputString().find("selftest: 0"), std::string::npos);
}

TEST(WorkloadSelfTests, GzipRoundTrip) {
  const auto* spec = workloads::FindWorkload("gzip");
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(workloads::MakeGzipInput(1, 20'000, 13));  // self-test mode
  const vm::RunResult run = machine.Run(2'000'000'000);
  ASSERT_EQ(run.reason, vm::StopReason::kHalted) << run.fault_message;
  EXPECT_NE(machine.OutputString().find("selftest: ok"), std::string::npos)
      << machine.OutputString();
}

TEST(WorkloadSelfTests, CompressActuallyCompresses) {
  const auto* spec = workloads::FindWorkload("compress95");
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(workloads::MakeCompressInput(0, 40'000, 17));
  const vm::RunResult run = machine.Run(2'000'000'000);
  ASSERT_EQ(run.reason, vm::StopReason::kHalted);
  const std::string out = machine.OutputString();
  // "ratio x100:  NN" < 100 means real compression happened.
  const auto pos = out.find("ratio x100:");
  ASSERT_NE(pos, std::string::npos) << out;
  const int ratio = std::atoi(out.c_str() + pos + 12);
  EXPECT_GT(ratio, 0);
  EXPECT_LT(ratio, 80);
}

}  // namespace
}  // namespace sc
