// Differential tests for the superblock threaded-code engine: the threaded
// engine must be *bit-identical* to the interpreter — output bytes, exit
// code, instruction count, cycle count, fault messages — on every workload,
// on random programs, under the softcache, under eviction churn, under
// instruction-budget slicing, and in the presence of self-modifying code.
// This file is the permanent form of the engine's correctness proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <cstring>

#include "dcache/dcache.h"
#include "isa/isa.h"
#include "minicc/compiler.h"
#include "net/channel.h"
#include "sasm/assembler.h"
#include "softcache/mc.h"
#include "softcache/system.h"
#include "tests/program_gen.h"
#include "util/rng.h"
#include "vm/machine.h"
#include "vm/superblock.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using vm::Engine;

struct EngineRun {
  vm::RunResult result;
  std::string output;
};

void ExpectBitIdentical(const EngineRun& interp, const EngineRun& threaded,
                        const std::string& what) {
  EXPECT_EQ(static_cast<int>(interp.result.reason),
            static_cast<int>(threaded.result.reason))
      << what;
  EXPECT_EQ(interp.result.exit_code, threaded.result.exit_code) << what;
  EXPECT_EQ(interp.result.instructions, threaded.result.instructions) << what;
  EXPECT_EQ(interp.result.cycles, threaded.result.cycles) << what;
  EXPECT_EQ(interp.result.fault_message, threaded.result.fault_message)
      << what;
  EXPECT_EQ(interp.output, threaded.output) << what;
}

EngineRun RunNative(const image::Image& img, const std::vector<uint8_t>& input,
                    Engine engine, uint64_t max_instructions = UINT64_MAX) {
  vm::Machine machine;
  machine.set_engine(engine);
  machine.LoadImage(img);
  machine.SetInput(input);
  EngineRun run;
  run.result = machine.Run(max_instructions);
  run.output = machine.OutputString();
  return run;
}

EngineRun RunSoftcache(const image::Image& img,
                       const std::vector<uint8_t>& input, Engine engine,
                       const softcache::SoftCacheConfig& config) {
  softcache::MultiClientSystem system(img, {.base = config});
  system.machine(0).set_engine(engine);
  system.SetInput(0, input);
  EngineRun run;
  run.result = system.RunAll(16'000'000'000ull)[0];
  run.output = system.OutputString(0);
  if (run.result.reason == vm::StopReason::kHalted) {
    system.cc(0).CheckInvariants();
  }
  return run;
}

// ---------------------------------------------------------------------------
// Workloads, native and under the softcache
// ---------------------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "adpcm_enc", "compress95", "gzip", "cjpeg", "hextobdd", "sha256"};
  return kNames;
}

TEST(EngineDifferential, WorkloadsNative) {
  for (const std::string& name : WorkloadNames()) {
    const auto* spec = workloads::FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const EngineRun interp = RunNative(img, input, Engine::kInterp);
    const EngineRun threaded = RunNative(img, input, Engine::kThreaded);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << name << ": " << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, name);
  }
}

TEST(EngineDifferential, WorkloadsSoftcacheSparc) {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 16 * 1024;
  for (const std::string& name : WorkloadNames()) {
    const auto* spec = workloads::FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(img, input, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << name << ": " << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, name);
  }
}

TEST(EngineDifferential, WorkloadsSoftcacheArm) {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kArm;
  config.tcache_bytes = 32 * 1024;
  for (const std::string& name : {std::string("sha256"), std::string("gzip")}) {
    const auto* spec = workloads::FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(img, input, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << name << ": " << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, name);
  }
}

// Eviction churn: a tiny tcache forces constant install/patch/evict traffic,
// i.e. constant WriteWord/WriteBlock invalidation of live superblocks.
TEST(EngineDifferential, EvictionChurnTinyTcache) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);
  for (const uint32_t tcache : {1024u, 2048u}) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = tcache;
    const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(img, input, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, "tcache=" + std::to_string(tcache));
  }
}

// Recovery: a crash-prone MC restarts mid-run and the CC replays its journal.
// The threaded engine must ride through identically (crash points are cycle-
// and request-count-driven, both of which it reproduces exactly).
TEST(EngineDifferential, RecoveryCrashSchedule) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);
  softcache::SoftCacheConfig config;
  config.tcache_bytes = 4096;
  config.fault.seed = 7;
  config.fault.crash_period = 5;
  const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
  const EngineRun threaded = RunSoftcache(img, input, Engine::kThreaded, config);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  ExpectBitIdentical(interp, threaded, "crash_period=5");
}

// Multi-client: every client VM on the threaded engine, sharing one MC.
// Each client must be bit-identical to a solo interpreter run under the same
// softcache configuration (the fleet guarantee, now engine-independent).
TEST(EngineDifferential, MultiClientThreaded) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);

  softcache::MultiClientConfig mcfg;
  mcfg.clients = 4;
  mcfg.base.tcache_bytes = 8 * 1024;
  const EngineRun solo = RunSoftcache(img, input, Engine::kInterp, mcfg.base);
  softcache::MultiClientSystem fleet(img, mcfg);
  for (uint32_t i = 0; i < mcfg.clients; ++i) {
    fleet.machine(i).set_engine(Engine::kThreaded);
    fleet.SetInput(i, input);
  }
  const std::vector<vm::RunResult> results = fleet.RunAll();
  for (uint32_t i = 0; i < mcfg.clients; ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
        << "client " << i << ": " << results[i].fault_message;
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions) << i;
    EXPECT_EQ(fleet.OutputString(i), solo.output) << i;
  }
}

// ---------------------------------------------------------------------------
// Random programs (property_test-style)
// ---------------------------------------------------------------------------

class EngineRandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomProgramTest, NativeAndSoftcacheBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0xe7617e);
  const std::string source = gen.Generate(/*arm_safe=*/false);
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString() << "\n" << source;
  const std::vector<uint8_t> no_input;

  const EngineRun interp = RunNative(*img, no_input, Engine::kInterp);
  const EngineRun threaded = RunNative(*img, no_input, Engine::kThreaded);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message << " seed=" << seed;
  ExpectBitIdentical(interp, threaded, "native seed=" + std::to_string(seed));

  softcache::SoftCacheConfig config;
  config.tcache_bytes = 2048;
  const EngineRun sc_interp =
      RunSoftcache(*img, no_input, Engine::kInterp, config);
  const EngineRun sc_threaded =
      RunSoftcache(*img, no_input, Engine::kThreaded, config);
  ExpectBitIdentical(sc_interp, sc_threaded,
                     "softcache seed=" + std::to_string(seed));
}

// The instruction budget must bite at exactly the same instruction, even
// mid-superblock: run the threaded engine in odd-sized slices and require
// the same final state as the interpreter's one-shot run.
TEST_P(EngineRandomProgramTest, SlicedBudgetMatchesOneShot) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0x51ce);
  const std::string source = gen.Generate();
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const std::vector<uint8_t> no_input;
  const EngineRun interp = RunNative(*img, no_input, Engine::kInterp);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted);

  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(*img);
  vm::RunResult result;
  uint64_t slices = 0;
  for (;;) {
    result = machine.Run(777);
    ++slices;
    if (result.reason != vm::StopReason::kInstrLimit) break;
    ASSERT_LT(machine.instructions(), 400'000'000u) << "seed=" << seed;
  }
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(slices, 1u);
  EXPECT_EQ(result.exit_code, interp.result.exit_code);
  EXPECT_EQ(result.instructions, interp.result.instructions);
  EXPECT_EQ(result.cycles, interp.result.cycles);
  EXPECT_EQ(machine.OutputString(), interp.output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomProgramTest,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Engine mechanics: formation, chaining, switching
// ---------------------------------------------------------------------------

TEST(EngineMechanics, FillsAndChainsAreCounted) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(img);
  machine.SetInput(workloads::MakeInput("sha256", 1));
  const vm::RunResult result = machine.Run();
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  const vm::SbStats& sb = machine.sb_stats();
  EXPECT_GT(sb.fills, 0u);
  EXPECT_GT(sb.fill_ops, sb.fills);  // blocks average > 1 op
  EXPECT_GT(sb.chains, 0u);          // hot blocks got linked
  // Chaining means dispatch-loop entries are far rarer than retired blocks:
  // the whole point of the engine. Fills bound the number of distinct
  // blocks; the workload retires millions of instructions.
  EXPECT_LT(sb.fills, result.instructions / 100);
}

TEST(EngineMechanics, SwitchingEnginesMidRunIsSeamless) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);
  const EngineRun interp = RunNative(img, input, Engine::kInterp);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted);

  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(input);
  Engine engine = Engine::kThreaded;
  vm::RunResult result;
  for (;;) {
    machine.set_engine(engine);
    engine = engine == Engine::kThreaded ? Engine::kInterp : Engine::kThreaded;
    result = machine.Run(10'000);
    if (result.reason != vm::StopReason::kInstrLimit) break;
    ASSERT_LT(machine.instructions(), 400'000'000u);
  }
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_EQ(result.exit_code, interp.result.exit_code);
  EXPECT_EQ(result.instructions, interp.result.instructions);
  EXPECT_EQ(result.cycles, interp.result.cycles);
  EXPECT_EQ(machine.OutputString(), interp.output);
}

TEST(EngineMechanics, FaultMessagesIdentical) {
  // A program that runs off the end of its text into unmapped space, one
  // that divides by zero and one that reaches a TCJALR with no trap handler
  // (both fault before their op's cycle charge): the threaded engine must
  // produce the interpreter's exact fault strings (pc included) and
  // counters.
  const uint32_t tcjalr =
      isa::Encode(isa::Instr{.op = isa::Opcode::kTcJalr, .rd = 1, .rs1 = 5});
  const std::string kFaults[] = {
      "_start:\n  li t0, 1\n  li t1, 0\n  div t2, t0, t1\n  sys 0\n",
      "_start:\n  li t0, 0x7f000000\n  jalr zero, t0, 0\n",
      "_start:\n  li t0, 6\n  jalr zero, t0, 2\n",
      "_start:\n  li t0, 6\n  mul t1, t0, t0\n  .word " +
          std::to_string(tcjalr) + "\n",
  };
  for (const std::string& src : kFaults) {
    auto img = sasm::Assemble(src);
    ASSERT_TRUE(img.ok()) << img.error().ToString();
    const EngineRun interp = RunNative(*img, {}, Engine::kInterp, 1'000'000);
    const EngineRun threaded =
        RunNative(*img, {}, Engine::kThreaded, 1'000'000);
    EXPECT_EQ(interp.result.reason, vm::StopReason::kFault);
    ExpectBitIdentical(interp, threaded, src);
  }
}

// A loop over superblocks of every length from 1 to kSbMaxOps (each ended by
// a branch), plus a straight run long enough to be cut at kSbMaxOps twice
// (synthetic fallthrough terminators). Blocks are stored exact-size, so any
// read past a block's last op shows up under ASan.
std::string EveryBlockLengthProgram() {
  static const char* const kBody[] = {
      "addi t0, t0, 3", "xor t1, t1, t0", "mul t2, t1, t0", "sw t2, 0(sp)",
      "lw t3, 0(sp)",   "add t4, t4, t3", "slli t5, t4, 1", "sub t4, t4, t5",
  };
  std::string src = "_start:\n  li s0, 3\n  addi sp, sp, -16\n";
  for (uint32_t len = 1; len <= vm::kSbMaxOps; ++len) {
    src += "b" + std::to_string(len) + ":\n";
    for (uint32_t k = 0; k + 1 < len; ++k) {
      src += std::string("  ") + kBody[(len + k) % 8] + "\n";
    }
    src += "  beq zero, zero, b" + std::to_string(len + 1) + "\n";
  }
  src += "b" + std::to_string(vm::kSbMaxOps + 1) + ":\n";
  for (uint32_t k = 0; k < 2 * vm::kSbMaxOps + 5; ++k) {
    src += std::string("  ") + kBody[k % 8] + "\n";
  }
  src += "  addi s0, s0, -1\n  bne s0, zero, b1\n  mv a0, t4\n  sys 0\n";
  return src;
}

TEST(EngineMechanics, EveryBlockLengthMatchesInterpreter) {
  auto img = sasm::Assemble(EveryBlockLengthProgram());
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun interp = RunNative(*img, {}, Engine::kInterp);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;

  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(*img);
  EngineRun threaded;
  threaded.result = machine.Run();
  threaded.output = machine.OutputString();
  ExpectBitIdentical(interp, threaded, "every block length");

  // Every length formed: 1..kSbMaxOps real ops ending in a branch, and a
  // kSbMaxOps cut carrying the synthetic terminator as op kSbMaxOps + 1.
  std::vector<bool> seen(vm::kSbMaxOps + 2, false);
  bool cut_seen = false;
  ASSERT_NE(machine.sb_cache(), nullptr);
  machine.sb_cache()->ForEachLive(
      [&](const vm::Superblock& sb, const vm::Superblock*,
          const vm::Superblock*) {
        ASSERT_LE(sb.n_ops, vm::kSbMaxOps + 1);
        seen[sb.n_ops] = true;
        if (sb.ops()[sb.n_ops - 1].kind == vm::kSbFallthrough) {
          cut_seen = true;
        }
      });
  for (uint32_t len = 1; len <= vm::kSbMaxOps + 1; ++len) {
    EXPECT_TRUE(seen[len]) << "no live block of " << len << " ops";
  }
  EXPECT_TRUE(cut_seen);
}

// Superblocks bake suffix sums of the cost model in at translation time:
// uneven costs, and the largest a model may carry, must total exactly what
// the interpreter charges op by op. A larger cost could overflow a block's
// 32-bit sum and is refused.
TEST(EngineMechanics, CustomCostModelsMatchInterpreter) {
  const image::Image img =
      workloads::CompileWorkload(*workloads::FindWorkload("sha256"));
  const auto input = workloads::MakeInput("sha256", 1);
  vm::CostModel uneven{.alu = 2, .mul = 7, .div = 13, .load = 3,
                       .store = 5, .branch = 11, .jump = 17, .syscall = 19};
  const uint32_t m = vm::kSbMaxOpCost;
  const vm::CostModel largest{m, m, m, m, m, m, m, m};
  for (const vm::CostModel& cost : {uneven, largest}) {
    EngineRun runs[2];
    for (const Engine engine : {Engine::kInterp, Engine::kThreaded}) {
      vm::Machine machine;
      machine.set_engine(engine);
      machine.set_cost_model(cost);
      machine.LoadImage(img);
      machine.SetInput(input);
      EngineRun& run = runs[engine == Engine::kThreaded];
      run.result = machine.Run(300'000);
      run.output = machine.OutputString();
    }
    EXPECT_EQ(runs[0].result.reason, vm::StopReason::kInstrLimit);
    ExpectBitIdentical(runs[0], runs[1], "alu cost " + std::to_string(cost.alu));
  }
  uneven.div = m + 1;
  vm::Machine machine;
  EXPECT_DEATH(machine.set_cost_model(uneven), "instruction cost too large");
}

// ---------------------------------------------------------------------------
// Budget stops and call-outs: the threaded engine charges a block's
// instructions and cycles on entry, so every point that can observe the
// counters inside a block must take back exactly the part not yet done.
// ---------------------------------------------------------------------------

// What a budget stop, a hook call-out or a fetch can see of a machine.
struct Seen {
  vm::StopReason reason = vm::StopReason::kRunning;
  uint32_t pc = 0;
  uint64_t instret = 0;
  uint64_t cycles = 0;
  uint64_t reg_hash = 0;
  bool operator==(const Seen&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Seen& s) {
  return os << "{reason=" << static_cast<int>(s.reason) << " pc=0x" << std::hex
            << s.pc << std::dec << " instret=" << s.instret
            << " cycles=" << s.cycles << " regs=" << s.reg_hash << "}";
}

Seen SeenBy(const vm::Machine& m, vm::StopReason reason, uint32_t pc) {
  Seen s{reason, pc, m.instructions(), m.cycles(), 14695981039346656037ull};
  for (uint8_t r = 0; r < isa::kNumRegs; ++r) {
    s.reg_hash = (s.reg_hash ^ m.reg(r)) * 1099511628211ull;
  }
  return s;
}

// A running digest of everything the hook call-outs saw, in order.
struct CallOutLog {
  uint64_t count = 0;
  uint64_t hash = 14695981039346656037ull;
  void Add(const Seen& s) {
    ++count;
    for (const uint64_t v : {uint64_t{s.pc}, s.instret, s.cycles, s.reg_hash}) {
      hash = (hash ^ v) * 1099511628211ull;
    }
  }
  bool operator==(const CallOutLog&) const = default;
};

// Forwards TCMISS/TCJALR/ICACHE_INVAL traps, logging what each one sees.
class LoggingTrapHandler : public vm::TrapHandler {
 public:
  LoggingTrapHandler(vm::TrapHandler* inner, CallOutLog* log)
      : inner_(inner), log_(log) {}
  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub_index) override {
    log_->Add(SeenBy(m, vm::StopReason::kRunning, m.pc()));
    return inner_->OnTcMiss(m, stub_index);
  }
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr,
                    uint32_t pc) override {
    log_->Add(SeenBy(m, vm::StopReason::kRunning, pc));
    return inner_->OnTcJalr(m, instr, pc);
  }
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override {
    log_->Add(SeenBy(m, vm::StopReason::kRunning, pc));
    return inner_->OnIcacheInvalidate(m, addr, len, pc);
  }

 private:
  vm::TrapHandler* inner_;
  CallOutLog* log_;
};

// Forwards data-hook translations, logging what each one sees.
class LoggingDataHook : public vm::DataHook {
 public:
  LoggingDataHook(vm::DataHook* inner, CallOutLog* log)
      : inner_(inner), log_(log) {}
  uint32_t Translate(vm::Machine& m, uint32_t vaddr, uint32_t size,
                     bool is_store) override {
    log_->Add(SeenBy(m, vm::StopReason::kRunning, m.pc()));
    return inner_->Translate(m, vaddr, size, is_store);
  }

 private:
  vm::DataHook* inner_;
  CallOutLog* log_;
};

// Logs the pc stream with the counters at each fetch.
class LoggingObserver : public vm::FetchObserver {
 public:
  LoggingObserver(const vm::Machine* m, CallOutLog* log) : m_(m), log_(log) {}
  void OnFetch(uint32_t pc) override {
    log_->Add({vm::StopReason::kRunning, pc, m_->instructions(), m_->cycles(),
               0});
  }

 private:
  const vm::Machine* m_;
  CallOutLog* log_;
};

// A loop whose stores patch an op later in its own block (the block is
// left through sb_interrupt_ on every pass) and a word of text past the
// code, which kills nothing but still takes the store's slow path.
constexpr char kSmcLoopSource[] = R"(
  _start:
    li s0, 300
    li s1, 0
    la t0, target
    la t1, alt
  loop:
    lw t2, 0(t1)
    lw t3, 0(t0)
    sw t2, 0(t1)
    sw t3, 0(t0)
    mul t4, s0, s0
  target:
    addi s1, s1, 3
    add s1, s1, t4
    addi s0, s0, -1
    bne s0, zero, loop
    mv a0, s1
    sys 0
  alt:
    addi s1, s1, 5
)";

struct BudgetScenario {
  const char* name;
  const char* workload;  // a bundled workload, or "smc_loop"
  bool softcache;  // SPARC-style client on a 2 KB tcache
  bool observer;
  bool dcache;
  // Every budget in [1, dense] gets a fresh machine; a softcache rig pays
  // its server round trips again each time, hence the smaller ranges.
  uint64_t dense;
};

// gtest prints a parameter in test listings; the name keeps them stable.
void PrintTo(const BudgetScenario& scn, std::ostream* os) { *os << scn.name; }

const image::Image& CompiledWorkload(const std::string& name) {
  static std::map<std::string, image::Image> images;
  auto it = images.find(name);
  if (it == images.end()) {
    image::Image img;
    if (name == "smc_loop") {
      auto assembled = sasm::Assemble(kSmcLoopSource);
      SC_CHECK(assembled.ok()) << assembled.error().ToString();
      img = std::move(*assembled);
    } else {
      img = workloads::CompileWorkload(*workloads::FindWorkload(name));
    }
    it = images.emplace(name, std::move(img)).first;
  }
  return it->second;
}

// One machine set up for a scenario on one engine, run to absolute
// instruction budgets. Every trap, data-hook and fetch call-out is logged.
class BudgetRig {
 public:
  BudgetRig(const BudgetScenario& scn, Engine engine)
      : img_(CompiledWorkload(scn.workload)) {
    const std::string workload = scn.workload;
    const auto input = workload == "smc_loop"
                           ? std::vector<uint8_t>()
                           : workloads::MakeInput(workload, 1);
    vm::Machine* m = nullptr;
    if (scn.softcache) {
      softcache::SoftCacheConfig config;
      config.style = softcache::Style::kSparc;
      config.tcache_bytes = 2048;
      system_ = std::make_unique<softcache::MultiClientSystem>(
          img_, softcache::MultiClientConfig{.base = config});
      m = &system_->machine(0);
      m->set_engine(engine);
      system_->SetInput(0, input);
      system_->RunAll(0);  // attaches the cache controller, runs nothing
      trap_ = std::make_unique<LoggingTrapHandler>(&system_->cc(0), &log_);
      m->set_trap_handler(trap_.get());
    } else {
      machine_ = std::make_unique<vm::Machine>();
      m = machine_.get();
      m->set_engine(engine);
      m->LoadImage(img_);
      m->SetInput(input);
    }
    if (scn.dcache) {
      softcache::MemoryController* mc = nullptr;
      net::Channel* channel = nullptr;
      dcache::DCacheConfig dconfig;
      if (system_ != nullptr) {
        mc = &system_->mc();
        channel = &system_->channel(0);
        dconfig.local_base = system_->cc(0).local_limit();
      } else {
        own_mc_ = std::make_unique<softcache::MemoryController>(
            img_, softcache::Style::kSparc, 64);
        own_channel_ = std::make_unique<net::Channel>();
        mc = own_mc_.get();
        channel = own_channel_.get();
      }
      dcache_ = std::make_unique<dcache::DataCache>(*m, *mc, *channel, dconfig);
      data_hook_ = std::make_unique<LoggingDataHook>(dcache_.get(), &log_);
      m->SetDataHook(data_hook_.get(), mc->server().DataBase(),
                     image::kStackTop + 16);
    }
    if (scn.observer) {
      observer_ = std::make_unique<LoggingObserver>(m, &log_);
      m->set_fetch_observer(observer_.get());
    }
    machine_view_ = m;
  }

  Seen RunTo(uint64_t budget) {
    vm::Machine& m = *machine_view_;
    const vm::RunResult r =
        system_ != nullptr ? system_->RunAll(budget)[0]
                           : m.Run(budget - m.instructions());
    EXPECT_EQ(r.instructions, m.instructions());
    EXPECT_EQ(r.cycles, m.cycles());
    return SeenBy(m, r.reason, m.pc());
  }
  const CallOutLog& log() const { return log_; }

 private:
  const image::Image& img_;
  CallOutLog log_;
  std::unique_ptr<vm::Machine> machine_;
  std::unique_ptr<softcache::MultiClientSystem> system_;
  std::unique_ptr<softcache::MemoryController> own_mc_;
  std::unique_ptr<net::Channel> own_channel_;
  std::unique_ptr<dcache::DataCache> dcache_;
  std::unique_ptr<LoggingTrapHandler> trap_;
  std::unique_ptr<LoggingDataHook> data_hook_;
  std::unique_ptr<LoggingObserver> observer_;
  vm::Machine* machine_view_ = nullptr;
};

class EngineBudgetTest : public ::testing::TestWithParam<BudgetScenario> {};

// Stops the threaded engine at every budget from 1 to scn.dense (or to the
// end of a shorter run), each from a fresh machine: everything before the
// last block runs on the fast handlers, the last one stops inside on the
// checked ones. Then stops it at seeded random larger budgets in one
// resumed run. Every stop must match the
// interpreter's pc, counters and registers at the same budget, and every
// call-out up to it must have seen the interpreter's counters.
TEST_P(EngineBudgetTest, EveryBudgetStopMatchesInterpreter) {
  const BudgetScenario& scn = GetParam();
  constexpr uint64_t kMaxBudget = 2'000'000;

  BudgetRig interp(scn, Engine::kInterp);
  std::vector<Seen> stops;
  std::vector<CallOutLog> logs;
  while (stops.size() < scn.dense &&
         (stops.empty() || stops.back().reason == vm::StopReason::kInstrLimit)) {
    stops.push_back(interp.RunTo(stops.size() + 1));
    logs.push_back(interp.log());
  }
  if (scn.softcache || scn.observer || scn.dcache) {
    EXPECT_GT(interp.log().count, 0u);
  }
  for (uint64_t budget = 1; budget <= stops.size(); ++budget) {
    BudgetRig threaded(scn, Engine::kThreaded);
    ASSERT_EQ(threaded.RunTo(budget), stops[budget - 1])
        << scn.name << " budget=" << budget;
    ASSERT_EQ(threaded.log(), logs[budget - 1])
        << scn.name << " budget=" << budget;
  }
  if (stops.back().reason != vm::StopReason::kInstrLimit) return;

  BudgetRig interp_resumed(scn, Engine::kInterp);
  BudgetRig threaded_resumed(scn, Engine::kThreaded);
  util::Rng rng(0xb1d6e7);
  uint64_t stops_checked = 0;
  for (uint64_t budget = scn.dense; budget <= kMaxBudget;
       budget += 1 + rng.Below(budget)) {
    const Seen want = interp_resumed.RunTo(budget);
    ASSERT_EQ(threaded_resumed.RunTo(budget), want)
        << scn.name << " budget=" << budget;
    ASSERT_EQ(threaded_resumed.log(), interp_resumed.log())
        << scn.name << " budget=" << budget;
    ++stops_checked;
    if (want.reason != vm::StopReason::kInstrLimit) break;
  }
  EXPECT_GT(stops_checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, EngineBudgetTest,
    ::testing::Values(
        BudgetScenario{"smc_loop", "smc_loop", false, false, false, 3000},
        BudgetScenario{"sha256", "sha256", false, false, false, 3000},
        BudgetScenario{"sha256_observer", "sha256", false, true, false, 3000},
        BudgetScenario{"sha256_dcache", "sha256", false, false, true, 2000},
        BudgetScenario{"cjpeg_sparc2k", "cjpeg", true, false, false, 1500},
        BudgetScenario{"cjpeg_sparc2k_observer", "cjpeg", true, true, false,
                       1500},
        BudgetScenario{"cjpeg_sparc2k_dcache", "cjpeg", true, false, true,
                       600}),
    [](const ::testing::TestParamInfo<BudgetScenario>& param) {
      return std::string(param.param.name);
    });

// ---------------------------------------------------------------------------
// Self-modifying code
// ---------------------------------------------------------------------------

// A guest store patches an instruction *later in the same straight-line run*
// (same superblock as the store). The threaded engine pre-decoded the old
// word; the store must interrupt the block so the patched word executes.
TEST(EngineSmc, StorePatchesUpcomingInstructionInSameBlock) {
  // target: starts as "addi a0, zero, 1"; the store rewrites it to
  // "addi a0, zero, 42" two instructions before execution reaches it.
  const char* kSource = R"(
    _start:
      la t0, target
      la t1, patch
      lw t2, 0(t1)
      sw t2, 0(t0)
    target:
      addi a0, zero, 1
      sys 0
    patch:
      addi a0, zero, 42
  )";
  auto img = sasm::Assemble(kSource);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun interp = RunNative(*img, {}, Engine::kInterp, 1'000);
  const EngineRun threaded = RunNative(*img, {}, Engine::kThreaded, 1'000);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  EXPECT_EQ(interp.result.exit_code, 42);
  ExpectBitIdentical(interp, threaded, "same-block patch");
}

// The patched instruction sits in a *different*, already-translated and
// already-chained superblock: the store must sever the chain, not just the
// current block. The loop executes the target block once (translating and
// chaining it), patches it, and runs it again.
TEST(EngineSmc, StorePatchesPreviouslyExecutedBlock) {
  const char* kSource = R"(
    _start:
      li s0, 0          # pass counter
      li s1, 0          # accumulator
    loop:
      j body
    body:
      addi t3, zero, 1  # patched to 2 between passes
      add s1, s1, t3
      addi s0, s0, 1
      li t4, 2
      blt s0, t4, patch_it
      mv a0, s1         # pass1: 1, pass2: 2 -> 3
      sys 0
    patch_it:
      la t0, body
      la t1, patch
      lw t2, 0(t1)
      sw t2, 0(t0)
      j loop
    patch:
      addi t3, zero, 2
  )";
  auto img = sasm::Assemble(kSource);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun interp = RunNative(*img, {}, Engine::kInterp, 10'000);
  const EngineRun threaded = RunNative(*img, {}, Engine::kThreaded, 10'000);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  EXPECT_EQ(interp.result.exit_code, 3);
  ExpectBitIdentical(interp, threaded, "cross-block patch");
  // The threaded run really did retranslate: at least one invalidation.
  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(*img);
  ASSERT_EQ(machine.Run(10'000).exit_code, 3);
  EXPECT_GT(machine.sb_stats().invalidations, 0u);
}

// The guest patches code through SYS_ICACHE_INVAL under the softcache (the
// paper's self-modifying-code contract), with live superblocks over the
// patched region — including the currently executing one. Must agree with
// native on both engines, at sizes that do and do not force eviction churn.
constexpr const char* kSelfModifyingProgram = R"(
  int answer() { return 1011; }
  int main() {
    int before = answer();
    int *code = (int*)answer;
    int patched = 0;
    for (int i = 0; i < 32; i++) {
      if ((code[i] & 0xffff) == 1011) {
        code[i] = (int)((uint)code[i] & 0xffff0000) | 2022;
        patched = 1;
        break;
      }
    }
    if (!patched) return 1;
    __icache_inval((int)code, 128);
    int after = answer();
    if (before != 1011) return 2;
    if (after != 2022) return 3;
    print_str("smc ok\n");
    return 0;
  }
)";

TEST(EngineSmc, IcacheInvalUnderSoftcacheBothEngines) {
  auto img = minicc::CompileMiniC(kSelfModifyingProgram, "smc.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun native_interp = RunNative(*img, {}, Engine::kInterp);
  const EngineRun native_threaded = RunNative(*img, {}, Engine::kThreaded);
  ASSERT_EQ(native_interp.result.reason, vm::StopReason::kHalted)
      << native_interp.result.fault_message;
  ASSERT_EQ(native_interp.result.exit_code, 0);
  ExpectBitIdentical(native_interp, native_threaded, "native smc");

  for (const uint32_t tcache : {32u * 1024, 1024u}) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = tcache;
    const EngineRun interp = RunSoftcache(*img, {}, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(*img, {}, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << interp.result.fault_message;
    EXPECT_EQ(interp.result.exit_code, 0);
    ExpectBitIdentical(interp, threaded, "tcache=" + std::to_string(tcache));
  }
}

// SYS_READ writing into translated text (self-modifying code staged through
// the input stream) must invalidate superblocks byte by byte.
TEST(EngineSmc, SysReadIntoTextInvalidates) {
  // Pass 1 executes `target` (translating its superblock), then SYS_READ
  // pulls 4 input bytes over it — the encoding of "addi a0, zero, 9" — and
  // pass 2 re-executes it. The read lands on an already-translated block, so
  // the per-byte superblock invalidation in kSysRead is what keeps the
  // threaded engine honest.
  const char* kSource = R"(
    _start:
      li s0, 0
    loop:
      j target
    target:
      addi a0, zero, 1
      addi s0, s0, 1
      li t4, 2
      blt s0, t4, do_read
      sys 0
    do_read:
      la t0, target
      mv a0, t0
      li a1, 4
      sys 4
      j loop
  )";
  auto img = sasm::Assemble(kSource);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const uint32_t patch = isa::EncI(isa::Opcode::kAddi, isa::kA0, isa::kZero, 9);
  std::vector<uint8_t> input(4);
  std::memcpy(input.data(), &patch, 4);
  const EngineRun interp = RunNative(*img, input, Engine::kInterp, 1'000);
  const EngineRun threaded = RunNative(*img, input, Engine::kThreaded, 1'000);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  EXPECT_EQ(interp.result.exit_code, 9);
  ExpectBitIdentical(interp, threaded, "sys_read patch");
}

// ---------------------------------------------------------------------------
// SuperblockCache::Invalidate against a brute-force oracle
// ---------------------------------------------------------------------------

// Drives a SuperblockCache and a plain model of it side by side. The model
// kills exactly the live blocks with start < end && start + span > addr (or
// flushes when the write covers the whole [lo, hi) bound), so any start the
// line masks miss or keep stale shows up as a diverging kill set.
class InvalidateOracle {
 public:
  void Publish(uint32_t start, uint32_t span) {
    ASSERT_EQ(start % 4, 0u);
    ASSERT_GE(span, 4u);
    ASSERT_LE(span, vm::kSbMaxBytes);
    ASSERT_EQ(live_.count(start), 0u) << "test publishes over a live block";
    std::vector<vm::SbOp> ops(span / 4);
    for (uint32_t i = 0; i < ops.size(); ++i) ops[i].pc = start + 4 * i;
    vm::Superblock* sb = cache_.Publish(start, span, ops.data(),
                                        static_cast<uint32_t>(ops.size()));
    sb->digest = vm::SbDigest(*sb);
    live_[start] = sb;
    lo_ = std::min(lo_, start);
    hi_ = std::max(hi_, start + span);
  }

  void Invalidate(uint32_t addr, uint32_t len) {
    const uint64_t end = static_cast<uint64_t>(addr) + len;
    std::vector<vm::Superblock*> expect_dead;
    for (const auto& [start, sb] : live_) {
      if (start < end && start + sb->span > addr) expect_dead.push_back(sb);
    }
    const bool flush = !live_.empty() && addr <= lo_ && end >= hi_;
    const bool any = cache_.Invalidate(addr, len, &stats_);
    SCOPED_TRACE(::testing::Message() << "Invalidate(" << addr << ", " << len
                                      << ")");
    EXPECT_EQ(any, !expect_dead.empty());
    if (flush) {
      ++flushes_;
      for (const auto& [start, sb] : live_) EXPECT_FALSE(sb->valid) << start;
      Forget();
      reclaim_pending_ = true;
    } else {
      invalidations_ += expect_dead.size();
      for (vm::Superblock* sb : expect_dead) {
        EXPECT_FALSE(sb->valid) << sb->start;
        live_.erase(sb->start);
      }
    }
    Check();
  }

  void FlushMark() {
    cache_.FlushMark(&stats_);
    ++flushes_;
    for (const auto& [start, sb] : live_) EXPECT_FALSE(sb->valid) << start;
    Forget();
    reclaim_pending_ = true;
    Check();
  }

  // Frees the pool; only legal while a flush is pending, as in the engine.
  void Reclaim() {
    if (!cache_.reclaim_pending()) return;
    cache_.Reclaim();
    Forget();
    reclaim_pending_ = false;
    Check();
  }

  // Corrupts one live block's decoded form and scrubs: exactly that block
  // dies, counted as an invalidation; its start bit must not outlive it.
  void ScrubOne(uint64_t pick) {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, static_cast<long>(pick % live_.size()));
    vm::Superblock* sb = it->second;
    sb->ops()[0].imm ^= 1;
    uint64_t scanned = 0;
    EXPECT_EQ(cache_.ScrubCorrupt(&stats_, &scanned), 1u);
    EXPECT_FALSE(sb->valid);
    ++invalidations_;
    live_.erase(it);
    Check();
  }

  void Check() {
    EXPECT_EQ(cache_.live_blocks(), live_.size());
    EXPECT_EQ(cache_.lo(), live_.empty() ? UINT32_MAX : lo_);
    EXPECT_EQ(cache_.hi(), live_.empty() ? 0u : hi_);
    EXPECT_EQ(stats_.invalidations, invalidations_);
    EXPECT_EQ(stats_.flushes, flushes_);
    EXPECT_EQ(cache_.reclaim_pending(), reclaim_pending_);
    for (const auto& [start, sb] : live_) {
      EXPECT_TRUE(sb->valid) << start;
      EXPECT_EQ(cache_.Find(start), sb) << start;
    }
  }

  bool IsLive(uint32_t start) const { return live_.count(start) != 0; }
  size_t live() const { return live_.size(); }
  uint32_t lo() const { return lo_; }
  uint32_t hi() const { return hi_; }
  uint64_t invalidations() const { return stats_.invalidations; }

 private:
  // Drops every model block (dead after a flush, freed after a reclaim)
  // and resets the bounds, which only a flush or reclaim shrinks.
  void Forget() {
    live_.clear();
    lo_ = UINT32_MAX;
    hi_ = 0;
  }

  vm::SuperblockCache cache_;
  vm::SbStats stats_;
  std::map<uint32_t, vm::Superblock*> live_;  // start -> live block
  uint32_t lo_ = UINT32_MAX;
  uint32_t hi_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t flushes_ = 0;
  bool reclaim_pending_ = false;
};

TEST(SuperblockInvalidate, DirectedEdgeCases) {
  constexpr uint32_t kLine = vm::kSbMaxBytes;
  InvalidateOracle o;
  // Blocks below kSbMaxBytes, where the candidate window clamps at 0.
  o.Publish(0, 8);
  o.Publish(8, kLine);
  o.Publish(3 * kLine - 8, 16);  // straddles a line boundary
  o.Publish(3 * kLine + 4, 4);
  o.Publish(10 * kLine, 4);      // keeps the writes below off [lo, hi)
  o.Invalidate(2, 1);            // addr < kSbMaxBytes, hits block 0 only
  EXPECT_FALSE(o.IsLive(0));
  EXPECT_TRUE(o.IsLive(8));
  o.Invalidate(8 + kLine - 1, 1);  // last byte of a full-span block
  EXPECT_FALSE(o.IsLive(8));
  o.Invalidate(3 * kLine - 1, 2);  // a write straddling two lines
  EXPECT_FALSE(o.IsLive(3 * kLine - 8));
  EXPECT_TRUE(o.IsLive(3 * kLine + 4));
  o.Invalidate(3 * kLine + 8, 4);  // just past a block: nothing dies
  EXPECT_TRUE(o.IsLive(3 * kLine + 4));
  // Re-publish at starts whose blocks died.
  o.Publish(0, 4);
  o.Publish(8, 12);
  o.Invalidate(4, 4);  // between them: nothing dies
  o.Invalidate(0, 12);
  EXPECT_EQ(o.live(), 2u);
  // A start left by ScrubCorrupt: the corrupt block dies, a new block at the
  // same start is found again, and a write over the old start kills only
  // the live one.
  o.ScrubOne(0);  // the block at 3 * kLine + 4 (lowest live start)
  EXPECT_FALSE(o.IsLive(3 * kLine + 4));
  o.Invalidate(3 * kLine + 4, 4);
  o.Publish(3 * kLine + 4, 8);
  o.Invalidate(3 * kLine, 8);
  EXPECT_FALSE(o.IsLive(3 * kLine + 4));
  // A write covering the whole [lo, hi) range flushes rather than counting
  // invalidations.
  o.Publish(5 * kLine, 4);
  const uint64_t before = o.invalidations();
  o.Invalidate(o.lo(), o.hi() - o.lo());
  EXPECT_EQ(o.invalidations(), before);
  // Publishing before the pending reclaim, then reclaiming: the freed
  // block's start must not resurface after the next publish.
  o.Publish(2 * kLine, 4);
  o.Reclaim();
  o.Publish(7 * kLine, 4);
  o.Publish(kLine, 4);  // grows the mask window downwards
  o.Invalidate(2 * kLine, 4);
  o.Invalidate(kLine, 1);
  EXPECT_EQ(o.live(), 1u);
}

TEST(SuperblockInvalidate, RandomSequencesMatchBruteForceOracle) {
  constexpr uint32_t kLine = vm::kSbMaxBytes;
  // Two regions, so the mask window grows both ways and a write between
  // them sees only absent lines.
  constexpr uint32_t kRegions[] = {0, 64 * kLine};
  constexpr uint32_t kRegionBytes = 12 * kLine;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    InvalidateOracle o;
    const auto pick_addr = [&] {
      return kRegions[rng.Below(2)] + static_cast<uint32_t>(rng.Below(kRegionBytes));
    };
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng.Below(100);
      if (op < 45) {
        const uint32_t start = pick_addr() & ~3u;
        if (o.IsLive(start)) continue;
        o.Publish(start, 4 * (1 + static_cast<uint32_t>(rng.Below(32))));
      } else if (op < 85) {
        const uint64_t shape = rng.Below(5);
        if (shape == 0) {
          // Line-straddling word.
          const uint32_t line = kRegions[rng.Below(2)] / kLine +
                                1 + static_cast<uint32_t>(rng.Below(11));
          o.Invalidate(line * kLine - 1 - static_cast<uint32_t>(rng.Below(3)), 4);
        } else if (shape == 1 && o.live() > 0) {
          // Around the whole [lo, hi) range.
          const uint32_t lo = o.lo() - std::min(o.lo(), static_cast<uint32_t>(rng.Below(8)));
          o.Invalidate(lo, o.hi() - lo + static_cast<uint32_t>(rng.Below(8)));
        } else if (shape == 2) {
          o.Invalidate(pick_addr(), 1 + static_cast<uint32_t>(rng.Below(600)));
        } else {
          // The common case: a byte, halfword or word store.
          const uint32_t len = 1u << rng.Below(3);
          o.Invalidate(pick_addr() & ~(len - 1), len);
        }
      } else if (op < 90) {
        o.ScrubOne(rng.Next64());
      } else if (op < 93) {
        o.FlushMark();
      } else {
        o.Reclaim();
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// SuperblockCache block storage (the bump arena)
// ---------------------------------------------------------------------------

// Publishes one block of `n_ops` ops at `start` whose op fields encode
// (start, index), so a block that lands on top of another's storage reads
// back wrong.
vm::Superblock* PublishTagged(vm::SuperblockCache& cache, uint32_t start,
                              uint32_t n_ops) {
  std::vector<vm::SbOp> ops(n_ops);
  for (uint32_t i = 0; i < n_ops; ++i) {
    ops[i].pc = start + 4 * i;
    ops[i].imm = static_cast<int32_t>(start ^ (i * 0x9e3779b9u));
    ops[i].kind = static_cast<uint8_t>(i % vm::kSbKindCount);
  }
  return cache.Publish(start, 4 * n_ops, ops.data(), n_ops);
}

bool TaggedIntact(const vm::Superblock& sb) {
  for (uint32_t i = 0; i < sb.n_ops; ++i) {
    const vm::SbOp& op = sb.ops()[i];
    if (op.pc != sb.start + 4 * i ||
        op.imm != static_cast<int32_t>(sb.start ^ (i * 0x9e3779b9u)) ||
        op.kind != i % vm::kSbKindCount) {
      return false;
    }
  }
  return true;
}

// Arena bytes one block of `n_ops` ops occupies (header + ops, rounded up
// to the block alignment).
size_t ArenaStep(uint32_t n_ops) {
  constexpr size_t kAlign = static_cast<size_t>(vm::kSbBlockAlign);
  const size_t bytes = sizeof(vm::Superblock) + n_ops * sizeof(vm::SbOp);
  return (bytes + kAlign - 1) / kAlign * kAlign;
}

TEST(SuperblockArena, BlocksAreCacheLineAligned) {
  vm::SuperblockCache cache;
  for (uint32_t i = 0; i < 200; ++i) {
    const uint32_t n_ops = 1 + i % (vm::kSbMaxOps + 1);
    const vm::Superblock* sb = PublishTagged(cache, 0x1000 + 0x100 * i, n_ops);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(sb) %
                  static_cast<size_t>(vm::kSbBlockAlign),
              0u)
        << "block " << i;
  }
  size_t intact = 0;
  cache.ForEachLive([&](const vm::Superblock& sb, const vm::Superblock*,
                        const vm::Superblock*) {
    if (TaggedIntact(sb)) ++intact;
  });
  EXPECT_EQ(intact, 200u);
}

TEST(SuperblockArena, ReclaimReusesStorageWithoutGrowth) {
  vm::SuperblockCache cache;
  vm::SbStats stats;
  std::vector<const vm::Superblock*> first_cycle;
  size_t chunks_after_first = 0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    // The same block shapes every cycle, enough to span several chunks.
    std::vector<const vm::Superblock*> blocks;
    for (uint32_t i = 0; i < 600; ++i) {
      blocks.push_back(
          PublishTagged(cache, 0x4000 + 0x100 * i, 1 + (i * 7) % vm::kSbMaxOps));
    }
    for (const vm::Superblock* sb : blocks) ASSERT_TRUE(TaggedIntact(*sb));
    if (cycle == 0) {
      first_cycle = blocks;
      chunks_after_first = cache.arena_chunks();
      EXPECT_GT(chunks_after_first, 1u);
    } else {
      // Rewound, not reallocated: the same shapes land at the same
      // addresses, in the chunks the first cycle allocated.
      EXPECT_EQ(cache.arena_chunks(), chunks_after_first) << "cycle " << cycle;
      EXPECT_EQ(blocks, first_cycle) << "cycle " << cycle;
    }
    cache.FlushMark(&stats);
    ASSERT_TRUE(cache.reclaim_pending());
    cache.Reclaim();
    EXPECT_EQ(cache.pool_size(), 0u);
    EXPECT_EQ(cache.live_blocks(), 0u);
  }
}

TEST(SuperblockArena, MaxLengthBlockLandsAtChunkBoundary) {
  constexpr uint32_t kMaxLen = vm::kSbMaxOps + 1;  // synthetic terminator
  const size_t max_step = ArenaStep(kMaxLen);
  // Fill the first chunk with maximum-length blocks, then close the gap
  // left at its end with one block that fits exactly (when the remainder
  // can hold one), so the next block must open a fresh chunk.
  vm::SuperblockCache cache;
  std::vector<const vm::Superblock*> blocks;
  uint32_t start = 0x2000;
  size_t used = 0;
  while (used + max_step <= vm::kSbChunkBytes) {
    blocks.push_back(PublishTagged(cache, start, kMaxLen));
    start += 0x100;
    used += max_step;
  }
  const size_t rest = vm::kSbChunkBytes - used;
  if (rest >= ArenaStep(1)) {
    uint32_t fit = 1;
    while (fit < kMaxLen && ArenaStep(fit + 1) <= rest) ++fit;
    blocks.push_back(PublishTagged(cache, start, fit));
    start += 0x100;
  }
  EXPECT_EQ(cache.arena_chunks(), 1u);
  const auto* chunk0 = reinterpret_cast<const std::byte*>(blocks.front());
  const auto* last = reinterpret_cast<const std::byte*>(blocks.back());
  EXPECT_LE(last + sizeof(vm::Superblock) + blocks.back()->n_ops * sizeof(vm::SbOp),
            chunk0 + vm::kSbChunkBytes);

  // The maximum-length block does not fit: it opens chunk two at its start.
  const vm::Superblock* boundary = PublishTagged(cache, start, kMaxLen);
  EXPECT_EQ(cache.arena_chunks(), 2u);
  const auto* at = reinterpret_cast<const std::byte*>(boundary);
  EXPECT_TRUE(at < chunk0 || at >= chunk0 + vm::kSbChunkBytes)
      << "spilled into the first chunk's tail";
  EXPECT_EQ(reinterpret_cast<uintptr_t>(at) %
                static_cast<size_t>(vm::kSbBlockAlign),
            0u);
  EXPECT_EQ(boundary->n_ops, kMaxLen);
  EXPECT_TRUE(TaggedIntact(*boundary));
  for (const vm::Superblock* sb : blocks) EXPECT_TRUE(TaggedIntact(*sb));
  EXPECT_EQ(cache.Find(start), boundary);
}

}  // namespace
}  // namespace sc
