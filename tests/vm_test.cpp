// VM semantics tests: per-opcode behaviour, faults, the cycle model,
// syscalls, hook points, execution-range enforcement and the demand-zero
// guest memory behind them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "image/layout.h"
#include "sasm/assembler.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

struct VmRun {
  vm::RunResult result;
  vm::Machine machine;
};

// Assembles and runs; the machine is returned for state inspection.
std::unique_ptr<VmRun> RunAsm(std::string_view asm_source, std::string_view input = "") {
  auto img = sasm::Assemble(asm_source);
  SC_CHECK(img.ok()) << img.error().ToString();
  auto run = std::make_unique<VmRun>();
  run->machine.LoadImage(*img);
  run->machine.SetInput(std::vector<uint8_t>(input.begin(), input.end()));
  run->result = run->machine.Run(1'000'000);
  return run;
}

int RunExit(std::string_view asm_source) {
  const auto run = RunAsm(asm_source);
  SC_CHECK(run->result.reason == vm::StopReason::kHalted)
      << run->result.fault_message;
  return run->result.exit_code;
}

TEST(VmAlu, SignedUnsignedOps) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, -8
      li t1, 3
      div t2, t0, t1     # -2
      rem t3, t0, t1     # -2
      add a0, t2, t3     # -4
      neg a0, a0         # 4
      sys 0
  )"), 4);
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, -8          # 0xfffffff8
      li t1, 16
      divu t2, t0, t1    # 0x0ffffff f...
      srli t2, t2, 24    # 0x0f
      mv a0, t2
      sys 0
  )"), 0x0f);
}

TEST(VmAlu, ShiftsMaskTo5Bits) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, 1
      li t1, 33          # shift amount masks to 1
      sll t2, t0, t1
      mv a0, t2
      sys 0
  )"), 2);
}

TEST(VmAlu, SltVariants) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, -1
      li t1, 1
      slt t2, t0, t1     # 1 (signed)
      sltu t3, t0, t1    # 0 (0xffffffff not < 1)
      slli t2, t2, 1
      add a0, t2, t3     # 2
      sys 0
  )"), 2);
}

TEST(VmAlu, DivideByZeroFaults) {
  const auto run = RunAsm("_start: li t0, 1\n li t1, 0\n div t2, t0, t1\n halt\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("division by zero"), std::string::npos);
}

TEST(VmAlu, IntMinDividedByMinusOneWraps) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, 0x80000000
      li t1, -1
      div t2, t0, t1     # wraps to INT_MIN
      srli a0, t2, 28    # 0x8
      sys 0
  )"), 8);
}

TEST(VmMemory, LoadStoreAllWidths) {
  EXPECT_EQ(RunExit(R"(
    .bss
    buf: .space 16
    .text
    _start:
      la t0, buf
      li t1, 0x80
      sb t1, 0(t0)
      lbu t2, 0(t0)      # 0x80 zero-extended
      lb t3, 0(t0)       # sign-extended -128
      add t4, t2, t3     # 0
      li t1, 0x8000
      sh t1, 4(t0)
      lhu t5, 4(t0)      # 0x8000
      lh t6, 4(t0)       # -0x8000
      add t5, t5, t6     # 0
      add a0, t4, t5
      addi a0, a0, 9
      sys 0
  )"), 9);
}

TEST(VmMemory, MisalignedAccessFaults) {
  const auto run = RunAsm(R"(
    _start:
      li t0, 0x100002
      lw t1, 0(t0)
      halt
  )");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("misaligned"), std::string::npos);
}

TEST(VmMemory, NullGuardFaults) {
  const auto run = RunAsm("_start: lw t0, 0(zero)\n halt\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("null-guard"), std::string::npos);
}

TEST(VmMemory, OutOfRangeFaults) {
  const auto run = RunAsm(R"(
    _start:
      li t0, 0x7fffff00
      sw t0, 0(t0)
      halt
  )");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("out-of-range"), std::string::npos);
}

// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t total_pages = 0;
  size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

// Guest memory is demand-zero: a loaded but idle Machine holds only the
// pages its image wrote, not its whole 18 MB address space.
TEST(VmMemory, IdleMachinesCostOnlyTheirImage) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  constexpr size_t kMachines = 64;
  const size_t before = ResidentBytes();
  std::vector<std::unique_ptr<vm::Machine>> machines;
  for (size_t i = 0; i < kMachines; ++i) {
    machines.push_back(std::make_unique<vm::Machine>());
    machines.back()->LoadImage(img);
  }
  const size_t after = ResidentBytes();
  const size_t grown = after > before ? after - before : 0;
  EXPECT_LT(grown, kMachines << 20)
      << "64 machines grew RSS by " << (grown >> 20) << " MB";
}

// LoadImage resets every page, so a reload cannot leak a previous run's
// data, bss, heap, stack or local-memory bytes.
TEST(VmMemory, ReloadReadsExactlyLikeAFreshMachine) {
  auto img = sasm::Assemble(R"(
    .data
    d: .word 7, 8, 9
    .bss
    b: .space 64
    .text
    _start:
      li t1, 0x5a5a
      la t0, d
      sw t1, 4(t0)       # data
      la t0, b
      sw t1, 32(t0)      # bss
      li a0, 8192
      sys 5              # sbrk(8192) -> old break
      sw t1, 4096(rv)    # heap
      addi sp, sp, -64
      sw t1, 0(sp)       # stack
      li a0, 0
      sys 0
  )");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  vm::Machine reloaded;
  reloaded.LoadImage(*img);
  ASSERT_EQ(reloaded.Run(1000).reason, vm::StopReason::kHalted);
  reloaded.WriteWord(image::kLocalBase, 0xdeadbeef);  // host-side local memory
  vm::Machine fresh;
  fresh.LoadImage(*img);
  ASSERT_EQ(reloaded.mem_size(), fresh.mem_size());
  ASSERT_NE(std::memcmp(reloaded.mem_data(), fresh.mem_data(),
                        fresh.mem_size()),
            0);
  const image::Symbol* d = img->FindSymbol("d");
  const image::Symbol* b = img->FindSymbol("b");
  ASSERT_NE(d, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(reloaded.ReadWord(d->addr + 4), 0x5a5au);
  ASSERT_EQ(reloaded.ReadWord(b->addr + 32), 0x5a5au);

  reloaded.LoadImage(*img);
  EXPECT_EQ(std::memcmp(reloaded.mem_data(), fresh.mem_data(),
                        fresh.mem_size()),
            0);
  EXPECT_EQ(reloaded.ReadWord(d->addr + 4), 8u);
  EXPECT_EQ(reloaded.pc(), fresh.pc());
  EXPECT_EQ(reloaded.reg(isa::kSp), fresh.reg(isa::kSp));
}

// A PROT_NONE page sits right after guest memory, so a host-side overrun
// faults on its first byte in every build (ASan cannot see mmap'd memory).
TEST(VmMemoryDeathTest, HostOverrunHitsGuardPage) {
  for (const uint32_t mem_bytes :
       {image::kDefaultMemBytes, image::kLocalLimit + 100}) {
    EXPECT_DEATH(
        {
          vm::Machine machine(mem_bytes);
          volatile uint8_t* end = machine.mem_data() + machine.mem_size();
          end[0] = 1;
        },
        "")
        << "mem_bytes=" << mem_bytes;
  }
}

TEST(VmControl, JalLinksAndJalrReturns) {
  EXPECT_EQ(RunExit(R"(
    _start:
      jal sub
      mv a0, rv
      sys 0
    sub:
      li rv, 77
      ret
  )"), 77);
}

TEST(VmControl, RegisterZeroIsImmutable) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, 55
      add zero, t0, t0
      mv a0, zero
      sys 0
  )"), 0);
}

TEST(VmControl, IllegalInstructionFaults) {
  const auto run = RunAsm(".text\n_start: .word 0xffffffff\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("illegal"), std::string::npos);
}

TEST(VmControl, TcMissWithoutHandlerFaults) {
  // TCMISS is opcode 31 in the J format: craft it via .word.
  auto img = sasm::Assemble("_start: .word 0x7c000000\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_NE(result.fault_message.find("no trap handler"), std::string::npos);
}

TEST(VmControl, InstructionLimitStops) {
  auto img = sasm::Assemble("_start: j _start\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  const auto result = machine.Run(1000);
  EXPECT_EQ(result.reason, vm::StopReason::kInstrLimit);
  EXPECT_EQ(result.instructions, 1000u);
}

TEST(VmSyscalls, EchoRoundTrip) {
  const auto run = RunAsm(R"(
    _start:
      sys 2              # getchar
      mv a0, rv
      sys 1              # putchar
      li a0, 0
      sys 0
  )", "Q");
  EXPECT_EQ(run->result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(run->machine.OutputString(), "Q");
}

TEST(VmSyscalls, GetcharEofIsMinusOne) {
  EXPECT_EQ(RunExit(R"(
    _start:
      sys 2
      li t0, -1
      bne rv, t0, bad
      li a0, 1
      sys 0
    bad:
      li a0, 0
      sys 0
  )"), 1);
}

TEST(VmSyscalls, BrkGrowsHeap) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li a0, 64
      sys 5              # sbrk(64) -> old break
      mv t0, rv
      li a0, 64
      sys 5              # again
      sub t1, rv, t0     # 64 apart
      mv a0, t1
      sys 0
  )"), 64);
}

TEST(VmSyscalls, CyclesAdvance) {
  EXPECT_EQ(RunExit(R"(
    _start:
      sys 6
      mv t0, rv
      nop
      nop
      sys 6
      sltu a0, t0, rv    # later reading is larger
      sys 0
  )"), 1);
}

TEST(VmSyscalls, UnknownSyscallFaults) {
  const auto run = RunAsm("_start: sys 999\n halt\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("unknown syscall"), std::string::npos);
}

TEST(VmCostModel, MulDivCostMore) {
  const auto cheap = RunAsm("_start: add t0, t1, t2\n halt\n");
  const auto mul = RunAsm("_start: mul t0, t1, t2\n halt\n");
  const auto div = RunAsm("_start: li t1, 1\n div t0, t1, t1\n halt\n");
  EXPECT_GT(mul->result.cycles, cheap->result.cycles);
  EXPECT_GT(div->result.cycles, mul->result.cycles);
}

TEST(VmExecRange, RestrictionEnforced) {
  auto img = sasm::Assemble("_start: nop\n nop\n halt\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  machine.SetExecRange(0x2000000, 0x2001000);  // text is far outside
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_NE(result.fault_message.find("outside permitted range"), std::string::npos);
}

TEST(VmHooks, FetchObserverSeesEveryPc) {
  struct Counter : vm::FetchObserver {
    uint64_t count = 0;
    uint32_t first = 0;
    void OnFetch(uint32_t pc) override {
      if (count == 0) first = pc;
      ++count;
    }
  };
  auto img = sasm::Assemble("_start: nop\n nop\n nop\n halt\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  Counter counter;
  machine.set_fetch_observer(&counter);
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(counter.count, result.instructions);
  EXPECT_EQ(counter.first, img->entry);
}

TEST(VmHooks, DataHookRedirectsAccesses) {
  struct Redirect : vm::DataHook {
    uint32_t hits = 0;
    uint32_t Translate(vm::Machine& m, uint32_t vaddr, uint32_t size,
                       bool is_store) override {
      (void)m; (void)size; (void)is_store;
      ++hits;
      return vaddr + 0x100;  // shift the window
    }
  };
  auto img = sasm::Assemble(R"(
    .bss
    spot: .space 512
    .text
    _start:
      la t0, spot
      li t1, 42
      sw t1, 0(t0)       # hooked: actually writes spot+0x100
      lw a0, 256(t0)     # unhooked address range? also hooked; reads back
      sys 0
  )");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  Redirect hook;
  const image::Symbol* spot = img->FindSymbol("spot");
  ASSERT_NE(spot, nullptr);
  machine.SetDataHook(&hook, spot->addr, spot->addr + 4);  // only first word hooked
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(hook.hits, 1u);                   // only the sw was in range
  EXPECT_EQ(result.exit_code, 42);            // read at +0x100 sees the value
}

}  // namespace
}  // namespace sc
