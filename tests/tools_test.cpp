// Tests for the CLI plumbing shared by scc/sasm/sdis/srun, and for the
// VM-level trap dispatch contract the tools' --softcache mode relies on.
#include <gtest/gtest.h>

#include "sasm/assembler.h"
#include "tools/tool_util.h"
#include "vm/machine.h"

namespace sc {
namespace {

tools::Args MakeArgs(std::initializer_list<const char*> argv) {
  std::vector<char*> ptrs = {const_cast<char*>("prog")};
  for (const char* arg : argv) ptrs.push_back(const_cast<char*>(arg));
  return tools::Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(ToolArgs, PositionalAndFlags) {
  const auto args = MakeArgs({"input.mc", "--o=out.img", "--stats", "second.mc"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.mc");
  EXPECT_EQ(args.positional()[1], "second.mc");
  EXPECT_TRUE(args.Has("stats"));
  EXPECT_FALSE(args.Has("profile"));
  EXPECT_EQ(args.Get("o"), "out.img");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
}

TEST(ToolArgs, IntegerValues) {
  const auto args = MakeArgs({"--tcache=8192", "--hex=0x40", "--empty"});
  EXPECT_EQ(args.GetInt("tcache", 0), 8192u);
  EXPECT_EQ(args.GetInt("hex", 0), 64u);
  EXPECT_EQ(args.GetInt("empty", 7), 7u);   // flag without value -> fallback
  EXPECT_EQ(args.GetInt("absent", 9), 9u);

  // A value that does not parse completely is a usage error (exit 2 with a
  // message), never a silently truncated number.
  const auto bad = MakeArgs({"--tcache=2048x", "--clients=2junk",
                             "--huge=99999999999999999999", "--rate=0.5x",
                             "--rate_ok=0.25"});
  EXPECT_EXIT(bad.GetInt("tcache", 0), ::testing::ExitedWithCode(2),
              "--tcache=2048x: not an integer");
  EXPECT_EXIT(bad.GetInt("clients", 0), ::testing::ExitedWithCode(2),
              "--clients=2junk");
  EXPECT_EXIT(bad.GetInt("huge", 0), ::testing::ExitedWithCode(2), "huge");
  EXPECT_EXIT(bad.GetDouble("rate", 0), ::testing::ExitedWithCode(2),
              "--rate=0.5x: not a number");
  EXPECT_EQ(bad.GetDouble("rate_ok", 0), 0.25);
  EXPECT_EQ(bad.GetDouble("absent", 0.5), 0.5);
}

TEST(ToolArgs, UnknownFlagDetection) {
  const auto args = MakeArgs({"--good=1", "--typo=2"});
  EXPECT_EQ(args.FirstUnknown({"good"}), "typo");
  EXPECT_EQ(args.FirstUnknown({"good", "typo"}), "");
}

TEST(ToolFiles, RoundTripThroughDisk) {
  const std::string path = ::testing::TempDir() + "/sc_tool_io_test.bin";
  const std::vector<uint8_t> payload = {0, 1, 2, 255, 128, 7};
  ASSERT_TRUE(tools::WriteFileBytes(path, payload));
  const auto read_back = tools::ReadFileBytes(path);
  ASSERT_TRUE(read_back.has_value());
  EXPECT_EQ(*read_back, payload);
  std::remove(path.c_str());
}

TEST(ToolFiles, MissingFileReportsCleanly) {
  EXPECT_FALSE(tools::ReadFile("/nonexistent/definitely/not/here").has_value());
}

// ---------------------------------------------------------------------------
// VM trap-dispatch contract (what a custom cache controller can rely on)
// ---------------------------------------------------------------------------

// A minimal handler that records its invocations and redirects control.
struct RecordingHandler : vm::TrapHandler {
  uint32_t miss_index = 0;
  uint32_t jalr_target = 0;
  uint32_t jalr_link_reg = 99;
  uint32_t resume_pc = 0;

  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub_index) override {
    (void)m;
    miss_index = stub_index;
    return resume_pc;
  }
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr, uint32_t pc) override {
    jalr_target = (m.reg(instr.rs1) + static_cast<uint32_t>(instr.imm)) & ~3u;
    jalr_link_reg = instr.rd;
    m.set_reg(instr.rd, pc + 4);
    return resume_pc;
  }
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override {
    (void)m;
    (void)addr;
    (void)len;
    return pc + 4;
  }
};

TEST(VmTrapContract, TcMissCarriesStubIndexAndRedirects) {
  auto img = sasm::Assemble(R"(
    _start:
      nop
    target:
      li a0, 55
      sys 0
  )");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  // Overwrite the nop with TCMISS #1234 and let the handler redirect to
  // 'target'.
  machine.WriteWord(img->entry, isa::EncTcMiss(1234));
  RecordingHandler handler;
  handler.resume_pc = img->entry + 4;
  machine.set_trap_handler(&handler);
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(result.exit_code, 55);
  EXPECT_EQ(handler.miss_index, 1234u);
}

TEST(VmTrapContract, TcJalrExposesOperandsAndPc) {
  auto img = sasm::Assemble(R"(
    _start:
      li t3, 0x5000
      nop                 # replaced with TCJALR t2, t3, 8
    after:
      li a0, 9
      sys 0
  )");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  const uint32_t tcjalr_pc = img->entry + 4;
  machine.WriteWord(tcjalr_pc, isa::Encode(isa::Instr{.op = isa::Opcode::kTcJalr,
                                                      .rd = isa::kT2,
                                                      .rs1 = isa::kT3,
                                                      .imm = 8}));
  RecordingHandler handler;
  handler.resume_pc = tcjalr_pc + 4;
  machine.set_trap_handler(&handler);
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(result.exit_code, 9);
  EXPECT_EQ(handler.jalr_target, 0x5008u);
  EXPECT_EQ(handler.jalr_link_reg, isa::kT2);
  // The handler wrote the link register with pc+4.
  EXPECT_EQ(machine.reg(isa::kT2), tcjalr_pc + 4);
}

TEST(VmTrapContract, HandlerFaultStopsTheRun) {
  struct FaultingHandler : RecordingHandler {
    uint32_t OnTcMiss(vm::Machine& m, uint32_t) override {
      m.RaiseFault("handler says no");
      return 0;
    }
  };
  auto img = sasm::Assemble("_start: nop\n halt\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  machine.WriteWord(img->entry, isa::EncTcMiss(0));
  FaultingHandler handler;
  machine.set_trap_handler(&handler);
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_NE(result.fault_message.find("handler says no"), std::string::npos);
}

}  // namespace
}  // namespace sc
