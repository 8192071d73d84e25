#include "vm/machine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <sstream>

#include "obs/trace.h"
#include "util/check.h"

namespace sc::vm {

using isa::AluOp;
using isa::Instr;
using isa::Opcode;

namespace {

size_t PageBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

}  // namespace

Machine::Machine(uint32_t mem_bytes) : engine_(DefaultEngine()) {
  SC_CHECK_GE(mem_bytes, image::kLocalBase) << "memory must cover local region";
  // Untouched pages of a private anonymous mapping read as the kernel's
  // shared zero page, so a client pays RSS only for what it writes. The
  // usable bytes end exactly at the guard page.
  const size_t page = PageBytes();
  const size_t usable =
      (static_cast<size_t>(mem_bytes) + page - 1) / page * page;
  map_bytes_ = usable + page;
  map_base_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  SC_CHECK(map_base_ != MAP_FAILED) << "cannot map " << map_bytes_
                                    << " bytes of guest memory";
  uint8_t* base = static_cast<uint8_t*>(map_base_);
  SC_CHECK_EQ(mprotect(base + usable, page, PROT_NONE), 0)
      << "cannot protect the guest memory guard page";
  mem_ = base + (usable - mem_bytes);
  mem_size_ = mem_bytes;
}

Machine::~Machine() { munmap(map_base_, map_bytes_); }

void Machine::set_engine(Engine engine) {
  if (engine == engine_) return;
  engine_ = engine;
  // Superblocks translated before an interpreter interlude can go stale
  // without notice (the interpreter's guest stores rely on the decode
  // cache's word compare, which superblocks skip), so drop them.
  FlushSuperblocks();
}

void Machine::SetExecRange(uint32_t lo, uint32_t hi) {
  if (exec_lo_ != lo || exec_hi_ != hi) FlushSuperblocks();
  exec_lo_ = lo;
  exec_hi_ = hi;
}

void Machine::set_cost_model(const CostModel& cost) {
  for (const uint32_t c : {cost.alu, cost.mul, cost.div, cost.load, cost.store,
                           cost.branch, cost.jump, cost.syscall}) {
    SC_CHECK_LE(c, kSbMaxOpCost) << "instruction cost too large";
  }
  FlushSuperblocks();
  cost_ = cost;
}

void Machine::FlushSuperblocks() {
  if (sb_cache_ != nullptr && sb_cache_->live_blocks() > 0) {
    sb_cache_->FlushMark(&sb_stats_);
    sb_interrupt_ = true;
  }
  SyncSuperblockBounds();
}

void Machine::SyncSuperblockBounds() {
  sb_lo_ = sb_cache_ == nullptr ? UINT32_MAX : sb_cache_->lo();
  sb_hi_ = sb_cache_ == nullptr ? 0 : sb_cache_->hi();
}

void Machine::SuperblockStoreSlow(uint32_t paddr, uint32_t size) {
  if (sb_cache_->Invalidate(paddr, size, &sb_stats_)) {
    sb_interrupt_ = true;
    SyncSuperblockBounds();
  }
}

void Machine::LoadImage(const image::Image& img) {
  SC_CHECK_LE(img.text_base + img.text.size(), mem_size_);
  SC_CHECK_LE(img.data_base + img.data.size(), mem_size_);
  SC_CHECK_LE(static_cast<size_t>(img.bss_base) + img.bss_size, mem_size_);
  // Drop every page back to demand-zero: bss, heap, stack and local memory
  // then read as zero without being written (or counted in RSS). On a fresh
  // mapping there are no pages to drop, so this is nearly free.
  SC_CHECK_EQ(madvise(map_base_, map_bytes_ - PageBytes(), MADV_DONTNEED), 0)
      << "cannot reset guest memory";
  FlushSuperblocks();
  // .data() of an empty section is null; memcpy requires non-null even for
  // zero-length copies.
  if (!img.text.empty()) {
    std::memcpy(mem_ + img.text_base, img.text.data(), img.text.size());
  }
  if (!img.data.empty()) {
    std::memcpy(mem_ + img.data_base, img.data.data(), img.data.size());
  }
  pc_ = img.entry;
  regs_.fill(0);
  regs_[isa::kSp] = image::kStackTop;
  brk_ = img.heap_base();
  pending_stop_ = StopReason::kRunning;
}

uint32_t Machine::ReadWord(uint32_t addr) const {
  SC_CHECK_LE(static_cast<uint64_t>(addr) + 4, mem_size_);
  uint32_t v = 0;
  std::memcpy(&v, mem_ + addr, 4);
  return v;
}

void Machine::WriteWord(uint32_t addr, uint32_t value) {
  SC_CHECK_LE(static_cast<uint64_t>(addr) + 4, mem_size_);
  std::memcpy(mem_ + addr, &value, 4);
  InvalidateDecode(addr, 4);
}

void Machine::ReadBlock(uint32_t addr, void* out, uint32_t len) const {
  SC_CHECK_LE(static_cast<uint64_t>(addr) + len, mem_size_);
  std::memcpy(out, mem_ + addr, len);
}

void Machine::WriteBlock(uint32_t addr, const void* bytes, uint32_t len) {
  SC_CHECK_LE(static_cast<uint64_t>(addr) + len, mem_size_);
  std::memcpy(mem_ + addr, bytes, len);
  InvalidateDecode(addr, len);
}

void Machine::InvalidateDecode(uint32_t addr, uint32_t len) {
  if (len == 0) return;
  if (exec_lo_ != exec_hi_ &&
      (addr >= exec_hi_ || static_cast<uint64_t>(addr) + len <= exec_lo_)) {
    return;  // outside the executable range: never fetched
  }
  // Superblocks invalidate on the same plumbing as the decode cache: every
  // WriteWord/WriteBlock (cache-controller install/patch/evict, recovery
  // journal replay, COW text writes, dcache block moves) lands here.
  if (sb_cache_ != nullptr &&
      sb_cache_->Invalidate(addr, len, &sb_stats_)) {
    sb_interrupt_ = true;
    SyncSuperblockBounds();
  }
  if (decode_cache_.empty()) return;
  const uint32_t first = addr >> 2;
  const uint32_t last = (addr + len - 1) >> 2;
  const DecodeEntry reset{0, isa::Decode(0)};
  if (last - first + 1 >= kDecodeCacheEntries) {
    std::fill(decode_cache_.begin(), decode_cache_.end(), reset);
    return;
  }
  for (uint32_t w = first; w <= last; ++w) {
    decode_cache_[w & kDecodeCacheMask] = reset;
  }
}

void Machine::RaiseFault(const std::string& message) {
  if (pending_stop_ == StopReason::kRunning) {
    pending_stop_ = StopReason::kFault;
    fault_message_ = message;
  }
}

RunResult Machine::MakeResult(StopReason reason) {
  RunResult r;
  r.reason = reason;
  r.exit_code = exit_code_;
  r.fault_message = fault_message_;
  r.instructions = instret_;
  r.cycles = cycles_;
  return r;
}

RunResult Machine::FaultHere(const char* what) {
  std::ostringstream msg;
  msg << what << " at pc=0x" << std::hex << pc_;
  RaiseFault(msg.str());
  return MakeResult(pending_stop_);
}

RunResult Machine::FaultIllegal(uint32_t word) {
  std::ostringstream msg;
  msg << "illegal instruction 0x" << std::hex << word << " at pc=0x" << pc_;
  RaiseFault(msg.str());
  return MakeResult(pending_stop_);
}

void Machine::FaultDataAddr(const char* what, uint32_t addr, uint32_t size) {
  std::ostringstream msg;
  msg << what << " (" << size << " bytes) at 0x" << std::hex << addr
      << " pc=0x" << pc_;
  RaiseFault(msg.str());
}

void Machine::FaultSyscall(int32_t number) {
  std::ostringstream msg;
  msg << "unknown syscall " << number << " at pc=0x" << std::hex << pc_;
  RaiseFault(msg.str());
}

bool Machine::CheckDataAddr(uint32_t addr, uint32_t size) {
  if (addr < image::kNullGuardEnd) {
    FaultDataAddr("null-guard data access", addr, size);
    return false;
  }
  if (static_cast<uint64_t>(addr) + size > mem_size_) {
    FaultDataAddr("out-of-range data access", addr, size);
    return false;
  }
  if (size > 1 && addr % size != 0) {
    FaultDataAddr("misaligned data access", addr, size);
    return false;
  }
  return true;
}

uint32_t Machine::TranslateData(uint32_t addr, uint32_t size, bool is_store) {
  if (data_hook_ != nullptr && addr >= data_hook_lo_ && addr < data_hook_hi_) {
    return data_hook_->Translate(*this, addr, size, is_store);
  }
  return addr;
}

void Machine::DoSyscall(int32_t number, uint32_t* next_pc) {
  switch (number) {
    case kSysExit:
      pending_stop_ = StopReason::kHalted;
      exit_code_ = static_cast<int32_t>(regs_[isa::kA0]);
      break;
    case kSysPutChar:
      output_.push_back(static_cast<uint8_t>(regs_[isa::kA0]));
      break;
    case kSysGetChar:
      regs_[isa::kRv] = input_pos_ < input_.size()
                            ? input_[input_pos_++]
                            : static_cast<uint32_t>(-1);
      break;
    case kSysWrite: {
      const uint32_t ptr = regs_[isa::kA0];
      const uint32_t len = regs_[isa::kA1];
      if (static_cast<uint64_t>(ptr) + len > mem_size_) {
        RaiseFault("SYS_WRITE out of range");
        return;
      }
      // Byte-wise through the data hook so a software D-cache sees console
      // I/O buffers coherently.
      for (uint32_t i = 0; i < len; ++i) {
        const uint32_t paddr = TranslateData(ptr + i, 1, /*is_store=*/false);
        if (pending_stop_ != StopReason::kRunning) return;
        output_.push_back(mem_[paddr]);
      }
      break;
    }
    case kSysRead: {
      const uint32_t ptr = regs_[isa::kA0];
      const uint32_t len = regs_[isa::kA1];
      if (static_cast<uint64_t>(ptr) + len > mem_size_) {
        RaiseFault("SYS_READ out of range");
        return;
      }
      uint32_t n = 0;
      while (n < len && input_pos_ < input_.size()) {
        const uint32_t paddr = TranslateData(ptr + n, 1, /*is_store=*/true);
        if (pending_stop_ != StopReason::kRunning) return;
        mem_[paddr] = input_[input_pos_++];
        // SYS_READ can scribble over translated text (self-modifying code
        // staged through the input stream); superblocks cannot rely on the
        // interpreter's fetch-time word compare, so kill overlaps here.
        if (paddr >= sb_lo_ && paddr < sb_hi_) SuperblockStoreSlow(paddr, 1);
        ++n;
      }
      regs_[isa::kRv] = n;
      break;
    }
    case kSysBrk: {
      // sbrk semantics: grow the break by a0 bytes, return the old break.
      const uint32_t grow = regs_[isa::kA0];
      const uint32_t old = brk_;
      // The heap must stay below the stack red zone.
      if (static_cast<uint64_t>(brk_) + grow > image::kStackTop - 0x10000) {
        regs_[isa::kRv] = static_cast<uint32_t>(-1);
        return;
      }
      brk_ += grow;
      regs_[isa::kRv] = old;
      break;
    }
    case kSysCycles:
      regs_[isa::kRv] = static_cast<uint32_t>(cycles_);
      break;
    case kSysIcacheInval:
      if (trap_handler_ != nullptr) {
        *next_pc = trap_handler_->OnIcacheInvalidate(*this, regs_[isa::kA0],
                                                     regs_[isa::kA1], pc_);
      }
      break;
    default:
      FaultSyscall(number);
      break;
  }
}

RunResult Machine::Run(uint64_t max_instructions) {
  if (engine_ != Engine::kThreaded) return RunInterp(max_instructions);
  // Built here, so RunThreaded's dispatch loop carries no set-up code.
  if (sb_cache_ == nullptr) sb_cache_ = std::make_unique<SuperblockCache>();
  return RunThreaded(max_instructions);
}

RunResult Machine::RunInterp(uint64_t max_instructions) {
  if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
  if (decode_cache_.empty()) {
    // {0, Decode(0)} satisfies the cache invariant (instr == Decode(word)),
    // so no separate valid bit is needed.
    decode_cache_.assign(kDecodeCacheEntries, DecodeEntry{0, isa::Decode(0)});
  }

  for (uint64_t executed = 0; executed < max_instructions; ++executed) {
    // --- Fetch ---
    if (pc_ % 4 != 0 || static_cast<uint64_t>(pc_) + 4 > mem_size_ ||
        pc_ < image::kNullGuardEnd) {
      return FaultHere("bad fetch address");
    }
    if (exec_lo_ != exec_hi_ && (pc_ < exec_lo_ || pc_ >= exec_hi_)) {
      return FaultHere("fetch outside permitted range");
    }
    if (fetch_observer_ != nullptr) fetch_observer_->OnFetch(pc_);

    uint32_t word = 0;
    std::memcpy(&word, mem_ + pc_, 4);
    // Decode through the cache; a trap handler may rewrite code mid-step, so
    // `in` is a copy, never a reference into the cache.
    DecodeEntry& entry = decode_cache_[(pc_ >> 2) & kDecodeCacheMask];
    if (entry.word != word) {
      entry.word = word;
      entry.instr = isa::Decode(word);
      OBS_INSTANT("vm", "decode_fill", "pc", pc_);
    }
    const Instr in = entry.instr;
    ++instret_;
    uint32_t next_pc = pc_ + 4;

    // --- Execute ---
    switch (in.op) {
      case Opcode::kAlu: {
        const uint32_t a = regs_[in.rs1];
        const uint32_t b = regs_[in.rs2];
        uint32_t result = 0;
        uint32_t cost = cost_.alu;
        switch (in.funct) {
          case AluOp::kAdd: result = a + b; break;
          case AluOp::kSub: result = a - b; break;
          case AluOp::kAnd: result = a & b; break;
          case AluOp::kOr: result = a | b; break;
          case AluOp::kXor: result = a ^ b; break;
          case AluOp::kSll: result = a << (b & 31); break;
          case AluOp::kSrl: result = a >> (b & 31); break;
          case AluOp::kSra:
            result = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                           static_cast<int32_t>(b & 31));
            break;
          case AluOp::kSlt:
            result = static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
            break;
          case AluOp::kSltu: result = a < b ? 1 : 0; break;
          case AluOp::kMul:
            result = a * b;
            cost = cost_.mul;
            break;
          case AluOp::kDiv:
          case AluOp::kDivu:
          case AluOp::kRem:
          case AluOp::kRemu: {
            cost = cost_.div;
            if (b == 0) return FaultHere("division by zero");
            const int32_t sa = static_cast<int32_t>(a);
            const int32_t sb = static_cast<int32_t>(b);
            // INT_MIN / -1 overflows; define it as wrapping (result INT_MIN).
            switch (in.funct) {
              case AluOp::kDiv:
                result = (sa == INT32_MIN && sb == -1)
                             ? a
                             : static_cast<uint32_t>(sa / sb);
                break;
              case AluOp::kDivu: result = a / b; break;
              case AluOp::kRem:
                result = (sa == INT32_MIN && sb == -1)
                             ? 0
                             : static_cast<uint32_t>(sa % sb);
                break;
              case AluOp::kRemu: result = a % b; break;
              default: SC_UNREACHABLE();
            }
            break;
          }
          default: SC_UNREACHABLE() << "bad ALU funct";
        }
        set_reg(in.rd, result);
        cycles_ += cost;
        break;
      }
      case Opcode::kAddi:
        set_reg(in.rd, regs_[in.rs1] + static_cast<uint32_t>(in.imm));
        cycles_ += cost_.alu;
        break;
      case Opcode::kAndi:
        set_reg(in.rd, regs_[in.rs1] & static_cast<uint32_t>(in.imm));
        cycles_ += cost_.alu;
        break;
      case Opcode::kOri:
        set_reg(in.rd, regs_[in.rs1] | static_cast<uint32_t>(in.imm));
        cycles_ += cost_.alu;
        break;
      case Opcode::kXori:
        set_reg(in.rd, regs_[in.rs1] ^ static_cast<uint32_t>(in.imm));
        cycles_ += cost_.alu;
        break;
      case Opcode::kSlti:
        set_reg(in.rd, static_cast<int32_t>(regs_[in.rs1]) < in.imm ? 1 : 0);
        cycles_ += cost_.alu;
        break;
      case Opcode::kSltiu:
        set_reg(in.rd, regs_[in.rs1] < static_cast<uint32_t>(in.imm) ? 1 : 0);
        cycles_ += cost_.alu;
        break;
      case Opcode::kSlli:
        set_reg(in.rd, regs_[in.rs1] << (in.imm & 31));
        cycles_ += cost_.alu;
        break;
      case Opcode::kSrli:
        set_reg(in.rd, regs_[in.rs1] >> (in.imm & 31));
        cycles_ += cost_.alu;
        break;
      case Opcode::kSrai:
        set_reg(in.rd, static_cast<uint32_t>(
                           static_cast<int32_t>(regs_[in.rs1]) >> (in.imm & 31)));
        cycles_ += cost_.alu;
        break;
      case Opcode::kLui:
        set_reg(in.rd, static_cast<uint32_t>(in.imm) << 16);
        cycles_ += cost_.alu;
        break;

      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu: {
        const uint32_t vaddr = regs_[in.rs1] + static_cast<uint32_t>(in.imm);
        const uint32_t size =
            in.op == Opcode::kLw ? 4 : (in.op == Opcode::kLb || in.op == Opcode::kLbu) ? 1 : 2;
        if (!CheckDataAddr(vaddr, size)) return MakeResult(pending_stop_);
        const uint32_t paddr = TranslateData(vaddr, size, /*is_store=*/false);
        if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
        uint32_t value = 0;
        switch (in.op) {
          case Opcode::kLw: {
            std::memcpy(&value, mem_ + paddr, 4);
            break;
          }
          case Opcode::kLh: {
            int16_t v16 = 0;
            std::memcpy(&v16, mem_ + paddr, 2);
            value = static_cast<uint32_t>(static_cast<int32_t>(v16));
            break;
          }
          case Opcode::kLhu: {
            uint16_t v16 = 0;
            std::memcpy(&v16, mem_ + paddr, 2);
            value = v16;
            break;
          }
          case Opcode::kLb:
            value = static_cast<uint32_t>(
                static_cast<int32_t>(static_cast<int8_t>(mem_[paddr])));
            break;
          case Opcode::kLbu: value = mem_[paddr]; break;
          default: SC_UNREACHABLE();
        }
        set_reg(in.rd, value);
        cycles_ += cost_.load;
        break;
      }

      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb: {
        const uint32_t vaddr = regs_[in.rs1] + static_cast<uint32_t>(in.imm);
        const uint32_t size = in.op == Opcode::kSw ? 4 : in.op == Opcode::kSh ? 2 : 1;
        if (!CheckDataAddr(vaddr, size)) return MakeResult(pending_stop_);
        const uint32_t paddr = TranslateData(vaddr, size, /*is_store=*/true);
        if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
        const uint32_t value = regs_[in.rd];
        switch (in.op) {
          case Opcode::kSw: std::memcpy(mem_ + paddr, &value, 4); break;
          case Opcode::kSh: {
            const uint16_t v16 = static_cast<uint16_t>(value);
            std::memcpy(mem_ + paddr, &v16, 2);
            break;
          }
          case Opcode::kSb: mem_[paddr] = static_cast<uint8_t>(value); break;
          default: SC_UNREACHABLE();
        }
        cycles_ += cost_.store;
        break;
      }

      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu: {
        const uint32_t a = regs_[in.rs1];
        const uint32_t b = regs_[in.rs2];
        bool taken = false;
        switch (in.op) {
          case Opcode::kBeq: taken = a == b; break;
          case Opcode::kBne: taken = a != b; break;
          case Opcode::kBlt:
            taken = static_cast<int32_t>(a) < static_cast<int32_t>(b);
            break;
          case Opcode::kBge:
            taken = static_cast<int32_t>(a) >= static_cast<int32_t>(b);
            break;
          case Opcode::kBltu: taken = a < b; break;
          case Opcode::kBgeu: taken = a >= b; break;
          default: SC_UNREACHABLE();
        }
        if (taken) next_pc = isa::BranchTarget(pc_, in.imm);
        cycles_ += cost_.branch;
        break;
      }

      case Opcode::kJ:
        next_pc = isa::BranchTarget(pc_, in.imm);
        cycles_ += cost_.jump;
        break;
      case Opcode::kJal:
        set_reg(isa::kRa, pc_ + 4);
        next_pc = isa::BranchTarget(pc_, in.imm);
        cycles_ += cost_.jump;
        break;
      case Opcode::kJalr: {
        const uint32_t target = (regs_[in.rs1] + static_cast<uint32_t>(in.imm)) & ~3u;
        set_reg(in.rd, pc_ + 4);
        next_pc = target;
        cycles_ += cost_.jump;
        break;
      }

      case Opcode::kSys:
        cycles_ += cost_.syscall;
        DoSyscall(in.imm, &next_pc);
        if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
        break;

      case Opcode::kHalt:
        pending_stop_ = StopReason::kHalted;
        exit_code_ = static_cast<int32_t>(regs_[isa::kA0]);
        return MakeResult(pending_stop_);

      case Opcode::kTcMiss: {
        if (trap_handler_ == nullptr) {
          return FaultHere("TCMISS with no trap handler");
        }
        next_pc = trap_handler_->OnTcMiss(*this, static_cast<uint32_t>(in.imm));
        if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
        break;
      }
      case Opcode::kTcJalr: {
        if (trap_handler_ == nullptr) {
          return FaultHere("TCJALR with no trap handler");
        }
        cycles_ += cost_.jump;
        next_pc = trap_handler_->OnTcJalr(*this, in, pc_);
        if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
        break;
      }

      case Opcode::kIllegal:
      default:
        return FaultIllegal(word);
    }

    pc_ = next_pc;
  }
  return MakeResult(StopReason::kInstrLimit);
}

}  // namespace sc::vm
