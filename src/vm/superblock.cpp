// Superblock translation + the direct-threaded execution engine.
//
// Machine::RunThreaded lives here (it is a Machine member so the handlers
// touch regs_/mem_/cycles_ directly, exactly like the interpreter loop).
// See superblock.h for the engine contract; tests/engine_test.cpp proves
// bit-identical behavior against the interpreter on every workload, random
// programs, and self-modifying code.

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "obs/trace.h"
#include "util/check.h"
#include "vm/machine.h"

// Computed goto (direct threading) on GCC/Clang; a dense-switch fallback
// keeps the engine portable and gives a second implementation to diff
// against (-DSOFTCACHE_NO_COMPUTED_GOTO).
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SOFTCACHE_NO_COMPUTED_GOTO)
#define SC_SB_COMPUTED_GOTO 1
#else
#define SC_SB_COMPUTED_GOTO 0
#endif

namespace sc::vm {

using isa::AluOp;
using isa::Instr;
using isa::Opcode;

Engine DefaultEngine() {
  static const Engine engine = [] {
    const char* v = std::getenv("SOFTCACHE_ENGINE");
    if (v != nullptr &&
        (std::strcmp(v, "threaded") == 0 || std::strcmp(v, "superblock") == 0)) {
      return Engine::kThreaded;
    }
    return Engine::kInterp;
  }();
  return engine;
}

SuperblockCache::~SuperblockCache() {
  for (Superblock* sb : pool_) ::operator delete(sb, kSbBlockAlign);
}

Superblock* SuperblockCache::Publish(uint32_t start, uint32_t span,
                                     const SbOp* ops, uint32_t n_ops) {
  void* mem = ::operator new(sizeof(Superblock) + n_ops * sizeof(SbOp),
                             kSbBlockAlign);
  Superblock* sb = new (mem) Superblock;
  sb->start = start;
  sb->span = span;
  sb->n_ops = n_ops;
  sb->valid = true;
  std::uninitialized_copy_n(ops, n_ops, sb->ops());
  // An empty pool means Reclaim ran (or nothing was ever published): the
  // masks may still name the blocks it freed.
  if (pool_.empty()) ClearLineStarts();
  pool_.push_back(sb);
  index_.Put(start, sb);
  MarkStart(start);
  ++live_;
  if (start < lo_) lo_ = start;
  if (start + span > hi_) hi_ = start + span;
  return sb;
}

void SuperblockCache::MarkStart(uint32_t start) {
  const uint32_t line = start / kSbMaxBytes;
  if (line_starts_.empty()) {
    line_base_ = line;
    line_starts_.push_back(0);
  } else if (line < line_base_) {
    line_starts_.insert(line_starts_.begin(), line_base_ - line, 0u);
    line_base_ = line;
  } else if (line - line_base_ >= line_starts_.size()) {
    line_starts_.resize(line - line_base_ + 1, 0u);
  }
  line_starts_[line - line_base_] |= 1u << (start % kSbMaxBytes / 4);
}

void SuperblockCache::Kill(Superblock* sb, SbStats* stats) {
  sb->valid = false;
  index_.Erase(sb->start);
  // In range: MarkStart put this live block's bit in the window, which
  // never shrinks.
  line_starts_[sb->start / kSbMaxBytes - line_base_] &=
      ~(1u << (sb->start % kSbMaxBytes / 4));
  --live_;
  ++stats->invalidations;
}

bool SuperblockCache::Invalidate(uint32_t addr, uint32_t len, SbStats* stats) {
  if (live_ == 0) return false;
  const uint64_t end = static_cast<uint64_t>(addr) + len;
  if (addr >= hi_ || end <= lo_) return false;
  // Full-range hit or a huge write: cheaper to flush than to scan.
  if (addr <= lo_ && end >= hi_) {
    FlushMark(stats);
    return true;
  }
  // A block overlaps [addr, end) iff its start lies in [first, end) and
  // start + span > addr, where first is the lowest word start a
  // kSbMaxBytes-span block could reach addr from. Walk the live starts of
  // that window line by line.
  const uint64_t first =
      addr > kSbMaxBytes - 4 ? (addr - (kSbMaxBytes - 4)) & ~3u : 0;
  const uint64_t window_end =
      (line_base_ + static_cast<uint64_t>(line_starts_.size())) * kSbMaxBytes;
  const uint64_t lo_line = std::max<uint64_t>(first / kSbMaxBytes, line_base_);
  const uint64_t stop = std::min(end, window_end);
  bool any = false;
  for (uint64_t line = lo_line; line * kSbMaxBytes < stop; ++line) {
    const uint64_t base = line * kSbMaxBytes;
    uint32_t starts = line_starts_[line - line_base_];
    if (first > base) starts &= ~0u << ((first - base) / 4);
    if (end < base + kSbMaxBytes) {
      // Keep the words strictly below `end`.
      starts &= static_cast<uint32_t>((uint64_t{1} << ((end - base + 3) / 4)) - 1);
    }
    while (starts != 0) {
      const uint32_t word = static_cast<uint32_t>(std::countr_zero(starts));
      starts &= starts - 1;
      Superblock* sb = *index_.Find(static_cast<uint32_t>(base) + word * 4);
      if (sb->start + sb->span <= addr) continue;
      Kill(sb, stats);
      any = true;
    }
  }
  if (any) OBS_INSTANT("vm", "sb.invalidate", "addr", addr);
  return any;
}

void SuperblockCache::FlushMark(SbStats* stats) {
  for (Superblock* sb : pool_) sb->valid = false;
  live_ = 0;
  lo_ = UINT32_MAX;
  hi_ = 0;
  ClearLineStarts();
  reclaim_pending_ = true;
  ++stats->flushes;
  OBS_INSTANT("vm", "sb.invalidate", "addr", 0);
}

uint64_t SbDigest(const Superblock& sb) {
  // FNV-1a 64, matching the constants of softcache's ChunkDigest; only
  // semantic fields are mixed (see the declaration comment).
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(sb.start);
  mix(sb.span);
  mix(sb.n_ops);
  for (uint32_t i = 0; i < sb.n_ops; ++i) {
    const SbOp& op = sb.ops()[i];
    mix(op.pc);
    mix(static_cast<uint32_t>(op.imm));
    mix(op.cost);
    mix((static_cast<uint64_t>(op.kind) << 24) |
        (static_cast<uint64_t>(op.rd) << 16) |
        (static_cast<uint64_t>(op.rs1) << 8) | op.rs2);
  }
  return h;
}

uint32_t SuperblockCache::ScrubCorrupt(SbStats* stats,
                                       uint64_t* words_scanned) {
  uint32_t corrupt = 0;
  for (Superblock* block : pool_) {
    Superblock& sb = *block;
    if (!sb.valid) continue;
    if (words_scanned != nullptr) *words_scanned += sb.n_ops;
    if (sb.digest == SbDigest(sb)) continue;
    Kill(&sb, stats);
    ++corrupt;
  }
  if (corrupt > 0) OBS_INSTANT("vm", "sb.scrub_kill", "blocks", corrupt);
  return corrupt;
}

bool SuperblockCache::CorruptBit(util::Rng& rng) {
  if (live_ == 0) return false;
  uint64_t k = rng.Below(live_);
  for (Superblock* block : pool_) {
    Superblock& sb = *block;
    if (!sb.valid) continue;
    if (k > 0) {
      --k;
      continue;
    }
    SbOp& op = sb.ops()[rng.Below(sb.n_ops)];
    op.imm ^= static_cast<int32_t>(1u << rng.Below(32));
    return true;
  }
  return false;  // unreachable while live_ is consistent
}

namespace {

bool IsTerminator(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
    case Opcode::kJ:
    case Opcode::kJal:
    case Opcode::kJalr:
    case Opcode::kSys:
    case Opcode::kHalt:
    case Opcode::kTcMiss:
    case Opcode::kTcJalr:
    case Opcode::kIllegal:
      return true;
    default:
      return false;
  }
}

}  // namespace

void Machine::set_sb_integrity(bool on) {
  if (sb_integrity_ == on) return;
  sb_integrity_ = on;
  // Pre-existing blocks carry no stamp (or a stale toggle's stamps);
  // rebuild everything under the new policy.
  FlushSuperblocks();
}

uint32_t Machine::ScrubSuperblocks(uint64_t* words_scanned) {
  if (!sb_integrity_ || sb_cache_ == nullptr) return 0;
  const uint32_t killed = sb_cache_->ScrubCorrupt(&sb_stats_, words_scanned);
  if (killed > 0) SyncSuperblockBounds();
  return killed;
}

bool Machine::CorruptSuperblockBit(util::Rng& rng) {
  if (sb_cache_ == nullptr) return false;
  return sb_cache_->CorruptBit(rng);
}

void Machine::PoisonCodeRange(uint32_t addr, uint32_t len) {
  if (len == 0) return;
  poison_.emplace_back(addr, addr + len);
  // Existing multi-op blocks over the range must be re-formed under the cut.
  if (sb_cache_ != nullptr &&
      sb_cache_->Invalidate(addr, len, &sb_stats_)) {
    sb_interrupt_ = true;
    SyncSuperblockBounds();
  }
  OBS_INSTANT("vm", "sb.poison", "addr", addr);
}

void Machine::UnpoisonCodeRange(uint32_t addr, uint32_t len) {
  const uint64_t end = static_cast<uint64_t>(addr) + len;
  for (size_t i = 0; i < poison_.size();) {
    if (poison_[i].first >= addr && poison_[i].second <= end) {
      poison_[i] = poison_.back();
      poison_.pop_back();
    } else {
      ++i;
    }
  }
  // 1-op blocks formed under the cut stay valid — they are semantically
  // correct, just conservative — and the caller (eviction) invalidates the
  // range anyway before new code lands there.
}

Superblock* Machine::TranslateSuperblock(uint32_t start,
                                         const void* const* handlers) {
  SuperblockCache& cache = *sb_cache_;
  if (cache.pool_size() >= kSbMaxBlocks) {
    // Pool exhausted (churn backstop): mark everything dead; the dispatch
    // loop reclaims storage at its next top-of-loop.
    cache.FlushMark(&sb_stats_);
    sb_interrupt_ = true;
    SyncSuperblockBounds();
  }
  // Formed here at the maximum length, then published as an exact-size copy.
  SbOp ops[kSbMaxOps + 1];  // +1 for the synthetic fallthrough terminator
  uint32_t pc = start;
  uint32_t n = 0;
  bool terminated = false;
  while (n < kSbMaxOps) {
    // The caller validated `start`; later pcs re-run the interpreter's fetch
    // checks here so execution never needs them.
    if (pc % 4 != 0 || static_cast<uint64_t>(pc) + 4 > mem_size_ ||
        pc < image::kNullGuardEnd) {
      break;
    }
    if (exec_lo_ != exec_hi_ && (pc < exec_lo_ || pc >= exec_hi_)) break;
    // Degradation-ladder cut: a clean run never extends into a poisoned
    // word (it gets its own block), see the matching post-append cut below.
    if (!poison_.empty() && n > 0 && InPoison(pc)) break;
    uint32_t word = 0;
    std::memcpy(&word, mem_ + pc, 4);
    const Instr in = isa::Decode(word);
    SbOp& op = ops[n++];
    op.pc = pc;
    op.rd = in.rd;
    op.rs1 = in.rs1;
    op.rs2 = in.rs2;
    op.imm = in.imm;
    switch (in.op) {
      case Opcode::kAlu:
        // SbKind mirrors AluOp order (kSbAdd..kSbRemu).
        op.kind = static_cast<uint8_t>(kSbAdd + static_cast<int>(in.funct));
        op.cost = in.funct == AluOp::kMul ? cost_.mul
                  : (in.funct == AluOp::kDiv || in.funct == AluOp::kDivu ||
                     in.funct == AluOp::kRem || in.funct == AluOp::kRemu)
                      ? cost_.div
                      : cost_.alu;
        break;
      case Opcode::kAddi:
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
      case Opcode::kSlti:
      case Opcode::kSltiu:
      case Opcode::kSlli:
      case Opcode::kSrli:
      case Opcode::kSrai:
      case Opcode::kLui:
        // SbKind mirrors the opcode order kAddi..kLui.
        op.kind = static_cast<uint8_t>(
            kSbAddi + (static_cast<int>(in.op) - static_cast<int>(Opcode::kAddi)));
        op.cost = cost_.alu;
        break;
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        op.kind = static_cast<uint8_t>(
            kSbLw + (static_cast<int>(in.op) - static_cast<int>(Opcode::kLw)));
        op.cost = cost_.load;
        break;
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
        op.kind = static_cast<uint8_t>(
            kSbSw + (static_cast<int>(in.op) - static_cast<int>(Opcode::kSw)));
        op.cost = cost_.store;
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        op.kind = static_cast<uint8_t>(
            kSbBeq + (static_cast<int>(in.op) - static_cast<int>(Opcode::kBeq)));
        op.cost = cost_.branch;
        op.imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
        break;
      case Opcode::kJ:
        op.kind = kSbJ;
        op.cost = cost_.jump;
        op.imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
        break;
      case Opcode::kJal:
        op.kind = kSbJal;
        op.cost = cost_.jump;
        op.imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
        break;
      case Opcode::kJalr:
        op.kind = kSbJalr;
        op.cost = cost_.jump;
        break;
      case Opcode::kSys:
        op.kind = kSbSys;
        op.cost = cost_.syscall;
        break;
      case Opcode::kHalt:
        op.kind = kSbHalt;
        break;
      case Opcode::kTcMiss:
        op.kind = kSbTcMiss;
        break;
      case Opcode::kTcJalr:
        op.kind = kSbTcJalr;
        op.cost = cost_.jump;
        break;
      case Opcode::kIllegal:
      default:
        op.kind = kSbIllegal;
        op.imm = static_cast<int32_t>(word);  // raw word for the fault text
        break;
    }
    op.handler = handlers != nullptr ? handlers[op.kind] : nullptr;
    if (IsTerminator(in.op)) {
      terminated = true;
      pc += 4;
      break;
    }
    pc += 4;
    // Degradation-ladder cut: a poisoned op ends its block immediately, so
    // blocks over poisoned words carry exactly one real instruction and the
    // threaded engine dispatches them one at a time.
    if (!poison_.empty() && InPoison(op.pc)) break;
  }
  const uint32_t span = terminated ? pc - start : (n * 4);
  if (!terminated) {
    // Cut at kSbMaxOps or at the edge of the fetchable range: a synthetic
    // zero-instruction terminator continues at `pc` (which, if invalid, the
    // dispatch loop faults on with the interpreter's exact message).
    SbOp& op = ops[n++];
    op.pc = pc;
    op.kind = kSbFallthrough;
    op.handler = handlers != nullptr ? handlers[kSbFallthrough] : nullptr;
  }
  Superblock* sb = cache.Publish(start, span, ops, n);
  if (sb_integrity_) sb->digest = SbDigest(*sb);
  SyncSuperblockBounds();
  ++sb_stats_.fills;
  sb_stats_.fill_ops += terminated ? n : n - 1;
  OBS_INSTANT("vm", "sb.fill", "pc", start);
  return sb;
}

// --- The threaded inner loop ---
//
// Per-op bookkeeping mirrors the interpreter's exact ordering: budget check,
// FetchObserver, instret, then the semantic action with the cycle charge at
// the interpreter's position (e.g. before DoSyscall, after a load completes,
// never for a faulting divide). Everything else the interpreter does per
// instruction — fetch-address validation, the memory fetch, the decode-cache
// probe, the opcode switch, next-pc arithmetic — is gone: it happened once,
// at translation time.
//
// The retired-instruction and cycle counters live in locals (`ret`, `cyc`)
// inside the dispatch region so straight-line ALU runs touch no Machine
// members at all; SB_FLUSH publishes them before anything that can observe
// the members (fault construction, syscalls, trap handlers, the data hook,
// observers, OBS events whose tracer clock reads cycles_) and SB_RELOAD
// reacquires them after call-outs that may Charge(). pc_ is only written
// where someone can read it: fault paths, call-outs, and block exits.

#if SC_SB_COMPUTED_GOTO
#define SB_CASE(k) h_##k
#define SB_NEXT()      \
  do {                 \
    ++op;              \
    goto* op->handler; \
  } while (0)
#define SB_DISPATCH() goto* op->handler
#else
#define SB_CASE(k) case k
#define SB_NEXT()  \
  do {             \
    ++op;          \
    goto dispatch; \
  } while (0)
#define SB_DISPATCH() goto dispatch
#endif

#define SB_FLUSH() \
  do {             \
    instret_ = ret; \
    cycles_ = cyc;  \
  } while (0)

#define SB_RELOAD() \
  do {              \
    ret = instret_; \
    cyc = cycles_;  \
  } while (0)

#define SB_PRE()                                  \
  do {                                            \
    if (remaining == 0) {                         \
      pc_ = op->pc;                               \
      SB_FLUSH();                                 \
      return MakeResult(StopReason::kInstrLimit); \
    }                                             \
    --remaining;                                  \
    if (observer != nullptr) {                    \
      pc_ = op->pc;                               \
      SB_FLUSH();                                 \
      observer->OnFetch(op->pc);                  \
      SB_RELOAD();                                \
      observer = fetch_observer_;                 \
    }                                             \
    ++ret;                                        \
  } while (0)

// Binary ALU op: `a` and `b` are the operand registers.
#define SB_ALU(kind, expr)             \
  SB_CASE(kind) : {                    \
    SB_PRE();                          \
    const uint32_t a = regs_[op->rs1]; \
    const uint32_t b = regs_[op->rs2]; \
    set_reg(op->rd, (expr));           \
    cyc += op->cost;                   \
    SB_NEXT();                         \
  }

// Immediate ALU op: `a` is rs1, `imm` the decoded immediate.
#define SB_ALUI(kind, expr)            \
  SB_CASE(kind) : {                    \
    SB_PRE();                          \
    const uint32_t a = regs_[op->rs1]; \
    const int32_t imm = op->imm;       \
    set_reg(op->rd, (expr));           \
    cyc += op->cost;                   \
    SB_NEXT();                         \
  }

// Conditional branch terminator with block chaining on both edges. pc_ is
// only materialized on the unchained (dispatch-loop) path.
#define SB_BRANCH(kind, cond)                 \
  SB_CASE(kind) : {                           \
    SB_PRE();                                 \
    const uint32_t a = regs_[op->rs1];        \
    const uint32_t b = regs_[op->rs2];        \
    cyc += op->cost;                          \
    if (cond) {                               \
      Superblock* nxt = sb->taken;            \
      if (nxt != nullptr && nxt->valid) {     \
        sb = nxt;                             \
        op = sb->ops();                       \
        SB_DISPATCH();                        \
      }                                       \
      pc_ = static_cast<uint32_t>(op->imm);   \
      chain_slot = &sb->taken;                \
    } else {                                  \
      Superblock* nxt = sb->fall;             \
      if (nxt != nullptr && nxt->valid) {     \
        sb = nxt;                             \
        op = sb->ops();                       \
        SB_DISPATCH();                        \
      }                                       \
      pc_ = op->pc + 4;                       \
      chain_slot = &sb->fall;                 \
    }                                         \
    SB_FLUSH();                               \
    goto outer;                               \
  }

// A load. The fast path (no data hook over the address) validates with an
// inline predicate and reads mem_ directly — no out-of-line call, no member
// flush. The hook path mirrors the interpreter's full sequence around
// TranslateData (which may Charge miss cycles and issue RPCs whose crash
// schedules read the cycle counter).
#define SB_LOAD(kind, nbytes, read_stmt)                                 \
  SB_CASE(kind) : {                                                      \
    SB_PRE();                                                            \
    const uint32_t vaddr = regs_[op->rs1] + static_cast<uint32_t>(op->imm); \
    if (data_hook_ == nullptr || vaddr < data_hook_lo_ ||                \
        vaddr >= data_hook_hi_) {                                        \
      if (!DataAddrOk(vaddr, nbytes, mem_size_)) {                       \
        pc_ = op->pc;                                                    \
        SB_FLUSH();                                                      \
        CheckDataAddr(vaddr, nbytes);                                    \
        return MakeResult(pending_stop_);                                \
      }                                                                  \
      const uint32_t paddr = vaddr;                                      \
      read_stmt;                                                         \
      cyc += op->cost;                                                   \
      SB_NEXT();                                                         \
    }                                                                    \
    pc_ = op->pc;                                                        \
    SB_FLUSH();                                                          \
    if (!CheckDataAddr(vaddr, nbytes)) return MakeResult(pending_stop_); \
    const uint32_t paddr = TranslateData(vaddr, nbytes, false);          \
    if (pending_stop_ != StopReason::kRunning) {                         \
      return MakeResult(pending_stop_);                                  \
    }                                                                    \
    SB_RELOAD();                                                         \
    read_stmt;                                                           \
    cyc += op->cost;                                                     \
    if (sb_interrupt_) {                                                 \
      pc_ = op->pc + 4;                                                  \
      SB_FLUSH();                                                        \
      goto outer;                                                        \
    }                                                                    \
    SB_NEXT();                                                           \
  }

// A store. Both paths keep the self-modifying-code guard: a store landing
// inside the superblocked text range kills overlapping blocks (two compares
// hot, cold call on overlap) and forces a block exit if the running block
// might be stale.
#define SB_STORE(kind, nbytes, write_stmt)                               \
  SB_CASE(kind) : {                                                      \
    SB_PRE();                                                            \
    const uint32_t vaddr = regs_[op->rs1] + static_cast<uint32_t>(op->imm); \
    if (data_hook_ == nullptr || vaddr < data_hook_lo_ ||                \
        vaddr >= data_hook_hi_) {                                        \
      if (!DataAddrOk(vaddr, nbytes, mem_size_)) {                       \
        pc_ = op->pc;                                                    \
        SB_FLUSH();                                                      \
        CheckDataAddr(vaddr, nbytes);                                    \
        return MakeResult(pending_stop_);                                \
      }                                                                  \
      const uint32_t paddr = vaddr;                                      \
      write_stmt;                                                        \
      cyc += op->cost;                                                   \
      if (paddr < sb_hi_ && paddr + nbytes > sb_lo_) {                   \
        pc_ = op->pc;                                                    \
        SB_FLUSH();                                                      \
        SuperblockStoreSlow(paddr, nbytes);                              \
        if (sb_interrupt_) {                                             \
          pc_ = op->pc + 4;                                              \
          goto outer;                                                    \
        }                                                                \
      }                                                                  \
      SB_NEXT();                                                         \
    }                                                                    \
    pc_ = op->pc;                                                        \
    SB_FLUSH();                                                          \
    if (!CheckDataAddr(vaddr, nbytes)) return MakeResult(pending_stop_); \
    const uint32_t paddr = TranslateData(vaddr, nbytes, true);           \
    if (pending_stop_ != StopReason::kRunning) {                         \
      return MakeResult(pending_stop_);                                  \
    }                                                                    \
    SB_RELOAD();                                                         \
    write_stmt;                                                          \
    cyc += op->cost;                                                     \
    if (paddr < sb_hi_ && paddr + nbytes > sb_lo_) {                     \
      SB_FLUSH();                                                        \
      SuperblockStoreSlow(paddr, nbytes);                                \
    }                                                                    \
    if (sb_interrupt_) {                                                 \
      pc_ = op->pc + 4;                                                  \
      SB_FLUSH();                                                        \
      goto outer;                                                        \
    }                                                                    \
    SB_NEXT();                                                           \
  }

namespace {

// The interpreter's CheckDataAddr as a branch-free-ish predicate; the cold
// caller re-runs CheckDataAddr to build the identical fault message.
inline bool DataAddrOk(uint32_t addr, uint32_t size, uint64_t mem_size) {
  return addr >= image::kNullGuardEnd &&
         static_cast<uint64_t>(addr) + size <= mem_size &&
         (size <= 1 || addr % size == 0);
}

}  // namespace

// Cache-line aligned so the loop's code layout does not depend on what the
// linker places before it: with GCC's default 16-byte function alignment,
// unrelated edits elsewhere in this file were measured to move solo_hot by
// about 8%.
[[gnu::aligned(64)]] RunResult Machine::RunThreaded(
    uint64_t max_instructions) {
  if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);

#if SC_SB_COMPUTED_GOTO
  // Label-address table, indexed by SbKind (same order as the enum).
  const void* handler_table[kSbKindCount] = {
      &&h_kSbAdd,  &&h_kSbSub,  &&h_kSbAnd,   &&h_kSbOr,     &&h_kSbXor,
      &&h_kSbSll,  &&h_kSbSrl,  &&h_kSbSra,   &&h_kSbSlt,    &&h_kSbSltu,
      &&h_kSbMul,  &&h_kSbDiv,  &&h_kSbDivu,  &&h_kSbRem,    &&h_kSbRemu,
      &&h_kSbAddi, &&h_kSbAndi, &&h_kSbOri,   &&h_kSbXori,   &&h_kSbSlti,
      &&h_kSbSltiu, &&h_kSbSlli, &&h_kSbSrli, &&h_kSbSrai,   &&h_kSbLui,
      &&h_kSbLw,   &&h_kSbLh,   &&h_kSbLhu,   &&h_kSbLb,     &&h_kSbLbu,
      &&h_kSbSw,   &&h_kSbSh,   &&h_kSbSb,    &&h_kSbBeq,    &&h_kSbBne,
      &&h_kSbBlt,  &&h_kSbBge,  &&h_kSbBltu,  &&h_kSbBgeu,   &&h_kSbJ,
      &&h_kSbJal,  &&h_kSbJalr, &&h_kSbSys,   &&h_kSbHalt,   &&h_kSbTcMiss,
      &&h_kSbTcJalr, &&h_kSbIllegal, &&h_kSbFallthrough,
  };
  static_assert(kSbKindCount == 48, "handler table must match SbKind");
  const void* const* handlers = handler_table;
#else
  const void* const* handlers = nullptr;
#endif

  uint64_t remaining = max_instructions;
  uint64_t ret = instret_;
  uint64_t cyc = cycles_;
  FetchObserver* observer = fetch_observer_;
  Superblock* sb = nullptr;
  const SbOp* op = nullptr;
  // The chain slot of the block we just left, filled once its successor is
  // resolved so the next pass jumps block-to-block without coming back here.
  Superblock** chain_slot = nullptr;

outer:
  // Invariant here: instret_/cycles_ members are current (every goto outer
  // flushed); the locals are reacquired just before dispatch.
  sb_interrupt_ = false;
  if (sb_cache_->reclaim_pending()) {
    // No block is executing here, so dead pool storage (which chains and the
    // interrupted block may have pointed into) can finally be freed.
    chain_slot = nullptr;
    sb_cache_->Reclaim();
    SyncSuperblockBounds();
  }
  if (remaining == 0) return MakeResult(StopReason::kInstrLimit);
  if (pc_ % 4 != 0 || static_cast<uint64_t>(pc_) + 4 > mem_size_ ||
      pc_ < image::kNullGuardEnd) {
    return FaultHere("bad fetch address");
  }
  if (exec_lo_ != exec_hi_ && (pc_ < exec_lo_ || pc_ >= exec_hi_)) {
    return FaultHere("fetch outside permitted range");
  }
  sb = sb_cache_->Find(pc_);
  if (sb == nullptr) {
    const uint64_t flushes_before = sb_stats_.flushes;
    sb = TranslateSuperblock(pc_, handlers);
    // A capacity flush marked every block dead — including the one
    // chain_slot points into; drop the pending link.
    if (sb_stats_.flushes != flushes_before) chain_slot = nullptr;
  }
  if (chain_slot != nullptr) {
    *chain_slot = sb;
    ++sb_stats_.chains;
    OBS_INSTANT("vm", "sb.chain", "pc", pc_);
    chain_slot = nullptr;
  }
  observer = fetch_observer_;
  SB_RELOAD();
  op = sb->ops();
  SB_DISPATCH();

#if !SC_SB_COMPUTED_GOTO
dispatch:
  switch (static_cast<SbKind>(op->kind))
#endif
  {
    SB_ALU(kSbAdd, a + b)
    SB_ALU(kSbSub, a - b)
    SB_ALU(kSbAnd, a & b)
    SB_ALU(kSbOr, a | b)
    SB_ALU(kSbXor, a ^ b)
    SB_ALU(kSbSll, a << (b & 31))
    SB_ALU(kSbSrl, a >> (b & 31))
    SB_ALU(kSbSra, static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                         static_cast<int32_t>(b & 31)))
    SB_ALU(kSbSlt,
           static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1u : 0u)
    SB_ALU(kSbSltu, a < b ? 1u : 0u)
    SB_ALU(kSbMul, a * b)

    SB_CASE(kSbDiv) : {
      SB_PRE();
      const uint32_t a = regs_[op->rs1];
      const uint32_t b = regs_[op->rs2];
      if (b == 0) {
        pc_ = op->pc;
        SB_FLUSH();
        return FaultHere("division by zero");
      }
      const int32_t sa = static_cast<int32_t>(a);
      const int32_t sd = static_cast<int32_t>(b);
      // INT_MIN / -1 overflows; define it as wrapping (result INT_MIN).
      set_reg(op->rd, (sa == INT32_MIN && sd == -1)
                          ? a
                          : static_cast<uint32_t>(sa / sd));
      cyc += op->cost;
      SB_NEXT();
    }
    SB_CASE(kSbDivu) : {
      SB_PRE();
      const uint32_t a = regs_[op->rs1];
      const uint32_t b = regs_[op->rs2];
      if (b == 0) {
        pc_ = op->pc;
        SB_FLUSH();
        return FaultHere("division by zero");
      }
      set_reg(op->rd, a / b);
      cyc += op->cost;
      SB_NEXT();
    }
    SB_CASE(kSbRem) : {
      SB_PRE();
      const uint32_t a = regs_[op->rs1];
      const uint32_t b = regs_[op->rs2];
      if (b == 0) {
        pc_ = op->pc;
        SB_FLUSH();
        return FaultHere("division by zero");
      }
      const int32_t sa = static_cast<int32_t>(a);
      const int32_t sd = static_cast<int32_t>(b);
      set_reg(op->rd, (sa == INT32_MIN && sd == -1)
                          ? 0u
                          : static_cast<uint32_t>(sa % sd));
      cyc += op->cost;
      SB_NEXT();
    }
    SB_CASE(kSbRemu) : {
      SB_PRE();
      const uint32_t a = regs_[op->rs1];
      const uint32_t b = regs_[op->rs2];
      if (b == 0) {
        pc_ = op->pc;
        SB_FLUSH();
        return FaultHere("division by zero");
      }
      set_reg(op->rd, a % b);
      cyc += op->cost;
      SB_NEXT();
    }

    SB_ALUI(kSbAddi, a + static_cast<uint32_t>(imm))
    SB_ALUI(kSbAndi, a & static_cast<uint32_t>(imm))
    SB_ALUI(kSbOri, a | static_cast<uint32_t>(imm))
    SB_ALUI(kSbXori, a ^ static_cast<uint32_t>(imm))
    SB_ALUI(kSbSlti, static_cast<int32_t>(a) < imm ? 1u : 0u)
    SB_ALUI(kSbSltiu, a < static_cast<uint32_t>(imm) ? 1u : 0u)
    SB_ALUI(kSbSlli, a << (imm & 31))
    SB_ALUI(kSbSrli, a >> (imm & 31))
    SB_ALUI(kSbSrai,
            static_cast<uint32_t>(static_cast<int32_t>(a) >> (imm & 31)))

    SB_CASE(kSbLui) : {
      SB_PRE();
      set_reg(op->rd, static_cast<uint32_t>(op->imm) << 16);
      cyc += op->cost;
      SB_NEXT();
    }

    SB_LOAD(kSbLw, 4, {
      uint32_t value = 0;
      std::memcpy(&value, mem_ + paddr, 4);
      set_reg(op->rd, value);
    })
    SB_LOAD(kSbLh, 2, {
      int16_t v16 = 0;
      std::memcpy(&v16, mem_ + paddr, 2);
      set_reg(op->rd, static_cast<uint32_t>(static_cast<int32_t>(v16)));
    })
    SB_LOAD(kSbLhu, 2, {
      uint16_t v16 = 0;
      std::memcpy(&v16, mem_ + paddr, 2);
      set_reg(op->rd, v16);
    })
    SB_LOAD(kSbLb, 1, {
      set_reg(op->rd, static_cast<uint32_t>(static_cast<int32_t>(
                          static_cast<int8_t>(mem_[paddr]))));
    })
    SB_LOAD(kSbLbu, 1, { set_reg(op->rd, mem_[paddr]); })

    SB_STORE(kSbSw, 4, {
      const uint32_t value = regs_[op->rd];
      std::memcpy(mem_ + paddr, &value, 4);
    })
    SB_STORE(kSbSh, 2, {
      const uint16_t v16 = static_cast<uint16_t>(regs_[op->rd]);
      std::memcpy(mem_ + paddr, &v16, 2);
    })
    SB_STORE(kSbSb, 1, { mem_[paddr] = static_cast<uint8_t>(regs_[op->rd]); })

    SB_BRANCH(kSbBeq, a == b)
    SB_BRANCH(kSbBne, a != b)
    SB_BRANCH(kSbBlt, static_cast<int32_t>(a) < static_cast<int32_t>(b))
    SB_BRANCH(kSbBge, static_cast<int32_t>(a) >= static_cast<int32_t>(b))
    SB_BRANCH(kSbBltu, a < b)
    SB_BRANCH(kSbBgeu, a >= b)

    SB_CASE(kSbJ) : {
      SB_PRE();
      cyc += op->cost;
      Superblock* nxt = sb->taken;
      if (nxt != nullptr && nxt->valid) {
        sb = nxt;
        op = sb->ops();
        SB_DISPATCH();
      }
      pc_ = static_cast<uint32_t>(op->imm);
      chain_slot = &sb->taken;
      SB_FLUSH();
      goto outer;
    }
    SB_CASE(kSbJal) : {
      SB_PRE();
      set_reg(isa::kRa, op->pc + 4);
      cyc += op->cost;
      Superblock* nxt = sb->taken;
      if (nxt != nullptr && nxt->valid) {
        sb = nxt;
        op = sb->ops();
        SB_DISPATCH();
      }
      pc_ = static_cast<uint32_t>(op->imm);
      chain_slot = &sb->taken;
      SB_FLUSH();
      goto outer;
    }
    SB_CASE(kSbJalr) : {
      SB_PRE();
      const uint32_t target =
          (regs_[op->rs1] + static_cast<uint32_t>(op->imm)) & ~3u;
      set_reg(op->rd, op->pc + 4);
      cyc += op->cost;
      pc_ = target;  // dynamic target: resolve through the dispatch loop
      SB_FLUSH();
      goto outer;
    }

    SB_CASE(kSbSys) : {
      SB_PRE();
      cyc += op->cost;
      pc_ = op->pc;  // OnIcacheInvalidate receives the trapping pc
      SB_FLUSH();
      uint32_t next_pc = op->pc + 4;
      DoSyscall(op->imm, &next_pc);
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      // SYS ends the block: OnIcacheInvalidate may have evicted the very
      // code that issued it, so always re-resolve.
      pc_ = next_pc;
      goto outer;
    }
    SB_CASE(kSbHalt) : {
      SB_PRE();
      pc_ = op->pc;
      SB_FLUSH();
      pending_stop_ = StopReason::kHalted;
      exit_code_ = static_cast<int32_t>(regs_[isa::kA0]);
      return MakeResult(pending_stop_);
    }
    SB_CASE(kSbTcMiss) : {
      SB_PRE();
      pc_ = op->pc;
      SB_FLUSH();
      if (trap_handler_ == nullptr) {
        return FaultHere("TCMISS with no trap handler");
      }
      // The handler installs/patches code (killing overlapping superblocks
      // through InvalidateDecode) and returns the resume pc.
      pc_ = trap_handler_->OnTcMiss(*this, static_cast<uint32_t>(op->imm));
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      goto outer;
    }
    SB_CASE(kSbTcJalr) : {
      SB_PRE();
      pc_ = op->pc;
      if (trap_handler_ == nullptr) {
        SB_FLUSH();
        return FaultHere("TCJALR with no trap handler");
      }
      cyc += op->cost;
      SB_FLUSH();
      Instr in;
      in.op = Opcode::kTcJalr;
      in.rd = op->rd;
      in.rs1 = op->rs1;
      in.imm = op->imm;
      pc_ = trap_handler_->OnTcJalr(*this, in, op->pc);
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      goto outer;
    }
    SB_CASE(kSbIllegal) : {
      SB_PRE();
      pc_ = op->pc;
      SB_FLUSH();
      return FaultIllegal(static_cast<uint32_t>(op->imm));
    }
    SB_CASE(kSbFallthrough) : {
      // Synthetic terminator: zero instructions, just a continuation.
      Superblock* nxt = sb->fall;
      if (nxt != nullptr && nxt->valid) {
        sb = nxt;
        op = sb->ops();
        SB_DISPATCH();
      }
      pc_ = op->pc;
      chain_slot = &sb->fall;
      SB_FLUSH();
      goto outer;
    }
#if !SC_SB_COMPUTED_GOTO
    case kSbKindCount:
      break;  // never emitted by TranslateSuperblock
#endif
  }
#if !SC_SB_COMPUTED_GOTO
  SC_UNREACHABLE() << "threaded dispatch fell out of the switch";
#endif
}

#undef SB_CASE
#undef SB_NEXT
#undef SB_DISPATCH
#undef SB_FLUSH
#undef SB_RELOAD
#undef SB_PRE
#undef SB_ALU
#undef SB_ALUI
#undef SB_BRANCH
#undef SB_LOAD
#undef SB_STORE

}  // namespace sc::vm
