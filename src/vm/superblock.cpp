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
#include <iterator>
#include <memory>
#include <new>

#include <sanitizer/asan_interface.h>

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
  for (std::byte* chunk : chunks_) {
    ASAN_UNPOISON_MEMORY_REGION(chunk, kSbChunkBytes);
    ::operator delete(chunk, kSbBlockAlign);
  }
}

void* SuperblockCache::Carve(size_t bytes) {
  constexpr size_t kAlign = static_cast<size_t>(kSbBlockAlign);
  const size_t step = (bytes + kAlign - 1) & ~(kAlign - 1);
  if (static_cast<size_t>(limit_ - cursor_) < step) {
    if (next_chunk_ == chunks_.size()) {
      chunks_.push_back(static_cast<std::byte*>(
          ::operator new(kSbChunkBytes, kSbBlockAlign)));
      ASAN_POISON_MEMORY_REGION(chunks_.back(), kSbChunkBytes);
    }
    cursor_ = chunks_[next_chunk_++];
    limit_ = cursor_ + kSbChunkBytes;
  }
  std::byte* block = cursor_;
  cursor_ += step;
  // Only the exact size: the rounding gap stays poisoned under ASan.
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  return block;
}

#if defined(__SANITIZE_ADDRESS__)
void SuperblockCache::PoisonArena() {
  for (std::byte* chunk : chunks_) {
    ASAN_POISON_MEMORY_REGION(chunk, kSbChunkBytes);
  }
  // The index still names the dropped blocks, and Find would read their
  // (now poisoned) headers; empty it here rather than at the next Publish.
  index_.Clear();
}
#endif

Superblock* SuperblockCache::Publish(uint32_t start, uint32_t span,
                                     const SbOp* ops, uint32_t n_ops) {
  // An empty pool means Reclaim ran (or nothing was ever published): the
  // index and the masks may still name the blocks it dropped. Empty them
  // before the arena overwrites those blocks.
  if (pool_.empty()) {
    index_.Clear();
    ClearLineStarts();
  }
  void* mem = Carve(sizeof(Superblock) + n_ops * sizeof(SbOp));
  Superblock* sb = new (mem) Superblock;
  sb->start = start;
  sb->span = span;
  sb->n_ops = n_ops;
  sb->valid = true;
  sb->n_instr = static_cast<uint8_t>(span / 4);
  std::uninitialized_copy_n(ops, n_ops, sb->ops());
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
    mix(op.rest_cost);
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
    // rest_cost holds the op's own cost until the suffix pass below.
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
        op.rest_cost = in.funct == AluOp::kMul ? cost_.mul
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
        op.rest_cost = cost_.alu;
        break;
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        op.kind = static_cast<uint8_t>(
            kSbLw + (static_cast<int>(in.op) - static_cast<int>(Opcode::kLw)));
        op.rest_cost = cost_.load;
        break;
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
        op.kind = static_cast<uint8_t>(
            kSbSw + (static_cast<int>(in.op) - static_cast<int>(Opcode::kSw)));
        op.rest_cost = cost_.store;
        break;
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        op.kind = static_cast<uint8_t>(
            kSbBeq + (static_cast<int>(in.op) - static_cast<int>(Opcode::kBeq)));
        op.rest_cost = cost_.branch;
        op.imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
        break;
      case Opcode::kJ:
        op.kind = kSbJ;
        op.rest_cost = cost_.jump;
        op.imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
        break;
      case Opcode::kJal:
        op.kind = kSbJal;
        op.rest_cost = cost_.jump;
        op.imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
        break;
      case Opcode::kJalr:
        op.kind = kSbJalr;
        op.rest_cost = cost_.jump;
        break;
      case Opcode::kSys:
        op.kind = kSbSys;
        op.rest_cost = cost_.syscall;
        break;
      case Opcode::kHalt:
        op.kind = kSbHalt;
        break;
      case Opcode::kTcMiss:
        op.kind = kSbTcMiss;
        break;
      case Opcode::kTcJalr:
        op.kind = kSbTcJalr;
        op.rest_cost = cost_.jump;
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
  // Suffix sums: every op's rest_cost becomes its own cost plus all later
  // ops' (set_cost_model bounds each cost so the block total fits).
  for (uint32_t i = n - 1; i-- > 0;) ops[i].rest_cost += ops[i + 1].rest_cost;
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
// Accounting is per block. Entering a superblock, from the dispatch loop or
// by a chain hop, retires all of its instructions and charges all of its
// static cycles at once (`ret += sb->n_instr`, `cyc += ops()[0].rest_cost`)
// and tests the instruction budget once. A fast handler then does only its
// op's work and dispatches the next op: no budget test, no observer test, no
// counter update. Everything else the interpreter does per instruction —
// fetch-address validation, the memory fetch, the decode-cache probe, the
// opcode switch, next-pc arithmetic — happened once, at translation time.
//
// The counters live in locals (`ret`, `cyc`) and reach instret_/cycles_
// only where something can read the members: fault construction, syscalls,
// trap handlers, the data hook (whose crash schedule reads cycles_),
// observers, and block exits (OBS events at the dispatch loop read cycles_
// through the tracer clock). Inside a block the locals run ahead of the
// interpreter by the work it has not done yet, so every such point takes
// that back (SB_FLUSH_*): the instructions of the ops after this one
// (SB_LATER), and the cycles either from this op on (it has retired, but
// the interpreter charges it later: after a load's or store's
// TranslateData, and never for a faulting divide, data access or TCJALR)
// or from the next op on (this one is done). After a call-out that may
// Charge(), SB_RELOAD_* adds the same amount back to the members. Block
// exits publish the locals as they are.
//
// Every handler exists twice, built from the same body in
// superblock_handlers.inc: the fast set (SB_CHECKED 0) and the checked set
// (SB_CHECKED 1). Block entry (SB_ENTER) picks the checked set when the
// block does not fit the remaining budget or a FetchObserver is attached.
// Its SB_PRE runs the interpreter's per-instruction prologue in the
// interpreter's order: the budget test, which stops at the exact
// instruction, then OnFetch. The choice is made again at every block entry,
// so a run goes back to the fast set once neither condition holds, and it
// never falls back to the interpreter (or its decode cache).

#if SC_SB_COMPUTED_GOTO
#define SB_LABEL_(checked, kind) h##checked##_##kind
#define SB_LABEL(checked, kind) SB_LABEL_(checked, kind)
#define SB_CASE(kind) SB_LABEL(SB_CHECKED, kind)
#define SB_GOTO_FAST() goto* op->handler
#define SB_GOTO_CHECKED() goto* kCheckedHandlers[op->kind]
#else
#define SB_CASE(kind) case SB_CHECKED * kSbKindCount + (kind)
#define SB_GOTO_FAST() \
  do {                 \
    sel = op->kind;    \
    goto dispatch;     \
  } while (0)
#define SB_GOTO_CHECKED()          \
  do {                             \
    sel = kSbKindCount + op->kind; \
    goto dispatch;                 \
  } while (0)
#endif

// The next op of the block, on the handler set of the current one.
#define SB_NEXT()                      \
  do {                                 \
    ++op;                              \
    if (SB_CHECKED) SB_GOTO_CHECKED(); \
    SB_GOTO_FAST();                    \
  } while (0)

// Enters block `sb` at its first op: retires its instructions, charges its
// cycles, and dispatches on the checked set if the block overruns the budget
// or `watched` holds, else on the fast set.
#define SB_ENTER(watched)                               \
  do {                                                  \
    op = sb->ops();                                     \
    ret += sb->n_instr;                                 \
    cyc += op->rest_cost;                               \
    if (ret > ret_end || (watched)) [[unlikely]] {      \
      SB_GOTO_CHECKED();                                \
    }                                                   \
    SB_GOTO_FAST();                                     \
  } while (0)

// Real ops of the running block after `op` (0 at its terminator).
#define SB_LATER() \
  (uint64_t{sb->n_instr} - 1 - static_cast<uint64_t>(op - sb->ops()))

// Publishes the counters less `n` instructions and `c` cycles charged for
// work not yet done; SB_RELOAD_MORE reacquires them with the same amounts.
#define SB_FLUSH_LESS(n, c) \
  do {                      \
    instret_ = ret - (n);   \
    cycles_ = cyc - (c);    \
  } while (0)
#define SB_RELOAD_MORE(n, c) \
  do {                       \
    ret = instret_ + (n);    \
    cyc = cycles_ + (c);     \
  } while (0)

// At a block exit (after the terminator's charge): the locals are exact.
#define SB_FLUSH() SB_FLUSH_LESS(0, 0)
#define SB_RELOAD() SB_RELOAD_MORE(0, 0)
// Before `op` is fetched: the budget stop and the FetchObserver.
#define SB_FLUSH_BEFORE_OP() SB_FLUSH_LESS(SB_LATER() + 1, op->rest_cost)
#define SB_RELOAD_BEFORE_OP() SB_RELOAD_MORE(SB_LATER() + 1, op->rest_cost)
// `op` has retired, its cycle charge is still to come.
#define SB_FLUSH_AT_OP() SB_FLUSH_LESS(SB_LATER(), op->rest_cost)
#define SB_RELOAD_AT_OP() SB_RELOAD_MORE(SB_LATER(), op->rest_cost)
// `op` is done. Non-terminators only: reads the op after it.
#define SB_FLUSH_PAST_OP() SB_FLUSH_LESS(SB_LATER(), op[1].rest_cost)

// The checked set's per-op prologue; the fast set has none, because its
// block fit the budget on entry and no FetchObserver was attached.
#define SB_PRE()                                    \
  do {                                              \
    if (SB_CHECKED) {                               \
      if (ret - SB_LATER() > ret_end) {             \
        pc_ = op->pc;                               \
        SB_FLUSH_BEFORE_OP();                       \
        return MakeResult(StopReason::kInstrLimit); \
      }                                             \
      if (observer != nullptr) {                    \
        pc_ = op->pc;                               \
        SB_FLUSH_BEFORE_OP();                       \
        observer->OnFetch(op->pc);                  \
        SB_RELOAD_BEFORE_OP();                      \
        observer = fetch_observer_;                 \
      }                                             \
    }                                               \
  } while (0)

// Leaves the block along chain slot `edge` (taken or fall), resuming at
// guest pc `target`: straight into the successor while it is valid, else
// through the dispatch loop, which then fills the slot.
#define SB_EXIT_VIA(edge, target)                  \
  do {                                             \
    Superblock* nxt = sb->edge;                    \
    if (nxt != nullptr && nxt->valid) {            \
      sb = nxt;                                    \
      SB_ENTER(SB_CHECKED && observer != nullptr); \
    }                                              \
    pc_ = (target);                                \
    chain_slot = &sb->edge;                        \
    SB_FLUSH();                                    \
    goto outer;                                    \
  } while (0)

// Binary ALU op: `a` and `b` are the operand registers.
#define SB_ALU(kind, expr)             \
  SB_CASE(kind) : {                    \
    SB_PRE();                          \
    const uint32_t a = regs_[op->rs1]; \
    const uint32_t b = regs_[op->rs2]; \
    set_reg(op->rd, (expr));           \
    SB_NEXT();                         \
  }

// Divide or remainder: a zero divisor faults before the op's cycle charge,
// as in the interpreter.
#define SB_DIVIDE(kind, expr)               \
  SB_CASE(kind) : {                         \
    SB_PRE();                               \
    const uint32_t a = regs_[op->rs1];      \
    const uint32_t b = regs_[op->rs2];      \
    if (b == 0) {                           \
      pc_ = op->pc;                         \
      SB_FLUSH_AT_OP();                     \
      return FaultHere("division by zero"); \
    }                                       \
    set_reg(op->rd, (expr));                \
    SB_NEXT();                              \
  }

// Immediate ALU op: `a` is rs1, `imm` the decoded immediate.
#define SB_ALUI(kind, expr)            \
  SB_CASE(kind) : {                    \
    SB_PRE();                          \
    const uint32_t a = regs_[op->rs1]; \
    const int32_t imm = op->imm;       \
    set_reg(op->rd, (expr));           \
    SB_NEXT();                         \
  }

// Conditional branch terminator with block chaining on both edges. pc_ is
// only materialized on the unchained (dispatch-loop) path.
#define SB_BRANCH(kind, cond)                                     \
  SB_CASE(kind) : {                                               \
    SB_PRE();                                                     \
    const uint32_t a = regs_[op->rs1];                            \
    const uint32_t b = regs_[op->rs2];                            \
    if (cond) SB_EXIT_VIA(taken, static_cast<uint32_t>(op->imm)); \
    SB_EXIT_VIA(fall, op->pc + 4);                                \
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
        vaddr >= data_hook_hi_) [[likely]] {                             \
      if (!DataAddrOk(vaddr, nbytes, mem_size_)) [[unlikely]] {          \
        pc_ = op->pc;                                                    \
        SB_FLUSH_AT_OP();                                                \
        CheckDataAddr(vaddr, nbytes);                                    \
        return MakeResult(pending_stop_);                                \
      }                                                                  \
      const uint32_t paddr = vaddr;                                      \
      read_stmt;                                                         \
      SB_NEXT();                                                         \
    }                                                                    \
    pc_ = op->pc;                                                        \
    SB_FLUSH_AT_OP();                                                    \
    if (!CheckDataAddr(vaddr, nbytes)) return MakeResult(pending_stop_); \
    const uint32_t paddr = TranslateData(vaddr, nbytes, false);          \
    if (pending_stop_ != StopReason::kRunning) {                         \
      return MakeResult(pending_stop_);                                  \
    }                                                                    \
    SB_RELOAD_AT_OP();                                                   \
    read_stmt;                                                           \
    if (sb_interrupt_) {                                                 \
      pc_ = op->pc + 4;                                                  \
      SB_FLUSH_PAST_OP();                                                \
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
        vaddr >= data_hook_hi_) [[likely]] {                             \
      if (!DataAddrOk(vaddr, nbytes, mem_size_)) [[unlikely]] {          \
        pc_ = op->pc;                                                    \
        SB_FLUSH_AT_OP();                                                \
        CheckDataAddr(vaddr, nbytes);                                    \
        return MakeResult(pending_stop_);                                \
      }                                                                  \
      const uint32_t paddr = vaddr;                                      \
      write_stmt;                                                        \
      if (paddr < sb_hi_ && paddr + nbytes > sb_lo_) {                   \
        pc_ = op->pc;                                                    \
        SB_FLUSH_PAST_OP();                                              \
        SuperblockStoreSlow(paddr, nbytes);                              \
        if (sb_interrupt_) {                                             \
          pc_ = op->pc + 4;                                              \
          goto outer;                                                    \
        }                                                                \
      }                                                                  \
      SB_NEXT();                                                         \
    }                                                                    \
    pc_ = op->pc;                                                        \
    SB_FLUSH_AT_OP();                                                    \
    if (!CheckDataAddr(vaddr, nbytes)) return MakeResult(pending_stop_); \
    const uint32_t paddr = TranslateData(vaddr, nbytes, true);           \
    if (pending_stop_ != StopReason::kRunning) {                         \
      return MakeResult(pending_stop_);                                  \
    }                                                                    \
    SB_RELOAD_AT_OP();                                                   \
    write_stmt;                                                          \
    if (paddr < sb_hi_ && paddr + nbytes > sb_lo_) {                     \
      SB_FLUSH_PAST_OP();                                                \
      SuperblockStoreSlow(paddr, nbytes);                                \
    }                                                                    \
    if (sb_interrupt_) {                                                 \
      pc_ = op->pc + 4;                                                  \
      SB_FLUSH_PAST_OP();                                                \
      goto outer;                                                        \
    }                                                                    \
    SB_NEXT();                                                           \
  }

// Every SbKind in enum order, for the label-address tables.
#define SB_KINDS(X)                                                          \
  X(kSbAdd) X(kSbSub) X(kSbAnd) X(kSbOr) X(kSbXor) X(kSbSll) X(kSbSrl)       \
  X(kSbSra) X(kSbSlt) X(kSbSltu) X(kSbMul) X(kSbDiv) X(kSbDivu) X(kSbRem)    \
  X(kSbRemu) X(kSbAddi) X(kSbAndi) X(kSbOri) X(kSbXori) X(kSbSlti)           \
  X(kSbSltiu) X(kSbSlli) X(kSbSrli) X(kSbSrai) X(kSbLui) X(kSbLw) X(kSbLh)   \
  X(kSbLhu) X(kSbLb) X(kSbLbu) X(kSbSw) X(kSbSh) X(kSbSb) X(kSbBeq)          \
  X(kSbBne) X(kSbBlt) X(kSbBge) X(kSbBltu) X(kSbBgeu) X(kSbJ) X(kSbJal)      \
  X(kSbJalr) X(kSbSys) X(kSbHalt) X(kSbTcMiss) X(kSbTcJalr) X(kSbIllegal)    \
  X(kSbFallthrough)

namespace {

#define SB_KIND_ENTRY(kind) kind,
constexpr SbKind kKindOrder[] = {SB_KINDS(SB_KIND_ENTRY)};
#undef SB_KIND_ENTRY

constexpr bool KindsInEnumOrder() {
  for (size_t i = 0; i < std::size(kKindOrder); ++i) {
    if (static_cast<size_t>(kKindOrder[i]) != i) return false;
  }
  return std::size(kKindOrder) == kSbKindCount;
}
static_assert(KindsInEnumOrder(), "SB_KINDS must list every SbKind in order");

// The interpreter's CheckDataAddr as a branch-free-ish predicate; the cold
// caller re-runs CheckDataAddr to build the identical fault message.
inline bool DataAddrOk(uint32_t addr, uint32_t size, uint64_t mem_size) {
  return addr >= image::kNullGuardEnd &&
         static_cast<uint64_t>(addr) + size <= mem_size &&
         (size <= 1 || addr % size == 0);
}

// Signed divide and remainder. INT_MIN / -1 overflows; it is defined as
// wrapping (quotient INT_MIN, remainder 0).
inline uint32_t DivSigned(uint32_t a, uint32_t b) {
  const int32_t sa = static_cast<int32_t>(a);
  const int32_t sb = static_cast<int32_t>(b);
  return sa == INT32_MIN && sb == -1 ? a : static_cast<uint32_t>(sa / sb);
}
inline uint32_t RemSigned(uint32_t a, uint32_t b) {
  const int32_t sa = static_cast<int32_t>(a);
  const int32_t sb = static_cast<int32_t>(b);
  return sa == INT32_MIN && sb == -1 ? 0u : static_cast<uint32_t>(sa % sb);
}

}  // namespace

// The handler labels are 32-byte aligned (-falign-labels=32, set for this
// file in src/vm/CMakeLists.txt), which pins the loop's code layout against
// edits elsewhere; the function itself starts on a cache line, so its
// padding does not depend on where the linker places it. Measurements and
// the one layout trap left are in docs/INTERNALS.md section 9.
[[gnu::aligned(64)]] RunResult Machine::RunThreaded(
    uint64_t max_instructions) {
  if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);

#if SC_SB_COMPUTED_GOTO
  // Label-address tables, indexed by SbKind. Translation stores the fast
  // handler in each op; the checked set is reached through its table.
#define SB_FAST_ADDR(kind) &&SB_LABEL(0, kind),
#define SB_CHECKED_ADDR(kind) &&SB_LABEL(1, kind),
  static const void* const kFastHandlers[kSbKindCount] = {
      SB_KINDS(SB_FAST_ADDR)};
  static const void* const kCheckedHandlers[kSbKindCount] = {
      SB_KINDS(SB_CHECKED_ADDR)};
#undef SB_FAST_ADDR
#undef SB_CHECKED_ADDR
  const void* const* handlers = kFastHandlers;
#else
  const void* const* handlers = nullptr;
  unsigned sel = 0;  // SbKind, plus kSbKindCount on the checked set
#endif

  // The budget as a retired-instruction count: the run stops before the
  // instruction that would retire past ret_end.
  const uint64_t ret_end = max_instructions > UINT64_MAX - instret_
                               ? UINT64_MAX
                               : instret_ + max_instructions;
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
  if (instret_ >= ret_end) return MakeResult(StopReason::kInstrLimit);
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
  SB_ENTER(observer != nullptr);

#if !SC_SB_COMPUTED_GOTO
dispatch:
  switch (sel)
#endif
  {
#define SB_CHECKED 0
#include "vm/superblock_handlers.inc"
#undef SB_CHECKED
#define SB_CHECKED 1
#include "vm/superblock_handlers.inc"
#undef SB_CHECKED
  }
#if !SC_SB_COMPUTED_GOTO
  SC_UNREACHABLE() << "threaded dispatch fell out of the switch";
#endif
}

#undef SB_LABEL_
#undef SB_LABEL
#undef SB_CASE
#undef SB_GOTO_FAST
#undef SB_GOTO_CHECKED
#undef SB_NEXT
#undef SB_ENTER
#undef SB_LATER
#undef SB_FLUSH_LESS
#undef SB_RELOAD_MORE
#undef SB_FLUSH
#undef SB_RELOAD
#undef SB_FLUSH_BEFORE_OP
#undef SB_RELOAD_BEFORE_OP
#undef SB_FLUSH_AT_OP
#undef SB_RELOAD_AT_OP
#undef SB_FLUSH_PAST_OP
#undef SB_PRE
#undef SB_EXIT_VIA
#undef SB_ALU
#undef SB_DIVIDE
#undef SB_ALUI
#undef SB_BRANCH
#undef SB_LOAD
#undef SB_STORE
#undef SB_KINDS

}  // namespace sc::vm
