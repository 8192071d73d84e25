// Superblock threaded-code execution engine.
//
// The interpreter (machine.cpp) pays a fetch -> decode-cache probe -> switch
// dispatch for every retired instruction. This engine translates straight-line
// runs of decoded instructions into *superblocks* — arrays of pre-decoded ops
// ending at a control transfer (branch/jump/JALR/SYS/HALT/TCMISS/TCJALR) or at
// kSbMaxOps — and executes them with a direct-threaded inner loop (computed
// goto on GCC/Clang): no per-instruction fetch, no decode-cache probe, no
// top-level switch. Superblocks chain: a block whose branch target is already
// translated jumps straight into the successor's threaded body without going
// back through the dispatch loop.
//
// Semantics contract (proven by tests/engine_test.cpp differential runs):
// guest output, exit code, instruction count, cycle total, fault messages,
// FetchObserver stream, TrapHandler/DataHook call sequence and SetExecRange
// enforcement are bit-identical to the interpreter. Invalidation rides the
// existing InvalidateDecode plumbing — every WriteWord/WriteBlock (cache
// controller installs/patches/evictions, recovery replay, COW text writes)
// and every guest store or SYS_READ into translated text kills overlapping
// superblocks, so self-modifying code behaves exactly as under the
// interpreter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "isa/isa.h"
#include "util/open_table.h"
#include "util/rng.h"

namespace sc::vm {

// Which execution engine Machine::Run uses. The default for new machines
// comes from the SOFTCACHE_ENGINE environment variable ("threaded" or
// "interp"); unset means kInterp, keeping all existing traces bit-identical.
enum class Engine : uint8_t { kInterp = 0, kThreaded };
Engine DefaultEngine();

// One threaded handler per (opcode, ALU funct) pair, so the inner loop never
// switches on a secondary field.
enum SbKind : uint8_t {
  // kAlu, split by funct.
  kSbAdd, kSbSub, kSbAnd, kSbOr, kSbXor, kSbSll, kSbSrl, kSbSra, kSbSlt,
  kSbSltu, kSbMul, kSbDiv, kSbDivu, kSbRem, kSbRemu,
  // Immediate forms.
  kSbAddi, kSbAndi, kSbOri, kSbXori, kSbSlti, kSbSltiu, kSbSlli, kSbSrli,
  kSbSrai, kSbLui,
  // Loads / stores.
  kSbLw, kSbLh, kSbLhu, kSbLb, kSbLbu, kSbSw, kSbSh, kSbSb,
  // Terminators: every superblock ends with exactly one of these.
  kSbBeq, kSbBne, kSbBlt, kSbBge, kSbBltu, kSbBgeu,
  kSbJ, kSbJal, kSbJalr, kSbSys, kSbHalt, kSbTcMiss, kSbTcJalr, kSbIllegal,
  // Synthetic terminator for blocks cut at kSbMaxOps or at the edge of the
  // fetchable range: continues at `pc` through the dispatch loop.
  kSbFallthrough,
  kSbKindCount,
};

// A pre-decoded instruction in threaded form. `handler` is the computed-goto
// label for `kind` (null in the portable switch fallback). `imm` holds the
// sign-extended immediate, except for direct branches/jumps where it is the
// precomputed *absolute* target address and for kSbIllegal where it is the
// raw undecodable word (for the fault message).
struct SbOp {
  const void* handler = nullptr;
  uint32_t pc = 0;
  int32_t imm = 0;
  uint32_t cost = 0;  // cycle charge, from the CostModel at translation time
  uint8_t kind = 0;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
};

// Superblock length cap. Basic blocks in the bundled workloads average well
// under this; the cap only bounds per-block storage and invalidation scans.
inline constexpr uint32_t kSbMaxOps = 32;
inline constexpr uint32_t kSbMaxBytes = kSbMaxOps * 4;
// Pool bound: translating past this many blocks (live + invalidated-but-not-
// yet-reclaimed) flushes the whole cache. Far above any bundled workload's
// working set; a backstop against pathological churn.
inline constexpr uint32_t kSbMaxBlocks = 4096;

// Blocks start on a cache line, so the header (valid, chain slots) and the
// first ops, read back to back on every chained entry, share one line. In a
// perfbench solo_hot A/B against fixed 33-op slots, 16-byte-aligned blocks
// were slower in all 6 pairs and 64-byte-aligned ones faster in all 6.
inline constexpr std::align_val_t kSbBlockAlign{64};

// A block's header. Its ops follow it in the same allocation, exactly n_ops
// of them (ops()), so a block costs its length rather than a kSbMaxOps slot.
struct Superblock {
  uint32_t start = 0;   // first fetch address covered
  uint32_t span = 0;    // bytes of guest text covered (real ops only)
  uint32_t n_ops = 0;   // including the terminator
  bool valid = false;
  // Chain slots, filled lazily by the dispatch loop: the successor block for
  // the terminator's taken edge (branch taken / J / JAL) and fallthrough
  // edge (branch not taken / kSbFallthrough). A slot is followed only while
  // its target's `valid` holds, so invalidation severs chains implicitly.
  Superblock* taken = nullptr;
  Superblock* fall = nullptr;
  // Integrity stamp over the semantic op fields (SbDigest), computed at
  // translation time when Machine::set_sb_integrity is on; 0 otherwise.
  // The scrub walk (ScrubCorrupt) invalidates any block whose recomputed
  // digest mismatches, so a bit flip in the decoded form never executes.
  uint64_t digest = 0;

  SbOp* ops() { return reinterpret_cast<SbOp*>(this + 1); }
  const SbOp* ops() const { return reinterpret_cast<const SbOp*>(this + 1); }
};
static_assert(sizeof(Superblock) % alignof(SbOp) == 0,
              "ops() must start suitably aligned right after the header");

// FNV-1a over the block's semantic content: start/span/n_ops plus every
// op's pc, imm, cost, kind and register fields. Handler pointers and chain
// slots are deliberately excluded (host addresses; chains mutate benignly).
uint64_t SbDigest(const Superblock& sb);

// Counters surfaced as vm.sb.* metrics and asserted by bench_superblock.
struct SbStats {
  uint64_t fills = 0;          // superblocks translated
  uint64_t fill_ops = 0;       // ops pre-decoded into superblocks
  uint64_t chains = 0;         // chain links installed
  uint64_t invalidations = 0;  // superblocks killed by overlapping writes
  uint64_t flushes = 0;        // whole-cache flushes (capacity, exec range)
};

// The translated-block store: a stable-address pool, a start-pc index and
// per-line start masks. Each block is one exact-size heap allocation
// (header + n_ops ops); the pool lists them in translation order.
// Invalidation only *marks* blocks dead (chains and the currently executing
// block may still hold pointers into the pool); reclamation is deferred to
// the dispatch loop's next top-of-loop, when no block is executing.
//
// The line masks make invalidation cheap: for every kSbMaxBytes-aligned
// line of guest text, one bit per word records whether a live block starts
// there. A block spans at most kSbMaxBytes, so a write can only hit blocks
// starting in the one or two lines before its end; Invalidate reads those
// masks and probes the index only at starts that exist, never at the
// (len + 124) / 4 candidate words where no block starts.
class SuperblockCache {
 public:
  SuperblockCache() : index_(1024) {}
  ~SuperblockCache();
  SuperblockCache(const SuperblockCache&) = delete;
  SuperblockCache& operator=(const SuperblockCache&) = delete;

  Superblock* Find(uint32_t pc) {
    Superblock** p = index_.Find(pc);
    return p != nullptr && (*p)->valid ? *p : nullptr;
  }

  // Copies a translated block (its `n_ops` ops, terminator included) into
  // one exact-size allocation, appends it to the pool, indexes it and
  // returns it.
  Superblock* Publish(uint32_t start, uint32_t span, const SbOp* ops,
                      uint32_t n_ops);

  // Kills every block overlapping [addr, addr+len). Returns true when
  // anything died (the dispatch loop must then leave the current block).
  // A write covering every live block flushes instead (counted as a flush,
  // not as invalidations). Otherwise the cost is one mask read per line the
  // candidate starts span plus one index probe per live start among them.
  // On perfbench solo_thrash (2.1 GHz Xeon) this, together with the cache
  // controller writing each installed block once instead of word by word,
  // cut the time in here from 235-276M TSC ticks over 527K calls to
  // 38-50M over 158K calls.
  bool Invalidate(uint32_t addr, uint32_t len, SbStats* stats);

  // Integrity scrub: recomputes SbDigest over every live block and kills
  // mismatches (counted as invalidations). Returns the number killed;
  // `words_scanned` (may be null) accumulates ops walked. Only meaningful
  // when blocks were stamped (Machine::set_sb_integrity).
  uint32_t ScrubCorrupt(SbStats* stats, uint64_t* words_scanned);

  // Fault injection: flips one random bit in a uniformly chosen live
  // block's decoded immediate. Returns false when no block is live (the
  // interpreter engine, or an empty cache). Draws come only from `rng`, so
  // the caller's other fault streams are never perturbed.
  bool CorruptBit(util::Rng& rng);

  // Marks every block dead and schedules pool reclamation. Never frees
  // storage itself — see class comment.
  void FlushMark(SbStats* stats);

  bool reclaim_pending() const { return reclaim_pending_; }
  // Inline on purpose: the call sits on RunThreaded's dispatch-loop path,
  // and an out-of-line call there has been measured to tip GCC into merging
  // the per-handler indirect jumps into one shared dispatch (~30% slower).
  // Keep it exactly this small: a prototype that also reset the line masks
  // here made perfbench solo_hot 40% slower (0.84 -> 1.16 s); on this code
  // the same edit costs about 6%. The masks it leaves behind name only
  // blocks freed here, and the next Publish, finding the pool empty,
  // clears them.
  void Reclaim() {
    for (Superblock* sb : pool_) ::operator delete(sb, kSbBlockAlign);
    pool_.clear();
    index_ = util::OpenTable<uint32_t, Superblock*>(1024);
    live_ = 0;
    lo_ = UINT32_MAX;
    hi_ = 0;
    reclaim_pending_ = false;
  }

  size_t pool_size() const { return pool_.size(); }
  size_t live_blocks() const { return live_; }

  // Visits every live superblock in pool (translation) order, exposing the
  // chain graph: fn(block, taken successor, fall successor) with dead
  // successors passed as null (a chain slot is only followed while its
  // target's `valid` holds, so the view matches what dispatch would do).
  // Inspector surface; the pool is stable while no guest runs.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const Superblock* block : pool_) {
      const Superblock& sb = *block;
      if (!sb.valid) continue;
      const Superblock* taken =
          sb.taken != nullptr && sb.taken->valid ? sb.taken : nullptr;
      const Superblock* fall =
          sb.fall != nullptr && sb.fall->valid ? sb.fall : nullptr;
      fn(sb, taken, fall);
    }
  }
  // Conservative bounds of translated text, for the store fast-path check.
  uint32_t lo() const { return live_ == 0 ? UINT32_MAX : lo_; }
  uint32_t hi() const { return live_ == 0 ? 0 : hi_; }

 private:
  // Marks `sb` dead and drops it from the index and the line masks.
  void Kill(Superblock* sb, SbStats* stats);
  // Sets the start bit for `start`, growing the mask window to its line.
  void MarkStart(uint32_t start);
  void ClearLineStarts() { std::fill(line_starts_.begin(), line_starts_.end(), 0u); }

  std::vector<Superblock*> pool_;  // owned; freed only by Reclaim
  util::OpenTable<uint32_t, Superblock*> index_;  // start pc -> block
  size_t live_ = 0;
  uint32_t lo_ = UINT32_MAX;  // min start over live blocks (never shrinks)
  uint32_t hi_ = 0;           // max start+span over live blocks
  bool reclaim_pending_ = false;
  // Declared last so the members RunThreaded touches (through Reclaim and
  // reclaim_pending) keep their offsets, and with them its code layout.
  // line_starts_[i] covers the line starting at (line_base_ + i) *
  // kSbMaxBytes: bit w is set iff a live block starts at word w of it.
  std::vector<uint32_t> line_starts_;
  uint32_t line_base_ = 0;
};

}  // namespace sc::vm
