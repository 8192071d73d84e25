// The flat physical memory map used by every component of the simulation.
//
//   0x0000_0000 .. 0x0000_0fff   null guard (any access faults)
//   0x0001_0000 .. text          program text as linked (the "server copy";
//                                in softcache mode the client never fetches
//                                from here)
//   0x0010_0000 .. data/bss      initialized globals then zeroed bss
//   heap                         grows up from the end of bss (SYS_BRK)
//   0x00ff_fff0                  initial stack pointer, stack grows down
//   0x0100_0000 .. local         the embedded client's on-chip local memory;
//                                the tcache, stub table, scache and dcache
//                                arrays live here in softcache mode
//
// The map spans kDefaultMemBytes (18 MB), but a vm::Machine backs it with
// demand-zero memory: a client costs host RSS only for the pages it writes
// (its image, the heap and stack it uses, its local memory), and any host
// access past the end hits a guard page.
#pragma once

#include <cstdint>

namespace sc::image {

inline constexpr uint32_t kNullGuardEnd = 0x0000'1000;
inline constexpr uint32_t kTextBase = 0x0001'0000;
inline constexpr uint32_t kDataBase = 0x0010'0000;
inline constexpr uint32_t kStackTop = 0x00ff'fff0;
inline constexpr uint32_t kLocalBase = 0x0100'0000;
inline constexpr uint32_t kLocalLimit = 0x0110'0000;  // up to 1 MB of local memory
inline constexpr uint32_t kDefaultMemBytes = 0x0120'0000;

}  // namespace sc::image
