// MultiClientSystem: the full client/server stack, wired end to end.
//
// One MemoryController serves N cache controllers through a net::Switch and
// the McServerLoop event loop; each client owns its Machine, Channel and
// CacheController. A single client is a fleet of one, so every caller —
// tests, paper-figure benches, examples, srun — runs this one orchestrator.
// The pieces remain individually constructible for finer-grained
// experiments.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "image/image.h"
#include "net/channel.h"
#include "net/switch.h"
#include "obs/metrics.h"
#include "obs/trace_mux.h"
#include "softcache/cc.h"
#include "softcache/config.h"
#include "softcache/mc.h"
#include "softcache/server_loop.h"
#include "vm/machine.h"

namespace sc::softcache {

// Runs `image` natively (no software cache) with the given input; the
// baseline every benchmark normalizes against.
vm::RunResult RunNative(const image::Image& image, const std::string& input,
                        std::string* output = nullptr,
                        uint64_t max_instructions = UINT64_MAX);

// Scheduler quantum, in guest instructions: one round-robin step, and the
// integrity tick cadence under every scheduler. Quantum boundaries sit at
// absolute multiples of this count, so a run resumed from any budget ticks
// exactly where an uninterrupted run does.
inline constexpr uint64_t kQuantumInstructions = 1024;

struct MultiClientConfig {
  // Number of clients (each gets its own Machine/Channel/CC and the MC
  // session whose id equals its index). Bounded by the 12-bit wire id.
  uint32_t clients = 1;
  // The per-client configuration template. client_id and transport_factory
  // are overridden per client (each client gets its index as id and a
  // transport over its own switch port); everything else applies verbatim
  // to every client.
  SoftCacheConfig base;
  // Optional per-client fault schedules: client i uses client_faults[i]
  // when present, base.fault otherwise. Lets each client carry its own
  // seeded loss/crash schedule (crashes restart only that client's
  // session).
  std::vector<net::FaultConfig> client_faults;
  // Server-core tuning: memo shards, memo bound, published-digest window.
  McServerConfig server;
  // Host threads running client VMs: 0/1 = the deterministic guest-cycle
  // round-robin scheduler (single host thread; traces, metrics and wire
  // traffic reproduce bit-identically). >1 = each client VM runs to
  // completion on a pool of this many host threads, with server access
  // serialized through the event loop. Guest results stay solo-identical
  // either way; what threading changes is the host-side interleaving, so
  // cross-client cycle comparisons are meaningless. Tracing works under
  // both schedulers once AttachTraceMux has split the instrumentation into
  // thread-confined per-agent lanes; only the lane interleaving (not any
  // guest-visible result) varies with threading.
  uint32_t host_threads = 0;
};

// CLI-level validation of a --clients value: [1, kMaxClients], returning an
// error string instead of crashing (the MultiClientSystem constructor treats
// violations as programmer error and SC_CHECKs).
inline bool ValidateClientCount(int64_t clients, std::string* error) {
  if (clients < 1) {
    *error = "clients must be >= 1";
    return false;
  }
  if (clients > static_cast<int64_t>(kMaxClients)) {
    *error = "clients must be <= " + std::to_string(kMaxClients) +
             " (12-bit wire id space)";
    return false;
  }
  return true;
}

// CLI-level validation of --shards: [1, kMaxClients]. NO silent clamping:
// an out-of-range count is a clean error the CLI turns into exit 2.
inline bool ValidateServerParallelism(int64_t shards, std::string* error) {
  if (shards < 1) {
    *error = "shards must be >= 1 (the server core needs at least one slice)";
    return false;
  }
  if (shards > static_cast<int64_t>(kMaxClients)) {
    *error = "shards must be <= " + std::to_string(kMaxClients);
    return false;
  }
  return true;
}

// N independent guest machines (N >= 1) sharing ONE MemoryController
// through a net::Switch, interleaved by a deterministic guest-cycle
// round-robin scheduler: each step runs the machine whose clock is furthest
// behind (ties break to the lowest index) for one quantum. Because every
// client owns disjoint server-side session state and its own
// channel/transport, each client's guest execution is bit-identical to its
// solo run — the sharing shows up only in server-side work (memoized
// translations). A solo run is `MultiClientSystem system(img, {.base = cfg})`.
class MultiClientSystem {
 public:
  // The image must outlive the system.
  explicit MultiClientSystem(const image::Image& image,
                             const MultiClientConfig& config = {});

  void SetInput(size_t client, std::vector<uint8_t> input) {
    clients_[client].machine->SetInput(std::move(input));
  }
  void SetInput(size_t client, const std::string& input) {
    SetInput(client, std::vector<uint8_t>(input.begin(), input.end()));
  }

  // Runs every client to halt/fault or until it has retired
  // `max_instructions_each` instructions in total (an absolute budget, not
  // "this many more"). A client stopped only by the budget resumes on the
  // next call with a larger one. Returns one result per client. When
  // exactly one client is still running and neither integrity ticks nor an
  // inspection hook need a quantum boundary, that client runs to its budget
  // in one Machine::Run call — there is nobody to interleave it with.
  std::vector<vm::RunResult> RunAll(uint64_t max_instructions_each = UINT64_MAX);

  // End-of-run barrier: per-client Session::Synchronize for every client
  // running under a crash schedule. Returns false if any client failed.
  bool SyncSessions();

  size_t clients() const { return clients_.size(); }
  vm::Machine& machine(size_t client) { return *clients_[client].machine; }
  CacheController& cc(size_t client) { return *clients_[client].cc; }
  net::Channel& channel(size_t client) { return *clients_[client].channel; }
  MemoryController& mc() { return *mc_; }
  const MemoryController& mc() const { return *mc_; }
  net::Switch& net_switch() { return switch_; }
  McServerLoop& server_loop() { return loop_; }
  std::string OutputString(size_t client) const {
    return clients_[client].machine->OutputString();
  }

  // Per-client metrics (cc.evictions, net.channel.bytes_to_server,
  // vm.instructions, ...) plus the shared server under "mc." (aggregates,
  // memo stats, per-session s<id>.* counters and heat tables, the event
  // loop under mc.loop.) and the switch frame counter. Per-client names
  // carry a "c<i>." prefix (c0.cc.evictions) only when the system has more
  // than one client.
  void RegisterMetrics(obs::MetricsRegistry* registry) const;

  // --- Fleet observability wiring ---

  // Splits instrumentation into per-agent trace lanes inside `mux`: one
  // lane per client VM (process "client <i>", pid i+1, clocked by that
  // machine's guest cycle counter) plus server lanes (the event loop at
  // pid 0 tid 0 and one lane per memo shard at pid 0 tid 1+s, all on
  // manual clocks advanced to each ticket's guest-cycle enqueue stamp).
  // The schedulers install the matching lane into the thread-local tracer
  // slot around every client step and every server dispatch, so each lane
  // stays thread-confined even under host_threads > 1. Call once, before
  // RunAll; `mux` must outlive this system. Enabling the lanes (and
  // exporting the merged trace) is the caller's job via the mux.
  void AttachTraceMux(obs::TraceMux* mux);

  // Periodic live inspection: `hook` runs every time the fleet-min guest
  // cycle count (min over unfinished clients) crosses a multiple of
  // `every_cycles`, with every client VM quiescent — the round-robin
  // scheduler calls it between steps; the threaded scheduler parks all
  // workers at quantum boundaries first (a fleet-wide safepoint), so the
  // hook may freely read any client or server state. Pass 0 to disable.
  using InspectionHook = std::function<void(uint64_t fleet_min_cycles)>;
  void set_inspection_hook(uint64_t every_cycles, InspectionHook hook) {
    inspect_every_ = every_cycles;
    inspection_hook_ = std::move(hook);
  }

  // Runs after a crash-schedule restart of `client_id`'s session, while the
  // server core is still exclusively held (other clients keep running, so
  // only server-side state may be read: a server-only inspection scope).
  using RecoveryHook = std::function<void(uint32_t client_id)>;
  void set_recovery_hook(RecoveryHook hook) {
    recovery_hook_ = std::move(hook);
  }

 private:
  struct Client {
    std::unique_ptr<vm::Machine> machine;
    std::unique_ptr<net::Channel> channel;
    std::unique_ptr<CacheController> cc;
    bool attached = false;
    bool done = false;  // halted or faulted (a budget stop is not done)
    vm::RunResult result;
  };

  // A client RunAll still has to step: neither halted/faulted nor at its
  // absolute instruction budget.
  static bool Runnable(const Client& client, uint64_t max_instructions_each) {
    return !client.done &&
           client.machine->instructions() < max_instructions_each;
  }
  // The two RunAll schedulers: the deterministic guest-cycle round-robin
  // on the calling thread, and each client run to its budget on a pool of
  // config.host_threads host threads.
  void RunAllRoundRobin(uint64_t max_instructions_each);
  void RunAllThreaded(uint64_t max_instructions_each);
  // Broadcast-medium snoop: parses one reply frame and feeds every client's
  // content store (shared_reply mode only).
  void SnoopReply(const std::vector<uint8_t>& reply_bytes);
  // Picks the server lane a dispatched frame's spans belong in: the shard
  // lane for chunk-translate requests, the loop lane for everything else.
  // Null when no mux is attached.
  obs::Tracer* ServerLaneForFrame(const std::vector<uint8_t>& frame) const;
  // Round-robin-scheduler half of the periodic-inspection contract: fires
  // the hook whenever the fleet-min cycle count crossed the next threshold.
  void MaybeInspectRoundRobin();

  MultiClientConfig config_;
  std::unique_ptr<MemoryController> mc_;
  McServerLoop loop_;
  net::Switch switch_;
  std::vector<Client> clients_;

  // Observability (all null/zero unless AttachTraceMux / the hook setters
  // ran): non-owning lane pointers into the attached mux.
  std::vector<obs::Tracer*> client_lanes_;
  obs::Tracer* loop_lane_ = nullptr;
  std::vector<obs::Tracer*> shard_lanes_;
  uint64_t inspect_every_ = 0;
  uint64_t next_inspect_at_ = 0;
  InspectionHook inspection_hook_;
  RecoveryHook recovery_hook_;
};

}  // namespace sc::softcache
