// McServerLoop: the event-driven front end of the memory controller.
//
// The seed server was a synchronous function call: each client's transport
// invoked MemoryController::HandlePort and got the reply on the stack. This
// loop replaces that with one inbound request queue and explicit service:
//
//   * every arriving frame becomes a *ticket* on the queue;
//   * the first submitter to find the queue unpumped becomes the pumper and
//     drains it in arrival order — servicing its own ticket AND any other
//     clients' tickets queued behind it (batch drain), so exactly one frame
//     is inside the server core at a time and no server thread is spawned;
//   * threads whose tickets are queued block on a condition variable until
//     their reply is ready.
//
// Single-threaded callers (the deterministic round-robin scheduler) have at
// most one frame in flight fleet-wide, so ticket service order — and hence
// replies, wire traffic and guest execution — is a pure function of the
// run.
//
// RunExclusive is a park-all barrier (the same publish/park/resume shape as
// the threaded scheduler's inspection safepoint): out-of-band server
// mutations (crash-schedule restarts, whole-fleet snapshots) first stop new
// ticket service, wait for the in-flight handler to finish, run, then wake
// the pump back up. A restart can therefore never interleave with frame
// handling.
//
// Lock ownership (the loop side of the table in docs/DESIGN.md): ONE mutex
// (mu_) owns the queue, every flag, loop counter and the queue-wait
// histogram — no loop statistic is ever touched under two different locks.
// Handlers run with no loop lock held; the server core below has its own
// per-shard ownership (see mc.h), which direct concurrent
// MemoryController::Handle callers rely on.
//
// Observability: the loop owns the server's "loop" trace lane (one
// loop.ticket span per serviced frame; the lane opts out of the
// thread-affinity assert because exactly one pumper runs at a time). The
// host-nanosecond queue-wait histogram (enqueue -> handler entry) never
// charges guest cycles and is excluded from snapshot determinism.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"

namespace sc::obs {
class MetricsRegistry;
class Tracer;
}

namespace sc::softcache {

struct McServerLoopStats {
  uint64_t requests_enqueued = 0;  // tickets admitted to the queue
  uint64_t batches_drained = 0;    // contiguous pump drain bursts
  uint64_t max_queue_depth = 0;    // deepest the queue was ever observed
  uint64_t queue_depth_sum = 0;    // sum of queue depth-at-enqueue
  uint64_t exclusive_sections = 0; // RunExclusive invocations
  uint64_t requests_deferred = 0;  // submits parked by the queue bound
};

class McServerLoop {
 public:
  // Handles one frame arriving on a port (MemoryController::HandlePort, or
  // a test double). Invoked by exactly one thread at a time.
  using PortHandler = std::function<std::vector<uint8_t>(
      uint32_t port, const std::vector<uint8_t>& frame)>;

  // `max_queue` bounds the ticket queue (0 = unbounded). A submitter
  // arriving at a full queue defers — parks WITHOUT holding a queued ticket
  // — and retries once the queue drains below the bound, so the server's
  // memory footprint under a flood stays bounded while service always makes
  // progress.
  explicit McServerLoop(PortHandler handler, size_t max_queue = 0);

  McServerLoop(const McServerLoop&) = delete;
  McServerLoop& operator=(const McServerLoop&) = delete;

  // The switch's server handler: enqueues the frame, pumps (or waits) until
  // its reply is ready, and returns it. Safe to call from many threads.
  std::vector<uint8_t> Submit(uint32_t port, const std::vector<uint8_t>& frame);

  // Park-all barrier: stops new ticket service, waits for the in-flight
  // handler to drain, runs `fn` with the core exclusively held, then
  // resumes the pump. Used for crash-schedule restarts arriving off the
  // frame path and whole-server snapshots. Must not be called from inside a
  // handler (it would wait on itself).
  void RunExclusive(const std::function<void()>& fn);

  // Quiescent read surface: loop counters are written only under mu_; read
  // them after the run (or inside an exclusive section / safepoint).
  const McServerLoopStats& stats() const { return stats_; }
  // A copy of the loop counters taken under mu_: safe while the loop runs,
  // including from inside a handler (which runs without mu_).
  McServerLoopStats LiveStats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  // The server's "loop" trace lane (owned by the TraceMux; null = untraced).
  // The lane must have set_thread_affine(false): it is written by whichever
  // thread pumps, one at a time.
  void set_trace_lane(obs::Tracer* lane);

  // Guest-cycle timestamp (enqueuing client's lane clock) of the ticket
  // THIS thread is currently servicing; 0 when untraced. Valid only while
  // inside the PortHandler — downstream shard lanes use it to advance their
  // manual clocks causally.
  static uint64_t current_ticket_enqueue_ts();

  // Host nanoseconds each ticket spent queued before a handler took it.
  const util::Histogram& queue_wait_ns() const { return queue_wait_ns_; }

  // Registers the queue counters under `prefix` (e.g. "mc.loop.").
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  struct Ticket {
    uint32_t port = 0;
    const std::vector<uint8_t>* frame = nullptr;
    std::vector<uint8_t> reply;
    bool done = false;
    // Observability: guest-cycle time on the enqueuing thread's lane clock
    // (0 if that thread is untraced) and host enqueue time for the
    // queue-wait histogram.
    uint64_t enqueue_ts = 0;
    std::chrono::steady_clock::time_point enqueue_host;
    // Intrusive FIFO link: tickets live on their submitters' stacks, so
    // queueing one allocates nothing.
    Ticket* next = nullptr;
  };

  // Emits the ticket span + causal flow step on `lane` (null = untraced)
  // and runs the handler. Called with NO loop lock held.
  std::vector<uint8_t> Service(Ticket* t, obs::Tracer* lane);

  PortHandler handler_;
  const size_t max_queue_;

  // THE loop lock: queue, flags, stats, histogram, trace-lane pointer.
  // Mutable so const registration lambdas can lock for gauges.
  mutable std::mutex mu_;
  // Ticket completion, pump handoff, deferred admission, exclusive parking.
  std::condition_variable cv_;

  // Ticket FIFO, threaded through Ticket::next (head_ is the oldest).
  Ticket* head_ = nullptr;
  Ticket* tail_ = nullptr;
  size_t depth_ = 0;
  bool pumping_ = false;            // a submitter is draining the queue
  uint32_t exclusive_waiters_ = 0;  // RunExclusive calls waiting to park all
  bool exclusive_active_ = false;   // an exclusive section is running
  McServerLoopStats stats_;

  obs::Tracer* loop_lane_ = nullptr;  // read/written under mu_
  util::Histogram queue_wait_ns_;     // written under mu_
};

}  // namespace sc::softcache
