// McServerLoop: the event-driven front end of the memory controller.
//
// The seed server was a synchronous function call: each client's transport
// invoked MemoryController::HandlePort and got the reply on the stack. This
// loop replaces that with inbound request queues and explicit service:
//
//   * every arriving frame becomes a *ticket*, routed to a **lane** (one
//     bounded queue per memo shard when a router is installed, a single
//     lane otherwise);
//   * in the legacy borrowed-thread mode (workers = 0) the first submitter
//     to find its lane unpumped becomes the pumper and drains the lane in
//     arrival order — servicing its own ticket AND any other clients'
//     tickets queued behind it (batch drain);
//   * with a worker pool (workers >= 1) dedicated server threads drain the
//     lanes with static ownership (lane l belongs to worker l % workers),
//     so frames routed to different shards are serviced concurrently —
//     there is no core-wide lock anywhere on the frame path;
//   * threads whose tickets are queued block on a condition variable until
//     their reply is ready.
//
// Single-threaded callers (the deterministic round-robin scheduler) have at
// most one frame in flight fleet-wide, so ticket service order — and hence
// replies, wire traffic and guest execution — is identical no matter how
// many workers drain the lanes.
//
// RunExclusive is a park-all barrier (the same publish/park/resume shape as
// the threaded scheduler's inspection safepoint): out-of-band server
// mutations (crash-schedule restarts, whole-fleet snapshots) first stop new
// ticket service, wait for every in-flight handler to finish, run, then
// wake the lanes back up. A restart can therefore never interleave with
// frame handling, worker pool or not.
//
// Lock ownership (the loop side of the table in docs/DESIGN.md): ONE mutex
// (mu_) owns every queue, flag, loop counter and the queue-wait histogram —
// no loop statistic is ever touched under two different locks. Handlers run
// with no loop lock held; the server core below has its own per-shard
// ownership (see mc.h).
//
// Observability: in borrowed-thread mode the loop owns the server's "loop"
// trace lane (one loop.ticket span per serviced frame; the lane opts out of
// the thread-affinity assert because exactly one pumper runs at a time). In
// worker mode each worker owns a "worker <w>" lane and writes its tickets
// there — single writer per lane by construction. The host-nanosecond
// queue-wait histogram (enqueue -> handler entry) never charges guest
// cycles and is excluded from snapshot determinism.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace sc::obs {
class MetricsRegistry;
class Tracer;
}

namespace sc::softcache {

struct McServerLoopStats {
  uint64_t requests_enqueued = 0;  // tickets admitted to the lane queues
  uint64_t batches_drained = 0;    // contiguous drain bursts (pump or worker)
  uint64_t max_queue_depth = 0;    // deepest single lane ever observed
  uint64_t queue_depth_sum = 0;    // sum of lane depth-at-enqueue
  uint64_t exclusive_sections = 0; // RunExclusive invocations
  uint64_t requests_deferred = 0;  // submits parked by the lane bound
};

// Per-worker service counters (mc.worker<i>.* in the metrics registry).
// `frames` is deterministic for a deterministic run (frame->lane->worker is a
// pure function) and exports as a counter; `busy_ns` is host wall-clock and
// exports as a histogram of per-ticket service times, keeping it out of the
// snapshot determinism checks like every other host-time metric.
struct McWorkerStats {
  uint64_t frames = 0;   // tickets this worker serviced
  uint64_t busy_ns = 0;  // host ns spent inside the handler
  // The same time, per ticket (log2 buckets, see util::kHostNsBuckets).
  util::Histogram busy_hist_ns = util::Histogram::Log2(util::kHostNsBuckets);
};

// How the loop's queues and threads are shaped. The default reproduces the
// historical single-queue borrowed-thread pump exactly.
struct McServerLoopConfig {
  // Lane (queue) count; with a router installed this should equal the
  // server's shard count so each shard's translations queue independently.
  uint32_t lanes = 1;
  // Dedicated worker threads; 0 = borrowed-thread pump (exactly one frame
  // in the core at a time, zero threads spawned). Workers beyond the lane
  // count would never own a lane (validated at the CLI).
  uint32_t workers = 0;
  // Per-lane ticket bound (0 = unbounded). A submitter arriving at a full
  // lane defers — parks WITHOUT holding a queued ticket — and retries once
  // the lane drains below the bound, so the server's memory footprint under
  // a flood stays bounded while service always makes progress.
  size_t max_queue = 0;
};

class McServerLoop {
 public:
  // Handles one frame arriving on a port (MemoryController::HandlePort, or
  // a test double). With workers = 0 invoked by exactly one thread at a
  // time; with a worker pool invoked concurrently from different lanes (the
  // core's per-shard ownership makes that safe).
  using PortHandler = std::function<std::vector<uint8_t>(
      uint32_t port, const std::vector<uint8_t>& frame)>;

  // Maps an arriving frame to the lane that must service it (frames that
  // touch the same server slice must map to the same lane). Must be pure
  // and thread-safe; called outside every lock. Return values are folded
  // into range with `% lanes`.
  using LaneRouter = std::function<uint32_t(
      uint32_t port, const std::vector<uint8_t>& frame)>;

  // Legacy shape: one unbounded-or-bounded lane, borrowed-thread pump.
  explicit McServerLoop(PortHandler handler, size_t max_queue = 0)
      : McServerLoop(std::move(handler), nullptr,
                     McServerLoopConfig{1, 0, max_queue}) {}

  // Full shape: router + lanes + optional worker pool.
  McServerLoop(PortHandler handler, LaneRouter router,
               const McServerLoopConfig& config);

  McServerLoop(const McServerLoop&) = delete;
  McServerLoop& operator=(const McServerLoop&) = delete;

  // Stops and joins the worker pool (after completing in-flight tickets).
  ~McServerLoop();

  // The switch's server handler: enqueues the frame on its lane, pumps (or
  // waits) until its reply is ready, and returns it. Safe to call from many
  // threads.
  std::vector<uint8_t> Submit(uint32_t port, const std::vector<uint8_t>& frame);

  // Park-all barrier: stops new ticket service, waits for every in-flight
  // handler to drain, runs `fn` with the core exclusively held, then
  // resumes the lanes. Used for crash-schedule restarts arriving off the
  // frame path and whole-server snapshots. Must not be called from inside a
  // handler (it would wait on itself).
  void RunExclusive(const std::function<void()>& fn);

  // Quiescent read surface: loop counters are written only under mu_; read
  // them after the run (or inside an exclusive section / safepoint).
  const McServerLoopStats& stats() const { return stats_; }
  const std::vector<McWorkerStats>& worker_stats() const {
    return worker_stats_;
  }

  uint32_t lanes() const { return static_cast<uint32_t>(lanes_.size()); }
  uint32_t workers() const { return worker_count_; }

  // The server's "loop" trace lane (owned by the TraceMux; null = untraced),
  // used by borrowed-thread pumping. The lane must have
  // set_thread_affine(false): it is written by whichever thread pumps,
  // one at a time.
  void set_trace_lane(obs::Tracer* lane);
  // Worker `w`'s trace lane; written only by that worker's thread.
  void set_worker_trace_lane(uint32_t worker, obs::Tracer* lane);

  // Index of the worker servicing the current ticket on THIS thread, or -1
  // on non-worker threads (borrowed-thread pumping, tests). Valid inside
  // the PortHandler; lets the handler pick the worker's trace lane.
  static int current_worker();

  // Guest-cycle timestamp (enqueuing client's lane clock) of the ticket
  // THIS thread is currently servicing; 0 when untraced. Valid only while
  // inside the PortHandler — downstream shard lanes use it to advance their
  // manual clocks causally. Thread-local, so concurrent workers each see
  // their own ticket's stamp.
  static uint64_t current_ticket_enqueue_ts();

  // Host nanoseconds each ticket spent queued before a handler took it.
  const util::Histogram& queue_wait_ns() const { return queue_wait_ns_; }

  // Registers the queue counters under `prefix` (e.g. "mc.loop."), plus
  // `<prefix-root>worker<i>.*` per pool worker.
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
  };

  // One inbound queue. `pumping` is only used in borrowed-thread mode (a
  // submitter is draining this lane); worker lanes are drained by their
  // statically owning worker instead.
  struct Lane {
    std::deque<Ticket*> queue;
    bool pumping = false;
  };

  // Emits the ticket span + causal flow step on `lane` (null = untraced)
  // and runs the handler. Called with NO loop lock held.
  std::vector<uint8_t> Service(Ticket* t, obs::Tracer* lane);

  // Pops the next ticket from a lane this worker owns (round-robin over
  // owned lanes); null when none are ready or an exclusive is pending.
  // Caller holds mu_.
  Ticket* NextOwnedTicket(uint32_t worker, uint32_t* lane_out);
  // Bookkeeping shared by pump and worker pop paths. Caller holds mu_.
  void NoteDequeue(Lane* lane, Ticket* t);

  void WorkerMain(uint32_t w);

  PortHandler handler_;
  LaneRouter router_;
  const size_t max_queue_;
  // Fixed at construction BEFORE any worker thread spawns: workers read it
  // as their lane-ownership stride, and the first worker can start running
  // while the constructor is still populating threads_ — so threads_.size()
  // must never be consulted on the worker path.
  const uint32_t worker_count_;

  // THE loop lock: queues, flags, stats, histogram, trace-lane pointers.
  // Mutable so const registration lambdas can lock for gauges.
  mutable std::mutex mu_;
  // Ticket completion, pump handoff, deferred admission, exclusive parking.
  std::condition_variable cv_;
  // Worker wakeups (new ticket, exclusive finished, shutdown).
  std::condition_variable work_cv_;

  std::deque<Lane> lanes_;
  uint64_t busy_ = 0;               // threads currently inside the handler
  uint32_t exclusive_waiters_ = 0;  // RunExclusive calls waiting to park all
  bool exclusive_active_ = false;   // an exclusive section is running
  bool shutdown_ = false;
  McServerLoopStats stats_;
  std::vector<McWorkerStats> worker_stats_;

  obs::Tracer* loop_lane_ = nullptr;          // read/written under mu_
  std::vector<obs::Tracer*> worker_lanes_;    // read/written under mu_
  util::Histogram queue_wait_ns_;             // written under mu_

  std::vector<std::thread> threads_;  // the worker pool (empty = legacy)
};

}  // namespace sc::softcache
