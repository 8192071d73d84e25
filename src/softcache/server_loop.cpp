#include "softcache/server_loop.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "softcache/protocol.h"
#include "util/check.h"

namespace sc::softcache {

namespace {

// Thread-local service context: which pool worker (if any) this thread is,
// and the enqueue timestamp of the ticket it is currently inside. Thread-
// local (not members) because several workers service tickets concurrently.
thread_local int tls_worker = -1;
thread_local uint64_t tls_enqueue_ts = 0;

}  // namespace

McServerLoop::McServerLoop(PortHandler handler, LaneRouter router,
                           const McServerLoopConfig& config)
    : handler_(std::move(handler)),
      router_(std::move(router)),
      max_queue_(config.max_queue),
      worker_count_(config.workers),
      lanes_(std::max<uint32_t>(config.lanes, 1)),
      worker_stats_(config.workers),
      worker_lanes_(config.workers, nullptr),
      // Queue waits are host time: sub-microsecond uncontended, tens of
      // microseconds when many client threads arrive at once, milliseconds
      // under steal. Log2 buckets resolve all of them to a factor of two.
      queue_wait_ns_(util::Histogram::Log2(util::kHostNsBuckets)) {
  SC_CHECK(handler_ != nullptr) << "McServerLoop needs a port handler";
  threads_.reserve(config.workers);
  for (uint32_t w = 0; w < config.workers; ++w) {
    threads_.emplace_back([this, w] { WorkerMain(w); });
  }
}

McServerLoop::~McServerLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int McServerLoop::current_worker() { return tls_worker; }

uint64_t McServerLoop::current_ticket_enqueue_ts() { return tls_enqueue_ts; }

void McServerLoop::set_trace_lane(obs::Tracer* lane) {
  std::lock_guard<std::mutex> lock(mu_);
  loop_lane_ = lane;
}

void McServerLoop::set_worker_trace_lane(uint32_t worker, obs::Tracer* lane) {
  std::lock_guard<std::mutex> lock(mu_);
  SC_CHECK_LT(worker, worker_lanes_.size()) << "no such worker";
  worker_lanes_[worker] = lane;
}

std::vector<uint8_t> McServerLoop::Service(Ticket* t, obs::Tracer* lane) {
  if (lane == nullptr || !lane->recording()) {
    tls_enqueue_ts = 0;
    return handler_(t->port, *t->frame);
  }
  // Service lanes run on manual clocks: raise this one to the ticket's
  // guest-cycle enqueue time so the span sorts causally after the client
  // events that produced the frame.
  tls_enqueue_ts = t->enqueue_ts;
  lane->AdvanceClockFloor(t->enqueue_ts);
  lane->Begin("loop", "ticket", "port", t->port);
  // A traced miss (nonzero rid nibble) gets its causal arrow routed through
  // this ticket slice.
  if (const uint32_t rid = PeekFrameRid(*t->frame); rid != 0) {
    lane->FlowStep("flow", "miss", FlowId(PeekFrameClientId(*t->frame), rid));
  }
  std::vector<uint8_t> reply = handler_(t->port, *t->frame);
  lane->End("loop", "ticket");
  tls_enqueue_ts = 0;
  return reply;
}

void McServerLoop::NoteDequeue(Lane* lane, Ticket* t) {
  // Dropping below the bound re-admits one deferred submitter.
  if (max_queue_ != 0 && lane->queue.size() + 1 == max_queue_) {
    cv_.notify_all();
  }
  queue_wait_ns_.Add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t->enqueue_host)
          .count()));
}

McServerLoop::Ticket* McServerLoop::NextOwnedTicket(uint32_t worker,
                                                    uint32_t* lane_out) {
  if (exclusive_active_ || exclusive_waiters_ != 0) return nullptr;
  const uint32_t n = static_cast<uint32_t>(lanes_.size());
  const uint32_t workers_n = worker_count_;
  // Static ownership: worker w drains exactly the lanes congruent to w
  // modulo the pool size, so a given lane — hence a given memo shard and
  // its trace lane — is only ever touched by one worker thread.
  for (uint32_t l = worker; l < n; l += workers_n) {
    if (!lanes_[l].queue.empty()) {
      Ticket* t = lanes_[l].queue.front();
      lanes_[l].queue.pop_front();
      NoteDequeue(&lanes_[l], t);
      *lane_out = l;
      return t;
    }
  }
  return nullptr;
}

void McServerLoop::WorkerMain(uint32_t w) {
  tls_worker = static_cast<int>(w);
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t burst = 0;  // tickets serviced since the last idle wait
  for (;;) {
    if (shutdown_) return;
    uint32_t lane_index = 0;
    Ticket* t = NextOwnedTicket(w, &lane_index);
    if (t == nullptr) {
      if (burst != 0) {
        ++stats_.batches_drained;
        burst = 0;
      }
      work_cv_.wait(lock);
      continue;
    }
    ++busy_;
    obs::Tracer* lane = worker_lanes_[w];
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    std::vector<uint8_t> reply = Service(t, lane);
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    lock.lock();
    --busy_;
    ++burst;
    worker_stats_[w].frames++;
    worker_stats_[w].busy_ns += ns;
    worker_stats_[w].busy_hist_ns.Add(static_cast<double>(ns));
    t->reply = std::move(reply);
    t->done = true;
    // Wakes the ticket's submitter, deferred submitters, and any exclusive
    // waiting for busy_ to reach zero.
    cv_.notify_all();
  }
}

std::vector<uint8_t> McServerLoop::Submit(uint32_t port,
                                          const std::vector<uint8_t>& frame) {
  Ticket ticket;
  ticket.port = port;
  ticket.frame = &frame;
  // Stamp the enqueue moment: guest cycles from the enqueuing thread's own
  // trace lane (its clock — no cross-thread reads), host time for the
  // queue-wait histogram.
  if (obs::Tracer* lane = obs::tracer();
      lane != nullptr && lane->recording()) {
    ticket.enqueue_ts = lane->CurrentTimestamp();
  }
  ticket.enqueue_host = std::chrono::steady_clock::now();

  // Route outside every lock; garbage frames fold to lane 0 and get their
  // error reply from whichever slice services them.
  uint32_t lane_index = 0;
  if (router_ != nullptr && lanes_.size() > 1) {
    lane_index = router_(port, frame) % static_cast<uint32_t>(lanes_.size());
  }

  std::unique_lock<std::mutex> lock(mu_);
  Lane& lane = lanes_[lane_index];
  // Backpressure: defer while this lane sits at its bound. The waiter holds
  // no queued ticket, so service (the pump, or the lane's owning worker)
  // always has a live thread to drain the lane — deferral cannot deadlock.
  // The single-threaded schedulers never defer: their depth is at most 1.
  if (max_queue_ != 0 && lane.queue.size() >= max_queue_) {
    ++stats_.requests_deferred;
    cv_.wait(lock, [&] { return lane.queue.size() < max_queue_; });
  }
  lane.queue.push_back(&ticket);
  ++stats_.requests_enqueued;
  stats_.queue_depth_sum += lane.queue.size();
  stats_.max_queue_depth =
      std::max<uint64_t>(stats_.max_queue_depth, lane.queue.size());

  if (worker_count_ != 0) {
    // Worker pool: hand the ticket to the lane's owner and wait.
    work_cv_.notify_all();
    cv_.wait(lock, [&] { return ticket.done; });
    return std::move(ticket.reply);
  }

  // Borrowed-thread mode: pump the lane ourselves (or wait for the thread
  // already pumping it to complete our ticket).
  while (!ticket.done) {
    if (exclusive_active_ || exclusive_waiters_ != 0) {
      // An exclusive section is running or parked waiting: don't start new
      // service until it has finished (it would starve otherwise).
      cv_.wait(lock);
    } else if (!lane.pumping) {
      // Become the pumper: drain the lane in arrival order. Tickets that
      // arrive while we are inside the server core are seen on the next
      // iteration (the queue is re-checked under mu_ every pass), so one
      // drain services every frame queued behind ours too.
      lane.pumping = true;
      while (!lane.queue.empty() && !exclusive_active_ &&
             exclusive_waiters_ == 0) {
        Ticket* t = lane.queue.front();
        lane.queue.pop_front();
        NoteDequeue(&lane, t);
        ++busy_;
        obs::Tracer* trace = loop_lane_;
        lock.unlock();
        std::vector<uint8_t> reply = Service(t, trace);
        lock.lock();
        --busy_;
        t->reply = std::move(reply);
        t->done = true;
      }
      lane.pumping = false;
      ++stats_.batches_drained;
      cv_.notify_all();
    } else {
      // Another thread is pumping this lane; it will complete our ticket.
      cv_.wait(lock);
    }
  }
  return std::move(ticket.reply);
}

void McServerLoop::RunExclusive(const std::function<void()>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.exclusive_sections;
  // Park-all: raising exclusive_waiters_ stops pumpers and workers from
  // starting new tickets; busy_ reaching zero means every in-flight handler
  // has drained. Concurrent exclusives serialize on exclusive_active_.
  ++exclusive_waiters_;
  cv_.wait(lock, [this] { return !exclusive_active_ && busy_ == 0; });
  --exclusive_waiters_;
  exclusive_active_ = true;
  lock.unlock();
  fn();
  lock.lock();
  exclusive_active_ = false;
  // Resume the lanes: wake parked pumpers/submitters and idle workers.
  cv_.notify_all();
  work_cv_.notify_all();
}

void McServerLoop::RegisterMetrics(obs::MetricsRegistry* registry,
                                   const std::string& prefix) const {
  registry->RegisterCounter(prefix + "requests_enqueued",
                            &stats_.requests_enqueued);
  registry->RegisterCounter(prefix + "batches_drained",
                            &stats_.batches_drained);
  registry->RegisterCounter(prefix + "max_queue_depth",
                            &stats_.max_queue_depth);
  registry->RegisterCounter(prefix + "queue_depth_sum",
                            &stats_.queue_depth_sum);
  registry->RegisterCounter(prefix + "exclusive_sections",
                            &stats_.exclusive_sections);
  registry->RegisterCounter(prefix + "requests_deferred",
                            &stats_.requests_deferred);
  registry->RegisterGauge(prefix + "queue_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t depth = 0;
    for (const Lane& lane : lanes_) depth += lane.queue.size();
    return static_cast<double>(depth);
  });
  registry->RegisterGauge(prefix + "avg_queue_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_.requests_enqueued == 0
               ? 0.0
               : static_cast<double>(stats_.queue_depth_sum) /
                     static_cast<double>(stats_.requests_enqueued);
  });
  // Host-time histogram: excluded from snapshot determinism on purpose.
  registry->RegisterHistogram(prefix + "queue_wait_ns", &queue_wait_ns_);
  // Per-pool-worker service counters: mc.worker<i>.* alongside mc.loop.*.
  // The vector is sized once in the constructor, so the addresses are
  // stable for the registry's whole lifetime.
  const std::string root = prefix.substr(0, prefix.find('.') + 1);
  for (size_t w = 0; w < worker_stats_.size(); ++w) {
    const std::string wp = root + "worker" + std::to_string(w) + ".";
    registry->RegisterCounter(wp + "frames", &worker_stats_[w].frames);
    // Host wall-clock, so a histogram (per-ticket service ns): host-time
    // metrics stay out of the scalar snapshot determinism checks.
    registry->RegisterHistogram(wp + "busy_ns",
                                &worker_stats_[w].busy_hist_ns);
  }
}

}  // namespace sc::softcache
