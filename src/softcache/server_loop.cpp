#include "softcache/server_loop.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "softcache/protocol.h"
#include "util/check.h"

namespace sc::softcache {

namespace {

// Enqueue timestamp of the ticket this thread is currently inside (whichever
// submitter is pumping), read by the handler through
// current_ticket_enqueue_ts().
thread_local uint64_t tls_enqueue_ts = 0;

}  // namespace

McServerLoop::McServerLoop(PortHandler handler, size_t max_queue)
    : handler_(std::move(handler)),
      max_queue_(max_queue),
      // Queue waits are host time: sub-microsecond uncontended, tens of
      // microseconds when many client threads arrive at once, milliseconds
      // under steal. Log2 buckets resolve all of them to a factor of two.
      queue_wait_ns_(util::Histogram::Log2(util::kHostNsBuckets)) {
  SC_CHECK(handler_ != nullptr) << "McServerLoop needs a port handler";
}

uint64_t McServerLoop::current_ticket_enqueue_ts() { return tls_enqueue_ts; }

void McServerLoop::set_trace_lane(obs::Tracer* lane) {
  std::lock_guard<std::mutex> lock(mu_);
  loop_lane_ = lane;
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

  std::unique_lock<std::mutex> lock(mu_);
  // Backpressure: defer while the queue sits at its bound. The waiter holds
  // no queued ticket, so the pumper always has a live thread to drain the
  // queue — deferral cannot deadlock. The single-threaded schedulers never
  // defer: their depth is at most 1.
  if (max_queue_ != 0 && depth_ >= max_queue_) {
    ++stats_.requests_deferred;
    cv_.wait(lock, [&] { return depth_ < max_queue_; });
  }
  if (tail_ == nullptr) {
    head_ = &ticket;
  } else {
    tail_->next = &ticket;
  }
  tail_ = &ticket;
  ++depth_;
  ++stats_.requests_enqueued;
  stats_.queue_depth_sum += depth_;
  stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth, depth_);

  // Pump the queue ourselves, or wait for the thread already pumping it to
  // complete our ticket.
  while (!ticket.done) {
    if (exclusive_active_ || exclusive_waiters_ != 0) {
      // An exclusive section is running or parked waiting: don't start new
      // service until it has finished (it would starve otherwise).
      cv_.wait(lock);
    } else if (!pumping_) {
      // Become the pumper: drain the queue in arrival order. Tickets that
      // arrive while we are inside the server core are seen on the next
      // iteration (the queue is re-checked under mu_ every pass), so one
      // drain services every frame queued behind ours too.
      pumping_ = true;
      while (head_ != nullptr && exclusive_waiters_ == 0) {
        Ticket* t = head_;
        head_ = t->next;
        if (head_ == nullptr) tail_ = nullptr;
        --depth_;
        // Dropping below the bound re-admits one deferred submitter.
        if (max_queue_ != 0 && depth_ + 1 == max_queue_) {
          cv_.notify_all();
        }
        queue_wait_ns_.Add(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t->enqueue_host)
                .count()));
        obs::Tracer* trace = loop_lane_;
        lock.unlock();
        std::vector<uint8_t> reply = Service(t, trace);
        lock.lock();
        t->reply = std::move(reply);
        t->done = true;
      }
      pumping_ = false;
      ++stats_.batches_drained;
      // Wakes completed submitters, deferred submitters, and an exclusive
      // waiting for the pump to stop.
      cv_.notify_all();
    } else {
      // Another thread is pumping; it will complete our ticket.
      cv_.wait(lock);
    }
  }
  return std::move(ticket.reply);
}

void McServerLoop::RunExclusive(const std::function<void()>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.exclusive_sections;
  // Park-all: raising exclusive_waiters_ stops the pumper before its next
  // ticket; pumping_ dropping means the in-flight handler has drained.
  // Concurrent exclusives serialize on exclusive_active_.
  ++exclusive_waiters_;
  cv_.wait(lock, [this] { return !exclusive_active_ && !pumping_; });
  --exclusive_waiters_;
  exclusive_active_ = true;
  lock.unlock();
  fn();
  lock.lock();
  exclusive_active_ = false;
  // Resume: wake parked submitters so one of them takes up the pump.
  cv_.notify_all();
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
    return static_cast<double>(depth_);
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
}

}  // namespace sc::softcache
