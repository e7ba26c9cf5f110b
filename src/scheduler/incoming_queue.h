// The incoming queue of Figure 1: client workers append, the scheduler
// drains in batch when the trigger fires.
//
// Thread-safety: multi-producer, single-consumer. Any number of submitter
// threads may Push()/PushBatch() concurrently; DrainAll() is meant for the
// one thread that owns the scheduler's cycles (it is mutex-safe against
// concurrent pushes, so a push racing a drain lands in the next batch,
// never lost).
// The deterministic simulation harness calls everything single-threaded.

#ifndef DECLSCHED_SCHEDULER_INCOMING_QUEUE_H_
#define DECLSCHED_SCHEDULER_INCOMING_QUEUE_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>

#include "scheduler/request.h"

namespace declsched::scheduler {

class IncomingQueue {
 public:
  /// Appends and returns the queue size after the append. Runs the notify
  /// hook (if set) after releasing the lock.
  int64_t Push(Request request);

  /// Appends `count` requests in order under one lock (a concurrent drain
  /// sees all of them or none), then runs the notify hook once. Returns
  /// the queue size after the append.
  int64_t PushBatch(const Request* requests, size_t count);

  /// Removes and returns everything, in arrival order.
  RequestBatch DrainAll();

  int64_t size() const;
  bool empty() const { return size() == 0; }

  /// Total requests ever pushed.
  int64_t total_pushed() const;

  /// Hook run after every Push/PushBatch, outside the queue lock — how a
  /// sharded scheduler's worker thread gets woken for new admissions. Set
  /// it before producers start (it is read without synchronization on the
  /// push path).
  void set_notify(std::function<void()> notify) { notify_ = std::move(notify); }

 private:
  mutable std::mutex mu_;
  std::deque<Request> queue_;
  int64_t total_pushed_ = 0;
  std::function<void()> notify_;
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_INCOMING_QUEUE_H_
