#include "scheduler/incoming_queue.h"

namespace declsched::scheduler {

int64_t IncomingQueue::Push(Request request) { return PushBatch(&request, 1); }

int64_t IncomingQueue::PushBatch(const Request* requests, size_t count) {
  int64_t size;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.end(), requests, requests + count);
    total_pushed_ += static_cast<int64_t>(count);
    size = static_cast<int64_t>(queue_.size());
  }
  if (notify_) notify_();
  return size;
}

RequestBatch IncomingQueue::DrainAll() {
  std::lock_guard<std::mutex> lock(mu_);
  RequestBatch out(queue_.begin(), queue_.end());
  queue_.clear();
  return out;
}

int64_t IncomingQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t IncomingQueue::total_pushed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_pushed_;
}

}  // namespace declsched::scheduler
