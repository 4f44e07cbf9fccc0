// Blocking multi-producer/multi-consumer queue.
//
// Used for RPC delivery, journal commit work and checkpoint work. A simple
// mutex + condvar queue is deliberate: the workloads here are latency-model
// dominated, and correctness under shutdown (Close semantics) matters more
// than lock-free throughput.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace arkfs {

template <typename T>
class MpmcQueue {
 public:
  MpmcQueue() = default;
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Returns false if the queue is closed (item dropped).
  bool Push(T item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  // Blocks until an item arrives or the queue is closed AND drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // After Close, Push fails and Pop drains remaining items then returns
  // nullopt. Idempotent.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace arkfs
