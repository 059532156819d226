// Bounded MPMC queue for the gradient-serving pipeline (DESIGN.md §14).
//
// Host-level concurrency primitive: client threads push requests, the
// batcher and the worker pool pop them. tryPush refuses at capacity (submit
// sheds a flooded service's excess load instead of blocking its clients);
// push blocks at capacity (the batcher's hand-off to a busy worker pool);
// popping blocks until an item, a timeout, or close. After close() pushes
// are rejected and pops drain the remaining items before reporting
// emptiness, so shutdown never strands a request without a response.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace parad::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks while the queue is full; returns false (item not enqueued) when
  /// the queue has been closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    notFull_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    notEmpty_.notify_one();
    return true;
  }

  /// Non-blocking push: returns false immediately when the queue is full or
  /// closed, leaving `item` untouched. The service's load shedder uses this
  /// so a flooded queue turns into a structured Overload rejection — answered
  /// through the shed job's own promise — instead of a blocked producer.
  bool tryPush(T&& item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    notEmpty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    notEmpty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return takeLocked();
  }

  /// Like pop(), but gives up after `timeout` (returns nullopt with the
  /// queue still open). Used by the batcher to honor its max-delay policy.
  std::optional<T> popFor(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    notEmpty_.wait_for(lock, timeout,
                       [&] { return closed_ || !items_.empty(); });
    return takeLocked();
  }

  /// Rejects future pushes; wakes every waiter. Items already queued remain
  /// poppable.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    notEmpty_.notify_all();
    notFull_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  std::optional<T> takeLocked() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    notFull_.notify_one();
    return out;
  }

  mutable std::mutex mu_;
  std::condition_variable notEmpty_, notFull_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace parad::serve
