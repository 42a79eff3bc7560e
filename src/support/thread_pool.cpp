#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace popproto {

unsigned probe_hardware_threads() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<unsigned>(cpus);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) const {
  if (count == 0) return;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(threads_, count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                        count;)
      fn(i);
  };
  std::vector<std::thread> extra;
  extra.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) extra.emplace_back(drain);
  drain();  // the calling thread participates
  for (auto& t : extra) t.join();
}

TaskQueue::TaskQueue(unsigned threads) {
  if (threads == 0) threads = probe_hardware_threads();
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

TaskQueue::~TaskQueue() { shutdown(); }

bool TaskQueue::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return false;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

void TaskQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
  workers_.clear();
}

std::size_t TaskQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

void TaskQueue::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
  }
}

}  // namespace popproto
