#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <stdexcept>

namespace revtr::util {

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

namespace {
// Written once by each pool thread on startup, read by current_worker().
thread_local std::size_t t_worker_index = ThreadPool::kNotAWorker;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers, std::size_t queue_capacity)
    : queue_capacity_(queue_capacity) {
  REVTR_CHECK(workers >= 1);
  REVTR_CHECK(queue_capacity >= 1);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mu_);
    shutting_down_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& thread : threads_) thread.join();
}

std::size_t ThreadPool::current_worker() noexcept { return t_worker_index; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    // While-loop wait (not the predicate overload): the analysis tracks the
    // capability across wait()'s release/reacquire, but a predicate lambda
    // reading guarded members would not inherit the REQUIRES context.
    while (queue_.size() >= queue_capacity_ && !shutting_down_) {
      not_full_.wait(lock);
    }
    if (shutting_down_) {
      // A submitter parked on a full queue can legitimately lose the race
      // with the destructor (the not_full_ notify that woke it was the
      // shutdown broadcast). That is a recoverable caller error, not an
      // internal invariant: throw so the submitter unwinds instead of
      // aborting the process mid-shutdown.
      throw std::runtime_error("ThreadPool::submit after shutdown began");
    }
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutting_down_) not_empty_.wait(lock);
      if (queue_.empty()) return;  // Shutting down and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    // A packaged_task stores any exception in its future; nothing escapes
    // into the worker loop.
    task();
  }
}

}  // namespace revtr::util
