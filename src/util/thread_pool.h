// Fixed-size worker pool with a bounded task queue.
//
// The parallel campaign driver (service/parallel.h) runs batch measurement
// campaigns on real threads; this pool is its execution substrate. Design
// points that matter for that use:
//
//   * Bounded queue: submit() blocks when `queue_capacity` tasks are already
//     waiting, so a fast producer cannot buffer an unbounded campaign in
//     memory — backpressure propagates to the enqueue loop.
//   * Exception-propagating futures: a task that throws stores the exception
//     in its future; the pool itself never dies. The campaign barrier calls
//     get() on every future, so worker failures surface at the join point
//     instead of vanishing on a detached thread.
//   * Worker identity: current_worker() returns the dense index [0, workers)
//     of the calling pool thread (kNotAWorker elsewhere). The driver uses it
//     to route each task to that worker's private measurement stack without
//     any locking.
//   * Graceful shutdown: the destructor drains every already-queued task
//     before joining. Work submitted before shutdown is never dropped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/annotate.h"
#include "util/check.h"

namespace revtr::util {

// CPUs this process may run on (its sched_getaffinity mask, what nproc
// prints); at least 1. Fan-outs size themselves with it rather than with an
// option, since their output never depends on the thread count.
std::size_t available_cpus();

class ThreadPool {
 public:
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  // `workers` must be >= 1. `queue_capacity` bounds the number of tasks
  // waiting to run (tasks being executed do not count against it).
  explicit ThreadPool(std::size_t workers, std::size_t queue_capacity = 1024);

  // Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` and returns a future for its result. Blocks while the
  // queue is full. Throws std::runtime_error once shutdown has begun —
  // including for a submitter that was parked on a full queue when the
  // destructor started (it is woken by the shutdown broadcast and must
  // unwind, not deadlock and not abort).
  template <typename Fn>
  std::future<std::invoke_result_t<Fn>> submit(Fn fn) {
    using Result = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::move(fn));
    std::future<Result> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  // Dense index of the calling pool worker, or kNotAWorker when the caller
  // is not one of this process's pool threads.
  static std::size_t current_worker() noexcept;

  std::size_t workers() const noexcept { return threads_.size(); }
  std::size_t queue_capacity() const noexcept { return queue_capacity_; }

 private:
  void enqueue(std::function<void()> task) REVTR_EXCLUDES(mu_);
  void worker_loop(std::size_t index) REVTR_EXCLUDES(mu_);

  const std::size_t queue_capacity_;
  Mutex mu_;
  // condition_variable_any parks on the annotated MutexLock guard directly
  // (std::condition_variable would demand a std::unique_lock<std::mutex>,
  // which the analysis cannot see through).
  std::condition_variable_any not_empty_;
  std::condition_variable_any not_full_;
  std::deque<std::function<void()>> queue_ REVTR_GUARDED_BY(mu_);
  bool shutting_down_ REVTR_GUARDED_BY(mu_) = false;
  // Written single-threaded in the constructor, joined in the destructor;
  // workers() only reads the size set before any worker existed.
  std::vector<std::thread> threads_;  // lint: lock-free(ctor/dtor only)
};

}  // namespace revtr::util
