#include "common/thread_pool.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace ireduct {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Wrap the closure with queue-wait and run timing. Done at submit (not in
  // the worker) so the enqueue timestamp rides inside the task itself.
  IREDUCT_METRIC_COUNT("thread_pool.tasks", 1);
  task = [inner = std::move(task),
          enqueued = std::chrono::steady_clock::now()] {
    const auto started = std::chrono::steady_clock::now();
    IREDUCT_METRIC_OBSERVE(
        "thread_pool.task_wait_seconds",
        std::chrono::duration<double>(started - enqueued).count());
    inner();
    IREDUCT_METRIC_OBSERVE(
        "thread_pool.task_run_seconds",
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count());
  };
  size_t depth;
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    depth = queue_.size();
  }
  IREDUCT_METRIC_GAUGE_SET("thread_pool.queue_depth",
                           static_cast<double>(depth));
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      // Drain the queue even when shutting down so ~ThreadPool completes
      // everything that was submitted.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    IREDUCT_METRIC_GAUGE_SET("thread_pool.queue_depth",
                             static_cast<double>(depth));
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace ireduct
