#include "net/parallel.h"

#include "util/check.h"

namespace sensord {

WorkerPool::WorkerPool(int threads) : threads_(threads) {
  SENSORD_CHECK_GE(threads, 2);
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this]() { WorkerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  batch_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::Run(const std::function<void(size_t)>& task, size_t count) {
  if (count == 0) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    count_ = count;
    finished_ = 0;
    cursor_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  batch_ready_.notify_all();
  // The caller is a full participant: it claims items like any worker, so a
  // batch of one never pays a wakeup, and small batches finish in-line.
  size_t done = 0;
  for (;;) {
    const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    task(i);
    ++done;
  }
  std::unique_lock<std::mutex> lock(mu_);
  finished_ += done;
  // Wait until every item completed AND every worker that entered this batch
  // has checked out — a worker that read the batch state but lost the race
  // for items must not still be around when the next batch resets the
  // cursor, or it could claim the new batch's items with the old task.
  batch_done_.wait(lock,
                   [this]() { return finished_ == count_ && inflight_ == 0; });
  task_ = nullptr;
}

void WorkerPool::WorkerMain() {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(size_t)>* task = nullptr;
    size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_ready_.wait(lock, [&]() {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      // Woken only after Run() finished the batch without this worker: the
      // cursor may already belong to the next batch, so claim nothing.
      if (task_ == nullptr) continue;
      task = task_;
      count = count_;
      ++inflight_;
    }
    size_t done = 0;
    for (;;) {
      const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      (*task)(i);
      ++done;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      finished_ += done;
      --inflight_;
      if (finished_ == count_ && inflight_ == 0) batch_done_.notify_one();
    }
  }
}

}  // namespace sensord
