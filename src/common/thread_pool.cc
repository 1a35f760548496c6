#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/trace.h"

namespace fairjob {

// One ParallelFor call. Indices are claimed via `next`; `completed` counts
// claimed indices whose body (or failure skip) finished, so completion ==
// (completed == n). `workers` counts participating threads (submitter
// included) and enforces the per-call parallelism cap.
struct ThreadPool::Batch {
  size_t n = 0;
  size_t max_workers = 1;
  const std::function<Status(size_t)>* fn = nullptr;

  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::atomic<size_t> workers{0};
  std::atomic<bool> failed{false};

  std::mutex mu;  // guards first_error and the completion wait
  std::condition_variable done;
  Status first_error;
};

ThreadPool::ThreadPool(size_t num_threads) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  tasks_executed_metric_ = metrics.counter("threadpool.tasks_executed");
  batches_submitted_metric_ = metrics.counter("threadpool.batches_submitted");
  queue_depth_metric_ = metrics.gauge("threadpool.queue_depth");
  worker_wait_metric_ = metrics.histogram("threadpool.worker_wait_us");
  parallel_for_metric_ = metrics.histogram("threadpool.parallel_for_us");
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return *pool;
}

void ThreadPool::RunBatch(Batch* batch) {
  size_t executed = 0;  // flushed to the metric once per participation
  for (;;) {
    size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) break;
    if (!batch->failed.load(std::memory_order_relaxed)) {
      ++executed;
      Status s = (*batch->fn)(i);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(batch->mu);
        if (batch->first_error.ok()) batch->first_error = std::move(s);
        batch->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (batch->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->n) {
      // Lock/unlock pairs with the submitter's predicate check so the final
      // increment cannot slip between its check and its wait.
      { std::lock_guard<std::mutex> lock(batch->mu); }
      batch->done.notify_all();
    }
  }
  if (executed > 0) tasks_executed_metric_->Add(executed);
}

void ThreadPool::RemoveBatchLocked(const std::shared_ptr<Batch>& batch) {
  for (auto it = batches_.begin(); it != batches_.end(); ++it) {
    if (*it == batch) {
      batches_.erase(it);
      queue_depth_metric_->Set(static_cast<double>(batches_.size()));
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_) return;
    std::shared_ptr<Batch> batch;
    for (const std::shared_ptr<Batch>& b : batches_) {
      if (b->next.load(std::memory_order_relaxed) < b->n &&
          b->workers.load(std::memory_order_relaxed) < b->max_workers) {
        batch = b;
        break;
      }
    }
    if (batch == nullptr) {
      // The wait itself is the interesting quantity: long waits mean the
      // pool is over-provisioned for the submitted batches.
      ScopedTimer wait_timer(worker_wait_metric_);
      wake_.wait(lock);
      continue;
    }
    batch->workers.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    RunBatch(batch.get());
    lock.lock();
    RemoveBatchLocked(batch);  // exhausted: stop other workers scanning it
  }
}

Status ThreadPool::ParallelFor(size_t n, size_t parallelism,
                               const std::function<Status(size_t)>& fn) {
  if (n == 0) return Status::OK();
  if (parallelism <= 1 || n == 1 || threads_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      Status s = fn(i);
      if (!s.ok()) {
        tasks_executed_metric_->Add(i + 1);
        return s;
      }
    }
    tasks_executed_metric_->Add(n);
    return Status::OK();
  }

  ScopedTimer batch_timer(parallel_for_metric_);
  batches_submitted_metric_->Add(1);
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->max_workers = parallelism;
  batch->fn = &fn;
  batch->workers.store(1, std::memory_order_relaxed);  // the calling thread
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batches_.push_back(batch);
    queue_depth_metric_->Set(static_cast<double>(batches_.size()));
  }
  wake_.notify_all();

  RunBatch(batch.get());
  std::unique_lock<std::mutex> done_lock(batch->mu);
  batch->done.wait(done_lock, [&] {
    return batch->completed.load(std::memory_order_acquire) == batch->n;
  });
  Status result = batch->first_error;
  done_lock.unlock();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RemoveBatchLocked(batch);  // no-op when a worker already removed it
  }
  return result;
}

}  // namespace fairjob
