#ifndef FAIRJOB_COMMON_THREAD_POOL_H_
#define FAIRJOB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace fairjob {

// A fixed-size pool of worker threads with a Status-propagating ParallelFor.
// Built for the cube-construction hot path: one pool is created once (or the
// process-wide Shared() pool is used) and reused across many submissions, so
// repeated builds — the incremental-refresh scenario — stop paying the
// thread-spawn cost of a fresh std::thread fan-out per call.
//
// Scheduling model: every ParallelFor registers one "batch" (an index range
// plus a body). The calling thread always participates in its own batch, and
// idle pool workers join batches up to each batch's parallelism cap. Indices
// are claimed from a shared atomic counter, so uneven per-index work
// self-balances. Because submitters drain their own batches, ParallelFor may
// be called from inside a pool task (nested parallelism) without deadlock:
// at worst the nested call runs serially on the submitting worker.
//
// Lifetime rules: the destructor joins all workers and requires that no
// ParallelFor call is still in flight. The Shared() pool is created on first
// use and intentionally never destroyed (see docs/performance.md).
class ThreadPool {
 public:
  // Spawns `num_threads` workers (0 is allowed: every ParallelFor then runs
  // on its calling thread alone).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  // Runs fn(i) for every i in [0, n). At most `parallelism` threads work on
  // this call, counting the calling thread; parallelism <= 1 (or n <= 1, or
  // an empty pool) runs inline without touching the workers. The first
  // non-OK status wins: remaining unclaimed indices are skipped and that
  // status is returned. fn must only touch disjoint state per index.
  Status ParallelFor(size_t n, size_t parallelism,
                     const std::function<Status(size_t)>& fn);

  // Process-wide pool sized to the hardware concurrency, created on first
  // use and leaked deliberately: joining threads from a static destructor
  // races with other teardown, and the workers are all idle-blocked at exit.
  static ThreadPool& Shared();

 private:
  struct Batch;

  // Worker side: block until a joinable batch (or shutdown) appears.
  void WorkerLoop();
  // Claims and runs indices of `batch` until it is exhausted or failed.
  void RunBatch(Batch* batch);
  void RemoveBatchLocked(const std::shared_ptr<Batch>& batch);

  std::vector<std::thread> threads_;
  std::mutex mutex_;                // guards batches_ / stop_
  std::condition_variable wake_;    // workers wait here for new batches
  std::deque<std::shared_ptr<Batch>> batches_;
  bool stop_ = false;

  // Observability (see docs/observability.md): all pools share the global
  // metric objects, cached here to keep the hot paths lookup-free.
  Counter* tasks_executed_metric_;      // threadpool.tasks_executed
  Counter* batches_submitted_metric_;   // threadpool.batches_submitted
  Gauge* queue_depth_metric_;           // threadpool.queue_depth
  LatencyHistogram* worker_wait_metric_;       // threadpool.worker_wait_us
  LatencyHistogram* parallel_for_metric_;      // threadpool.parallel_for_us
};

}  // namespace fairjob

#endif  // FAIRJOB_COMMON_THREAD_POOL_H_
