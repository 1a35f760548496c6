#ifndef FAIRJOB_COMMON_METRICS_H_
#define FAIRJOB_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace fairjob {

// Zero-dependency metrics for the serving/cube hot paths: named counters,
// gauges and fixed-bucket histograms owned by a MetricsRegistry, exported as
// a deterministic JSON document (see docs/observability.md for the schema
// and the metric-name inventory).
//
// Overhead model:
//  * Disabled (the default): every write is a single relaxed atomic bool
//    load — safe to leave instrumentation in the tightest loops.
//  * Enabled: counter/histogram writes go to one of a fixed set of
//    cache-line-padded shards chosen by a thread-local slot, so concurrent
//    writers never contend on a cache line (lock-free fast path). Reads
//    aggregate the shards, trading read cost for write scalability.
//  * Compiled out (-DFAIRJOB_DISABLE_OBSERVABILITY): writes are constant
//    no-ops the optimizer deletes entirely.
//  * Collected (MetricsRegistry::AddCollector): counts an object keeps
//    anyway are read at export, so they cost the hot path nothing more.
//
// Metric objects are created once via the registry and never destroyed
// while the registry lives, so hot paths may cache the returned pointers
// (e.g. in function-local statics).
#ifdef FAIRJOB_DISABLE_OBSERVABILITY
inline constexpr bool kObservabilityCompiledIn = false;
#else
inline constexpr bool kObservabilityCompiledIn = true;
#endif

namespace internal {

// Stable small index for the calling thread, used to pick a metric shard.
size_t ThreadShardSlot();

// One cache line per shard so concurrent writers do not false-share.
inline constexpr size_t kCacheLineBytes = 64;
inline constexpr size_t kMetricShards = 16;

}  // namespace internal

// Monotonically increasing count (tasks executed, accesses performed, ...).
class Counter {
 public:
  // Lock-free: adds to the calling thread's shard.
  void Add(uint64_t delta = 1) {
    if (!kObservabilityCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    shards_[internal::ThreadShardSlot() % internal::kMetricShards]
        .value.fetch_add(delta, std::memory_order_relaxed);
  }

  // Aggregates all shards. Concurrent Adds may or may not be visible.
  uint64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void ResetForTesting();

  struct alignas(internal::kCacheLineBytes) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  const std::atomic<bool>* enabled_;  // the owning registry's switch
  Shard shards_[internal::kMetricShards];
};

// Last-write-wins instantaneous value (queue depth, cells/sec of the most
// recent build, ...). Writes race benignly: some write wins.
class Gauge {
 public:
  void Set(double value) {
    if (!kObservabilityCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta);

  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void ResetForTesting() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket distribution, built for latencies in microseconds but happy
// with any non-negative value. Bucket upper bounds are fixed at creation;
// values above the last bound land in an implicit +inf bucket. Like the
// Counter, writes touch only the calling thread's shard.
class LatencyHistogram {
 public:
  // Snapshot of the aggregated distribution (shards summed at call time).
  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;     // finite upper bounds, ascending
    std::vector<uint64_t> buckets;  // bounds.size() + 1 entries (+inf last)

    // Linear-interpolated quantile estimate from the bucket counts;
    // q in [0, 1]. Returns 0 when the histogram is empty.
    double Quantile(double q) const;
  };

  void Record(double value) {
    if (!kObservabilityCompiledIn) return;
    if (!enabled_->load(std::memory_order_relaxed)) return;
    RecordImpl(value);
  }

  Snapshot Aggregate() const;
  const std::string& name() const { return name_; }
  // Whether the owning registry currently accepts writes; lets RAII timers
  // skip the clock read entirely when metrics are off.
  bool recording() const {
    return kObservabilityCompiledIn &&
           enabled_->load(std::memory_order_relaxed);
  }

  // Default bounds for microsecond latencies: 1us .. 5s in a 1-2-5 ladder.
  static std::vector<double> LatencyBucketsUs();

 private:
  friend class MetricsRegistry;
  LatencyHistogram(std::string name, std::vector<double> bounds,
            const std::atomic<bool>* enabled);
  void RecordImpl(double value);
  void ResetForTesting();

  struct alignas(internal::kCacheLineBytes) Shard {
    std::vector<std::atomic<uint64_t>> buckets;  // sized once, then lock-free
    std::atomic<double> sum{0.0};
  };

  std::string name_;
  std::vector<double> bounds_;
  const std::atomic<bool>* enabled_;
  std::vector<Shard> shards_;
};

// What one collector reports: counters that only grow over the reporting
// object's life, and gauges.
struct CollectedMetrics {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};
using MetricsCollector = std::function<CollectedMetrics()>;

// Owner of all metrics. Processes normally use the leaked Global() instance;
// tests may construct private registries. Metric creation takes a lock;
// lookups of an existing name return the same object, so callers cache the
// pointer rather than re-resolving per write.
class MetricsRegistry {
  struct Retirer {
    MetricsRegistry* registry;
    void operator()(MetricsCollector* collector) const;
  };

 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-wide registry, created on first use and intentionally leaked so
  // instrumentation in leaked singletons (ThreadPool::Shared()) stays valid
  // during shutdown.
  static MetricsRegistry& Global();

  // All writes are dropped until SetEnabled(true); flipping the switch does
  // not clear previously recorded values. Collected values ignore the
  // switch: their owners count every event either way.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Finds or creates; the returned pointer is stable for the registry's
  // lifetime. A histogram's bounds are fixed by its first creation; later
  // calls with different bounds return the existing instance.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LatencyHistogram* histogram(const std::string& name,
                       std::vector<double> bounds = {});

  // Destroying the handle retires its collector; it must not outlive the
  // registry.
  using CollectorHandle = std::unique_ptr<MetricsCollector, Retirer>;

  // Registers `collect`, which ToJson() and Reset() run under the registry
  // lock, so it must take no lock held while metrics are created. Exports
  // sum its counters by name with other collectors' and with the registered
  // counter of that name, and its gauges over live collectors. Retiring
  // keeps its final counters in the export; its gauges then read 0.
  [[nodiscard]] CollectorHandle AddCollector(MetricsCollector collect);

  // Zeroes every metric (the metrics themselves survive, so cached pointers
  // stay valid); live collectors count on from their values at the Reset.
  // Racy against concurrent writers by design; meant for tests and for
  // benches separating a warm-up from a measured pass.
  void Reset();

  // Deterministic JSON export: names sorted, histograms with bucket counts
  // and estimated p50/p90/p99. Schema in docs/observability.md.
  std::string ToJson() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards every member below
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<LatencyHistogram>> histograms_;
  std::vector<const MetricsCollector*> collectors_;
  // Added to the live collectors' counters at export (modulo 2^64): the
  // retired collectors' final counts less the live ones' at the last Reset.
  std::map<std::string, uint64_t> collected_offsets_;
  std::set<std::string> retired_gauges_;  // exported as 0 when not collected
};

}  // namespace fairjob

#endif  // FAIRJOB_COMMON_METRICS_H_
