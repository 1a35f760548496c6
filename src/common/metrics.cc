#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fairjob {
namespace internal {

size_t ThreadShardSlot() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

namespace {

// JSON number formatting: integers stay integral, everything else gets
// enough digits to round-trip reasonably without drowning the export.
std::string JsonNumber(double value) {
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::ResetForTesting() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Add(double delta) {
  if (!kObservabilityCompiledIn) return;
  if (!enabled_->load(std::memory_order_relaxed)) return;
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

std::vector<double> LatencyHistogram::LatencyBucketsUs() {
  return {1,    2,    5,    10,   20,   50,    100,   200,   500,
          1e3,  2e3,  5e3,  1e4,  2e4,  5e4,   1e5,   2e5,   5e5,
          1e6,  2e6,  5e6};
}

LatencyHistogram::LatencyHistogram(std::string name, std::vector<double> bounds,
                     const std::atomic<bool>* enabled)
    : name_(std::move(name)), bounds_(std::move(bounds)), enabled_(enabled) {
  if (bounds_.empty()) bounds_ = LatencyBucketsUs();
  std::sort(bounds_.begin(), bounds_.end());
  shards_ = std::vector<Shard>(internal::kMetricShards);
  for (Shard& shard : shards_) {
    shard.buckets = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void LatencyHistogram::RecordImpl(double value) {
  size_t bucket = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard =
      shards_[internal::ThreadShardSlot() % internal::kMetricShards];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::Aggregate() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.buckets.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t b = 0; b < shard.buckets.size(); ++b) {
      snapshot.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (uint64_t c : snapshot.buckets) snapshot.count += c;
  return snapshot;
}

double LatencyHistogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Interpolate within [lower, upper) of this bucket; the +inf bucket
      // reports its lower bound (no upper edge to interpolate toward).
      double lower = b == 0 ? 0.0 : bounds[b - 1];
      if (b >= bounds.size()) return lower;
      double upper = bounds[b];
      double fraction =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lower + fraction * (upper - lower);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void LatencyHistogram::ResetForTesting() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked for the same reason as ThreadPool::Shared(): instrumented leaked
  // singletons may write metrics while static destructors run.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) {
    if (c->name() == name) return c.get();
  }
  counters_.push_back(
      std::unique_ptr<Counter>(new Counter(name, &enabled_)));
  return counters_.back().get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& g : gauges_) {
    if (g->name() == name) return g.get();
  }
  gauges_.push_back(std::unique_ptr<Gauge>(new Gauge(name, &enabled_)));
  return gauges_.back().get();
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& h : histograms_) {
    if (h->name() == name) return h.get();
  }
  histograms_.push_back(std::unique_ptr<LatencyHistogram>(
      new LatencyHistogram(name, std::move(bounds), &enabled_)));
  return histograms_.back().get();
}

MetricsRegistry::CollectorHandle MetricsRegistry::AddCollector(
    MetricsCollector collect) {
  CollectorHandle handle(new MetricsCollector(std::move(collect)),
                         Retirer{this});
  std::lock_guard<std::mutex> lock(mutex_);
  collectors_.push_back(handle.get());
  return handle;
}

void MetricsRegistry::Retirer::operator()(MetricsCollector* collector) const {
  std::unique_ptr<MetricsCollector> owned(collector);
  std::lock_guard<std::mutex> lock(registry->mutex_);
  CollectedMetrics last = (*collector)();
  for (const auto& [name, value] : last.counters) {
    registry->collected_offsets_[name] += value;
  }
  for (const auto& gauge : last.gauges) {
    registry->retired_gauges_.insert(gauge.first);
  }
  std::erase(registry->collectors_, collector);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) c->ResetForTesting();
  for (const auto& g : gauges_) g->ResetForTesting();
  for (const auto& h : histograms_) h->ResetForTesting();
  for (auto& offset : collected_offsets_) offset.second = 0;
  for (const MetricsCollector* collect : collectors_) {
    for (const auto& [name, value] : (*collect)().counters) {
      collected_offsets_[name] -= value;
    }
  }
}

std::string MetricsRegistry::ToJson() const {
  // Sum name/value pairs (registered and collected) under the lock, then
  // render sorted so the export is independent of registration order.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<std::pair<std::string, LatencyHistogram::Snapshot>> histograms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& c : counters_) counters[c->name()] += c->Value();
    for (const auto& g : gauges_) gauges[g->name()] += g->Value();
    for (const auto& h : histograms_) {
      histograms.emplace_back(h->name(), h->Aggregate());
    }
    for (const auto& [name, value] : collected_offsets_) {
      counters[name] += value;
    }
    for (const std::string& name : retired_gauges_) gauges[name] += 0.0;
    for (const MetricsCollector* collect : collectors_) {
      CollectedMetrics collected = (*collect)();
      for (const auto& [name, value] : collected.counters) {
        counters[name] += value;
      }
      for (const auto& [name, value] : collected.gauges) gauges[name] += value;
    }
  }
  std::sort(histograms.begin(), histograms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string json = "{\n  \"enabled\": ";
  json += enabled() ? "true" : "false";
  json += ",\n  \"counters\": {";
  for (auto it = counters.begin(); it != counters.end(); ++it) {
    json += it == counters.begin() ? "\n" : ",\n";
    json += "    \"" + it->first + "\": " + std::to_string(it->second);
  }
  json += counters.empty() ? "}" : "\n  }";
  json += ",\n  \"gauges\": {";
  for (auto it = gauges.begin(); it != gauges.end(); ++it) {
    json += it == gauges.begin() ? "\n" : ",\n";
    json += "    \"" + it->first + "\": " + JsonNumber(it->second);
  }
  json += gauges.empty() ? "}" : "\n  }";
  json += ",\n  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const LatencyHistogram::Snapshot& s = histograms[i].second;
    json += i == 0 ? "\n" : ",\n";
    json += "    \"" + histograms[i].first + "\": {\"count\": " +
            std::to_string(s.count) + ", \"sum\": " + JsonNumber(s.sum) +
            ",\n      \"p50\": " + JsonNumber(s.Quantile(0.5)) +
            ", \"p90\": " + JsonNumber(s.Quantile(0.9)) +
            ", \"p99\": " + JsonNumber(s.Quantile(0.99)) +
            ",\n      \"buckets\": [";
    bool first_bucket = true;
    for (size_t b = 0; b < s.buckets.size(); ++b) {
      if (s.buckets[b] == 0) continue;  // sparse: empty buckets are implicit
      if (!first_bucket) json += ", ";
      first_bucket = false;
      std::string le =
          b < s.bounds.size() ? JsonNumber(s.bounds[b]) : "\"inf\"";
      json += "{\"le\": " + le +
              ", \"count\": " + std::to_string(s.buckets[b]) + "}";
    }
    json += "]}";
  }
  json += histograms.empty() ? "}" : "\n  }";
  json += "\n}\n";
  return json;
}

}  // namespace fairjob
