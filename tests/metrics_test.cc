#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "support/metrics_json.h"

namespace fairjob {
namespace {

TEST(CounterTest, DisabledByDefaultDropsWrites) {
  MetricsRegistry registry;
  Counter* c = registry.counter("test.counter");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 0u);
}

TEST(CounterTest, AccumulatesWhenEnabled) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Counter* c = registry.counter("test.counter");
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(CounterTest, DisableMidStreamKeepsRecordedValue) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Counter* c = registry.counter("test.counter");
  c->Add(7);
  registry.SetEnabled(false);
  c->Add(100);
  EXPECT_EQ(c->Value(), 7u);
}

TEST(CounterTest, ShardsAggregateAcrossThreadPoolWorkers) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Counter* c = registry.counter("test.parallel");
  ThreadPool pool(4);
  constexpr size_t kIterations = 10000;
  Status s = pool.ParallelFor(kIterations, 4, [&](size_t) {
    c->Add();
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(c->Value(), kIterations);
}

TEST(GaugeTest, SetAndAdd) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Gauge* g = registry.gauge("test.gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);
  g->Add(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 4.0);
  g->Set(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), -1.0);
}

TEST(GaugeTest, DisabledGaugeIgnoresWrites) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("test.gauge");
  g->Set(9.0);
  g->Add(1.0);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
}

TEST(HistogramTest, CountsSumAndBucketPlacement) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  LatencyHistogram* h = registry.histogram("test.hist", {1.0, 10.0, 100.0});
  h->Record(0.5);    // <= 1
  h->Record(5.0);    // <= 10
  h->Record(50.0);   // <= 100
  h->Record(500.0);  // +inf bucket
  LatencyHistogram::Snapshot s = h->Aggregate();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 555.5);
  ASSERT_EQ(s.buckets.size(), 4u);  // three finite bounds + inf
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  LatencyHistogram* h = registry.histogram("test.hist", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) h->Record(5.0);   // first bucket
  for (int i = 0; i < 10; ++i) h->Record(15.0);  // second bucket
  LatencyHistogram::Snapshot s = h->Aggregate();
  EXPECT_EQ(s.count, 20u);
  // The median falls on the boundary between the two buckets.
  EXPECT_NEAR(s.Quantile(0.5), 10.0, 1.0);
  EXPECT_LE(s.Quantile(0.1), 10.0);
  EXPECT_GE(s.Quantile(0.9), 10.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("test.hist");
  EXPECT_DOUBLE_EQ(h->Aggregate().Quantile(0.5), 0.0);
}

TEST(HistogramTest, RecordingTracksRegistrySwitch) {
  MetricsRegistry registry;
  LatencyHistogram* h = registry.histogram("test.hist");
  EXPECT_FALSE(h->recording());
  registry.SetEnabled(true);
  EXPECT_TRUE(h->recording());
}

TEST(HistogramTest, DefaultLatencyBucketsAreAscending) {
  std::vector<double> bounds = LatencyHistogram::LatencyBucketsUs();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("a"), registry.counter("a"));
  EXPECT_EQ(registry.gauge("b"), registry.gauge("b"));
  EXPECT_EQ(registry.histogram("c"), registry.histogram("c"));
  EXPECT_NE(registry.counter("a"), registry.counter("a2"));
}

TEST(RegistryTest, ResetZeroesButKeepsMetricsAlive) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Counter* c = registry.counter("a");
  LatencyHistogram* h = registry.histogram("h");
  c->Add(5);
  h->Record(3.0);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Aggregate().count, 0u);
  EXPECT_EQ(registry.counter("a"), c);  // same object after reset
  c->Add(2);
  EXPECT_EQ(c->Value(), 2u);
}

TEST(RegistryTest, ToJsonIsSortedAndContainsAllMetricKinds) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  registry.counter("z.count")->Add(3);
  registry.counter("a.count")->Add(1);
  registry.gauge("m.gauge")->Set(1.5);
  registry.histogram("h.latency_us")->Record(42.0);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"z.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"m.gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.latency_us\""), std::string::npos);
  // Sorted: "a.count" printed before "z.count".
  EXPECT_LT(json.find("\"a.count\""), json.find("\"z.count\""));
}

// A collector reporting `*count` as counter "c" (and "shared"), and
// `*level` as gauge "g".
MetricsRegistry::CollectorHandle AddCounting(MetricsRegistry& registry,
                                             const std::atomic<uint64_t>* count,
                                             const std::atomic<double>* level) {
  return registry.AddCollector([count, level] {
    CollectedMetrics collected;
    collected.counters = {{"c", count->load()}, {"shared", count->load()}};
    collected.gauges = {{"g", level->load()}};
    return collected;
  });
}

TEST(RegistryTest, CollectedCountersSumByNameWithRegisteredOnes) {
  MetricsRegistry registry;  // disabled: collected values are read anyway
  std::atomic<uint64_t> a{3}, b{4};
  std::atomic<double> level_a{1.5}, level_b{2.0};
  MetricsRegistry::CollectorHandle ha = AddCounting(registry, &a, &level_a);
  MetricsRegistry::CollectorHandle hb = AddCounting(registry, &b, &level_b);
  registry.SetEnabled(true);
  registry.counter("shared")->Add(10);
  registry.SetEnabled(false);
  std::string json = registry.ToJson();
  EXPECT_EQ(ExportedValue(json, "c"), 7.0);
  EXPECT_EQ(ExportedValue(json, "shared"), 17.0);
  EXPECT_EQ(ExportedValue(json, "g"), 3.5);
  a = 5;  // read at export, not at registration
  EXPECT_EQ(ExportedValue(registry.ToJson(), "c"), 9.0);
}

TEST(RegistryTest, DroppedCollectorRetiresItsCountersButNotItsGauges) {
  MetricsRegistry registry;
  std::atomic<uint64_t> a{3}, b{4};
  std::atomic<double> level_a{1.5}, level_b{2.0};
  MetricsRegistry::CollectorHandle hb = AddCounting(registry, &b, &level_b);
  {
    MetricsRegistry::CollectorHandle ha = AddCounting(registry, &a, &level_a);
    a = 6;  // the retiring collection reads the final value
  }
  std::string json = registry.ToJson();
  EXPECT_EQ(ExportedValue(json, "c"), 10.0);
  EXPECT_EQ(ExportedValue(json, "g"), 2.0);

  hb = MetricsRegistry::CollectorHandle();  // assigning over retires too
  b = 100;                                  // no longer read
  json = registry.ToJson();
  EXPECT_EQ(ExportedValue(json, "c"), 10.0);
  EXPECT_EQ(ExportedValue(json, "g"), 0.0);  // named, but no live instance
}

TEST(RegistryTest, ResetBaselinesLiveCollectorsAndClearsRetiredTotals) {
  MetricsRegistry registry;
  std::atomic<uint64_t> live{3}, gone{4};
  std::atomic<double> level_live{1.5}, level_gone{2.0};
  MetricsRegistry::CollectorHandle h =
      AddCounting(registry, &live, &level_live);
  {
    MetricsRegistry::CollectorHandle retired =
        AddCounting(registry, &gone, &level_gone);
  }
  EXPECT_EQ(ExportedValue(registry.ToJson(), "c"), 7.0);

  registry.Reset();
  std::string json = registry.ToJson();
  EXPECT_EQ(ExportedValue(json, "c"), 0.0);
  EXPECT_EQ(ExportedValue(json, "g"), 1.5);  // gauges are not baselined
  live = 5;
  EXPECT_EQ(ExportedValue(registry.ToJson(), "c"), 2.0);

  // Retiring after a Reset keeps only what was counted since it.
  h = MetricsRegistry::CollectorHandle();
  json = registry.ToJson();
  EXPECT_EQ(ExportedValue(json, "c"), 2.0);
  EXPECT_EQ(ExportedValue(json, "g"), 0.0);

  // A collector added after the Reset counts from its own start.
  std::atomic<uint64_t> late{9};
  MetricsRegistry::CollectorHandle h2 =
      AddCounting(registry, &late, &level_live);
  EXPECT_EQ(ExportedValue(registry.ToJson(), "c"), 11.0);
}

TEST(RegistryTest, CollectorsComeAndGoWhileExportsAndResetsRun) {
  MetricsRegistry registry;
  std::atomic<bool> done{false};
  std::atomic<double> level{1.0};
  std::thread exporter([&] {
    size_t rounds = 0;
    while (!done.load() || rounds < 10) {
      std::string json = registry.ToJson();
      EXPECT_NE(json.find("\"counters\""), std::string::npos);
      if (++rounds % 4 == 0) registry.Reset();
    }
  });
  constexpr size_t kThreads = 4;
  constexpr size_t kCollectors = 200;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::atomic<uint64_t> count{0};
      for (size_t i = 0; i < kCollectors; ++i) {
        MetricsRegistry::CollectorHandle h =
            AddCounting(registry, &count, &level);
        count.fetch_add(1);
        if (i % 2 == 0) {
          MetricsRegistry::CollectorHandle kept = std::move(h);
          count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done = true;
  exporter.join();

  // Every collector is gone; one more Reset leaves nothing counted.
  registry.Reset();
  std::string json = registry.ToJson();
  EXPECT_EQ(ExportedValue(json, "c"), 0.0);
  EXPECT_EQ(ExportedValue(json, "g"), 0.0);
}

TEST(RegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace fairjob
