// Concurrency stress for the query-serving layer: many threads hammering a
// small key space through the sharded cache and single-flight layer. Run
// with -DFAIRJOB_SANITIZE=thread in CI; the assertions here are about
// torn results (answers must stay bit-equal to precomputed direct solves),
// exact stats accounting, and single-flight coalescing.

#include "serve/quantification_service.h"

#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/group_space.h"
#include "core/quantification.h"
#include "serve/incremental.h"

namespace fairjob {
namespace {

constexpr size_t kThreads = 8;

std::unique_ptr<UnfairnessCube> MakeCube(uint64_t seed) {
  auto cube = std::make_unique<UnfairnessCube>(
      *UnfairnessCube::Make({1, 2, 3, 4, 5}, {10, 11, 12}, {20, 21}));
  Rng rng(seed);
  for (size_t g = 0; g < 5; ++g) {
    for (size_t q = 0; q < 3; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        cube->Set(g, q, l, rng.NextDouble());
      }
    }
  }
  return cube;
}

// A small key space mixing algorithms and targets, with the expected answer
// for each key precomputed serially — the oracle for torn-result checks.
struct KeySpace {
  std::vector<QuantificationRequest> requests;
  std::vector<QuantificationResult> expected;
};

KeySpace MakeKeySpace(const UnfairnessCube& cube, const IndexSet& indices) {
  KeySpace space;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
    for (Dimension target :
         {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
      QuantificationRequest request;
      request.target = target;
      request.k = 2;
      request.algorithm = algorithm;
      request.missing = MissingCellPolicy::kZero;
      space.requests.push_back(request);
    }
  }
  for (const QuantificationRequest& request : space.requests) {
    Result<QuantificationResult> direct =
        SolveQuantification(cube, indices, request);
    EXPECT_TRUE(direct.ok()) << direct.status().ToString();
    space.expected.push_back(*direct);
  }
  return space;
}

bool SameAnswers(const QuantificationResult& a, const QuantificationResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].id != b.answers[i].id) return false;
    if (a.answers[i].value != b.answers[i].value) return false;
  }
  return true;
}

TEST(ServeStressTest, ManyThreadsSmallKeySpaceNoTornResults) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/31);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Capacity below the key space (12 keys, 6 entries over 2 shards) so the
  // cache churns: hits, misses, evictions and flights all happen at once.
  QuantificationService::Options options;
  options.cache_capacity = 6;
  options.cache_shards = 2;
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  constexpr size_t kIterations = 500;
  std::barrier start(kThreads);
  std::vector<size_t> torn_per_thread(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      start.arrive_and_wait();
      for (size_t i = 0; i < kIterations; ++i) {
        size_t key = rng.NextBelow(space.requests.size());
        Result<QuantificationResult> served =
            service.Answer(space.requests[key]);
        if (!served.ok() || !SameAnswers(*served, space.expected[key])) {
          ++torn_per_thread[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(torn_per_thread[t], 0u) << "thread " << t;
  }

  // Exact accounting: every request was either a cache hit or a cache miss,
  // and every miss was resolved by exactly one leader or coalesced onto one.
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kIterations);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests);
  EXPECT_EQ(stats.computations + stats.coalesced, stats.cache_misses);
  auto cache = service.cache_stats();
  EXPECT_EQ(cache.hits + cache.misses, cache.lookups);
  EXPECT_EQ(cache.lookups, stats.requests);
}

TEST(ServeStressTest, SingleFlightCoalescesConcurrentIdenticalRequests) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/47);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Cache off: without single-flight every request would recompute. The
  // hook widens the window deterministically — the leader sleeps after
  // claiming the flight, so the other threads must find it in flight.
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.compute_started_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  std::barrier start(kThreads);
  std::vector<size_t> torn_per_thread(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      Result<QuantificationResult> served = service.Answer(space.requests[0]);
      if (!served.ok() || !SameAnswers(*served, space.expected[0])) {
        ++torn_per_thread[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(torn_per_thread[t], 0u) << "thread " << t;
  }

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads);
  // The single-flight layer must have coalesced at least some of the burst:
  // strictly fewer computations than requests, and every request accounted
  // for as either a leader or a follower.
  EXPECT_LT(stats.computations, stats.requests);
  EXPECT_GE(stats.coalesced, 1u);
  EXPECT_EQ(stats.computations + stats.coalesced, stats.requests);
}

TEST(ServeStressTest, ConcurrentBatchesAgreeWithOracle) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/59);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService::Options options;
  options.cache_capacity = 32;
  options.cache_shards = 4;
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  std::barrier start(kThreads);
  std::vector<size_t> torn_per_thread(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread's batch covers the whole key space in a rotated order,
      // with duplicates appended to exercise in-batch dedup.
      std::vector<QuantificationRequest> batch;
      std::vector<size_t> oracle;
      for (size_t i = 0; i < space.requests.size(); ++i) {
        size_t key = (i + t) % space.requests.size();
        batch.push_back(space.requests[key]);
        oracle.push_back(key);
      }
      batch.push_back(space.requests[t % space.requests.size()]);
      oracle.push_back(t % space.requests.size());
      start.arrive_and_wait();
      std::vector<Result<QuantificationResult>> results =
          service.AnswerBatch(batch);
      if (results.size() != batch.size()) {
        ++torn_per_thread[t];
        return;
      }
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok() ||
            !SameAnswers(*results[i], space.expected[oracle[i]])) {
          ++torn_per_thread[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(torn_per_thread[t], 0u) << "thread " << t;
  }
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests);
}

TEST(ServeStressTest, RebuildUnderLoadServesOneOfTheTwoBackends) {
  std::unique_ptr<UnfairnessCube> cube_a = MakeCube(/*seed=*/61);
  std::unique_ptr<UnfairnessCube> cube_b = MakeCube(/*seed=*/67);
  IndexSet indices_a = IndexSet::Build(*cube_a);
  IndexSet indices_b = IndexSet::Build(*cube_b);
  KeySpace space_a = MakeKeySpace(*cube_a, indices_a);
  KeySpace space_b = MakeKeySpace(*cube_b, indices_b);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService::Options options;
  options.cache_capacity = 16;
  std::shared_ptr<const CubeSnapshot> snapshot_a = CubeSnapshot::Make(*cube_a);
  std::shared_ptr<const CubeSnapshot> snapshot_b = CubeSnapshot::Make(*cube_b);
  QuantificationService service(snapshot_a, options);

  // Snapshot flips are one pointer swap — they cannot be starved by reader
  // load — so the bounded iteration count is only about test runtime.
  constexpr size_t kIterations = 300;
  std::barrier start(kThreads + 1);
  std::vector<size_t> torn_per_thread(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2000 + t);
      start.arrive_and_wait();
      for (size_t i = 0; i < kIterations; ++i) {
        size_t key = rng.NextBelow(space_a.requests.size());
        Result<QuantificationResult> served =
            service.Answer(space_a.requests[key]);
        // Linearizability across swaps: the answer must exactly match one
        // of the two backends' oracles — never a blend.
        if (!served.ok() || (!SameAnswers(*served, space_a.expected[key]) &&
                             !SameAnswers(*served, space_b.expected[key]))) {
          ++torn_per_thread[t];
        }
        std::this_thread::yield();
      }
    });
  }
  start.arrive_and_wait();
  for (int swap = 0; swap < 20; ++swap) {
    service.SetSnapshot(swap % 2 == 0 ? snapshot_b : snapshot_a);
    std::this_thread::yield();
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(torn_per_thread[t], 0u) << "thread " << t;
  }
  EXPECT_EQ(service.stats().errors, 0u);
}

// --- RCU flip stress ---------------------------------------------------------
// Readers hammer Answer/AnswerBatch while a writer loops incremental upserts
// and snapshot flips. Every served answer must exactly match the oracle of
// ONE of the writer's published snapshots (no torn mixes), the stats must
// account exactly, and after the dust settles entries over untouched columns
// must still be served from cache.

constexpr size_t kStressQueries = 4;
constexpr size_t kStressLocations = 3;
constexpr size_t kStressWorkers = 12;
constexpr size_t kFlips = 10;

MarketRanking StressRanking(Rng& rng) {
  MarketRanking ranking;
  std::vector<WorkerId> pool(kStressWorkers);
  for (size_t w = 0; w < kStressWorkers; ++w) {
    pool[w] = static_cast<WorkerId>(w);
  }
  rng.Shuffle(pool);
  size_t length = 3 + rng.NextBelow(kStressWorkers - 3);
  ranking.workers.assign(pool.begin(), pool.begin() + length);
  return ranking;
}

MarketplaceDataset StressMarketplace(const AttributeSchema& schema,
                                     uint64_t seed) {
  MarketplaceDataset data(schema);
  Rng rng(seed);
  for (size_t w = 0; w < kStressWorkers; ++w) {
    EXPECT_TRUE(data.AddWorker("w" + std::to_string(w),
                               {static_cast<int32_t>(rng.NextBelow(2))})
                    .ok());
  }
  for (size_t q = 0; q < kStressQueries; ++q) {
    data.queries().GetOrAdd("q" + std::to_string(q));
  }
  for (size_t l = 0; l < kStressLocations; ++l) {
    data.locations().GetOrAdd("l" + std::to_string(l));
  }
  for (size_t q = 0; q < kStressQueries; ++q) {
    for (size_t l = 0; l < kStressLocations; ++l) {
      EXPECT_TRUE(data.SetRanking(static_cast<QueryId>(q),
                                  static_cast<LocationId>(l),
                                  StressRanking(rng))
                      .ok());
    }
  }
  return data;
}

// The writer's flip schedule, fixed up front so the oracle can be computed
// serially before the stress and the stressed maintainer replays it exactly.
std::vector<CrawlBatch> StressBatches(uint64_t seed) {
  Rng rng(seed);
  std::vector<CrawlBatch> batches(kFlips);
  for (CrawlBatch& batch : batches) {
    size_t rows = 1 + rng.NextBelow(2);
    for (size_t r = 0; r < rows; ++r) {
      CrawlBatchRow row;
      row.query = static_cast<QueryId>(rng.NextBelow(kStressQueries));
      row.location = static_cast<LocationId>(rng.NextBelow(kStressLocations));
      row.ranking = StressRanking(rng);
      batch.rows.push_back(std::move(row));
    }
  }
  return batches;
}

TEST(ServeStressTest, RcuFlipsUnderIncrementalUpsertsServeUntornAnswers) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  GroupSpace space = *GroupSpace::Enumerate(schema);
  std::vector<CrawlBatch> batches = StressBatches(/*seed=*/73);

  // One group-target request per (query, location) column plus one
  // unrestricted request — the key space readers draw from.
  std::vector<QuantificationRequest> requests;
  for (size_t q = 0; q < kStressQueries; ++q) {
    for (size_t l = 0; l < kStressLocations; ++l) {
      QuantificationRequest request;
      request.target = Dimension::kGroup;
      request.k = 2;
      request.missing = MissingCellPolicy::kZero;
      request.agg1 = AxisSelector::Single(q);
      request.agg2 = AxisSelector::Single(l);
      requests.push_back(request);
    }
  }
  {
    QuantificationRequest full;
    full.target = Dimension::kGroup;
    full.k = 2;
    full.missing = MissingCellPolicy::kZero;
    requests.push_back(full);
  }

  // Serial pass: replay the whole flip schedule once to precompute, per
  // published snapshot version, the expected answer of every request.
  std::vector<std::vector<QuantificationResult>> oracle;
  {
    Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
        StressMarketplace(schema, /*seed=*/17), space,
        MarketMeasure::kExposure);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    MarketplaceCubeMaintainer maintainer = std::move(*made);
    auto record = [&] {
      std::vector<QuantificationResult> expected;
      for (const QuantificationRequest& request : requests) {
        Result<QuantificationResult> direct =
            SolveQuantification(maintainer.snapshot()->cube(),
                                maintainer.snapshot()->indices(), request);
        ASSERT_TRUE(direct.ok()) << direct.status().ToString();
        expected.push_back(std::move(*direct));
      }
      oracle.push_back(std::move(expected));
    };
    record();
    for (const CrawlBatch& batch : batches) {
      ASSERT_TRUE(maintainer.UpsertCrawlBatch(batch).ok());
      record();
    }
  }
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Stressed pass: identical dataset and schedule, now with readers racing
  // the flips.
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      StressMarketplace(schema, /*seed=*/17), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);
  QuantificationService::Options options;
  options.cache_capacity = 64;
  options.cache_shards = 4;
  QuantificationService service(maintainer.snapshot(), options);

  auto matches_some_version = [&](size_t key,
                                  const QuantificationResult& served) {
    for (const std::vector<QuantificationResult>& version : oracle) {
      if (SameAnswers(served, version[key])) return true;
    }
    return false;
  };

  constexpr size_t kIterations = 400;
  std::barrier start(kThreads + 1);
  std::vector<size_t> torn_per_thread(kThreads, 0);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(3000 + t);
      start.arrive_and_wait();
      for (size_t i = 0; i < kIterations; ++i) {
        if (rng.NextBernoulli(0.25)) {
          // Batch path: a handful of keys answered against ONE snapshot.
          std::vector<QuantificationRequest> batch;
          std::vector<size_t> keys;
          size_t count = 2 + rng.NextBelow(3);
          for (size_t b = 0; b < count; ++b) {
            size_t key = rng.NextBelow(requests.size());
            batch.push_back(requests[key]);
            keys.push_back(key);
          }
          std::vector<Result<QuantificationResult>> results =
              service.AnswerBatch(batch);
          if (results.size() != batch.size()) {
            ++torn_per_thread[t];
            continue;
          }
          for (size_t b = 0; b < results.size(); ++b) {
            if (!results[b].ok() ||
                !matches_some_version(keys[b], *results[b])) {
              ++torn_per_thread[t];
            }
          }
        } else {
          size_t key = rng.NextBelow(requests.size());
          Result<QuantificationResult> served = service.Answer(requests[key]);
          if (!served.ok() || !matches_some_version(key, *served)) {
            ++torn_per_thread[t];
          }
        }
      }
    });
  }

  // Writer: replay the schedule, publishing a flip after every upsert that
  // produced a new snapshot.
  start.arrive_and_wait();
  size_t published = 0;
  for (const CrawlBatch& batch : batches) {
    Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report->published_new_snapshot) {
      service.SetSnapshot(maintainer.snapshot());
      ++published;
    }
    std::this_thread::yield();
  }
  for (std::thread& reader : readers) reader.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(torn_per_thread[t], 0u) << "thread " << t;
  }
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.snapshot_flips, published);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests);
  EXPECT_EQ(stats.computations + stats.coalesced, stats.cache_misses);

  // Quiesced epilogue: warm every per-column entry on the final snapshot,
  // then upsert exactly one column and flip. The C − 1 untouched columns'
  // entries must survive — served as hits, zero recomputation.
  const size_t kColumns = kStressQueries * kStressLocations;
  for (size_t key = 0; key < kColumns; ++key) {
    ASSERT_TRUE(service.Answer(requests[key]).ok());
  }
  QuantificationService::Stats warm = service.stats();
  Rng rng(/*seed=*/97);
  UpsertReport report;
  do {  // loop until the random ranking genuinely changes the column
    CrawlBatch final_batch;
    final_batch.rows.push_back(CrawlBatchRow{0, 0, StressRanking(rng)});
    Result<UpsertReport> applied = maintainer.UpsertCrawlBatch(final_batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    report = *applied;
  } while (report.columns_changed == 0);
  ASSERT_EQ(report.columns_changed, 1u);
  service.SetSnapshot(maintainer.snapshot());
  for (size_t key = 0; key < kColumns; ++key) {
    ASSERT_TRUE(service.Answer(requests[key]).ok());
  }
  QuantificationService::Stats survived = service.stats();
  EXPECT_EQ(survived.cache_hits, warm.cache_hits + (kColumns - 1));
  EXPECT_EQ(survived.cache_misses, warm.cache_misses + 1);
  EXPECT_EQ(survived.computations, warm.computations + 1);
}

// --- Overload phase ----------------------------------------------------------
// Offered load far above capacity (one slow permit, one queue slot, a tight
// deadline) with the cache ON: the shed path runs concurrently with cache
// fills. Afterwards, quiesced, every key must still serve the exact oracle
// answer — sheds and rejections must never poison the cache with partial or
// torn values.

TEST(ServeStressTest, OverloadShedsTypedAndNeverPoisonsCache) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/79);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService::Options options;
  options.cache_capacity = 32;
  options.max_inflight = 1;
  options.max_queue_depth = 1;
  options.max_followers_per_flight = 1;
  options.default_deadline_micros = 2000;
  options.compute_started_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  constexpr size_t kIterations = 40;
  std::barrier start(kThreads);
  std::vector<size_t> bad_per_thread(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      start.arrive_and_wait();
      for (size_t i = 0; i < kIterations; ++i) {
        size_t key = rng.NextBelow(space.requests.size());
        Result<QuantificationResult> served =
            service.Answer(space.requests[key]);
        if (served.ok()) {
          // An answered request is bit-exact, overload or not.
          if (!SameAnswers(*served, space.expected[key])) ++bad_per_thread[t];
        } else if (served.status().code() != StatusCode::kUnavailable &&
                   served.status().code() != StatusCode::kDeadlineExceeded) {
          // Anything non-OK must be one of the two typed overload outcomes.
          ++bad_per_thread[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad_per_thread[t], 0u) << "thread " << t;
  }

  QuantificationService::Stats overload = service.stats();
  EXPECT_EQ(overload.requests, kThreads * kIterations);
  EXPECT_EQ(overload.errors, 0u);
  EXPECT_EQ(overload.admitted + overload.shed_deadline +
                overload.rejected_queue + overload.rejected_followers,
            overload.requests);
  EXPECT_EQ(overload.cache_hits + overload.cache_misses, overload.admitted);
  EXPECT_EQ(overload.computations + overload.coalesced, overload.cache_misses);

  // Quiesced epilogue: whatever mixture of hits, sheds and rejections the
  // overload produced, every key now answers the oracle exactly — a cache
  // fill racing a shed never left a wrong value behind.
  for (size_t key = 0; key < space.requests.size(); ++key) {
    Result<QuantificationResult> served = service.Answer(space.requests[key]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_TRUE(SameAnswers(*served, space.expected[key])) << "key " << key;
  }
}

}  // namespace
}  // namespace fairjob
