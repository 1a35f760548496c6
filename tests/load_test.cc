// Sustained-load serving suite: admission control, deadline shedding,
// bounded follower queues, TTL + stale-while-revalidate, and the load
// harness itself. The core contract under test: every request is either
// answered bit-identically to a direct SolveQuantification against some
// pinned snapshot, or rejected with a typed kUnavailable/kDeadlineExceeded
// — never torn, never silently dropped — and the admission accounting is
// exact: admitted + shed + rejected == offered. Deadlines and TTLs run on
// a VirtualClock so the shedding tests are deterministic. Own binary so
// the CI sanitizer matrix (ASan/TSan) runs it directly.

#include "serve/load_gen.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/virtual_clock.h"
#include "core/group_space.h"
#include "core/quantification.h"
#include "market/scale_gen.h"
#include "serve/incremental.h"
#include "serve/quantification_service.h"
#include "support/serve_accounting.h"

namespace fairjob {
namespace {

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

struct KeySpace {
  std::vector<QuantificationRequest> requests;
  std::vector<QuantificationResult> expected;
};

KeySpace MakeKeySpace(const UnfairnessCube& cube, const IndexSet& indices) {
  KeySpace space;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kNRA,
        TopKAlgorithm::kScan}) {
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

// One-shot open/wait latch for orchestrating leader/follower interleavings.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
};

// --- Admission control -------------------------------------------------------

TEST(AdmissionTest, QueueFullRejectsWithTypedUnavailable) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/11);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  Gate started, release;
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_inflight = 1;
  options.max_queue_depth = 0;  // no waiting room: full means reject
  options.compute_started_hook = [&] {
    started.Open();
    release.Wait();
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  std::thread leader([&] {
    Result<QuantificationResult> answer = service.Answer(space.requests[0]);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(SameAnswers(*answer, space.expected[0]));
  });
  started.Wait();

  // The permit is held and there is no queue: a distinct request must be
  // rejected immediately with the typed admission error, not blocked.
  Result<QuantificationResult> rejected = service.Answer(space.requests[1]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  release.Open();
  leader.join();

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected_queue, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);
  EXPECT_EQ(stats.errors, 0u);  // typed rejections are not errors
  ExpectExactAccounting(stats);
}

TEST(AdmissionTest, QueuedRequestIsShedWhenVirtualDeadlinePasses) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/13);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  VirtualClock clock;
  Gate started, release;
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_inflight = 1;
  options.max_queue_depth = 2;
  options.clock = &clock;
  options.compute_started_hook = [&] {
    started.Open();
    release.Wait();
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  std::thread leader([&] {
    Result<QuantificationResult> answer = service.Answer(space.requests[0]);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  });
  started.Wait();

  std::thread queued([&] {
    Result<QuantificationResult> answer =
        service.Answer(space.requests[1], /*deadline_budget_micros=*/1000);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  });
  // Wait until the second request is parked in the admission queue, then
  // advance virtual time past its deadline. Nothing else moves the clock,
  // so the shed is deterministic.
  for (int i = 0; i < 5000 && service.admission_queue_depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.admission_queue_depth(), 1u);
  clock.AdvanceMicros(2000);
  queued.join();

  release.Open();
  leader.join();

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.rejected_queue, 0u);
  ExpectExactAccounting(stats);
}

TEST(AdmissionTest, DefaultDeadlineFromOptionsApplies) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/17);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  VirtualClock clock;
  Gate started, release;
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_inflight = 1;
  options.max_queue_depth = 2;
  options.default_deadline_micros = 500;
  options.clock = &clock;
  options.compute_started_hook = [&] {
    started.Open();
    release.Wait();
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  std::thread leader([&] { ASSERT_TRUE(service.Answer(space.requests[0]).ok()); });
  started.Wait();

  // No explicit budget: the Options default must be in force.
  std::thread queued([&] {
    Result<QuantificationResult> answer = service.Answer(space.requests[1]);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  });
  for (int i = 0; i < 5000 && service.admission_queue_depth() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.admission_queue_depth(), 1u);
  clock.AdvanceMicros(501);
  queued.join();

  release.Open();
  leader.join();
  EXPECT_EQ(service.stats().shed_deadline, 1u);
  ExpectExactAccounting(service.stats());
}

TEST(AdmissionTest, NegativeBudgetShedsBeforeTouchingTheCache) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/19);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService service(CubeSnapshot::Make(*cube));
  Result<QuantificationResult> shed =
      service.Answer(space.requests[0], /*deadline_budget_micros=*/-1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(service.cache_stats().lookups, 0u);  // shed before the probe
  ExpectExactAccounting(stats);
}

TEST(AdmissionTest, FollowerBoundRejectsExcessDuplicatesTyped) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/23);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  Gate started, release;
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_followers_per_flight = 1;
  options.compute_started_hook = [&] {
    started.Open();
    release.Wait();
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  std::thread leader([&] {
    Result<QuantificationResult> answer = service.Answer(space.requests[0]);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(SameAnswers(*answer, space.expected[0]));
  });
  started.Wait();  // the flight is claimed and parked: duplicates must queue

  std::atomic<int> ok{0}, unavailable{0}, other{0};
  std::vector<std::thread> duplicates;
  for (int d = 0; d < 3; ++d) {
    duplicates.emplace_back([&] {
      Result<QuantificationResult> answer = service.Answer(space.requests[0]);
      if (answer.ok()) {
        EXPECT_TRUE(SameAnswers(*answer, space.expected[0]));
        ++ok;
      } else if (answer.status().code() == StatusCode::kUnavailable) {
        ++unavailable;
      } else {
        ++other;
      }
    });
  }
  // With a follower bound of 1, exactly one duplicate coalesces and the
  // other two bounce with kUnavailable — wait for all three to resolve
  // their admission before letting the leader finish.
  for (int i = 0; i < 5000; ++i) {
    QuantificationService::Stats stats = service.stats();
    if (stats.coalesced + stats.rejected_followers == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.Open();
  leader.join();
  for (std::thread& thread : duplicates) thread.join();

  EXPECT_EQ(ok.load(), 1);
  EXPECT_EQ(unavailable.load(), 2);
  EXPECT_EQ(other.load(), 0);
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.computations, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.rejected_followers, 2u);
  ExpectExactAccounting(stats);
}

TEST(AdmissionTest, GenerousLimitsStayBitIdenticalToDirect) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/29);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService::Options options;
  options.max_inflight = 4;
  options.max_queue_depth = 64;
  options.default_deadline_micros = 60'000'000;
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < space.requests.size(); ++i) {
      Result<QuantificationResult> answer = service.Answer(space.requests[i]);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_TRUE(SameAnswers(*answer, space.expected[i]))
          << "pass " << pass << " key " << i;
    }
  }
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 2 * space.requests.size());
  EXPECT_EQ(stats.admitted, stats.requests);
  EXPECT_EQ(stats.rejected_queue + stats.rejected_followers +
                stats.shed_deadline,
            0u);
  ExpectExactAccounting(stats);
}

TEST(AdmissionTest, OverloadMixtureKeepsAccountingExactAndAnswersUntorn) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/31);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Capacity 1 computation at a time, 1 waiter, bounded followers, a real
  // deadline, and a slow compute: offered load far exceeds capacity, so
  // every outcome class occurs. The assertions are about exactness, not
  // about which class each request lands in (that is timing-dependent).
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_inflight = 1;
  options.max_queue_depth = 1;
  options.max_followers_per_flight = 2;
  options.default_deadline_micros = 3000;
  options.compute_started_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  MetricsRegistry::Global().Reset();
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  constexpr size_t kThreads = 8;
  constexpr size_t kIterations = 25;
  std::atomic<size_t> torn{0}, untyped{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(500 + t);
      for (size_t i = 0; i < kIterations; ++i) {
        size_t key = rng.NextBelow(space.requests.size());
        Result<QuantificationResult> answer = service.Answer(space.requests[key]);
        if (answer.ok()) {
          if (!SameAnswers(*answer, space.expected[key])) ++torn;
        } else if (answer.status().code() != StatusCode::kUnavailable &&
                   answer.status().code() != StatusCode::kDeadlineExceeded) {
          ++untyped;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(untyped.load(), 0u);
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kIterations);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GE(stats.admitted, 1u);
  ExpectExactAccounting(stats);
  ExpectExportMatches({CountsOf(service)});
}

// --- Cache TTL + stale-while-revalidate --------------------------------------

TEST(CacheFreshnessTest, TtlExpiryForcesRecomputeAndRefreshesEntry) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/37);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  VirtualClock clock;
  QuantificationService::Options options;
  options.cache_ttl_micros = 1000;
  options.clock = &clock;
  MetricsRegistry::Global().Reset();
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  auto expect_answer = [&] {
    Result<QuantificationResult> answer = service.Answer(space.requests[0]);
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(SameAnswers(*answer, space.expected[0]));
  };
  expect_answer();  // miss, computed, inserted at t=0
  expect_answer();  // hit
  clock.AdvanceMicros(999);
  expect_answer();  // age 999 < ttl: still a hit
  EXPECT_EQ(service.stats().computations, 1u);
  EXPECT_EQ(service.stats().ttl_expired, 0u);

  clock.AdvanceMicros(2);
  expect_answer();  // age 1001 ≥ ttl: hard freshness bound, recompute
  EXPECT_EQ(service.stats().computations, 2u);
  EXPECT_EQ(service.stats().ttl_expired, 1u);

  expect_answer();  // re-inserted at t=1001: hits again
  EXPECT_EQ(service.stats().computations, 2u);
  ExpectExactAccounting(service.stats());
  ExpectExportMatches({CountsOf(service)});
}

// Marketplace fixture for staleness: C = queries × locations columns, one
// per-column request each, driven through incremental upserts + flips.
struct SwrFixture {
  static constexpr size_t kQueries = 4;
  static constexpr size_t kLocations = 3;
  static constexpr size_t kWorkers = 12;
  static constexpr size_t kColumns = kQueries * kLocations;

  AttributeSchema schema;
  std::optional<GroupSpace> space;
  std::optional<MarketplaceCubeMaintainer> maintainer;
  std::vector<QuantificationRequest> requests;  // one per column

  static MarketRanking RandomRanking(Rng& rng) {
    MarketRanking ranking;
    std::vector<WorkerId> pool(kWorkers);
    for (size_t w = 0; w < kWorkers; ++w) pool[w] = static_cast<WorkerId>(w);
    rng.Shuffle(pool);
    size_t length = 3 + rng.NextBelow(kWorkers - 3);
    ranking.workers.assign(pool.begin(), pool.begin() + length);
    return ranking;
  }

  void Build(uint64_t seed) {
    ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
    space = *GroupSpace::Enumerate(schema);
    MarketplaceDataset data(schema);
    Rng rng(seed);
    for (size_t w = 0; w < kWorkers; ++w) {
      ASSERT_TRUE(data.AddWorker("w" + std::to_string(w),
                                 {static_cast<int32_t>(rng.NextBelow(2))})
                      .ok());
    }
    for (size_t q = 0; q < kQueries; ++q) {
      data.queries().GetOrAdd("q" + std::to_string(q));
    }
    for (size_t l = 0; l < kLocations; ++l) {
      data.locations().GetOrAdd("l" + std::to_string(l));
    }
    for (size_t q = 0; q < kQueries; ++q) {
      for (size_t l = 0; l < kLocations; ++l) {
        ASSERT_TRUE(data.SetRanking(static_cast<QueryId>(q),
                                    static_cast<LocationId>(l),
                                    RandomRanking(rng))
                        .ok());
      }
    }
    Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
        std::move(data), *space, MarketMeasure::kExposure);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    maintainer.emplace(std::move(*made));

    for (size_t q = 0; q < kQueries; ++q) {
      for (size_t l = 0; l < kLocations; ++l) {
        QuantificationRequest request;
        request.target = Dimension::kGroup;
        request.k = 2;
        request.missing = MissingCellPolicy::kZero;
        request.agg1 = AxisSelector::Single(q);
        request.agg2 = AxisSelector::Single(l);
        requests.push_back(request);
      }
    }
  }

  // Upserts fresh rankings for columns [0, k) until one batch changes all
  // of them, so exactly those k columns' epochs moved since the warm pass.
  void TouchColumns(size_t k, Rng& rng) {
    UpsertReport report;
    do {
      CrawlBatch batch;
      for (size_t c = 0; c < k; ++c) {
        CrawlBatchRow row;
        row.query = static_cast<QueryId>(c / kLocations);
        row.location = static_cast<LocationId>(c % kLocations);
        row.ranking = RandomRanking(rng);
        batch.rows.push_back(std::move(row));
      }
      Result<UpsertReport> applied = maintainer->UpsertCrawlBatch(batch);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      report = *applied;
    } while (report.columns_changed != k);
  }

  Result<QuantificationResult> Direct(size_t key) const {
    return SolveQuantification(maintainer->snapshot()->cube(),
                               maintainer->snapshot()->indices(),
                               requests[key]);
  }
};

// The stale-while-revalidate property of ISSUE 8: after an upsert touching
// k of C columns, (a) stale entries are served at most stale_budget times
// per key, (b) the refreshed value is bitwise equal to a cold answer on the
// new snapshot, and (c) the C − k untouched columns never serve stale.
TEST(CacheFreshnessTest, StaleServedAtMostBudgetTimesThenRefreshedBitwise) {
  SwrFixture fx;
  fx.Build(/*seed=*/41);
  ASSERT_FALSE(::testing::Test::HasFailure());
  constexpr size_t kTouched = 3;
  constexpr uint32_t kStaleBudget = 2;

  QuantificationService::Options options;
  options.stale_budget = kStaleBudget;
  MetricsRegistry::Global().Reset();
  QuantificationService service(fx.maintainer->snapshot(), options);

  // Warm pass: one computation per column; capture the pre-upsert oracle.
  std::vector<QuantificationResult> old_oracle;
  for (size_t key = 0; key < SwrFixture::kColumns; ++key) {
    Result<QuantificationResult> answer = service.Answer(fx.requests[key]);
    ASSERT_TRUE(answer.ok());
    old_oracle.push_back(*answer);
  }
  ASSERT_EQ(service.stats().computations, SwrFixture::kColumns);

  Rng rng(/*seed=*/43);
  fx.TouchColumns(kTouched, rng);
  ASSERT_FALSE(::testing::Test::HasFailure());
  service.SetSnapshot(fx.maintainer->snapshot());

  std::vector<QuantificationResult> new_oracle;
  for (size_t key = 0; key < SwrFixture::kColumns; ++key) {
    Result<QuantificationResult> direct = fx.Direct(key);
    ASSERT_TRUE(direct.ok());
    new_oracle.push_back(*direct);
  }
  // The touch loop guarantees changed columns; sanity-check the oracle
  // actually moved for at least one touched column.
  size_t moved = 0;
  for (size_t key = 0; key < kTouched; ++key) {
    if (!SameAnswers(old_oracle[key], new_oracle[key])) ++moved;
  }
  ASSERT_GE(moved, 1u);

  // (a) + (b): each touched column serves the OLD value exactly
  // kStaleBudget times, then the next request computes a refresh that is
  // bitwise equal to the cold answer. Untouched columns stay fresh (c).
  for (size_t key = 0; key < SwrFixture::kColumns; ++key) {
    const bool touched = key < kTouched;
    for (uint32_t serve = 0; serve < kStaleBudget; ++serve) {
      Result<QuantificationResult> answer = service.Answer(fx.requests[key]);
      ASSERT_TRUE(answer.ok());
      EXPECT_TRUE(SameAnswers(*answer, touched ? old_oracle[key]
                                               : new_oracle[key]))
          << "key " << key << " serve " << serve;
    }
    Result<QuantificationResult> refreshed = service.Answer(fx.requests[key]);
    ASSERT_TRUE(refreshed.ok());
    EXPECT_TRUE(SameAnswers(*refreshed, new_oracle[key])) << "key " << key;
    // And the refresh sticks: the next serve is a fresh hit of the new value.
    Result<QuantificationResult> after = service.Answer(fx.requests[key]);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(SameAnswers(*after, new_oracle[key])) << "key " << key;
  }

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.stale_hits, kTouched * kStaleBudget);
  EXPECT_EQ(stats.stale_refreshes, kTouched);
  EXPECT_EQ(stats.computations, SwrFixture::kColumns + kTouched);
  EXPECT_EQ(stats.errors, 0u);
  ExpectExactAccounting(stats);
  ExpectExportMatches({CountsOf(service)});
}

TEST(CacheFreshnessTest, StaleBudgetZeroKeepsStrictFreshness) {
  SwrFixture fx;
  fx.Build(/*seed=*/47);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService service(fx.maintainer->snapshot());  // stale_budget=0
  for (size_t key = 0; key < SwrFixture::kColumns; ++key) {
    ASSERT_TRUE(service.Answer(fx.requests[key]).ok());
  }
  Rng rng(/*seed=*/53);
  fx.TouchColumns(/*k=*/1, rng);
  ASSERT_FALSE(::testing::Test::HasFailure());
  service.SetSnapshot(fx.maintainer->snapshot());

  // Strict freshness: the touched column recomputes on first request (and
  // matches the new snapshot's cold answer); nothing is ever served stale.
  Result<QuantificationResult> direct = fx.Direct(0);
  ASSERT_TRUE(direct.ok());
  Result<QuantificationResult> answer = service.Answer(fx.requests[0]);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(SameAnswers(*answer, *direct));
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.stale_hits, 0u);
  EXPECT_EQ(stats.computations, SwrFixture::kColumns + 1);
  ExpectExactAccounting(stats);
}

// The answer cache keys entries by request shape and keeps the epoch digest
// in the value, so the refresh that ends a staleness episode overwrites the
// stale entry in place: one update, no insertion. A request over untouched
// columns keeps hitting fresh across the upsert.
TEST(CacheFreshnessTest, RefreshAfterUpsertUpdatesTheEntryInPlace) {
  SwrFixture fx;
  fx.Build(/*seed=*/59);
  ASSERT_FALSE(::testing::Test::HasFailure());
  constexpr uint32_t kStaleBudget = 2;

  QuantificationService::Options options;
  options.stale_budget = kStaleBudget;
  QuantificationService service(fx.maintainer->snapshot(), options);
  const QuantificationRequest& touched = fx.requests[0];
  const QuantificationRequest& untouched =
      fx.requests[SwrFixture::kColumns - 1];
  ASSERT_TRUE(service.Answer(touched).ok());
  ASSERT_TRUE(service.Answer(untouched).ok());
  const auto warm = service.cache_stats();
  ASSERT_EQ(warm.insertions, 2u);
  ASSERT_EQ(warm.updates, 0u);

  Rng rng(/*seed=*/61);
  fx.TouchColumns(/*k=*/1, rng);  // column 0: read by `touched` only
  ASSERT_FALSE(::testing::Test::HasFailure());
  service.SetSnapshot(fx.maintainer->snapshot());

  // kStaleBudget stale serves, then the budget forces a refresh.
  for (uint32_t serve = 0; serve <= kStaleBudget; ++serve) {
    ASSERT_TRUE(service.Answer(touched).ok());
  }
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.stale_hits, kStaleBudget);
  EXPECT_EQ(stats.stale_refreshes, 1u);
  EXPECT_EQ(stats.computations, 3u);
  const auto refreshed = service.cache_stats();
  EXPECT_EQ(refreshed.insertions, warm.insertions);
  EXPECT_EQ(refreshed.updates, warm.updates + 1);

  // Both entries now serve fresh: no computation, no stale serve, no entry.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Answer(untouched).ok());
  }
  ASSERT_TRUE(service.Answer(touched).ok());
  stats = service.stats();
  EXPECT_EQ(stats.stale_hits, kStaleBudget);
  EXPECT_EQ(stats.computations, 3u);
  EXPECT_EQ(stats.cache_hits, kStaleBudget + 4u);
  EXPECT_EQ(service.cache_stats().insertions, warm.insertions);
  ExpectExactAccounting(stats);
}

// --- Single flight -----------------------------------------------------------

// Deterministic coalescing under admission: with the cache off and two
// permits, the leader of a key parks in the hook until a duplicate has
// coalesced onto its flight. The duplicate computes nothing, and it gives
// its permit back before blocking on the leader: a distinct key must still
// be admitted and computed while the leader holds the other permit (with no
// queue, a missing permit would reject it with kUnavailable).
TEST(SingleFlightTest, DuplicateCoalescesExactlyOnceAndFollowerFreesPermit) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/47);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());
  const Result<QuantificationResult> direct =
      SolveQuantification(*cube, indices, space.requests[0]);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  QuantificationService* served = nullptr;
  auto wait_coalesced = [&] {
    for (int i = 0; i < 5000 && served->stats().coalesced < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  Gate started, release;
  std::atomic<int> hook_calls{0};
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_inflight = 2;
  options.compute_started_hook = [&] {
    if (hook_calls.fetch_add(1) != 0) return;  // only the first leader parks
    started.Open();
    wait_coalesced();
    release.Wait();
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);
  served = &service;

  auto bit_equal = [&](const Result<QuantificationResult>& answer) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->answers.size(), direct->answers.size());
    for (size_t i = 0; i < answer->answers.size(); ++i) {
      EXPECT_EQ(answer->answers[i].id, direct->answers[i].id);
      EXPECT_EQ(std::bit_cast<uint64_t>(answer->answers[i].value),
                std::bit_cast<uint64_t>(direct->answers[i].value));
    }
  };
  std::thread leader([&] { bit_equal(service.Answer(space.requests[0])); });
  started.Wait();
  std::thread follower([&] { bit_equal(service.Answer(space.requests[0])); });
  wait_coalesced();
  // No ASSERT until the threads are joined: the leader is parked until
  // release opens.
  EXPECT_EQ(service.stats().coalesced, 1u);
  EXPECT_EQ(service.stats().computations, 0u);  // the leader is still parked

  // The leader still holds its permit; the distinct key gets the one the
  // follower returned.
  Result<QuantificationResult> distinct = service.Answer(space.requests[1]);
  EXPECT_TRUE(distinct.ok() && SameAnswers(*distinct, space.expected[1]))
      << distinct.status().ToString();
  const uint64_t distinct_computations = service.stats().computations;
  EXPECT_EQ(distinct_computations, 1u);

  release.Open();
  leader.join();
  follower.join();

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.rejected_queue, 0u);
  // The duplicate pair computed exactly once and coalesced exactly once.
  EXPECT_EQ(stats.computations - distinct_computations, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(hook_calls.load(), 2);
  ExpectExactAccounting(stats);
}

// --- Arrival schedule --------------------------------------------------------

TEST(ArrivalScheduleTest, DeterministicSortedAndInHorizon) {
  ArrivalSpec spec;
  spec.seed = 7;
  spec.target_qps = 5000;
  spec.duration_seconds = 0.5;
  std::vector<int64_t> a = GenerateArrivalTimesMicros(spec);
  std::vector<int64_t> b = GenerateArrivalTimesMicros(spec);
  EXPECT_EQ(a, b);  // same seed, same stream
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 0);
    EXPECT_LT(a[i], 500'000);
    if (i > 0) {
      EXPECT_GE(a[i], a[i - 1]);
    }
  }
  spec.seed = 8;
  EXPECT_NE(GenerateArrivalTimesMicros(spec), a);  // seed changes the stream
}

TEST(ArrivalScheduleTest, CountTracksTargetRate) {
  ArrivalSpec spec;
  spec.seed = 21;
  spec.target_qps = 4000;
  spec.duration_seconds = 1.0;
  size_t count = GenerateArrivalTimesMicros(spec).size();
  // Poisson(4000): stddev ≈ 63, so ±10% is a > 6-sigma band.
  EXPECT_GT(count, 3600u);
  EXPECT_LT(count, 4400u);
}

TEST(ArrivalScheduleTest, DegenerateSpecsYieldEmptySchedules) {
  ArrivalSpec spec;
  spec.target_qps = 0;
  EXPECT_TRUE(GenerateArrivalTimesMicros(spec).empty());
  spec.target_qps = 100;
  spec.duration_seconds = 0;
  EXPECT_TRUE(GenerateArrivalTimesMicros(spec).empty());
  spec.duration_seconds = -1;
  EXPECT_TRUE(GenerateArrivalTimesMicros(spec).empty());
}

// --- Load harness ------------------------------------------------------------

TEST(LoadHarnessTest, OpenLoopAccountsForEveryScheduledArrival) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/61);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService::Options options;
  options.max_inflight = 8;
  options.max_queue_depth = 64;
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  ArrivalSpec arrival_spec;
  arrival_spec.seed = 3;
  arrival_spec.target_qps = 2000;
  arrival_spec.duration_seconds = 0.15;
  std::vector<int64_t> arrivals = GenerateArrivalTimesMicros(arrival_spec);
  ASSERT_FALSE(arrivals.empty());

  LoadGenOptions load_options;
  load_options.num_workers = 4;
  LoadReport report =
      RunOpenLoopLoad(service, space.requests, arrivals, load_options);

  EXPECT_EQ(report.counts.offered, arrivals.size());
  EXPECT_EQ(report.counts.ok + report.counts.deadline_exceeded +
                report.counts.unavailable + report.counts.other_errors,
            report.counts.offered);
  // Generous limits and no deadline: everything completes.
  EXPECT_EQ(report.counts.ok, report.counts.offered);
  EXPECT_EQ(report.counts.other_errors, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_LE(report.p50_us, report.p99_us);
  EXPECT_LE(report.p99_us, report.p999_us);
  EXPECT_LE(report.p999_us, report.max_us);

  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, arrivals.size());
  ExpectExactAccounting(stats);
}

TEST(LoadHarnessTest, OpenLoopOverloadShedsInsteadOfStalling) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/67);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Capacity ≈ 200 QPS (5 ms per compute, one permit), offered 2000 QPS:
  // a 10× overload. The schedule must still complete quickly because the
  // service rejects/sheds instead of queueing unboundedly.
  QuantificationService::Options options;
  options.cache_capacity = 0;
  options.max_inflight = 1;
  options.max_queue_depth = 1;
  options.compute_started_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  QuantificationService service(CubeSnapshot::Make(*cube),
                                options);

  ArrivalSpec arrival_spec;
  arrival_spec.seed = 5;
  arrival_spec.target_qps = 2000;
  arrival_spec.duration_seconds = 0.1;
  std::vector<int64_t> arrivals = GenerateArrivalTimesMicros(arrival_spec);

  LoadGenOptions load_options;
  load_options.num_workers = 4;
  load_options.deadline_budget_micros = 2000;
  LoadReport report =
      RunOpenLoopLoad(service, space.requests, arrivals, load_options);

  EXPECT_EQ(report.counts.offered, arrivals.size());
  EXPECT_EQ(report.counts.ok + report.counts.deadline_exceeded +
                report.counts.unavailable,
            report.counts.offered);
  EXPECT_EQ(report.counts.other_errors, 0u);
  EXPECT_GE(report.counts.ok, 1u);
  EXPECT_LT(report.counts.ok, report.counts.offered);
  EXPECT_GE(report.counts.deadline_exceeded + report.counts.unavailable,
            report.counts.offered / 2);
  // Shedding keeps the run near the schedule length, nowhere near the
  // ~offered × 5 ms a fully serialized drain would take.
  EXPECT_LT(report.wall_seconds, 10.0);
  ExpectExactAccounting(service.stats());
}

TEST(LoadHarnessTest, ClosedLoopMeasuresPositiveCapacity) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/71);
  IndexSet indices = IndexSet::Build(*cube);
  KeySpace space = MakeKeySpace(*cube, indices);
  ASSERT_FALSE(::testing::Test::HasFailure());

  QuantificationService service(CubeSnapshot::Make(*cube));
  LoadGenOptions load_options;
  load_options.num_workers = 2;
  LoadReport report =
      RunClosedLoopLoad(service, space.requests, /*duration_seconds=*/0.1,
                        load_options);

  EXPECT_GT(report.counts.offered, 0u);
  EXPECT_EQ(report.counts.ok, report.counts.offered);
  EXPECT_EQ(report.counts.other_errors, 0u);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_GT(report.wall_seconds, 0.05);
  ExpectExactAccounting(service.stats());
}

}  // namespace
}  // namespace fairjob
