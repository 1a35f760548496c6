#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace fairjob {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  Status s = pool.ParallelFor(hits.size(), 4, [&](size_t i) {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, Parallelism1RunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<size_t> order;
  std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  Status s = pool.ParallelFor(16, 1, [&](size_t i) {
    order.push_back(i);  // safe: serial fallback, no synchronization needed
    all_on_caller &= std::this_thread::get_id() == caller;
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPoolTest, ZeroThreadPoolStillCompletes) {
  ThreadPool pool(0);
  std::atomic<int> count{0};
  Status s = pool.ParallelFor(10, 8, [&](size_t) {
    count.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, PropagatesFirstError) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  Status s = pool.ParallelFor(1000, 4, [&](size_t i) -> Status {
    ran.fetch_add(1);
    if (i == 3) return Status::InvalidArgument("boom at 3");
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Failure cancels unclaimed work: nowhere near all 1000 indices ran.
  // (Claimed-but-not-started indices may still slip through.)
  EXPECT_LT(ran.load(), 1000);
}

TEST(ThreadPoolTest, ErrorInSerialFallbackStopsImmediately) {
  ThreadPool pool(2);
  int ran = 0;
  Status s = pool.ParallelFor(100, 1, [&](size_t i) -> Status {
    ++ran;
    if (i == 5) return Status::Internal("stop");
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(ran, 6);
}

TEST(ThreadPoolTest, ReusableAcrossManySubmissions) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    size_t n = 1 + static_cast<size_t>(round) * 7 % 64;
    Status s = pool.ParallelFor(n, 3, [&](size_t i) {
      sum.fetch_add(i + 1);
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << "round " << round;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, RecoversAfterFailedSubmission) {
  ThreadPool pool(2);
  Status bad = pool.ParallelFor(
      8, 2, [&](size_t) -> Status { return Status::IOError("down"); });
  ASSERT_FALSE(bad.ok());
  std::atomic<int> count{0};
  Status good = pool.ParallelFor(8, 2, [&](size_t) {
    count.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  Status s = pool.ParallelFor(8, 4, [&](size_t) {
    return pool.ParallelFor(8, 4, [&](size_t) {
      total.fetch_add(1);
      return Status::OK();
    });
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> count{0};
  Status s = a.ParallelFor(32, 4, [&](size_t) {
    count.fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count.load(), 32);
}

}  // namespace
}  // namespace fairjob
