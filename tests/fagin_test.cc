#include "core/fagin_family.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "common/rng.h"

namespace fairjob {
namespace {

constexpr TopKAlgorithm kTA = TopKAlgorithm::kThresholdAlgorithm;
constexpr TopKAlgorithm kScan = TopKAlgorithm::kScan;

std::vector<const InvertedIndex*> Pointers(
    const std::vector<InvertedIndex>& lists) {
  std::vector<const InvertedIndex*> out;
  for (const InvertedIndex& list : lists) out.push_back(&list);
  return out;
}

TEST(FaginTest, RejectsBadArguments) {
  InvertedIndex list({{0, 1.0}});
  TopKOptions options;
  options.k = 0;
  EXPECT_FALSE(RunTopK(kTA, {&list}, options).ok());
  EXPECT_FALSE(RunTopK(kScan, {&list}, options).ok());
  options.k = 1;
  EXPECT_FALSE(RunTopK(kTA, {}, options).ok());
  EXPECT_FALSE(RunTopK(kTA, {nullptr}, options).ok());
}

TEST(FaginTest, SingleListTopKIsPrefix) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(
      std::vector<ScoredEntry>{{0, 0.1}, {1, 0.9}, {2, 0.5}, {3, 0.7}});
  TopKOptions options;
  options.k = 2;
  Result<std::vector<ScoredEntry>> top = RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].pos, 1);
  EXPECT_DOUBLE_EQ((*top)[0].value, 0.9);
  EXPECT_EQ((*top)[1].pos, 3);
}

TEST(FaginTest, SingleListBottomKIsSuffix) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(
      std::vector<ScoredEntry>{{0, 0.1}, {1, 0.9}, {2, 0.5}, {3, 0.7}});
  TopKOptions options;
  options.k = 2;
  options.direction = RankDirection::kLeastUnfair;
  Result<std::vector<ScoredEntry>> bottom =
      RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(bottom.ok());
  ASSERT_EQ(bottom->size(), 2u);
  EXPECT_EQ((*bottom)[0].pos, 0);
  EXPECT_EQ((*bottom)[1].pos, 2);
}

TEST(FaginTest, AveragesAcrossLists) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.2}, {1, 0.8}});
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.6}, {1, 0.0}});
  TopKOptions options;
  options.k = 2;
  Result<std::vector<ScoredEntry>> top = RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  // id 0: (0.2+0.6)/2 = 0.4; id 1: (0.8+0.0)/2 = 0.4 -> tie broken by pos.
  EXPECT_DOUBLE_EQ((*top)[0].value, 0.4);
  EXPECT_DOUBLE_EQ((*top)[1].value, 0.4);
}

TEST(FaginTest, MissingPolicySkipVsZero) {
  // id 1 present only in list 0 with value 0.9.
  std::vector<InvertedIndex> lists;
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.4}, {1, 0.9}});
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.4}});
  TopKOptions options;
  options.k = 1;

  options.missing = MissingCellPolicy::kSkip;
  Result<std::vector<ScoredEntry>> skip =
      RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(skip.ok());
  EXPECT_EQ((*skip)[0].pos, 1);  // avg over present = 0.9 beats 0.4

  options.missing = MissingCellPolicy::kZero;
  Result<std::vector<ScoredEntry>> zero =
      RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ((*zero)[0].pos, 1);  // 0.9/2 = 0.45 still beats 0.4
  EXPECT_DOUBLE_EQ((*zero)[0].value, 0.45);
}

TEST(FaginTest, AllowedFilterRestrictsCandidates) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(
      std::vector<ScoredEntry>{{0, 0.9}, {1, 0.8}, {2, 0.7}, {3, 0.6}});
  std::vector<int32_t> allowed = {2, 3};
  TopKOptions options;
  options.k = 2;
  options.allowed = &allowed;
  Result<std::vector<ScoredEntry>> top = RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].pos, 2);
  EXPECT_EQ((*top)[1].pos, 3);
}

TEST(FaginTest, KLargerThanUniverseReturnsEverything) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(std::vector<ScoredEntry>{{0, 0.5}, {1, 0.1}});
  TopKOptions options;
  options.k = 10;
  Result<std::vector<ScoredEntry>> top = RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 2u);
}

TEST(FaginTest, EmptyListsYieldEmptyResult) {
  std::vector<InvertedIndex> lists;
  lists.emplace_back(std::vector<ScoredEntry>{});
  TopKOptions options;
  options.k = 3;
  Result<std::vector<ScoredEntry>> top = RunTopK(kTA, Pointers(lists), options);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
}

TEST(FaginTest, EarlyTerminationDoesFewerAccessesThanScan) {
  // A long list with one clear winner: TA should stop early.
  std::vector<ScoredEntry> entries;
  for (int32_t i = 0; i < 1000; ++i) {
    entries.push_back({i, 1.0 / (1.0 + i)});
  }
  std::vector<InvertedIndex> lists;
  lists.emplace_back(entries);
  lists.emplace_back(entries);
  TopKOptions options;
  options.k = 3;
  FaginStats ta_stats;
  FaginStats scan_stats;
  Result<std::vector<ScoredEntry>> ta =
      RunTopK(kTA, Pointers(lists), options, &ta_stats);
  Result<std::vector<ScoredEntry>> scan =
      RunTopK(kScan, Pointers(lists), options, &scan_stats);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(scan.ok());
  EXPECT_LT(ta_stats.sorted_accesses, scan_stats.sorted_accesses / 10);
  EXPECT_LT(ta_stats.ids_scored, 50u);
  ASSERT_EQ(ta->size(), scan->size());
  for (size_t i = 0; i < ta->size(); ++i) {
    EXPECT_EQ((*ta)[i].pos, (*scan)[i].pos);
  }
}

// --- TA ≡ naive scan, across directions × policies × densities ---------------

struct SweepParam {
  RankDirection direction;
  MissingCellPolicy missing;
  double density;  // probability a cell is present
};

class FaginEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(FaginEquivalenceTest, MatchesScanOnRandomInstances) {
  auto [dir_i, pol_i, density] = GetParam();
  RankDirection direction = static_cast<RankDirection>(dir_i);
  MissingCellPolicy missing = static_cast<MissingCellPolicy>(pol_i);

  Rng rng(static_cast<uint64_t>(dir_i * 100 + pol_i * 10) +
          static_cast<uint64_t>(density * 1000));
  for (int trial = 0; trial < 15; ++trial) {
    size_t universe = 5 + rng.NextBelow(40);
    size_t num_lists = 1 + rng.NextBelow(6);
    std::vector<InvertedIndex> lists;
    for (size_t l = 0; l < num_lists; ++l) {
      std::vector<ScoredEntry> entries;
      for (size_t id = 0; id < universe; ++id) {
        if (rng.NextBernoulli(density)) {
          // Values drawn on a grid to exercise tie handling.
          double v = std::floor(rng.NextDouble() * 20.0) / 20.0;
          entries.push_back({static_cast<int32_t>(id), v});
        }
      }
      lists.emplace_back(std::move(entries));
    }
    TopKOptions options;
    options.k = 1 + rng.NextBelow(8);
    options.direction = direction;
    options.missing = missing;

    Result<std::vector<ScoredEntry>> ta =
        RunTopK(kTA, Pointers(lists), options);
    Result<std::vector<ScoredEntry>> scan =
        RunTopK(kScan, Pointers(lists), options);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(ta->size(), scan->size()) << "trial " << trial;
    // With ties the returned ids may differ; the value sequences must match.
    for (size_t i = 0; i < ta->size(); ++i) {
      EXPECT_NEAR((*ta)[i].value, (*scan)[i].value, 1e-12)
          << "trial " << trial << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DirectionsPoliciesDensities, FaginEquivalenceTest,
    ::testing::Combine(::testing::Values(0, 1),      // most / least
                       ::testing::Values(0, 1),      // skip / zero
                       ::testing::Values(1.0, 0.7, 0.3)));

}  // namespace
}  // namespace fairjob
