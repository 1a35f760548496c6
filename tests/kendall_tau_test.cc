#include "ranking/kendall_tau.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "ranking/list_batch.h"

namespace fairjob {
namespace {

TEST(CountInversionsTest, SortedHasNone) {
  EXPECT_EQ(CountInversions({1, 2, 3, 4, 5}), 0u);
}

TEST(CountInversionsTest, ReversedHasAllPairs) {
  EXPECT_EQ(CountInversions({5, 4, 3, 2, 1}), 10u);
}

TEST(CountInversionsTest, SingleSwap) {
  EXPECT_EQ(CountInversions({2, 1, 3}), 1u);
}

TEST(CountInversionsTest, MatchesBruteForceOnRandomInputs) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> v(30);
    for (auto& x : v) x = static_cast<int32_t>(rng.NextBelow(100));
    uint64_t brute = 0;
    for (size_t i = 0; i < v.size(); ++i) {
      for (size_t j = i + 1; j < v.size(); ++j) {
        if (v[i] > v[j]) ++brute;
      }
    }
    EXPECT_EQ(CountInversions(v), brute);
  }
}

TEST(KendallTauDistanceTest, IdenticalListsAreZero) {
  RankedList a = {3, 1, 4, 1 + 4, 9};
  EXPECT_DOUBLE_EQ(*KendallTauDistance(a, a), 0.0);
}

TEST(KendallTauDistanceTest, ReversedListsAreOne) {
  RankedList a = {1, 2, 3, 4};
  RankedList b = {4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(*KendallTauDistance(a, b), 1.0);
}

TEST(KendallTauDistanceTest, SingleSwapNormalized) {
  RankedList a = {1, 2, 3};
  RankedList b = {2, 1, 3};
  EXPECT_DOUBLE_EQ(*KendallTauDistance(a, b), 1.0 / 3.0);
}

TEST(KendallTauDistanceTest, Symmetric) {
  RankedList a = {1, 2, 3, 4, 5};
  RankedList b = {2, 4, 1, 5, 3};
  EXPECT_DOUBLE_EQ(*KendallTauDistance(a, b), *KendallTauDistance(b, a));
}

TEST(KendallTauDistanceTest, SingletonIsZero) {
  EXPECT_DOUBLE_EQ(*KendallTauDistance({7}, {7}), 0.0);
}

TEST(KendallTauDistanceTest, RejectsEmpty) {
  EXPECT_FALSE(KendallTauDistance({}, {}).ok());
}

TEST(KendallTauDistanceTest, RejectsDifferentItemSets) {
  Result<double> r = KendallTauDistance({1, 2}, {1, 3});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(KendallTauDistanceTest, RejectsDifferentLengths) {
  EXPECT_FALSE(KendallTauDistance({1, 2, 3}, {1, 2}).ok());
}

TEST(KendallTauDistanceTest, RejectsDuplicates) {
  EXPECT_FALSE(KendallTauDistance({1, 1}, {1, 1}).ok());
}

TEST(KendallTauCorrelationTest, MapsDistanceToCorrelation) {
  RankedList a = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(*KendallTauCorrelation(a, a), 1.0);
  RankedList b = {4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(*KendallTauCorrelation(a, b), -1.0);
}

TEST(KendallTauTopKTest, IdenticalListsAreZero) {
  RankedList a = {10, 20, 30};
  EXPECT_DOUBLE_EQ(*KendallTauTopK(a, a, 0.5), 0.0);
}

TEST(KendallTauTopKTest, DisjointListsAreOne) {
  RankedList a = {1, 2, 3};
  RankedList b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(*KendallTauTopK(a, b, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*KendallTauTopK(a, b, 0.5), 1.0);
}

TEST(KendallTauTopKTest, SameItemsMatchesFullDistanceScaledByNormalizer) {
  // With identical item sets there are no case-2/3/4 pairs: the raw penalty
  // equals the classic discordant-pair count; only the normalizer differs.
  RankedList a = {1, 2, 3, 4};
  RankedList b = {4, 3, 2, 1};
  double p = 0.5;
  double raw = 6.0;  // all C(4,2) pairs discordant
  double norm = 16.0 + p * (6.0 + 6.0);
  EXPECT_NEAR(*KendallTauTopK(a, b, p), raw / norm, 1e-12);
}

TEST(KendallTauTopKTest, SymmetricUnderSwap) {
  RankedList a = {1, 2, 3, 7};
  RankedList b = {2, 9, 1, 5};
  EXPECT_DOUBLE_EQ(*KendallTauTopK(a, b, 0.5), *KendallTauTopK(b, a, 0.5));
}

TEST(KendallTauTopKTest, MoreOverlapMeansSmallerDistance) {
  RankedList a = {1, 2, 3, 4, 5};
  RankedList same_order_partial = {1, 2, 3, 8, 9};
  RankedList disjoint = {6, 7, 8, 9, 10};
  double d_partial = *KendallTauTopK(a, same_order_partial, 0.5);
  double d_disjoint = *KendallTauTopK(a, disjoint, 0.5);
  EXPECT_LT(d_partial, d_disjoint);
  EXPECT_GT(d_partial, 0.0);
}

TEST(KendallTauTopKTest, PenaltyParameterExactValues) {
  RankedList a = {1, 2, 3, 4};
  RankedList b = {1, 2, 7, 8};
  // Raw penalty: 4 case-3 pairs + 2 case-4 pairs ({3,4} and {7,8}) at p each;
  // normalizer: |a||b| + p(C(4,2)+C(4,2)) = 16 + 12p.
  EXPECT_NEAR(*KendallTauTopK(a, b, 0.0), 4.0 / 16.0, 1e-12);
  EXPECT_NEAR(*KendallTauTopK(a, b, 1.0), 6.0 / 28.0, 1e-12);
  EXPECT_NEAR(*KendallTauTopK(a, b, 0.5), 5.0 / 22.0, 1e-12);
}

TEST(KendallTauTopKTest, Case2ImpliedOrderCounts) {
  // j=2 only in a, ranked above i=1 there; in b, 1 present and 2 absent so
  // b implies 1 above 2: the pair is discordant (penalty 1).
  RankedList a = {2, 1};
  RankedList b = {1, 3};
  // Pairs over union {1,2,3}: (1,2): case 2 discordant = 1. (1,3): case 2,
  // a implies 1 above 3 (3 absent), b has 1 above 3: concordant = 0.
  // (2,3): case 3 (2 only in a, 3 only in b) = 1.
  // Normalizer: |a||b| + p(C(2,2 choose)...) = 4 + 0.5*(1+1) = 5.
  EXPECT_NEAR(*KendallTauTopK(a, b, 0.5), 2.0 / 5.0, 1e-12);
}

TEST(KendallTauTopKTest, RejectsBadPenalty) {
  EXPECT_FALSE(KendallTauTopK({1}, {1}, -0.1).ok());
  EXPECT_FALSE(KendallTauTopK({1}, {1}, 1.1).ok());
}

TEST(KendallTauTopKTest, RejectsEmptyOrDuplicates) {
  EXPECT_FALSE(KendallTauTopK({}, {1}, 0.5).ok());
  EXPECT_FALSE(KendallTauTopK({1, 1}, {1, 2}, 0.5).ok());
}

TEST(KendallTauTopKTest, DifferentLengthListsSupported) {
  RankedList a = {1, 2, 3, 4, 5};
  RankedList b = {1, 2};
  Result<double> d = KendallTauTopK(a, b, 0.5);
  ASSERT_TRUE(d.ok());
  EXPECT_GE(*d, 0.0);
  EXPECT_LE(*d, 1.0);
}

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Oracle: the direct O(u²) definition, adding each pair's cost to a double
// one pair at a time over the union in canonical order (a's items in rank
// order, then b-only items in rank order). An item absent from a list ranks
// below everything in it.
double SequentialTopK(const RankedList& a, const RankedList& b, double p) {
  std::unordered_map<int32_t, size_t> pos_a, pos_b;
  for (size_t r = 0; r < a.size(); ++r) pos_a[a[r]] = r;
  for (size_t r = 0; r < b.size(); ++r) pos_b[b[r]] = r;
  RankedList all = a;
  for (int32_t item : b) {
    if (pos_a.count(item) == 0) all.push_back(item);
  }
  auto rank = [](const std::unordered_map<int32_t, size_t>& pos,
                 int32_t item) {
    auto it = pos.find(item);
    return it == pos.end() ? SIZE_MAX : it->second;
  };
  double penalty = 0.0;
  for (size_t x = 0; x < all.size(); ++x) {
    for (size_t y = x + 1; y < all.size(); ++y) {
      size_t ax = rank(pos_a, all[x]), ay = rank(pos_a, all[y]);
      size_t bx = rank(pos_b, all[x]), by = rank(pos_b, all[y]);
      if ((ax == SIZE_MAX && ay == SIZE_MAX) ||
          (bx == SIZE_MAX && by == SIZE_MAX)) {
        penalty += p;  // both items confined to one list
      } else if ((ax < ay) != (bx < by)) {
        penalty += 1.0;
      }
    }
  }
  auto pairs_within = [](size_t n) {
    return static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  };
  double max_penalty =
      static_cast<double>(a.size()) * static_cast<double>(b.size()) +
      p * (pairs_within(a.size()) + pairs_within(b.size()));
  if (max_penalty <= 0.0) return 0.0;
  return std::min(1.0, std::max(0.0, penalty / max_penalty));
}

RankedList Range(int32_t from, int32_t to) {
  RankedList list(static_cast<size_t>(to - from));
  std::iota(list.begin(), list.end(), from);
  return list;
}

// The integer case counts combined once must reproduce the sequential sum
// bit for bit at dyadic p (every partial sum is exact there) and stay
// within its rounding drift at p = 0.3; the batched count kernel must match the
// reference bit for bit at every p, in both orientations.
TEST(KendallTauTopKTest, CaseCountsMatchSequentialOracle) {
  Rng rng(2003);
  RankedList wide = Range(0, 240);
  rng.Shuffle(wide);
  RankedList other = Range(120, 380);
  rng.Shuffle(other);
  RankedList reordered = Range(0, 230);
  rng.Shuffle(reordered);
  struct Pair {
    std::string name;
    RankedList a, b;
  };
  std::vector<Pair> pairs = {
      {"disjoint", {1, 2, 3, 4}, {5, 6, 7}},
      {"identical", {9, 4, 2, 7}, {9, 4, 2, 7}},
      {"prefix", {3, 1, 4, 5, 9, 2, 6}, {3, 1, 4}},
      {"identical singletons", {42}, {42}},
      {"distinct singletons", {42}, {7}},
      {"unequal lengths", {1, 2, 3, 4, 5, 6, 7, 8}, {8, 11, 3, 12}},
      {"200+ partial overlap", wide, other},
      {"200+ same items reordered", Range(0, 230), reordered},
      {"200+ prefix", wide, RankedList(wide.begin(), wide.begin() + 201)},
      {"200+ disjoint", Range(0, 210), Range(500, 720)},
  };
  for (int trial = 0; trial < 6; ++trial) {
    RankedList pool = Range(0, 300);
    rng.Shuffle(pool);
    RankedList a(pool.begin(), pool.begin() + 200 + trial * 7);
    rng.Shuffle(pool);
    RankedList b(pool.begin(), pool.begin() + 210 - trial * 3);
    pairs.push_back({"random 200+ #" + std::to_string(trial), a, b});
  }
  for (const Pair& pair : pairs) {
    for (bool swap : {false, true}) {
      const RankedList& a = swap ? pair.b : pair.a;
      const RankedList& b = swap ? pair.a : pair.b;
      std::vector<const RankedList*> lists = {&a, &b};
      Result<ListDistanceBatch> batch = ListDistanceBatch::Make(lists);
      ASSERT_TRUE(batch.ok()) << batch.status().message();
      ListDistanceBatch::Scratch scratch;
      for (double p : {0.0, 0.3, 0.5, 1.0}) {
        std::string what =
            pair.name + (swap ? " (swapped)" : "") + " p=" + std::to_string(p);
        Result<double> reference = KendallTauTopK(a, b, p);
        ASSERT_TRUE(reference.ok()) << what;
        double oracle = SequentialTopK(a, b, p);
        if (p == 0.3) {
          // The oracle rounds after each of its C(u, 2) additions. On short
          // lists that stays within 4 ulps; on 200+ lists it drifts by
          // thousands of ulps, so those are held to the classic bound for
          // summing positive terms, C(u, 2)·ε relative (u ≤ |a| + |b|).
          size_t u = a.size() + b.size();
          if (u < 32) {
            EXPECT_DOUBLE_EQ(*reference, oracle) << what;
          } else {
            double additions = static_cast<double>(u * (u - 1) / 2);
            EXPECT_NEAR(*reference, oracle, additions * DBL_EPSILON * oracle)
                << what;
          }
        } else {
          EXPECT_EQ(BitsOf(*reference), BitsOf(oracle))
              << what << ": ref=" << *reference << " oracle=" << oracle;
        }
        Result<double> batched = batch->KendallTauTopK(0, 1, p, &scratch);
        ASSERT_TRUE(batched.ok()) << what;
        EXPECT_EQ(BitsOf(*batched), BitsOf(*reference)) << what;
        EXPECT_EQ(BitsOf(*KendallTauTopK(b, a, p)), BitsOf(*reference))
            << what << " symmetry";
      }
    }
  }
}

// Property sweep: distance stays in [0,1] and identical prefixes reduce it.
class KendallTopKPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(KendallTopKPropertyTest, RandomPairsStayNormalized) {
  double p = GetParam();
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    size_t k = 2 + rng.NextBelow(20);
    RankedList a;
    RankedList b;
    // Draw from a shared pool so overlap varies.
    std::vector<int32_t> pool(2 * k);
    std::iota(pool.begin(), pool.end(), 0);
    rng.Shuffle(pool);
    a.assign(pool.begin(), pool.begin() + static_cast<long>(k));
    rng.Shuffle(pool);
    b.assign(pool.begin(), pool.begin() + static_cast<long>(k));
    Result<double> d = KendallTauTopK(a, b, p);
    ASSERT_TRUE(d.ok());
    EXPECT_GE(*d, 0.0);
    EXPECT_LE(*d, 1.0);
    // Self distance is 0, triangle-ish sanity: d(a,a)=0 <= d(a,b).
    EXPECT_LE(*KendallTauTopK(a, a, p), *d + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Penalties, KendallTopKPropertyTest,
                         ::testing::Values(0.0, 0.25, 0.5, 1.0));

}  // namespace
}  // namespace fairjob
