#include "core/quantification_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "support/fagin_reference.h"

namespace fairjob {
namespace {

// Bitwise equality on doubles: NaN payloads and -0.0 vs 0.0 must match too.
bool SameBits(double a, double b) {
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void ExpectIdentical(const Result<QuantificationResult>& batched,
                     const Result<QuantificationResult>& reference,
                     const std::string& label) {
  ASSERT_EQ(batched.ok(), reference.ok()) << label;
  if (!reference.ok()) {
    EXPECT_EQ(batched.status().code(), reference.status().code()) << label;
    EXPECT_EQ(batched.status().message(), reference.status().message())
        << label;
    return;
  }
  ASSERT_EQ(batched->answers.size(), reference->answers.size()) << label;
  for (size_t i = 0; i < reference->answers.size(); ++i) {
    EXPECT_EQ(batched->answers[i].id, reference->answers[i].id)
        << label << " answer " << i;
    EXPECT_TRUE(
        SameBits(batched->answers[i].value, reference->answers[i].value))
        << label << " answer " << i << ": " << batched->answers[i].value
        << " vs " << reference->answers[i].value;
  }
  const FaginStats& bs = batched->stats;
  const FaginStats& rs = reference->stats;
  EXPECT_EQ(bs.sorted_accesses, rs.sorted_accesses) << label;
  EXPECT_EQ(bs.random_accesses, rs.random_accesses) << label;
  EXPECT_EQ(bs.ids_scored, rs.ids_scored) << label;
  EXPECT_EQ(bs.rounds, rs.rounds) << label;
  EXPECT_EQ(bs.threshold_checks, rs.threshold_checks) << label;
}

// The per-request answer against the hash reference engine run over the
// same canonical list view: bitwise answers and equal counters.
void ExpectMatchesHashReference(const UnfairnessCube& cube,
                                const IndexSet& indices,
                                const QuantificationRequest& request,
                                const std::string& label) {
  Result<QuantificationResult> single =
      SolveQuantification(cube, indices, request);
  std::vector<HashedListView> views = BuildHashedViews(
      indices.ListsFor(request.target, CanonicalSelector(request.agg1),
                       CanonicalSelector(request.agg2)));
  TopKOptions options;
  options.k = request.k;
  options.direction = request.direction;
  options.missing = request.missing;
  options.allowed =
      request.allowed_targets.empty() ? nullptr : &request.allowed_targets;
  FaginStats ref_stats;
  Result<std::vector<ScoredEntry>> ref =
      ReferenceRunTopK(request.algorithm, views, options, &ref_stats);
  ASSERT_EQ(single.ok(), ref.ok()) << label;
  if (!ref.ok()) {
    EXPECT_EQ(single.status().message(), ref.status().message()) << label;
    return;
  }
  ASSERT_EQ(single->answers.size(), ref->size()) << label;
  for (size_t i = 0; i < ref->size(); ++i) {
    EXPECT_EQ(single->answers[i].id,
              cube.axis_id(request.target,
                           static_cast<size_t>((*ref)[i].pos)))
        << label << " answer " << i;
    EXPECT_TRUE(SameBits(single->answers[i].value, (*ref)[i].value))
        << label << " answer " << i;
  }
  const FaginStats& ss = single->stats;
  EXPECT_EQ(ss.sorted_accesses, ref_stats.sorted_accesses) << label;
  EXPECT_EQ(ss.random_accesses, ref_stats.random_accesses) << label;
  EXPECT_EQ(ss.ids_scored, ref_stats.ids_scored) << label;
  EXPECT_EQ(ss.rounds, ref_stats.rounds) << label;
  EXPECT_EQ(ss.threshold_checks, ref_stats.threshold_checks) << label;
}

// Batch ≡ N independent single-request runs, bitwise (answers, stats,
// errors), and each single run ≡ the hash reference engine. Both solvers
// run the same lane runners, so the first comparison checks lane isolation
// and the second keeps the test independent of that code. Requests the
// shape validation rejects never reach an engine, so only their errors are
// compared.
void ExpectBatchMatchesReference(
    const UnfairnessCube& cube, const IndexSet& indices,
    const std::vector<QuantificationRequest>& requests,
    BatchExecStats* stats = nullptr) {
  std::vector<Result<QuantificationResult>> batched =
      SolveQuantificationBatch(cube, indices, requests, stats);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<QuantificationResult> reference =
        SolveQuantification(cube, indices, requests[i]);
    ExpectIdentical(batched[i], reference, "request " + std::to_string(i));
    if (ValidateQuantificationRequest(cube, requests[i]).ok()) {
      ExpectMatchesHashReference(cube, indices, requests[i],
                                 "hash request " + std::to_string(i));
    }
  }
}

// A cube with missing cells, negative values and duplicate aggregates so
// every policy/direction branch is exercised.
UnfairnessCube MakeRandomCube(Rng* rng, size_t groups, size_t queries,
                              size_t locations, double present_p = 0.85,
                              bool with_negatives = false) {
  std::vector<int32_t> group_ids;
  std::vector<int32_t> query_ids;
  std::vector<int32_t> location_ids;
  for (size_t g = 0; g < groups; ++g) {
    group_ids.push_back(static_cast<int32_t>(100 + g));
  }
  for (size_t q = 0; q < queries; ++q) {
    query_ids.push_back(static_cast<int32_t>(200 + q));
  }
  for (size_t l = 0; l < locations; ++l) {
    location_ids.push_back(static_cast<int32_t>(300 + l));
  }
  Result<UnfairnessCube> cube =
      UnfairnessCube::Make(group_ids, query_ids, location_ids);
  EXPECT_TRUE(cube.ok());
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        if (!rng->NextBernoulli(present_p)) continue;
        double value = rng->NextDouble();
        if (with_negatives && rng->NextBernoulli(0.3)) value = -value;
        cube->Set(g, q, l, value);
      }
    }
  }
  return std::move(*cube);
}

QuantificationRequest MakeRandomRequest(Rng* rng, const UnfairnessCube& cube) {
  static const Dimension kDims[3] = {Dimension::kGroup, Dimension::kQuery,
                                     Dimension::kLocation};
  static const TopKAlgorithm kAlgs[4] = {
      TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
      TopKAlgorithm::kNRA, TopKAlgorithm::kScan};
  QuantificationRequest request;
  request.target = kDims[rng->NextBelow(3)];
  request.k = 1 + rng->NextBelow(6);
  request.direction = rng->NextBernoulli(0.7) ? RankDirection::kMostUnfair
                                              : RankDirection::kLeastUnfair;
  request.missing = rng->NextBernoulli(0.5) ? MissingCellPolicy::kSkip
                                            : MissingCellPolicy::kZero;
  request.algorithm = kAlgs[rng->NextBelow(4)];

  Dimension d1;
  Dimension d2;
  QuantificationOtherDims(request.target, &d1, &d2);
  auto random_selector = [&](Dimension d) {
    AxisSelector selector;
    size_t size = cube.axis_size(d);
    if (rng->NextBernoulli(0.4)) return selector;  // all
    size_t count = 1 + rng->NextBelow(static_cast<uint32_t>(size));
    for (size_t i = 0; i < count; ++i) {
      selector.positions.push_back(rng->NextBelow(
          static_cast<uint32_t>(size)));  // duplicates + any order
    }
    return selector;
  };
  request.agg1 = random_selector(d1);
  request.agg2 = random_selector(d2);
  if (rng->NextBernoulli(0.4)) {
    size_t size = cube.axis_size(request.target);
    size_t count = 1 + rng->NextBelow(static_cast<uint32_t>(size));
    for (size_t i = 0; i < count; ++i) {
      request.allowed_targets.push_back(
          static_cast<int32_t>(rng->NextBelow(static_cast<uint32_t>(size))));
    }
  }
  return request;
}

TEST(BatchExecTest, EmptyBatch) {
  Rng rng(11);
  UnfairnessCube cube = MakeRandomCube(&rng, 4, 3, 2);
  IndexSet indices = IndexSet::Build(cube);
  BatchExecStats stats;
  std::vector<Result<QuantificationResult>> results =
      SolveQuantificationBatch(cube, indices, {}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.groups, 0u);
  EXPECT_EQ(stats.requests, 0u);
}

TEST(BatchExecTest, SingleRequestEachAlgorithm) {
  Rng rng(12);
  UnfairnessCube cube = MakeRandomCube(&rng, 6, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 3;
    request.missing = MissingCellPolicy::kZero;  // NRA-compatible
    request.algorithm = algorithm;
    ExpectBatchMatchesReference(cube, indices, {request});
  }
}

// All four algorithms, both directions, kSkip and kZero, with and without
// allowed-target bitmaps, sharing one selector group: the headline shape.
TEST(BatchExecTest, MixedLanesOneGroupBitwise) {
  Rng rng(13);
  UnfairnessCube cube = MakeRandomCube(&rng, 12, 5, 4);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
    for (RankDirection direction :
         {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
      for (MissingCellPolicy missing :
           {MissingCellPolicy::kSkip, MissingCellPolicy::kZero}) {
        for (bool filtered : {false, true}) {
          QuantificationRequest request;
          request.target = Dimension::kGroup;
          request.k = 1 + rng.NextBelow(5);
          request.direction = direction;
          request.missing = missing;
          request.algorithm = algorithm;
          if (filtered) request.allowed_targets = {0, 2, 3, 5, 7, 11};
          requests.push_back(request);
        }
      }
    }
  }
  BatchExecStats stats;
  ExpectBatchMatchesReference(cube, indices, requests, &stats);
  // One selector group; NRA lanes with kSkip or kLeastUnfair error out.
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.invalid, 6u);  // 8 NRA combos - 2 valid
  EXPECT_EQ(stats.requests, requests.size() - stats.invalid);
  EXPECT_GT(stats.lists_demanded, stats.lists_gathered);
}

TEST(BatchExecTest, PropertyRandomBatchesBitwise) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const bool negatives = (seed % 3) == 0;  // exercise NRA's fallback path
    const double present_p = (seed % 2) == 0 ? 1.0 : 0.8;
    UnfairnessCube cube =
        MakeRandomCube(&rng, 5 + rng.NextBelow(10), 2 + rng.NextBelow(5),
                       2 + rng.NextBelow(4), present_p, negatives);
    IndexSet indices = IndexSet::Build(cube);
    std::vector<QuantificationRequest> requests;
    const size_t batch = 20 + rng.NextBelow(20);
    for (size_t i = 0; i < batch; ++i) {
      requests.push_back(MakeRandomRequest(&rng, cube));
    }
    ExpectBatchMatchesReference(cube, indices, requests);
  }
}

// Selectors group by their canonical multiset: permutations share a group,
// duplicates do not (a duplicated position weighs its lists twice), and
// every result still matches the per-request reference bitwise.
TEST(BatchExecTest, DuplicateAndPermutedSelectors) {
  Rng rng(14);
  UnfairnessCube cube = MakeRandomCube(&rng, 8, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (const std::vector<size_t>& agg1 : std::vector<std::vector<size_t>>{
           {0, 1}, {1, 0}, {0, 0, 1}, {0, 1, 2, 3}, {}}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 4;
    request.agg1.positions = agg1;
    request.algorithm = TopKAlgorithm::kScan;
    requests.push_back(request);
    request.algorithm = TopKAlgorithm::kThresholdAlgorithm;
    requests.push_back(request);
  }
  BatchExecStats stats;
  ExpectBatchMatchesReference(cube, indices, requests, &stats);
  // {0,1} and {1,0} share a group; {} ("all") stays distinct from
  // {0,1,2,3} even though it resolves the same axis.
  EXPECT_EQ(stats.groups, 4u);
}

TEST(BatchExecTest, ValidationErrorsMatchPerRequest) {
  Rng rng(15);
  UnfairnessCube cube = MakeRandomCube(&rng, 5, 3, 2);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;

  QuantificationRequest bad_selector;
  bad_selector.agg1 = AxisSelector::Single(99);
  requests.push_back(bad_selector);

  QuantificationRequest bad_allowed;
  bad_allowed.allowed_targets = {-1};
  requests.push_back(bad_allowed);

  QuantificationRequest zero_k;
  zero_k.k = 0;
  requests.push_back(zero_k);

  QuantificationRequest nra_skip;
  nra_skip.algorithm = TopKAlgorithm::kNRA;
  nra_skip.missing = MissingCellPolicy::kSkip;
  requests.push_back(nra_skip);

  QuantificationRequest nra_least;
  nra_least.algorithm = TopKAlgorithm::kNRA;
  nra_least.missing = MissingCellPolicy::kZero;
  nra_least.direction = RankDirection::kLeastUnfair;
  requests.push_back(nra_least);

  QuantificationRequest good;
  good.k = 2;
  requests.push_back(good);

  ExpectBatchMatchesReference(cube, indices, requests);
}

// NRA rejects more than 64 lists; the batch path must reject identically
// while other lanes in the same group still compute.
TEST(BatchExecTest, NraListWidthBoundMatches) {
  Rng rng(16);
  UnfairnessCube cube = MakeRandomCube(&rng, 6, 9, 8, /*present_p=*/1.0);
  IndexSet indices = IndexSet::Build(cube);  // 72 (q,l) lists for kGroup
  QuantificationRequest nra;
  nra.target = Dimension::kGroup;
  nra.missing = MissingCellPolicy::kZero;
  nra.algorithm = TopKAlgorithm::kNRA;
  QuantificationRequest scan = nra;
  scan.algorithm = TopKAlgorithm::kScan;
  ExpectBatchMatchesReference(cube, indices, {nra, scan});
}

// k larger than the candidate set: every engine returns everything.
TEST(BatchExecTest, KLargerThanUniverse) {
  Rng rng(17);
  UnfairnessCube cube = MakeRandomCube(&rng, 4, 3, 2, /*present_p=*/0.6);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
    QuantificationRequest request;
    request.k = 100;
    request.missing = MissingCellPolicy::kZero;
    request.algorithm = algorithm;
    requests.push_back(request);
  }
  ExpectBatchMatchesReference(cube, indices, requests);
}

// Wide selector fan-out (72 lists over 150 groups): scan and FA lanes score
// through the group scorer's table pass, which must still be bitwise.
TEST(BatchExecTest, WideFanOutTablePassBitwise) {
  Rng rng(18);
  UnfairnessCube cube = MakeRandomCube(&rng, 150, 9, 8, /*present_p=*/0.9);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kScan, TopKAlgorithm::kFA,
        TopKAlgorithm::kThresholdAlgorithm}) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 7;
    request.algorithm = algorithm;
    requests.push_back(request);
    request.allowed_targets = {1, 3, 5, 7, 9, 111, 149};
    requests.push_back(request);
  }
  ExpectBatchMatchesReference(cube, indices, requests);
}

TEST(BatchExecTest, DeterministicAcrossRuns) {
  Rng rng(19);
  UnfairnessCube cube = MakeRandomCube(&rng, 10, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (size_t i = 0; i < 16; ++i) {
    requests.push_back(MakeRandomRequest(&rng, cube));
  }
  std::vector<Result<QuantificationResult>> first =
      SolveQuantificationBatch(cube, indices, requests);
  std::vector<Result<QuantificationResult>> second =
      SolveQuantificationBatch(cube, indices, requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectIdentical(first[i], second[i], "rerun request " + std::to_string(i));
  }
}

// Amortization accounting: R requests over one selector group gather the
// lists once but demand them R times.
TEST(BatchExecTest, ExecStatsAmortization) {
  Rng rng(20);
  UnfairnessCube cube = MakeRandomCube(&rng, 8, 5, 4, /*present_p=*/1.0);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (size_t i = 0; i < 10; ++i) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 1 + i;
    request.algorithm = TopKAlgorithm::kScan;
    requests.push_back(request);
  }
  BatchExecStats stats;
  std::vector<Result<QuantificationResult>> results =
      SolveQuantificationBatch(cube, indices, requests, &stats);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.lists_gathered, 20u);   // 5 queries x 4 locations
  EXPECT_EQ(stats.lists_demanded, 200u);  // 10 lanes x 20 lists
  EXPECT_EQ(stats.shared_scan_passes, 1u);
  EXPECT_EQ(stats.scan_lanes, 10u);
}

constexpr TopKAlgorithm kAllAlgorithms[] = {
    TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
    TopKAlgorithm::kNRA, TopKAlgorithm::kScan};

// Every algorithm × direction × policy, with and without allowed targets,
// over every target of `cube`: batch ≡ single ≡ hash reference.
void ExpectFullGridAgrees(const UnfairnessCube& cube, const IndexSet& indices,
                          const AxisSelector& agg1, const AxisSelector& agg2,
                          size_t k) {
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    std::vector<int32_t> allowed;
    for (size_t pos = 0; pos < cube.axis_size(target); pos += 2) {
      allowed.push_back(static_cast<int32_t>(pos));
    }
    std::vector<QuantificationRequest> requests;
    for (TopKAlgorithm algorithm : kAllAlgorithms) {
      for (RankDirection direction :
           {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
        for (MissingCellPolicy missing :
             {MissingCellPolicy::kSkip, MissingCellPolicy::kZero}) {
          for (bool filtered : {false, true}) {
            QuantificationRequest request;
            request.target = target;
            request.k = k;
            request.direction = direction;
            request.missing = missing;
            request.algorithm = algorithm;
            if (target != Dimension::kGroup) {
              request.agg1 = agg1;
              request.agg2 = agg2;
            }
            if (filtered) request.allowed_targets = allowed;
            requests.push_back(request);
          }
        }
      }
    }
    ExpectBatchMatchesReference(cube, indices, requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectMatchesHashReference(cube, indices, requests[i],
                                 std::string(DimensionName(target)) +
                                     " request " + std::to_string(i));
    }
  }
}

// At least 90% of the (query, location) columns hold no cell: most selected
// lists are empty, and every engine drops them at the gather.
TEST(BatchExecTest, MostlyEmptyColumnsMatchSingleAndReference) {
  Rng rng(21);
  UnfairnessCube cube = MakeRandomCube(&rng, 10, 8, 5, /*present_p=*/0.0);
  size_t live_columns = 0;
  for (size_t q = 0; q < 8; ++q) {
    for (size_t l = 0; l < 5; ++l) {
      if (!rng.NextBernoulli(0.07) && !(q == 1 && l == 2)) continue;
      ++live_columns;
      for (size_t g = 0; g < 10; ++g) {
        if (rng.NextBernoulli(0.75)) cube.Set(g, q, l, rng.NextDouble());
      }
    }
  }
  ASSERT_LE(live_columns * 10, 8u * 5u);
  IndexSet indices = IndexSet::Build(cube);
  for (size_t k : {size_t{1}, size_t{3}, size_t{20}}) {
    ExpectFullGridAgrees(cube, indices, AxisSelector::All(),
                         AxisSelector::All(), k);
  }
}

// A selection whose every list is empty answers OK with no answers.
TEST(BatchExecTest, AllEmptySelectionAnswersNothing) {
  Rng rng(22);
  UnfairnessCube cube = MakeRandomCube(&rng, 6, 4, 3);
  for (size_t g = 0; g < 6; ++g) cube.Clear(g, 2, 1);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm : kAllAlgorithms) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 3;
    request.missing = MissingCellPolicy::kZero;
    request.agg1 = AxisSelector{{2, 2}};
    request.agg2 = AxisSelector::Single(1);
    request.algorithm = algorithm;
    requests.push_back(request);
  }
  std::vector<Result<QuantificationResult>> batched =
      SolveQuantificationBatch(cube, indices, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().message();
    EXPECT_TRUE(batched[i]->answers.empty());
    ExpectMatchesHashReference(cube, indices, requests[i],
                               "request " + std::to_string(i));
  }
  ExpectBatchMatchesReference(cube, indices, requests);
}

// 72 selected lists of which only 9 hold cells: NRA still rejects the
// selection by its width, and the other lanes of the group still compute.
TEST(BatchExecTest, NraWidthLimitCountsEmptyLists) {
  Rng rng(24);
  UnfairnessCube cube = MakeRandomCube(&rng, 6, 9, 8, /*present_p=*/0.0);
  for (size_t q = 0; q < 9; ++q) {
    for (size_t g = 0; g < 6; ++g) cube.Set(g, q, q % 8, rng.NextDouble());
  }
  IndexSet indices = IndexSet::Build(cube);
  QuantificationRequest nra;
  nra.target = Dimension::kGroup;
  nra.missing = MissingCellPolicy::kZero;
  nra.algorithm = TopKAlgorithm::kNRA;
  Result<QuantificationResult> single = SolveQuantification(cube, indices, nra);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().message(), "NRA supports at most 64 lists");
  std::vector<QuantificationRequest> requests = {nra};
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kScan}) {
    QuantificationRequest other = nra;
    other.algorithm = algorithm;
    requests.push_back(other);
  }
  ExpectBatchMatchesReference(cube, indices, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectMatchesHashReference(cube, indices, requests[i],
                               "request " + std::to_string(i));
  }
}

// TA lanes that stop before the group scorer switches to its table, and a
// lane that reads everything and forces the switch, in one batch.
TEST(BatchExecTest, ThresholdLanesBeforeAndAfterTheScorerSwitch) {
  Rng rng(25);
  UnfairnessCube cube = MakeRandomCube(&rng, 60, 4, 3, /*present_p=*/0.8);
  for (size_t q = 0; q < 4; ++q) {
    for (size_t l = 0; l < 3; ++l) cube.Set(7, q, l, 5.0 + rng.NextDouble());
  }
  IndexSet indices = IndexSet::Build(cube);
  QuantificationRequest early;
  early.target = Dimension::kGroup;
  early.k = 1;
  early.algorithm = TopKAlgorithm::kThresholdAlgorithm;
  QuantificationRequest full = early;
  full.missing = MissingCellPolicy::kZero;
  full.direction = RankDirection::kLeastUnfair;  // no useful bound: reads all
  full.k = 5;

  // Entries over the 12 (all non-empty) lists.
  size_t entries = 0;
  for (const InvertedIndex* list : indices.ListsFor(
           Dimension::kGroup, AxisSelector::All(), AxisSelector::All())) {
    entries += list->size();
  }
  Result<QuantificationResult> early_run =
      SolveQuantification(cube, indices, early);
  Result<QuantificationResult> full_run =
      SolveQuantification(cube, indices, full);
  ASSERT_TRUE(early_run.ok() && full_run.ok());
  EXPECT_LE(early_run->stats.ids_scored * 12, entries);
  EXPECT_GT(full_run->stats.ids_scored * 12, entries);

  ExpectBatchMatchesReference(cube, indices, {early});
  ExpectBatchMatchesReference(cube, indices, {early, full});
  ExpectBatchMatchesReference(cube, indices, {full, early});
  ExpectMatchesHashReference(cube, indices, early, "early");
  ExpectMatchesHashReference(cube, indices, full, "full");
}

// FA lanes of one direction share sorted access but stop at their own
// rounds: a kZero lane with a small k stops early, and its phase-2
// candidates are only the positions read by then, while a kSkip lane in the
// same group reads every list to the end.
TEST(BatchExecTest, FaLanesStopAtTheirOwnRounds) {
  Rng rng(27);
  UnfairnessCube cube = MakeRandomCube(&rng, 40, 4, 3, /*present_p=*/1.0);
  // Group 7 heads every list and group 11 tails every list, so the k=1
  // kZero lanes complete an id in the first round.
  for (size_t q = 0; q < 4; ++q) {
    for (size_t l = 0; l < 3; ++l) {
      cube.Set(7, q, l, 5.0 + rng.NextDouble());
      cube.Set(11, q, l, -5.0 - rng.NextDouble());
    }
  }
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (RankDirection direction :
       {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
    for (size_t k : {size_t{1}, size_t{6}}) {
      for (MissingCellPolicy missing :
           {MissingCellPolicy::kZero, MissingCellPolicy::kSkip}) {
        QuantificationRequest request;
        request.target = Dimension::kGroup;
        request.k = k;
        request.direction = direction;
        request.missing = missing;
        request.algorithm = TopKAlgorithm::kFA;
        requests.push_back(request);
        request.allowed_targets = {0, 3, 4, 9, 17, 25, 31, 38};
        requests.push_back(request);
      }
    }
  }
  std::vector<Result<QuantificationResult>> batched =
      SolveQuantificationBatch(cube, indices, requests);
  ASSERT_TRUE(batched[0].ok() && batched[2].ok());
  // The kZero k=1 lane stopped after one round; the kSkip lane read on.
  EXPECT_EQ(batched[0]->stats.rounds, 1u);
  EXPECT_GT(batched[2]->stats.rounds, 1u);
  ExpectBatchMatchesReference(cube, indices, requests);
}

// Every permutation of a selector multiset returns the same bits, for every
// algorithm, single and batched.
TEST(BatchExecTest, SelectorPermutationsGiveEqualBits) {
  Rng rng(26);
  UnfairnessCube cube =
      MakeRandomCube(&rng, 9, 5, 4, /*present_p=*/0.8, /*negatives=*/true);
  IndexSet indices = IndexSet::Build(cube);
  for (TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    QuantificationRequest base;
    base.target = Dimension::kGroup;
    base.k = 4;
    base.missing = MissingCellPolicy::kZero;
    base.algorithm = algorithm;
    base.agg1.positions = {0, 1, 3, 3};
    base.agg2.positions = {0, 2, 3};
    Result<QuantificationResult> want =
        SolveQuantification(cube, indices, base);
    ASSERT_TRUE(want.ok()) << want.status().message();

    std::vector<QuantificationRequest> spellings;
    std::vector<size_t> agg1 = base.agg1.positions;
    do {
      std::vector<size_t> agg2 = base.agg2.positions;
      do {
        QuantificationRequest request = base;
        request.agg1.positions = agg1;
        request.agg2.positions = agg2;
        spellings.push_back(request);
      } while (std::next_permutation(agg2.begin(), agg2.end()));
    } while (std::next_permutation(agg1.begin(), agg1.end()));
    ASSERT_EQ(spellings.size(), 12u * 6u);

    BatchExecStats stats;
    std::vector<Result<QuantificationResult>> batched =
        SolveQuantificationBatch(cube, indices, spellings, &stats);
    EXPECT_EQ(stats.groups, 1u);
    for (size_t i = 0; i < spellings.size(); ++i) {
      const std::string label = "spelling " + std::to_string(i);
      ExpectIdentical(SolveQuantification(cube, indices, spellings[i]), want,
                      label);
      ExpectIdentical(batched[i], want, label + " batched");
    }
  }
}

// The fagin.<alg>.* values the metrics tests read, per algorithm label.
struct FaginCounters {
  uint64_t runs = 0;
  uint64_t sorted = 0;
  uint64_t random = 0;
  uint64_t latency_samples = 0;
};

const char* const kMetricLabels[] = {"ta", "fa", "nra", "scan"};

size_t LabelIndex(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return 0;
    case TopKAlgorithm::kFA:
      return 1;
    case TopKAlgorithm::kNRA:
      return 2;
    case TopKAlgorithm::kScan:
      return 3;
  }
  return 0;
}

std::vector<FaginCounters> ReadFaginCounters() {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  std::vector<FaginCounters> out;
  for (const char* label : kMetricLabels) {
    const std::string prefix = std::string("fagin.") + label;
    FaginCounters c;
    c.runs = metrics.counter(prefix + ".runs")->Value();
    c.sorted = metrics.counter(prefix + ".sorted_accesses")->Value();
    c.random = metrics.counter(prefix + ".random_accesses")->Value();
    c.latency_samples =
        metrics.histogram(prefix + ".latency_us")->Aggregate().count;
    out.push_back(c);
  }
  return out;
}

// Counter deltas between two reads, per label.
std::vector<FaginCounters> Delta(const std::vector<FaginCounters>& before,
                                 const std::vector<FaginCounters>& after) {
  std::vector<FaginCounters> out(before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    out[i].runs = after[i].runs - before[i].runs;
    out[i].sorted = after[i].sorted - before[i].sorted;
    out[i].random = after[i].random - before[i].random;
    out[i].latency_samples =
        after[i].latency_samples - before[i].latency_samples;
  }
  return out;
}

// Turns the global registry on for one test and restores it after.
class FaginMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kObservabilityCompiledIn) GTEST_SKIP() << "observability compiled out";
    was_enabled_ = MetricsRegistry::Global().enabled();
    MetricsRegistry::Global().SetEnabled(true);
  }
  void TearDown() override {
    if (kObservabilityCompiledIn) {
      MetricsRegistry::Global().SetEnabled(was_enabled_);
    }
  }

 private:
  bool was_enabled_ = false;
};

// A mixed batch publishes fagin.<alg>.* as sums over its valid lanes, and
// no latency: a shared pass has none per lane.
TEST_F(FaginMetricsTest, BatchCountersAreSumsOverLanes) {
  Rng rng(27);
  UnfairnessCube cube = MakeRandomCube(&rng, 12, 5, 4);
  IndexSet indices = IndexSet::Build(cube);
  std::vector<QuantificationRequest> requests;
  for (size_t i = 0; i < 40; ++i) {
    requests.push_back(MakeRandomRequest(&rng, cube));
  }

  const std::vector<FaginCounters> before = ReadFaginCounters();
  std::vector<Result<QuantificationResult>> results =
      SolveQuantificationBatch(cube, indices, requests);
  const std::vector<FaginCounters> delta = Delta(before, ReadFaginCounters());

  std::vector<FaginCounters> want(4);
  size_t valid = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!results[i].ok()) continue;
    ++valid;
    FaginCounters& c = want[LabelIndex(requests[i].algorithm)];
    ++c.runs;
    c.sorted += results[i]->stats.sorted_accesses;
    c.random += results[i]->stats.random_accesses;
  }
  ASSERT_GT(valid, 0u);
  ASSERT_LT(valid, requests.size());  // the batch holds rejected lanes too
  for (size_t a = 0; a < 4; ++a) {
    SCOPED_TRACE(kMetricLabels[a]);
    EXPECT_EQ(delta[a].runs, want[a].runs);
    EXPECT_EQ(delta[a].sorted, want[a].sorted);
    EXPECT_EQ(delta[a].random, want[a].random);
    EXPECT_EQ(delta[a].latency_samples, 0u);
  }
}

// A single request publishes the same counters as a batch holding only it,
// plus its one latency sample.
TEST_F(FaginMetricsTest, SingleRunCountsLikeABatchOfOne) {
  Rng rng(28);
  UnfairnessCube cube = MakeRandomCube(&rng, 10, 4, 3);
  IndexSet indices = IndexSet::Build(cube);
  for (TopKAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(TopKAlgorithmName(algorithm));
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 3;
    request.missing = MissingCellPolicy::kZero;
    request.algorithm = algorithm;

    std::vector<FaginCounters> before = ReadFaginCounters();
    ASSERT_TRUE(SolveQuantification(cube, indices, request).ok());
    const std::vector<FaginCounters> single =
        Delta(before, ReadFaginCounters());
    before = ReadFaginCounters();
    ASSERT_TRUE(SolveQuantificationBatch(cube, indices, {request})[0].ok());
    const std::vector<FaginCounters> batched =
        Delta(before, ReadFaginCounters());

    const size_t a = LabelIndex(algorithm);
    EXPECT_EQ(single[a].runs, 1u);
    for (size_t i = 0; i < 4; ++i) {
      SCOPED_TRACE(kMetricLabels[i]);
      EXPECT_EQ(single[i].runs, batched[i].runs);
      EXPECT_EQ(single[i].sorted, batched[i].sorted);
      EXPECT_EQ(single[i].random, batched[i].random);
      EXPECT_EQ(single[i].latency_samples, i == a ? 1u : 0u);
      EXPECT_EQ(batched[i].latency_samples, 0u);
    }
  }
}

}  // namespace
}  // namespace fairjob
