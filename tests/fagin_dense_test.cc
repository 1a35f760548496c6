// Differential suite: the dense position-indexed Fagin engine must return
// bitwise-identical top-k answers — and identical access-count semantics —
// to the legacy hash-based reference engine
// (tests/support/fagin_reference.h), across every algorithm, direction,
// missing-cell policy and allowed-filter variant, on cubes with missing
// cells, and after incremental index maintenance. A dedicated binary (see tests/CMakeLists.txt) so CI can run
// it directly under ASan/TSan.

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fagin.h"
#include "core/fagin_dense.h"
#include "core/fagin_family.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/quantification_batch.h"
#include "core/unfairness_cube.h"
#include "support/fagin_reference.h"

namespace fairjob {
namespace {

uint64_t BitsOf(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// A cube with the requested density of present cells; values uniform [0,1).
UnfairnessCube MakeRandomCube(Rng& rng, size_t groups, size_t queries,
                              size_t locations, double density) {
  std::vector<int32_t> g_ids, q_ids, l_ids;
  for (size_t i = 0; i < groups; ++i) g_ids.push_back(static_cast<int32_t>(i));
  for (size_t i = 0; i < queries; ++i) {
    q_ids.push_back(static_cast<int32_t>(100 + i));
  }
  for (size_t i = 0; i < locations; ++i) {
    l_ids.push_back(static_cast<int32_t>(200 + i));
  }
  auto cube = UnfairnessCube::Make(g_ids, q_ids, l_ids);
  EXPECT_TRUE(cube.ok()) << cube.status().message();
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        if (rng.NextBernoulli(density)) cube->Set(g, q, l, rng.NextDouble());
      }
    }
  }
  return *std::move(cube);
}

// Runs one configuration through both engines and checks full agreement:
// same ok/error outcome and message, bitwise-equal answers and equal stats
// fields. Returns the dense run's stats.
FaginStats ExpectEnginesAgree(TopKAlgorithm algorithm,
                              const std::vector<const InvertedIndex*>& lists,
                              const TopKOptions& options) {
  SCOPED_TRACE(::testing::Message()
               << "algorithm=" << TopKAlgorithmName(algorithm)
               << " k=" << options.k << " most_unfair="
               << (options.direction == RankDirection::kMostUnfair)
               << " skip=" << (options.missing == MissingCellPolicy::kSkip)
               << " allowed=" << (options.allowed != nullptr));

  FaginStats dense_stats;
  Result<std::vector<ScoredEntry>> dense =
      RunTopK(algorithm, lists, options, &dense_stats);

  std::vector<HashedListView> views = BuildHashedViews(lists);
  FaginStats ref_stats;
  Result<std::vector<ScoredEntry>> ref =
      ReferenceRunTopK(algorithm, views, options, &ref_stats);

  EXPECT_EQ(dense.ok(), ref.ok())
      << "dense: " << dense.status().message()
      << " / reference: " << ref.status().message();
  if (!dense.ok() || !ref.ok()) {
    EXPECT_EQ(dense.status().message(), ref.status().message());
    return dense_stats;
  }

  EXPECT_EQ(dense->size(), ref->size());
  if (dense->size() != ref->size()) return dense_stats;
  for (size_t i = 0; i < dense->size(); ++i) {
    EXPECT_EQ((*dense)[i].pos, (*ref)[i].pos) << "entry " << i;
    EXPECT_EQ(BitsOf((*dense)[i].value), BitsOf((*ref)[i].value))
        << "entry " << i << ": " << (*dense)[i].value << " vs "
        << (*ref)[i].value;
  }

  EXPECT_EQ(dense_stats.sorted_accesses, ref_stats.sorted_accesses);
  EXPECT_EQ(dense_stats.random_accesses, ref_stats.random_accesses);
  EXPECT_EQ(dense_stats.ids_scored, ref_stats.ids_scored);
  EXPECT_EQ(dense_stats.rounds, ref_stats.rounds);
  EXPECT_EQ(dense_stats.threshold_checks, ref_stats.threshold_checks);

  return dense_stats;
}

constexpr TopKAlgorithm kAlgorithms[] = {
    TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
    TopKAlgorithm::kNRA, TopKAlgorithm::kScan};
constexpr RankDirection kDirections[] = {RankDirection::kMostUnfair,
                                         RankDirection::kLeastUnfair};
constexpr MissingCellPolicy kPolicies[] = {MissingCellPolicy::kSkip,
                                           MissingCellPolicy::kZero};

// Every algorithm × direction × policy × allowed variant for the given
// lists. NRA rejects kSkip and kLeastUnfair; those configurations still run
// to assert error parity between the engines.
void RunFullGrid(const std::vector<const InvertedIndex*>& lists,
                 size_t universe, const std::vector<int32_t>& allowed,
                 size_t k) {
  for (TopKAlgorithm algorithm : kAlgorithms) {
    for (RankDirection direction : kDirections) {
      for (MissingCellPolicy missing : kPolicies) {
        for (bool restrict_targets : {false, true}) {
          TopKOptions options;
          options.k = k;
          options.direction = direction;
          options.missing = missing;
          options.allowed = restrict_targets ? &allowed : nullptr;
          options.universe_hint = universe;
          ExpectEnginesAgree(algorithm, lists, options);
        }
      }
    }
  }
}

// The same grid over an index set's lists, through owned copies of them
// (RunTopK takes caller-built lists).
void RunFullGrid(const std::vector<InvertedList>& views, size_t universe,
                 const std::vector<int32_t>& allowed, size_t k) {
  std::vector<InvertedIndex> owned;
  owned.reserve(views.size());
  for (const InvertedList& view : views) {
    std::vector<ScoredEntry> entries;
    for (size_t i = 0; i < view.size(); ++i) entries.push_back(view.entry(i));
    owned.emplace_back(std::move(entries));
  }
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : owned) lists.push_back(&list);
  RunFullGrid(lists, universe, allowed, k);
}

TEST(FaginDenseDifferential, RandomCubesFullGrid) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    // Shapes chosen so every dimension gets a turn as the large axis; 0.6
    // density leaves plenty of missing cells.
    size_t groups = 3 + rng.NextBelow(6);
    size_t queries = 2 + rng.NextBelow(5);
    size_t locations = 2 + rng.NextBelow(4);
    UnfairnessCube cube =
        MakeRandomCube(rng, groups, queries, locations, 0.6);
    IndexSet indices = IndexSet::Build(cube);

    for (Dimension target :
         {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " target="
                                        << DimensionName(target));
      std::vector<InvertedList> lists =
          indices.ListsFor(target, AxisSelector::All(), AxisSelector::All());
      size_t universe = cube.axis_size(target);
      // An arbitrary-but-deterministic subset of eligible targets.
      std::vector<int32_t> allowed;
      for (size_t pos = 0; pos < universe; pos += 2) {
        allowed.push_back(static_cast<int32_t>(pos));
      }
      for (size_t k : {size_t{1}, size_t{3}, universe + 2}) {
        RunFullGrid(lists, universe, allowed, k);
      }
    }
  }
}

TEST(FaginDenseDifferential, SelectorSubsetsAgree) {
  Rng rng(7);
  UnfairnessCube cube = MakeRandomCube(rng, 6, 5, 4, 0.5);
  IndexSet indices = IndexSet::Build(cube);
  // Restrict the aggregation box: only some queries and locations.
  std::vector<InvertedList> lists = indices.ListsFor(
      Dimension::kGroup, AxisSelector{{0, 2, 4}}, AxisSelector{{1, 3}});
  std::vector<int32_t> allowed = {0, 1, 5};
  RunFullGrid(lists, cube.axis_size(Dimension::kGroup), allowed, 3);
}

// After IndexSet::RefreshColumns upserts/removes, the dense value columns
// must stay in sync: the refreshed set must match a set rebuilt from
// scratch, list by list, both via sorted access and via random access.
TEST(FaginDenseDifferential, RefreshColumnKeepsDenseColumnsInSync) {
  Rng rng(11);
  UnfairnessCube cube = MakeRandomCube(rng, 6, 5, 4, 0.7);
  IndexSet indices = IndexSet::Build(cube);

  // Touch two (query, location) columns: updates, inserts and removals.
  for (auto [q, l] : {std::pair<size_t, size_t>{1, 2}, {3, 0}}) {
    for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
      double coin = rng.NextDouble();
      if (coin < 0.35) {
        cube.Clear(g, q, l);
      } else if (coin < 0.8) {
        cube.Set(g, q, l, rng.NextDouble());
      }
    }
    indices.RefreshColumns(cube, {{q, l}});
  }

  IndexSet rebuilt = IndexSet::Build(cube);
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    Dimension o1 = target == Dimension::kGroup ? Dimension::kQuery
                                               : Dimension::kGroup;
    Dimension o2 = target == Dimension::kLocation ? Dimension::kQuery
                                                  : Dimension::kLocation;
    for (size_t a = 0; a < cube.axis_size(o1); ++a) {
      for (size_t b = 0; b < cube.axis_size(o2); ++b) {
        const InvertedList got = indices.ListAt(target, a, b);
        const InvertedList want = rebuilt.ListAt(target, a, b);
        SCOPED_TRACE(::testing::Message() << DimensionName(target) << " list ("
                                          << a << ", " << b << ")");
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got.entry(i).pos, want.entry(i).pos);
          EXPECT_EQ(BitsOf(got.entry(i).value), BitsOf(want.entry(i).value));
        }
        for (size_t pos = 0; pos < cube.axis_size(target); ++pos) {
          std::optional<double> gv = got.Find(static_cast<int32_t>(pos));
          std::optional<double> wv = want.Find(static_cast<int32_t>(pos));
          ASSERT_EQ(gv.has_value(), wv.has_value()) << "pos " << pos;
          if (gv.has_value()) {
            EXPECT_EQ(BitsOf(*gv), BitsOf(*wv));
          }
        }
      }
    }
  }

  // And the refreshed lists still drive every algorithm identically.
  std::vector<InvertedList> lists = indices.ListsFor(
      Dimension::kGroup, AxisSelector::All(), AxisSelector::All());
  std::vector<int32_t> allowed = {0, 2, 3};
  RunFullGrid(lists, cube.axis_size(Dimension::kGroup), allowed, 4);
}

// Upsert beyond the current dense extent must grow the column, and Remove
// must clear the slot; checked against a rebuilt-from-entries twin.
TEST(FaginDenseDifferential, UpsertGrowsAndRemoveClearsDenseColumn) {
  InvertedIndex list({{0, 0.5}, {2, 0.9}});
  ASSERT_EQ(list.dense_size(), 3u);
  list.Upsert(7, 0.25);
  EXPECT_GE(list.dense_size(), 8u);
  EXPECT_EQ(list.Find(7), std::optional<double>(0.25));
  list.Upsert(2, 0.1);
  EXPECT_EQ(list.Find(2), std::optional<double>(0.1));
  list.Remove(0);
  EXPECT_EQ(list.Find(0), std::nullopt);
  EXPECT_EQ(list.Find(-1), std::nullopt);
  EXPECT_EQ(list.Find(100), std::nullopt);

  std::vector<ScoredEntry> entries;
  for (size_t i = 0; i < list.size(); ++i) entries.push_back(list.entry(i));
  InvertedIndex twin(std::move(entries));
  for (int32_t pos = 0; pos < 10; ++pos) {
    EXPECT_EQ(list.Find(pos), twin.Find(pos)) << "pos " << pos;
  }
}

// Large selector fan-out: 70 dense lists over 160 positions, so the scan
// and FA's phase 2 score through the CandidateScorer's table pass. The
// answers must still be bitwise-identical to the per-candidate reference.
TEST(FaginDenseDifferential, WideFanOutTablePassMatchesReference) {
  Rng rng(13);
  constexpr size_t kUniverse = 160;
  constexpr size_t kLists = 70;
  std::vector<InvertedIndex> store;
  store.reserve(kLists);
  std::vector<int32_t> positions(kUniverse);
  for (size_t i = 0; i < kUniverse; ++i) {
    positions[i] = static_cast<int32_t>(i);
  }
  for (size_t l = 0; l < kLists; ++l) {
    rng.Shuffle(positions);
    size_t present = kUniverse / 2 + rng.NextBelow(kUniverse / 2);
    std::vector<ScoredEntry> entries;
    entries.reserve(present);
    for (size_t i = 0; i < present; ++i) {
      entries.push_back({positions[i], rng.NextDouble()});
    }
    store.emplace_back(std::move(entries));
  }
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);

  std::vector<int32_t> allowed;
  for (size_t pos = 0; pos < kUniverse; pos += 3) {
    allowed.push_back(static_cast<int32_t>(pos));
  }
  for (TopKAlgorithm algorithm : {TopKAlgorithm::kScan, TopKAlgorithm::kFA}) {
    for (MissingCellPolicy missing : kPolicies) {
      for (bool restrict_targets : {false, true}) {
        TopKOptions options;
        options.k = 10;
        options.missing = missing;
        options.allowed = restrict_targets ? &allowed : nullptr;
        options.universe_hint = kUniverse;
        ExpectEnginesAgree(algorithm, lists, options);
      }
    }
  }
}

// Negative list values disable NRA's monotone incremental top-k bookkeeping
// (lower bounds may decrease); the per-check selection fallback must still
// match the reference exactly.
TEST(FaginDenseDifferential, NegativeValuesTakeNraFallbackPath) {
  Rng rng(17);
  constexpr size_t kUniverse = 64;
  std::vector<InvertedIndex> store;
  for (size_t l = 0; l < 6; ++l) {
    std::vector<ScoredEntry> entries;
    for (size_t pos = 0; pos < kUniverse; ++pos) {
      if (rng.NextBernoulli(0.8)) {
        entries.push_back(
            {static_cast<int32_t>(pos), rng.NextDouble(-1.0, 1.0)});
      }
    }
    store.emplace_back(std::move(entries));
  }
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);

  for (size_t k : {size_t{1}, size_t{5}, size_t{20}}) {
    TopKOptions options;
    options.k = k;
    options.missing = MissingCellPolicy::kZero;
    options.universe_hint = kUniverse;
    ExpectEnginesAgree(TopKAlgorithm::kNRA, lists, options);
  }
  std::vector<int32_t> allowed = {1, 7, 9, 30, 55};
  RunFullGrid(lists, kUniverse, allowed, 5);
}

// Error parity: both engines must reject the same invalid inputs.
TEST(FaginDenseDifferential, ErrorCasesMatchReference) {
  InvertedIndex list({{0, 0.5}, {1, 0.25}});
  std::vector<const InvertedIndex*> one = {&list};
  std::vector<HashedListView> one_view = BuildHashedViews(one);

  {  // k == 0.
    TopKOptions options;
    options.k = 0;
    for (TopKAlgorithm algorithm : kAlgorithms) {
      EXPECT_FALSE(RunTopK(algorithm, one, options).ok());
      EXPECT_FALSE(ReferenceRunTopK(algorithm, one_view, options).ok());
    }
  }
  {  // No lists.
    TopKOptions options;
    std::vector<const InvertedIndex*> none;
    std::vector<HashedListView> no_views;
    for (TopKAlgorithm algorithm : kAlgorithms) {
      EXPECT_FALSE(RunTopK(algorithm, none, options).ok());
      EXPECT_FALSE(ReferenceRunTopK(algorithm, no_views, options).ok());
    }
  }
  {  // NRA restrictions: kSkip and kLeastUnfair are rejected.
    TopKOptions options;
    options.missing = MissingCellPolicy::kSkip;
    EXPECT_FALSE(RunTopK(TopKAlgorithm::kNRA, one, options).ok());
    EXPECT_FALSE(ReferenceFaginNRA(one_view, options).ok());
    options.missing = MissingCellPolicy::kZero;
    options.direction = RankDirection::kLeastUnfair;
    EXPECT_FALSE(RunTopK(TopKAlgorithm::kNRA, one, options).ok());
    EXPECT_FALSE(ReferenceFaginNRA(one_view, options).ok());
  }
  {  // NRA's 64-list bitmask cap.
    std::vector<InvertedIndex> store;
    std::vector<const InvertedIndex*> many;
    for (size_t i = 0; i < 65; ++i) {
      store.emplace_back(std::vector<ScoredEntry>{{0, 0.5}});
    }
    for (const InvertedIndex& l : store) many.push_back(&l);
    std::vector<HashedListView> many_views = BuildHashedViews(many);
    TopKOptions options;
    options.missing = MissingCellPolicy::kZero;
    EXPECT_FALSE(RunTopK(TopKAlgorithm::kNRA, many, options).ok());
    EXPECT_FALSE(ReferenceFaginNRA(many_views, options).ok());
  }
}

// Empty lists (a cube column with no present cells) must be handled, not
// crash, and agree across engines.
TEST(FaginDenseDifferential, EmptyAndSingletonListsAgree) {
  InvertedIndex empty({});
  InvertedIndex single({{3, 0.75}});
  std::vector<const InvertedIndex*> lists = {&empty, &single, &empty};
  RunFullGrid(lists, 4, {3}, 2);
}

// InvertedIndex keeps one entry per position — the first in sorted order,
// the one Find returns — so sorted access, random access and the scorer's
// table pass all see the same value, and every algorithm, the batch path
// and the hash reference agree.
TEST(FaginDenseDifferential, DuplicatePositionsKeepTheFirstSortedEntry) {
  InvertedIndex a({{3, 0.9}, {3, 0.1}, {1, 0.5}});
  InvertedIndex b({{3, 0.2}, {1, 0.4}});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.entry(0), (ScoredEntry{3, 0.9}));
  EXPECT_EQ(a.entry(1), (ScoredEntry{1, 0.5}));
  EXPECT_EQ(a.Find(3), std::optional<double>(0.9));
  std::vector<const InvertedIndex*> lists = {&a, &b};
  RunFullGrid(lists, 4, {1, 3}, 2);

  // The same two lists as (query, location) columns of a cube over groups
  // {1, 3}, answered by the single and batched solvers.
  auto cube = UnfairnessCube::Make({0, 1, 2, 3}, {10, 11}, {20});
  ASSERT_TRUE(cube.ok());
  cube->Set(3, 0, 0, 0.9);
  cube->Set(1, 0, 0, 0.5);
  cube->Set(3, 1, 0, 0.2);
  cube->Set(1, 1, 0, 0.4);
  IndexSet indices = IndexSet::Build(*cube);
  std::vector<QuantificationRequest> requests;
  for (TopKAlgorithm algorithm : kAlgorithms) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 2;
    request.missing = MissingCellPolicy::kZero;
    request.algorithm = algorithm;
    requests.push_back(request);
  }
  std::vector<Result<QuantificationResult>> batched =
      SolveQuantificationBatch(*cube, indices, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(TopKAlgorithmName(requests[i].algorithm));
    Result<QuantificationResult> single =
        SolveQuantification(*cube, indices, requests[i]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batched[i].ok());
    TopKOptions options;
    options.k = 2;
    options.missing = MissingCellPolicy::kZero;
    Result<std::vector<ScoredEntry>> direct =
        RunTopK(requests[i].algorithm, lists, options);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(single->answers.size(), 2u);
    ASSERT_EQ(batched[i]->answers.size(), 2u);
    ASSERT_EQ(direct->size(), 2u);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(single->answers[j].id, (*direct)[j].pos);
      EXPECT_EQ(BitsOf(single->answers[j].value), BitsOf((*direct)[j].value));
      EXPECT_EQ(batched[i]->answers[j].id, (*direct)[j].pos);
      EXPECT_EQ(BitsOf(batched[i]->answers[j].value),
                BitsOf((*direct)[j].value));
    }
    EXPECT_EQ(single->answers[0].id, 3);
    EXPECT_EQ(single->answers[0].value, (0.9 + 0.2) / 2.0);
  }
}

// A cube in which at least 90% of the (query, location) columns hold no
// cell at all: the group-target selection is mostly empty lists, which the
// engines drop while keeping the selected count for kZero denominators,
// FA's completeness test and the access counters.
TEST(FaginDenseDifferential, MostlyEmptyColumnsFullGrid) {
  Rng rng(23);
  constexpr size_t kGroups = 12;
  constexpr size_t kQueries = 10;
  constexpr size_t kLocations = 6;
  UnfairnessCube cube = MakeRandomCube(rng, kGroups, kQueries, kLocations, 0.0);
  size_t live_columns = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      if (!rng.NextBernoulli(0.08) && !(q == 2 && l == 3)) continue;
      ++live_columns;
      for (size_t g = 0; g < kGroups; ++g) {
        if (rng.NextBernoulli(0.7)) cube.Set(g, q, l, rng.NextDouble());
      }
    }
  }
  ASSERT_LE(live_columns * 10, kQueries * kLocations);
  IndexSet indices = IndexSet::Build(cube);
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    SCOPED_TRACE(DimensionName(target));
    std::vector<InvertedList> lists =
        indices.ListsFor(target, AxisSelector::All(), AxisSelector::All());
    size_t universe = cube.axis_size(target);
    std::vector<int32_t> allowed;
    for (size_t pos = 1; pos < universe; pos += 2) {
      allowed.push_back(static_cast<int32_t>(pos));
    }
    for (size_t k : {size_t{1}, size_t{4}, universe + 1}) {
      RunFullGrid(lists, universe, allowed, k);
    }
  }
}

// A selection whose lists are all empty still succeeds with no answers and
// the reference's counters.
TEST(FaginDenseDifferential, AllEmptySelectionReturnsNoAnswers) {
  InvertedIndex empty({});
  std::vector<const InvertedIndex*> lists = {&empty, &empty, &empty};
  RunFullGrid(lists, 5, {0, 4}, 3);
  for (TopKAlgorithm algorithm : kAlgorithms) {
    TopKOptions options;
    options.k = 3;
    options.missing = MissingCellPolicy::kZero;
    Result<std::vector<ScoredEntry>> top = RunTopK(algorithm, lists, options);
    ASSERT_TRUE(top.ok()) << TopKAlgorithmName(algorithm);
    EXPECT_TRUE(top->empty());
  }
}

// More than 64 selected lists of which at most 64 are non-empty: NRA's
// width limit counts the selection, so its error is unchanged, while the
// other algorithms answer over the non-empty lists.
TEST(FaginDenseDifferential, NraWidthLimitCountsSelectedLists) {
  Rng rng(29);
  std::vector<InvertedIndex> store;
  store.reserve(70);
  for (size_t l = 0; l < 70; ++l) {
    std::vector<ScoredEntry> entries;
    if (l % 7 == 0) {
      for (int32_t pos = 0; pos < 20; ++pos) {
        if (rng.NextBernoulli(0.6)) entries.push_back({pos, rng.NextDouble()});
      }
    }
    store.emplace_back(std::move(entries));
  }
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);
  TopKOptions options;
  options.k = 3;
  options.missing = MissingCellPolicy::kZero;
  Result<std::vector<ScoredEntry>> nra =
      RunTopK(TopKAlgorithm::kNRA, lists, options);
  ASSERT_FALSE(nra.ok());
  EXPECT_EQ(nra.status().message(), "NRA supports at most 64 lists");
  RunFullGrid(lists, 20, {2, 5, 11, 17}, 3);
}

// TA answers random accesses per candidate until they would exceed the
// entry count of the lists, then from the scorer's table. A skewed run
// that stops early never switches; a run that reads everything does. Both
// must match the reference exactly.
TEST(FaginDenseDifferential, ThresholdRunsBeforeAndAfterTheScorerSwitch) {
  Rng rng(31);
  constexpr size_t kUniverse = 200;
  std::vector<InvertedIndex> store;
  size_t entries = 0;
  for (size_t l = 0; l < 8; ++l) {
    std::vector<ScoredEntry> list;
    for (size_t pos = 0; pos < kUniverse; ++pos) {
      // A few hot positions lead every list, so TA stops after a few rounds;
      // the rest are present in most lists, not all.
      if (pos >= 3 && rng.NextBernoulli(0.3)) continue;
      double value = pos < 3 ? 10.0 + rng.NextDouble() : rng.NextDouble();
      list.push_back({static_cast<int32_t>(pos), value});
    }
    entries += list.size();
    store.emplace_back(std::move(list));
  }
  store.emplace_back(std::vector<ScoredEntry>{});  // one empty list
  std::vector<const InvertedIndex*> lists;
  for (const InvertedIndex& list : store) lists.push_back(&list);
  const size_t width = 8;  // non-empty lists, one dense load each

  TopKOptions early;
  early.k = 2;
  early.missing = MissingCellPolicy::kSkip;
  early.universe_hint = kUniverse;
  FaginStats before = ExpectEnginesAgree(TopKAlgorithm::kThresholdAlgorithm,
                                         lists, early);
  EXPECT_LE(before.ids_scored * width, entries);

  // kZero bottom-k has no useful bound: TA reads every list to the end and
  // scores every position, so the scorer switches to its table.
  TopKOptions full = early;
  full.missing = MissingCellPolicy::kZero;
  full.direction = RankDirection::kLeastUnfair;
  FaginStats after = ExpectEnginesAgree(TopKAlgorithm::kThresholdAlgorithm,
                                        lists, full);
  EXPECT_GT(after.ids_scored * width, entries);
}

// The scorer returns the same bits and counters from random access and from
// its table, and switches exactly when the next candidate's loads would
// exceed the entry count.
TEST(FaginDenseDifferential, CandidateScorerSwitchesAtTheEntryCount) {
  InvertedIndex a({{0, 0.1}, {1, 0.7}, {2, 0.3}});
  InvertedIndex b({{1, 0.2}, {2, 0.9}});
  InvertedIndex empty({});
  fagin_internal::ListSet set =
      fagin_internal::GatherNonEmpty({a, empty, b});
  ASSERT_EQ(set.lists.size(), 2u);
  EXPECT_EQ(set.selected, 3u);
  EXPECT_EQ(set.entries, 5u);

  fagin_internal::CandidateScorer scorer(set, 3);
  FaginStats stats;
  std::optional<double> first =
      scorer.Aggregate(1, MissingCellPolicy::kZero, &stats);  // 2 of 5 loads
  EXPECT_FALSE(scorer.filled());
  std::optional<double> second =
      scorer.Aggregate(2, MissingCellPolicy::kSkip, &stats);  // 4 of 5 loads
  EXPECT_FALSE(scorer.filled());
  std::optional<double> third =
      scorer.Aggregate(1, MissingCellPolicy::kZero, &stats);  // would be 6
  EXPECT_TRUE(scorer.filled());
  ASSERT_TRUE(first.has_value() && second.has_value() && third.has_value());
  EXPECT_EQ(BitsOf(*first), BitsOf((0.7 + 0.2) / 3.0));
  EXPECT_EQ(BitsOf(*second), BitsOf((0.3 + 0.9) / 2.0));
  EXPECT_EQ(BitsOf(*third), BitsOf(*first));
  EXPECT_EQ(stats.random_accesses, 9u);  // 3 selected lists per candidate

  fagin_internal::CandidateScorer bulk(set, 3);
  bulk.Expect(2);  // 4 loads fit in 5 entries
  EXPECT_FALSE(bulk.filled());
  bulk.Expect(3);  // 6 do not
  EXPECT_TRUE(bulk.filled());
}

}  // namespace
}  // namespace fairjob
