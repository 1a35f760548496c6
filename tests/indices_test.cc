#include "core/indices.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "resident_memory.h"

namespace fairjob {
namespace {

TEST(InvertedIndexTest, SortsDescending) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}, {2, 0.5}});
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.entry(0).pos, 1);
  EXPECT_EQ(index.entry(1).pos, 2);
  EXPECT_EQ(index.entry(2).pos, 0);
}

TEST(InvertedIndexTest, TiesBrokenByPosition) {
  InvertedIndex index({{5, 0.5}, {2, 0.5}, {9, 0.5}});
  EXPECT_EQ(index.entry(0).pos, 2);
  EXPECT_EQ(index.entry(1).pos, 5);
  EXPECT_EQ(index.entry(2).pos, 9);
}

TEST(InvertedIndexTest, RandomAccess) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  EXPECT_DOUBLE_EQ(*index.Find(0), 0.3);
  EXPECT_DOUBLE_EQ(*index.Find(1), 0.9);
  EXPECT_FALSE(index.Find(7).has_value());
}

TEST(InvertedIndexTest, EmptyIndex) {
  InvertedIndex index({});
  EXPECT_TRUE(index.empty());
  EXPECT_FALSE(index.Find(0).has_value());
}

// Checks `list` against `model` (position -> value): Find at every
// position up to past the last word and at out-of-range probes,
// dense_size(), the sorted entries, and a twin rebuilt from those entries.
void ExpectListMatchesModel(const InvertedIndex& list,
                            const std::map<int32_t, double>& model,
                            int32_t probe_end) {
  for (int32_t pos = 0; pos < probe_end; ++pos) {
    auto it = model.find(pos);
    std::optional<double> want;
    if (it != model.end()) want = it->second;
    ASSERT_EQ(list.Find(pos), want) << "pos " << pos;
  }
  for (int32_t pos : {-1, -64, std::numeric_limits<int32_t>::min(),
                      probe_end + 1000, std::numeric_limits<int32_t>::max()}) {
    ASSERT_EQ(list.Find(pos), std::nullopt) << "pos " << pos;
  }
  const size_t want_dense =
      model.empty() ? 0 : static_cast<size_t>(model.rbegin()->first) + 1;
  ASSERT_EQ(list.dense_size(), want_dense);

  ASSERT_EQ(list.size(), model.size());
  std::vector<ScoredEntry> entries;
  for (size_t i = 0; i < list.size(); ++i) {
    const ScoredEntry& e = list.entry(i);
    auto it = model.find(e.pos);
    ASSERT_NE(it, model.end()) << "entry " << i;
    ASSERT_EQ(e.value, it->second) << "entry " << i;
    if (i > 0) {
      const ScoredEntry& prev = list.entry(i - 1);
      ASSERT_TRUE(prev.value > e.value ||
                  (prev.value == e.value && prev.pos < e.pos))
          << "entry " << i;
    }
    entries.push_back(e);
  }
  InvertedIndex twin(std::move(entries));
  ASSERT_EQ(twin.size(), list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    ASSERT_EQ(twin.entry(i), list.entry(i)) << "entry " << i;
  }
  ASSERT_EQ(twin.dense_size(), list.dense_size());
  for (int32_t pos = 0; pos < probe_end; ++pos) {
    ASSERT_EQ(twin.Find(pos), list.Find(pos)) << "pos " << pos;
  }
}

// The rank bitmap against a std::map model over a seeded sequence of
// constructor inputs (duplicates included), Upserts and Removes. Positions
// sit on the 64-position word boundaries, and far out at 10,000, so words
// are added, emptied and trimmed; values come from a few levels so ties
// are common.
TEST(InvertedIndexRankBitmapTest, RandomAccessMatchesMapModel) {
  const int32_t kBoundaries[] = {0, 63, 64, 127, 128, 10'000};
  const int32_t kProbeEnd = 10'000 + 130;
  Rng rng(20261018);
  auto next_pos = [&]() {
    if (rng.NextBelow(2) == 0) {
      return kBoundaries[rng.NextBelow(std::size(kBoundaries))];
    }
    return static_cast<int32_t>(rng.NextBelow(200));
  };
  auto next_value = [&]() {
    return static_cast<double>(rng.NextBelow(5)) / 4.0;
  };
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    // The constructor keeps a repeated position's first entry in value
    // order, so the model holds each position's largest value. Round 0
    // starts from every position below 192, so full words are ranked too.
    std::vector<ScoredEntry> input;
    std::map<int32_t, double> model;
    const uint32_t n = round == 0 ? 192 : rng.NextBelow(12);
    for (uint32_t i = 0; i < n; ++i) {
      ScoredEntry e{round == 0 ? static_cast<int32_t>(i) : next_pos(),
                    next_value()};
      input.push_back(e);
      auto [it, inserted] = model.emplace(e.pos, e.value);
      if (!inserted) it->second = std::max(it->second, e.value);
    }
    InvertedIndex list(std::move(input));
    ASSERT_NO_FATAL_FAILURE(ExpectListMatchesModel(list, model, kProbeEnd));
    for (int step = 0; step < 30; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const int32_t pos = next_pos();
      if (rng.NextBelow(3) == 0) {
        list.Remove(pos);
        model.erase(pos);
      } else {
        const double value = next_value();
        list.Upsert(pos, value);
        model[pos] = value;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectListMatchesModel(list, model, kProbeEnd));
    }
    // Remove of absent and negative positions changes nothing.
    list.Remove(-1);
    list.Remove(kProbeEnd + 5);
    ASSERT_NO_FATAL_FAILURE(ExpectListMatchesModel(list, model, kProbeEnd));
  }
}

class IndexSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_ = std::make_unique<UnfairnessCube>(
        *UnfairnessCube::Make({0, 1, 2}, {0, 1}, {0, 1}));
    // d<g,q,l> = g + 10q + 100l for present cells; (2, *, *) left missing.
    for (size_t g = 0; g < 2; ++g) {
      for (size_t q = 0; q < 2; ++q) {
        for (size_t l = 0; l < 2; ++l) {
          cube_->Set(g, q, l, static_cast<double>(g + 10 * q + 100 * l));
        }
      }
    }
    indices_ = std::make_unique<IndexSet>(IndexSet::Build(*cube_));
  }

  std::unique_ptr<UnfairnessCube> cube_;
  std::unique_ptr<IndexSet> indices_;
};

TEST_F(IndexSetTest, GroupBasedListPerQueryLocationPair) {
  // I(q=1, l=0): groups with their d values, descending.
  const InvertedList list = indices_->ListAt(Dimension::kGroup, 1, 0);
  ASSERT_EQ(list.size(), 2u);  // group 2 has no value
  EXPECT_EQ(list.entry(0).pos, 1);
  EXPECT_DOUBLE_EQ(list.entry(0).value, 11.0);
  EXPECT_EQ(list.entry(1).pos, 0);
  EXPECT_DOUBLE_EQ(list.entry(1).value, 10.0);
}

TEST_F(IndexSetTest, QueryBasedListPerGroupLocationPair) {
  // I(g=0, l=1): queries descending: q1 -> 110, q0 -> 100.
  const InvertedList list = indices_->ListAt(Dimension::kQuery, 0, 1);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.entry(0).pos, 1);
  EXPECT_DOUBLE_EQ(list.entry(0).value, 110.0);
}

TEST_F(IndexSetTest, LocationBasedListPerGroupQueryPair) {
  const InvertedList list = indices_->ListAt(Dimension::kLocation, 1, 1);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.entry(0).pos, 1);  // l=1 -> 111
  EXPECT_DOUBLE_EQ(list.entry(0).value, 111.0);
  EXPECT_DOUBLE_EQ(*list.Find(0), 11.0);
}

TEST_F(IndexSetTest, MissingGroupAbsentFromEveryList) {
  for (size_t q = 0; q < 2; ++q) {
    for (size_t l = 0; l < 2; ++l) {
      EXPECT_FALSE(
          indices_->ListAt(Dimension::kGroup, q, l).Find(2).has_value());
    }
  }
}

TEST_F(IndexSetTest, ListsForAllSelectorsCoversCrossProduct) {
  std::vector<InvertedList> lists = indices_->ListsFor(
      Dimension::kGroup, AxisSelector::All(), AxisSelector::All());
  EXPECT_EQ(lists.size(), 4u);  // 2 queries × 2 locations
}

TEST_F(IndexSetTest, ListsForSubsetsSelectsPairs) {
  std::vector<InvertedList> lists = indices_->ListsFor(
      Dimension::kGroup, AxisSelector::Single(1), AxisSelector::All());
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_DOUBLE_EQ(lists[0].entry(0).value, 11.0);   // (q=1, l=0)
  EXPECT_DOUBLE_EQ(lists[1].entry(0).value, 111.0);  // (q=1, l=1)
}

TEST_F(IndexSetTest, AxisSizes) {
  EXPECT_EQ(indices_->axis_size(Dimension::kGroup), 3u);
  EXPECT_EQ(indices_->axis_size(Dimension::kQuery), 2u);
  EXPECT_EQ(indices_->axis_size(Dimension::kLocation), 2u);
}

TEST(InvertedIndexUpdateTest, UpsertInsertsAndKeepsOrder) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  index.Upsert(2, 0.5);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.entry(0).pos, 1);
  EXPECT_EQ(index.entry(1).pos, 2);
  EXPECT_EQ(index.entry(2).pos, 0);
  EXPECT_DOUBLE_EQ(*index.Find(2), 0.5);
}

TEST(InvertedIndexUpdateTest, UpsertReplacesExisting) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  index.Upsert(0, 0.95);  // moves to the top
  ASSERT_EQ(index.size(), 2u);
  EXPECT_EQ(index.entry(0).pos, 0);
  EXPECT_DOUBLE_EQ(*index.Find(0), 0.95);
  index.Upsert(0, 0.95);  // no-op
  EXPECT_EQ(index.size(), 2u);
}

TEST(InvertedIndexUpdateTest, RemoveDeletesOrIgnores) {
  InvertedIndex index({{0, 0.3}, {1, 0.9}});
  index.Remove(0);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_FALSE(index.Find(0).has_value());
  index.Remove(42);  // absent: no-op
  EXPECT_EQ(index.size(), 1u);
}

TEST_F(IndexSetTest, RefreshColumnMatchesFullRebuild) {
  // Mutate a column of the cube, refresh incrementally, and compare every
  // list against a from-scratch build.
  cube_->Set(0, 1, 0, 99.0);
  cube_->Set(2, 1, 0, 55.0);   // group 2 becomes defined here
  cube_->Clear(1, 1, 0);       // group 1 becomes undefined here
  indices_->RefreshColumns(*cube_, {{1, 0}});
  IndexSet rebuilt = IndexSet::Build(*cube_);

  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t n1;
    size_t n2;
    if (target == Dimension::kGroup) {
      n1 = 2;  // queries
      n2 = 2;  // locations
    } else if (target == Dimension::kQuery) {
      n1 = 3;  // groups
      n2 = 2;  // locations
    } else {
      n1 = 3;  // groups
      n2 = 2;  // queries
    }
    for (size_t p1 = 0; p1 < n1; ++p1) {
      for (size_t p2 = 0; p2 < n2; ++p2) {
        const InvertedList incremental = indices_->ListAt(target, p1, p2);
        const InvertedList fresh = rebuilt.ListAt(target, p1, p2);
        ASSERT_EQ(incremental.size(), fresh.size())
            << DimensionName(target) << " " << p1 << " " << p2;
        for (size_t i = 0; i < fresh.size(); ++i) {
          EXPECT_EQ(incremental.entry(i).pos, fresh.entry(i).pos);
          EXPECT_DOUBLE_EQ(incremental.entry(i).value, fresh.entry(i).value);
        }
      }
    }
  }
}

// Brute-force oracle: the plain per-list scan of the cube, one list at a time
// in (other1, other2) order with the target axis innermost.
std::vector<InvertedIndex> OracleFamily(const UnfairnessCube& cube,
                                        Dimension target) {
  Dimension d1 = target == Dimension::kGroup ? Dimension::kQuery
                                             : Dimension::kGroup;
  Dimension d2 = target == Dimension::kLocation ? Dimension::kQuery
                                                : Dimension::kLocation;
  std::vector<InvertedIndex> family;
  for (size_t p1 = 0; p1 < cube.axis_size(d1); ++p1) {
    for (size_t p2 = 0; p2 < cube.axis_size(d2); ++p2) {
      std::vector<ScoredEntry> entries;
      for (size_t t = 0; t < cube.axis_size(target); ++t) {
        size_t coords[3];
        coords[static_cast<size_t>(target)] = t;
        coords[static_cast<size_t>(d1)] = p1;
        coords[static_cast<size_t>(d2)] = p2;
        std::optional<double> v = cube.Get(coords[0], coords[1], coords[2]);
        if (v.has_value()) {
          entries.push_back(ScoredEntry{static_cast<int32_t>(t), *v});
        }
      }
      family.emplace_back(std::move(entries));
    }
  }
  return family;
}

void ExpectListsIdentical(const InvertedList& actual,
                          const InvertedList& expected, size_t axis) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual.entry(i).pos, expected.entry(i).pos) << "entry " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(actual.entry(i).value),
              std::bit_cast<uint64_t>(expected.entry(i).value))
        << "entry " << i;
  }
  ASSERT_EQ(actual.dense_size(), expected.dense_size());
  for (size_t pos = 0; pos < axis; ++pos) {
    std::optional<double> a = actual.Find(static_cast<int32_t>(pos));
    std::optional<double> e = expected.Find(static_cast<int32_t>(pos));
    ASSERT_EQ(a.has_value(), e.has_value()) << "pos " << pos;
    if (e.has_value()) {
      ASSERT_EQ(std::bit_cast<uint64_t>(*a), std::bit_cast<uint64_t>(*e))
          << "pos " << pos;
    }
  }
}

// Every list of every family equals the oracle's, entry for entry and on
// every random access along its target axis.
void ExpectMatchesOracle(const IndexSet& indices, const UnfairnessCube& cube) {
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    std::vector<InvertedIndex> oracle = OracleFamily(cube, target);
    std::vector<InvertedList> lists =
        indices.ListsFor(target, AxisSelector::All(), AxisSelector::All());
    ASSERT_EQ(lists.size(), oracle.size()) << DimensionName(target);
    for (size_t i = 0; i < oracle.size(); ++i) {
      SCOPED_TRACE(std::string(DimensionName(target)) + " list " +
                   std::to_string(i));
      ExpectListsIdentical(lists[i], oracle[i], cube.axis_size(target));
    }
  }
}

// A cube with `density` of its cells present. Values are drawn from a few
// levels so that lists hold many ties, broken by position.
UnfairnessCube RandomCube(size_t groups, size_t queries, size_t locations,
                          double density, uint64_t seed) {
  std::vector<int32_t> ids[3];
  size_t sizes[3] = {groups, queries, locations};
  for (size_t d = 0; d < 3; ++d) {
    for (size_t i = 0; i < sizes[d]; ++i) {
      ids[d].push_back(static_cast<int32_t>(7 * i + d));
    }
  }
  UnfairnessCube cube = *UnfairnessCube::Make(ids[0], ids[1], ids[2]);
  Rng rng(seed);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        if (rng.NextDouble() >= density) continue;
        double value = rng.NextBelow(3) == 0
                           ? static_cast<double>(rng.NextBelow(4)) / 4.0
                           : rng.NextDouble();
        cube.Set(g, q, l, value);
      }
    }
  }
  return cube;
}

TEST_F(IndexSetTest, BuildMatchesBruteForceOracle) {
  struct Case {
    const char* name;
    size_t groups, queries, locations;
    double density;
  };
  const Case cases[] = {
      {"all absent", 5, 4, 6, 0.0},
      {"one cell", 1, 1, 1, 1.0},
      {"single group", 1, 9, 5, 0.6},
      {"single query", 8, 1, 7, 0.6},
      {"single location", 6, 11, 1, 0.6},
      {"5% dense", 23, 17, 13, 0.05},
      {"fully dense", 12, 9, 10, 1.0},
      // Each sweep spans dozens of pool tasks (one per group / query).
      {"many tasks", 67, 53, 29, 0.5},
  };
  uint64_t seed = 9001;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    UnfairnessCube cube =
        RandomCube(c.groups, c.queries, c.locations, c.density, ++seed);
    IndexSet indices = IndexSet::Build(cube);
    EXPECT_EQ(indices.axis_size(Dimension::kGroup), c.groups);
    EXPECT_EQ(indices.axis_size(Dimension::kQuery), c.queries);
    EXPECT_EQ(indices.axis_size(Dimension::kLocation), c.locations);
    ExpectMatchesOracle(indices, cube);
  }
}

TEST_F(IndexSetTest, RepeatedBuildsAreIdentical) {
  UnfairnessCube cube = RandomCube(31, 19, 11, 0.4, 77);
  IndexSet first = IndexSet::Build(cube);
  IndexSet second = IndexSet::Build(cube);
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    std::vector<InvertedList> a =
        first.ListsFor(target, AxisSelector::All(), AxisSelector::All());
    std::vector<InvertedList> b =
        second.ListsFor(target, AxisSelector::All(), AxisSelector::All());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ExpectListsIdentical(a[i], b[i], cube.axis_size(target));
    }
  }
}

// Random access is sized by the present entries, not by the axis: a
// 64 × 100,000 × 4 cube holding a few hundred cells indexes in a few MB.
// A dense value column per query list, as long as the query axis, would
// take about 230 MB.
TEST_F(IndexSetTest, SparseCubeIndexIsSizedByItsEntries) {
  const size_t kGroups = 64;
  const size_t kQueries = 100'000;
  const size_t kLocations = 4;
  std::vector<int32_t> ids[3];
  for (size_t d = 0; d < 3; ++d) {
    const size_t n = d == 0 ? kGroups : d == 1 ? kQueries : kLocations;
    for (size_t i = 0; i < n; ++i) ids[d].push_back(static_cast<int32_t>(i));
  }
  UnfairnessCube cube = *UnfairnessCube::Make(ids[0], ids[1], ids[2]);
  Rng rng(64);
  for (int i = 0; i < 300; ++i) {
    cube.Set(rng.NextBelow(kGroups), rng.NextBelow(kQueries),
             rng.NextBelow(kLocations), rng.NextDouble());
  }
  const double before = ResidentMb();
  IndexSet indices = IndexSet::Build(cube);
  const double grown = ResidentMb() - before;
  if (before > 0.0) {
    EXPECT_LT(grown, 32.0);
  }
  // Spot-check the index against the cube along one query list.
  size_t found = 0;
  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t l = 0; l < kLocations; ++l) {
      const InvertedList list = indices.ListAt(Dimension::kQuery, g, l);
      for (size_t i = 0; i < list.size(); ++i) {
        const ScoredEntry& e = list.entry(i);
        ASSERT_EQ(list.Find(e.pos), cube.Get(g, static_cast<size_t>(e.pos), l));
        ++found;
      }
    }
  }
  EXPECT_EQ(found, cube.num_present());
}

}  // namespace
}  // namespace fairjob
