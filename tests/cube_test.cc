#include "core/unfairness_cube.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "resident_memory.h"

namespace fairjob {
namespace {

TEST(CubeTest, MakeValidatesAxes) {
  EXPECT_FALSE(UnfairnessCube::Make({}, {0}, {0}).ok());
  EXPECT_FALSE(UnfairnessCube::Make({0}, {}, {0}).ok());
  EXPECT_FALSE(UnfairnessCube::Make({0}, {0}, {}).ok());
  EXPECT_FALSE(UnfairnessCube::Make({0, 0}, {0}, {1}).ok());
  EXPECT_TRUE(UnfairnessCube::Make({0, 1}, {5, 6}, {9}).ok());
}

TEST(CubeTest, CellsStartMissing) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1}, {0}, {0, 1});
  EXPECT_EQ(cube.num_cells(), 4u);
  EXPECT_EQ(cube.num_present(), 0u);
  EXPECT_FALSE(cube.Get(0, 0, 0).has_value());
}

TEST(CubeTest, SetGetClear) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1}, {0}, {0, 1});
  cube.Set(1, 0, 1, 0.75);
  ASSERT_TRUE(cube.Get(1, 0, 1).has_value());
  EXPECT_DOUBLE_EQ(*cube.Get(1, 0, 1), 0.75);
  EXPECT_EQ(cube.num_present(), 1u);
  cube.Clear(1, 0, 1);
  EXPECT_FALSE(cube.Get(1, 0, 1).has_value());
}

TEST(CubeTest, AxisMetadata) {
  UnfairnessCube cube = *UnfairnessCube::Make({3, 7}, {10}, {20, 21, 22});
  EXPECT_EQ(cube.axis_size(Dimension::kGroup), 2u);
  EXPECT_EQ(cube.axis_size(Dimension::kQuery), 1u);
  EXPECT_EQ(cube.axis_size(Dimension::kLocation), 3u);
  EXPECT_EQ(cube.axis_id(Dimension::kGroup, 1), 7);
  EXPECT_EQ(*cube.PosOf(Dimension::kLocation, 21), 1u);
  EXPECT_FALSE(cube.PosOf(Dimension::kLocation, 99).ok());
}

TEST(CubeTest, AverageOverAllAxes) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1}, {0, 1}, {0});
  cube.Set(0, 0, 0, 0.2);
  cube.Set(0, 1, 0, 0.4);
  cube.Set(1, 0, 0, 0.6);
  // (1,1,0) missing: averages skip it.
  std::optional<double> avg =
      cube.Average(AxisSelector::All(), AxisSelector::All(), AxisSelector::All());
  ASSERT_TRUE(avg.has_value());
  EXPECT_NEAR(*avg, (0.2 + 0.4 + 0.6) / 3.0, 1e-12);
}

TEST(CubeTest, AverageWithSelectors) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1}, {0, 1}, {0, 1});
  for (size_t g = 0; g < 2; ++g) {
    for (size_t q = 0; q < 2; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        cube.Set(g, q, l, static_cast<double>(g * 4 + q * 2 + l));
      }
    }
  }
  std::optional<double> avg = cube.Average(
      AxisSelector::Single(1), AxisSelector{{0, 1}}, AxisSelector::Single(0));
  ASSERT_TRUE(avg.has_value());
  EXPECT_DOUBLE_EQ(*avg, (4.0 + 6.0) / 2.0);  // cells (1,0,0) and (1,1,0)
}

TEST(CubeTest, AverageOfEmptySelectionIsNullopt) {
  UnfairnessCube cube = *UnfairnessCube::Make({0}, {0}, {0});
  EXPECT_FALSE(cube.AxisAverage(Dimension::kGroup, 0).has_value());
}

TEST(CubeTest, AxisAverageMatchesManualAverage) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1}, {0, 1}, {0});
  cube.Set(0, 0, 0, 0.1);
  cube.Set(0, 1, 0, 0.3);
  cube.Set(1, 0, 0, 0.9);
  EXPECT_DOUBLE_EQ(*cube.AxisAverage(Dimension::kGroup, 0), 0.2);
  EXPECT_DOUBLE_EQ(*cube.AxisAverage(Dimension::kGroup, 1), 0.9);
  EXPECT_DOUBLE_EQ(*cube.AxisAverage(Dimension::kQuery, 1), 0.3);
  EXPECT_DOUBLE_EQ(*cube.AxisAverage(Dimension::kLocation, 0),
                   (0.1 + 0.3 + 0.9) / 3.0);
}

// Storage follows the present columns, not the grid: an all-absent
// 64 × 10,000 × 100 cube (64M cells, 1 GB as 16-byte optionals) is made,
// copied and read in full for a small fraction of that. Only the column
// table and the epochs, 12 bytes per (query, location) column, scale with
// the grid.
TEST(CubeTest, AllAbsentGridCostsOnlyItsColumnTable) {
  const double before = ResidentMb();
  std::vector<int32_t> groups(64);
  std::vector<int32_t> queries(10'000);
  std::vector<int32_t> locations(100);
  for (size_t i = 0; i < groups.size(); ++i) {
    groups[i] = static_cast<int32_t>(i);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i] = static_cast<int32_t>(i);
  }
  for (size_t i = 0; i < locations.size(); ++i) {
    locations[i] = static_cast<int32_t>(i);
  }
  UnfairnessCube cube = *UnfairnessCube::Make(groups, queries, locations);
  UnfairnessCube copy = cube;
  EXPECT_EQ(copy.num_cells(), size_t{64'000'000});
  EXPECT_EQ(copy.num_present(), 0u);
  EXPECT_FALSE(copy.Average(AxisSelector::All(), AxisSelector::All(),
                            AxisSelector::All())
                   .has_value());
  size_t present = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t l = 0; l < locations.size(); ++l) {
      for (size_t g = 0; g < groups.size(); ++g) {
        present += copy.Get(g, q, l).has_value();
      }
    }
  }
  EXPECT_EQ(present, 0u);
  if (before > 0.0) {
    EXPECT_LT(ResidentMb() - before, 64.0);
  }
}

TEST(CubeTest, DimensionNames) {
  EXPECT_STREQ(DimensionName(Dimension::kGroup), "group");
  EXPECT_STREQ(DimensionName(Dimension::kQuery), "query");
  EXPECT_STREQ(DimensionName(Dimension::kLocation), "location");
}

// --- builders -----------------------------------------------------------------

class CubeBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AttributeSchema schema;
    ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
    data_ = std::make_unique<MarketplaceDataset>(schema);
    space_ = std::make_unique<GroupSpace>(
        *GroupSpace::Enumerate(data_->schema()));
    // Four workers, two queries at one location; one query missing.
    ASSERT_TRUE(data_->AddWorker("m1", {0}).ok());
    ASSERT_TRUE(data_->AddWorker("m2", {0}).ok());
    ASSERT_TRUE(data_->AddWorker("f1", {1}).ok());
    ASSERT_TRUE(data_->AddWorker("f2", {1}).ok());
    QueryId q0 = data_->queries().GetOrAdd("cleaning");
    data_->queries().GetOrAdd("moving");  // no observation for this query
    LocationId l0 = data_->locations().GetOrAdd("NYC");
    MarketRanking r;
    r.workers = {0, 1, 2, 3};  // males on top
    ASSERT_TRUE(data_->SetRanking(q0, l0, std::move(r)).ok());
  }

  std::unique_ptr<MarketplaceDataset> data_;
  std::unique_ptr<GroupSpace> space_;
};

TEST_F(CubeBuilderTest, MarketplaceCubeShapeAndMissingCells) {
  Result<UnfairnessCube> cube =
      BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->axis_size(Dimension::kGroup), 2u);
  EXPECT_EQ(cube->axis_size(Dimension::kQuery), 2u);
  EXPECT_EQ(cube->axis_size(Dimension::kLocation), 1u);
  // Observed query: both groups defined. Unobserved query: both missing.
  EXPECT_TRUE(cube->Get(0, 0, 0).has_value());
  EXPECT_TRUE(cube->Get(1, 0, 0).has_value());
  EXPECT_FALSE(cube->Get(0, 1, 0).has_value());
  EXPECT_EQ(cube->num_present(), 2u);
}

TEST_F(CubeBuilderTest, SingleAttributeSchemaGroupsAreSymmetric) {
  UnfairnessCube cube =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  // Male vs Female EMD is symmetric: both groups see the same distance.
  EXPECT_NEAR(*cube.Get(0, 0, 0), *cube.Get(1, 0, 0), 1e-12);
  EXPECT_GT(*cube.Get(0, 0, 0), 0.0);
}

TEST_F(CubeBuilderTest, RestrictedAxesHonoured) {
  CubeAxes axes;
  axes.groups = {*space_->FindByDisplayName("Female")};
  Result<UnfairnessCube> cube =
      BuildMarketplaceCube(*data_, *space_, MarketMeasure::kExposure, {}, axes);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->axis_size(Dimension::kGroup), 1u);
  EXPECT_EQ(cube->axis_id(Dimension::kGroup, 0), axes.groups[0]);
}

TEST_F(CubeBuilderTest, InvalidOptionsPropagate) {
  MeasureOptions options;
  options.histogram_bins = 0;
  Result<UnfairnessCube> cube =
      BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd, options);
  EXPECT_FALSE(cube.ok());
}

TEST(SearchCubeBuilderTest, BuildsFromObservations) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  ASSERT_TRUE(data.AddUser("m", {0}).ok());
  ASSERT_TRUE(data.AddUser("f", {1}).ok());
  QueryId q = data.queries().GetOrAdd("cleaning jobs");
  LocationId l = data.locations().GetOrAdd("Boston, MA");
  ASSERT_TRUE(data.AddObservation(q, l, {0, {1, 2, 3}}).ok());
  ASSERT_TRUE(data.AddObservation(q, l, {1, {1, 2, 4}}).ok());

  Result<UnfairnessCube> cube =
      BuildSearchCube(data, space, SearchMeasure::kJaccard);
  ASSERT_TRUE(cube.ok());
  ASSERT_TRUE(cube->Get(0, 0, 0).has_value());
  // Jaccard distance between {1,2,3} and {1,2,4} = 1 - 2/4.
  EXPECT_DOUBLE_EQ(*cube->Get(0, 0, 0), 0.5);
}

TEST(SearchCubeBuilderTest, FastPathMatchesPerTripleMeasure) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  Rng rng(77);
  for (int u = 0; u < 10; ++u) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    ASSERT_TRUE(data.AddUser("u" + std::to_string(u), d).ok());
  }
  for (QueryId q = 0; q < 2; ++q) {
    for (LocationId l = 0; l < 2; ++l) {
      if (q == 1 && l == 1) continue;  // leave a hole
      for (UserId u = 0; u < 10; ++u) {
        if (rng.NextBernoulli(0.3)) continue;  // not every user everywhere
        RankedList results;
        std::vector<int32_t> pool = {0, 1, 2, 3, 4, 5, 6, 7};
        rng.Shuffle(pool);
        results.assign(pool.begin(), pool.begin() + 5);
        ASSERT_TRUE(data.AddObservation(q, l, {u, results}).ok());
      }
    }
  }
  data.queries().GetOrAdd("q0");
  data.queries().GetOrAdd("q1");
  data.locations().GetOrAdd("l0");
  data.locations().GetOrAdd("l1");

  for (SearchMeasure measure :
       {SearchMeasure::kKendallTau, SearchMeasure::kJaccard}) {
    UnfairnessCube cube = *BuildSearchCube(data, space, measure);
    for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < 2; ++q) {
        for (size_t l = 0; l < 2; ++l) {
          Result<double> reference =
              SearchUnfairness(data, space, static_cast<GroupId>(g),
                               static_cast<QueryId>(q),
                               static_cast<LocationId>(l), measure);
          std::optional<double> cell = cube.Get(g, q, l);
          if (reference.ok()) {
            ASSERT_TRUE(cell.has_value()) << g << " " << q << " " << l;
            EXPECT_NEAR(*cell, *reference, 1e-12);
          } else {
            EXPECT_FALSE(cell.has_value());
          }
        }
      }
    }
  }
}

// A marketplace world rich enough to exercise every cell-context edge:
// 3 attributes (35 groups), rankings with and without site scores, an
// unobserved column, and a worker pool small enough that many groups have no
// members in a given ranking.
struct CrossCheckWorld {
  std::unique_ptr<MarketplaceDataset> data;
  std::unique_ptr<GroupSpace> space;
};

CrossCheckWorld MakeCrossCheckWorld() {
  AttributeSchema schema;
  EXPECT_TRUE(
      schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  EXPECT_TRUE(schema.AddAttribute("age", {"Young", "Old"}).ok());
  CrossCheckWorld world;
  world.data = std::make_unique<MarketplaceDataset>(schema);
  world.space =
      std::make_unique<GroupSpace>(*GroupSpace::Enumerate(world.data->schema()));
  Rng rng(2020);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 20; ++i) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(2)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    workers.push_back(*world.data->AddWorker("w" + std::to_string(i), d));
  }
  for (QueryId q = 0; q < 4; ++q) {
    world.data->queries().GetOrAdd("q" + std::to_string(q));
    for (LocationId l = 0; l < 3; ++l) {
      world.data->locations().GetOrAdd("l" + std::to_string(l));
      if (q == 2 && l == 1) continue;  // unobserved column
      MarketRanking r;
      r.workers = workers;
      rng.Shuffle(r.workers);
      // Rankings of uneven length, half of them carrying site scores.
      r.workers.resize(8 + rng.NextBelow(12));
      if (l % 2 == 0) {
        for (size_t i = 0; i < r.workers.size(); ++i) {
          r.scores.push_back(rng.NextDouble());
        }
      }
      EXPECT_TRUE(world.data->SetRanking(q, l, std::move(r)).ok());
    }
  }
  return world;
}

// The tentpole guarantee: the cell-shared fast path (MarketplaceCellContext
// under BuildMarketplaceCube) must be BITWISE equal to the per-triple
// reference MarketplaceUnfairness, for both measures, serial and pooled.
TEST(MarketplaceCellContextTest, CubeMatchesPerTripleReferenceBitwise) {
  CrossCheckWorld world = MakeCrossCheckWorld();
  std::vector<MeasureOptions> option_sets(3);
  option_sets[1].exposure_model = ExposureModel::kPowerLaw;
  option_sets[1].exposure_gamma = 1.5;
  option_sets[1].histogram_bins = 7;
  option_sets[2].use_scores_if_available = false;
  for (const MeasureOptions& options : option_sets) {
    for (MarketMeasure measure :
         {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
      for (size_t parallelism : {size_t{1}, size_t{4}}) {
        UnfairnessCube cube = *BuildMarketplaceCube(
            *world.data, *world.space, measure, options, {}, parallelism);
        for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
          for (size_t q = 0; q < cube.axis_size(Dimension::kQuery); ++q) {
            for (size_t l = 0; l < cube.axis_size(Dimension::kLocation); ++l) {
              Result<double> reference = MarketplaceUnfairness(
                  *world.data, *world.space, static_cast<GroupId>(g),
                  static_cast<QueryId>(q), static_cast<LocationId>(l), measure,
                  options);
              std::optional<double> cell = cube.Get(g, q, l);
              if (reference.ok()) {
                ASSERT_TRUE(cell.has_value())
                    << MarketMeasureName(measure) << " " << g << " " << q
                    << " " << l;
                // EXPECT_EQ, not NEAR: the fast path performs the identical
                // floating-point operations in the identical order.
                EXPECT_EQ(*cell, *reference)
                    << MarketMeasureName(measure) << " " << g << " " << q
                    << " " << l;
              } else {
                EXPECT_EQ(reference.status().code(), StatusCode::kNotFound);
                EXPECT_FALSE(cell.has_value());
              }
            }
          }
        }
      }
    }
  }
}

TEST(MarketplaceCellContextTest, DirectUseMatchesReference) {
  CrossCheckWorld world = MakeCrossCheckWorld();
  const MarketRanking* ranking = world.data->GetRanking(0, 0);
  ASSERT_NE(ranking, nullptr);
  MarketplaceCellContext ctx =
      *MarketplaceCellContext::Make(*world.data, *world.space, ranking, {});
  for (size_t g = 0; g < world.space->num_groups(); ++g) {
    for (MarketMeasure measure :
         {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
      Result<double> fast =
          ctx.Unfairness(static_cast<GroupId>(g), measure);
      Result<double> reference =
          MarketplaceUnfairness(*world.data, *world.space,
                                static_cast<GroupId>(g), 0, 0, measure, {});
      ASSERT_EQ(fast.ok(), reference.ok());
      if (fast.ok()) {
        EXPECT_EQ(*fast, *reference);
      } else {
        EXPECT_EQ(fast.status().code(), reference.status().code());
      }
    }
  }
}

TEST(MarketplaceCellContextTest, ValidatesInputs) {
  CrossCheckWorld world = MakeCrossCheckWorld();
  // Null / empty rankings are NotFound (an undefined column, not an error).
  Result<MarketplaceCellContext> missing =
      MarketplaceCellContext::Make(*world.data, *world.space, nullptr, {});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Malformed options are InvalidArgument, as in the reference path.
  MeasureOptions bad;
  bad.histogram_bins = 0;
  Result<MarketplaceCellContext> invalid = MarketplaceCellContext::Make(
      *world.data, *world.space, world.data->GetRanking(0, 0), bad);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelBuildTest, ParallelMatchesSerialForBothBuilders) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());

  // Marketplace: random rankings over 12 workers, 5 queries × 3 locations.
  MarketplaceDataset market(schema);
  GroupSpace space = *GroupSpace::Enumerate(market.schema());
  Rng rng(404);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 12; ++i) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    workers.push_back(*market.AddWorker("w" + std::to_string(i), d));
  }
  for (QueryId q = 0; q < 5; ++q) {
    market.queries().GetOrAdd("q" + std::to_string(q));
    for (LocationId l = 0; l < 3; ++l) {
      market.locations().GetOrAdd("l" + std::to_string(l));
      MarketRanking r;
      r.workers = workers;
      rng.Shuffle(r.workers);
      ASSERT_TRUE(market.SetRanking(q, l, std::move(r)).ok());
    }
  }
  for (MarketMeasure measure :
       {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    UnfairnessCube serial =
        *BuildMarketplaceCube(market, space, measure, {}, {}, 1);
    UnfairnessCube parallel =
        *BuildMarketplaceCube(market, space, measure, {}, {}, 4);
    ASSERT_EQ(serial.num_present(), parallel.num_present());
    for (size_t g = 0; g < serial.axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < 5; ++q) {
        for (size_t l = 0; l < 3; ++l) {
          ASSERT_EQ(serial.Get(g, q, l).has_value(),
                    parallel.Get(g, q, l).has_value());
          if (serial.Get(g, q, l).has_value()) {
            EXPECT_DOUBLE_EQ(*serial.Get(g, q, l), *parallel.Get(g, q, l));
          }
        }
      }
    }
  }

  // Search: per-user lists across 4 queries × 2 locations.
  SearchDataset search(schema);
  for (int u = 0; u < 8; ++u) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    ASSERT_TRUE(search.AddUser("u" + std::to_string(u), d).ok());
  }
  for (QueryId q = 0; q < 4; ++q) {
    search.queries().GetOrAdd("sq" + std::to_string(q));
    for (LocationId l = 0; l < 2; ++l) {
      search.locations().GetOrAdd("sl" + std::to_string(l));
      for (UserId u = 0; u < 8; ++u) {
        std::vector<int32_t> pool = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
        rng.Shuffle(pool);
        RankedList results(pool.begin(), pool.begin() + 6);
        ASSERT_TRUE(search.AddObservation(q, l, {u, results}).ok());
      }
    }
  }
  UnfairnessCube serial =
      *BuildSearchCube(search, space, SearchMeasure::kKendallTau, {}, {}, 1);
  UnfairnessCube parallel =
      *BuildSearchCube(search, space, SearchMeasure::kKendallTau, {}, {}, 4);
  ASSERT_EQ(serial.num_present(), parallel.num_present());
  for (size_t g = 0; g < serial.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < 4; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        ASSERT_EQ(serial.Get(g, q, l).has_value(),
                  parallel.Get(g, q, l).has_value());
        if (serial.Get(g, q, l).has_value()) {
          EXPECT_DOUBLE_EQ(*serial.Get(g, q, l), *parallel.Get(g, q, l));
        }
      }
    }
  }
}

// The bounded-memory sharded builders must stream exactly the columns the
// in-memory builders materialize — bitwise, whatever the shard size or
// parallelism, since both run the same column evaluators.
TEST(ShardedBuildTest, ShardedMatchesInMemoryForBothBuilders) {
  AttributeSchema schema;
  ASSERT_TRUE(
      schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());

  MarketplaceDataset market(schema);
  GroupSpace space = *GroupSpace::Enumerate(market.schema());
  Rng rng(606);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 12; ++i) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    workers.push_back(*market.AddWorker("w" + std::to_string(i), d));
  }
  for (QueryId q = 0; q < 5; ++q) {
    market.queries().GetOrAdd("q" + std::to_string(q));
    for (LocationId l = 0; l < 3; ++l) {
      market.locations().GetOrAdd("l" + std::to_string(l));
      if (q == 3) continue;  // unobserved column: must stay all-missing
      MarketRanking r;
      r.workers = workers;
      rng.Shuffle(r.workers);
      ASSERT_TRUE(market.SetRanking(q, l, std::move(r)).ok());
    }
  }
  CubeAxes axes = *ResolveMarketplaceCubeAxes(market, space);
  UnfairnessCube full =
      *BuildMarketplaceCube(market, space, MarketMeasure::kEmd);
  for (ShardedBuildOptions sharded :
       {ShardedBuildOptions{2, 1}, ShardedBuildOptions{4, 3},
        ShardedBuildOptions{1000, 2}}) {
    UnfairnessCube streamed =
        *UnfairnessCube::Make(axes.groups, axes.queries, axes.locations);
    CubeMaterializeSink sink(&streamed);
    ASSERT_TRUE(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd,
                                            {}, axes, sharded, &sink)
                    .ok());
    ASSERT_EQ(streamed.num_present(), full.num_present());
    for (size_t g = 0; g < full.axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < 5; ++q) {
        for (size_t l = 0; l < 3; ++l) {
          ASSERT_EQ(streamed.Get(g, q, l), full.Get(g, q, l))
              << "g=" << g << " q=" << q << " l=" << l
              << " shard_columns=" << sharded.shard_columns;
        }
      }
    }
  }

  SearchDataset search(schema);
  for (int u = 0; u < 8; ++u) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    ASSERT_TRUE(search.AddUser("u" + std::to_string(u), d).ok());
  }
  for (QueryId q = 0; q < 4; ++q) {
    search.queries().GetOrAdd("sq" + std::to_string(q));
    for (LocationId l = 0; l < 2; ++l) {
      search.locations().GetOrAdd("sl" + std::to_string(l));
      for (UserId u = 0; u < 8; ++u) {
        std::vector<int32_t> pool = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
        rng.Shuffle(pool);
        RankedList results(pool.begin(), pool.begin() + 6);
        ASSERT_TRUE(search.AddObservation(q, l, {u, results}).ok());
      }
    }
  }
  CubeAxes search_axes = *ResolveSearchCubeAxes(search, space);
  UnfairnessCube search_full =
      *BuildSearchCube(search, space, SearchMeasure::kJaccard);
  UnfairnessCube search_streamed = *UnfairnessCube::Make(
      search_axes.groups, search_axes.queries, search_axes.locations);
  CubeMaterializeSink search_sink(&search_streamed);
  ASSERT_TRUE(BuildSearchCubeSharded(search, space, SearchMeasure::kJaccard,
                                     {}, search_axes, {3, 2}, &search_sink)
                  .ok());
  ASSERT_EQ(search_streamed.num_present(), search_full.num_present());
  for (size_t g = 0; g < search_full.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < 4; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        ASSERT_EQ(search_streamed.Get(g, q, l), search_full.Get(g, q, l));
      }
    }
  }
}

TEST(ShardedBuildTest, RejectsBadArguments) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  MarketplaceDataset market(schema);
  GroupSpace space = *GroupSpace::Enumerate(market.schema());
  ASSERT_TRUE(market.AddWorker("w0", {0}).ok());
  market.queries().GetOrAdd("q0");
  market.locations().GetOrAdd("l0");
  MarketRanking r;
  r.workers = {0};
  ASSERT_TRUE(market.SetRanking(0, 0, std::move(r)).ok());
  CubeAxes axes = *ResolveMarketplaceCubeAxes(market, space);
  UnfairnessCube cube =
      *UnfairnessCube::Make(axes.groups, axes.queries, axes.locations);
  CubeMaterializeSink sink(&cube);
  EXPECT_EQ(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd, {},
                                        axes, {}, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd, {},
                                        axes, {0, 1}, &sink)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CubeBuilderTest, RefreshColumnTracksDatasetChanges) {
  UnfairnessCube cube =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  // Re-crawl query 1 (previously unobserved): now segregated by gender.
  MarketRanking fresh;
  fresh.workers = {0, 1, 2, 3};
  ASSERT_TRUE(data_->SetRanking(1, 0, std::move(fresh)).ok());
  ASSERT_TRUE(RefreshMarketplaceColumn(*data_, *space_, MarketMeasure::kEmd,
                                       {}, &cube, 1, 0)
                  .ok());
  UnfairnessCube rebuilt =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  ASSERT_EQ(cube.num_present(), rebuilt.num_present());
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < 2; ++q) {
      ASSERT_EQ(cube.Get(g, q, 0).has_value(),
                rebuilt.Get(g, q, 0).has_value());
      if (cube.Get(g, q, 0).has_value()) {
        EXPECT_DOUBLE_EQ(*cube.Get(g, q, 0), *rebuilt.Get(g, q, 0));
      }
    }
  }
}

TEST_F(CubeBuilderTest, RefreshColumnClearsUndefinedCells) {
  UnfairnessCube cube =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  ASSERT_TRUE(cube.Get(0, 0, 0).has_value());
  // Replace the ranking with a single-gender one: both groups undefined.
  MarketRanking males_only;
  males_only.workers = {0, 1};
  ASSERT_TRUE(data_->SetRanking(0, 0, std::move(males_only)).ok());
  ASSERT_TRUE(RefreshMarketplaceColumn(*data_, *space_, MarketMeasure::kEmd,
                                       {}, &cube, 0, 0)
                  .ok());
  EXPECT_FALSE(cube.Get(0, 0, 0).has_value());
  EXPECT_FALSE(cube.Get(1, 0, 0).has_value());
}

TEST_F(CubeBuilderTest, RefreshColumnValidates) {
  UnfairnessCube cube =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  EXPECT_FALSE(RefreshMarketplaceColumn(*data_, *space_, MarketMeasure::kEmd,
                                        {}, nullptr, 0, 0)
                   .ok());
  EXPECT_FALSE(RefreshMarketplaceColumn(*data_, *space_, MarketMeasure::kEmd,
                                        {}, &cube, 9, 0)
                   .ok());
}

TEST(ParallelBuildTest, ParallelPropagatesErrors) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  MarketplaceDataset market(schema);
  GroupSpace space = *GroupSpace::Enumerate(market.schema());
  ASSERT_TRUE(market.AddWorker("w", {0}).ok());
  MarketRanking r;
  r.workers = {0};
  market.queries().GetOrAdd("q");
  market.locations().GetOrAdd("l");
  ASSERT_TRUE(market.SetRanking(0, 0, std::move(r)).ok());
  MeasureOptions bad;
  bad.histogram_bins = 0;
  Result<UnfairnessCube> cube =
      BuildMarketplaceCube(market, space, MarketMeasure::kEmd, bad, {}, 4);
  ASSERT_FALSE(cube.ok());
  EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument);
}

TEST(SearchCubeBuilderTest, RefreshSearchColumnTracksNewObservations) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  ASSERT_TRUE(data.AddUser("m", {0}).ok());
  ASSERT_TRUE(data.AddUser("f", {1}).ok());
  QueryId q = data.queries().GetOrAdd("cleaning jobs");
  data.queries().GetOrAdd("moving jobs");  // second query, never observed
  LocationId l = data.locations().GetOrAdd("Boston, MA");
  ASSERT_TRUE(data.AddObservation(q, l, {0, {1, 2, 3}}).ok());
  ASSERT_TRUE(data.AddObservation(q, l, {1, {1, 2, 3}}).ok());

  UnfairnessCube cube =
      *BuildSearchCube(data, space, SearchMeasure::kJaccard);
  EXPECT_DOUBLE_EQ(*cube.Get(0, 0, 0), 0.0);  // identical lists
  EXPECT_FALSE(cube.Get(0, 1, 0).has_value());

  // New runs arrive for the second query: disjoint result sets.
  ASSERT_TRUE(data.AddObservation(1, l, {0, {4, 5}}).ok());
  ASSERT_TRUE(data.AddObservation(1, l, {1, {8, 9}}).ok());
  ASSERT_TRUE(RefreshSearchColumn(data, space, SearchMeasure::kJaccard, {},
                                  &cube, 1, 0)
                  .ok());
  ASSERT_TRUE(cube.Get(0, 1, 0).has_value());
  EXPECT_DOUBLE_EQ(*cube.Get(0, 1, 0), 1.0);
  // Untouched column is untouched.
  EXPECT_DOUBLE_EQ(*cube.Get(0, 0, 0), 0.0);
  // Full rebuild agrees.
  UnfairnessCube rebuilt =
      *BuildSearchCube(data, space, SearchMeasure::kJaccard);
  EXPECT_EQ(cube.num_present(), rebuilt.num_present());
}

TEST(SearchCubeBuilderTest, EmptyDatasetIsInvalid) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  EXPECT_FALSE(BuildSearchCube(data, space, SearchMeasure::kJaccard).ok());
}

}  // namespace
}  // namespace fairjob
