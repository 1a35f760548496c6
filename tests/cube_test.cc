#include "core/unfairness_cube.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "crawl/cube_io.h"
#include "serve/cache_key.h"
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

// Every cell's presence and bit pattern agree.
bool SameColumn(const UnfairnessCube& a, const UnfairnessCube& b, size_t q,
                size_t l) {
  for (size_t g = 0; g < a.axis_size(Dimension::kGroup); ++g) {
    std::optional<double> x = a.Get(g, q, l);
    std::optional<double> y = b.Get(g, q, l);
    if (x.has_value() != y.has_value()) return false;
    if (x.has_value() &&
        std::bit_cast<uint64_t>(*x) != std::bit_cast<uint64_t>(*y)) {
      return false;
    }
  }
  return true;
}

void ExpectSameCube(const UnfairnessCube& got, const UnfairnessCube& want,
                    const std::string& what) {
  for (Dimension d :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    ASSERT_EQ(got.axis_size(d), want.axis_size(d)) << what;
  }
  for (size_t q = 0; q < want.axis_size(Dimension::kQuery); ++q) {
    for (size_t l = 0; l < want.axis_size(Dimension::kLocation); ++l) {
      ASSERT_TRUE(SameColumn(got, want, q, l))
          << what << " q=" << q << " l=" << l;
    }
  }
  EXPECT_EQ(FingerprintCube(got), FingerprintCube(want)) << what;
}

size_t PresentInColumn(const UnfairnessCube& cube, size_t q, size_t l) {
  size_t present = 0;
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    present += cube.Get(g, q, l).has_value();
  }
  return present;
}

std::vector<CubeColumnRef> AllColumns(const CubeAxes& axes) {
  std::vector<CubeColumnRef> columns;
  for (size_t q = 0; q < axes.queries.size(); ++q) {
    for (size_t l = 0; l < axes.locations.size(); ++l) {
      columns.push_back(CubeColumnRef{q, l});
    }
  }
  return columns;
}

UnfairnessCube EmptyCube(const CubeAxes& axes) {
  return *UnfairnessCube::Make(axes.groups, axes.queries, axes.locations);
}

// Every builder entry point and sink must deliver exactly the columns the
// in-memory builders materialize — bitwise, whatever the pass size or
// parallelism, since they all run one column loop. A delta build over the
// columns a dataset change touched must equal a full rebuild: the changed
// columns are tracked, cells that became undefined are cleared and every
// other column is left as it was.
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
  search.queries().GetOrAdd("sq4");  // unobserved until the delta below

  CubeAxes axes = *ResolveMarketplaceCubeAxes(market, space);
  CubeAxes search_axes = *ResolveSearchCubeAxes(search, space);
  const size_t num_columns = axes.queries.size() * axes.locations.size();
  UnfairnessCube serial =
      *BuildMarketplaceCube(market, space, MarketMeasure::kEmd);
  UnfairnessCube search_serial =
      *BuildSearchCube(search, space, SearchMeasure::kJaccard);

  // The dataset change for the delta cases. Market: column (3, 1) was
  // unobserved and gets a ranking; column (0, 2) shrinks to one worker, so
  // no group keeps a comparable with members. Search: column (4, 0) gets
  // its first runs; column (1, 1) keeps one run, which pairs with nobody.
  MarketplaceDataset market_changed = market;
  MarketRanking fresh;
  fresh.workers = workers;
  rng.Shuffle(fresh.workers);
  ASSERT_TRUE(market_changed.SetRanking(3, 1, std::move(fresh)).ok());
  MarketRanking lone;
  lone.workers = {workers[0]};
  ASSERT_TRUE(market_changed.SetRanking(0, 2, std::move(lone)).ok());
  const std::vector<CubeColumnRef> market_touched = {{3, 1}, {0, 2}};
  MarketplaceGroupMembership membership(market, space);
  MarketplaceGroupMembership membership_changed(market_changed, space);
  UnfairnessCube market_rebuilt =
      *BuildMarketplaceCube(market_changed, space, MarketMeasure::kEmd);

  SearchDataset search_changed = search;
  ASSERT_TRUE(search_changed
                  .SetObservations(4, 0, {{0, {4, 5}}, {1, {8, 9}},
                                          {2, {4, 9}}, {3, {5, 8}}})
                  .ok());
  ASSERT_TRUE(search_changed.SetObservations(1, 1, {{0, {1, 2, 3}}}).ok());
  const std::vector<CubeColumnRef> search_touched = {{4, 0}, {1, 1}};
  UnfairnessCube search_rebuilt =
      *BuildSearchCube(search_changed, space, SearchMeasure::kJaccard);

  for (size_t parallelism : {size_t{1}, size_t{3}}) {
    const std::string at = " parallelism=" + std::to_string(parallelism);

    // --- marketplace ---
    UnfairnessCube full = *BuildMarketplaceCube(
        market, space, MarketMeasure::kEmd, {}, {}, parallelism);
    ExpectSameCube(full, serial, "in-memory" + at);
    for (size_t shard_columns : {size_t{1}, size_t{4}, num_columns}) {
      UnfairnessCube streamed = EmptyCube(axes);
      CubeMaterializeSink sink(&streamed);
      ASSERT_TRUE(BuildMarketplaceCubeSharded(
                      market, space, MarketMeasure::kEmd, {}, axes,
                      ShardedBuildOptions{shard_columns, parallelism}, &sink)
                      .ok());
      ExpectSameCube(streamed, full,
                     "sharded shard_columns=" + std::to_string(shard_columns) +
                         at);
    }
    std::string path = ::testing::TempDir() + "/fairjob_sharded_differential_" +
                       std::to_string(parallelism) + ".fjcube";
    {
      auto writer = BinaryCubeColumnWriter::Create(path, axes);
      ASSERT_TRUE(writer.ok());
      ASSERT_TRUE(BuildMarketplaceCubeSharded(
                      market, space, MarketMeasure::kEmd, {}, axes,
                      ShardedBuildOptions{4, parallelism}, writer->get())
                      .ok());
      ASSERT_TRUE((*writer)->Finish().ok());
    }
    Result<MappedCube> mapped = MappedCube::Open(path);
    ASSERT_TRUE(mapped.ok());
    Result<UnfairnessCube> from_file = mapped->Materialize();
    ASSERT_TRUE(from_file.ok());
    ExpectSameCube(*from_file, full, "sharded into the binary writer" + at);
    std::remove(path.c_str());
    {
      UnfairnessCube delta = EmptyCube(axes);
      CubeMaterializeSink sink(&delta);
      ASSERT_TRUE(BuildMarketplaceCubeColumns(
                      market, space, membership, MarketMeasure::kEmd, {}, axes,
                      AllColumns(axes), parallelism, &sink)
                      .ok());
      ExpectSameCube(delta, full, "market columns, every column" + at);
    }
    {
      UnfairnessCube patched = full;
      CubeMaterializeSink sink(&patched);
      ASSERT_TRUE(BuildMarketplaceCubeColumns(
                      market_changed, space, membership_changed,
                      MarketMeasure::kEmd, {}, axes, market_touched,
                      parallelism, &sink)
                      .ok());
      ExpectSameCube(patched, market_rebuilt, "market delta" + at);
      EXPECT_EQ(PresentInColumn(full, 3, 1), 0u);
      EXPECT_GT(PresentInColumn(patched, 3, 1), 0u);
      EXPECT_GT(PresentInColumn(full, 0, 2), 0u);
      EXPECT_EQ(PresentInColumn(patched, 0, 2), 0u);
      for (size_t q = 0; q < axes.queries.size(); ++q) {
        for (size_t l = 0; l < axes.locations.size(); ++l) {
          if ((q == 3 && l == 1) || (q == 0 && l == 2)) continue;
          EXPECT_TRUE(SameColumn(patched, full, q, l)) << q << "," << l << at;
        }
      }
    }

    // --- search ---
    UnfairnessCube search_full = *BuildSearchCube(
        search, space, SearchMeasure::kJaccard, {}, {}, parallelism);
    ExpectSameCube(search_full, search_serial, "search in-memory" + at);
    {
      UnfairnessCube delta = EmptyCube(search_axes);
      CubeMaterializeSink sink(&delta);
      ASSERT_TRUE(BuildSearchCubeColumns(search, space, SearchMeasure::kJaccard,
                                         {}, search_axes,
                                         AllColumns(search_axes), parallelism,
                                         &sink)
                      .ok());
      ExpectSameCube(delta, search_full, "search columns, every column" + at);
    }
    {
      UnfairnessCube patched = search_full;
      CubeMaterializeSink sink(&patched);
      ASSERT_TRUE(BuildSearchCubeColumns(
                      search_changed, space, SearchMeasure::kJaccard, {},
                      search_axes, search_touched, parallelism, &sink)
                      .ok());
      ExpectSameCube(patched, search_rebuilt, "search delta" + at);
      EXPECT_EQ(PresentInColumn(search_full, 4, 0), 0u);
      EXPECT_GT(PresentInColumn(patched, 4, 0), 0u);
      EXPECT_GT(PresentInColumn(search_full, 1, 1), 0u);
      EXPECT_EQ(PresentInColumn(patched, 1, 1), 0u);
      for (size_t q = 0; q < search_axes.queries.size(); ++q) {
        for (size_t l = 0; l < search_axes.locations.size(); ++l) {
          if ((q == 4 && l == 0) || (q == 1 && l == 1)) continue;
          EXPECT_TRUE(SameColumn(patched, search_full, q, l))
              << q << "," << l << at;
        }
      }
    }
  }

  // The delta path rejects a position outside the axes and a null sink,
  // before it touches the sink.
  UnfairnessCube untouched = serial;
  CubeMaterializeSink sink(&untouched);
  for (const CubeColumnRef& bad :
       {CubeColumnRef{axes.queries.size(), 0},
        CubeColumnRef{0, axes.locations.size()}}) {
    EXPECT_EQ(BuildMarketplaceCubeColumns(market_changed, space,
                                          membership_changed,
                                          MarketMeasure::kEmd, {}, axes,
                                          {{3, 1}, bad}, 1, &sink)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildSearchCubeColumns(search, space, SearchMeasure::kJaccard, {},
                                     search_axes, {bad}, 1, &sink)
                  .code(),
              StatusCode::kInvalidArgument);
  }
  ExpectSameCube(untouched, serial, "after rejected deltas");
  EXPECT_EQ(BuildMarketplaceCubeColumns(market, space, membership,
                                        MarketMeasure::kEmd, {}, axes,
                                        market_touched, 1, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildSearchCubeColumns(search, space, SearchMeasure::kJaccard, {},
                                   search_axes, search_touched, 1, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
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

  // The sink refuses a non-finite cell, like the binary writer, and leaves
  // the column unwritten.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::vector<std::optional<double>> column(
        cube.axis_size(Dimension::kGroup));
    column[0] = 0.5;
    column[1] = bad;
    EXPECT_EQ(sink.Consume(0, 0, column.data(), column.size()).code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(cube.column(0, 0).stored());
  }
}

// Patching a cube after a re-crawl: the changed columns go through a delta
// build into a CubeMaterializeSink over the existing cube.
TEST_F(CubeBuilderTest, RefreshColumnTracksDatasetChanges) {
  UnfairnessCube cube =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  // Re-crawl query 1 (previously unobserved): now segregated by gender.
  MarketRanking fresh;
  fresh.workers = {0, 1, 2, 3};
  ASSERT_TRUE(data_->SetRanking(1, 0, std::move(fresh)).ok());
  MarketplaceGroupMembership membership(*data_, *space_);
  CubeMaterializeSink sink(&cube);
  ASSERT_TRUE(BuildMarketplaceCubeColumns(*data_, *space_, membership,
                                          MarketMeasure::kEmd, {}, {},
                                          {{1, 0}}, 1, &sink)
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
  MarketplaceGroupMembership membership(*data_, *space_);
  CubeMaterializeSink sink(&cube);
  ASSERT_TRUE(BuildMarketplaceCubeColumns(*data_, *space_, membership,
                                          MarketMeasure::kEmd, {}, {},
                                          {{0, 0}}, 1, &sink)
                  .ok());
  EXPECT_FALSE(cube.Get(0, 0, 0).has_value());
  EXPECT_FALSE(cube.Get(1, 0, 0).has_value());
}

TEST_F(CubeBuilderTest, RefreshColumnValidates) {
  UnfairnessCube cube =
      *BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd);
  MarketplaceGroupMembership membership(*data_, *space_);
  CubeMaterializeSink sink(&cube);
  EXPECT_EQ(BuildMarketplaceCubeColumns(*data_, *space_, membership,
                                        MarketMeasure::kEmd, {}, {}, {{0, 0}},
                                        1, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildMarketplaceCubeColumns(*data_, *space_, membership,
                                        MarketMeasure::kEmd, {}, {}, {{9, 0}},
                                        1, &sink)
                .code(),
            StatusCode::kInvalidArgument);
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
  CubeMaterializeSink sink(&cube);
  ASSERT_TRUE(BuildSearchCubeColumns(data, space, SearchMeasure::kJaccard, {},
                                     {}, {{1, 0}}, 1, &sink)
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

TEST_F(CubeBuilderTest, GroupIdsOutsideTheSpaceAreRejected) {
  SearchDataset search(data_->schema());
  ASSERT_TRUE(search.AddUser("m", {0}).ok());
  ASSERT_TRUE(search.AddUser("f", {1}).ok());
  QueryId q = search.queries().GetOrAdd("cleaning jobs");
  LocationId l = search.locations().GetOrAdd("Boston, MA");
  ASSERT_TRUE(search.AddObservation(q, l, {0, {1, 2, 3}}).ok());
  ASSERT_TRUE(search.AddObservation(q, l, {1, {1, 2, 4}}).ok());
  MarketplaceGroupMembership membership(*data_, *space_);

  for (GroupId bad :
       {GroupId{-1}, static_cast<GroupId>(space_->num_groups()),
        static_cast<GroupId>(space_->num_groups() + 3)}) {
    CubeAxes axes;
    axes.groups = {0, bad};
    UnfairnessCube cube = *UnfairnessCube::Make(axes.groups, {0, 1}, {0});
    CubeMaterializeSink sink(&cube);
    EXPECT_EQ(ResolveMarketplaceCubeAxes(*data_, *space_, axes).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildMarketplaceCube(*data_, *space_, MarketMeasure::kEmd, {},
                                   axes)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildMarketplaceCubeSharded(*data_, *space_, MarketMeasure::kEmd,
                                          {}, axes, {}, &sink)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildMarketplaceCubeColumns(*data_, *space_, membership,
                                          MarketMeasure::kEmd, {}, axes,
                                          {{0, 0}}, 1, &sink)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ResolveSearchCubeAxes(search, *space_, axes).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(
        BuildSearchCube(search, *space_, SearchMeasure::kJaccard, {}, axes)
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(BuildSearchCubeColumns(search, *space_, SearchMeasure::kJaccard,
                                     {}, axes, {{0, 0}}, 1, &sink)
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(cube.num_present(), 0u);
  }
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

TEST(SearchCubeBuilderTest, EmptyDatasetIsInvalid) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  EXPECT_FALSE(BuildSearchCube(data, space, SearchMeasure::kJaccard).ok());
}

}  // namespace
}  // namespace fairjob
