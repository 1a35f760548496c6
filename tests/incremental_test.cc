// Differential suite for incremental cube maintenance: any sequence of
// UpsertCrawlBatch / UpsertStudySnapshot calls must leave the maintainer's
// cube bitwise identical (presence + double bit patterns) to a cold rebuild
// over the same mutated dataset, its indices identical to IndexSet::Build,
// and its epochs bumped for exactly the columns whose values changed — the
// property the serving cache's survival arithmetic rests on.

#include "serve/incremental.h"

#include <bit>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/indices.h"
#include "serve/cache_key.h"
#include "serve/quantification_service.h"

namespace fairjob {
namespace {

constexpr size_t kQueries = 5;
constexpr size_t kLocations = 3;
constexpr size_t kWorkers = 20;
constexpr size_t kUsers = 16;

AttributeSchema TwoAttributeSchema() {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  EXPECT_TRUE(schema.AddAttribute("ethnicity", {"A", "B", "C"}).ok());
  return schema;
}

MarketRanking RandomRanking(Rng& rng, bool with_scores) {
  MarketRanking ranking;
  std::vector<WorkerId> pool(kWorkers);
  for (size_t w = 0; w < kWorkers; ++w) pool[w] = static_cast<WorkerId>(w);
  rng.Shuffle(pool);
  size_t length = 3 + rng.NextBelow(kWorkers - 3);
  ranking.workers.assign(pool.begin(), pool.begin() + length);
  if (with_scores) {
    double score = 1.0;
    for (size_t i = 0; i < length; ++i) {
      score -= rng.NextDouble() / length;
      ranking.scores.push_back(score);
    }
  }
  return ranking;
}

MarketplaceDataset MakeMarketplace(uint64_t seed) {
  MarketplaceDataset data(TwoAttributeSchema());
  Rng rng(seed);
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(data.AddWorker("w" + std::to_string(w),
                               {static_cast<int32_t>(rng.NextBelow(2)),
                                static_cast<int32_t>(rng.NextBelow(3))})
                    .ok());
  }
  for (size_t q = 0; q < kQueries; ++q) {
    data.queries().GetOrAdd("query" + std::to_string(q));
  }
  for (size_t l = 0; l < kLocations; ++l) {
    data.locations().GetOrAdd("loc" + std::to_string(l));
  }
  // Most cells observed; a few left missing to exercise presence changes.
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      if (rng.NextBelow(5) == 0) continue;
      EXPECT_TRUE(data.SetRanking(static_cast<QueryId>(q),
                                  static_cast<LocationId>(l),
                                  RandomRanking(rng, rng.NextBernoulli(0.5)))
                      .ok());
    }
  }
  return data;
}

std::vector<SearchObservation> RandomObservations(Rng& rng) {
  std::vector<SearchObservation> observations;
  size_t count = 1 + rng.NextBelow(4);
  for (size_t i = 0; i < count; ++i) {
    SearchObservation obs;
    obs.user = static_cast<UserId>(rng.NextBelow(kUsers));
    std::vector<int32_t> docs(12);
    for (size_t d = 0; d < docs.size(); ++d) docs[d] = static_cast<int32_t>(d);
    rng.Shuffle(docs);
    docs.resize(4 + rng.NextBelow(8));
    obs.results = std::move(docs);
    observations.push_back(std::move(obs));
  }
  return observations;
}

SearchDataset MakeSearch(uint64_t seed) {
  SearchDataset data(TwoAttributeSchema());
  Rng rng(seed);
  for (size_t u = 0; u < kUsers; ++u) {
    EXPECT_TRUE(data.AddUser("u" + std::to_string(u),
                             {static_cast<int32_t>(rng.NextBelow(2)),
                              static_cast<int32_t>(rng.NextBelow(3))})
                    .ok());
  }
  for (size_t q = 0; q < kQueries; ++q) {
    data.queries().GetOrAdd("term" + std::to_string(q));
  }
  for (size_t l = 0; l < kLocations; ++l) {
    data.locations().GetOrAdd("loc" + std::to_string(l));
  }
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      if (rng.NextBelow(5) == 0) continue;
      for (SearchObservation& obs : RandomObservations(rng)) {
        EXPECT_TRUE(data.AddObservation(static_cast<QueryId>(q),
                                        static_cast<LocationId>(l),
                                        std::move(obs))
                        .ok());
      }
    }
  }
  return data;
}

bool BitwiseEqual(const std::optional<double>& a,
                  const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  uint64_t ba;
  uint64_t bb;
  std::memcpy(&ba, &*a, sizeof(ba));
  std::memcpy(&bb, &*b, sizeof(bb));
  return ba == bb;
}

void ExpectCubesBitwiseEqual(const UnfairnessCube& actual,
                             const UnfairnessCube& expected,
                             const char* context) {
  ASSERT_EQ(actual.axis_size(Dimension::kGroup),
            expected.axis_size(Dimension::kGroup));
  ASSERT_EQ(actual.axis_size(Dimension::kQuery),
            expected.axis_size(Dimension::kQuery));
  ASSERT_EQ(actual.axis_size(Dimension::kLocation),
            expected.axis_size(Dimension::kLocation));
  for (size_t g = 0; g < actual.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < actual.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < actual.axis_size(Dimension::kLocation); ++l) {
        EXPECT_TRUE(BitwiseEqual(actual.Get(g, q, l), expected.Get(g, q, l)))
            << context << " cell (" << g << "," << q << "," << l << ")";
      }
    }
  }
  // The two digests must collide too — this is what keeps the snapshot
  // lineage meaningful across the incremental path.
  EXPECT_EQ(FingerprintCube(actual), FingerprintCube(expected)) << context;
}

void ExpectIndicesMatchCube(const IndexSet& actual,
                            const UnfairnessCube& cube, const char* context) {
  IndexSet fresh = IndexSet::Build(cube);
  size_t sizes[3] = {cube.axis_size(Dimension::kGroup),
                     cube.axis_size(Dimension::kQuery),
                     cube.axis_size(Dimension::kLocation)};
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t o1 = sizes[(static_cast<size_t>(target) + 1) % 3];
    size_t o2 = sizes[(static_cast<size_t>(target) + 2) % 3];
    // ListAt takes the two non-target axes in ascending Dimension order.
    if (target == Dimension::kQuery) o1 = sizes[0], o2 = sizes[2];
    if (target == Dimension::kLocation) o1 = sizes[0], o2 = sizes[1];
    if (target == Dimension::kGroup) o1 = sizes[1], o2 = sizes[2];
    for (size_t a = 0; a < o1; ++a) {
      for (size_t b = 0; b < o2; ++b) {
        const InvertedList got = actual.ListAt(target, a, b);
        const InvertedList want = fresh.ListAt(target, a, b);
        ASSERT_EQ(got.size(), want.size())
            << context << " list (" << DimensionName(target) << "," << a << ","
            << b << ")";
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got.entry(i) == want.entry(i))
              << context << " list (" << DimensionName(target) << "," << a
              << "," << b << ") entry " << i;
        }
      }
    }
  }
}

TEST(MarketplaceMaintainerTest, UpsertsMatchColdRebuildBitwise) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  for (MarketMeasure measure : {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    Result<MarketplaceCubeMaintainer> made =
        MarketplaceCubeMaintainer::Make(MakeMarketplace(/*seed=*/11), space,
                                        measure);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    MarketplaceCubeMaintainer maintainer = std::move(*made);

    Rng rng(/*seed=*/77);
    for (size_t round = 0; round < 4; ++round) {
      CrawlBatch batch;
      size_t rows = 1 + rng.NextBelow(4);
      for (size_t r = 0; r < rows; ++r) {
        CrawlBatchRow row;
        row.query = static_cast<QueryId>(rng.NextBelow(kQueries));
        row.location = static_cast<LocationId>(rng.NextBelow(kLocations));
        row.ranking = RandomRanking(rng, rng.NextBernoulli(0.5));
        batch.rows.push_back(std::move(row));
      }
      // Occasionally list the same cell twice: the later row must win.
      if (rng.NextBernoulli(0.5) && !batch.rows.empty()) {
        CrawlBatchRow again = batch.rows.front();
        again.ranking = RandomRanking(rng, false);
        batch.rows.push_back(std::move(again));
      }
      Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();

      Result<UnfairnessCube> expected =
          BuildMarketplaceCube(maintainer.data(), space, measure);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ExpectCubesBitwiseEqual(maintainer.snapshot()->cube(), *expected,
                              MarketMeasureName(measure));
      ExpectIndicesMatchCube(maintainer.snapshot()->indices(),
                             maintainer.snapshot()->cube(),
                             MarketMeasureName(measure));
    }
  }
}

TEST(MarketplaceMaintainerTest, EmptyRankingMakesTheColumnMissing) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/11), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);

  CrawlBatch batch;
  batch.rows.push_back(CrawlBatchRow{0, 0, MarketRanking{}});
  Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const UnfairnessCube& cube = maintainer.snapshot()->cube();
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    EXPECT_FALSE(cube.Get(g, 0, 0).has_value()) << "group " << g;
  }
  Result<UnfairnessCube> expected =
      BuildMarketplaceCube(maintainer.data(), space, MarketMeasure::kExposure);
  ASSERT_TRUE(expected.ok());
  ExpectCubesBitwiseEqual(cube, *expected, "empty-ranking");
}

TEST(SearchMaintainerTest, UpsertsMatchColdRebuildBitwise) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  for (SearchMeasure measure :
       {SearchMeasure::kKendallTau, SearchMeasure::kJaccard}) {
    Result<SearchCubeMaintainer> made =
        SearchCubeMaintainer::Make(MakeSearch(/*seed=*/23), space, measure);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    SearchCubeMaintainer maintainer = std::move(*made);

    Rng rng(/*seed=*/99);
    for (size_t round = 0; round < 4; ++round) {
      StudySnapshot delta;
      size_t cells = 1 + rng.NextBelow(3);
      for (size_t c = 0; c < cells; ++c) {
        StudySnapshotCell cell;
        cell.query = static_cast<QueryId>(rng.NextBelow(kQueries));
        cell.location = static_cast<LocationId>(rng.NextBelow(kLocations));
        // Replace semantics, including occasional removal (empty vector).
        if (!rng.NextBernoulli(0.2)) cell.observations = RandomObservations(rng);
        delta.cells.push_back(std::move(cell));
      }
      Result<UpsertReport> report = maintainer.UpsertStudySnapshot(delta);
      ASSERT_TRUE(report.ok()) << report.status().ToString();

      Result<UnfairnessCube> expected =
          BuildSearchCube(maintainer.data(), space, measure);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ExpectCubesBitwiseEqual(maintainer.snapshot()->cube(), *expected,
                              SearchMeasureName(measure));
      ExpectIndicesMatchCube(maintainer.snapshot()->indices(),
                             maintainer.snapshot()->cube(),
                             SearchMeasureName(measure));
    }
  }
}

TEST(MarketplaceMaintainerTest, EpochsBumpOnlyForChangedColumns) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  MarketplaceDataset data = MakeMarketplace(/*seed=*/11);
  // Remember an existing ranking so one batch row can re-send it verbatim.
  const MarketRanking* unchanged = data.GetRanking(0, 0);
  ASSERT_NE(unchanged, nullptr);
  MarketRanking verbatim = *unchanged;

  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      std::move(data), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);
  std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();

  // Record every column epoch before the upsert.
  const UnfairnessCube& cube_before = before->cube();
  std::vector<uint64_t> epochs_before;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      epochs_before.push_back(cube_before.column_epoch(q, l));
    }
  }

  Rng rng(/*seed=*/5);
  CrawlBatch batch;
  batch.rows.push_back(CrawlBatchRow{0, 0, verbatim});  // bitwise no-op
  batch.rows.push_back(CrawlBatchRow{1, 1, RandomRanking(rng, true)});
  Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->rows_applied, 2u);
  EXPECT_EQ(report->columns_touched, 2u);
  EXPECT_EQ(report->columns_changed, 1u);
  EXPECT_EQ(report->cells_recomputed,
            2u * cube_before.axis_size(Dimension::kGroup));
  EXPECT_TRUE(report->published_new_snapshot);

  std::shared_ptr<const CubeSnapshot> after = maintainer.snapshot();
  ASSERT_NE(after, before);
  EXPECT_EQ(after->lineage(), before->lineage());  // same snapshot family
  EXPECT_EQ(after->version(), before->version() + 1);

  const UnfairnessCube& cube_after = after->cube();
  size_t i = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l, ++i) {
      uint64_t expected = epochs_before[i] + ((q == 1 && l == 1) ? 1 : 0);
      EXPECT_EQ(cube_after.column_epoch(q, l), expected)
          << "column (" << q << "," << l << ")";
    }
  }

  // A batch that changes nothing publishes nothing: the snapshot pointer is
  // literally the same object and every epoch stays put.
  CrawlBatch noop;
  noop.rows.push_back(CrawlBatchRow{0, 0, verbatim});
  Result<UpsertReport> noop_report = maintainer.UpsertCrawlBatch(noop);
  ASSERT_TRUE(noop_report.ok()) << noop_report.status().ToString();
  EXPECT_EQ(noop_report->columns_changed, 0u);
  EXPECT_FALSE(noop_report->published_new_snapshot);
  EXPECT_EQ(maintainer.snapshot(), after);
}

TEST(MarketplaceMaintainerTest, FailedBatchLeavesEverythingUntouched) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/11), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);
  std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();
  const MarketRanking* ranking_before = maintainer.data().GetRanking(0, 0);
  ASSERT_NE(ranking_before, nullptr);
  std::vector<WorkerId> workers_before = ranking_before->workers;

  Rng rng(/*seed=*/5);
  // Valid first row, then each flavor of bad row: the batch must be
  // rejected atomically — the valid row must NOT have been applied.
  MarketRanking fresh = RandomRanking(rng, false);
  ASSERT_NE(fresh.workers, workers_before);
  {
    CrawlBatch batch;
    batch.rows.push_back(CrawlBatchRow{0, 0, fresh});
    batch.rows.push_back(
        CrawlBatchRow{static_cast<QueryId>(kQueries + 7), 0, fresh});
    EXPECT_FALSE(maintainer.UpsertCrawlBatch(batch).ok());
  }
  {
    CrawlBatch batch;
    batch.rows.push_back(CrawlBatchRow{0, 0, fresh});
    batch.rows.push_back(
        CrawlBatchRow{0, static_cast<LocationId>(kLocations + 7), fresh});
    EXPECT_FALSE(maintainer.UpsertCrawlBatch(batch).ok());
  }
  {
    CrawlBatch batch;
    batch.rows.push_back(CrawlBatchRow{0, 0, fresh});
    MarketRanking bad;
    bad.workers = {0, 0};  // duplicate worker
    batch.rows.push_back(CrawlBatchRow{1, 1, std::move(bad)});
    EXPECT_FALSE(maintainer.UpsertCrawlBatch(batch).ok());
  }

  EXPECT_EQ(maintainer.snapshot(), before);
  const MarketRanking* ranking_after = maintainer.data().GetRanking(0, 0);
  ASSERT_NE(ranking_after, nullptr);
  EXPECT_EQ(ranking_after->workers, workers_before);
}

TEST(SearchMaintainerTest, FailedSnapshotLeavesEverythingUntouched) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<SearchCubeMaintainer> made = SearchCubeMaintainer::Make(
      MakeSearch(/*seed=*/23), space, SearchMeasure::kJaccard);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  SearchCubeMaintainer maintainer = std::move(*made);
  std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();

  Rng rng(/*seed=*/5);
  StudySnapshot delta;
  StudySnapshotCell good;
  good.query = 0;
  good.location = 0;
  good.observations = RandomObservations(rng);
  delta.cells.push_back(std::move(good));
  StudySnapshotCell bad;
  bad.query = 1;
  bad.location = 1;
  SearchObservation obs;
  obs.user = static_cast<UserId>(kUsers + 9);  // unknown user
  obs.results = {1, 2, 3};
  bad.observations.push_back(std::move(obs));
  delta.cells.push_back(std::move(bad));

  EXPECT_FALSE(maintainer.UpsertStudySnapshot(delta).ok());
  EXPECT_EQ(maintainer.snapshot(), before);
}

// The serving-layer cache-survival criterion: after an upsert touching k of
// the C (query, location) columns, the C − k requests over untouched
// columns are served from cache — asserted with EXACT stats accounting, not
// approximations.
TEST(IncrementalServingTest, UntouchedColumnsServeFromCacheAfterUpsert) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/31), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);

  QuantificationService service(maintainer.snapshot());

  // One group-target request per (query, location) column: C requests, each
  // binding exactly its own column's epoch.
  std::vector<QuantificationRequest> per_column;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      QuantificationRequest request;
      request.target = Dimension::kGroup;
      request.k = 3;
      request.missing = MissingCellPolicy::kZero;
      request.agg1 = AxisSelector::Single(q);
      request.agg2 = AxisSelector::Single(l);
      per_column.push_back(request);
    }
  }
  const size_t kColumns = kQueries * kLocations;

  for (const QuantificationRequest& request : per_column) {
    ASSERT_TRUE(service.Answer(request).ok());
  }
  QuantificationService::Stats cold = service.stats();
  EXPECT_EQ(cold.requests, kColumns);
  EXPECT_EQ(cold.cache_misses, kColumns);
  EXPECT_EQ(cold.computations, kColumns);
  EXPECT_EQ(cold.cache_hits, 0u);

  // Warm replay: every request hits.
  for (const QuantificationRequest& request : per_column) {
    ASSERT_TRUE(service.Answer(request).ok());
  }
  QuantificationService::Stats warm = service.stats();
  EXPECT_EQ(warm.cache_hits, kColumns);
  EXPECT_EQ(warm.computations, kColumns);

  // Upsert k = 2 columns with genuinely different rankings, flip.
  Rng rng(/*seed=*/41);
  CrawlBatch batch;
  batch.rows.push_back(CrawlBatchRow{0, 0, RandomRanking(rng, true)});
  batch.rows.push_back(CrawlBatchRow{2, 1, RandomRanking(rng, true)});
  Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->columns_changed, 2u);
  service.SetSnapshot(maintainer.snapshot());

  // Replay all C requests: exactly k recompute, C − k hit the old entries.
  for (const QuantificationRequest& request : per_column) {
    Result<QuantificationResult> served = service.Answer(request);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
  }
  QuantificationService::Stats after = service.stats();
  EXPECT_EQ(after.requests, 3 * kColumns);
  EXPECT_EQ(after.cache_hits, warm.cache_hits + (kColumns - 2));
  EXPECT_EQ(after.cache_misses, warm.cache_misses + 2);
  EXPECT_EQ(after.computations, warm.computations + 2);
  EXPECT_EQ(after.snapshot_flips, 1u);

  // Exact accounting invariants, not inequalities.
  EXPECT_EQ(after.cache_hits + after.cache_misses, after.requests);
  EXPECT_EQ(after.computations + after.coalesced, after.cache_misses);

  // And the recomputed answers match a direct solve against the new cube.
  const CubeSnapshot& snapshot = *maintainer.snapshot();
  for (const QuantificationRequest& request : per_column) {
    Result<QuantificationResult> direct =
        SolveQuantification(snapshot.cube(), snapshot.indices(), request);
    Result<QuantificationResult> served = service.Answer(request);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(served.ok());
    ASSERT_EQ(served->answers.size(), direct->answers.size());
    for (size_t i = 0; i < served->answers.size(); ++i) {
      EXPECT_EQ(served->answers[i].id, direct->answers[i].id);
      EXPECT_EQ(served->answers[i].value, direct->answers[i].value);
    }
  }
}

// --- Persistent snapshots ---------------------------------------------------

// A deep copy of one list: its entries in list order (value bits kept) and
// Find at every position of its axis.
struct ListCopy {
  std::vector<std::pair<int32_t, uint64_t>> entries;
  std::vector<std::optional<uint64_t>> found;

  friend bool operator==(const ListCopy&, const ListCopy&) = default;
};

ListCopy CopyOf(const InvertedList& list, size_t axis) {
  ListCopy copy;
  for (size_t i = 0; i < list.size(); ++i) {
    copy.entries.emplace_back(list.entry(i).pos,
                              std::bit_cast<uint64_t>(list.entry(i).value));
  }
  for (size_t pos = 0; pos < axis; ++pos) {
    std::optional<double> v = list.Find(static_cast<int32_t>(pos));
    std::optional<uint64_t> bits;
    if (v.has_value()) bits = std::bit_cast<uint64_t>(*v);
    copy.found.push_back(bits);
  }
  return copy;
}

constexpr Dimension kTargets[] = {Dimension::kGroup, Dimension::kQuery,
                                  Dimension::kLocation};

// Every list of every family, deep-copied, in ListsFor(All, All) order.
std::vector<std::vector<ListCopy>> CopyAllLists(const IndexSet& indices) {
  std::vector<std::vector<ListCopy>> copies;
  for (Dimension target : kTargets) {
    std::vector<ListCopy> family;
    for (const InvertedList& list : indices.ListsFor(
             target, AxisSelector::All(), AxisSelector::All())) {
      family.push_back(CopyOf(list, indices.axis_size(target)));
    }
    copies.push_back(std::move(family));
  }
  return copies;
}

// Whether list `i` of `target` (in ListsFor(All, All) order, ids
// other1 * n2 + other2) lies in a block that a change to columns with query
// positions `qs` and location positions `ls` rewrites: the group lists
// (q, ·) and location lists (·, q) of a changed q, and the query lists
// (·, l) of a changed l.
bool InTouchedBlock(Dimension target, size_t i, size_t num_queries,
                    size_t num_locations, const std::set<size_t>& qs,
                    const std::set<size_t>& ls) {
  switch (target) {
    case Dimension::kGroup:
      return qs.count(i / num_locations) > 0;
    case Dimension::kQuery:
      return ls.count(i % num_locations) > 0;
    case Dimension::kLocation:
      return qs.count(i % num_queries) > 0;
  }
  return true;
}

// Per family, how many non-empty lists lie outside the blocks the
// `changed` columns rewrite, and how many of those are the same object (the
// same storage) in `before` and `after`.
struct Sharing {
  size_t untouched = 0;
  size_t shared = 0;
};
std::vector<Sharing> CountSharing(const IndexSet& before, const IndexSet& after,
                                  const std::vector<CubeColumnRef>& changed) {
  const size_t num_queries = before.axis_size(Dimension::kQuery);
  const size_t num_locations = before.axis_size(Dimension::kLocation);
  std::set<size_t> qs;
  std::set<size_t> ls;
  for (const CubeColumnRef& c : changed) {
    qs.insert(c.query_pos);
    ls.insert(c.location_pos);
  }
  std::vector<Sharing> out;
  for (Dimension target : kTargets) {
    std::vector<InvertedList> a =
        before.ListsFor(target, AxisSelector::All(), AxisSelector::All());
    std::vector<InvertedList> b =
        after.ListsFor(target, AxisSelector::All(), AxisSelector::All());
    Sharing sharing;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].empty() ||
          InTouchedBlock(target, i, num_queries, num_locations, qs, ls)) {
        continue;
      }
      ++sharing.untouched;
      if (!b[i].empty() && &a[i].entry(0) == &b[i].entry(0)) ++sharing.shared;
    }
    out.push_back(sharing);
  }
  return out;
}

// A cube over groups × queries × locations with `density` of its cells
// present.
UnfairnessCube RandomCube(Rng& rng, size_t groups, size_t queries,
                          size_t locations, double density) {
  std::vector<int32_t> ids[3];
  const size_t sizes[3] = {groups, queries, locations};
  for (size_t d = 0; d < 3; ++d) {
    for (size_t i = 0; i < sizes[d]; ++i) {
      ids[d].push_back(static_cast<int32_t>(i));
    }
  }
  UnfairnessCube cube = *UnfairnessCube::Make(ids[0], ids[1], ids[2]);
  for (size_t g = 0; g < groups; ++g) {
    for (size_t q = 0; q < queries; ++q) {
      for (size_t l = 0; l < locations; ++l) {
        if (rng.NextBernoulli(density)) cube.Set(g, q, l, rng.NextDouble());
      }
    }
  }
  return cube;
}

// After any number of upserts, the first snapshot still reads exactly as it
// did: same cube fingerprint, same cells, same lists bit for bit.
TEST(PersistentSnapshotTest, UpsertsLeaveTheParentSnapshotUntouched) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      MakeMarketplace(/*seed=*/11), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);

  const std::shared_ptr<const CubeSnapshot> parent = maintainer.snapshot();
  const uint64_t fingerprint = FingerprintCube(parent->cube());
  const UnfairnessCube cells = *BuildMarketplaceCube(
      maintainer.data(), space, MarketMeasure::kExposure);
  const std::vector<std::vector<ListCopy>> lists =
      CopyAllLists(parent->indices());

  Rng rng(/*seed=*/91);
  size_t published = 0;
  for (size_t round = 0; round < 8; ++round) {
    CrawlBatch batch;
    for (size_t r = 0; r < 1 + rng.NextBelow(3); ++r) {
      CrawlBatchRow row;
      row.query = static_cast<QueryId>(rng.NextBelow(kQueries));
      row.location = static_cast<LocationId>(rng.NextBelow(kLocations));
      row.ranking = RandomRanking(rng, rng.NextBernoulli(0.5));
      batch.rows.push_back(std::move(row));
    }
    Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    published += report->published_new_snapshot ? 1 : 0;
  }
  ASSERT_GT(published, 0u);
  ASSERT_NE(maintainer.snapshot(), parent);

  EXPECT_EQ(FingerprintCube(parent->cube()), fingerprint);
  ExpectCubesBitwiseEqual(parent->cube(), cells, "parent");
  EXPECT_TRUE(CopyAllLists(parent->indices()) == lists);
}

// Deriving an index set shares every block a refresh did not rewrite: each
// list outside the changed columns' blocks is the same object in parent
// and child, and neither set ever sees the other's lists change.
TEST(PersistentSnapshotTest, UntouchedListsAreSharedByDerivedIndexSets) {
  Rng rng(/*seed=*/404);
  const size_t groups = 6;
  const size_t queries = 24;
  const size_t locations = 20;
  UnfairnessCube cube = RandomCube(rng, groups, queries, locations, 0.6);
  IndexSet indices = IndexSet::Build(cube);
  for (size_t round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const std::vector<std::vector<ListCopy>> parent_lists =
        CopyAllLists(indices);
    const uint64_t parent_fingerprint = FingerprintCube(cube);

    UnfairnessCube next = cube;
    std::vector<CubeColumnRef> changed;
    const size_t columns = 1 + rng.NextBelow(2);
    for (size_t c = 0; c < columns; ++c) {
      const size_t q = rng.NextBelow(queries);
      const size_t l = rng.NextBelow(locations);
      for (size_t g = 0; g < groups; ++g) {
        const double coin = rng.NextDouble();
        if (coin < 0.3) {
          next.Clear(g, q, l);
        } else if (coin < 0.8) {
          next.Set(g, q, l, rng.NextDouble());
        }
      }
      changed.push_back(CubeColumnRef{q, l});
    }
    IndexSet derived = indices;
    derived.RefreshColumns(next, changed);

    // The parent is untouched, and the child is the cold build's.
    EXPECT_EQ(FingerprintCube(cube), parent_fingerprint);
    EXPECT_TRUE(CopyAllLists(indices) == parent_lists);
    EXPECT_TRUE(CopyAllLists(derived) == CopyAllLists(IndexSet::Build(next)));

    const std::vector<Sharing> sharing =
        CountSharing(indices, derived, changed);
    for (size_t t = 0; t < 3; ++t) {
      SCOPED_TRACE(DimensionName(kTargets[t]));
      ASSERT_GT(sharing[t].untouched, 0u);
      EXPECT_EQ(sharing[t].shared, sharing[t].untouched);
    }
    cube = std::move(next);
    indices = std::move(derived);
  }
}

// A cube copy shares its chunks; a write un-shares only the written chunk.
// At 4096 groups a column's block is over half of a chunk, so each chunk
// holds one column and exactly the written columns move.
TEST(PersistentSnapshotTest, UntouchedChunksAreSharedByCubeCopies) {
  Rng rng(/*seed=*/5);
  const size_t kGroups = 4096;
  UnfairnessCube cube = RandomCube(rng, kGroups, 3, 4, 0.5);
  const uint64_t fingerprint = FingerprintCube(cube);
  UnfairnessCube copy = cube;
  std::vector<std::optional<double>> values(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    if (g % 3 != 0) values[g] = 0.25 * static_cast<double>(g % 7);
  }
  copy.SetColumn(1, 2, values.data(), kGroups);
  for (size_t q = 0; q < 3; ++q) {
    for (size_t l = 0; l < 4; ++l) {
      const bool written = q == 1 && l == 2;
      EXPECT_EQ(cube.column(q, l).data() == copy.column(q, l).data(), !written)
          << "column (" << q << ", " << l << ")";
    }
  }
  EXPECT_EQ(FingerprintCube(cube), fingerprint);
  for (size_t g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(BitwiseEqual(copy.Get(g, 1, 2), values[g])) << g;
  }
  // The source, written after the copy, un-shares too.
  const uint64_t copy_fingerprint = FingerprintCube(copy);
  cube.Set(0, 0, 0, 9.0);
  EXPECT_EQ(FingerprintCube(copy), copy_fingerprint);
  EXPECT_NE(cube.column(0, 0).data(), copy.column(0, 0).data());
}

// A column without a slot gets one in the last, partly filled chunk, which
// the copy shares with its source: the chunk is cloned first, so neither
// cube sees the other's new slot.
TEST(PersistentSnapshotTest, NewSlotInASharedPartlyFilledChunk) {
  UnfairnessCube cube = *UnfairnessCube::Make({0, 1, 2}, {0, 1}, {0, 1, 2});
  cube.Set(0, 0, 0, 0.5);
  cube.Set(1, 1, 2, 0.75);
  UnfairnessCube copy = cube;
  cube.Set(1, 1, 0, 0.375);  // a new slot in the source
  copy.Set(2, 0, 1, 0.125);  // and one in the copy
  EXPECT_FALSE(cube.column(0, 1).stored());
  EXPECT_FALSE(copy.column(1, 0).stored());
  EXPECT_EQ(cube.Get(1, 1, 0), std::optional<double>(0.375));
  EXPECT_EQ(copy.Get(2, 0, 1), std::optional<double>(0.125));
  EXPECT_EQ(cube.num_present(), 3u);
  EXPECT_EQ(copy.num_present(), 3u);
  for (const UnfairnessCube* c : {&cube, &copy}) {
    EXPECT_EQ(c->Get(0, 0, 0), std::optional<double>(0.5));
    EXPECT_EQ(c->Get(1, 1, 2), std::optional<double>(0.75));
  }
}

// Concurrent SetColumn on distinct columns of one chunk that a copy shares:
// both threads race to un-share it, and the clone happens once (clean under
// ThreadSanitizer). One of the columns has no slot yet.
TEST(PersistentSnapshotTest, ConcurrentSetColumnInASharedChunk) {
  Rng rng(/*seed=*/17);
  const size_t kGroups = 10;
  UnfairnessCube cube = RandomCube(rng, kGroups, 2, 4, 0.7);
  cube.SetColumn(1, 3, std::vector<std::optional<double>>(kGroups).data(),
                 kGroups);
  const uint64_t fingerprint = FingerprintCube(cube);
  std::vector<std::optional<double>> a(kGroups);
  std::vector<std::optional<double>> b(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    a[g] = 1.0 + static_cast<double>(g);
    if (g % 2 == 0) b[g] = -static_cast<double>(g);
  }
  for (int round = 0; round < 20; ++round) {
    UnfairnessCube copy = cube;
    std::thread first([&] { copy.SetColumn(0, 1, a.data(), kGroups); });
    std::thread second([&] { copy.SetColumn(1, 3, b.data(), kGroups); });
    first.join();
    second.join();
    for (size_t g = 0; g < kGroups; ++g) {
      ASSERT_TRUE(BitwiseEqual(copy.Get(g, 0, 1), a[g]));
      ASSERT_TRUE(BitwiseEqual(copy.Get(g, 1, 3), b[g]));
    }
    ASSERT_EQ(FingerprintCube(cube), fingerprint);
  }
}

// Two edge cases of the upsert path against a cold rebuild, bit for bit:
// an upsert that empties a stored column, and one that fills a column that
// never had a slot (a new slot in the served cube's partly filled chunk).
TEST(MarketplaceMaintainerTest, EmptiedAndNewColumnsMatchColdRebuild) {
  GroupSpace space = *GroupSpace::Enumerate(TwoAttributeSchema());
  MarketplaceDataset data = MakeMarketplace(/*seed=*/11);
  std::optional<CubeColumnRef> stored;
  std::optional<CubeColumnRef> unobserved;
  for (size_t q = 0; q < kQueries; ++q) {
    for (size_t l = 0; l < kLocations; ++l) {
      const bool observed = data.GetRanking(static_cast<QueryId>(q),
                                            static_cast<LocationId>(l)) !=
                            nullptr;
      if (observed && !stored.has_value()) stored = CubeColumnRef{q, l};
      if (!observed && !unobserved.has_value()) {
        unobserved = CubeColumnRef{q, l};
      }
    }
  }
  ASSERT_TRUE(stored.has_value());
  ASSERT_TRUE(unobserved.has_value());
  Result<MarketplaceCubeMaintainer> made = MarketplaceCubeMaintainer::Make(
      std::move(data), space, MarketMeasure::kExposure);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MarketplaceCubeMaintainer maintainer = std::move(*made);
  ASSERT_TRUE(maintainer.snapshot()
                  ->cube()
                  .column(stored->query_pos, stored->location_pos)
                  .stored());
  ASSERT_FALSE(maintainer.snapshot()
                   ->cube()
                   .column(unobserved->query_pos, unobserved->location_pos)
                   .stored());

  Rng rng(/*seed=*/3);
  const CrawlBatchRow rows[] = {
      {static_cast<QueryId>(stored->query_pos),
       static_cast<LocationId>(stored->location_pos), MarketRanking{}},
      {static_cast<QueryId>(unobserved->query_pos),
       static_cast<LocationId>(unobserved->location_pos),
       RandomRanking(rng, /*with_scores=*/true)},
  };
  const char* contexts[] = {"emptied column", "new column"};
  for (size_t i = 0; i < 2; ++i) {
    const std::shared_ptr<const CubeSnapshot> before = maintainer.snapshot();
    const uint64_t fingerprint = FingerprintCube(before->cube());
    CrawlBatch batch;
    batch.rows.push_back(rows[i]);
    Result<UpsertReport> report = maintainer.UpsertCrawlBatch(batch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->published_new_snapshot) << contexts[i];

    Result<UnfairnessCube> expected = BuildMarketplaceCube(
        maintainer.data(), space, MarketMeasure::kExposure);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ExpectCubesBitwiseEqual(maintainer.snapshot()->cube(), *expected,
                            contexts[i]);
    ExpectIndicesMatchCube(maintainer.snapshot()->indices(), *expected,
                           contexts[i]);
    EXPECT_EQ(FingerprintCube(before->cube()), fingerprint) << contexts[i];
  }
  EXPECT_FALSE(maintainer.snapshot()
                   ->cube()
                   .Get(0, stored->query_pos, stored->location_pos)
                   .has_value());
}

// A derived snapshot updates its epoch sums from the changed columns only;
// every digest must equal the one a from-scratch pass over the same cube
// computes. Only epochs change here, so both snapshots share a lineage.
TEST(PersistentSnapshotTest, DerivedEpochDigestsMatchAFromScratchSnapshot) {
  Rng rng(/*seed=*/29);
  const size_t sizes[3] = {4, 7, 5};
  std::shared_ptr<const CubeSnapshot> current =
      CubeSnapshot::Make(RandomCube(rng, sizes[0], sizes[1], sizes[2], 0.6));
  for (size_t round = 0; round < 10; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    UnfairnessCube cube = current->cube();
    std::vector<CubeColumnRef> changed;
    for (size_t c = 0; c < 1 + rng.NextBelow(4); ++c) {
      const CubeColumnRef column{rng.NextBelow(sizes[1]),
                                 rng.NextBelow(sizes[2])};
      cube.BumpColumnEpoch(column.query_pos, column.location_pos);
      changed.push_back(column);
      if (rng.NextBernoulli(0.3)) changed.push_back(column);  // listed twice
    }
    std::shared_ptr<const CubeSnapshot> derived = CubeSnapshot::MakeDerived(
        *current, cube, current->indices(), changed);
    std::shared_ptr<const CubeSnapshot> scratch = CubeSnapshot::Make(cube);
    ASSERT_EQ(derived->lineage(), scratch->lineage());
    EXPECT_EQ(derived->version(), current->version() + 1);
    EXPECT_EQ(derived->full_epoch_digest(), scratch->full_epoch_digest());
    for (Dimension target : kTargets) {
      Dimension d1;
      Dimension d2;
      QuantificationOtherDims(target, &d1, &d2);
      const size_t n1 = sizes[static_cast<size_t>(d1)];
      const size_t n2 = sizes[static_cast<size_t>(d2)];
      const std::vector<size_t> full;
      const std::vector<size_t> window1 = {n1 - 1, 0, 0};
      const std::vector<size_t> window2 = {1, n2 - 1};
      for (const std::vector<size_t>* agg1 : {&full, &window1}) {
        for (const std::vector<size_t>* agg2 : {&full, &window2}) {
          EXPECT_EQ(derived->EpochDigest(target, *agg1, *agg2),
                    scratch->EpochDigest(target, *agg1, *agg2))
              << DimensionName(target) << " window1 " << (agg1 == &window1)
              << " window2 " << (agg2 == &window2);
        }
      }
    }
    current = derived;
  }
}

}  // namespace
}  // namespace fairjob
