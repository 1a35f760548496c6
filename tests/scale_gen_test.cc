// The scale generator's whole value is determinism: one seed must reproduce
// the exact population, rankings, observations and request stream on every
// machine, or bench_scale runs stop being comparable across commits.

#include "market/scale_gen.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/group_space.h"
#include "serve/cache_key.h"
#include "serve/cube_snapshot.h"

namespace fairjob {
namespace {

ScaleSpec SmallSpec() {
  ScaleSpec spec;
  spec.seed = 42;
  spec.num_workers = 500;
  spec.num_queries = 40;
  spec.num_locations = 6;
  spec.num_ranked_columns = 60;
  spec.min_ranking_length = 5;
  spec.max_ranking_length = 25;
  return spec;
}

TEST(ScaleGenTest, SchemaEnumeratesProductionShapedGroupAxis) {
  Result<AttributeSchema> schema = MakeScaleSchema();
  ASSERT_TRUE(schema.ok());
  GroupSpace space = *GroupSpace::Enumerate(*schema);
  // ethnicity{5} x gender{3} x age{4}: (5+1)(3+1)(4+1) - 1 partial
  // assignments.
  EXPECT_EQ(space.num_groups(), 119u);
}

TEST(ScaleGenTest, MarketplaceGenerationIsDeterministic) {
  ScaleSpec spec = SmallSpec();
  MarketplaceDataset a = *GenerateScaleMarketplace(spec);
  MarketplaceDataset b = *GenerateScaleMarketplace(spec);
  ASSERT_EQ(a.num_workers(), spec.num_workers);
  ASSERT_EQ(a.num_workers(), b.num_workers());
  ASSERT_EQ(a.num_rankings(), spec.num_ranked_columns);
  ASSERT_EQ(a.num_rankings(), b.num_rankings());
  for (WorkerId w = 0; w < static_cast<WorkerId>(a.num_workers()); ++w) {
    EXPECT_EQ(a.worker_demographics(w), b.worker_demographics(w))
        << "worker " << w;
  }
  for (QueryId q = 0; q < static_cast<QueryId>(spec.num_queries); ++q) {
    for (LocationId l = 0; l < static_cast<LocationId>(spec.num_locations);
         ++l) {
      const MarketRanking* ra = a.GetRanking(q, l);
      const MarketRanking* rb = b.GetRanking(q, l);
      ASSERT_EQ(ra == nullptr, rb == nullptr) << q << "," << l;
      if (ra != nullptr) {
        EXPECT_EQ(ra->workers, rb->workers) << q << "," << l;
        EXPECT_EQ(ra->scores, rb->scores) << q << "," << l;
      }
    }
  }
}

TEST(ScaleGenTest, DifferentSeedsProduceDifferentMarkets) {
  ScaleSpec spec = SmallSpec();
  MarketplaceDataset a = *GenerateScaleMarketplace(spec);
  spec.seed = 43;
  MarketplaceDataset b = *GenerateScaleMarketplace(spec);
  bool any_difference = false;
  for (WorkerId w = 0; w < static_cast<WorkerId>(a.num_workers()); ++w) {
    if (a.worker_demographics(w) != b.worker_demographics(w)) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScaleGenTest, RankingsRespectSpecBounds) {
  ScaleSpec spec = SmallSpec();
  MarketplaceDataset data = *GenerateScaleMarketplace(spec);
  size_t found = 0;
  for (QueryId q = 0; q < static_cast<QueryId>(spec.num_queries); ++q) {
    for (LocationId l = 0; l < static_cast<LocationId>(spec.num_locations);
         ++l) {
      const MarketRanking* r = data.GetRanking(q, l);
      if (r == nullptr) continue;
      ++found;
      EXPECT_GE(r->workers.size(), spec.min_ranking_length);
      EXPECT_LE(r->workers.size(), spec.max_ranking_length);
      ASSERT_EQ(r->workers.size(), r->scores.size());
      std::set<WorkerId> seen(r->workers.begin(), r->workers.end());
      EXPECT_EQ(seen.size(), r->workers.size()) << "duplicate worker";
      for (size_t i = 1; i < r->scores.size(); ++i) {
        EXPECT_LT(r->scores[i], r->scores[i - 1]) << "scores not descending";
      }
    }
  }
  EXPECT_EQ(found, spec.num_ranked_columns);
}

TEST(ScaleGenTest, QueryTrafficIsZipfSkewed) {
  ScaleSpec spec = SmallSpec();
  spec.num_ranked_columns = 120;
  MarketplaceDataset data = *GenerateScaleMarketplace(spec);
  std::map<QueryId, size_t> columns_per_query;
  for (QueryId q = 0; q < static_cast<QueryId>(spec.num_queries); ++q) {
    for (LocationId l = 0; l < static_cast<LocationId>(spec.num_locations);
         ++l) {
      if (data.GetRanking(q, l) != nullptr) ++columns_per_query[q];
    }
  }
  // Head queries (rank 0-3) must be observed at more locations than tail
  // queries (the last dozen) — the Zipf draw concentrates columns early.
  size_t head = 0, tail = 0;
  for (QueryId q = 0; q < 4; ++q) head += columns_per_query[q];
  for (QueryId q = static_cast<QueryId>(spec.num_queries) - 12;
       q < static_cast<QueryId>(spec.num_queries); ++q) {
    tail += columns_per_query[q];
  }
  EXPECT_GT(head, tail);
}

TEST(ScaleGenTest, RejectsUnsatisfiableSpecs) {
  ScaleSpec spec = SmallSpec();
  spec.num_workers = 0;
  EXPECT_FALSE(GenerateScaleMarketplace(spec).ok());
  spec = SmallSpec();
  spec.min_ranking_length = 30;
  spec.max_ranking_length = 10;
  EXPECT_FALSE(GenerateScaleMarketplace(spec).ok());
  spec = SmallSpec();
  spec.max_ranking_length = 1000;
  spec.min_ranking_length = 600;  // longer than the 500-worker population
  EXPECT_FALSE(GenerateScaleMarketplace(spec).ok());
  // Asking for more columns than (query, location) pairs exist clamps to
  // the full grid instead of failing.
  spec = SmallSpec();
  spec.num_ranked_columns = spec.num_queries * spec.num_locations + 1;
  Result<MarketplaceDataset> clamped = GenerateScaleMarketplace(spec);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->num_rankings(), spec.num_queries * spec.num_locations);
}

TEST(ScaleGenTest, SearchGenerationIsDeterministicAndDeduplicable) {
  SearchScaleSpec spec;
  spec.seed = 7;
  spec.num_users = 40;
  spec.num_queries = 6;
  spec.num_locations = 3;
  spec.num_observed_columns = 8;
  spec.observations_per_column = 24;
  spec.document_universe = 256;
  spec.list_length = 32;
  SearchDataset a = *GenerateScaleSearch(spec);
  SearchDataset b = *GenerateScaleSearch(spec);
  size_t observed_columns = 0;
  size_t lists = 0;
  std::set<RankedList> distinct;
  for (QueryId q = 0; q < static_cast<QueryId>(spec.num_queries); ++q) {
    for (LocationId l = 0; l < static_cast<LocationId>(spec.num_locations);
         ++l) {
      const std::vector<SearchObservation>* oa = a.GetObservations(q, l);
      const std::vector<SearchObservation>* ob = b.GetObservations(q, l);
      ASSERT_EQ(oa == nullptr, ob == nullptr);
      if (oa == nullptr) continue;
      ++observed_columns;
      ASSERT_EQ(oa->size(), ob->size());
      ASSERT_EQ(oa->size(), spec.observations_per_column);
      for (size_t i = 0; i < oa->size(); ++i) {
        EXPECT_EQ((*oa)[i].user, (*ob)[i].user);
        EXPECT_EQ((*oa)[i].results, (*ob)[i].results);
        EXPECT_EQ((*oa)[i].results.size(), spec.list_length);
        ++lists;
        distinct.insert((*oa)[i].results);
      }
    }
  }
  EXPECT_EQ(observed_columns, spec.num_observed_columns);
  // shared_list_fraction makes many users see a canonical variant verbatim,
  // so the distinct-list count must sit meaningfully below the list count
  // (this is what exercises the list-batch arena's deduplication at scale):
  // ~half the lists collapse onto num_shared_variants canonicals per column.
  EXPECT_LT(distinct.size() + lists / 5, lists);
  EXPECT_GT(distinct.size(), spec.num_shared_variants);
}

TEST(ScaleGenTest, ServeRequestsAreDeterministicBoundedAndSkewed) {
  ServeLoadSpec spec;
  spec.seed = 5;
  spec.num_requests = 400;
  spec.distinct_patterns = 16;
  std::vector<QuantificationRequest> a =
      GenerateServeRequests(spec, 119, 40, 6);
  std::vector<QuantificationRequest> b =
      GenerateServeRequests(spec, 119, 40, 6);
  ASSERT_EQ(a.size(), spec.num_requests);
  ASSERT_EQ(b.size(), spec.num_requests);
  // Canonical request keys (against a cube of the generated axis shape)
  // both prove per-index determinism and count pattern repeats.
  std::vector<GroupId> groups(119);
  std::vector<QueryId> queries(40);
  std::vector<LocationId> locations(6);
  for (size_t i = 0; i < groups.size(); ++i) groups[i] = static_cast<int>(i);
  for (size_t i = 0; i < queries.size(); ++i) queries[i] = static_cast<int>(i);
  for (size_t i = 0; i < locations.size(); ++i) {
    locations[i] = static_cast<int>(i);
  }
  std::shared_ptr<const CubeSnapshot> snapshot = CubeSnapshot::Make(
      *UnfairnessCube::Make(groups, queries, locations));
  RequestCacheKeyHash hash;
  std::map<size_t, size_t> pattern_counts;
  for (size_t i = 0; i < a.size(); ++i) {
    RequestCacheKey ka(a[i], *snapshot);
    RequestCacheKey kb(b[i], *snapshot);
    EXPECT_TRUE(ka == kb) << "request " << i;
    EXPECT_GE(a[i].k, 1u);
    ++pattern_counts[hash(ka)];
  }
  // Zipf-weighted pattern draws: few distinct shapes, head repeated often.
  EXPECT_LE(pattern_counts.size(), spec.distinct_patterns);
  size_t max_count = 0;
  for (const auto& [key, count] : pattern_counts) {
    max_count = std::max(max_count, count);
  }
  EXPECT_GT(max_count, spec.num_requests / spec.distinct_patterns);
}

}  // namespace
}  // namespace fairjob
