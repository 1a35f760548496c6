// Differential suite for the batched marketplace engine
// (core/marketplace_batch.h): MarketplaceCellBatch must be *bitwise*
// identical to both the cell-shared MarketplaceCellContext and the
// per-triple MarketplaceUnfairness reference — values, missing-cell
// pattern and exact NotFound messages — across both measures, every
// option variant, and the SIMD/scalar kernel split. Own binary so the
// sanitizer matrix can run it directly (the hoisted membership table and
// the bitmap kernels must be ASan/TSan-clean).

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/group_space.h"
#include "core/marketplace_batch.h"
#include "core/unfairness_cube.h"
#include "core/unfairness_measures.h"
#include "ranking/simd.h"
#include "serve/incremental.h"

namespace fairjob {
namespace {

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Asserts bitwise equality — EXPECT_DOUBLE_EQ allows 4 ulps, which would
// hide the exact-replication property the engine promises. Error paths
// must agree on the exact message (callers pattern-match NotFound).
void ExpectBitwise(const Result<double>& got, const Result<double>& ref,
                   const std::string& what) {
  ASSERT_EQ(got.ok(), ref.ok())
      << what << ": "
      << (got.ok() ? "batch ok" : got.status().message()) << " vs "
      << (ref.ok() ? "ref ok" : ref.status().message());
  if (ref.ok()) {
    EXPECT_EQ(BitsOf(*got), BitsOf(*ref))
        << what << ": batch=" << *got << " ref=" << *ref;
  } else {
    EXPECT_EQ(got.status().message(), ref.status().message()) << what;
  }
}

// A random marketplace: enough workers that bitmap rows have off-word
// tails (70 and 130 are not multiples of 64), enough holes that missing
// groups and unobserved cells actually occur.
struct RandomMarket {
  std::unique_ptr<MarketplaceDataset> data;
  std::unique_ptr<GroupSpace> space;
  std::vector<QueryId> queries;
  std::vector<LocationId> locations;
};

RandomMarket MakeRandomMarket(Rng& rng, size_t num_workers,
                              size_t num_queries, size_t num_locations) {
  AttributeSchema schema;
  EXPECT_TRUE(
      schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  EXPECT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());

  RandomMarket m;
  m.data = std::make_unique<MarketplaceDataset>(schema);
  m.space = std::make_unique<GroupSpace>(
      *GroupSpace::Enumerate(m.data->schema()));

  for (size_t w = 0; w < num_workers; ++w) {
    // Skew the draw so some intersectional groups end up rare or absent
    // from individual rankings (the missing-cell cases under test).
    ValueId ethnicity = static_cast<ValueId>(rng.NextBelow(3));
    ValueId gender = rng.NextBernoulli(0.7) ? 0 : 1;
    EXPECT_TRUE(m.data
                    ->AddWorker("w" + std::to_string(w),
                                {ethnicity, gender})
                    .ok());
  }
  for (size_t q = 0; q < num_queries; ++q) {
    m.queries.push_back(m.data->queries().GetOrAdd("q" + std::to_string(q)));
  }
  for (size_t l = 0; l < num_locations; ++l) {
    m.locations.push_back(
        m.data->locations().GetOrAdd("l" + std::to_string(l)));
  }
  for (QueryId q : m.queries) {
    for (LocationId l : m.locations) {
      if (rng.NextBernoulli(0.2)) continue;  // unobserved cell
      MarketRanking ranking;
      std::vector<WorkerId> pool(num_workers);
      for (size_t w = 0; w < num_workers; ++w) {
        pool[w] = static_cast<WorkerId>(w);
      }
      rng.Shuffle(pool);
      size_t len = 1 + rng.NextBelow(static_cast<uint32_t>(num_workers));
      ranking.workers.assign(pool.begin(), pool.begin() + len);
      if (rng.NextBernoulli(0.5)) {
        // Half the rankings carry site scores, half fall back to the
        // rank-derived relevance — both value paths feed the batch.
        for (size_t i = 0; i < len; ++i) {
          ranking.scores.push_back(rng.NextDouble());
        }
      }
      EXPECT_TRUE(m.data->SetRanking(q, l, std::move(ranking)).ok());
    }
  }
  return m;
}

std::vector<MeasureOptions> OptionVariants() {
  std::vector<MeasureOptions> variants;
  variants.push_back({});  // log-inverse exposure, 10 bins, scores used
  MeasureOptions power;
  power.exposure_model = ExposureModel::kPowerLaw;
  power.exposure_gamma = 1.7;
  variants.push_back(power);
  MeasureOptions coarse;
  coarse.histogram_bins = 7;
  coarse.use_scores_if_available = false;
  variants.push_back(coarse);
  MeasureOptions degenerate;
  degenerate.histogram_bins = 1;  // EMD over one bin is identically zero
  variants.push_back(degenerate);
  return variants;
}

// The tentpole contract: batch ≡ context ≡ per-triple reference, bit for
// bit, across measures × option variants × random cells — including which
// cells are missing and with which message.
TEST(MarketplaceBatchTest, MatchesContextAndReferenceBitwise) {
  Rng rng(20200330);
  RandomMarket m = MakeRandomMarket(rng, 70, 6, 4);
  MarketplaceGroupMembership membership(*m.data, *m.space);

  for (MarketMeasure measure : {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    for (const MeasureOptions& options : OptionVariants()) {
      for (QueryId q : m.queries) {
        for (LocationId l : m.locations) {
          const MarketRanking* ranking = m.data->GetRanking(q, l);
          Result<MarketplaceCellBatch> batch = MarketplaceCellBatch::Make(
              *m.space, membership, ranking, measure, options);
          Result<MarketplaceCellContext> context =
              MarketplaceCellContext::Make(*m.data, *m.space, ranking, options);
          ASSERT_EQ(batch.ok(), context.ok());
          if (!batch.ok()) {
            EXPECT_EQ(batch.status().message(), context.status().message());
            continue;
          }
          for (GroupId g = 0;
               g < static_cast<GroupId>(m.space->num_groups()); ++g) {
            std::string what = std::string(MarketMeasureName(measure)) +
                               " q=" + std::to_string(q) +
                               " l=" + std::to_string(l) +
                               " g=" + std::to_string(g);
            Result<double> from_batch = batch->Unfairness(g);
            ExpectBitwise(from_batch, context->Unfairness(g, measure),
                          what + " (vs context)");
            ExpectBitwise(from_batch,
                          MarketplaceUnfairness(*m.data, *m.space, g, q, l,
                                                measure, options),
                          what + " (vs reference)");
            EXPECT_EQ(batch->member_count(g), context->positions(g).size())
                << what;
          }
        }
      }
    }
  }
}

TEST(MarketplaceBatchTest, NullAndEmptyRankingsAreWholeColumnNotFound) {
  Rng rng(11);
  RandomMarket m = MakeRandomMarket(rng, 10, 1, 1);
  MarketplaceGroupMembership membership(*m.data, *m.space);

  Result<MarketplaceCellBatch> null_batch = MarketplaceCellBatch::Make(
      *m.space, membership, nullptr, MarketMeasure::kEmd, {});
  ASSERT_FALSE(null_batch.ok());
  EXPECT_EQ(null_batch.status().message(),
            "no ranking observed for this (query, location)");

  MarketRanking empty;
  Result<MarketplaceCellBatch> empty_batch = MarketplaceCellBatch::Make(
      *m.space, membership, &empty, MarketMeasure::kExposure, {});
  ASSERT_FALSE(empty_batch.ok());
  EXPECT_EQ(empty_batch.status().message(),
            "no ranking observed for this (query, location)");

  // Malformed options are rejected before the ranking is even looked at —
  // the same precedence the reference and the context apply.
  MeasureOptions bad;
  bad.histogram_bins = 0;
  Result<MarketplaceCellBatch> bad_options = MarketplaceCellBatch::Make(
      *m.space, membership, nullptr, MarketMeasure::kEmd, bad);
  ASSERT_FALSE(bad_options.ok());
  Result<MarketplaceCellContext> context_bad =
      MarketplaceCellContext::Make(*m.data, *m.space, nullptr, bad);
  ASSERT_FALSE(context_bad.ok());
  EXPECT_EQ(bad_options.status().message(), context_bad.status().message());
}

TEST(MarketplaceBatchTest, StaleMembershipTableIsRejected) {
  Rng rng(12);
  RandomMarket m = MakeRandomMarket(rng, 20, 1, 1);
  MarketplaceGroupMembership membership(*m.data, *m.space);

  // Add a worker AFTER the table was built and rank them: the probe arena
  // must refuse rather than read past the bitmap rows.
  Result<WorkerId> added = m.data->AddWorker("late", {0, 0});
  ASSERT_TRUE(added.ok());
  MarketRanking ranking;
  ranking.workers = {*added};
  Result<MarketplaceCellBatch> stale = MarketplaceCellBatch::Make(
      *m.space, membership, &ranking, MarketMeasure::kEmd, {});
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().message().find("membership table does not cover"),
            std::string::npos)
      << stale.status().message();

  // After Update the same ranking evaluates; the updated table is exactly
  // the table a fresh build over the grown dataset produces.
  membership.Update(*m.data, *m.space);
  EXPECT_TRUE(MarketplaceCellBatch::Make(*m.space, membership, &ranking,
                                         MarketMeasure::kEmd, {})
                  .ok());
  EXPECT_EQ(membership, MarketplaceGroupMembership(*m.data, *m.space));
}

// Update must be equivalent to a fresh build across re-striding boundaries:
// growing 70 → 130 workers crosses the 64-bit word boundary, so rows gain a
// word and every existing bit must be carried into the wider layout.
TEST(MarketplaceBatchTest, IncrementalMembershipUpdateMatchesFreshBuild) {
  Rng rng(13);
  RandomMarket m = MakeRandomMarket(rng, 70, 1, 1);
  MarketplaceGroupMembership incremental(*m.data, *m.space);

  for (size_t w = 70; w < 130; ++w) {
    ValueId ethnicity = static_cast<ValueId>(rng.NextBelow(3));
    ValueId gender = static_cast<ValueId>(rng.NextBelow(2));
    ASSERT_TRUE(m.data
                    ->AddWorker("late" + std::to_string(w),
                                {ethnicity, gender})
                    .ok());
    if (w % 17 == 0) incremental.Update(*m.data, *m.space);  // mid-way updates
  }
  incremental.Update(*m.data, *m.space);

  MarketplaceGroupMembership fresh(*m.data, *m.space);
  EXPECT_EQ(incremental, fresh);
  EXPECT_EQ(incremental.num_workers(), 130u);
  EXPECT_EQ(incremental.words_per_group(), 3u);

  // Bit semantics: Matches agrees with direct label matching per worker.
  for (GroupId g = 0; g < static_cast<GroupId>(m.space->num_groups()); ++g) {
    for (WorkerId w = 0; w < 130; ++w) {
      EXPECT_EQ(incremental.Matches(g, w),
                m.space->label(g).Matches(m.data->worker_demographics(w)))
          << "g=" << g << " w=" << w;
    }
  }

  // Update with an unchanged worker count is a no-op.
  incremental.Update(*m.data, *m.space);
  EXPECT_EQ(incremental, fresh);
}

// Brute-force check of the table: every (group, worker) bit equals direct
// label matching on the worker's demographics.
void ExpectMatchesLabels(const MarketplaceGroupMembership& membership,
                         const MarketplaceDataset& data,
                         const GroupSpace& space) {
  ASSERT_EQ(membership.num_workers(), data.num_workers());
  for (size_t g = 0; g < space.num_groups(); ++g) {
    const GroupLabel& label = space.label(static_cast<GroupId>(g));
    for (size_t w = 0; w < data.num_workers(); ++w) {
      WorkerId worker = static_cast<WorkerId>(w);
      ASSERT_EQ(membership.Matches(static_cast<GroupId>(g), worker),
                label.Matches(data.worker_demographics(worker)))
          << "g=" << g << " w=" << w;
    }
  }
}

// Large enough (40000 workers = 625 words) for the fill to span several
// 256-word pool tasks, over three attributes so profiles and groups are
// many-to-many.
TEST(MarketplaceBatchTest, ProfileLabelingMatchesPerWorkerLabels) {
  AttributeSchema schema;
  ASSERT_TRUE(
      schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  ASSERT_TRUE(
      schema.AddAttribute("age", {"18-25", "26-40", "41-60", "60+"}).ok());
  MarketplaceDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  Rng rng(314);
  auto add_workers = [&](size_t count) {
    size_t first = data.num_workers();
    for (size_t w = first; w < first + count; ++w) {
      Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                        rng.NextBernoulli(0.7) ? ValueId{0} : ValueId{1},
                        static_cast<ValueId>(rng.NextBelow(4))};
      ASSERT_TRUE(data.AddWorker("w" + std::to_string(w), d).ok());
    }
  };

  // Start mid-word just below the first task boundary (16347 = 255 · 64 +
  // 27), so the first Update extends a partial word and its fill crosses
  // the 256-word boundary.
  add_workers(16347);
  MarketplaceGroupMembership incremental(data, space);
  ExpectMatchesLabels(incremental, data, space);

  add_workers(39990 - 16347);  // re-strides the rows
  incremental.Update(data, space);
  EXPECT_EQ(incremental, MarketplaceGroupMembership(data, space));
  add_workers(10);  // 39990 → 40000 fills the last partial word in place
  incremental.Update(data, space);

  MarketplaceGroupMembership fresh(data, space);
  EXPECT_EQ(fresh.words_per_group(), 625u);
  ExpectMatchesLabels(fresh, data, space);
  EXPECT_EQ(incremental, fresh);
}

// The maintainer's upsert path runs on the batched engine with its
// persistent membership table; the differential contract (upsert ≡ cold
// rebuild, bitwise) must survive the engine swap.
TEST(MarketplaceBatchTest, MaintainerUpsertMatchesColdRebuildBitwise) {
  Rng rng(20200414);
  RandomMarket m = MakeRandomMarket(rng, 40, 4, 3);

  for (MarketMeasure measure : {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    Result<MarketplaceCubeMaintainer> maintainer =
        MarketplaceCubeMaintainer::Make(*m.data, *m.space, measure, {}, {},
                                        /*parallelism=*/2);
    ASSERT_TRUE(maintainer.ok()) << maintainer.status().message();

    CrawlBatch batch;
    for (int row = 0; row < 5; ++row) {
      MarketRanking ranking;
      std::vector<WorkerId> pool(40);
      for (size_t w = 0; w < 40; ++w) pool[w] = static_cast<WorkerId>(w);
      rng.Shuffle(pool);
      size_t len = 1 + rng.NextBelow(40);
      ranking.workers.assign(pool.begin(), pool.begin() + len);
      for (size_t i = 0; i < len; ++i) {
        ranking.scores.push_back(rng.NextDouble());
      }
      batch.rows.push_back(CrawlBatchRow{
          m.queries[rng.NextBelow(static_cast<uint32_t>(m.queries.size()))],
          m.locations[rng.NextBelow(
              static_cast<uint32_t>(m.locations.size()))],
          std::move(ranking)});
    }
    Result<UpsertReport> report = maintainer->UpsertCrawlBatch(batch);
    ASSERT_TRUE(report.ok()) << report.status().message();

    Result<UnfairnessCube> cold = BuildMarketplaceCube(
        maintainer->data(), *m.space, measure, {}, {}, /*parallelism=*/2);
    ASSERT_TRUE(cold.ok()) << cold.status().message();

    const UnfairnessCube& served = maintainer->snapshot()->cube();
    ASSERT_EQ(served.num_cells(), cold->num_cells());
    for (size_t g = 0; g < served.axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < served.axis_size(Dimension::kQuery); ++q) {
        for (size_t l = 0; l < served.axis_size(Dimension::kLocation); ++l) {
          std::optional<double> a = served.Get(g, q, l);
          std::optional<double> b = cold->Get(g, q, l);
          ASSERT_EQ(a.has_value(), b.has_value())
              << "g=" << g << " q=" << q << " l=" << l;
          if (a.has_value()) {
            EXPECT_EQ(BitsOf(*a), BitsOf(*b))
                << "g=" << g << " q=" << q << " l=" << l;
          }
        }
      }
    }
  }
}

// The integer bitmap kernels are dispatch-agnostic by construction; assert
// it on off-width tails (word counts straddling the AVX2 4-word stride),
// all-zero blocks (the AVX2 skip path) and dense words.
TEST(MarketplaceBatchTest, BitmapKernelsMatchScalarBitwise) {
  Rng rng(14);
  const size_t kNumBins = 13;
  for (size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                       size_t{7}, size_t{8}, size_t{9}, size_t{12}}) {
    for (int density = 0; density < 4; ++density) {
      std::vector<uint64_t> bits(words, 0);
      for (size_t w = 0; w < words; ++w) {
        switch (density) {
          case 0:
            break;  // all zero — the testz fast path
          case 1:
            bits[w] = ~uint64_t{0};
            break;
          case 2:
            bits[w] = (static_cast<uint64_t>(rng.NextU32()) << 32) |
                      rng.NextU32();
            break;
          case 3:
            bits[w] = w % 2 == 0 ? 0 : uint64_t{1} << (w % 64);
            break;
        }
      }
      std::vector<int32_t> bins(words * 64);
      for (int32_t& b : bins) {
        b = static_cast<int32_t>(rng.NextBelow(kNumBins));
      }

      std::vector<int32_t> scalar_pos(words * 64);
      size_t scalar_count = simd::CompressPositionsScalar(
          bits.data(), words, scalar_pos.data());
      std::vector<int32_t> dispatched_pos(words * 64);
      size_t dispatched_count = simd::CompressPositions(bits.data(), words,
                                                        dispatched_pos.data());
      ASSERT_EQ(scalar_count, dispatched_count)
          << "words=" << words << " density=" << density;
      for (size_t i = 0; i < scalar_count; ++i) {
        EXPECT_EQ(scalar_pos[i], dispatched_pos[i]) << "i=" << i;
      }
      // Reference semantics: ascending set-bit positions.
      size_t k = 0;
      for (size_t p = 0; p < words * 64; ++p) {
        if ((bits[p >> 6] >> (p & 63)) & 1) {
          ASSERT_LT(k, scalar_count);
          EXPECT_EQ(scalar_pos[k++], static_cast<int32_t>(p));
        }
      }
      EXPECT_EQ(k, scalar_count);

      std::vector<uint32_t> scalar_counts(kNumBins, 0);
      simd::MaskedBinCountScalar(bits.data(), words, bins.data(),
                                 scalar_counts.data());
      std::vector<uint32_t> dispatched_counts(kNumBins, 0);
      simd::MaskedBinCount(bits.data(), words, bins.data(),
                           dispatched_counts.data());
      EXPECT_EQ(scalar_counts, dispatched_counts)
          << "words=" << words << " density=" << density;
    }
  }
}

// Whole-engine dispatch invariance: a cube built with kernels forced to
// scalar is bitwise identical to the default-dispatch build. (On AVX2
// hosts this pins the vector paths to the scalar semantics; elsewhere it
// degenerates to self-comparison, which is still a valid regression net.)
TEST(MarketplaceBatchTest, ForcedScalarEngineMatchesDispatchedBitwise) {
  Rng rng(15);
  RandomMarket m = MakeRandomMarket(rng, 70, 4, 3);

  for (MarketMeasure measure : {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    Result<UnfairnessCube> dispatched =
        BuildMarketplaceCube(*m.data, *m.space, measure);
    ASSERT_TRUE(dispatched.ok()) << dispatched.status().message();

    Result<UnfairnessCube> scalar = [&] {
      simd::ScopedScalarKernels force_scalar;
      return BuildMarketplaceCube(*m.data, *m.space, measure);
    }();
    ASSERT_TRUE(scalar.ok()) << scalar.status().message();

    for (size_t g = 0; g < dispatched->axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < dispatched->axis_size(Dimension::kQuery); ++q) {
        for (size_t l = 0; l < dispatched->axis_size(Dimension::kLocation);
             ++l) {
          std::optional<double> a = dispatched->Get(g, q, l);
          std::optional<double> b = scalar->Get(g, q, l);
          ASSERT_EQ(a.has_value(), b.has_value())
              << "g=" << g << " q=" << q << " l=" << l;
          if (a.has_value()) {
            EXPECT_EQ(BitsOf(*a), BitsOf(*b))
                << "g=" << g << " q=" << q << " l=" << l;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fairjob
