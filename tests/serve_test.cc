// Differential suite for the query-serving layer: every Fagin-family
// algorithm, answered cache-off, cache-on (miss then hit) and batched, must
// be bit-equal to a direct SolveQuantification against the same cube — and
// must stay correct after a deliberate cube rebuild invalidates the
// fingerprint.

#include "serve/quantification_service.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/quantification.h"
#include "serve/cache_key.h"
#include "serve/cube_snapshot.h"

namespace fairjob {
namespace {

// A cube with distinct pseudo-random values (and a few missing cells) so
// every request has a unique, order-sensitive answer.
std::unique_ptr<UnfairnessCube> MakeCube(uint64_t seed) {
  auto cube = std::make_unique<UnfairnessCube>(*UnfairnessCube::Make(
      {10, 11, 12, 13, 14, 15}, {20, 21, 22, 23}, {30, 31, 32}));
  Rng rng(seed);
  for (size_t g = 0; g < 6; ++g) {
    for (size_t q = 0; q < 4; ++q) {
      for (size_t l = 0; l < 3; ++l) {
        if (rng.NextBelow(10) == 0) continue;  // missing cell
        cube->Set(g, q, l, rng.NextDouble());
      }
    }
  }
  return cube;
}

// Every algorithm × target × direction × k, plus selector variants
// (subsets, duplicates, allowed-target filters). NRA only supports
// most-unfair with zeroed missing cells, so the whole mix uses kZero.
std::vector<QuantificationRequest> RequestSpace() {
  std::vector<QuantificationRequest> space;
  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
        TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
    for (Dimension target :
         {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
      for (RankDirection direction :
           {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
        if (algorithm == TopKAlgorithm::kNRA &&
            direction == RankDirection::kLeastUnfair) {
          continue;
        }
        for (size_t k : {1u, 3u, 100u}) {  // 100 > axis size: full ranking
          QuantificationRequest request;
          request.target = target;
          request.k = k;
          request.direction = direction;
          request.algorithm = algorithm;
          request.missing = MissingCellPolicy::kZero;
          space.push_back(request);

          QuantificationRequest subset = request;
          subset.agg1 = AxisSelector{{1, 0}};     // unsorted on purpose
          subset.agg2 = AxisSelector{{0, 1, 1}};  // duplicate position
          // Target-axis positions (valid on every axis), with a duplicate.
          subset.allowed_targets = {2, 0, 1, 1};
          space.push_back(subset);
        }
      }
    }
  }
  return space;
}

void ExpectBitEqual(const QuantificationResult& served,
                    const QuantificationResult& direct, const char* mode,
                    size_t index) {
  ASSERT_EQ(served.answers.size(), direct.answers.size())
      << mode << " request " << index;
  for (size_t i = 0; i < served.answers.size(); ++i) {
    EXPECT_EQ(served.answers[i].id, direct.answers[i].id)
        << mode << " request " << index << " rank " << i;
    // Bit-equality, not approximate: the service must return the exact
    // doubles SolveQuantification produced.
    EXPECT_EQ(served.answers[i].value, direct.answers[i].value)
        << mode << " request " << index << " rank " << i;
  }
}

class ServeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cube_ = MakeCube(/*seed=*/101);
    indices_ = std::make_unique<IndexSet>(IndexSet::Build(*cube_));
    requests_ = RequestSpace();
  }

  std::unique_ptr<UnfairnessCube> cube_;
  std::unique_ptr<IndexSet> indices_;
  std::vector<QuantificationRequest> requests_;
};

TEST_F(ServeDifferentialTest, CacheOffMatchesDirectForAllAlgorithms) {
  QuantificationService::Options options;
  options.cache_capacity = 0;
  QuantificationService service(CubeSnapshot::Make(*cube_), options);
  for (size_t i = 0; i < requests_.size(); ++i) {
    Result<QuantificationResult> direct =
        SolveQuantification(*cube_, *indices_, requests_[i]);
    Result<QuantificationResult> served = service.Answer(requests_[i]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitEqual(*served, *direct, "cache-off", i);
  }
  EXPECT_EQ(service.stats().computations, requests_.size());
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST_F(ServeDifferentialTest, CachedMissAndHitMatchDirect) {
  QuantificationService service(CubeSnapshot::Make(*cube_));
  for (size_t i = 0; i < requests_.size(); ++i) {
    Result<QuantificationResult> direct =
        SolveQuantification(*cube_, *indices_, requests_[i]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    Result<QuantificationResult> miss = service.Answer(requests_[i]);
    Result<QuantificationResult> hit = service.Answer(requests_[i]);
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ExpectBitEqual(*miss, *direct, "cache-miss", i);
    ExpectBitEqual(*hit, *direct, "cache-hit", i);
  }
  QuantificationService::Stats stats = service.stats();
  EXPECT_GE(stats.cache_hits, requests_.size() / 2);  // every repeat hit
  EXPECT_LT(stats.computations, stats.requests);
}

TEST_F(ServeDifferentialTest, BatchedMatchesDirectIncludingDuplicates) {
  QuantificationService service(CubeSnapshot::Make(*cube_));
  // The batch carries every request twice (adjacent duplicates), so the
  // dedup path is exercised while results must still line up index-by-index.
  std::vector<QuantificationRequest> batch;
  for (const QuantificationRequest& request : requests_) {
    batch.push_back(request);
    batch.push_back(request);
  }
  std::vector<Result<QuantificationResult>> results =
      service.AnswerBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<QuantificationResult> direct =
        SolveQuantification(*cube_, *indices_, batch[i]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ExpectBitEqual(*results[i], *direct, "batched", i);
  }
  // Duplicates computed once each.
  EXPECT_EQ(service.stats().computations, requests_.size());
}

TEST_F(ServeDifferentialTest, RebuildInvalidatesFingerprintAndStaysCorrect) {
  QuantificationService service(CubeSnapshot::Make(*cube_));
  uint64_t fingerprint_before = service.cube_fingerprint();
  for (const QuantificationRequest& request : requests_) {
    ASSERT_TRUE(service.Answer(request).ok());  // warm the cache
  }

  // Deliberate rebuild with different contents: every cached entry must
  // stop matching, and answers must track the new cube.
  std::unique_ptr<UnfairnessCube> rebuilt = MakeCube(/*seed=*/202);
  std::unique_ptr<IndexSet> rebuilt_indices =
      std::make_unique<IndexSet>(IndexSet::Build(*rebuilt));
  service.SetSnapshot(CubeSnapshot::Make(*rebuilt));
  EXPECT_NE(service.cube_fingerprint(), fingerprint_before);

  uint64_t computations_before = service.stats().computations;
  for (size_t i = 0; i < requests_.size(); ++i) {
    Result<QuantificationResult> direct =
        SolveQuantification(*rebuilt, *rebuilt_indices, requests_[i]);
    Result<QuantificationResult> served = service.Answer(requests_[i]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitEqual(*served, *direct, "post-rebuild", i);
  }
  // None of the old entries may have been served.
  EXPECT_EQ(service.stats().computations,
            computations_before + requests_.size());

  // An identical rebuild, though, hashes the same: the cache stays warm.
  service.SetSnapshot(CubeSnapshot::Make(*MakeCube(/*seed=*/202)));
  uint64_t computations_after = service.stats().computations;
  for (const QuantificationRequest& request : requests_) {
    ASSERT_TRUE(service.Answer(request).ok());
  }
  EXPECT_EQ(service.stats().computations, computations_after);
}

// Two services may serve one snapshot, as fairjob_cli serve-bench's cold
// and hot services do. Both answer bitwise like the solver over the
// snapshot's own cube and indices, and the snapshot keeps serving once the
// first service and every other reference to it are gone.
TEST_F(ServeDifferentialTest, ServicesShareOneSnapshot) {
  std::shared_ptr<const CubeSnapshot> snapshot = CubeSnapshot::Make(*cube_);
  auto first = std::make_unique<QuantificationService>(snapshot);
  QuantificationService::Options options;
  options.cache_capacity = 0;  // every answer below reads the snapshot
  QuantificationService second(snapshot, options);
  EXPECT_EQ(first->snapshot().get(), second.snapshot().get());

  std::vector<QuantificationResult> direct;
  for (size_t i = 0; i < requests_.size(); ++i) {
    Result<QuantificationResult> solved = SolveQuantification(
        snapshot->cube(), snapshot->indices(), requests_[i]);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    Result<QuantificationResult> from_first = first->Answer(requests_[i]);
    Result<QuantificationResult> from_second = second.Answer(requests_[i]);
    ASSERT_TRUE(from_first.ok()) << from_first.status().ToString();
    ASSERT_TRUE(from_second.ok()) << from_second.status().ToString();
    ExpectBitEqual(*from_first, *solved, "first service", i);
    ExpectBitEqual(*from_second, *solved, "second service", i);
    direct.push_back(*std::move(solved));
  }

  first.reset();
  snapshot.reset();  // `second` now holds the only reference
  for (size_t i = 0; i < requests_.size(); ++i) {
    Result<QuantificationResult> served = second.Answer(requests_[i]);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectBitEqual(*served, direct[i], "after first destroyed", i);
  }
  EXPECT_EQ(second.stats().computations, 2 * requests_.size());
}

TEST_F(ServeDifferentialTest, EquivalentSpellingsShareOneCacheEntry) {
  QuantificationService service(CubeSnapshot::Make(*cube_));

  QuantificationRequest plain;
  plain.target = Dimension::kGroup;
  plain.k = 3;
  plain.missing = MissingCellPolicy::kZero;

  // Same request, spelled differently: permuted selector order, an explicit
  // full-axis list, and a full-axis allowed filter all normalize away.
  QuantificationRequest spelled = plain;
  spelled.agg1 = AxisSelector{{3, 1, 0, 2}};  // all 4 query positions
  spelled.agg2 = AxisSelector{{2, 0, 1}};     // all 3 location positions
  spelled.allowed_targets = {5, 0, 1, 2, 3, 4, 0};  // whole axis + dup

  ASSERT_TRUE(service.Answer(plain).ok());
  ASSERT_TRUE(service.Answer(spelled).ok());
  EXPECT_EQ(service.stats().computations, 1u);
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // A duplicated selector position weighs that list twice in the average —
  // it must NOT share a cache entry with the deduplicated spelling (and the
  // answers genuinely differ).
  QuantificationRequest doubled = plain;
  doubled.agg1 = AxisSelector{{0, 0, 1}};
  QuantificationRequest single = plain;
  single.agg1 = AxisSelector{{0, 1}};
  Result<QuantificationResult> doubled_answer = service.Answer(doubled);
  Result<QuantificationResult> single_answer = service.Answer(single);
  ASSERT_TRUE(doubled_answer.ok());
  ASSERT_TRUE(single_answer.ok());
  EXPECT_EQ(service.stats().computations, 3u);
  EXPECT_NE(doubled_answer->answers[0].value, single_answer->answers[0].value);
}

TEST_F(ServeDifferentialTest, ErrorsPropagateAndAreNotCached) {
  QuantificationService service(CubeSnapshot::Make(*cube_));
  QuantificationRequest bad;
  bad.k = 0;  // SolveQuantification rejects k = 0
  Status direct = SolveQuantification(*cube_, *indices_, bad).status();
  ASSERT_FALSE(direct.ok());
  EXPECT_FALSE(service.Answer(bad).ok());
  EXPECT_FALSE(service.Answer(bad).ok());
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.computations, 2u);  // failures are never cached
  EXPECT_EQ(stats.cache_hits, 0u);

  // Selector positions past the cube's axes fail the same way; keying them
  // (all × window, window × all, window × window) reads no epoch out of
  // bounds.
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    QuantificationRequest out_of_range;
    out_of_range.target = target;
    out_of_range.agg2 = AxisSelector{{0, 99}};
    EXPECT_EQ(service.Answer(out_of_range).status().code(),
              StatusCode::kInvalidArgument);
    out_of_range.agg1 = AxisSelector{{99}};
    EXPECT_EQ(service.Answer(out_of_range).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(RequestCacheKeyTest, AlgorithmAndPolicyArePartOfTheIdentity) {
  std::shared_ptr<const CubeSnapshot> snapshot =
      CubeSnapshot::Make(*MakeCube(/*seed=*/7));
  QuantificationRequest request;
  request.missing = MissingCellPolicy::kZero;
  RequestCacheKey base(request, *snapshot);

  QuantificationRequest other_algorithm = request;
  other_algorithm.algorithm = TopKAlgorithm::kScan;
  EXPECT_FALSE(base == RequestCacheKey(other_algorithm, *snapshot));

  QuantificationRequest other_policy = request;
  other_policy.missing = MissingCellPolicy::kSkip;
  EXPECT_FALSE(base == RequestCacheKey(other_policy, *snapshot));

  // A snapshot over different contents has a different lineage, so the same
  // request stops matching; the same snapshot reproduces the same key.
  std::shared_ptr<const CubeSnapshot> other_snapshot =
      CubeSnapshot::Make(*MakeCube(/*seed=*/8));
  EXPECT_FALSE(base == RequestCacheKey(request, *other_snapshot));
  EXPECT_TRUE(base == RequestCacheKey(request, *snapshot));
}

// Locks the normalization equivalences across the allocation micro-fix in
// NormalizePositions/NormalizeTargets: permutations collapse, duplicates
// stay distinct (selectors) or collapse (allowed), and explicit full-axis
// spellings fold to the "all" form.
TEST(RequestCacheKeyTest, NormalizationEquivalencesAreUnchanged) {
  std::shared_ptr<const CubeSnapshot> snapshot =
      CubeSnapshot::Make(*MakeCube(/*seed=*/9));
  QuantificationRequest base;  // target kGroup: agg1 = 4 queries, agg2 = 3
  base.agg1.positions = {0, 2};
  RequestCacheKey key(base, *snapshot);

  // Permutations of a selector are one identity.
  QuantificationRequest permuted = base;
  permuted.agg1.positions = {2, 0};
  EXPECT_TRUE(key == RequestCacheKey(permuted, *snapshot));

  // Duplicated selector positions aggregate their list twice: distinct.
  QuantificationRequest doubled = base;
  doubled.agg1.positions = {0, 2, 2};
  EXPECT_FALSE(key == RequestCacheKey(doubled, *snapshot));

  // Explicitly listing every position once collapses to the "all" form.
  QuantificationRequest explicit_all = base;
  explicit_all.agg2.positions = {2, 1, 0};
  EXPECT_TRUE(key == RequestCacheKey(explicit_all, *snapshot));
  RequestCacheKey explicit_key(explicit_all, *snapshot);
  EXPECT_TRUE(explicit_key.agg2.empty());

  // allowed_targets is consumed as a set: duplicates and order vanish, and
  // admitting the whole axis is no filter at all.
  QuantificationRequest filtered = base;
  filtered.allowed_targets = {3, 1};
  RequestCacheKey filtered_key(filtered, *snapshot);
  QuantificationRequest filtered_dup = base;
  filtered_dup.allowed_targets = {1, 3, 3, 1};
  EXPECT_TRUE(filtered_key == RequestCacheKey(filtered_dup, *snapshot));
  EXPECT_FALSE(key == filtered_key);
  QuantificationRequest allow_all = base;
  allow_all.allowed_targets = {5, 4, 3, 2, 1, 0, 0};
  EXPECT_TRUE(key == RequestCacheKey(allow_all, *snapshot));

  // Same spelling reproduces the same key (and hash) run over run.
  RequestCacheKeyHash hash;
  EXPECT_EQ(hash(key), hash(RequestCacheKey(permuted, *snapshot)));
}

TEST(RequestCacheKeyTest, EpochDigestBindsOnlyTheColumnsARequestReads) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/7);
  IndexSet indices = IndexSet::Build(*cube);
  std::shared_ptr<const CubeSnapshot> before = CubeSnapshot::Make(*cube);

  // Group-target request reading only query column 0 (all locations).
  QuantificationRequest narrow;
  narrow.target = Dimension::kGroup;
  narrow.missing = MissingCellPolicy::kZero;
  narrow.agg1 = AxisSelector::Single(0);
  // And one reading only query column 1.
  QuantificationRequest disjoint = narrow;
  disjoint.agg1 = AxisSelector::Single(1);
  // And an unrestricted one, which reads every column.
  QuantificationRequest full;
  full.target = Dimension::kGroup;
  full.missing = MissingCellPolicy::kZero;

  RequestCacheKey narrow_before(narrow, *before);
  RequestCacheKey disjoint_before(disjoint, *before);
  RequestCacheKey full_before(full, *before);

  // Bump the epoch of every (query 1, location) column, as the delta path
  // would after an upsert changed query 1's cells.
  for (size_t l = 0; l < cube->axis_size(Dimension::kLocation); ++l) {
    cube->BumpColumnEpoch(1, l);
  }
  std::shared_ptr<const CubeSnapshot> after =
      CubeSnapshot::MakeDerived(*cube, indices, before->lineage(),
                                before->version() + 1);

  // The request over untouched columns keeps its key (its cache entry
  // survives); requests reading a touched column get re-keyed.
  EXPECT_TRUE(narrow_before == RequestCacheKey(narrow, *after));
  EXPECT_FALSE(disjoint_before == RequestCacheKey(disjoint, *after));
  EXPECT_FALSE(full_before == RequestCacheKey(full, *after));
}

// Brute-force oracle for CubeSnapshot::EpochDigest: the (query, location)
// columns a request reads, straight from the table in cube_snapshot.h —
//   kGroup    -> agg1 queries × agg2 locations
//   kQuery    -> all queries  × agg2 locations
//   kLocation -> agg2 queries × all locations
// with an empty selector meaning the whole axis.
std::vector<std::vector<bool>> ReadSetOracle(const QuantificationRequest& r,
                                             size_t num_queries,
                                             size_t num_locations) {
  auto reads = [](const AxisSelector& sel, size_t pos) {
    return sel.all() || std::find(sel.positions.begin(), sel.positions.end(),
                                  pos) != sel.positions.end();
  };
  const AxisSelector all;
  const AxisSelector& queries =
      r.target == Dimension::kGroup
          ? r.agg1
          : (r.target == Dimension::kLocation ? r.agg2 : all);
  const AxisSelector& locations = r.target == Dimension::kLocation ? all : r.agg2;
  std::vector<std::vector<bool>> read(num_queries,
                                      std::vector<bool>(num_locations, false));
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t l = 0; l < num_locations; ++l) {
      read[q][l] = reads(queries, q) && reads(locations, l);
    }
  }
  return read;
}

// Spellings of one selector over an axis of `n` positions that must share a
// digest: "all" (empty, an explicit full list, the same list permuted) or a
// window holding a duplicated position (as written, and permuted).
std::vector<AxisSelector> Spellings(size_t n, bool window) {
  if (!window) {
    AxisSelector explicit_all;
    AxisSelector reversed;
    for (size_t i = 0; i < n; ++i) {
      explicit_all.positions.push_back(i);
      reversed.positions.push_back(n - 1 - i);
    }
    return {AxisSelector(), explicit_all, reversed};
  }
  if (n == 1) return {AxisSelector{{0, 0}}};
  return {AxisSelector{{n - 1, 0, n - 1}}, AxisSelector{{0, n - 1, n - 1}},
          AxisSelector{{n - 1, n - 1, 0}}};
}

// The additive digest must change exactly when an epoch in the request's
// read set changes, for every target and selector shape, and must agree
// across every spelling of one normalized key.
TEST(RequestCacheKeyTest, EpochDigestMatchesReadSetOracle) {
  struct Shape {
    size_t groups, queries, locations;
  };
  for (Shape shape : {Shape{3, 6, 5}, Shape{3, 1, 4}, Shape{3, 5, 1}}) {
    SCOPED_TRACE(::testing::Message() << "cube " << shape.groups << "x"
                                      << shape.queries << "x"
                                      << shape.locations);
    std::vector<int32_t> axes[3];
    const size_t sizes[3] = {shape.groups, shape.queries, shape.locations};
    for (size_t d = 0; d < 3; ++d) {
      for (size_t i = 0; i < sizes[d]; ++i) {
        axes[d].push_back(static_cast<int32_t>(100 * d + i));
      }
    }
    UnfairnessCube base = *UnfairnessCube::Make(axes[0], axes[1], axes[2]);
    for (size_t g = 0; g < shape.groups; ++g) {
      for (size_t q = 0; q < shape.queries; ++q) {
        for (size_t l = 0; l < shape.locations; ++l) {
          base.Set(g, q, l, 0.01 * static_cast<double>(g + 7 * q + 31 * l));
        }
      }
    }
    std::shared_ptr<const CubeSnapshot> before = CubeSnapshot::Make(base);
    // One derived snapshot per column, with only that column's epoch bumped.
    std::vector<std::shared_ptr<const CubeSnapshot>> bumped;
    for (size_t q = 0; q < shape.queries; ++q) {
      for (size_t l = 0; l < shape.locations; ++l) {
        UnfairnessCube cube = before->cube();
        cube.BumpColumnEpoch(q, l);
        IndexSet indices = IndexSet::Build(cube);
        bumped.push_back(CubeSnapshot::MakeDerived(
            std::move(cube), std::move(indices), before->lineage(), 1));
      }
    }

    size_t cases = 0;
    for (Dimension target :
         {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
      Dimension d1;
      Dimension d2;
      QuantificationOtherDims(target, &d1, &d2);
      const size_t n1 = sizes[static_cast<size_t>(d1)];
      const size_t n2 = sizes[static_cast<size_t>(d2)];
      for (bool window1 : {false, true}) {
        for (bool window2 : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "target " << static_cast<int>(target) << " agg1 "
                       << (window1 ? "window" : "all") << " agg2 "
                       << (window2 ? "window" : "all"));
          std::vector<QuantificationRequest> spellings;
          for (const AxisSelector& agg1 : Spellings(n1, window1)) {
            for (const AxisSelector& agg2 : Spellings(n2, window2)) {
              QuantificationRequest request;
              request.target = target;
              request.missing = MissingCellPolicy::kZero;
              request.agg1 = agg1;
              request.agg2 = agg2;
              spellings.push_back(request);
            }
          }
          const std::vector<std::vector<bool>> read = ReadSetOracle(
              spellings.front(), shape.queries, shape.locations);
          const uint64_t digest =
              RequestCacheKey(spellings.front(), *before).epoch_digest;
          for (const QuantificationRequest& spelling : spellings) {
            EXPECT_EQ(RequestCacheKey(spelling, *before).epoch_digest, digest);
          }
          for (size_t q = 0; q < shape.queries; ++q) {
            for (size_t l = 0; l < shape.locations; ++l) {
              const CubeSnapshot& after = *bumped[q * shape.locations + l];
              const uint64_t moved =
                  RequestCacheKey(spellings.front(), after).epoch_digest;
              EXPECT_EQ(moved != digest, read[q][l])
                  << "bumped column (" << q << ", " << l << ")";
              for (const QuantificationRequest& spelling : spellings) {
                EXPECT_EQ(RequestCacheKey(spelling, after).epoch_digest, moved)
                    << "bumped column (" << q << ", " << l << ")";
              }
            }
          }
          ++cases;
        }
      }
    }
    EXPECT_EQ(cases, 12u);
  }
}

// In-batch duplicates never reach the request path; Stats still accounts
// for every submitted request, whether or not the metrics registry is on.
TEST(AnswerBatchAccountingTest, DedupedRequestsAreCountedWithMetricsOff) {
  ASSERT_FALSE(MetricsRegistry::Global().enabled());
  QuantificationService service(CubeSnapshot::Make(*MakeCube(/*seed=*/13)));
  QuantificationRequest a;
  a.missing = MissingCellPolicy::kZero;
  QuantificationRequest b = a;
  b.agg1 = AxisSelector{{2, 0}};
  QuantificationRequest b_permuted = a;
  b_permuted.agg1 = AxisSelector{{0, 2}};
  QuantificationRequest c = a;
  c.target = Dimension::kQuery;
  QuantificationRequest d = a;
  d.k = 2;
  const std::vector<QuantificationRequest> batch = {a, b, a, c, b_permuted,
                                                    d, a, c, d, b};
  std::vector<Result<QuantificationResult>> results = service.AnswerBatch(batch);
  ASSERT_EQ(results.size(), 10u);
  for (const Result<QuantificationResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  QuantificationService::Stats stats = service.stats();
  EXPECT_EQ(stats.batch_requests, 4u);
  EXPECT_EQ(stats.batch_deduped, 6u);
  EXPECT_EQ(stats.batch_requests + stats.batch_deduped, batch.size());
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.computations, 4u);
}

TEST(FingerprintCubeTest, SensitiveToValuesPresenceAndShape) {
  std::unique_ptr<UnfairnessCube> cube = MakeCube(/*seed=*/7);
  uint64_t fingerprint = FingerprintCube(*cube);

  EXPECT_EQ(FingerprintCube(*MakeCube(/*seed=*/7)), fingerprint);

  UnfairnessCube changed = *cube;
  changed.Set(0, 0, 0, 0.123456789);
  EXPECT_NE(FingerprintCube(changed), fingerprint);

  // Clearing a cell that is definitely present must also change the digest.
  UnfairnessCube cleared = changed;
  cleared.Clear(0, 0, 0);
  EXPECT_NE(FingerprintCube(cleared), FingerprintCube(changed));
}

}  // namespace
}  // namespace fairjob
