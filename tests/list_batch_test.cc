// Differential suite for the batched list-distance engine
// (ranking/list_batch.h): every kernel must be *bitwise* identical to its
// per-pair reference on inputs both paths accept, error paths must match,
// and a full BuildSearchCube built on the batch path must agree with the
// per-triple SearchUnfairness reference. Own binary so the sanitizer matrix
// can run it directly (the shared-batch kernels must be TSan-clean).

#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/data_model.h"
#include "core/group_space.h"
#include "core/unfairness_cube.h"
#include "core/unfairness_measures.h"
#include "ranking/footrule.h"
#include "ranking/jaccard.h"
#include "ranking/kendall_tau.h"
#include "ranking/list_batch.h"
#include "ranking/rbo.h"
#include "ranking/simd.h"
#include "search/google_sim.h"

namespace fairjob {
namespace {

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Asserts bitwise equality — EXPECT_DOUBLE_EQ allows 4 ulps, which would
// hide the exact-replication property the engine promises.
void ExpectBitwise(const Result<double>& batch, const Result<double>& ref,
                   const std::string& what) {
  ASSERT_EQ(batch.ok(), ref.ok()) << what;
  if (ref.ok()) {
    EXPECT_EQ(BitsOf(*batch), BitsOf(*ref))
        << what << ": batch=" << *batch << " ref=" << *ref;
  } else {
    EXPECT_EQ(batch.status().message(), ref.status().message()) << what;
  }
}

// A prefix of a shuffled pool over `universe` items: lists drawn this way
// overlap partially, fully, or not at all depending on the universe size.
RankedList RandomList(Rng& rng, int32_t universe, size_t len) {
  std::vector<int32_t> pool(static_cast<size_t>(universe));
  for (int32_t v = 0; v < universe; ++v) pool[static_cast<size_t>(v)] = v;
  rng.Shuffle(pool);
  return RankedList(pool.begin(), pool.begin() + static_cast<long>(len));
}

std::vector<const RankedList*> Pointers(const std::vector<RankedList>& lists) {
  std::vector<const RankedList*> ptrs;
  for (const RankedList& l : lists) ptrs.push_back(&l);
  return ptrs;
}

TEST(ListBatchTest, TopKKernelsMatchPerPairReferenceBitwise) {
  Rng rng(20190715);
  // Deliberately off-dyadic parameters: any summation-order drift between
  // the two paths shows up in the last bits.
  const double penalties[] = {0.0, 0.3, 0.5, 1.0};
  const double persistences[] = {0.1, 0.9, 0.97};
  for (int trial = 0; trial < 20; ++trial) {
    // Small universes force heavy overlap, large ones near-disjoint lists;
    // both regimes exercise every membership case of the pair scans.
    int32_t universe = trial % 2 == 0 ? 12 : 60;
    std::vector<RankedList> lists;
    for (int l = 0; l < 6; ++l) {
      lists.push_back(RandomList(rng, universe, 1 + rng.NextBelow(10)));
    }
    Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    ListDistanceBatch::Scratch scratch;
    for (size_t i = 0; i < lists.size(); ++i) {
      for (size_t j = 0; j < lists.size(); ++j) {
        if (i == j) continue;
        std::string pair = "trial " + std::to_string(trial) + " pair " +
                           std::to_string(i) + "," + std::to_string(j);
        for (double p : penalties) {
          ExpectBitwise(batch->KendallTauTopK(i, j, p, &scratch),
                        KendallTauTopK(lists[i], lists[j], p),
                        pair + " kendall p=" + std::to_string(p));
        }
        ExpectBitwise(batch->Jaccard(i, j),
                      JaccardDistance(lists[i], lists[j]), pair + " jaccard");
        ExpectBitwise(batch->FootruleTopK(i, j),
                      FootruleTopK(lists[i], lists[j]), pair + " footrule");
        for (double p : persistences) {
          ExpectBitwise(batch->Rbo(i, j, p),
                        RboDistance(lists[i], lists[j], p),
                        pair + " rbo p=" + std::to_string(p));
        }
      }
    }
  }
}

TEST(ListBatchTest, KendallTauFullMatchesReferenceOnPermutations) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng.NextBelow(12);
    RankedList base = RandomList(rng, 40, n);
    std::vector<RankedList> lists;
    for (int l = 0; l < 4; ++l) {
      RankedList perm = base;
      rng.Shuffle(perm);
      lists.push_back(perm);
    }
    Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    ListDistanceBatch::Scratch scratch;
    for (size_t i = 0; i < lists.size(); ++i) {
      for (size_t j = 0; j < lists.size(); ++j) {
        if (i == j) continue;
        ExpectBitwise(batch->KendallTauFull(i, j, &scratch),
                      KendallTauDistance(lists[i], lists[j]),
                      "trial " + std::to_string(trial) + " pair " +
                          std::to_string(i) + "," + std::to_string(j));
      }
    }
  }
}

TEST(ListBatchTest, KendallTauFullErrorsMatchReference) {
  RankedList a = {1, 2, 3};
  RankedList b = {1, 2, 4};       // same size, different set
  RankedList shorter = {1, 2};    // size mismatch
  std::vector<RankedList> lists = {a, b, shorter};
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  ListDistanceBatch::Scratch scratch;
  ExpectBitwise(batch->KendallTauFull(0, 1, &scratch), KendallTauDistance(a, b),
                "different item sets");
  ExpectBitwise(batch->KendallTauFull(0, 2, &scratch),
                KendallTauDistance(a, shorter), "size mismatch");
}

TEST(ListBatchTest, SingletonListsMatchReference) {
  RankedList same = {42};
  RankedList other = {7};
  std::vector<RankedList> lists = {same, other, same};
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  ListDistanceBatch::Scratch scratch;
  for (size_t i : {size_t{0}, size_t{2}}) {
    size_t j = 1;
    ExpectBitwise(batch->KendallTauTopK(i, j, 0.5, &scratch),
                  KendallTauTopK(lists[i], lists[j], 0.5), "kt disjoint");
    ExpectBitwise(batch->Jaccard(i, j), JaccardDistance(lists[i], lists[j]),
                  "jaccard disjoint");
    ExpectBitwise(batch->FootruleTopK(i, j), FootruleTopK(lists[i], lists[j]),
                  "footrule disjoint");
    ExpectBitwise(batch->Rbo(i, j, 0.9), RboDistance(lists[i], lists[j], 0.9),
                  "rbo disjoint");
  }
  // Two identical singletons: max_penalty degenerates to 0 → defined as 0.
  ExpectBitwise(batch->KendallTauTopK(0, 2, 0.0, &scratch),
                KendallTauTopK(same, same, 0.0), "kt identical singleton");
  ExpectBitwise(batch->KendallTauFull(0, 2, &scratch),
                KendallTauDistance(same, same), "kt-full identical singleton");
}

TEST(ListBatchTest, MakeRejectsMalformedLists) {
  RankedList ok_list = {1, 2, 3};
  RankedList dup = {5, 6, 5};
  RankedList empty;

  std::vector<const RankedList*> with_dup = {&ok_list, &dup};
  Result<ListDistanceBatch> r = ListDistanceBatch::Make(with_dup);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "ranked list contains duplicate item id 5");

  std::vector<const RankedList*> with_empty = {&ok_list, &empty};
  r = ListDistanceBatch::Make(with_empty);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("list 1 is empty"), std::string::npos);

  std::vector<const RankedList*> with_null = {&ok_list, nullptr};
  r = ListDistanceBatch::Make(with_null);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("null list"), std::string::npos);
}

TEST(ListBatchTest, ParameterAndIndexErrorsMatchReference) {
  RankedList a = {1, 2, 3};
  RankedList b = {3, 4, 5};
  std::vector<RankedList> lists = {a, b};
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  ListDistanceBatch::Scratch scratch;

  ExpectBitwise(batch->KendallTauTopK(0, 1, -0.1, &scratch),
                KendallTauTopK(a, b, -0.1), "penalty below range");
  ExpectBitwise(batch->KendallTauTopK(0, 1, 1.5, &scratch),
                KendallTauTopK(a, b, 1.5), "penalty above range");
  ExpectBitwise(batch->Rbo(0, 1, 0.0), RboDistance(a, b, 0.0), "rbo p=0");
  ExpectBitwise(batch->Rbo(0, 1, 1.0), RboDistance(a, b, 1.0), "rbo p=1");

  EXPECT_FALSE(batch->Jaccard(0, 2).ok());
  EXPECT_FALSE(batch->KendallTauTopK(2, 0, 0.5, &scratch).ok());
  EXPECT_FALSE(batch->Rbo(7, 0, 0.9).ok());
}

TEST(ListBatchTest, EmptyBatchHasNoListsAndRejectsKernelCalls) {
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make({});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_lists(), 0u);
  EXPECT_EQ(batch->universe_size(), 0u);
  EXPECT_FALSE(batch->Jaccard(0, 0).ok());
}

TEST(ListBatchTest, StatsCountInterningWork) {
  RankedList a = {1, 2, 3};
  RankedList b = {3, 4, 5};    // shares item 3 with a
  RankedList c = {1, 5};       // nothing new
  std::vector<RankedList> lists = {a, b, c};
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats().lists_interned, 3u);
  EXPECT_EQ(batch->stats().unique_lists, 3u);  // all contents distinct
  EXPECT_EQ(batch->stats().items_interned, 8u);
  EXPECT_EQ(batch->stats().universe_size, 5u);
  EXPECT_EQ(batch->num_lists(), 3u);
  EXPECT_EQ(batch->list_size(0), 3u);
  EXPECT_EQ(batch->list_size(2), 2u);
}

// Lists with identical content share one arena slot; kernels are pure
// functions of list content, so every logical index must keep answering
// exactly as if the arena were not deduplicated.
TEST(ListBatchTest, DeduplicatesIdenticalListContent) {
  RankedList a = {4, 1, 9};
  RankedList b = {9, 1, 4};  // same set, different order: NOT a duplicate
  RankedList c = {7, 2};
  std::vector<RankedList> lists = {a, b, a, c, a, c};
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats().lists_interned, 6u);
  EXPECT_EQ(batch->stats().unique_lists, 3u);  // {a, b, c}
  EXPECT_EQ(batch->num_lists(), 6u);
  EXPECT_EQ(batch->list_size(4), 3u);
  ListDistanceBatch::Scratch scratch;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j = 0; j < lists.size(); ++j) {
      if (i == j) continue;
      std::string pair =
          "pair " + std::to_string(i) + "," + std::to_string(j);
      ExpectBitwise(batch->KendallTauTopK(i, j, 0.5, &scratch),
                    KendallTauTopK(lists[i], lists[j], 0.5), pair + " kt");
      ExpectBitwise(batch->Jaccard(i, j), JaccardDistance(lists[i], lists[j]),
                    pair + " jaccard");
      ExpectBitwise(batch->FootruleTopK(i, j),
                    FootruleTopK(lists[i], lists[j]), pair + " footrule");
      ExpectBitwise(batch->Rbo(i, j, 0.9),
                    RboDistance(lists[i], lists[j], 0.9), pair + " rbo");
    }
  }
  // Shared-slot pairs must report exact-zero distances.
  EXPECT_EQ(*batch->Jaccard(0, 2), 0.0);
  EXPECT_EQ(*batch->FootruleTopK(2, 4), 0.0);
}

// Direct kernel-level differential: the dispatched kernels must agree with
// the scalar reference on every word count around the AVX2 block width of 4
// words / 8 gather lanes — including the off-width tails the vector path
// hands to its scalar remainder loop.
TEST(ListBatchTest, SimdKernelsMatchScalarOnOffWidthTails) {
  Rng rng(123);
  for (size_t words : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                       size_t{7}, size_t{8}, size_t{9}, size_t{12},
                       size_t{13}, size_t{31}}) {
    std::vector<uint64_t> a(words), b(words);
    for (size_t w = 0; w < words; ++w) {
      a[w] = static_cast<uint64_t>(rng.NextU32()) << 32 | rng.NextU32();
      b[w] = static_cast<uint64_t>(rng.NextU32()) << 32 | rng.NextU32();
    }
    EXPECT_EQ(simd::IntersectPopcount(a.data(), b.data(), words),
              simd::IntersectPopcountScalar(a.data(), b.data(), words))
        << words << " words";
  }
  for (size_t n : {size_t{1}, size_t{5}, size_t{8}, size_t{9}, size_t{16},
                   size_t{19}, size_t{24}, size_t{100}}) {
    std::vector<int32_t> pos(64);
    for (int32_t& p : pos) {
      p = rng.NextBernoulli(0.5) ? static_cast<int32_t>(rng.NextBelow(1000))
                                 : -1;
    }
    std::vector<int32_t> ids(n);
    for (int32_t& id : ids) {
      id = static_cast<int32_t>(rng.NextBelow(64));
    }
    std::vector<int32_t> got(n, -7), want(n, -7);
    simd::GatherPositions(pos.data(), ids.data(), n, got.data());
    simd::GatherPositionsScalar(pos.data(), ids.data(), n, want.data());
    EXPECT_EQ(got, want) << n << " ids";
  }
}

// Whole-engine differential across the dispatch boundary: every kernel,
// forced scalar vs dispatched, on universes straddling the vector width
// (1–4 words, with tails), must be bitwise identical.
TEST(ListBatchTest, ForcedScalarAndDispatchedKernelsAgreeBitwise) {
  Rng rng(20260809);
  for (int trial = 0; trial < 8; ++trial) {
    int32_t universe = 17 + 61 * trial;  // 1..4 words, never word-aligned
    std::vector<RankedList> lists;
    for (int l = 0; l < 5; ++l) {
      lists.push_back(RandomList(
          rng, universe,
          1 + rng.NextBelow(static_cast<uint32_t>(universe) / 2)));
    }
    Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
    ASSERT_TRUE(batch.ok());
    ListDistanceBatch::Scratch scratch;
    for (size_t i = 0; i < lists.size(); ++i) {
      for (size_t j = 0; j < lists.size(); ++j) {
        if (i == j) continue;
        Status unset = Status::Internal("unset");
        Result<double> kt_s = unset, j_s = unset, f_s = unset, rbo_s = unset,
                       ktf_s = unset;
        {
          // RAII pin (ranking/simd.h): restores dispatch on scope exit so a
          // failing assertion cannot leave the process pinned to scalar.
          simd::ScopedScalarKernels force_scalar;
          kt_s = batch->KendallTauTopK(i, j, 0.3, &scratch);
          j_s = batch->Jaccard(i, j);
          f_s = batch->FootruleTopK(i, j);
          rbo_s = batch->Rbo(i, j, 0.97);
          ktf_s = batch->KendallTauFull(i, j, &scratch);
        }
        std::string pair = "trial " + std::to_string(trial) + " pair " +
                           std::to_string(i) + "," + std::to_string(j);
        ExpectBitwise(batch->KendallTauTopK(i, j, 0.3, &scratch), kt_s,
                      pair + " kt");
        ExpectBitwise(batch->Jaccard(i, j), j_s, pair + " jaccard");
        ExpectBitwise(batch->FootruleTopK(i, j), f_s, pair + " footrule");
        ExpectBitwise(batch->Rbo(i, j, 0.97), rbo_s, pair + " rbo");
        ExpectBitwise(batch->KendallTauFull(i, j, &scratch), ktf_s,
                      pair + " kt-full");
      }
    }
  }
}

// A shared immutable batch evaluated from many threads (each with its own
// Scratch) must produce the same values as the serial pass — this is the
// access pattern of EvaluateSearchColumn's pool-parallel rows, and the
// sanitizer matrix runs this binary under TSan.
TEST(ListBatchTest, ConcurrentKernelsOnSharedBatchAreDeterministic) {
  Rng rng(99);
  std::vector<RankedList> lists;
  for (int l = 0; l < 12; ++l) {
    lists.push_back(RandomList(rng, 30, 1 + rng.NextBelow(12)));
  }
  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  size_t n = lists.size();

  std::vector<double> serial(n * n, 0.0);
  ListDistanceBatch::Scratch scratch;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      serial[i * n + j] = *batch->KendallTauTopK(i, j, 0.5, &scratch);
    }
  }

  std::vector<double> parallel(n * n, 0.0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ListDistanceBatch::Scratch local;
      for (size_t i = t; i < n; i += 4) {
        for (size_t j = i + 1; j < n; ++j) {
          parallel[i * n + j] = *batch->KendallTauTopK(i, j, 0.5, &local);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t idx = 0; idx < serial.size(); ++idx) {
    EXPECT_EQ(BitsOf(serial[idx]), BitsOf(parallel[idx])) << idx;
  }
}

// The cube path evaluates each distinct ordered slot pair once per cell and
// reads every list pair through its slots. One cell whose duplicate lists
// interleave (a later list repeats an earlier slot, so slot(i) > slot(j) for
// some i < j) must still give, for every measure, a column bitwise equal to
// the per-triple reference, and the kernel count must be exactly the number
// of distinct ordered slot pairs reached by list pairs i < j.
TEST(ListBatchTest, SlotPairMemoMatchesPerTripleReference) {
  AttributeSchema schema;
  ASSERT_TRUE(
      schema.AddAttribute("ethnicity", {"Asian", "Black", "White"}).ok());
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  QueryId q = data.queries().GetOrAdd("cleaning jobs");
  LocationId l = data.locations().GetOrAdd("Boston, MA");

  Rng rng(4242);
  std::vector<RankedList> variants;
  for (int v = 0; v < 4; ++v) variants.push_back(RandomList(rng, 14, 5 + v));
  // Variant per user: A B A C B D A C D B, so list 3 (C) precedes list 4 (B)
  // with slot 2 > slot 1, and every variant recurs.
  const int pattern[] = {0, 1, 0, 2, 1, 3, 0, 2, 3, 1};
  std::vector<RankedList> lists;
  for (int u = 0; u < 10; ++u) {
    Demographics d = {static_cast<ValueId>(u % 3),
                      static_cast<ValueId>((u / 3) % 2)};
    ASSERT_TRUE(data.AddUser("u" + std::to_string(u), d).ok());
    lists.push_back(variants[static_cast<size_t>(pattern[u])]);
    ASSERT_TRUE(
        data.AddObservation(q, l, {static_cast<UserId>(u), lists.back()}).ok());
  }

  Result<ListDistanceBatch> batch = ListDistanceBatch::Make(Pointers(lists));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->stats().unique_lists, variants.size());
  bool interleaved = false;
  std::set<std::pair<RankedList, RankedList>> slot_pairs;
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j = i + 1; j < lists.size(); ++j) {
      interleaved |= batch->slot(i) > batch->slot(j);
      slot_pairs.emplace(lists[i], lists[j]);
    }
  }
  ASSERT_TRUE(interleaved);

  MetricsRegistry& metrics = MetricsRegistry::Global();
  bool was_enabled = metrics.enabled();
  metrics.SetEnabled(true);
  Counter* pairs_evaluated = metrics.counter("measure.batch.pairs_evaluated");
  MeasureOptions options;
  options.kendall_penalty = 0.3;  // off-dyadic: any term-order drift shows
  for (SearchMeasure measure :
       {SearchMeasure::kKendallTau, SearchMeasure::kJaccard,
        SearchMeasure::kFootrule, SearchMeasure::kRbo}) {
    uint64_t before = pairs_evaluated->Value();
    Result<UnfairnessCube> cube =
        BuildSearchCube(data, space, measure, options);
    ASSERT_TRUE(cube.ok()) << cube.status().message();
    if (kObservabilityCompiledIn) {
      EXPECT_EQ(pairs_evaluated->Value() - before, slot_pairs.size());
    }
    size_t present = 0;
    for (size_t g = 0; g < cube->axis_size(Dimension::kGroup); ++g) {
      GroupId group = static_cast<GroupId>(cube->axis_id(Dimension::kGroup, g));
      Result<double> reference =
          SearchUnfairness(data, space, group, q, l, measure, options);
      std::optional<double> cell = cube->Get(g, 0, 0);
      ASSERT_EQ(cell.has_value(), reference.ok()) << g;
      if (!reference.ok()) continue;
      ++present;
      EXPECT_EQ(BitsOf(*cell), BitsOf(*reference))
          << "measure " << static_cast<int>(measure) << " group " << g
          << ": cube=" << *cell << " ref=" << *reference;
    }
    EXPECT_GT(present, 0u);
  }
  metrics.SetEnabled(was_enabled);
}

// End-to-end: a search cube built on the batch fast path must agree with the
// per-triple SearchUnfairness reference on the simulated Google study —
// a dataset with real missing cells (each query only exists at its Table-7
// locations) and multi-attribute comparable groups. The cube evaluates each
// unordered pair once (i < j) while the reference evaluates both
// orientations. Jaccard, Footrule and Kendall-Tau (integer case counts,
// combined once) are exactly symmetric, so those cubes are bitwise equal to
// the reference; RBO cells are held to 1e-12.
TEST(ListBatchTest, GoogleStudyCubeMatchesPerTripleReference) {
  GoogleStudyConfig config;
  config.users_per_cell = 2;
  config.formulations_per_query = 2;
  Result<GoogleWorld> world = BuildGoogleStudy(config);
  ASSERT_TRUE(world.ok()) << world.status().message();
  const SearchDataset& data = world->dataset;
  GroupSpace space = *GroupSpace::Enumerate(data.schema());

  for (SearchMeasure measure :
       {SearchMeasure::kKendallTau, SearchMeasure::kJaccard,
        SearchMeasure::kFootrule, SearchMeasure::kRbo}) {
    Result<UnfairnessCube> cube = BuildSearchCube(data, space, measure);
    ASSERT_TRUE(cube.ok()) << cube.status().message();
    size_t present = 0;
    size_t missing = 0;
    for (size_t g = 0; g < cube->axis_size(Dimension::kGroup); ++g) {
      for (size_t q = 0; q < cube->axis_size(Dimension::kQuery); ++q) {
        for (size_t l = 0; l < cube->axis_size(Dimension::kLocation); ++l) {
          Result<double> reference = SearchUnfairness(
              data, space,
              static_cast<GroupId>(cube->axis_id(Dimension::kGroup, g)),
              static_cast<QueryId>(cube->axis_id(Dimension::kQuery, q)),
              static_cast<LocationId>(cube->axis_id(Dimension::kLocation, l)),
              measure);
          std::optional<double> cell = cube->Get(g, q, l);
          if (reference.ok()) {
            ASSERT_TRUE(cell.has_value()) << g << " " << q << " " << l;
            ++present;
            if (measure != SearchMeasure::kRbo) {
              EXPECT_EQ(BitsOf(*cell), BitsOf(*reference))
                  << g << " " << q << " " << l;
            } else {
              EXPECT_NEAR(*cell, *reference, 1e-12)
                  << g << " " << q << " " << l;
            }
          } else {
            EXPECT_FALSE(cell.has_value()) << g << " " << q << " " << l;
            ++missing;
          }
        }
      }
    }
    // The study layout guarantees both populated and missing cells.
    EXPECT_GT(present, 0u);
    EXPECT_GT(missing, 0u);
  }
}

}  // namespace
}  // namespace fairjob
