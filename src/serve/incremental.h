#ifndef FAIRJOB_SERVE_INCREMENTAL_H_
#define FAIRJOB_SERVE_INCREMENTAL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/group_space.h"
#include "core/unfairness_cube.h"
#include "core/unfairness_measures.h"
#include "serve/cube_snapshot.h"

namespace fairjob {

// Incremental cube maintenance (docs/serving.md, "Incremental maintenance &
// snapshots"): a maintainer owns the dataset and the current CubeSnapshot
// and turns a delta — a re-crawled batch of marketplace rankings, a fresh
// study snapshot of search observations — into a *derived* snapshot. The
// derived snapshot shares every cube chunk and every inverted-list block
// the delta did not write, so an upsert costs the touched columns, the
// blocks that hold them and O(Q + L) words of tables, not the cube.
//
// The differential contract: after any sequence of successful upserts, the
// maintainer's cube is bitwise identical (presence + double bit patterns)
// to a cold rebuild over the same mutated dataset. The delta path reuses
// the full builders' column loop verbatim (BuildMarketplaceCubeColumns /
// BuildSearchCubeColumns run the same per-column evaluation into a
// CubeColumnSink as every other builder), so this holds by construction
// and is asserted by tests/incremental_test.cc and bench_incremental.
//
// Epoch discipline: a column's epoch is bumped only when its recomputed
// values actually differ from the served ones — an upsert that rewrites a
// ranking with identical contents leaves every epoch (and therefore every
// cache entry) untouched. When nothing changed at all, the maintainer keeps
// serving the previous snapshot instead of publishing an identical twin.
//
// Concurrency: one writer. Upserts may run while any number of readers
// serve the *previous* snapshot (they pinned it via the service's atomic);
// the maintainer never mutates a published snapshot — it derives a cube
// and indices that share the served ones' storage, writes only the changed
// columns and lists (into storage of their own), and publishes via
// CubeSnapshot::MakeDerived.

// One re-crawled result page: the ranking observed for (query, location) on
// the latest crawl. Ids are dataset vocabulary ids; both must already be on
// the cube axes (new queries/locations change the cube shape and require a
// cold rebuild). Later rows win when a batch lists the same cell twice.
struct CrawlBatchRow {
  QueryId query = 0;
  LocationId location = 0;
  MarketRanking ranking;
};

struct CrawlBatch {
  std::vector<CrawlBatchRow> rows;
};

// One re-run study cell: the full observation set collected for
// (query, location) on the latest run. Replace semantics — the new vector
// supersedes whatever was stored; empty removes the cell (it becomes
// unobserved and its column goes missing).
struct StudySnapshotCell {
  QueryId query = 0;
  LocationId location = 0;
  std::vector<SearchObservation> observations;
};

struct StudySnapshot {
  std::vector<StudySnapshotCell> cells;
};

// What one upsert did; the cache-survival arithmetic in tests and
// bench_incremental is built on these counts.
struct UpsertReport {
  size_t rows_applied = 0;       // batch rows written into the dataset
  size_t columns_touched = 0;    // distinct (query, location) columns
  size_t columns_changed = 0;    // columns whose values differed (epoch bumped)
  size_t cells_recomputed = 0;   // columns_touched × group-axis size
  // False when nothing changed and the previous snapshot is still current.
  bool published_new_snapshot = false;
};

// Maintainer for TaskRabbit-style marketplace cubes.
class MarketplaceCubeMaintainer {
 public:
  // Cold-builds the initial cube over `axes` (empty = everything in the
  // dataset) and snapshots it. The dataset is owned from here on: deltas
  // mutate the maintainer's copy so cube and data can never drift apart.
  // Errors: whatever BuildMarketplaceCube rejects.
  static Result<MarketplaceCubeMaintainer> Make(MarketplaceDataset data,
                                                const GroupSpace& space,
                                                MarketMeasure measure,
                                                MeasureOptions options = {},
                                                CubeAxes axes = {},
                                                size_t parallelism = 1);

  // Applies a crawl batch: validates EVERY row first (unknown axis ids, bad
  // rankings), so a failed call leaves dataset and snapshot untouched; then
  // writes the rankings, recomputes exactly the touched columns, bumps
  // epochs for the changed ones, refreshes the inverted lists they feed
  // and publishes a derived snapshot. Cost: O(touched columns × column
  // cost) + the rewrite of each list block holding a changed cell (one
  // block per changed query and per changed location) + O(Q + L + blocks)
  // for the column tables and block pointers.
  Result<UpsertReport> UpsertCrawlBatch(const CrawlBatch& batch);

  // The snapshot reflecting every upsert so far; hand it to
  // QuantificationService::SetSnapshot to serve it.
  const std::shared_ptr<const CubeSnapshot>& snapshot() const {
    return snapshot_;
  }

  const MarketplaceDataset& data() const { return data_; }

 private:
  MarketplaceCubeMaintainer(MarketplaceDataset data, GroupSpace space,
                            MarketMeasure measure, MeasureOptions options,
                            CubeAxes axes, size_t parallelism)
      : data_(std::move(data)),
        space_(std::move(space)),
        measure_(measure),
        options_(std::move(options)),
        axes_(std::move(axes)),
        parallelism_(parallelism),
        membership_(data_, space_) {}

  MarketplaceDataset data_;
  GroupSpace space_;
  MarketMeasure measure_;
  MeasureOptions options_;
  CubeAxes axes_;  // resolved at Make time; fixed for the maintainer's life
  size_t parallelism_;
  // Hoisted worker-group membership table (core/marketplace_batch.h), the
  // per-dataset-version state of the batched column engine. Updated in
  // UpsertCrawlBatch before recomputation, so delta rebuilds never relabel
  // the whole worker population. Declared after data_/space_ — member init
  // order builds it from the already-moved-in dataset.
  MarketplaceGroupMembership membership_;
  std::shared_ptr<const CubeSnapshot> snapshot_;
};

// Maintainer for Google-job-search-style cubes; the search twin of
// MarketplaceCubeMaintainer with study-snapshot (replace) semantics.
class SearchCubeMaintainer {
 public:
  static Result<SearchCubeMaintainer> Make(SearchDataset data,
                                           const GroupSpace& space,
                                           SearchMeasure measure,
                                           MeasureOptions options = {},
                                           CubeAxes axes = {},
                                           size_t parallelism = 1);

  // Applies a study snapshot with the same all-or-nothing validation,
  // bitwise change detection and derived-snapshot publication as
  // UpsertCrawlBatch.
  Result<UpsertReport> UpsertStudySnapshot(const StudySnapshot& snapshot);

  const std::shared_ptr<const CubeSnapshot>& snapshot() const {
    return snapshot_;
  }

  const SearchDataset& data() const { return data_; }

 private:
  SearchCubeMaintainer(SearchDataset data, GroupSpace space,
                       SearchMeasure measure, MeasureOptions options,
                       CubeAxes axes, size_t parallelism)
      : data_(std::move(data)),
        space_(std::move(space)),
        measure_(measure),
        options_(std::move(options)),
        axes_(std::move(axes)),
        parallelism_(parallelism) {}

  SearchDataset data_;
  GroupSpace space_;
  SearchMeasure measure_;
  MeasureOptions options_;
  CubeAxes axes_;
  size_t parallelism_;
  std::shared_ptr<const CubeSnapshot> snapshot_;
};

}  // namespace fairjob

#endif  // FAIRJOB_SERVE_INCREMENTAL_H_
