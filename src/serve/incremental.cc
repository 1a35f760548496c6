#include "serve/incremental.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/indices.h"

namespace fairjob {
namespace {

struct EpochMetrics {
  Counter* bumps;
  Counter* columns_recomputed;
  Counter* columns_unchanged;
  LatencyHistogram* upsert_us;
};

const EpochMetrics& Metrics() {
  static const EpochMetrics metrics = [] {
    MetricsRegistry& registry = MetricsRegistry::Global();
    EpochMetrics m;
    m.bumps = registry.counter("cube.epoch.bumps");
    m.columns_recomputed = registry.counter("cube.epoch.columns_recomputed");
    m.columns_unchanged = registry.counter("cube.epoch.columns_unchanged");
    m.upsert_us = registry.histogram("cube.upsert_us");
    return m;
  }();
  return metrics;
}

// Presence plus exact bit pattern — the same identity FingerprintCube
// digests, so "unchanged" here is exactly "same fingerprint contribution"
// (0.0 vs -0.0 and NaN payloads count as changes).
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

// Sink for the delta rebuild: compares each recomputed column with the
// served cube's and writes only the columns that differ into the derived
// cube, so an unchanged column never un-shares its chunk. Consume runs on
// pool threads: distinct columns write through UnfairnessCube::SetColumn,
// which is safe for concurrent distinct columns, and into disjoint
// changed_ slots (the slot map is built up front and read-only after).
class DeltaSink final : public CubeColumnSink {
 public:
  DeltaSink(const UnfairnessCube* served, UnfairnessCube* cube,
            const std::vector<CubeColumnRef>& columns)
      : served_(served), cube_(cube), changed_(columns.size(), 0) {
    slot_.reserve(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      slot_.emplace(Key(columns[i].query_pos, columns[i].location_pos), i);
    }
  }

  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values,
                 size_t num_groups) override {
    if (num_groups != cube_->axis_size(Dimension::kGroup)) {
      return Status::Internal("delta column has wrong group-axis size");
    }
    auto it = slot_.find(Key(query_pos, location_pos));
    if (it == slot_.end()) {
      return Status::Internal("delta build produced an unrequested column");
    }
    UnfairnessCube::Column old = served_->column(query_pos, location_pos);
    bool changed = false;
    for (size_t g = 0; g < num_groups && !changed; ++g) {
      changed = !BitwiseEqual(old.Get(g), values[g]);
    }
    if (changed) cube_->SetColumn(query_pos, location_pos, values, num_groups);
    changed_[it->second] = changed ? 1 : 0;
    return Status::OK();
  }

  bool changed(size_t slot) const { return changed_[slot] != 0; }

 private:
  static uint64_t Key(size_t query_pos, size_t location_pos) {
    return (static_cast<uint64_t>(query_pos) << 32) |
           static_cast<uint64_t>(location_pos);
  }

  const UnfairnessCube* served_;
  UnfairnessCube* cube_;
  std::vector<uint8_t> changed_;
  std::unordered_map<uint64_t, size_t> slot_;
};

// Deduplicates the batch's (query, location) columns, sorted for a
// deterministic recomputation order.
std::vector<CubeColumnRef> DedupColumns(std::vector<CubeColumnRef> columns) {
  std::sort(columns.begin(), columns.end(),
            [](const CubeColumnRef& a, const CubeColumnRef& b) {
              if (a.query_pos != b.query_pos) return a.query_pos < b.query_pos;
              return a.location_pos < b.location_pos;
            });
  columns.erase(std::unique(columns.begin(), columns.end(),
                            [](const CubeColumnRef& a, const CubeColumnRef& b) {
                              return a.query_pos == b.query_pos &&
                                     a.location_pos == b.location_pos;
                            }),
                columns.end());
  return columns;
}

// The shared tail of both upsert paths: recompute `touched` columns via
// `build_columns` into a cube derived from the served one, bump epochs for
// the bitwise-changed ones, refresh the indices derived from the served
// ones and publish a derived snapshot — or keep the current one when
// nothing changed. The derived cube and indices share every chunk and list
// the changed columns did not write.
template <typename BuildColumns>
Result<UpsertReport> ApplyColumnDelta(
    std::shared_ptr<const CubeSnapshot>* snapshot, size_t rows_applied,
    const std::vector<CubeColumnRef>& touched, size_t parallelism,
    const BuildColumns& build_columns) {
  TraceSpan span("CubeMaintainer::ApplyColumnDelta", "serve");
  ScopedTimer timer(Metrics().upsert_us);
  const CubeSnapshot& served = **snapshot;

  UpsertReport report;
  report.rows_applied = rows_applied;
  report.columns_touched = touched.size();
  report.cells_recomputed =
      touched.size() * served.cube().axis_size(Dimension::kGroup);

  UnfairnessCube cube = served.cube();  // shares every chunk
  DeltaSink sink(&served.cube(), &cube, touched);
  FAIRJOB_RETURN_IF_ERROR(build_columns(touched, &sink));

  std::vector<CubeColumnRef> changed;
  for (size_t i = 0; i < touched.size(); ++i) {
    if (sink.changed(i)) changed.push_back(touched[i]);
  }
  report.columns_changed = changed.size();
  Metrics().columns_recomputed->Add(touched.size());
  Metrics().columns_unchanged->Add(touched.size() - changed.size());

  if (changed.empty()) {
    // Bitwise no-op (e.g. a re-crawl that observed the same rankings):
    // keep serving the current snapshot, keep every cache entry warm.
    return report;
  }

  Metrics().bumps->Add(changed.size());
  for (const CubeColumnRef& column : changed) {
    cube.BumpColumnEpoch(column.query_pos, column.location_pos);
  }
  IndexSet indices = served.indices();  // shares every list
  indices.RefreshColumns(cube, changed, parallelism);
  *snapshot = CubeSnapshot::MakeDerived(served, std::move(cube),
                                        std::move(indices), std::move(changed));
  report.published_new_snapshot = true;
  return report;
}

}  // namespace

Result<MarketplaceCubeMaintainer> MarketplaceCubeMaintainer::Make(
    MarketplaceDataset data, const GroupSpace& space, MarketMeasure measure,
    MeasureOptions options, CubeAxes axes, size_t parallelism) {
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveMarketplaceCubeAxes(data, space, axes));
  FAIRJOB_ASSIGN_OR_RETURN(
      UnfairnessCube cube,
      BuildMarketplaceCube(data, space, measure, options, resolved,
                           parallelism));
  MarketplaceCubeMaintainer maintainer(std::move(data), space, measure,
                                       std::move(options), std::move(resolved),
                                       parallelism);
  maintainer.snapshot_ = CubeSnapshot::Make(std::move(cube));
  return maintainer;
}

Result<UpsertReport> MarketplaceCubeMaintainer::UpsertCrawlBatch(
    const CrawlBatch& batch) {
  const UnfairnessCube& served = snapshot_->cube();

  // Validate the WHOLE batch before touching anything: a bad row must not
  // leave a half-applied batch behind.
  std::vector<CubeColumnRef> columns;
  columns.reserve(batch.rows.size());
  for (const CrawlBatchRow& row : batch.rows) {
    Result<size_t> query_pos = served.PosOf(Dimension::kQuery, row.query);
    if (!query_pos.ok()) {
      return Status::InvalidArgument(
          "crawl row query id " + std::to_string(row.query) +
          " is not on the cube axes (new queries need a cold rebuild)");
    }
    Result<size_t> location_pos =
        served.PosOf(Dimension::kLocation, row.location);
    if (!location_pos.ok()) {
      return Status::InvalidArgument(
          "crawl row location id " + std::to_string(row.location) +
          " is not on the cube axes (new locations need a cold rebuild)");
    }
    FAIRJOB_RETURN_IF_ERROR(data_.ValidateRanking(row.ranking));
    columns.push_back(CubeColumnRef{*query_pos, *location_pos});
  }

  // Apply in row order: the batch's last ranking for a cell wins, matching
  // "latest crawl wins" ingestion semantics.
  for (const CrawlBatchRow& row : batch.rows) {
    FAIRJOB_RETURN_IF_ERROR(
        data_.SetRanking(row.query, row.location, row.ranking));
  }

  // Cover any workers added since the table was built (a no-op for
  // ranking-only batches), then hand the up-to-date table to the delta
  // rebuild — touched columns probe bitmaps instead of relabeling the
  // population.
  membership_.Update(data_, space_);

  return ApplyColumnDelta(
      &snapshot_, batch.rows.size(), DedupColumns(std::move(columns)),
      parallelism_,
      [&](const std::vector<CubeColumnRef>& touched, CubeColumnSink* sink) {
        return BuildMarketplaceCubeColumns(data_, space_, membership_, measure_,
                                           options_, axes_, touched,
                                           parallelism_, sink);
      });
}

Result<SearchCubeMaintainer> SearchCubeMaintainer::Make(
    SearchDataset data, const GroupSpace& space, SearchMeasure measure,
    MeasureOptions options, CubeAxes axes, size_t parallelism) {
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveSearchCubeAxes(data, space, axes));
  FAIRJOB_ASSIGN_OR_RETURN(
      UnfairnessCube cube,
      BuildSearchCube(data, space, measure, options, resolved, parallelism));
  SearchCubeMaintainer maintainer(std::move(data), space, measure,
                                  std::move(options), std::move(resolved),
                                  parallelism);
  maintainer.snapshot_ = CubeSnapshot::Make(std::move(cube));
  return maintainer;
}

Result<UpsertReport> SearchCubeMaintainer::UpsertStudySnapshot(
    const StudySnapshot& snapshot) {
  const UnfairnessCube& served = snapshot_->cube();

  std::vector<CubeColumnRef> columns;
  columns.reserve(snapshot.cells.size());
  for (const StudySnapshotCell& cell : snapshot.cells) {
    Result<size_t> query_pos = served.PosOf(Dimension::kQuery, cell.query);
    if (!query_pos.ok()) {
      return Status::InvalidArgument(
          "study cell query id " + std::to_string(cell.query) +
          " is not on the cube axes (new queries need a cold rebuild)");
    }
    Result<size_t> location_pos =
        served.PosOf(Dimension::kLocation, cell.location);
    if (!location_pos.ok()) {
      return Status::InvalidArgument(
          "study cell location id " + std::to_string(cell.location) +
          " is not on the cube axes (new locations need a cold rebuild)");
    }
    FAIRJOB_RETURN_IF_ERROR(data_.ValidateObservations(cell.observations));
    columns.push_back(CubeColumnRef{*query_pos, *location_pos});
  }

  for (const StudySnapshotCell& cell : snapshot.cells) {
    FAIRJOB_RETURN_IF_ERROR(
        data_.SetObservations(cell.query, cell.location, cell.observations));
  }

  return ApplyColumnDelta(
      &snapshot_, snapshot.cells.size(), DedupColumns(std::move(columns)),
      parallelism_,
      [&](const std::vector<CubeColumnRef>& touched, CubeColumnSink* sink) {
        return BuildSearchCubeColumns(data_, space_, measure_, options_, axes_,
                                      touched, parallelism_, sink);
      });
}

}  // namespace fairjob
