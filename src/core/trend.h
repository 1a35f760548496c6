#ifndef FAIRJOB_CORE_TREND_H_
#define FAIRJOB_CORE_TREND_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/unfairness_cube.h"

namespace fairjob {

// Longitudinal fairness monitoring: snapshots of a dimension's aggregate
// unfairness across audit epochs (re-crawls), with drift and rank-crossing
// detection between consecutive epochs. Complements the incremental
// refresh path (BuildMarketplaceCubeColumns into a CubeMaterializeSink, then
// IndexSet::RefreshColumns).
class TrendTracker {
 public:
  // Tracks the `dim` axis; positions refer to that axis of the recorded
  // cubes, which must all share its size.
  explicit TrendTracker(Dimension dim = Dimension::kGroup) : dim_(dim) {}

  // Appends one epoch: every axis position's aggregate over the other two
  // dimensions (undefined aggregates recorded as absent). Errors:
  // InvalidArgument when the cube's axis size disagrees with prior epochs.
  Status RecordEpoch(const UnfairnessCube& cube);

  Dimension dimension() const { return dim_; }
  size_t num_epochs() const { return epochs_.size(); }
  size_t axis_size() const {
    return epochs_.empty() ? 0 : epochs_.front().size();
  }

  // The recorded series for one axis position (one entry per epoch).
  std::vector<std::optional<double>> Series(size_t pos) const;

  struct Drift {
    size_t pos = 0;
    double from = 0.0;
    double to = 0.0;
    double delta() const { return to - from; }
  };

  // The k largest absolute changes between the last two epochs (positions
  // undefined in either epoch are skipped). Errors: FailedPrecondition with
  // fewer than two epochs.
  Result<std::vector<Drift>> TopDrifts(size_t k) const;

  // Pairs (a, b) whose relative unfairness order inverted between the last
  // two epochs (a was strictly below b, now strictly above) — the
  // longitudinal cousin of Problem 2's reversals. Errors: FailedPrecondition
  // with fewer than two epochs.
  Result<std::vector<std::pair<size_t, size_t>>> RankCrossings() const;

 private:
  Dimension dim_;
  std::vector<std::vector<std::optional<double>>> epochs_;
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_TREND_H_
