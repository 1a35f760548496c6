#ifndef FAIRJOB_CORE_QUANTIFICATION_H_
#define FAIRJOB_CORE_QUANTIFICATION_H_

#include <vector>

#include "common/status.h"
#include "core/fagin.h"
#include "core/fagin_family.h"
#include "core/indices.h"
#include "core/unfairness_cube.h"

namespace fairjob {

// Problem 1 (Fairness Quantification): return the k values of the `target`
// dimension for which the site is most (or least) unfair, aggregating the
// other two dimensions.
struct QuantificationRequest {
  Dimension target = Dimension::kGroup;
  size_t k = 5;
  RankDirection direction = RankDirection::kMostUnfair;
  MissingCellPolicy missing = MissingCellPolicy::kSkip;
  // Restrict the aggregated dimensions (positions on those cube axes; empty
  // = all). `agg1` is the lower-numbered of the two non-target dimensions —
  // e.g. for target kQuery, agg1 selects groups, agg2 selects locations.
  AxisSelector agg1;
  AxisSelector agg2;
  // Restrict the candidate set on the target axis (empty = all).
  std::vector<int32_t> allowed_targets;
  // Which member of the Fagin family answers the request (all return the
  // same top-k up to ties; they differ in sorted/random access counts).
  TopKAlgorithm algorithm = TopKAlgorithm::kThresholdAlgorithm;
};

struct QuantificationAnswer {
  int32_t id;    // the group/query/location id (cube axis id, not position)
  double value;  // aggregated unfairness d<r, ·, ·>
};

struct QuantificationResult {
  std::vector<QuantificationAnswer> answers;  // best-first for the direction
  FaginStats stats;
};

// The two non-target dimensions of `target`, ascending Dimension order —
// the agg1/agg2 convention shared by SolveQuantification, the cache key and
// the batched executor.
void QuantificationOtherDims(Dimension target, Dimension* d1, Dimension* d2);

// The canonical order of an aggregation selector: positions ascending,
// duplicates kept — the form RequestCacheKey normalizes to. Both solvers
// gather lists in this order, so an answer depends only on the selector
// multisets, never on how the caller ordered them.
AxisSelector CanonicalSelector(const AxisSelector& selector);

// Request-shape validation against the cube's axis sizes: selector and
// allowed-target positions must be in range. Exactly the checks (and
// messages) SolveQuantification applies before touching the indices; shared
// with SolveQuantificationBatch so both paths reject identically.
Status ValidateQuantificationRequest(const UnfairnessCube& cube,
                                     const QuantificationRequest& request);

// Solves Problem 1 against a cube and its pre-built indices: one lane of
// the batch engine (quantification_batch.h), run alone. Errors:
// InvalidArgument on malformed requests (k = 0, selector positions out of
// range).
Result<QuantificationResult> SolveQuantification(
    const UnfairnessCube& cube, const IndexSet& indices,
    const QuantificationRequest& request);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_QUANTIFICATION_H_
