#include "core/quantification.h"

#include <algorithm>
#include <string>

namespace fairjob {
namespace {

Status ValidateSelector(const AxisSelector& sel, size_t size,
                        const char* which) {
  for (size_t pos : sel.positions) {
    if (pos >= size) {
      return Status::InvalidArgument(std::string("selector '") + which +
                                     "' position " + std::to_string(pos) +
                                     " out of range");
    }
  }
  return Status::OK();
}

}  // namespace

void QuantificationOtherDims(Dimension target, Dimension* d1, Dimension* d2) {
  switch (target) {
    case Dimension::kGroup:
      *d1 = Dimension::kQuery;
      *d2 = Dimension::kLocation;
      return;
    case Dimension::kQuery:
      *d1 = Dimension::kGroup;
      *d2 = Dimension::kLocation;
      return;
    case Dimension::kLocation:
    default:
      *d1 = Dimension::kGroup;
      *d2 = Dimension::kQuery;
      return;
  }
}

AxisSelector CanonicalSelector(const AxisSelector& selector) {
  AxisSelector canonical = selector;
  std::sort(canonical.positions.begin(), canonical.positions.end());
  return canonical;
}

Status ValidateQuantificationRequest(const UnfairnessCube& cube,
                                     const QuantificationRequest& request) {
  Dimension d1;
  Dimension d2;
  QuantificationOtherDims(request.target, &d1, &d2);
  FAIRJOB_RETURN_IF_ERROR(
      ValidateSelector(request.agg1, cube.axis_size(d1), "agg1"));
  FAIRJOB_RETURN_IF_ERROR(
      ValidateSelector(request.agg2, cube.axis_size(d2), "agg2"));
  for (int32_t t : request.allowed_targets) {
    if (t < 0 || static_cast<size_t>(t) >= cube.axis_size(request.target)) {
      return Status::InvalidArgument("allowed target position " +
                                     std::to_string(t) + " out of range");
    }
  }
  return Status::OK();
}

}  // namespace fairjob
