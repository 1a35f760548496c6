#include "core/fagin_family.h"

#include <utility>

#include "core/fagin_dense.h"

namespace fairjob {
namespace {

// Checks caller-built lists before they are gathered; the engine validates
// the gathered selection itself.
Status ValidateLists(const std::vector<const InvertedIndex*>& lists, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (lists.empty()) {
    return Status::InvalidArgument("top-k needs at least one inverted list");
  }
  for (const InvertedIndex* list : lists) {
    if (list == nullptr) {
      return Status::InvalidArgument("null inverted list");
    }
    if (!list->valid()) {
      return Status::InvalidArgument(
          "inverted list was given a negative position");
    }
  }
  return Status::OK();
}

}  // namespace

const char* TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return "TA";
    case TopKAlgorithm::kFA:
      return "FA";
    case TopKAlgorithm::kNRA:
      return "NRA";
    case TopKAlgorithm::kScan:
      return "scan";
  }
  return "?";
}

Result<std::vector<ScoredEntry>> RunTopK(
    TopKAlgorithm algorithm, const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options, FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateLists(lists, options.k));
  std::vector<fagin_internal::Lane> lanes(1);
  fagin_internal::Lane& lane = lanes[0];
  lane.algorithm = algorithm;
  lane.options = options;
  if (stats != nullptr) lane.stats = *stats;
  std::vector<InvertedList> views;
  views.reserve(lists.size());
  for (const InvertedIndex* list : lists) views.push_back(*list);
  fagin_internal::RunLaneGroup(fagin_internal::GatherNonEmpty(std::move(views)),
                               &lanes, /*alone=*/true);
  if (stats != nullptr) *stats = lane.stats;
  if (!lane.status.ok()) return lane.status;
  return std::move(lane.entries);
}

}  // namespace fairjob
