#ifndef FAIRJOB_PERFBENCH_REPLAY_SITE_H_
#define FAIRJOB_PERFBENCH_REPLAY_SITE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/attribute_schema.h"
#include "core/data_model.h"
#include "crawl/crawler.h"
#include "crawl/dataset_assembly.h"

namespace fairbench {

// The simulated outside world for the audit workload. Both classes are built
// during set-up from generated data; every call the library makes into them
// is recorded as a `market.site` span so its cost stays out of `crawl.*`.

// A marketplace that replays a generated MarketplaceDataset page by page:
// every observed (query, location) ranking is a job offered in that city,
// and every worker has a profile whose picture stands for the worker's true
// demographics (the labeling stage's ground truth).
class ReplaySite final : public fairjob::MarketplaceSite {
 public:
  explicit ReplaySite(const fairjob::MarketplaceDataset* data);

  std::vector<std::string> Cities() const override;
  std::vector<std::string> JobsIn(const std::string& city) const override;
  fairjob::Result<fairjob::ResultPage> FetchPage(const std::string& job,
                                                 const std::string& city,
                                                 size_t page,
                                                 size_t page_size) override;
  fairjob::Result<fairjob::RawProfile> FetchProfile(
      const std::string& worker_name) override;

  // What the picture behind `picture_ref` shows (for the annotators).
  const fairjob::Demographics& TruthOf(const std::string& picture_ref) const;

 private:
  const fairjob::MarketplaceDataset* data_;
  std::vector<std::vector<std::string>> jobs_by_location_;
};

// The Google study's raw output: one run record per observation of a
// generated search dataset (documents named by id), plus the demographics
// the study recorded for every participant.
struct SearchRuns {
  std::vector<fairjob::SearchRunRecord> runs;
  std::unordered_map<std::string, fairjob::Demographics> demographics;
  // Σ over observed cells of n(n−1)/2, n = lists observed in the cell: the
  // list pairs one search-cube build compares.
  uint64_t list_pairs = 0;
};

SearchRuns MakeSearchRuns(const fairjob::SearchDataset& data,
                          size_t document_universe);

}  // namespace fairbench

#endif  // FAIRJOB_PERFBENCH_REPLAY_SITE_H_
