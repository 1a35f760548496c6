#include "replay_site.h"

#include "bench.h"
#include "span.h"

namespace fairbench {

using fairjob::LocationId;
using fairjob::QueryId;
using fairjob::Result;
using fairjob::Status;

ReplaySite::ReplaySite(const fairjob::MarketplaceDataset* data)
    : data_(data), jobs_by_location_(data->locations().size()) {
  for (QueryId q = 0; q < static_cast<QueryId>(data->queries().size()); ++q) {
    for (LocationId l = 0;
         l < static_cast<LocationId>(data->locations().size()); ++l) {
      if (data->GetRanking(q, l) != nullptr) {
        jobs_by_location_[static_cast<size_t>(l)].push_back(
            data->queries().NameOf(q));
      }
    }
  }
}

std::vector<std::string> ReplaySite::Cities() const {
  std::vector<std::string> cities;
  for (size_t l = 0; l < data_->locations().size(); ++l) {
    cities.push_back(data_->locations().NameOf(static_cast<int32_t>(l)));
  }
  return cities;
}

std::vector<std::string> ReplaySite::JobsIn(const std::string& city) const {
  Result<int32_t> l = data_->locations().Find(city);
  if (!l.ok()) return {};
  return jobs_by_location_[static_cast<size_t>(*l)];
}

Result<fairjob::ResultPage> ReplaySite::FetchPage(const std::string& job,
                                                  const std::string& city,
                                                  size_t page,
                                                  size_t page_size) {
  Span span("market.site");
  Result<int32_t> q = data_->queries().Find(job);
  Result<int32_t> l = data_->locations().Find(city);
  if (!q.ok() || !l.ok()) return Status::NotFound("no such job: " + job);
  const fairjob::MarketRanking* ranking = data_->GetRanking(*q, *l);
  if (ranking == nullptr) return Status::NotFound("no such job: " + job);
  fairjob::ResultPage result;
  const size_t begin = std::min(page * page_size, ranking->workers.size());
  const size_t end = std::min(begin + page_size, ranking->workers.size());
  for (size_t i = begin; i < end; ++i) {
    result.worker_names.push_back(
        data_->workers().NameOf(ranking->workers[i]));
  }
  result.has_more = end < ranking->workers.size();
  return result;
}

Result<fairjob::RawProfile> ReplaySite::FetchProfile(
    const std::string& worker_name) {
  Span span("market.site");
  Result<int32_t> w = data_->workers().Find(worker_name);
  if (!w.ok()) return Status::NotFound("no such worker: " + worker_name);
  fairjob::RawProfile profile;
  profile.worker_name = worker_name;
  profile.picture_ref = worker_name;
  profile.hourly_rate = 20.0 + static_cast<double>(*w % 80);
  profile.num_reviews = *w % 500;
  return profile;
}

const fairjob::Demographics& ReplaySite::TruthOf(
    const std::string& picture_ref) const {
  return data_->worker_demographics(
      OrDie(data_->workers().Find(picture_ref), "picture lookup"));
}

SearchRuns MakeSearchRuns(const fairjob::SearchDataset& data,
                          size_t document_universe) {
  fairjob::Vocabulary documents;
  for (size_t d = 0; d < document_universe; ++d) {
    documents.GetOrAdd("d" + std::to_string(d));
  }
  SearchRuns out;
  out.runs = OrDie(fairjob::DatasetToSearchRunRecords(data, documents),
                   "search run records");
  for (size_t u = 0; u < data.num_users(); ++u) {
    out.demographics.emplace(data.users().NameOf(static_cast<int32_t>(u)),
                             data.user_demographics(static_cast<int32_t>(u)));
  }
  for (const fairjob::QueryLocation& ql : data.ObservedPairs()) {
    uint64_t n = data.GetObservations(ql.query, ql.location)->size();
    out.list_pairs += n * (n - 1) / 2;
  }
  return out;
}

}  // namespace fairbench
