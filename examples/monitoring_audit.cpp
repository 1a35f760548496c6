// Monitoring fairness over time. Platforms re-rank continuously; an auditor
// re-crawls periodically and wants fresh numbers without recomputing the
// whole cube. This example:
//   1. crawls epoch 0 of a simulated marketplace and builds a cube + index;
//   2. advances the marketplace one epoch (rankings shift) and re-crawls
//      only a subset of queries;
//   3. refreshes exactly those cube columns and inverted lists
//      (BuildMarketplaceCubeColumns into a CubeMaterializeSink +
//      IndexSet::RefreshColumns);
//   4. reports how the top-group ranking moved between epochs, with a
//      bootstrap CI to separate drift from resampling noise.
//
//   ./build/examples/monitoring_audit

#include <cstdio>

#include "core/quantification.h"
#include "core/trend.h"
#include "core/stats.h"
#include "crawl/dataset_assembly.h"
#include "market/taskrabbit_sim.h"

using namespace fairjob;

namespace {

template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::printf("FATAL %s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

// Crawl every (job, city) of `site` into a dataset (truth demographics).
MarketplaceDataset CrawlEpoch(SimulatedMarketplace* site) {
  VirtualClock clock;
  CrawlerConfig config;
  config.min_request_interval_s = 0;
  Crawler crawler(site, &clock, config);
  CrawlReport report = OrDie(crawler.CrawlAll(), "crawl");
  std::unordered_map<std::string, Demographics> demographics;
  for (const CrawlRecord& record : report.records) {
    demographics[record.worker_name] =
        OrDie(site->TrueDemographics(record.worker_name), "truth");
  }
  return OrDie(AssembleMarketplace(site->schema(), report.records,
                                   demographics),
               "assembly")
      .dataset;
}

}  // namespace

int main() {
  TaskRabbitConfig config;
  config.num_workers = 600;
  config.max_cities = 6;
  config.max_subjobs_per_category = 3;
  config.target_query_count = 1 << 20;
  std::unique_ptr<SimulatedMarketplace> site =
      OrDie(BuildTaskRabbitSite(config), "site");

  // --- Epoch 0: full audit ----------------------------------------------------
  MarketplaceDataset data = CrawlEpoch(site.get());
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  UnfairnessCube cube =
      OrDie(BuildMarketplaceCube(data, space, MarketMeasure::kEmd), "cube");
  IndexSet indices = IndexSet::Build(cube);

  auto top_group = [&](const UnfairnessCube& c, const IndexSet& idx) {
    QuantificationRequest request;
    request.target = Dimension::kGroup;
    request.k = 3;
    QuantificationResult result =
        OrDie(SolveQuantification(c, idx, request), "top-k");
    return result;
  };
  TrendTracker trend(Dimension::kGroup);
  if (!trend.RecordEpoch(cube).ok()) return 1;

  QuantificationResult epoch0 = top_group(cube, indices);
  std::printf("epoch 0 top groups:\n");
  for (const auto& answer : epoch0.answers) {
    std::printf("  %-14s %.3f\n",
                space.label(answer.id).DisplayName(space.schema()).c_str(),
                answer.value);
  }

  // --- Epoch 1: the market moves; re-crawl one city ---------------------------
  site->SetEpoch(1);
  std::string city = site->Cities()[0];
  LocationId l = OrDie(data.locations().Find(city), "city id");
  size_t l_pos = OrDie(cube.PosOf(Dimension::kLocation, l), "city pos");
  std::vector<CubeColumnRef> refreshed;
  for (const std::string& job : site->JobsIn(city)) {
    std::vector<size_t> ranking = OrDie(site->RankFor(job, city), "rank");
    MarketRanking fresh;
    size_t n = std::min<size_t>(ranking.size(), 50);
    for (size_t i = 0; i < n; ++i) {
      const std::string& name = site->worker(ranking[i]).name;
      Result<WorkerId> id = data.workers().Find(name);
      if (!id.ok()) {
        // A worker surfaced into the top-50 who was below the crawl cap in
        // epoch 0: label and register the new profile on the fly.
        id = data.AddWorker(name,
                            OrDie(site->TrueDemographics(name), "truth"));
      }
      fresh.workers.push_back(OrDie(std::move(id), "worker"));
    }
    QueryId q = OrDie(data.queries().Find(job), "query id");
    if (!data.SetRanking(q, l, std::move(fresh)).ok()) return 1;
    size_t q_pos = OrDie(cube.PosOf(Dimension::kQuery, q), "query pos");
    refreshed.push_back(CubeColumnRef{q_pos, l_pos});
  }
  // Re-evaluate just the re-crawled columns into the cube (the membership
  // table is built after the new workers were registered), then re-sync
  // the inverted lists those columns feed.
  MarketplaceGroupMembership membership(data, space);
  CubeMaterializeSink sink(&cube);
  if (!BuildMarketplaceCubeColumns(data, space, membership, MarketMeasure::kEmd,
                                   {}, {}, refreshed, /*parallelism=*/1, &sink)
           .ok()) {
    return 1;
  }
  indices.RefreshColumns(cube, refreshed);
  std::printf("\nepoch 1: re-crawled %zu queries in %s, refreshed %zu cube "
              "columns incrementally\n",
              refreshed.size(), city.c_str(), refreshed.size());

  QuantificationResult epoch1 = top_group(cube, indices);
  std::printf("epoch 1 top groups:\n");
  for (const auto& answer : epoch1.answers) {
    std::printf("  %-14s %.3f\n",
                space.label(answer.id).DisplayName(space.schema()).c_str(),
                answer.value);
  }

  if (!trend.RecordEpoch(cube).ok()) return 1;
  std::printf("\nlargest epoch-over-epoch drifts:\n");
  for (const TrendTracker::Drift& drift : OrDie(trend.TopDrifts(3), "drifts")) {
    std::printf("  %-14s %.3f -> %.3f (%+.4f)\n",
                space.label(static_cast<GroupId>(
                                cube.axis_id(Dimension::kGroup, drift.pos)))
                    .DisplayName(space.schema())
                    .c_str(),
                drift.from, drift.to, drift.delta());
  }
  std::printf("rank crossings between epochs: %zu\n",
              OrDie(trend.RankCrossings(), "crossings").size());

  // --- Is the movement real? ---------------------------------------------------
  Rng rng(2026);
  size_t pos = OrDie(cube.PosOf(Dimension::kGroup, epoch1.answers[0].id),
                     "group pos");
  ConfidenceInterval ci = OrDie(
      BootstrapAggregate(cube, Dimension::kGroup, pos, {}, {}, 500, 0.95,
                         &rng),
      "bootstrap");
  std::printf("\nepoch 1 leader %s: d = %.3f, 95%% CI [%.3f, %.3f] over %zu "
              "cells\n",
              space.label(epoch1.answers[0].id)
                  .DisplayName(space.schema())
                  .c_str(),
              ci.point, ci.lo, ci.hi, ci.cells);
  std::printf("(drift smaller than the CI width is resampling noise, not a "
              "fairness change)\n");
  return 0;
}
