// End-to-end pipelines at reduced scale: the paper's Figure 6 (TaskRabbit
// crawl -> AMT labeling -> F-Box) and Figure 9 (user study -> F-Box) flows.

#include <gtest/gtest.h>

#include <memory>

#include "core/fbox.h"
#include "core/quantification.h"
#include "crawl/dataset_assembly.h"
#include "crawl/labeling.h"
#include "market/taskrabbit_sim.h"
#include "search/google_sim.h"

namespace fairjob {
namespace {

TaskRabbitConfig SmallConfig() {
  TaskRabbitConfig config;
  config.num_workers = 300;
  config.max_cities = 3;
  config.max_subjobs_per_category = 1;
  config.target_query_count = 1000000;
  return config;
}

TEST(Figure6PipelineTest, CrawlLabelAssembleQuantify) {
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(SmallConfig());

  // 1. Crawl the site.
  VirtualClock clock;
  CrawlerConfig crawl_config;
  crawl_config.min_request_interval_s = 0;
  Crawler crawler(site.get(), &clock, crawl_config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed_queries, 0u);
  EXPECT_FALSE(report->records.empty());

  // 2. Collect profiles.
  ProfileStore store;
  ASSERT_TRUE(crawler.CollectProfiles(report->records, &store, nullptr).ok());

  // 3. Label demographics from "profile pictures" via simulated AMT.
  std::vector<Demographics> truths;
  std::vector<std::string> names;
  for (const RawProfile& profile : store.profiles()) {
    truths.push_back(*site->TruthByPicture(profile.picture_ref));
    names.push_back(profile.worker_name);
  }
  Rng rng(1234);
  LabelingConfig label_config;
  label_config.error_rate = 0.03;
  Result<LabelingOutcome> labeled =
      RunLabeling(site->schema(), truths, label_config, &rng);
  ASSERT_TRUE(labeled.ok());
  EXPECT_GT(labeled->attribute_accuracy, 0.98);

  std::unordered_map<std::string, Demographics> demographics;
  for (size_t i = 0; i < names.size(); ++i) {
    demographics[names[i]] = labeled->labels[i];
  }

  // 4. Assemble the dataset and run the F-Box.
  Result<MarketplaceAssembly> assembly =
      AssembleMarketplace(site->schema(), report->records, demographics);
  ASSERT_TRUE(assembly.ok());
  GroupSpace space = *GroupSpace::Enumerate(assembly->dataset.schema());
  Result<FBox> fbox =
      FBox::ForMarketplace(&assembly->dataset, &space, MarketMeasure::kEmd);
  ASSERT_TRUE(fbox.ok());

  Result<std::vector<FBox::NamedAnswer>> top = fbox->TopK(Dimension::kGroup, 3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 3u);
  // The injected bias makes Asian groups the most discriminated against
  // (EMD tracks the injected penalties most directly; see EXPERIMENTS.md).
  EXPECT_TRUE((*top)[0].name.find("Asian") != std::string::npos)
      << (*top)[0].name;
}

TEST(Figure6PipelineTest, CrawledDatasetMatchesDirectDataset) {
  TaskRabbitConfig config = SmallConfig();
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);

  VirtualClock clock;
  CrawlerConfig crawl_config;
  crawl_config.min_request_interval_s = 0;
  Crawler crawler(site.get(), &clock, crawl_config);
  CrawlReport report = *crawler.CrawlAll();
  std::unordered_map<std::string, Demographics> demographics;
  for (const CrawlRecord& record : report.records) {
    demographics[record.worker_name] =
        *site->TrueDemographics(record.worker_name);
  }
  MarketplaceAssembly assembly =
      *AssembleMarketplace(site->schema(), report.records, demographics);

  TaskRabbitDataset direct = *BuildTaskRabbitDataset(config);

  // Same rankings through both routes (crawl truncates to 50, as direct).
  for (const std::string& city : site->Cities()) {
    for (const std::string& job : site->JobsIn(city)) {
      const MarketRanking* crawled = assembly.dataset.GetRanking(
          *assembly.dataset.queries().Find(job),
          *assembly.dataset.locations().Find(city));
      const MarketRanking* built = direct.dataset.GetRanking(
          *direct.dataset.queries().Find(job),
          *direct.dataset.locations().Find(city));
      ASSERT_NE(crawled, nullptr);
      ASSERT_NE(built, nullptr);
      ASSERT_EQ(crawled->workers.size(), built->workers.size());
      for (size_t i = 0; i < crawled->workers.size(); ++i) {
        EXPECT_EQ(assembly.dataset.workers().NameOf(crawled->workers[i]),
                  direct.dataset.workers().NameOf(built->workers[i]));
      }
    }
  }
}

TEST(Figure6PipelineTest, CrawlSurvivesTransientFailures) {
  TaskRabbitConfig config = SmallConfig();
  config.transient_failure_rate = 0.3;
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);
  VirtualClock clock;
  CrawlerConfig crawl_config;
  crawl_config.min_request_interval_s = 0;
  crawl_config.max_retries = 12;
  Crawler crawler(site.get(), &clock, crawl_config);
  Result<CrawlReport> report = crawler.CrawlAll();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed_queries, 0u);
  EXPECT_GT(report->retries, 0u);
  // Retried crawl sees exactly the same rankings (determinism).
  TaskRabbitConfig clean = SmallConfig();
  std::unique_ptr<SimulatedMarketplace> clean_site = *BuildTaskRabbitSite(clean);
  VirtualClock clock2;
  Crawler clean_crawler(clean_site.get(), &clock2, crawl_config);
  CrawlReport clean_report = *clean_crawler.CrawlAll();
  ASSERT_EQ(report->records.size(), clean_report.records.size());
  for (size_t i = 0; i < clean_report.records.size(); ++i) {
    EXPECT_EQ(report->records[i].worker_name,
              clean_report.records[i].worker_name);
  }
}

TEST(Figure9PipelineTest, GoogleStudyThroughFBox) {
  GoogleStudyConfig config;
  config.users_per_cell = 2;
  config.formulations_per_query = 2;
  Result<GoogleWorld> world = BuildGoogleStudy(config);
  ASSERT_TRUE(world.ok());
  GroupSpace space = *GroupSpace::Enumerate(world->dataset.schema());
  Result<FBox> fbox =
      FBox::ForSearch(&world->dataset, &space, SearchMeasure::kKendallTau);
  ASSERT_TRUE(fbox.ok());

  // Group axis: the measure is defined on cells where the group and a
  // comparable group both have observations; all users run all tasks, so
  // all 11 groups have values.
  Result<std::vector<FBox::NamedAnswer>> top =
      fbox->TopK(Dimension::kGroup, 11);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 11u);
  for (const auto& answer : *top) {
    EXPECT_GE(answer.value, 0.0);
    EXPECT_LE(answer.value, 1.0);
  }
}

TEST(MonitoringPipelineTest, IncrementalRefreshMatchesFreshAuditAcrossEpochs) {
  // The monitoring loop: epoch 0 audit, epoch 1 partial re-crawl with
  // incremental cube/index refresh — and the incremental state must agree
  // exactly with a from-scratch audit of the updated dataset.
  TaskRabbitConfig config = SmallConfig();
  std::unique_ptr<SimulatedMarketplace> site = *BuildTaskRabbitSite(config);

  TaskRabbitDataset built = *BuildTaskRabbitDataset(config);
  MarketplaceDataset& data = built.dataset;
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  UnfairnessCube cube =
      *BuildMarketplaceCube(data, space, MarketMeasure::kEmd);
  IndexSet indices = IndexSet::Build(cube);

  site->SetEpoch(1);
  std::string city = site->Cities()[1];
  LocationId l = *data.locations().Find(city);
  size_t l_pos = *cube.PosOf(Dimension::kLocation, l);
  std::vector<CubeColumnRef> refreshed;
  for (const std::string& job : site->JobsIn(city)) {
    std::vector<size_t> ranking = *site->RankFor(job, city);
    MarketRanking fresh;
    size_t n = std::min<size_t>(ranking.size(), 50);
    for (size_t i = 0; i < n; ++i) {
      const std::string& name = site->worker(ranking[i]).name;
      Result<WorkerId> id = data.workers().Find(name);
      if (!id.ok()) {
        id = data.AddWorker(name, *site->TrueDemographics(name));
      }
      fresh.workers.push_back(*id);
    }
    QueryId q = *data.queries().Find(job);
    ASSERT_TRUE(data.SetRanking(q, l, std::move(fresh)).ok());
    refreshed.push_back(
        CubeColumnRef{*cube.PosOf(Dimension::kQuery, q), l_pos});
  }
  MarketplaceGroupMembership membership(data, space);
  CubeMaterializeSink sink(&cube);
  ASSERT_TRUE(BuildMarketplaceCubeColumns(data, space, membership,
                                          MarketMeasure::kEmd, {}, {},
                                          refreshed, /*parallelism=*/2, &sink)
                  .ok());
  indices.RefreshColumns(cube, refreshed);

  // Fresh audit of the same updated dataset.
  UnfairnessCube rebuilt =
      *BuildMarketplaceCube(data, space, MarketMeasure::kEmd);
  IndexSet rebuilt_indices = IndexSet::Build(rebuilt);
  ASSERT_EQ(cube.num_present(), rebuilt.num_present());

  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    QuantificationRequest request;
    request.target = target;
    request.k = 5;
    QuantificationResult incremental =
        *SolveQuantification(cube, indices, request);
    QuantificationResult fresh =
        *SolveQuantification(rebuilt, rebuilt_indices, request);
    ASSERT_EQ(incremental.answers.size(), fresh.answers.size());
    for (size_t i = 0; i < fresh.answers.size(); ++i) {
      EXPECT_EQ(incremental.answers[i].id, fresh.answers[i].id)
          << DimensionName(target) << " rank " << i;
      EXPECT_NEAR(incremental.answers[i].value, fresh.answers[i].value, 1e-12);
    }
  }
}

TEST(HypothesisTransferTest, MarketAndSearchAgreeOnSchemaAndGroups) {
  // Section 6: hypotheses generated on TaskRabbit are tested on Google; the
  // group space must be interoperable.
  AttributeSchema tr = TaskRabbitSchema();
  AttributeSchema gg = GoogleSchema();
  ASSERT_EQ(tr.num_attributes(), gg.num_attributes());
  for (size_t a = 0; a < tr.num_attributes(); ++a) {
    EXPECT_EQ(tr.attribute_name(static_cast<AttributeId>(a)),
              gg.attribute_name(static_cast<AttributeId>(a)));
    EXPECT_EQ(tr.num_values(static_cast<AttributeId>(a)),
              gg.num_values(static_cast<AttributeId>(a)));
  }
  GroupSpace tr_space = *GroupSpace::Enumerate(tr);
  GroupSpace gg_space = *GroupSpace::Enumerate(gg);
  ASSERT_EQ(tr_space.num_groups(), gg_space.num_groups());
  for (size_t g = 0; g < tr_space.num_groups(); ++g) {
    EXPECT_EQ(tr_space.label(static_cast<GroupId>(g)).DisplayName(tr),
              gg_space.label(static_cast<GroupId>(g)).DisplayName(gg));
  }
}

}  // namespace
}  // namespace fairjob
