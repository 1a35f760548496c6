// fairjob_cli — audit arbitrary marketplace crawls from the command line.
//
//   fairjob_cli audit   --crawl crawl.csv --workers workers.csv
//                       [--measure emd|exposure] [--out cube.csv]
//   fairjob_cli topk    --cube cube.csv --dim group|query|location
//                       [--k 5] [--least] [--algorithm ta|fa|nra|scan]
//   fairjob_cli explain --crawl crawl.csv --workers workers.csv
//                       --group "<display name>" --query <q> --location <l>
//                       [--measure emd|exposure]
//   fairjob_cli demo    (builds a small synthetic TaskRabbit world and runs
//                        an audit end to end)
//
// crawl.csv:   job,city,rank,worker        (1-based ranks, best first)
// workers.csv: worker,<attr>,<attr>,...    (schema inferred from the data)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <initializer_list>
#include <unordered_set>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/explain.h"
#include "core/coverage.h"
#include "core/report.h"
#include "core/trend.h"
#include "core/fbox.h"
#include "crawl/csv.h"
#include "crawl/cube_io.h"
#include "crawl/dataset_assembly.h"
#include "market/taskrabbit_sim.h"
#include "serve/quantification_service.h"

namespace fairjob {
namespace {

// Printed to stdout for `help`, to stderr (exit 2) for bad input.
int Usage(FILE* out, int code) {
  std::fprintf(
      out,
      "usage: fairjob_cli "
      "<audit|audit-search|topk|serve-bench|explain|trend|demo|help> [flags]\n"
      "  audit   --crawl <csv> --workers <csv> [--measure emd|exposure]\n"
      "          [--out cube.csv] [--report audit.md] [--k 5]\n"
      "          [--max-conjunction N]\n"
      "  topk    --cube <csv> --dim group|query|location [--k 5] [--least]\n"
      "          [--algorithm ta|fa|nra|scan]\n"
      "  serve-bench  [--cube <csv>] [--requests 2000] [--keyspace 24]\n"
      "          [--algorithm mix|ta|fa|nra|scan] [--batch 0]\n"
      "          [--cache-capacity 4096] [--cache-shards 8]\n"
      "          [--workers 400] [--cities 6] [--seed 7]\n"
      "  audit-search --runs <csv> --users <csv>\n"
      "          [--measure kendall|jaccard|footrule|rbo] [--report out.md]\n"
      "  trend   --cube <epoch0.csv> --cube2 <epoch1.csv> [--dim group]\n"
      "          [--k 5]\n"
      "  explain --crawl <csv> --workers <csv> --group <name>\n"
      "          --query <q> --location <l> [--measure emd|exposure]\n"
      "  demo\n"
      "observability (any command):\n"
      "  --metrics_json <path>  write counters/gauges/histograms as JSON\n"
      "  --trace_json <path>    write a Chrome trace_event timeline\n");
  return code;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Rejects flags the command does not understand (a typo'd flag silently
// falling back to its default is the worst failure mode a CLI can have).
// The observability flags are accepted everywhere.
Status RejectUnknownFlags(const Flags& flags,
                          std::initializer_list<const char*> allowed) {
  std::unordered_set<std::string> known = {"metrics_json", "trace_json"};
  for (const char* name : allowed) known.insert(name);
  for (const std::string& name : flags.Names()) {
    if (known.count(name) == 0) {
      return Status::InvalidArgument("unknown flag '--" + name + "'");
    }
  }
  return Status::OK();
}

Result<MarketMeasure> MeasureFromFlag(const Flags& flags) {
  std::string name = flags.GetString("measure", "emd");
  if (name == "emd") return MarketMeasure::kEmd;
  if (name == "exposure") return MarketMeasure::kExposure;
  return Status::InvalidArgument("unknown --measure '" + name + "'");
}

struct LoadedAudit {
  MarketplaceAssembly assembly;
  GroupSpace space;
};

Result<LoadedAudit> LoadAudit(const Flags& flags) {
  std::string crawl_path = flags.GetString("crawl");
  std::string workers_path = flags.GetString("workers");
  if (crawl_path.empty() || workers_path.empty()) {
    return Status::InvalidArgument("--crawl and --workers are required");
  }
  FAIRJOB_ASSIGN_OR_RETURN(auto crawl_rows, ReadCsvFile(crawl_path));
  FAIRJOB_ASSIGN_OR_RETURN(auto records, CrawlRecordsFromCsvRows(crawl_rows));
  FAIRJOB_ASSIGN_OR_RETURN(auto worker_rows, ReadCsvFile(workers_path));
  FAIRJOB_ASSIGN_OR_RETURN(WorkerTable table,
                           WorkerTableFromCsvRows(worker_rows));
  FAIRJOB_ASSIGN_OR_RETURN(
      MarketplaceAssembly assembly,
      AssembleMarketplace(table.schema, records, table.demographics));
  FAIRJOB_ASSIGN_OR_RETURN(long max_conjunction,
                           flags.GetInt("max-conjunction", 0));
  FAIRJOB_ASSIGN_OR_RETURN(
      GroupSpace space,
      max_conjunction > 0
          ? GroupSpace::EnumerateUpTo(assembly.dataset.schema(),
                                      static_cast<size_t>(max_conjunction))
          : GroupSpace::Enumerate(assembly.dataset.schema()));
  return LoadedAudit{std::move(assembly), std::move(space)};
}

void PrintTopK(const FBox& fbox, Dimension dim, size_t k,
               RankDirection direction) {
  Result<std::vector<FBox::NamedAnswer>> top = fbox.TopK(dim, k, direction);
  if (!top.ok()) {
    std::fprintf(stderr, "error: %s\n", top.status().ToString().c_str());
    return;
  }
  std::printf("%ss (%s first):\n", DimensionName(dim),
              direction == RankDirection::kMostUnfair ? "most unfair"
                                                      : "fairest");
  for (const auto& answer : *top) {
    std::printf("  %-30s %.4f\n", answer.name.c_str(), answer.value);
  }
}

int RunAudit(const Flags& flags) {
  Result<LoadedAudit> loaded = LoadAudit(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  Result<MarketMeasure> measure = MeasureFromFlag(flags);
  if (!measure.ok()) return Fail(measure.status());

  Result<FBox> fbox = FBox::ForMarketplace(&loaded->assembly.dataset,
                                           &loaded->space, *measure);
  if (!fbox.ok()) return Fail(fbox.status());

  std::printf("audit: %zu workers, %zu queries, %zu locations, "
              "%zu groups; cube %zu/%zu cells defined "
              "(%zu crawl records dropped: unlabeled workers)\n",
              loaded->assembly.dataset.num_workers(),
              loaded->assembly.dataset.queries().size(),
              loaded->assembly.dataset.locations().size(),
              loaded->space.num_groups(), fbox->cube().num_present(),
              fbox->cube().num_cells(), loaded->assembly.dropped_records);

  Result<CoverageReport> coverage =
      AnalyzeMarketplaceCoverage(loaded->assembly.dataset, loaded->space);
  if (coverage.ok()) {
    const AttributeSchema& schema = loaded->assembly.dataset.schema();
    for (GroupId g : coverage->low_support) {
      std::printf("warning: group '%s' averages %.1f members per result "
                  "list — its unfairness values are noise-dominated\n",
                  loaded->space.label(g).DisplayName(schema).c_str(),
                  coverage->groups[static_cast<size_t>(g)].mean_members);
    }
    for (GroupId g : coverage->absent) {
      std::printf("warning: group '%s' never appears in any result list\n",
                  loaded->space.label(g).DisplayName(schema).c_str());
    }
  }

  Result<long> k = flags.GetInt("k", 5);
  if (!k.ok()) return Fail(k.status());
  for (Dimension dim :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    PrintTopK(*fbox, dim, static_cast<size_t>(*k),
              RankDirection::kMostUnfair);
  }

  std::string report_path = flags.GetString("report");
  if (!report_path.empty()) {
    AuditReportOptions report_options;
    report_options.title = "Fairness audit (" +
                           std::string(MarketMeasureName(*measure)) + ")";
    if (coverage.ok()) report_options.coverage = &*coverage;
    Result<std::string> report = GenerateAuditReport(*fbox, report_options);
    if (!report.ok()) return Fail(report.status());
    FILE* f = std::fopen(report_path.c_str(), "wb");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot write '" + report_path + "'"));
    }
    std::fwrite(report->data(), 1, report->size(), f);
    std::fclose(f);
    std::printf("report written to %s\n", report_path.c_str());
  }

  std::string out = flags.GetString("out");
  if (!out.empty()) {
    struct NamerContext {
      const FBox* fbox;
    } context{&*fbox};
    AxisNamer namer = [](Dimension d, int32_t id, const void* raw) {
      return static_cast<const NamerContext*>(raw)->fbox->NameOf(d, id);
    };
    Status saved = SaveCube(out, fbox->cube(), namer, &context);
    if (!saved.ok()) return Fail(saved);
    std::printf("cube written to %s\n", out.c_str());
  }
  return 0;
}

int RunTopKCommand(const Flags& flags) {
  std::string cube_path = flags.GetString("cube");
  if (cube_path.empty()) return Fail(Status::InvalidArgument("--cube required"));
  Result<UnfairnessCube> cube = LoadCube(cube_path);
  if (!cube.ok()) return Fail(cube.status());
  Result<std::vector<std::vector<std::string>>> rows = ReadCsvFile(cube_path);
  if (!rows.ok()) return Fail(rows.status());
  Result<CubeNames> names = CubeNamesFromCsvRows(*rows);
  if (!names.ok()) return Fail(names.status());

  std::string dim_name = flags.GetString("dim", "group");
  Dimension dim;
  if (dim_name == "group") {
    dim = Dimension::kGroup;
  } else if (dim_name == "query") {
    dim = Dimension::kQuery;
  } else if (dim_name == "location") {
    dim = Dimension::kLocation;
  } else {
    return Fail(Status::InvalidArgument("unknown --dim '" + dim_name + "'"));
  }

  std::string algo_name = flags.GetString("algorithm", "ta");
  TopKAlgorithm algorithm;
  if (algo_name == "ta") {
    algorithm = TopKAlgorithm::kThresholdAlgorithm;
  } else if (algo_name == "fa") {
    algorithm = TopKAlgorithm::kFA;
  } else if (algo_name == "nra") {
    algorithm = TopKAlgorithm::kNRA;
  } else if (algo_name == "scan") {
    algorithm = TopKAlgorithm::kScan;
  } else {
    return Fail(
        Status::InvalidArgument("unknown --algorithm '" + algo_name + "'"));
  }

  Result<long> k = flags.GetInt("k", 5);
  if (!k.ok()) return Fail(k.status());

  IndexSet indices = IndexSet::Build(*cube);
  QuantificationRequest request;
  request.target = dim;
  request.k = static_cast<size_t>(*k);
  request.direction = flags.Has("least") ? RankDirection::kLeastUnfair
                                         : RankDirection::kMostUnfair;
  request.algorithm = algorithm;
  // NRA only supports kZero; keep the CLI ergonomic.
  if (algorithm == TopKAlgorithm::kNRA) {
    request.missing = MissingCellPolicy::kZero;
  }
  Result<QuantificationResult> result =
      SolveQuantification(*cube, indices, request);
  if (!result.ok()) return Fail(result.status());

  const std::vector<std::string>& axis_names =
      dim == Dimension::kGroup
          ? names->groups
          : (dim == Dimension::kQuery ? names->queries : names->locations);
  for (const QuantificationAnswer& answer : result->answers) {
    Result<size_t> pos = cube->PosOf(dim, answer.id);
    std::string name = pos.ok() && *pos < axis_names.size() &&
                               !axis_names[*pos].empty()
                           ? axis_names[*pos]
                           : ("#" + std::to_string(answer.id));
    std::printf("  %-30s %.4f\n", name.c_str(), answer.value);
  }
  std::printf("[%s: %zu sorted / %zu random accesses, %zu ids scored]\n",
              TopKAlgorithmName(algorithm), result->stats.sorted_accesses,
              result->stats.random_accesses, result->stats.ids_scored);
  return 0;
}

int RunExplain(const Flags& flags) {
  Result<LoadedAudit> loaded = LoadAudit(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  Result<MarketMeasure> measure = MeasureFromFlag(flags);
  if (!measure.ok()) return Fail(measure.status());

  std::string group_name = flags.GetString("group");
  std::string query_name = flags.GetString("query");
  std::string location_name = flags.GetString("location");
  if (group_name.empty() || query_name.empty() || location_name.empty()) {
    return Fail(Status::InvalidArgument(
        "--group, --query and --location are required"));
  }
  Result<GroupId> group = loaded->space.FindByDisplayName(group_name);
  if (!group.ok()) return Fail(group.status());
  Result<QueryId> query = loaded->assembly.dataset.queries().Find(query_name);
  if (!query.ok()) return Fail(query.status());
  Result<LocationId> location =
      loaded->assembly.dataset.locations().Find(location_name);
  if (!location.ok()) return Fail(location.status());

  Result<MarketTripleExplanation> explanation = ExplainMarketplaceTriple(
      loaded->assembly.dataset, loaded->space, *group, *query, *location,
      *measure);
  if (!explanation.ok()) return Fail(explanation.status());

  const AttributeSchema& schema = loaded->assembly.dataset.schema();
  std::printf("d<%s, %s, %s> = %.4f (%s)\n", group_name.c_str(),
              query_name.c_str(), location_name.c_str(), explanation->value,
              MarketMeasureName(*measure));
  std::printf("  %zu member(s) of %zu results, mean rank fraction %.2f\n",
              explanation->group_members, explanation->result_size,
              explanation->group_mean_rank_fraction);
  for (const ComparableContribution& c : explanation->comparables) {
    std::printf("  vs %-24s distance %.4f  (%zu member(s), mean rank "
                "fraction %.2f)\n",
                loaded->space.label(c.comparable).DisplayName(schema).c_str(),
                c.distance, c.members, c.mean_rank_fraction);
  }
  return 0;
}

Result<SearchMeasure> SearchMeasureFromFlag(const Flags& flags) {
  std::string name = flags.GetString("measure", "kendall");
  if (name == "kendall") return SearchMeasure::kKendallTau;
  if (name == "jaccard") return SearchMeasure::kJaccard;
  if (name == "footrule") return SearchMeasure::kFootrule;
  if (name == "rbo") return SearchMeasure::kRbo;
  return Status::InvalidArgument("unknown --measure '" + name + "'");
}

int RunAuditSearch(const Flags& flags) {
  std::string runs_path = flags.GetString("runs");
  std::string users_path = flags.GetString("users");
  if (runs_path.empty() || users_path.empty()) {
    return Fail(Status::InvalidArgument("--runs and --users are required"));
  }
  Result<SearchMeasure> measure = SearchMeasureFromFlag(flags);
  if (!measure.ok()) return Fail(measure.status());

  Result<std::vector<std::vector<std::string>>> run_rows =
      ReadCsvFile(runs_path);
  if (!run_rows.ok()) return Fail(run_rows.status());
  Result<std::vector<SearchRunRecord>> runs =
      SearchRunRecordsFromCsvRows(*run_rows);
  if (!runs.ok()) return Fail(runs.status());
  Result<std::vector<std::vector<std::string>>> user_rows =
      ReadCsvFile(users_path);
  if (!user_rows.ok()) return Fail(user_rows.status());
  Result<WorkerTable> users = WorkerTableFromCsvRows(*user_rows);
  if (!users.ok()) return Fail(users.status());

  Result<SearchAssembly> assembly =
      AssembleSearch(users->schema, *runs, users->demographics);
  if (!assembly.ok()) return Fail(assembly.status());
  Result<GroupSpace> space =
      GroupSpace::Enumerate(assembly->dataset.schema());
  if (!space.ok()) return Fail(space.status());
  Result<FBox> fbox = FBox::ForSearch(&assembly->dataset, &*space, *measure);
  if (!fbox.ok()) return Fail(fbox.status());

  std::printf("search audit (%s): %zu users, %zu queries, %zu locations; "
              "cube %zu/%zu cells defined (%zu runs dropped)\n",
              SearchMeasureName(*measure), assembly->dataset.num_users(),
              assembly->dataset.queries().size(),
              assembly->dataset.locations().size(),
              fbox->cube().num_present(), fbox->cube().num_cells(),
              assembly->dropped_runs);

  Result<long> k = flags.GetInt("k", 5);
  if (!k.ok()) return Fail(k.status());
  for (Dimension dim :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    PrintTopK(*fbox, dim, static_cast<size_t>(*k),
              RankDirection::kMostUnfair);
  }

  std::string report_path = flags.GetString("report");
  if (!report_path.empty()) {
    AuditReportOptions options;
    options.title = "Search fairness audit (" +
                    std::string(SearchMeasureName(*measure)) + ")";
    Result<std::string> report = GenerateAuditReport(*fbox, options);
    if (!report.ok()) return Fail(report.status());
    FILE* f = std::fopen(report_path.c_str(), "wb");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot write '" + report_path + "'"));
    }
    std::fwrite(report->data(), 1, report->size(), f);
    std::fclose(f);
    std::printf("report written to %s\n", report_path.c_str());
  }
  return 0;
}

int RunTrend(const Flags& flags) {
  std::string cube_path = flags.GetString("cube");
  std::string cube2_path = flags.GetString("cube2");
  if (cube_path.empty() || cube2_path.empty()) {
    return Fail(Status::InvalidArgument("--cube and --cube2 are required"));
  }
  Result<UnfairnessCube> epoch0 = LoadCube(cube_path);
  if (!epoch0.ok()) return Fail(epoch0.status());
  Result<UnfairnessCube> epoch1 = LoadCube(cube2_path);
  if (!epoch1.ok()) return Fail(epoch1.status());
  Result<std::vector<std::vector<std::string>>> rows = ReadCsvFile(cube_path);
  if (!rows.ok()) return Fail(rows.status());
  Result<CubeNames> names = CubeNamesFromCsvRows(*rows);
  if (!names.ok()) return Fail(names.status());

  std::string dim_name = flags.GetString("dim", "group");
  Dimension dim;
  const std::vector<std::string>* axis_names;
  if (dim_name == "group") {
    dim = Dimension::kGroup;
    axis_names = &names->groups;
  } else if (dim_name == "query") {
    dim = Dimension::kQuery;
    axis_names = &names->queries;
  } else if (dim_name == "location") {
    dim = Dimension::kLocation;
    axis_names = &names->locations;
  } else {
    return Fail(Status::InvalidArgument("unknown --dim '" + dim_name + "'"));
  }
  Result<long> k = flags.GetInt("k", 5);
  if (!k.ok()) return Fail(k.status());

  TrendTracker tracker(dim);
  Status recorded = tracker.RecordEpoch(*epoch0);
  if (recorded.ok()) recorded = tracker.RecordEpoch(*epoch1);
  if (!recorded.ok()) return Fail(recorded);

  auto name_of = [&](size_t pos) -> std::string {
    if (pos < axis_names->size() && !(*axis_names)[pos].empty()) {
      return (*axis_names)[pos];
    }
    return "#" + std::to_string(epoch0->axis_id(dim, pos));
  };

  Result<std::vector<TrendTracker::Drift>> drifts =
      tracker.TopDrifts(static_cast<size_t>(*k));
  if (!drifts.ok()) return Fail(drifts.status());
  std::printf("largest %s drifts between the two cubes:\n", dim_name.c_str());
  for (const TrendTracker::Drift& drift : *drifts) {
    std::printf("  %-30s %.4f -> %.4f (%+.4f)\n", name_of(drift.pos).c_str(),
                drift.from, drift.to, drift.delta());
  }
  Result<std::vector<std::pair<size_t, size_t>>> crossings =
      tracker.RankCrossings();
  if (!crossings.ok()) return Fail(crossings.status());
  if (crossings->empty()) {
    std::printf("no rank crossings.\n");
  } else {
    std::printf("rank crossings:\n");
    for (const auto& [a, b] : *crossings) {
      std::printf("  %s moved above %s\n", name_of(a).c_str(),
                  name_of(b).c_str());
    }
  }
  return 0;
}

int RunDemo() {
  TaskRabbitConfig config;
  config.num_workers = 400;
  config.max_cities = 6;
  config.max_subjobs_per_category = 2;
  config.target_query_count = 1 << 20;
  Result<TaskRabbitDataset> data = BuildTaskRabbitDataset(config);
  if (!data.ok()) return Fail(data.status());
  Result<GroupSpace> space = GroupSpace::Enumerate(data->dataset.schema());
  if (!space.ok()) return Fail(space.status());
  Result<FBox> fbox =
      FBox::ForMarketplace(&data->dataset, &*space, MarketMeasure::kEmd);
  if (!fbox.ok()) return Fail(fbox.status());
  std::printf("demo world: %zu workers, %zu queries x %zu cities\n",
              data->dataset.num_workers(), data->dataset.queries().size(),
              data->dataset.locations().size());
  PrintTopK(*fbox, Dimension::kGroup, 5, RankDirection::kMostUnfair);
  PrintTopK(*fbox, Dimension::kLocation, 3, RankDirection::kLeastUnfair);
  return 0;
}

Result<TopKAlgorithm> AlgorithmFromName(const std::string& name) {
  if (name == "ta") return TopKAlgorithm::kThresholdAlgorithm;
  if (name == "fa") return TopKAlgorithm::kFA;
  if (name == "nra") return TopKAlgorithm::kNRA;
  if (name == "scan") return TopKAlgorithm::kScan;
  return Status::InvalidArgument("unknown --algorithm '" + name + "'");
}

// serve-bench: throughput of the query-serving layer (docs/serving.md) over
// a skewed request mix — cold (cache off), hot (cache on, warmed) and
// batched (AnswerBatch) — against either a cube loaded from --cube or a
// synthetic TaskRabbit world.
int RunServeBench(const Flags& flags) {
  long requests = 0, keyspace = 0, batch = 0, capacity = 0, shards = 0,
       workers = 0, cities = 0, seed = 0;
  const struct {
    const char* name;
    long fallback;
    long* out;
  } int_flags[] = {
      {"requests", 2000, &requests},     {"keyspace", 24, &keyspace},
      {"batch", 0, &batch},              {"cache-capacity", 4096, &capacity},
      {"cache-shards", 8, &shards},      {"workers", 400, &workers},
      {"cities", 6, &cities},            {"seed", 7, &seed},
  };
  for (const auto& flag : int_flags) {
    Result<long> value = flags.GetInt(flag.name, flag.fallback);
    if (!value.ok()) return Fail(value.status());
    *flag.out = *value;
  }
  if (requests <= 0 || keyspace <= 0 || batch < 0 || capacity < 0 ||
      shards <= 0 || workers <= 0 || cities <= 0) {
    return Fail(Status::InvalidArgument(
        "--requests/--keyspace/--workers/--cities/--cache-shards must be "
        "positive; --batch/--cache-capacity non-negative"));
  }
  std::string algorithm_name = flags.GetString("algorithm", "mix");
  std::vector<TopKAlgorithm> algorithms;
  if (algorithm_name == "mix") {
    algorithms = {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
                  TopKAlgorithm::kNRA, TopKAlgorithm::kScan};
  } else {
    Result<TopKAlgorithm> algorithm = AlgorithmFromName(algorithm_name);
    if (!algorithm.ok()) return Fail(algorithm.status());
    algorithms = {*algorithm};
  }

  // Backend: loaded cube or synthetic demo world.
  std::unique_ptr<UnfairnessCube> cube;
  std::unique_ptr<TaskRabbitDataset> world;  // keeps the dataset alive
  std::string cube_path = flags.GetString("cube");
  if (!cube_path.empty()) {
    Result<UnfairnessCube> loaded = LoadCube(cube_path);
    if (!loaded.ok()) return Fail(loaded.status());
    cube = std::make_unique<UnfairnessCube>(*std::move(loaded));
  } else {
    TaskRabbitConfig config;
    config.num_workers = static_cast<size_t>(workers);
    config.max_cities = static_cast<size_t>(cities);
    config.max_subjobs_per_category = 2;
    Result<TaskRabbitDataset> data = BuildTaskRabbitDataset(config);
    if (!data.ok()) return Fail(data.status());
    world = std::make_unique<TaskRabbitDataset>(*std::move(data));
    Result<GroupSpace> space = GroupSpace::Enumerate(world->dataset.schema());
    if (!space.ok()) return Fail(space.status());
    Result<UnfairnessCube> built = BuildMarketplaceCube(
        world->dataset, *space, MarketMeasure::kEmd, MeasureOptions{},
        CubeAxes{}, std::thread::hardware_concurrency());
    if (!built.ok()) return Fail(built.status());
    cube = std::make_unique<UnfairnessCube>(*std::move(built));
  }
  IndexSet indices = IndexSet::Build(*cube);

  // Distinct request keyspace: target × direction × k × algorithm, trimmed
  // to --keyspace; the trace samples it with an 80/20-style skew.
  std::vector<QuantificationRequest> request_space;
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t aggregated_lists = cube->num_cells() / cube->axis_size(target);
    for (RankDirection direction :
         {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
      for (size_t k : {3u, 5u, 10u}) {
        for (TopKAlgorithm algorithm : algorithms) {
          // NRA's bounds only work top-down with zeroed missing cells, over
          // at most 64 aggregated lists.
          if (algorithm == TopKAlgorithm::kNRA &&
              (direction == RankDirection::kLeastUnfair ||
               aggregated_lists > 64)) {
            continue;
          }
          QuantificationRequest request;
          request.target = target;
          request.k = k;
          request.direction = direction;
          request.algorithm = algorithm;
          // kZero keeps NRA eligible, so "mix" compares all four members.
          request.missing = MissingCellPolicy::kZero;
          request_space.push_back(request);
        }
      }
    }
  }
  if (request_space.size() > static_cast<size_t>(keyspace)) {
    request_space.resize(static_cast<size_t>(keyspace));
  }
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<QuantificationRequest> trace;
  trace.reserve(static_cast<size_t>(requests));
  for (long i = 0; i < requests; ++i) {
    double u = rng.NextDouble();
    trace.push_back(
        request_space[static_cast<size_t>(u * u * request_space.size())]);
  }

  auto run_pass = [&](QuantificationService& service,
                      const char* name) -> Result<double> {
    auto start = std::chrono::steady_clock::now();
    if (batch > 0) {
      for (size_t i = 0; i < trace.size(); i += static_cast<size_t>(batch)) {
        size_t end = std::min(trace.size(), i + static_cast<size_t>(batch));
        std::vector<QuantificationRequest> chunk(trace.begin() + i,
                                                 trace.begin() + end);
        for (const auto& result : service.AnswerBatch(chunk)) {
          if (!result.ok()) return result.status();
        }
      }
    } else {
      for (const QuantificationRequest& request : trace) {
        Result<QuantificationResult> result = service.Answer(request);
        if (!result.ok()) return result.status();
      }
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    double qps = ms > 0 ? 1000.0 * static_cast<double>(trace.size()) / ms : 0;
    QuantificationService::Stats stats = service.stats();
    std::printf("  %-14s %8.2f ms  %10.0f req/s  (computed %llu of %llu)\n",
                name, ms, qps,
                static_cast<unsigned long long>(stats.computations),
                static_cast<unsigned long long>(stats.requests));
    return qps;
  };

  std::printf("serve-bench: %zu distinct requests, trace of %ld, cube %zu "
              "cells, cache capacity %ld (%ld shards)%s\n",
              request_space.size(), requests, cube->num_cells(), capacity,
              shards,
              batch > 0 ? ", batched" : "");

  QuantificationService::Options cold_options;
  cold_options.cache_capacity = 0;
  QuantificationService cold(CubeSnapshot::Borrow(cube.get(), &indices),
                            cold_options);
  Result<double> cold_qps = run_pass(cold, "cold (no cache)");
  if (!cold_qps.ok()) return Fail(cold_qps.status());

  QuantificationService::Options hot_options;
  hot_options.cache_capacity = static_cast<size_t>(capacity);
  hot_options.cache_shards = static_cast<size_t>(shards);
  QuantificationService hot(CubeSnapshot::Borrow(cube.get(), &indices),
                            hot_options);
  for (const QuantificationRequest& request : request_space) {
    Result<QuantificationResult> warmed = hot.Answer(request);  // warm
    if (!warmed.ok()) return Fail(warmed.status());
  }
  Result<double> hot_qps = run_pass(hot, "hot (cached)");
  if (!hot_qps.ok()) return Fail(hot_qps.status());

  auto cache = hot.cache_stats();
  std::printf("  cache: %llu hits / %llu lookups, %llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.lookups),
              static_cast<unsigned long long>(cache.evictions));
  if (*cold_qps > 0) {
    std::printf("  hot/cold speedup: %.1fx\n", *hot_qps / *cold_qps);
  }
  return 0;
}

int WriteFileOr(const std::string& path, const std::string& body,
                const char* what) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Fail(Status::IOError("cannot write '" + path + "'"));
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("%s written to %s\n", what, path.c_str());
  return 0;
}

int Dispatch(const std::string& command, const Flags& flags) {
  // Each command declares the flags it understands; anything else is a typo
  // and fails loudly (exit 1) rather than silently using defaults.
  struct CommandSpec {
    const char* name;
    int (*run)(const Flags&);
    std::initializer_list<const char*> allowed;
  };
  static const CommandSpec kCommands[] = {
      {"audit", RunAudit,
       {"crawl", "workers", "measure", "out", "report", "k",
        "max-conjunction"}},
      {"audit-search", RunAuditSearch,
       {"runs", "users", "measure", "report", "k"}},
      {"trend", RunTrend, {"cube", "cube2", "dim", "k"}},
      {"topk", RunTopKCommand, {"cube", "dim", "k", "least", "algorithm"}},
      {"serve-bench", RunServeBench,
       {"cube", "requests", "keyspace", "algorithm", "batch", "cache-capacity",
        "cache-shards", "workers", "cities", "seed"}},
      {"explain", RunExplain,
       {"crawl", "workers", "group", "query", "location", "measure"}},
  };
  for (const CommandSpec& spec : kCommands) {
    if (command == spec.name) {
      Status flags_ok = RejectUnknownFlags(flags, spec.allowed);
      if (!flags_ok.ok()) {
        int code = Fail(flags_ok);
        Usage(stderr, code);
        return code;
      }
      return spec.run(flags);
    }
  }
  if (command == "demo") {
    Status flags_ok = RejectUnknownFlags(flags, {});
    if (!flags_ok.ok()) {
      int code = Fail(flags_ok);
      Usage(stderr, code);
      return code;
    }
    return RunDemo();
  }
  if (command == "help" || command == "--help" || command == "-h") {
    return Usage(stdout, 0);
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return Usage(stderr, 2);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "error: no command given\n");
    return Usage(stderr, 2);
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  Result<Flags> flags = Flags::Parse(args);
  if (!flags.ok()) return Fail(flags.status());

  // Observability hooks: enable collection before the command runs, export
  // after it finishes (whatever its exit code, so failed runs still leave a
  // timeline behind).
  std::string metrics_path = flags->GetString("metrics_json");
  std::string trace_path = flags->GetString("trace_json");
  if (!metrics_path.empty()) MetricsRegistry::Global().SetEnabled(true);
  if (!trace_path.empty()) Tracer::Global().SetEnabled(true);

  int code = Dispatch(argv[1], *flags);

  if (!metrics_path.empty()) {
    int wrote = WriteFileOr(metrics_path, MetricsRegistry::Global().ToJson(),
                            "metrics");
    if (code == 0) code = wrote;
  }
  if (!trace_path.empty()) {
    int wrote = WriteFileOr(trace_path, Tracer::Global().ToJson(), "trace");
    if (code == 0) code = wrote;
  }
  return code;
}

}  // namespace
}  // namespace fairjob

int main(int argc, char** argv) { return fairjob::Main(argc, argv); }
