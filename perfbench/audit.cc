// Workload `audit`: the paper's pipeline as one closed pass in one process.
//
// Why this workload: it is the only one that runs the build side end to end
// (crawl → label → assemble → sharded build → binary persist → mmap load →
// index → Problem 1/2 report), so the `crawl`, `core` builder and `ranking`
// layers do most of its work and `serve` does none. The Problem 1 set is kept
// small enough that the query engine is a minority of the market leg, but it
// includes requests over more than 64 inverted lists (every unrestricted
// request on this cube has far more), so NRA's list cap shows as failures.
//
// Marketplace leg: bench_scale's full shape (1M workers, 10k queries, 50
// locations, 20k ranked columns, 119 groups) crawled through a replay site
// with the paper's 50-result cap, then the EMD and exposure cubes.
// Search leg: a generated Google-style study (2048 users, 384 observed cells,
// 96 lists per cell) assembled from run records, then the Kendall-Tau and
// Jaccard cubes.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/virtual_clock.h"
#include "core/comparison.h"
#include "core/fagin_family.h"
#include "core/group_space.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "crawl/crawler.h"
#include "crawl/cube_io.h"
#include "crawl/dataset_assembly.h"
#include "crawl/labeling.h"
#include "crawl/profile_store.h"
#include "market/scale_gen.h"
#include "oracle.h"
#include "replay_site.h"
#include "span.h"

namespace fairbench {
namespace {

using namespace fairjob;  // NOLINT: the benchmark drives the whole library

constexpr size_t kSetupRepeats = 3;
constexpr size_t kSearchUniverse = 2048;
const TopKAlgorithm kAlgorithms[] = {
    TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
    TopKAlgorithm::kNRA, TopKAlgorithm::kScan};
const char* const kAlgorithmKeys[] = {"ta", "fa", "nra", "scan"};

ScaleSpec MarketSpec(uint64_t seed) {
  ScaleSpec spec;
  spec.seed = seed;
  spec.num_workers = 1'000'000;
  spec.num_queries = 10'000;
  spec.num_locations = 50;
  spec.num_ranked_columns = 20'000;
  return spec;
}

SearchScaleSpec SearchSpec(uint64_t seed) {
  SearchScaleSpec spec;
  spec.seed = seed;
  spec.num_users = 2048;
  spec.num_queries = 64;
  spec.num_locations = 8;
  spec.num_observed_columns = 384;
  spec.observations_per_column = 96;
  spec.document_universe = kSearchUniverse;
  return spec;
}

struct Inputs {
  std::unique_ptr<MarketplaceDataset> market;
  std::unique_ptr<ReplaySite> site;
  SearchRuns search;
  AttributeSchema schema;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.schema = OrDie(MakeScaleSchema(), "schema");
  in.market = std::make_unique<MarketplaceDataset>(
      OrDie(GenerateScaleMarketplace(MarketSpec(seed)), "market generation"));
  in.site = std::make_unique<ReplaySite>(in.market.get());
  SearchDataset search =
      OrDie(GenerateScaleSearch(SearchSpec(seed + 1)), "search generation");
  in.search = MakeSearchRuns(search, kSearchUniverse);
  return in;
}

// Forwards streamed columns into the binary writer; the `crawl.cube_write`
// spans (on every thread running the build) separate write time from
// compute.
class TimedSink final : public CubeColumnSink {
 public:
  explicit TimedSink(BinaryCubeColumnWriter* writer) : writer_(writer) {}
  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values,
                 size_t num_groups) override {
    Span span("crawl.cube_write");
    return writer_->Consume(query_pos, location_pos, values, num_groups);
  }

 private:
  BinaryCubeColumnWriter* writer_;
};

// Problem 1 request set over one cube. Selectors are contiguous windows, as
// dashboards issue them; group-target windows reach 16 × 8 = 128 lists, past
// NRA's 64-list cap, and the unrestricted requests read every list.
std::vector<QuantificationRequest> MakeTopKRequests(
    const UnfairnessCube& cube, Rng* rng, size_t restricted_per_target,
    const std::vector<Dimension>& unrestricted_targets) {
  auto window = [&](size_t axis, size_t max_width) {
    AxisSelector sel;
    size_t width = 1 + rng->NextBelow(static_cast<uint32_t>(
                           std::min(axis, max_width)));
    size_t start = rng->NextBelow(static_cast<uint32_t>(axis - width + 1));
    for (size_t i = 0; i < width; ++i) sel.positions.push_back(start + i);
    return sel;
  };
  static const size_t kK[4] = {1, 5, 10, 20};
  std::vector<QuantificationRequest> requests;
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    Dimension d1, d2;
    QuantificationOtherDims(target, &d1, &d2);
    const size_t unrestricted =
        std::count(unrestricted_targets.begin(), unrestricted_targets.end(),
                   target);
    for (size_t i = 0; i < restricted_per_target + unrestricted; ++i) {
      QuantificationRequest r;
      r.target = target;
      r.k = std::min(kK[rng->NextBelow(4)], cube.axis_size(target));
      r.direction = rng->NextBernoulli(0.8) ? RankDirection::kMostUnfair
                                            : RankDirection::kLeastUnfair;
      if (i < restricted_per_target) {
        r.agg1 = window(cube.axis_size(d1), 16);
        r.agg2 = window(cube.axis_size(d2), 8);
      }
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

std::vector<ComparisonRequest> MakeComparisonRequests(
    const UnfairnessCube& cube, Rng* rng, size_t count) {
  std::vector<ComparisonRequest> requests;
  const Dimension dims[3] = {Dimension::kGroup, Dimension::kQuery,
                             Dimension::kLocation};
  while (requests.size() < count) {
    ComparisonRequest r;
    r.compare_dim = dims[rng->NextBelow(3)];
    r.breakdown_dim = dims[rng->NextBelow(3)];
    if (r.breakdown_dim == r.compare_dim) continue;
    size_t n = cube.axis_size(r.compare_dim);
    if (n < 2) continue;
    r.r1_pos = rng->NextBelow(static_cast<uint32_t>(n));
    r.r2_pos = rng->NextBelow(static_cast<uint32_t>(n));
    if (r.r1_pos == r.r2_pos) continue;
    Dimension agg = Dimension::kGroup;
    for (Dimension d : dims) {
      if (d != r.compare_dim && d != r.breakdown_dim) agg = d;
    }
    // Long axes are restricted to a window so one comparison stays a
    // report-sized read; short axes are used whole.
    auto restrict = [&](Dimension d, size_t max_width) {
      AxisSelector sel;
      size_t axis = cube.axis_size(d);
      if (axis <= max_width) return sel;
      size_t start = rng->NextBelow(static_cast<uint32_t>(axis - max_width + 1));
      for (size_t i = 0; i < max_width; ++i) sel.positions.push_back(start + i);
      return sel;
    };
    r.breakdown = restrict(r.breakdown_dim, 64);
    r.aggregated = restrict(agg, 256);
    requests.push_back(std::move(r));
  }
  return requests;
}

// Spelling of `r` with every selector listed in reverse order: the same
// logical request (selectors are sets), so its answer should carry the same
// bits.
QuantificationRequest Reversed(QuantificationRequest r) {
  std::reverse(r.agg1.positions.begin(), r.agg1.positions.end());
  std::reverse(r.agg2.positions.begin(), r.agg2.positions.end());
  return r;
}

struct ReportStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;  // answers that disagree with the oracle
  uint64_t order_mismatches = 0;
  uint64_t algo_failures[4] = {0, 0, 0, 0};
  uint64_t sorted_accesses = 0;
  uint64_t random_accesses = 0;
  uint64_t next_request_id = 1;  // joins a request's spans in the dump
  std::vector<double> p1_us;
  std::vector<double> p2_us;
  std::vector<double> all_us;
};

// Stopwatch over the timed parts of one leg; oracle work runs between them.
class LegTimer {
 public:
  explicit LegTimer(const char* root) : root_(root) {}
  void Start() {
    span_ = std::make_unique<Span>(root_);
    started_ = NowS();
  }
  void Stop() {
    total_ += NowS() - started_;
    span_.reset();
  }
  double total() const { return total_; }

 private:
  const char* root_;
  std::unique_ptr<Span> span_;
  double started_ = 0.0;
  double total_ = 0.0;
};

// Answers the report's Problem 1 and Problem 2 sets against one cube inside
// the timed leg, then (timer stopped) checks every answer against the
// oracles and probes selector-order stability.
void AnswerReport(const UnfairnessCube& cube, const IndexSet& indices,
                  Rng* rng, const std::vector<Dimension>& unrestricted_targets,
                  bool corrupt_one, LegTimer* timer, ReportStats* stats) {
  timer->Stop();
  // Restricted requests cost microseconds each. There are enough of them
  // that the few full-cube requests (and the slowest comparisons) stay under
  // 1% of the latency samples, so p99 falls inside the restricted tail
  // instead of on the boundary between the two classes.
  std::vector<QuantificationRequest> topk = MakeTopKRequests(
      cube, rng, /*restricted_per_target=*/240, unrestricted_targets);
  std::vector<ComparisonRequest> compare =
      MakeComparisonRequests(cube, rng, 16);
  std::vector<Result<QuantificationResult>> answers;
  std::vector<Result<ComparisonResult>> compared;
  answers.reserve(topk.size() * 4);
  timer->Start();

  std::vector<std::vector<double>> p1_us, p2_us;  // timings per request
  for (const QuantificationRequest& base : topk) {
    for (TopKAlgorithm algorithm : kAlgorithms) {
      QuantificationRequest r = base;
      r.algorithm = algorithm;
      double t0 = NowS();
      {
        Span span("core.p1", stats->next_request_id++);
        answers.push_back(SolveQuantification(cube, indices, r));
      }
      p1_us.push_back({(NowS() - t0) * 1e6});
    }
  }
  for (const ComparisonRequest& r : compare) {
    double t0 = NowS();
    {
      Span span("core.p2", stats->next_request_id++);
      compared.push_back(SolveComparison(cube, r));
    }
    p2_us.push_back({(NowS() - t0) * 1e6});
  }
  timer->Stop();

  // Latency percentiles take each request's median of three timings: the
  // one above and two repeats outside the leg, so a host hiccup during one
  // solve does not land in the tail.
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (size_t i = 0; i < answers.size(); ++i) {
      QuantificationRequest r = topk[i / 4];
      r.algorithm = kAlgorithms[i % 4];
      double t0 = NowS();
      (void)SolveQuantification(cube, indices, r);
      p1_us[i].push_back((NowS() - t0) * 1e6);
    }
    for (size_t i = 0; i < compare.size(); ++i) {
      double t0 = NowS();
      (void)SolveComparison(cube, compare[i]);
      p2_us[i].push_back((NowS() - t0) * 1e6);
    }
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].ok()) continue;
    stats->p1_us.push_back(Median(p1_us[i]));
    stats->all_us.push_back(stats->p1_us.back());
  }
  for (size_t i = 0; i < compared.size(); ++i) {
    if (!compared[i].ok()) continue;
    stats->p2_us.push_back(Median(p2_us[i]));
    stats->all_us.push_back(stats->p2_us.back());
  }

  if (corrupt_one) {
    for (auto& a : answers) {
      if (a.ok() && !a->answers.empty()) {
        a->answers[0].value += 1e-3;
        break;
      }
    }
  }
  std::string why;
  for (size_t i = 0; i < topk.size(); ++i) {
    std::vector<std::optional<double>> oracle = TopKOracle(cube, topk[i]);
    for (size_t a = 0; a < 4; ++a) {
      const Result<QuantificationResult>& got = answers[i * 4 + a];
      ++stats->attempted;
      if (!got.ok()) {
        ++stats->failed;
        ++stats->algo_failures[a];
        continue;
      }
      stats->sorted_accesses += got->stats.sorted_accesses;
      stats->random_accesses += got->stats.random_accesses;
      if (!TopKMatches(cube, topk[i], oracle, *got, &why)) {
        std::fprintf(stderr, "oracle mismatch (Problem 1, %s): %s\n",
                     kAlgorithmKeys[a], why.c_str());
        ++stats->failed;
        ++stats->mismatches;
        ++stats->algo_failures[a];
      }
    }
    // Selector-order probe: the TA answer against its reversed spelling.
    const Result<QuantificationResult>& ta = answers[i * 4];
    if (ta.ok() && (topk[i].agg1.positions.size() > 1 ||
                    topk[i].agg2.positions.size() > 1)) {
      QuantificationRequest reversed = Reversed(topk[i]);
      reversed.algorithm = TopKAlgorithm::kThresholdAlgorithm;
      Result<QuantificationResult> again =
          SolveQuantification(cube, indices, reversed);
      if (!again.ok() || !SameBits(*ta, *again)) ++stats->order_mismatches;
    }
  }
  for (size_t i = 0; i < compare.size(); ++i) {
    ++stats->attempted;
    if (!compared[i].ok()) {
      ++stats->failed;
      continue;
    }
    if (!ComparisonMatches(cube, compare[i], *compared[i], &why)) {
      std::fprintf(stderr, "oracle mismatch (Problem 2): %s\n", why.c_str());
      ++stats->failed;
      ++stats->mismatches;
    }
  }
  timer->Start();
}

double SpanSelf(const std::map<std::string, SpanTotals>& spans,
                const char* name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s;
}

double SpanTotal(const std::map<std::string, SpanTotals>& spans,
                 const char* name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

}  // namespace

RunResult RunAudit(const RunConfig& config) {
  const size_t parallelism =
      std::max<size_t>(1, std::thread::hardware_concurrency());

  // --- Set-up: generate the outside world, several times; keep the last.
  std::vector<double> setup_times;
  Inputs in;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    in = Inputs();
    double t0 = NowS();
    in = MakeInputs(config.seed);
    setup_times.push_back(NowS() - t0);
  }
  std::printf("setup: %zu workers, %zu ranked columns, %zu search runs\n",
              in.market->num_workers(), in.market->num_rankings(),
              in.search.runs.size());

  // The report's questions are part of the workload's definition: the same
  // request windows on every seed, so latency percentiles follow the cube and
  // the host, not the draw of questions.
  Rng report_rng(7919);
  ReportStats report;
  const std::string cube_path = config.out_dir + "/audit_cube.bin";

  // --- Marketplace leg -------------------------------------------------------
  LegTimer market_timer("audit.market");
  market_timer.Start();
  VirtualClock clock;
  CrawlerConfig crawler_config;  // page size 10, the paper's 50-result cap
  Crawler crawler(in.site.get(), &clock, crawler_config);
  CrawlReport crawl;
  {
    Span span("crawl.crawl");
    crawl = OrDie(crawler.CrawlAll(), "crawl");
  }
  ProfileStore profiles;
  {
    Span span("crawl.profiles");
    MustOk(crawler.CollectProfiles(crawl.records, &profiles, &crawl),
           "profiles");
  }
  std::unordered_map<std::string, Demographics> labels;
  {
    Span span("crawl.label");
    std::vector<Demographics> truths;
    truths.reserve(profiles.size());
    for (const RawProfile& p : profiles.profiles()) {
      truths.push_back(in.site->TruthOf(p.picture_ref));
    }
    Rng label_rng(config.seed * 31 + 7);
    LabelingOutcome outcome =
        OrDie(RunLabeling(in.schema, truths, LabelingConfig{}, &label_rng),
              "labeling");
    labels.reserve(profiles.size());
    for (size_t i = 0; i < profiles.size(); ++i) {
      labels.emplace(profiles.profiles()[i].worker_name,
                     std::move(outcome.labels[i]));
    }
  }
  MarketplaceAssembly assembly = [&] {
    Span span("crawl.assemble");
    return OrDie(AssembleMarketplace(in.schema, crawl.records, labels),
                 "assemble marketplace");
  }();
  GroupSpace space = [&] {
    Span span("core.groups");
    return OrDie(GroupSpace::Enumerate(in.schema), "group space");
  }();

  uint64_t cube_bytes = 0;
  uint64_t market_cells = 0;
  for (MarketMeasure measure : {MarketMeasure::kEmd, MarketMeasure::kExposure}) {
    {
      Span span("core.market_build");
      CubeAxes axes = OrDie(
          ResolveMarketplaceCubeAxes(assembly.dataset, space), "cube axes");
      std::unique_ptr<BinaryCubeColumnWriter> writer;
      {
        Span sink_span("crawl.cube_sink");
        writer = OrDie(BinaryCubeColumnWriter::Create(cube_path, axes),
                       "cube writer");
      }
      TimedSink sink(writer.get());
      ShardedBuildOptions sharded;
      sharded.shard_columns = 4096;
      sharded.parallelism = parallelism;
      MustOk(BuildMarketplaceCubeSharded(assembly.dataset, space, measure, {},
                                         axes, sharded, &sink),
             "sharded build");
      Span sink_span("crawl.cube_sink");
      MustOk(writer->Finish(), "cube finish");
    }
    MappedCube mapped = [&] {
      Span span("crawl.cube_open");
      return OrDie(MappedCube::Open(cube_path), "verified mmap open");
    }();
    cube_bytes += mapped.file_bytes();
    UnfairnessCube cube = [&] {
      Span span("crawl.cube_materialize");
      return OrDie(mapped.Materialize(), "materialize");
    }();
    market_cells += cube.num_cells();
    IndexSet indices = [&] {
      Span span("core.index");
      return IndexSet::Build(cube);
    }();
    // One full-cube request per market cube: each reads every one of the
    // ~10^5 group lists, so a few already dominate the leg's engine time.
    AnswerReport(cube, indices, &report_rng, {Dimension::kGroup},
                 config.corrupt_one, &market_timer, &report);
  }
  market_timer.Stop();
  std::remove(cube_path.c_str());
  // The crawled data is no longer needed; free it before the search leg.
  assembly = MarketplaceAssembly{MarketplaceDataset(in.schema), 0};

  // --- Search leg ------------------------------------------------------------
  LegTimer search_timer("audit.search");
  search_timer.Start();
  SearchAssembly search = [&] {
    Span span("crawl.assemble_search");
    return OrDie(
        AssembleSearch(in.schema, in.search.runs, in.search.demographics),
        "assemble search");
  }();
  GroupSpace search_space = [&] {
    Span span("core.groups");
    return OrDie(GroupSpace::Enumerate(in.schema), "search group space");
  }();
  for (SearchMeasure measure :
       {SearchMeasure::kKendallTau, SearchMeasure::kJaccard}) {
    UnfairnessCube cube = [&] {
      Span span("core.search_build");
      return OrDie(BuildSearchCube(search.dataset, search_space, measure, {},
                                   {}, parallelism),
                   "search cube");
    }();
    IndexSet indices = [&] {
      Span span("core.index");
      return IndexSet::Build(cube);
    }();
    AnswerReport(cube, indices, &report_rng,
                 {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation},
                 /*corrupt_one=*/false, &search_timer, &report);
  }
  search_timer.Stop();

  // --- Metrics ---------------------------------------------------------------
  RunResult result;
  const double market_s = market_timer.total();
  const double search_s = search_timer.total();
  const double fail_frac =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  result.attempted = report.attempted;
  result.failed = report.failed;
  result.correct = report.mismatches == 0;
  result.Add("setup_s", Median(setup_times), "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("ok_frac", 1.0 - fail_frac, "ratio");
  result.Add("audit_s", market_s + search_s, "s");
  result.Add("p50_us", Percentile(report.all_us, 0.50), "us");
  result.Add("p99_us", Percentile(report.all_us, 0.99), "us");
  result.samples.emplace_back("p50_us", report.all_us.size());
  result.samples.emplace_back("p99_us", report.all_us.size());
  result.samples.emplace_back("setup_s", setup_times.size());

  result.Add("market_audit_s", market_s, "s");
  result.Add("search_audit_s", search_s, "s");
  result.Add("fail_frac", fail_frac, "ratio");
  result.Add("crawl.requests", static_cast<double>(crawl.requests_issued),
             "count");
  result.Add("crawl.cube_bytes", static_cast<double>(cube_bytes), "bytes");
  result.Add("core.p1_us.p50", Percentile(report.p1_us, 0.50), "us");
  result.Add("core.p1_us.p99", Percentile(report.p1_us, 0.99), "us");
  result.Add("core.p2_us.p50", Percentile(report.p2_us, 0.50), "us");
  result.Add("core.p2_us.p99", Percentile(report.p2_us, 0.99), "us");
  result.samples.emplace_back("core.p1_us", report.p1_us.size());
  result.samples.emplace_back("core.p2_us", report.p2_us.size());
  result.Add("core.p1_sorted", static_cast<double>(report.sorted_accesses),
             "count");
  result.Add("core.p1_random", static_cast<double>(report.random_accesses),
             "count");
  for (size_t a = 0; a < 4; ++a) {
    result.Add(std::string("core.algo_failures.") + kAlgorithmKeys[a],
               static_cast<double>(report.algo_failures[a]), "count");
  }
  result.Add("core.order_mismatches",
             static_cast<double>(report.order_mismatches), "count");
  const uint64_t pairs = 2 * in.search.list_pairs;  // two measures built
  result.Add("ranking.pairs", static_cast<double>(pairs), "count");

  if (config.trace) {
    std::map<std::string, SpanTotals> spans = SummarizeSpans();
    // Column writes run inside the build's ParallelFor, on every thread that
    // runs its tasks (the caller and the pool). Those threads share the
    // columns evenly (on a 4-vCPU host, each of 5 threads wrote 109k-129k of
    // 595k columns) and stay busy from the build's start to its end, so the
    // writes take their summed time over the thread count of the build's
    // wall. That share plus the writer's create and finish is the sink's
    // time; the rest of the build's wall is the build's.
    const double write_wall = SpanTotal(spans, "crawl.cube_write") /
                              static_cast<double>(std::max<size_t>(
                                  1, ThreadsWith("crawl.cube_write")));
    const double sink_s = SpanTotal(spans, "crawl.cube_sink") + write_wall;
    const double market_build_s =
        SpanTotal(spans, "core.market_build") - sink_s;
    const double search_build_s = SpanSelf(spans, "core.search_build");
    result.Add("crawl.crawl_s", SpanSelf(spans, "crawl.crawl"), "s");
    result.Add("crawl.profiles_s", SpanSelf(spans, "crawl.profiles"), "s");
    result.Add("crawl.label_s", SpanSelf(spans, "crawl.label"), "s");
    result.Add("crawl.assemble_s", SpanSelf(spans, "crawl.assemble"), "s");
    result.Add("crawl.assemble_search_s",
               SpanSelf(spans, "crawl.assemble_search"), "s");
    result.Add("crawl.cube_sink_s", sink_s, "s");
    result.Add("crawl.cube_open_s", SpanSelf(spans, "crawl.cube_open"), "s");
    result.Add("crawl.cube_materialize_s",
               SpanSelf(spans, "crawl.cube_materialize"), "s");
    result.Add("core.market_build_s", market_build_s, "s");
    result.Add("core.market_cells_per_s",
               static_cast<double>(market_cells) / market_build_s, "1/s");
    result.Add("core.search_build_s", search_build_s, "s");
    result.Add("core.index_s", SpanSelf(spans, "core.index"), "s");
    result.Add("ranking.pairs_per_s",
               static_cast<double>(pairs) / search_build_s, "1/s");
    result.Add("market.site_s", SpanTotal(spans, "market.site"), "s");
    for (const char* leg : {"audit.market", "audit.search"}) {
      double wall = 0.0;
      const double covered = SelfTimeUnder(leg, &wall);
      // "audit.market" -> "trace.market_coverage"
      result.Add(std::string("trace.") + (leg + 6) + "_coverage",
                 wall > 0.0 ? covered / wall : 0.0, "ratio");
    }
  }
  return result;
}

}  // namespace fairbench
