// Sustained-load serving harness: drives QuantificationService with a
// Zipf-mixed request trace (market/scale_gen) in five phases —
//   A  differential under flips: closed-loop hammering while incremental
//      upserts flip snapshots; every OK answer must be bitwise identical to
//      a direct SolveQuantification against SOME published snapshot;
//   B  calibration: closed-loop capacity (hot cache, and cold for sizing
//      the overload phase);
//   C  sustained SLO: open-loop Poisson arrivals at the target QPS with
//      admission control + stale-while-revalidate and mid-run flips; gates
//      on achieved throughput AND live p99 against the declared SLO;
//   D  overload: offered ≈ 2x cold capacity with the cache off — the
//      service must shed (typed kUnavailable/kDeadlineExceeded) instead of
//      stalling, and the admission accounting must stay exact;
//   E  miss path at the SLO: open-loop over the dashboard-hot trace with the
//      cache off — every request computes (or coalesces in single flight),
//      and the miss path must hold the QPS/p99 SLO with exact accounting.
// Writes BENCH_load.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "market/scale_gen.h"
#include "serve/cache_key.h"
#include "serve/incremental.h"
#include "serve/load_gen.h"
#include "serve/quantification_service.h"

namespace fairjob {
namespace bench {
namespace {

bool AnswersIdentical(const QuantificationResult& a,
                      const QuantificationResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].id != b.answers[i].id) return false;
    if (a.answers[i].value != b.answers[i].value) return false;
  }
  return true;
}

std::vector<std::pair<QueryId, LocationId>> ObservedColumns(
    const MarketplaceDataset& data, const ScaleSpec& spec) {
  std::vector<std::pair<QueryId, LocationId>> columns;
  for (QueryId q = 0; q < static_cast<QueryId>(spec.num_queries); ++q) {
    for (LocationId l = 0; l < static_cast<LocationId>(spec.num_locations);
         ++l) {
      if (data.GetRanking(q, l) != nullptr) columns.emplace_back(q, l);
    }
  }
  return columns;
}

// Re-crawl batches against an evolving scratch copy, so the oracle pass and
// the stressed pass replay the exact same deltas (same shape as
// bench_incremental's schedule: rotate the observed ranking per column).
std::vector<CrawlBatch> MakeBatches(const MarketplaceDataset& initial,
                                    const std::vector<std::pair<
                                        QueryId, LocationId>>& columns,
                                    size_t num_batches, size_t per_batch,
                                    uint64_t seed) {
  MarketplaceDataset scratch = initial;
  Rng rng(seed);
  std::vector<size_t> order(columns.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<CrawlBatch> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    rng.Shuffle(order);
    CrawlBatch batch;
    for (size_t i = 0; i < per_batch && i < order.size(); ++i) {
      auto [q, l] = columns[order[i]];
      MarketRanking ranking = *scratch.GetRanking(q, l);
      size_t shift = 1 + rng.NextBelow(ranking.workers.size() - 1);
      std::rotate(ranking.workers.begin(), ranking.workers.begin() + shift,
                  ranking.workers.end());
      Status applied = scratch.SetRanking(q, l, ranking);
      if (!applied.ok()) {
        PrintTitle("FATAL: scratch apply: " + applied.ToString());
        std::exit(1);
      }
      batch.rows.push_back(CrawlBatchRow{q, l, std::move(ranking)});
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

bool AccountingExact(const QuantificationService::Stats& stats) {
  return stats.admitted + stats.shed_deadline + stats.rejected_queue +
                 stats.rejected_followers ==
             stats.requests &&
         stats.cache_hits + stats.cache_misses == stats.admitted &&
         stats.computations + stats.coalesced == stats.cache_misses;
}

struct Gates {
  std::vector<std::string> failures;
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

}  // namespace

int Main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse({argv + 1, argv + argc});
  if (!flags.ok()) {
    PrintTitle("FATAL: " + flags.status().ToString());
    return 1;
  }
  const bool smoke = flags->Has("smoke");
  // Zero is meaningful for --deadline_ms (0 = serve with no deadline at
  // all); the parser must hand it through, not reject it.
  const long deadline_ms =
      OrDie(flags->GetInt("deadline_ms", smoke ? 250 : 50), "--deadline_ms");
  const double duration_s =
      OrDie(flags->GetDouble("duration_s", smoke ? 0.5 : 3.0), "--duration_s");
  const double target_override =
      OrDie(flags->GetDouble("target_qps", 0.0), "--target_qps");
  const long workers_flag = OrDie(flags->GetInt("workers", 0), "--workers");

  size_t hardware = std::thread::hardware_concurrency();
  const size_t load_workers =
      workers_flag > 0 ? static_cast<size_t>(workers_flag)
                       : std::max<size_t>(8, hardware);

  PrintTitle("Sustained-load serving: differential, capacity, SLO, overload");
  PrintPaperNote(
      "Section 4's quantification must answer interactively while crawls "
      "keep flipping snapshots; this bench drives the hardened admission + "
      "shedding path and gates the live p99 against the declared SLO.");
  std::printf("hardware_concurrency: %zu, load workers: %zu\n", hardware,
              load_workers);

  // Metrics stay ON for the whole run: the admission/shed/stale counters
  // are part of the machinery under test and land in the JSON verbatim.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  metrics.SetEnabled(true);

  ScaleSpec spec;
  spec.seed = 23;
  if (smoke) {
    spec.num_workers = 4000;
    spec.num_queries = 100;
    spec.num_locations = 6;
    spec.num_ranked_columns = 240;
    spec.min_ranking_length = 6;
    spec.max_ranking_length = 24;
  } else {
    spec.num_workers = 200'000;
    spec.num_queries = 2000;
    spec.num_locations = 25;
    spec.num_ranked_columns = 5000;
  }
  const size_t kFlipsDifferential = smoke ? 4 : 8;
  const size_t kFlipsSustained = smoke ? 3 : 6;
  const size_t kBatchColumns = smoke ? 4 : 25;

  MarketplaceDataset data =
      OrDie(GenerateScaleMarketplace(spec), "scale marketplace");
  GroupSpace space = OrDie(
      GroupSpace::Enumerate(OrDie(MakeScaleSchema(), "schema")), "space");
  std::vector<std::pair<QueryId, LocationId>> columns =
      ObservedColumns(data, spec);
  std::vector<CrawlBatch> batches =
      MakeBatches(data, columns, kFlipsDifferential + kFlipsSustained,
                  kBatchColumns, spec.seed * 131);

  ServeLoadSpec serve_spec;
  serve_spec.seed = 29;
  serve_spec.num_requests = smoke ? 2000 : 20'000;
  serve_spec.distinct_patterns = smoke ? 64 : 256;
  std::vector<QuantificationRequest> trace = GenerateServeRequests(
      serve_spec, space.num_groups(), spec.num_queries, spec.num_locations);
  if (trace.empty()) {
    PrintTitle("FATAL: empty serve trace");
    return 1;
  }
  std::printf(
      "columns: %zu, trace: %zu requests over %zu patterns, flips: %zu + %zu\n",
      columns.size(), trace.size(), serve_spec.distinct_patterns,
      kFlipsDifferential, kFlipsSustained);

  Gates gates;

  // --- Phase A: differential under snapshot flips ----------------------------
  // Oracle pass: a private maintainer replays the flip schedule serially,
  // solving every distinct pattern per published version.
  std::vector<QuantificationRequest> distinct;
  std::vector<size_t> pattern_of(trace.size());
  std::vector<std::vector<QuantificationResult>> oracle;
  {
    MarketplaceCubeMaintainer oracle_maintainer = OrDie(
        MarketplaceCubeMaintainer::Make(data, space, MarketMeasure::kExposure,
                                        MeasureOptions{}, CubeAxes{},
                                        hardware),
        "oracle maintainer");
    std::shared_ptr<const CubeSnapshot> initial = oracle_maintainer.snapshot();
    std::unordered_map<RequestCacheKey, size_t, RequestCacheKeyHash> seen;
    for (size_t i = 0; i < trace.size(); ++i) {
      RequestCacheKey key(trace[i], *initial);
      auto [it, inserted] = seen.emplace(std::move(key), distinct.size());
      pattern_of[i] = it->second;
      if (inserted) distinct.push_back(trace[i]);
    }
    auto record = [&] {
      std::vector<QuantificationResult> version;
      version.reserve(distinct.size());
      for (const QuantificationRequest& request : distinct) {
        version.push_back(
            OrDie(SolveQuantification(oracle_maintainer.snapshot()->cube(),
                                      oracle_maintainer.snapshot()->indices(),
                                      request),
                  "oracle solve"));
      }
      oracle.push_back(std::move(version));
    };
    record();
    for (size_t b = 0; b < kFlipsDifferential; ++b) {
      OrDie(oracle_maintainer.UpsertCrawlBatch(batches[b]), "oracle upsert");
      record();
    }
  }

  // Stressed pass: readers hammer the trace while the real maintainer
  // replays the identical schedule and flips the serving snapshot.
  MarketplaceCubeMaintainer maintainer = OrDie(
      MarketplaceCubeMaintainer::Make(data, space, MarketMeasure::kExposure,
                                      MeasureOptions{}, CubeAxes{}, hardware),
      "maintainer");
  uint64_t differential_checked = 0;
  uint64_t differential_mismatches = 0;
  {
    QuantificationService::Options options;
    options.cache_capacity = 4 * serve_spec.distinct_patterns;
    QuantificationService service(maintainer.snapshot(), options);

    const size_t reader_count = std::min<size_t>(6, load_workers);
    std::atomic<uint64_t> checked{0}, mismatched{0};
    std::atomic<bool> flips_done{false};
    std::vector<std::thread> readers;
    for (size_t t = 0; t < reader_count; ++t) {
      readers.emplace_back([&, t] {
        uint64_t my_checked = 0, my_mismatched = 0;
        // Keep reading until the flip schedule finishes, so every flip
        // happens under fire; each lap walks the whole trace rotated.
        for (size_t lap = 0; lap == 0 || !flips_done.load(); ++lap) {
          for (size_t i = 0; i < trace.size(); ++i) {
            size_t at = (i + t * 131) % trace.size();
            Result<QuantificationResult> answer = service.Answer(trace[at]);
            if (!answer.ok()) {
              ++my_mismatched;
              continue;
            }
            bool matched = false;
            for (const std::vector<QuantificationResult>& version : oracle) {
              if (AnswersIdentical(*answer, version[pattern_of[at]])) {
                matched = true;
                break;
              }
            }
            ++my_checked;
            if (!matched) ++my_mismatched;
          }
        }
        checked.fetch_add(my_checked);
        mismatched.fetch_add(my_mismatched);
      });
    }
    for (size_t b = 0; b < kFlipsDifferential; ++b) {
      UpsertReport report =
          OrDie(maintainer.UpsertCrawlBatch(batches[b]), "stressed upsert");
      if (report.published_new_snapshot) {
        service.SetSnapshot(maintainer.snapshot());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 10 : 25));
    }
    flips_done.store(true);
    for (std::thread& reader : readers) reader.join();
    differential_checked = checked.load();
    differential_mismatches = mismatched.load();
  }
  const bool differential_ok = differential_mismatches == 0;
  std::printf("phase A: %llu answers checked against %zu versions, %llu "
              "mismatches\n",
              static_cast<unsigned long long>(differential_checked),
              oracle.size(),
              static_cast<unsigned long long>(differential_mismatches));
  gates.Check(differential_ok, "differential: answers diverged from oracle");

  // --- Phase B: capacity calibration -----------------------------------------
  // Hot capacity is measured over a WARMED cache — on a slow box the cold
  // solves for 256 patterns alone can eat the whole calibration window and
  // make "hot capacity" a warm-up artifact (the same first-iteration trap
  // bench_serve guards against).
  const double calib_s = smoke ? 0.25 : 1.0;
  auto warm = [&](QuantificationService& service) {
    for (const QuantificationRequest& request : distinct) {
      OrDie(service.Answer(request), "warm answer");
    }
  };
  double hot_capacity_qps = 0.0;
  double cold_capacity_qps = 0.0;
  {
    QuantificationService::Options options;
    options.cache_capacity = 4 * serve_spec.distinct_patterns;
    QuantificationService hot(maintainer.snapshot(), options);
    LoadGenOptions load_options;
    load_options.num_workers = load_workers;
    warm(hot);
    hot_capacity_qps =
        RunClosedLoopLoad(hot, trace, calib_s, load_options).achieved_qps;

    QuantificationService::Options cold_options;
    cold_options.cache_capacity = 0;
    QuantificationService cold(maintainer.snapshot(), cold_options);
    cold_capacity_qps =
        RunClosedLoopLoad(cold, trace, calib_s, load_options).achieved_qps;
  }
  std::printf("phase B: capacity hot %.0f qps, cold %.0f qps\n",
              hot_capacity_qps, cold_capacity_qps);
  gates.Check(hot_capacity_qps > 0, "calibration: zero hot capacity");
  gates.Check(cold_capacity_qps > 0, "calibration: zero cold capacity");

  // --- Phase C: sustained open-loop at the SLO -------------------------------
  // Target: half the measured hot capacity, capped at the tier's declared
  // per-core rate — the SLO is declared against this rate, not best-effort.
  const double target_cap =
      std::min(smoke ? 8000.0 : 40'000.0,
               8000.0 * std::max<size_t>(1, hardware));
  const double target_qps =
      target_override > 0
          ? target_override
          : std::min(0.5 * hot_capacity_qps, target_cap);
  const int64_t deadline_budget_us = deadline_ms * 1000;
  const double slo_p99_us = static_cast<double>(
      deadline_budget_us > 0 ? deadline_budget_us : 1'000'000);

  LoadReport sustained;
  bool sustained_accounting = false;
  uint64_t sustained_flips = 0;
  {
    QuantificationService::Options options;
    options.cache_capacity = 4 * serve_spec.distinct_patterns;
    options.max_inflight = std::max<size_t>(2, hardware);
    options.max_queue_depth = 256;
    options.max_followers_per_flight = 64;
    // A flip can invalidate most of the working set at once (patterns with
    // unrestricted aggregation read every column), so the stale budget is
    // sized to bridge a full refresh storm at the declared rate: staleness
    // stays bounded per key, and the p99 never eats a cold recompute.
    options.stale_budget = 4096;
    QuantificationService service(maintainer.snapshot(), options);
    warm(service);  // SLO is declared for a warmed deploy, not a cold start

    ArrivalSpec arrival_spec;
    arrival_spec.seed = 31;
    arrival_spec.target_qps = target_qps;
    arrival_spec.duration_seconds = duration_s;
    std::vector<int64_t> arrivals = GenerateArrivalTimesMicros(arrival_spec);

    // Mid-run flips: the remaining batches, spread across the run.
    std::atomic<bool> stop_flipper{false};
    std::thread flipper([&] {
      const auto gap = std::chrono::microseconds(static_cast<int64_t>(
          duration_s * 1e6 / (kFlipsSustained + 1)));
      for (size_t b = 0; b < kFlipsSustained && !stop_flipper.load(); ++b) {
        std::this_thread::sleep_for(gap);
        UpsertReport report = OrDie(
            maintainer.UpsertCrawlBatch(batches[kFlipsDifferential + b]),
            "sustained upsert");
        if (report.published_new_snapshot) {
          service.SetSnapshot(maintainer.snapshot());
        }
      }
    });

    LoadGenOptions load_options;
    load_options.num_workers = load_workers;
    load_options.deadline_budget_micros = deadline_budget_us;
    sustained = RunOpenLoopLoad(service, trace, arrivals, load_options);
    stop_flipper.store(true);
    flipper.join();

    QuantificationService::Stats stats = service.stats();
    sustained_accounting = AccountingExact(stats);
    sustained_flips = stats.snapshot_flips;
  }
  const double shed_fraction =
      sustained.counts.offered > 0
          ? static_cast<double>(sustained.counts.deadline_exceeded +
                                sustained.counts.unavailable) /
                static_cast<double>(sustained.counts.offered)
          : 1.0;
  const double min_achieved_ratio = smoke ? 0.5 : 0.9;
  const double max_shed_fraction = smoke ? 0.10 : 0.01;
  PrintTable(
      {"phase C (sustained)", "value"},
      {{"target qps", Fmt(target_qps, 0)},
       {"offered", std::to_string(sustained.counts.offered)},
       {"ok", std::to_string(sustained.counts.ok)},
       {"shed (deadline)", std::to_string(sustained.counts.deadline_exceeded)},
       {"rejected (queue/followers)",
        std::to_string(sustained.counts.unavailable)},
       {"achieved qps", Fmt(sustained.achieved_qps, 0)},
       {"p50 us", Fmt(sustained.p50_us, 0)},
       {"p99 us", Fmt(sustained.p99_us, 0)},
       {"p99.9 us", Fmt(sustained.p999_us, 0)},
       {"snapshot flips mid-run", std::to_string(sustained_flips)}});
  gates.Check(sustained.counts.other_errors == 0,
              "sustained: untyped errors");
  gates.Check(sustained.achieved_qps >= min_achieved_ratio * target_qps,
              "sustained: achieved qps below " + Fmt(min_achieved_ratio, 2) +
                  "x target");
  gates.Check(sustained.p99_us <= slo_p99_us,
              "sustained: p99 " + Fmt(sustained.p99_us, 0) +
                  "us above the " + Fmt(slo_p99_us, 0) + "us SLO");
  gates.Check(shed_fraction <= max_shed_fraction,
              "sustained: shed fraction " + Fmt(shed_fraction, 4) +
                  " above " + Fmt(max_shed_fraction, 2));
  gates.Check(sustained_accounting, "sustained: admission accounting broken");

  // --- Phase D: overload (offered ≈ 2x cold capacity, cache off) -------------
  const double overload_qps =
      std::min(2.0 * cold_capacity_qps, 200'000.0);
  const double overload_s = smoke ? 0.3 : 1.0;
  LoadReport overload;
  bool overload_accounting = false;
  {
    QuantificationService::Options options;
    options.cache_capacity = 0;  // force every admitted request to compute
    options.max_inflight = std::max<size_t>(1, hardware / 2);
    options.max_queue_depth = 16;
    options.max_followers_per_flight = 8;
    QuantificationService service(maintainer.snapshot(), options);

    ArrivalSpec arrival_spec;
    arrival_spec.seed = 37;
    arrival_spec.target_qps = overload_qps;
    arrival_spec.duration_seconds = overload_s;
    std::vector<int64_t> arrivals = GenerateArrivalTimesMicros(arrival_spec);

    LoadGenOptions load_options;
    load_options.num_workers = load_workers;
    load_options.deadline_budget_micros = 5000;
    overload = RunOpenLoopLoad(service, trace, arrivals, load_options);
    overload_accounting = AccountingExact(service.stats());
  }
  std::printf(
      "phase D: offered %llu at %.0f qps -> ok %llu, shed %llu, rejected "
      "%llu, wall %.2fs\n",
      static_cast<unsigned long long>(overload.counts.offered), overload_qps,
      static_cast<unsigned long long>(overload.counts.ok),
      static_cast<unsigned long long>(overload.counts.deadline_exceeded),
      static_cast<unsigned long long>(overload.counts.unavailable),
      overload.wall_seconds);
  gates.Check(overload.counts.other_errors == 0, "overload: untyped errors");
  gates.Check(overload.counts.ok >= 1, "overload: nothing served at all");
  gates.Check(overload.counts.deadline_exceeded + overload.counts.unavailable >
                  0,
              "overload: nothing was shed at 2x capacity");
  gates.Check(overload.wall_seconds < overload_s + 30.0,
              "overload: run stalled instead of shedding");
  gates.Check(overload_accounting, "overload: admission accounting broken");

  // --- Phase E: the miss path at the SLO ------------------------------------
  // Serves the dashboard-hot subset of the trace (its most frequent selector
  // groups) with the cache off, so every request takes the miss path:
  // admission, single flight and one SolveQuantification per distinct key
  // in flight. Two measurements:
  //   * capacity probe (closed loop): what the service's miss path sustains
  //     on this box, reported against the single-threaded solve cost scaled
  //     to all cores (the capacity ratio column, report-only);
  //   * SLO run (open loop): the run must sustain 0.35x the sequential
  //     capacity inside a deadline/SLO scaled in solve costs, shedding typed
  //     and the accounting identity exact.
  // On fast boxes (smoke tier: tens of microseconds per solve) the scaled
  // knobs all reduce to the declared constants.
  const size_t kHotGroups = 4;
  std::vector<QuantificationRequest> hot_trace;
  {
    auto selector_key = [](const QuantificationRequest& r) {
      std::string key = std::to_string(static_cast<int>(r.target));
      key += '|';
      for (size_t p : r.agg1.positions) {
        key += std::to_string(p);
        key += ',';
      }
      key += '|';
      for (size_t p : r.agg2.positions) {
        key += std::to_string(p);
        key += ',';
      }
      return key;
    };
    std::unordered_map<std::string, uint64_t> group_counts;
    for (const QuantificationRequest& r : trace) ++group_counts[selector_key(r)];
    std::vector<std::pair<uint64_t, std::string>> ranked;
    ranked.reserve(group_counts.size());
    for (const auto& [key, count] : group_counts) ranked.emplace_back(count, key);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    if (ranked.size() > kHotGroups) ranked.resize(kHotGroups);
    std::unordered_set<std::string> hot_keys;
    for (const auto& [count, key] : ranked) hot_keys.insert(key);
    for (const QuantificationRequest& r : trace) {
      if (hot_keys.count(selector_key(r)) != 0) hot_trace.push_back(r);
    }
  }
  // More workers than the general phases, so the closed-loop probe keeps
  // every admission permit busy.
  const size_t miss_workers = std::max<size_t>(load_workers, 16);
  LoadGenOptions calib_options;
  calib_options.num_workers = miss_workers;
  // True per-solve cost, measured single-threaded with no service in the
  // way. The hot trace has few distinct keys, so a closed-loop probe
  // through the service would coalesce duplicates in single flight and
  // overstate capacity — noisily, run to run — and every knob derived from
  // it (target, deadline, SLO) would inherit the error.
  double solve_cost_us = 0.0;
  {
    const std::shared_ptr<const CubeSnapshot> snap = maintainer.snapshot();
    const size_t samples = std::min<size_t>(hot_trace.size(), smoke ? 2000 : 64);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < samples; ++i) {
      OrDie(SolveQuantification(snap->cube(), snap->indices(), hot_trace[i]),
            "phase E calibration solve");
    }
    const auto t1 = std::chrono::steady_clock::now();
    solve_cost_us = std::chrono::duration<double, std::micro>(t1 - t0).count() /
                    static_cast<double>(std::max<size_t>(1, samples));
  }
  const double miss_seq_qps =
      1e6 * static_cast<double>(std::max<size_t>(1, hardware)) /
      std::max(1.0, solve_cost_us);
  QuantificationService::Options miss_options;
  miss_options.cache_capacity = 0;
  miss_options.max_inflight = std::max<size_t>(4, hardware);
  miss_options.max_queue_depth = 256;
  double miss_capacity_qps = 0.0;
  {
    QuantificationService probe(maintainer.snapshot(), miss_options);
    miss_capacity_qps =
        RunClosedLoopLoad(probe, hot_trace, calib_s, calib_options)
            .achieved_qps;
  }
  // SLO run: the target sits at 0.35x the sequential capacity — comfortably
  // stable, the gate is the tail.
  const double miss_target_qps = std::min(0.35 * miss_seq_qps, target_cap);
  // A Poisson burst of k arrivals time-slices k solves on a saturated core,
  // so the tail is inherently a multiple of the solve cost: the SLO allows
  // 20 of them, the deadline 40 (shedding is the failure mode, not the
  // budget).
  const int64_t miss_deadline_us =
      deadline_budget_us > 0
          ? std::max(deadline_budget_us,
                     static_cast<int64_t>(40.0 * solve_cost_us))
          : 0;
  const double miss_slo_p99_us =
      std::max(static_cast<double>(deadline_budget_us > 0 ? deadline_budget_us
                                                          : 1'000'000),
               20.0 * solve_cost_us);
  // Enough arrivals for a meaningful p99 even when heavy solves cap the
  // target at tens of qps.
  const double miss_duration_s = std::min(
      30.0, std::max(duration_s, 120.0 / std::max(1.0, miss_target_qps)));
  LoadReport miss;
  bool miss_accounting = false;
  {
    QuantificationService service(maintainer.snapshot(), miss_options);

    ArrivalSpec arrival_spec;
    arrival_spec.seed = 41;
    arrival_spec.target_qps = miss_target_qps;
    arrival_spec.duration_seconds = miss_duration_s;
    std::vector<int64_t> arrivals = GenerateArrivalTimesMicros(arrival_spec);

    LoadGenOptions load_options;
    load_options.num_workers = miss_workers;
    load_options.deadline_budget_micros = miss_deadline_us;
    miss = RunOpenLoopLoad(service, hot_trace, arrivals, load_options);

    miss_accounting = AccountingExact(service.stats());
  }
  const double miss_shed_fraction =
      miss.counts.offered > 0
          ? static_cast<double>(miss.counts.deadline_exceeded +
                                miss.counts.unavailable) /
                static_cast<double>(miss.counts.offered)
          : 1.0;
  const double miss_capacity_ratio =
      miss_seq_qps > 0 ? miss_capacity_qps / miss_seq_qps : 0.0;
  PrintTable(
      {"phase E (miss path)", "value"},
      {{"hot trace", std::to_string(hot_trace.size()) + " reqs / " +
                         std::to_string(kHotGroups) + " groups"},
       {"solve cost us", Fmt(solve_cost_us, 0)},
       {"sequential capacity qps", Fmt(miss_seq_qps, 0)},
       {"service capacity qps", Fmt(miss_capacity_qps, 0)},
       {"capacity ratio", Fmt(miss_capacity_ratio, 2) + "x"},
       {"target qps", Fmt(miss_target_qps, 0)},
       {"offered", std::to_string(miss.counts.offered)},
       {"ok", std::to_string(miss.counts.ok)},
       {"shed (deadline)", std::to_string(miss.counts.deadline_exceeded)},
       {"achieved qps", Fmt(miss.achieved_qps, 0)},
       {"p50 us", Fmt(miss.p50_us, 0)},
       {"p99 us", Fmt(miss.p99_us, 0)},
       {"p99 slo us", Fmt(miss_slo_p99_us, 0)}});
  gates.Check(miss.counts.other_errors == 0, "miss path: untyped errors");
  gates.Check(miss.achieved_qps >=
                  min_achieved_ratio * miss_target_qps,
              "miss path: achieved qps below " + Fmt(min_achieved_ratio, 2) +
                  "x target");
  gates.Check(miss.p99_us <= miss_slo_p99_us,
              "miss path: p99 " + Fmt(miss.p99_us, 0) + "us above the " +
                  Fmt(miss_slo_p99_us, 0) + "us SLO");
  gates.Check(miss_shed_fraction <= max_shed_fraction,
              "miss path: shed fraction " + Fmt(miss_shed_fraction, 4) +
                  " above " + Fmt(max_shed_fraction, 2));
  gates.Check(miss_accounting, "miss path: admission accounting broken");

  metrics.SetEnabled(false);
  std::string metrics_json = metrics.ToJson();

  auto counts_json = [](const LoadCounts& c) {
    return std::string("{\"offered\": ") + std::to_string(c.offered) +
           ", \"ok\": " + std::to_string(c.ok) +
           ", \"deadline_exceeded\": " + std::to_string(c.deadline_exceeded) +
           ", \"unavailable\": " + std::to_string(c.unavailable) +
           ", \"other_errors\": " + std::to_string(c.other_errors) + "}";
  };
  std::string json =
      "{\n  \"bench\": \"load\",\n  \"smoke\": " +
      std::string(smoke ? "true" : "false") +
      ",\n  \"hardware_concurrency\": " + std::to_string(hardware) +
      ",\n  \"load_workers\": " + std::to_string(load_workers) +
      ",\n  \"trace_len\": " + std::to_string(trace.size()) +
      ",\n  \"distinct_patterns\": " + std::to_string(distinct.size()) +
      ",\n  \"differential\": {\"checked\": " +
      std::to_string(differential_checked) +
      ", \"versions\": " + std::to_string(oracle.size()) +
      ", \"mismatches\": " + std::to_string(differential_mismatches) +
      ", \"ok\": " + (differential_ok ? "true" : "false") +
      "},\n  \"capacity\": {\"hot_qps\": " + Fmt(hot_capacity_qps, 0) +
      ", \"cold_qps\": " + Fmt(cold_capacity_qps, 0) +
      "},\n  \"sustained\": {\"target_qps\": " + Fmt(target_qps, 0) +
      ", \"deadline_ms\": " + std::to_string(deadline_ms) +
      ", \"slo_p99_us\": " + Fmt(slo_p99_us, 0) +
      ", \"achieved_qps\": " + Fmt(sustained.achieved_qps, 0) +
      ", \"p50_us\": " + Fmt(sustained.p50_us, 0) +
      ", \"p99_us\": " + Fmt(sustained.p99_us, 0) +
      ", \"p999_us\": " + Fmt(sustained.p999_us, 0) +
      ", \"max_us\": " + Fmt(sustained.max_us, 0) +
      ", \"shed_fraction\": " + Fmt(shed_fraction, 4) +
      ", \"snapshot_flips\": " + std::to_string(sustained_flips) +
      ", \"counts\": " + counts_json(sustained.counts) +
      ", \"accounting_exact\": " + (sustained_accounting ? "true" : "false") +
      "},\n  \"overload\": {\"offered_qps\": " + Fmt(overload_qps, 0) +
      ", \"wall_seconds\": " + Fmt(overload.wall_seconds, 2) +
      ", \"counts\": " + counts_json(overload.counts) +
      ", \"accounting_exact\": " + (overload_accounting ? "true" : "false") +
      "},\n  \"miss_path\": {\"hot_trace_len\": " +
      std::to_string(hot_trace.size()) +
      ", \"hot_groups\": " + std::to_string(kHotGroups) +
      ", \"solve_cost_us\": " + Fmt(solve_cost_us, 0) +
      ", \"sequential_capacity_qps\": " + Fmt(miss_seq_qps, 0) +
      ", \"capacity_qps\": " + Fmt(miss_capacity_qps, 0) +
      ", \"capacity_ratio\": " + Fmt(miss_capacity_ratio, 2) +
      ", \"slo_p99_us\": " + Fmt(miss_slo_p99_us, 0) +
      ", \"target_qps\": " + Fmt(miss_target_qps, 0) +
      ", \"achieved_qps\": " + Fmt(miss.achieved_qps, 0) +
      ", \"p50_us\": " + Fmt(miss.p50_us, 0) +
      ", \"p99_us\": " + Fmt(miss.p99_us, 0) +
      ", \"shed_fraction\": " + Fmt(miss_shed_fraction, 4) +
      ", \"counts\": " + counts_json(miss.counts) +
      ", \"accounting_exact\": " + (miss_accounting ? "true" : "false") +
      "},\n  \"gates_failed\": " + std::to_string(gates.failures.size()) +
      ",\n  \"metrics\": " + metrics_json + "\n}\n";
  Status written = WriteTextFile("BENCH_load.json", json);
  if (!written.ok()) {
    PrintTitle("FATAL: " + written.ToString());
    return 1;
  }
  std::printf("\nwrote BENCH_load.json\n");

  std::string metrics_path = flags->GetString("metrics_json");
  if (!metrics_path.empty()) {
    Status s = WriteTextFile(metrics_path, metrics_json);
    if (!s.ok()) {
      PrintTitle("FATAL: " + s.ToString());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }

  if (!gates.failures.empty()) {
    for (const std::string& failure : gates.failures) {
      PrintTitle("FATAL: " + failure);
    }
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace fairjob

int main(int argc, char** argv) { return fairjob::bench::Main(argc, argv); }
