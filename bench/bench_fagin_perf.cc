// Performance of Algorithm 1 (Fagin Threshold Algorithm) against the naive
// full scan, across universe sizes and inverted-list counts. The skewed
// value distribution mirrors unfairness cubes, where a handful of
// dimension values dominate; TA terminates after a few sorted accesses
// while the scan always touches everything.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/fagin.h"
#include "core/fagin_family.h"
#include "support/fagin_reference.h"

namespace fairjob {
namespace {

std::vector<InvertedIndex> MakeLists(size_t universe, size_t num_lists,
                                     uint64_t seed, bool skewed = true) {
  Rng rng(seed);
  std::vector<InvertedIndex> lists;
  lists.reserve(num_lists);
  for (size_t l = 0; l < num_lists; ++l) {
    std::vector<ScoredEntry> entries;
    entries.reserve(universe);
    for (size_t id = 0; id < universe; ++id) {
      double u = rng.NextDouble();
      // Skewed: heavy right tail (most values small, few large), the shape
      // of unfairness cubes, where early termination shines. Uniform values
      // keep frontier bounds tight for longer, so candidate bookkeeping and
      // random accesses dominate — the dense engine's target regime.
      entries.push_back({static_cast<int32_t>(id), skewed ? u * u * u : u});
    }
    lists.emplace_back(std::move(entries));
  }
  return lists;
}

std::vector<const InvertedIndex*> Pointers(
    const std::vector<InvertedIndex>& lists) {
  std::vector<const InvertedIndex*> out;
  out.reserve(lists.size());
  for (const InvertedIndex& list : lists) out.push_back(&list);
  return out;
}

void BM_FaginTopK(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  size_t num_lists = static_cast<size_t>(state.range(1));
  std::vector<InvertedIndex> lists = MakeLists(universe, num_lists, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  TopKOptions options;
  options.k = 5;
  FaginStats stats;
  for (auto _ : state) {
    stats = FaginStats{};
    auto result =
        RunTopK(TopKAlgorithm::kThresholdAlgorithm, ptrs, options, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["sorted_accesses"] = static_cast<double>(stats.sorted_accesses);
  state.counters["random_accesses"] = static_cast<double>(stats.random_accesses);
  state.counters["ids_scored"] = static_cast<double>(stats.ids_scored);
}

void BM_FaginFA(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  size_t num_lists = static_cast<size_t>(state.range(1));
  std::vector<InvertedIndex> lists = MakeLists(universe, num_lists, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  TopKOptions options;
  options.k = 5;
  options.missing = MissingCellPolicy::kZero;  // FA's early-stop mode
  FaginStats stats;
  for (auto _ : state) {
    stats = FaginStats{};
    auto result = RunTopK(TopKAlgorithm::kFA, ptrs, options, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["sorted_accesses"] = static_cast<double>(stats.sorted_accesses);
  state.counters["ids_scored"] = static_cast<double>(stats.ids_scored);
}

void BM_FaginNRA(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  size_t num_lists = static_cast<size_t>(state.range(1));
  std::vector<InvertedIndex> lists = MakeLists(universe, num_lists, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  TopKOptions options;
  options.k = 5;
  options.missing = MissingCellPolicy::kZero;
  FaginStats stats;
  for (auto _ : state) {
    stats = FaginStats{};
    auto result = RunTopK(TopKAlgorithm::kNRA, ptrs, options, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["sorted_accesses"] = static_cast<double>(stats.sorted_accesses);
  state.counters["random_accesses"] = static_cast<double>(stats.random_accesses);
}

void BM_ScanTopK(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  size_t num_lists = static_cast<size_t>(state.range(1));
  std::vector<InvertedIndex> lists = MakeLists(universe, num_lists, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  TopKOptions options;
  options.k = 5;
  FaginStats stats;
  for (auto _ : state) {
    stats = FaginStats{};
    auto result = RunTopK(TopKAlgorithm::kScan, ptrs, options, &stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["sorted_accesses"] = static_cast<double>(stats.sorted_accesses);
  state.counters["ids_scored"] = static_cast<double>(stats.ids_scored);
}

void BM_FaginBottomK(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  std::vector<InvertedIndex> lists = MakeLists(universe, 16, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  TopKOptions options;
  options.k = 5;
  options.direction = RankDirection::kLeastUnfair;
  for (auto _ : state) {
    auto result = RunTopK(TopKAlgorithm::kThresholdAlgorithm, ptrs, options);
    benchmark::DoNotOptimize(result);
  }
}

void BM_IndexBuild(benchmark::State& state) {
  size_t universe = static_cast<size_t>(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    std::vector<ScoredEntry> entries;
    entries.reserve(universe);
    for (size_t id = 0; id < universe; ++id) {
      entries.push_back({static_cast<int32_t>(id), rng.NextDouble()});
    }
    InvertedIndex index(std::move(entries));
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(universe));
}

// --- dense vs legacy-hash engine comparison (--dense_compare) ---------------

uint64_t BitsOf(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Best-of-`reps` average milliseconds per call of `fn` over `iters` calls.
double BestMsPerRun(int reps, int iters, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
    best = std::min(best, ms);
  }
  return best;
}

// Times the dense engine against the legacy hash reference
// (core/fagin_reference.h) on each family member, verifies bitwise-identical
// answers and identical access-count stats, and writes
// BENCH_fagin_dense.json. The aggregate-heavy scan/NRA configurations carry
// an enforced speedup bar: the process exits non-zero when the dense engine
// is not at least `kSpeedupBar` times faster, or when any identity / stats
// check fails. TA/FA are reported unenforced (early termination makes their
// runtime mostly sorted-access bound, so both engines are fast).
constexpr double kSpeedupBar = 2.0;

int DenseCompareMain(bool smoke) {
  struct Config {
    const char* name;
    TopKAlgorithm algorithm;
    MissingCellPolicy missing;
    size_t universe;
    size_t num_lists;
    size_t k;
    bool uniform;  // uniform values delay early stops (see MakeLists)
    bool enforce;  // carries the >= kSpeedupBar bar
    int iters;
  };
  // Full-size scan config (64 lists, universe 8192) also exercises the
  // parallel candidate-scoring path; the smoke sizes stay serial and finish
  // in well under a second on a loaded CI runner.
  const Config configs[] = {
      {"scan_wide", TopKAlgorithm::kScan, MissingCellPolicy::kSkip,
       smoke ? size_t{1024} : size_t{8192}, smoke ? size_t{16} : size_t{64},
       10, true, true, smoke ? 20 : 5},
      // The NRA universe stays 2048 even in smoke: at smaller sizes the
      // legacy engine's hash tables fit in cache and the speedup margin over
      // the bar narrows. One run is ~20ms, so smoke still finishes fast.
      {"nra_uniform", TopKAlgorithm::kNRA, MissingCellPolicy::kZero, 2048, 4,
       10, true, true, smoke ? 4 : 5},
      {"ta_skewed", TopKAlgorithm::kThresholdAlgorithm,
       MissingCellPolicy::kSkip, smoke ? size_t{512} : size_t{4096},
       smoke ? size_t{8} : size_t{16}, 5, false, false, smoke ? 50 : 20},
      {"fa_zero", TopKAlgorithm::kFA, MissingCellPolicy::kZero,
       smoke ? size_t{512} : size_t{4096}, smoke ? size_t{8} : size_t{16}, 5,
       false, false, smoke ? 50 : 20},
  };
  const int reps = smoke ? 3 : 5;

  bench::PrintTitle(std::string("Fagin dense engine vs legacy hash engine (") +
                    (smoke ? "smoke" : "full") + ")");
  std::vector<std::vector<std::string>> rows;
  std::string json = std::string("{\n  \"bench\": \"fagin_dense\",\n") +
                     "  \"mode\": \"" + (smoke ? "smoke" : "full") +
                     "\",\n  \"speedup_bar\": " + bench::Fmt(kSpeedupBar, 1) +
                     ",\n  \"configs\": [\n";
  bool failed = false;

  for (size_t c = 0; c < sizeof(configs) / sizeof(configs[0]); ++c) {
    const Config& config = configs[c];
    std::vector<InvertedIndex> lists =
        MakeLists(config.universe, config.num_lists, 42, !config.uniform);
    std::vector<const InvertedIndex*> ptrs = Pointers(lists);
    std::vector<HashedListView> views = BuildHashedViews(ptrs);
    TopKOptions options;
    options.k = config.k;
    options.missing = config.missing;
    options.universe_hint = config.universe;

    // Correctness gate first: identical answers (bitwise) and identical
    // access-count semantics.
    FaginStats dense_stats;
    auto dense = RunTopK(config.algorithm, ptrs, options, &dense_stats);
    FaginStats ref_stats;
    auto ref = ReferenceRunTopK(config.algorithm, views, options, &ref_stats);
    if (!dense.ok() || !ref.ok()) {
      std::fprintf(stderr, "%s: run failed: %s / %s\n", config.name,
                   dense.status().ToString().c_str(),
                   ref.status().ToString().c_str());
      return 1;
    }
    bool identical = dense->size() == ref->size();
    for (size_t i = 0; identical && i < dense->size(); ++i) {
      identical = (*dense)[i].pos == (*ref)[i].pos &&
                  BitsOf((*dense)[i].value) == BitsOf((*ref)[i].value);
    }
    bool stats_match =
        dense_stats.sorted_accesses == ref_stats.sorted_accesses &&
        dense_stats.random_accesses == ref_stats.random_accesses &&
        dense_stats.ids_scored == ref_stats.ids_scored &&
        dense_stats.rounds == ref_stats.rounds &&
        dense_stats.threshold_checks == ref_stats.threshold_checks;
    if (!identical || !stats_match) {
      std::fprintf(stderr, "%s: dense/reference divergence (identical=%d, "
                   "stats_match=%d)\n",
                   config.name, identical ? 1 : 0, stats_match ? 1 : 0);
      failed = true;
    }

    double dense_ms = BestMsPerRun(reps, config.iters, [&] {
      auto result = RunTopK(config.algorithm, ptrs, options);
      benchmark::DoNotOptimize(result);
    });
    double ref_ms = BestMsPerRun(reps, config.iters, [&] {
      auto result = ReferenceRunTopK(config.algorithm, views, options);
      benchmark::DoNotOptimize(result);
    });
    double speedup = dense_ms > 0.0 ? ref_ms / dense_ms : 0.0;
    bool below_bar = config.enforce && speedup < kSpeedupBar;
    if (below_bar) {
      std::fprintf(stderr, "%s: dense speedup %.2fx below the %.1fx bar\n",
                   config.name, speedup, kSpeedupBar);
      failed = true;
    }

    rows.push_back({config.name, TopKAlgorithmName(config.algorithm),
                    std::to_string(config.universe),
                    std::to_string(config.num_lists), bench::Fmt(dense_ms),
                    bench::Fmt(ref_ms), bench::Fmt(speedup, 2) + "x",
                    config.enforce ? (below_bar ? "FAIL" : "ok") : "-"});
    json += std::string("    {\"name\": \"") + config.name +
            "\", \"algorithm\": \"" + TopKAlgorithmName(config.algorithm) +
            "\", \"universe\": " + std::to_string(config.universe) +
            ", \"lists\": " + std::to_string(config.num_lists) +
            ", \"k\": " + std::to_string(config.k) +
            ", \"dense_ms\": " + bench::Fmt(dense_ms, 4) +
            ", \"reference_ms\": " + bench::Fmt(ref_ms, 4) +
            ", \"speedup\": " + bench::Fmt(speedup, 2) +
            ", \"enforced\": " + (config.enforce ? "true" : "false") +
            ", \"identical_results\": " + (identical ? "true" : "false") +
            ", \"stats_match\": " + (stats_match ? "true" : "false") + "}" +
            (c + 1 < sizeof(configs) / sizeof(configs[0]) ? ",\n" : "\n");
  }

  bench::PrintTable({"config", "algorithm", "universe", "lists", "dense ms",
                     "hash ms", "speedup", "bar"},
                    rows);
  json += "  ]\n}\n";
  Status written = bench::WriteTextFile("BENCH_fagin_dense.json", json);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_fagin_dense.json\n");
  return failed ? 1 : 0;
}

// CI smoke path (--smoke): one metrics-enabled run of each family member on
// a small instance, written to BENCH_fagin_smoke.json, bypassing the
// google-benchmark driver entirely so it finishes in milliseconds.
int SmokeMain(const char* metrics_path, const char* trace_path) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.SetEnabled(true);
  Tracer::Global().SetEnabled(true);

  std::vector<InvertedIndex> lists = MakeLists(512, 8, 42);
  std::vector<const InvertedIndex*> ptrs = Pointers(lists);
  std::string json = "{\n  \"bench\": \"fagin_smoke\",\n  \"universe\": 512,"
                     "\n  \"lists\": 8,\n  \"algorithms\": [\n";

  struct Algo {
    const char* name;
    TopKAlgorithm algorithm;
    MissingCellPolicy missing;
  };
  const Algo algos[] = {
      {"ta", TopKAlgorithm::kThresholdAlgorithm, MissingCellPolicy::kSkip},
      {"fa", TopKAlgorithm::kFA, MissingCellPolicy::kZero},
      {"nra", TopKAlgorithm::kNRA, MissingCellPolicy::kZero},
      {"scan", TopKAlgorithm::kScan, MissingCellPolicy::kSkip},
  };
  for (size_t i = 0; i < sizeof(algos) / sizeof(algos[0]); ++i) {
    TopKOptions options;
    options.k = 5;
    options.missing = algos[i].missing;
    FaginStats stats;
    auto result = RunTopK(algos[i].algorithm, ptrs, options, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "smoke %s failed: %s\n", algos[i].name,
                   result.status().ToString().c_str());
      return 1;
    }
    json += std::string("    {\"algorithm\": \"") + algos[i].name +
            "\", \"sorted_accesses\": " + std::to_string(stats.sorted_accesses) +
            ", \"random_accesses\": " + std::to_string(stats.random_accesses) +
            ", \"ids_scored\": " + std::to_string(stats.ids_scored) +
            ", \"rounds\": " + std::to_string(stats.rounds) +
            ", \"threshold_checks\": " + std::to_string(stats.threshold_checks) +
            "}";
    json += (i + 1 < sizeof(algos) / sizeof(algos[0])) ? ",\n" : "\n";
  }
  json += "  ],\n  \"metrics\": " + metrics.ToJson() + "\n}\n";

  auto write = [](const char* path, const std::string& body) {
    FILE* f = std::fopen(path, "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
    return 0;
  };
  if (write("BENCH_fagin_smoke.json", json) != 0) return 1;
  if (metrics_path != nullptr && write(metrics_path, metrics.ToJson()) != 0) {
    return 1;
  }
  if (trace_path != nullptr &&
      write(trace_path, Tracer::Global().ToJson()) != 0) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fairjob

BENCHMARK(fairjob::BM_FaginTopK)
    ->ArgsProduct({{64, 512, 4096}, {4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_FaginFA)
    ->ArgsProduct({{64, 512, 4096}, {4, 16}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_FaginNRA)
    ->ArgsProduct({{64, 512, 4096}, {4, 16}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_ScanTopK)
    ->ArgsProduct({{64, 512, 4096}, {4, 16, 64}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_FaginBottomK)
    ->Arg(512)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(fairjob::BM_IndexBuild)->Arg(1024)->Arg(16384)->Unit(
    benchmark::kMicrosecond);

// --smoke / --dense_compare short-circuit before google-benchmark sees the
// command line, so the flag set stays stable across benchmark versions.
// "--dense_compare --smoke" runs the dense comparison at CI-smoke sizes.
int main(int argc, char** argv) {
  const char* metrics_path = nullptr;
  const char* trace_path = nullptr;
  bool smoke = false;
  bool dense_compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--dense_compare") == 0) dense_compare = true;
    if (std::strncmp(argv[i], "--metrics_json=", 15) == 0) {
      metrics_path = argv[i] + 15;
    }
    if (std::strncmp(argv[i], "--trace_json=", 13) == 0) {
      trace_path = argv[i] + 13;
    }
  }
  if (dense_compare) return fairjob::DenseCompareMain(smoke);
  if (smoke) return fairjob::SmokeMain(metrics_path, trace_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
