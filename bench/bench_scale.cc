// Million-user scale tier: generate → sharded build → binary persistence →
// serve, with enforced wall-clock and RSS budgets (a budget miss fails the
// bench, it does not warn). Also gates the two scale-tier speedups:
//  * binary cube load must beat the CSV reference by a floor (bitwise
//    identity cross-checked both ways), and
//  * the SIMD Jaccard popcount sweep must beat the scalar kernel on
//    dense-universe cell bitmaps (cube outputs bitwise-identical), and
//  * the batched marketplace column engine must beat the pre-batch
//    cell-shared context on production-shaped columns (cells
//    bitwise-identical).
// Writes BENCH_scale.json; --smoke runs a CI-sized workload.

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "crawl/cube_io.h"
#include "market/scale_gen.h"
#include "ranking/simd.h"
#include "serve/quantification_service.h"

namespace fairjob {
namespace bench {
namespace {

struct ScaleBudgets {
  double total_wall_s;     // whole bench, generate through serve
  double build_rss_mb;     // peak RSS right after the sharded build + save
  double total_rss_mb;     // peak RSS at exit (includes serve-side cube)
  double binary_speedup;   // binary load vs CSV load floor
  double simd_speedup;     // SIMD vs scalar popcount sweep floor (AVX2 only)
  double market_batch_speedup;  // batched vs context column-evaluation floor
};

// Full mode is the acceptance workload: 1M workers, 10k queries, Zipf
// traffic, 119 intersectional groups. Budgets hold on a single-core runner
// with headroom; the RSS ceilings are the point — the 59.5M-cell tensor
// (~950 MB as optional<double>) must never materialize during the build.
constexpr ScaleBudgets kFullBudgets = {900.0, 3072.0, 8192.0, 10.0, 1.5, 2.0};
constexpr ScaleBudgets kSmokeBudgets = {120.0, 1024.0, 2048.0, 2.0, 1.5, 1.5};

ScaleSpec FullSpec() {
  ScaleSpec spec;
  spec.seed = 20260809;
  spec.num_workers = 1'000'000;
  spec.num_queries = 10'000;
  spec.num_locations = 50;
  spec.num_ranked_columns = 20'000;
  return spec;
}

ScaleSpec SmokeSpec() {
  ScaleSpec spec;
  spec.seed = 20260809;
  spec.num_workers = 20'000;
  spec.num_queries = 200;
  spec.num_locations = 8;
  spec.num_ranked_columns = 400;
  return spec;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Peak ("VmHWM") or current ("VmRSS") resident set in MB; 0 when
// /proc/self/status is unavailable (non-Linux), which skips the RSS gates.
double ProcStatusMb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      mb = std::strtod(line + key_len + 1, nullptr) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
#else
  (void)key;
  return 0.0;
#endif
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    PrintTitle(std::string("FATAL: ") + what + ": " + status.ToString());
    std::exit(1);
  }
}

bool CubesIdentical(const UnfairnessCube& a, const UnfairnessCube& b) {
  if (a.axis_size(Dimension::kGroup) != b.axis_size(Dimension::kGroup) ||
      a.axis_size(Dimension::kQuery) != b.axis_size(Dimension::kQuery) ||
      a.axis_size(Dimension::kLocation) != b.axis_size(Dimension::kLocation)) {
    return false;
  }
  for (size_t g = 0; g < a.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < a.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < a.axis_size(Dimension::kLocation); ++l) {
        if (a.Get(g, q, l) != b.Get(g, q, l)) return false;
      }
    }
  }
  return true;
}

// The SIMD acceptance microbench: the Jaccard dense-path popcount sweep over
// cell-shaped bitmaps (words per bitmap as in a dense-universe search cell),
// scalar kernel vs runtime-dispatched kernel on identical inputs.
struct SweepTimes {
  double scalar_ms;
  double simd_ms;
  bool counts_match;
};

SweepTimes TimePopcountSweep(size_t words_per_bitmap, size_t num_bitmaps,
                             size_t rounds) {
  Rng rng(4242);
  std::vector<uint64_t> bitmaps(words_per_bitmap * num_bitmaps);
  for (uint64_t& w : bitmaps) {
    w = static_cast<uint64_t>(rng.NextU32()) << 32 | rng.NextU32();
  }
  auto sweep = [&](bool force_scalar) {
    simd::ScopedScalarKernels kernels(force_scalar);
    uint64_t total = 0;
    double start = NowS();
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < num_bitmaps; ++i) {
        for (size_t j = i + 1; j < num_bitmaps; ++j) {
          total += simd::IntersectPopcount(
              bitmaps.data() + i * words_per_bitmap,
              bitmaps.data() + j * words_per_bitmap, words_per_bitmap);
        }
      }
    }
    double ms = (NowS() - start) * 1e3;
    return std::pair<double, uint64_t>(ms, total);
  };
  auto [scalar_ms, scalar_total] = sweep(/*force_scalar=*/true);
  auto [simd_ms, simd_total] = sweep(/*force_scalar=*/false);
  return {scalar_ms, simd_ms, scalar_total == simd_total};
}

}  // namespace

int Main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse({argv + 1, argv + argc});
  if (!flags.ok()) {
    PrintTitle("FATAL: " + flags.status().ToString());
    return 1;
  }
  const bool smoke = flags->Has("smoke");
  const ScaleBudgets& budgets = smoke ? kSmokeBudgets : kFullBudgets;
  const ScaleSpec spec = smoke ? SmokeSpec() : FullSpec();
  const std::string cube_bin = "scale_cube.bin";
  const std::string cube_csv = "scale_cube.csv";
  const double bench_start = NowS();
  // Counters stay on for the whole run (relaxed-atomic adds, noise-level
  // next to ms-scale phases) so the --metrics_json export reflects the real
  // pipeline: columns streamed, binary bytes written, cache hits.
  MetricsRegistry::Global().SetEnabled(true);

  PrintTitle(std::string("Scale tier (") + (smoke ? "smoke" : "full") +
             "): generate -> sharded build -> binary cube -> serve");
  PrintPaperNote(
      "The paper audits ~3.8k TaskRabbit workers; this tier stresses the "
      "same cube pipeline at production population sizes.");

  // --- Phase 1: generate -----------------------------------------------------
  double t0 = NowS();
  MarketplaceDataset market =
      OrDie(GenerateScaleMarketplace(spec), "scale generation");
  GroupSpace space = OrDie(GroupSpace::Enumerate(market.schema()), "space");
  double generate_s = NowS() - t0;
  std::printf("generated %zu workers, %zu queries, %zu locations, %zu ranked "
              "columns, %zu groups in %.1fs\n",
              market.num_workers(), market.queries().size(),
              market.locations().size(), market.num_rankings(),
              space.num_groups(), generate_s);

  // --- Phase 2: sharded build streaming to the binary cube file --------------
  t0 = NowS();
  CubeAxes axes =
      OrDie(ResolveMarketplaceCubeAxes(market, space), "resolve axes");
  auto writer = OrDie(BinaryCubeColumnWriter::Create(cube_bin, axes),
                      "binary cube writer");
  ShardedBuildOptions sharded;
  sharded.shard_columns = 4096;
  sharded.parallelism = 4;
  MustOk(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd, {},
                                     axes, sharded, writer.get()),
         "sharded build");
  MustOk(writer->Finish(), "binary cube finish");
  double build_s = NowS() - t0;
  double build_rss_mb = ProcStatusMb("VmHWM:");
  std::printf("sharded build + binary save: %.1fs, peak RSS %.0f MB\n",
              build_s, build_rss_mb);

  // --- Phase 3: binary vs CSV load differential ------------------------------
  // The gated comparison is load-to-servable: a trusted mmap open (the
  // sealed-file fast path — Get works straight off the mapping, no parse)
  // against the CSV parse-and-materialize, each ending with the same random
  // Get workload. The CRC-verified open and the full binary materialize are
  // measured alongside; the materialized cubes cross-check bitwise identity.
  MappedCube::Options trusted;
  trusted.verify_checksum = false;
  t0 = NowS();
  MappedCube mapped_verified =
      OrDie(MappedCube::Open(cube_bin), "verified mmap open");
  double verified_open_s = NowS() - t0;
  Rng probe_rng(7);
  std::vector<std::array<uint32_t, 3>> probes(4096);
  for (auto& p : probes) {
    p = {probe_rng.NextU32(), probe_rng.NextU32(), probe_rng.NextU32()};
  }
  auto probe_sum = [&probes](auto&& get, size_t gs, size_t qs, size_t ls) {
    double sum = 0.0;
    for (const auto& p : probes) {
      sum += get(p[0] % gs, p[1] % qs, p[2] % ls).value_or(0.0);
    }
    return sum;
  };
  size_t gs = mapped_verified.axis_size(Dimension::kGroup);
  size_t qs = mapped_verified.axis_size(Dimension::kQuery);
  size_t ls = mapped_verified.axis_size(Dimension::kLocation);
  t0 = NowS();
  MappedCube mapped =
      OrDie(MappedCube::Open(cube_bin, trusted), "trusted mmap open");
  double mapped_sum = probe_sum(
      [&mapped](size_t g, size_t q, size_t l) { return mapped.Get(g, q, l); },
      gs, qs, ls);
  double binary_open_s = NowS() - t0;

  t0 = NowS();
  UnfairnessCube from_binary =
      OrDie(LoadCubeBinary(cube_bin), "binary load");
  double binary_load_s = NowS() - t0;

  MustOk(SaveCube(cube_csv, from_binary), "csv save");
  t0 = NowS();
  UnfairnessCube from_csv = OrDie(LoadCube(cube_csv), "csv load");
  double csv_sum = probe_sum(
      [&from_csv](size_t g, size_t q, size_t l) {
        return from_csv.Get(g, q, l);
      },
      gs, qs, ls);
  double csv_load_s = NowS() - t0;

  bool identical_formats = CubesIdentical(from_binary, from_csv);
  // Random-access parity of the mmap view against the materialized cube
  // (probe sums already agree bit-for-bit if this holds).
  bool mmap_parity = mapped_sum == csv_sum;
  for (const auto& p : probes) {
    size_t g = p[0] % gs, q = p[1] % qs, l = p[2] % ls;
    if (mapped.Get(g, q, l) != from_binary.Get(g, q, l)) {
      mmap_parity = false;
      break;
    }
  }
  double binary_speedup = binary_open_s > 0.0 ? csv_load_s / binary_open_s
                                              : budgets.binary_speedup;
  std::printf("present cells: %zu / %zu\n", from_binary.num_present(),
              from_binary.num_cells());
  std::printf("binary load-to-servable %.2f ms (verified open %.1f ms, full "
              "materialize %.1f ms); csv load-to-servable %.1f ms (%.0fx); "
              "formats identical: %s; mmap parity: %s\n",
              binary_open_s * 1e3, verified_open_s * 1e3, binary_load_s * 1e3,
              csv_load_s * 1e3, binary_speedup,
              identical_formats ? "yes" : "NO", mmap_parity ? "yes" : "NO");

  // --- Phase 4: SIMD sweep gate + search-cube differential -------------------
  // Cell-shaped sweep: a 2048-document dense universe is 32 bitmap words.
  SweepTimes sweep = TimePopcountSweep(/*words_per_bitmap=*/32,
                                       /*num_bitmaps=*/128,
                                       /*rounds=*/smoke ? 20 : 100);
  double simd_speedup =
      sweep.simd_ms > 0.0 ? sweep.scalar_ms / sweep.simd_ms : 1.0;
  std::printf("popcount sweep (32 words): scalar %.1f ms, %s %.1f ms "
              "(%.2fx), counts match: %s\n",
              sweep.scalar_ms, simd::ActiveKernel(), sweep.simd_ms,
              simd_speedup, sweep.counts_match ? "yes" : "NO");

  // Marketplace batched-vs-context column gate on a slice of the generated
  // columns: the batched engine (membership hoisted, as the sharded build
  // above amortizes it) must beat the pre-batch cell-shared context on
  // production-shaped rankings, with bitwise-identical cells.
  std::vector<std::pair<QueryId, LocationId>> market_columns;
  for (QueryId q = 0; q < static_cast<QueryId>(market.queries().size()) &&
                      market_columns.size() < 64;
       ++q) {
    for (LocationId l = 0; l < static_cast<LocationId>(
                                   market.locations().size()) &&
                           market_columns.size() < 64;
         ++l) {
      if (market.GetRanking(q, l) != nullptr) market_columns.emplace_back(q, l);
    }
  }
  MarketColumnComparison market_cmp = CompareMarketColumnPaths(
      market, space, MarketMeasure::kEmd, {}, market_columns,
      /*rounds=*/smoke ? 3 : 5);
  std::printf("market columns (%zu cols): context %.1f ms, batched %.1f ms "
              "(%.2fx), identical: %s\n",
              market_columns.size(), market_cmp.context_ms,
              market_cmp.batch_ms, market_cmp.speedup(),
              market_cmp.identical ? "yes" : "NO");

  SearchScaleSpec search_spec;
  search_spec.seed = spec.seed;
  if (smoke) {
    search_spec.num_observed_columns = 24;
    search_spec.observations_per_column = 24;
  }
  SearchDataset search =
      OrDie(GenerateScaleSearch(search_spec), "search generation");
  GroupSpace search_space =
      OrDie(GroupSpace::Enumerate(search.schema()), "search space");
  t0 = NowS();
  UnfairnessCube search_scalar = [&] {
    simd::ScopedScalarKernels kernels;
    return OrDie(BuildSearchCube(search, search_space, SearchMeasure::kJaccard),
                 "scalar search cube");
  }();
  double search_scalar_s = NowS() - t0;
  t0 = NowS();
  UnfairnessCube search_simd =
      OrDie(BuildSearchCube(search, search_space, SearchMeasure::kJaccard),
            "simd search cube");
  double search_simd_s = NowS() - t0;
  bool search_identical = CubesIdentical(search_scalar, search_simd);
  std::printf("search cube (Jaccard, dense cells): scalar %.2fs, dispatch "
              "%.2fs, outputs identical: %s\n",
              search_scalar_s, search_simd_s, search_identical ? "yes" : "NO");

  // --- Phase 5: serve --------------------------------------------------------
  t0 = NowS();
  IndexSet indices = IndexSet::Build(from_binary);
  double index_s = NowS() - t0;
  QuantificationService::Options service_options;
  service_options.cache_capacity = 4096;
  QuantificationService service(CubeSnapshot::Borrow(&from_binary, &indices),
                                service_options);
  ServeLoadSpec load;
  load.seed = spec.seed + 1;
  load.num_requests = smoke ? 2'000 : 10'000;
  std::vector<QuantificationRequest> requests = GenerateServeRequests(
      load, from_binary.axis_size(Dimension::kGroup),
      from_binary.axis_size(Dimension::kQuery),
      from_binary.axis_size(Dimension::kLocation));
  // Batches of 256 model request waves: repeats across waves hit the answer
  // cache, repeats within a wave coalesce at the batch layer.
  constexpr size_t kServeBatch = 256;
  size_t serve_errors = 0;
  t0 = NowS();
  for (size_t base = 0; base < requests.size(); base += kServeBatch) {
    size_t n = std::min(kServeBatch, requests.size() - base);
    std::vector<QuantificationRequest> wave(requests.begin() + base,
                                            requests.begin() + base + n);
    std::vector<Result<QuantificationResult>> answers =
        service.AnswerBatch(wave);
    for (const auto& a : answers) serve_errors += a.ok() ? 0 : 1;
  }
  double serve_s = NowS() - t0;
  QuantificationService::Stats stats = service.stats();
  double qps = serve_s > 0.0 ? static_cast<double>(requests.size()) / serve_s
                             : 0.0;
  std::printf("serve: %zu requests in %.2fs (%.0f/s), %llu computed, %llu "
              "cache hits, %zu errors (index build %.2fs)\n",
              requests.size(), serve_s, qps,
              static_cast<unsigned long long>(stats.computations),
              static_cast<unsigned long long>(stats.cache_hits), serve_errors,
              index_s);

  // --- Budgets and gates -----------------------------------------------------
  double total_wall_s = NowS() - bench_start;
  double total_rss_mb = ProcStatusMb("VmHWM:");
  bool rss_known = build_rss_mb > 0.0;

  struct Gate {
    const char* name;
    bool pass;
    std::string detail;
  };
  bool simd_gated = simd::Avx2Available();
  std::vector<Gate> gates = {
      {"total_wall_within_budget", total_wall_s <= budgets.total_wall_s,
       Fmt(total_wall_s, 1) + "s <= " + Fmt(budgets.total_wall_s, 1) + "s"},
      {"build_rss_within_budget",
       !rss_known || build_rss_mb <= budgets.build_rss_mb,
       Fmt(build_rss_mb, 0) + " MB <= " + Fmt(budgets.build_rss_mb, 0) +
           " MB"},
      {"total_rss_within_budget",
       !rss_known || total_rss_mb <= budgets.total_rss_mb,
       Fmt(total_rss_mb, 0) + " MB <= " + Fmt(budgets.total_rss_mb, 0) +
           " MB"},
      {"binary_load_speedup", binary_speedup >= budgets.binary_speedup,
       Fmt(binary_speedup, 1) + "x >= " + Fmt(budgets.binary_speedup, 1) +
           "x"},
      {"formats_bitwise_identical", identical_formats, ""},
      {"mmap_random_access_parity", mmap_parity, ""},
      {"sweep_counts_identical", sweep.counts_match, ""},
      {"simd_sweep_speedup",
       !simd_gated || simd_speedup >= budgets.simd_speedup,
       simd_gated ? Fmt(simd_speedup, 2) + "x >= " +
                        Fmt(budgets.simd_speedup, 2) + "x"
                  : "skipped (no AVX2)"},
      {"search_cube_bitwise_identical", search_identical, ""},
      {"market_batch_bitwise_identical", market_cmp.identical, ""},
      {"market_batch_speedup",
       market_cmp.speedup() >= budgets.market_batch_speedup,
       Fmt(market_cmp.speedup(), 2) + "x >= " +
           Fmt(budgets.market_batch_speedup, 2) + "x"},
      {"serve_no_errors", serve_errors == 0,
       std::to_string(serve_errors) + " errors"},
  };

  std::vector<std::vector<std::string>> gate_rows;
  bool all_pass = true;
  for (const Gate& gate : gates) {
    all_pass = all_pass && gate.pass;
    gate_rows.push_back({gate.name, gate.pass ? "pass" : "FAIL", gate.detail});
  }
  PrintTitle("Budget gates");
  PrintTable({"gate", "result", "detail"}, gate_rows);

  std::string json = std::string("{\n  \"bench\": \"scale\",\n") +
      "  \"mode\": \"" + (smoke ? "smoke" : "full") + "\",\n" +
      "  \"workers\": " + std::to_string(market.num_workers()) + ",\n" +
      "  \"queries\": " + std::to_string(market.queries().size()) + ",\n" +
      "  \"locations\": " + std::to_string(market.locations().size()) + ",\n" +
      "  \"groups\": " + std::to_string(space.num_groups()) + ",\n" +
      "  \"ranked_columns\": " + std::to_string(market.num_rankings()) + ",\n" +
      "  \"cube_cells\": " + std::to_string(from_binary.num_cells()) + ",\n" +
      "  \"cube_present\": " + std::to_string(from_binary.num_present()) +
      ",\n" +
      "  \"generate_s\": " + Fmt(generate_s, 2) + ",\n" +
      "  \"sharded_build_s\": " + Fmt(build_s, 2) + ",\n" +
      "  \"build_peak_rss_mb\": " + Fmt(build_rss_mb, 1) + ",\n" +
      "  \"total_peak_rss_mb\": " + Fmt(total_rss_mb, 1) + ",\n" +
      "  \"binary_open_ms\": " + Fmt(binary_open_s * 1e3, 3) + ",\n" +
      "  \"verified_open_ms\": " + Fmt(verified_open_s * 1e3, 2) + ",\n" +
      "  \"binary_load_ms\": " + Fmt(binary_load_s * 1e3, 2) + ",\n" +
      "  \"csv_load_ms\": " + Fmt(csv_load_s * 1e3, 2) + ",\n" +
      "  \"binary_load_speedup\": " + Fmt(binary_speedup, 2) + ",\n" +
      "  \"simd_kernel\": \"" + simd::ActiveKernel() + "\",\n" +
      "  \"sweep_scalar_ms\": " + Fmt(sweep.scalar_ms, 2) + ",\n" +
      "  \"sweep_simd_ms\": " + Fmt(sweep.simd_ms, 2) + ",\n" +
      "  \"sweep_speedup\": " + Fmt(simd_speedup, 2) + ",\n" +
      "  \"market_columns\": " + std::to_string(market_columns.size()) +
      ",\n" +
      "  \"market_context_ms\": " + Fmt(market_cmp.context_ms, 2) + ",\n" +
      "  \"market_batched_ms\": " + Fmt(market_cmp.batch_ms, 2) + ",\n" +
      "  \"market_batch_speedup\": " + Fmt(market_cmp.speedup(), 2) + ",\n" +
      "  \"search_build_scalar_s\": " + Fmt(search_scalar_s, 3) + ",\n" +
      "  \"search_build_simd_s\": " + Fmt(search_simd_s, 3) + ",\n" +
      "  \"index_build_s\": " + Fmt(index_s, 2) + ",\n" +
      "  \"serve_requests\": " + std::to_string(requests.size()) + ",\n" +
      "  \"serve_s\": " + Fmt(serve_s, 2) + ",\n" +
      "  \"serve_qps\": " + Fmt(qps, 1) + ",\n" +
      "  \"serve_computations\": " + std::to_string(stats.computations) +
      ",\n" +
      "  \"serve_cache_hits\": " + std::to_string(stats.cache_hits) + ",\n" +
      "  \"total_wall_s\": " + Fmt(total_wall_s, 2) + ",\n" +
      "  \"gates\": {\n";
  for (size_t i = 0; i < gates.size(); ++i) {
    json += std::string("    \"") + gates[i].name +
            "\": " + (gates[i].pass ? "true" : "false") +
            (i + 1 < gates.size() ? ",\n" : "\n");
  }
  json += "  }\n}\n";

  Status written = WriteTextFile("BENCH_scale.json", json);
  if (!written.ok()) {
    PrintTitle("FATAL: " + written.ToString());
    return 1;
  }
  std::printf("\nwrote BENCH_scale.json (total wall %.1fs)\n", total_wall_s);

  std::remove(cube_bin.c_str());
  std::remove(cube_csv.c_str());

  // Optional observability exports: counters accumulated across the whole
  // run (cube.sharded.*, cube.io.*, serve.*) and the trace buffers.
  std::string metrics_path = flags->GetString("metrics_json");
  if (!metrics_path.empty()) {
    Status s = WriteTextFile(metrics_path, MetricsRegistry::Global().ToJson());
    if (!s.ok()) {
      PrintTitle("FATAL: " + s.ToString());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  std::string trace_path = flags->GetString("trace_json");
  if (!trace_path.empty()) {
    Status s = Tracer::Global().WriteJson(trace_path);
    if (!s.ok()) {
      PrintTitle("FATAL: " + s.ToString());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }

  if (!all_pass) {
    PrintTitle("FATAL: scale budget gate failed (see table above)");
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace fairjob

int main(int argc, char** argv) { return fairjob::bench::Main(argc, argv); }
