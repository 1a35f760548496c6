// fairbench: the repo benchmark. One process runs one workload:
//
//   fairbench --workload <audit|serve_hot> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir> [--corrupt-one]
//
// It prints every metric it measured, by name with its unit, then a host
// record, then (last line) one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exit status is non-zero when an answer
// disagrees with its oracle. perfbench/run.py builds and runs it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "oracle.h"
#include "ranking/simd.h"
#include "span.h"

namespace fairbench {
namespace {

// The metric sets of BENCHMARK.json. Every workload reports every
// end-to-end metric; a per-layer metric of a layer a workload does not run
// reads 0.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "ok_frac",
                                 "audit_s", "p50_us",      "p99_us"};

const char* const kPerLayer[] = {
    // Workload-level figures without a bound.
    "market_audit_s", "search_audit_s", "fail_frac", "sched_p50_us",
    "p99_phase_us", "slo_qps",
    "fresh_p50_ms", "fresh_p90_ms", "stale_frac",
    // crawl
    "crawl.crawl_s", "crawl.requests", "crawl.profiles_s", "crawl.label_s",
    "crawl.assemble_s", "crawl.assemble_search_s", "crawl.cube_sink_s",
    "crawl.cube_bytes", "crawl.cube_open_s", "crawl.cube_materialize_s",
    // core
    "core.market_build_s", "core.market_cells_per_s", "core.search_build_s",
    "core.index_s", "core.p1_us.p50", "core.p1_us.p99", "core.p1_sorted",
    "core.p1_random", "core.p2_us.p50", "core.p2_us.p99",
    "core.algo_failures.ta", "core.algo_failures.fa",
    "core.algo_failures.nra", "core.algo_failures.scan",
    "core.order_mismatches",
    // ranking
    "ranking.pairs", "ranking.pairs_per_s",
    // serve
    "serve.key_us.p50", "serve.hit_us.p50", "serve.miss_us.p99",
    "serve.key_frac", "serve.engine_frac", "serve.hit_frac",
    "serve.coalesced", "serve.computations", "serve.shed", "serve.rejected",
    "serve.stale_hits", "serve.upsert_ms.p50", "serve.columns_changed",
    "serve.flip_us", "serve.maintainer_make_s",
    // common
    "common.lru_evictions",
    // load (the benchmark's own generator) and market (the replay site)
    "load.offered", "load.ok", "load.lateness_p99_us", "load.backlog_max",
    "market.site_s",
    // the tracer itself
    "trace.market_coverage", "trace.search_coverage", "trace.spans",
    "trace.est_overhead_s"};

// Units of per-layer metrics a workload did not produce (reported as 0).
std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("per_s") || ends("qps")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("_ms") || name.find("_ms.") != std::string::npos) return "ms";
  if (ends("_us") || name.find("_us.") != std::string::npos) return "us";
  if (ends("_frac") || ends("_coverage")) return "ratio";
  if (ends("bytes")) return "bytes";
  return "count";
}

// Cost of recording one span, measured on a private thread so the
// calibration spans land in a buffer of their own. Times the span count, it
// estimates the tracing overhead of a run without a second, untraced run
// (whose difference would drown in run-to-run noise).
double SpanCostS() {
  constexpr int kSpans = 200'000;
  double cost = 0.0;
  std::thread([&] {
    double t0 = NowS();
    for (int i = 0; i < kSpans; ++i) Span span("trace.calibrate");
    cost = (NowS() - t0) / kSpans;
  }).join();
  return cost;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fairbench --workload <audit|serve_hot> "
               "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir> "
               "[--corrupt-one]\n");
  return 2;
}

}  // namespace

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt-one") {
      config.corrupt_one = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
      have_seconds = config.seconds > 0.0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(v, "1") == 0;
      have_trace = config.trace || std::strcmp(v, "0") == 0;
    } else if (arg == "--out-dir") {
      config.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.out_dir.empty()) {
    return Usage();
  }
  if (!OracleSelfTest()) {
    std::fprintf(stderr, "fatal: the oracle accepts a corrupted answer\n");
    return 1;
  }
  if (config.trace) EnableTracing();

  RunResult result;
  if (config.workload == "audit") {
    result = RunAudit(config);
  } else if (config.workload == "serve_hot") {
    result = RunServe(config);
  } else {
    return Usage();
  }

  if (config.trace) {
    for (const auto& [name, t] : SummarizeSpans()) {
      std::printf("span %-28s self %.6f s  total %.6f s  count %llu\n",
                  name.c_str(), t.self_s, t.total_s,
                  static_cast<unsigned long long>(t.count));
    }
    const uint64_t spans = RecordedSpans();
    const std::string path =
        config.out_dir + "/spans-" + config.workload + ".csv";
    if (!WriteSpansCsv(path)) {
      std::fprintf(stderr, "fatal: cannot write %s\n", path.c_str());
      return 2;
    }
    result.Add("trace.spans", static_cast<double>(spans), "count");
    result.Add("trace.est_overhead_s",
               static_cast<double>(spans) * SpanCostS(), "s");
  }

  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : result.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    by_name[m.name] = &m;
  }
  std::printf("host: {\"nproc\": %u, \"simd_kernel\": \"%s\", "
              "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"samples\": {",
              std::thread::hardware_concurrency(), fairjob::simd::ActiveKernel(),
              FAIRBENCH_BUILD_TYPE, config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (size_t i = 0; i < result.samples.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "",
                result.samples[i].first.c_str(),
                static_cast<unsigned long long>(result.samples[i].second));
  }
  std::printf("}}\n");

  std::string metrics;
  auto emit = [&](const std::string& name) {
    auto it = by_name.find(name);
    double value = it == by_name.end() ? 0.0 : it->second->value;
    std::string unit = it == by_name.end() ? UnitOf(name) : it->second->unit;
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
               Json(value) + ", \"unit\": \"" + unit + "\"}";
  };
  if (config.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) {
      if (by_name.count(name) == 0) {
        std::fprintf(stderr, "fatal: workload did not measure %s\n", name);
        return 2;
      }
      emit(name);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace fairbench

int main(int argc, char** argv) { return fairbench::Main(argc, argv); }
