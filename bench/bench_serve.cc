// Query-serving throughput: the same skewed request trace answered cold
// (cache disabled, every request recomputes), hot (sharded LRU warmed over
// the keyspace) and batched (AnswerBatch dedup + pool fan-out). Writes
// BENCH_serve.json and cross-checks that served answers stay bit-equal to
// direct SolveQuantification.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/indices.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"
#include "serve/quantification_service.h"

namespace fairjob {
namespace bench {
namespace {

// Best-of-R wall-clock of `fn`, in milliseconds.
template <typename Fn>
double TimeMs(size_t repetitions, Fn&& fn) {
  double best = 0.0;
  for (size_t r = 0; r < repetitions; ++r) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            stop - start)
            .count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Every (target, direction, k, algorithm) combination the serving layer
// accepts; kZero keeps NRA eligible so the mix spans all four family
// members (NRA's bounds only work top-down, over at most 64 lists — one
// per cell of the two aggregated axes).
std::vector<QuantificationRequest> RequestSpace(const UnfairnessCube& cube) {
  std::vector<QuantificationRequest> space;
  for (Dimension target :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    size_t aggregated_lists = cube.num_cells() / cube.axis_size(target);
    for (RankDirection direction :
         {RankDirection::kMostUnfair, RankDirection::kLeastUnfair}) {
      for (size_t k : {3u, 5u, 10u}) {
        for (TopKAlgorithm algorithm :
             {TopKAlgorithm::kThresholdAlgorithm, TopKAlgorithm::kFA,
              TopKAlgorithm::kNRA, TopKAlgorithm::kScan}) {
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
          request.missing = MissingCellPolicy::kZero;
          space.push_back(request);
        }
      }
    }
  }
  return space;
}

// 80/20-style skewed trace over the keyspace (u^2 biases toward index 0).
std::vector<QuantificationRequest> MakeTrace(
    const std::vector<QuantificationRequest>& space, size_t length,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<QuantificationRequest> trace;
  trace.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    double u = rng.NextDouble();
    trace.push_back(space[static_cast<size_t>(u * u * space.size())]);
  }
  return trace;
}

bool AnswersIdentical(const QuantificationResult& a,
                      const QuantificationResult& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].id != b.answers[i].id) return false;
    if (a.answers[i].value != b.answers[i].value) return false;
  }
  return true;
}

// One metrics-on pass so the serve.* / serve.cache.* families have data for
// the "metrics" JSON section; runs after the timing loops, which are always
// metrics-off.
std::string InstrumentedPassJson(
    const std::shared_ptr<const CubeSnapshot>& snapshot,
    const std::vector<QuantificationRequest>& trace) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.Reset();
  Tracer::Global().Reset();
  metrics.SetEnabled(true);
  Tracer::Global().SetEnabled(true);

  QuantificationService service(snapshot);
  for (const QuantificationRequest& request : trace) {
    OrDie(service.Answer(request), "instrumented answer");
  }
  std::vector<QuantificationRequest> chunk(
      trace.begin(), trace.begin() + std::min<size_t>(trace.size(), 64));
  for (Result<QuantificationResult>& result : service.AnswerBatch(chunk)) {
    OrDie(std::move(result), "instrumented batch answer");
  }

  metrics.SetEnabled(false);
  Tracer::Global().SetEnabled(false);
  return metrics.ToJson();
}

}  // namespace

int Main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse({argv + 1, argv + argc});
  if (!flags.ok()) {
    PrintTitle("FATAL: " + flags.status().ToString());
    return 1;
  }
  const bool smoke = flags->Has("smoke");
  const size_t kReps = smoke ? 1 : 3;
  const size_t kTraceLen = smoke ? 500 : 4000;
  const size_t kBatchSize = 64;

  PrintTitle("Query serving: cold vs hot (sharded LRU) vs batched");
  PrintPaperNote(
      "Problem 1 quantification is the interactive primitive of Section 4; "
      "this bench guards the serving layer's cache and dedup win.");

  size_t hardware = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %zu\n", hardware);

  TaskRabbitConfig config;
  config.num_workers = smoke ? 150 : 400;
  config.max_cities = smoke ? 3 : 6;
  config.max_subjobs_per_category = 2;
  TaskRabbitDataset world = OrDie(BuildTaskRabbitDataset(config), "world");
  GroupSpace space =
      OrDie(GroupSpace::Enumerate(world.dataset.schema()), "space");
  // Every service below serves this one snapshot.
  std::shared_ptr<const CubeSnapshot> snapshot = CubeSnapshot::Make(
      OrDie(BuildMarketplaceCube(world.dataset, space, MarketMeasure::kEmd,
                                 MeasureOptions{}, CubeAxes{}, hardware),
            "cube"));
  const UnfairnessCube& cube = snapshot->cube();
  const IndexSet& indices = snapshot->indices();

  std::vector<QuantificationRequest> request_space = RequestSpace(cube);
  std::vector<QuantificationRequest> trace =
      MakeTrace(request_space, kTraceLen, 7);
  std::printf("keyspace: %zu distinct requests, trace: %zu, cube: %zu cells\n",
              request_space.size(), trace.size(), cube.num_cells());

  // Identity guard: served answers (cached and batched) must stay bit-equal
  // to direct SolveQuantification for every key in the space.
  bool all_identical = true;
  {
    QuantificationService service(snapshot);
    std::vector<Result<QuantificationResult>> batched =
        service.AnswerBatch(request_space);
    for (size_t i = 0; i < request_space.size(); ++i) {
      QuantificationResult direct =
          OrDie(SolveQuantification(cube, indices, request_space[i]),
                "direct solve");
      QuantificationResult served =
          OrDie(service.Answer(request_space[i]), "served answer");
      QuantificationResult from_batch =
          OrDie(std::move(batched[i]), "batched answer");
      all_identical = all_identical && AnswersIdentical(direct, served) &&
                      AnswersIdentical(direct, from_batch);
    }
  }

  // Cold: cache off, a fresh service each rep — every request recomputes.
  double cold_ms = TimeMs(kReps, [&] {
    QuantificationService::Options options;
    options.cache_capacity = 0;
    QuantificationService service(snapshot, options);
    for (const QuantificationRequest& request : trace) {
      OrDie(service.Answer(request), "cold answer");
    }
  });

  // Hot: cache warmed over the whole keyspace, then the trace replayed. The
  // first replay after warm-up still pays one-time costs the cache cannot
  // hide (lazily faulted pages, cold branch predictors, allocator growth),
  // so it is timed separately as hot_first_ms; the gated hot_ms is steady
  // state — best of kReps replays taken only after that first one.
  QuantificationService hot(snapshot);
  for (const QuantificationRequest& request : request_space) {
    OrDie(hot.Answer(request), "warmup answer");
  }
  auto replay_hot = [&] {
    for (const QuantificationRequest& request : trace) {
      OrDie(hot.Answer(request), "hot answer");
    }
  };
  double hot_first_ms = TimeMs(1, replay_hot);
  double hot_ms = TimeMs(kReps, replay_hot);
  // Steady-state per-request latency distribution, one timed call at a time
  // (exact sorted-sample percentiles, same method as serve/load_gen).
  std::vector<double> hot_samples;
  hot_samples.reserve(trace.size());
  for (const QuantificationRequest& request : trace) {
    auto start = std::chrono::steady_clock::now();
    OrDie(hot.Answer(request), "hot sampled answer");
    auto stop = std::chrono::steady_clock::now();
    hot_samples.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            stop - start)
            .count());
  }
  std::sort(hot_samples.begin(), hot_samples.end());
  auto quantile = [&](double q) {
    if (hot_samples.empty()) return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(hot_samples.size())));
    return hot_samples[std::min(rank == 0 ? 0 : rank - 1,
                                hot_samples.size() - 1)];
  };
  double hot_p50_us = quantile(0.50);
  double hot_p99_us = quantile(0.99);
  auto cache = hot.cache_stats();

  // Batched: fresh service per rep, trace chunked through AnswerBatch —
  // dedup plus pool fan-out, no pre-warming.
  double batched_ms = TimeMs(kReps, [&] {
    QuantificationService service(snapshot);
    for (size_t i = 0; i < trace.size(); i += kBatchSize) {
      size_t end = std::min(trace.size(), i + kBatchSize);
      std::vector<QuantificationRequest> chunk(trace.begin() + i,
                                               trace.begin() + end);
      for (Result<QuantificationResult>& result : service.AnswerBatch(chunk)) {
        OrDie(std::move(result), "batched answer");
      }
    }
  });

  double n = static_cast<double>(trace.size());
  double cold_qps = cold_ms > 0 ? 1000.0 * n / cold_ms : 0;
  double hot_qps = hot_ms > 0 ? 1000.0 * n / hot_ms : 0;
  double batched_qps = batched_ms > 0 ? 1000.0 * n / batched_ms : 0;
  double speedup = cold_qps > 0 ? hot_qps / cold_qps : 0;

  PrintTable(
      {"pass", "ms", "req/s", "vs cold"},
      {{"cold (no cache)", Fmt(cold_ms), Fmt(cold_qps, 0), "1.00x"},
       {"hot first replay", Fmt(hot_first_ms),
        Fmt(hot_first_ms > 0 ? 1000.0 * n / hot_first_ms : 0, 0), "-"},
       {"hot (steady state)", Fmt(hot_ms), Fmt(hot_qps, 0),
        Fmt(speedup, 2) + "x"},
       {"batched", Fmt(batched_ms), Fmt(batched_qps, 0),
        Fmt(cold_qps > 0 ? batched_qps / cold_qps : 0, 2) + "x"}});
  std::printf("hot steady-state per-request: p50 %.1f us, p99 %.1f us\n",
              hot_p50_us, hot_p99_us);
  std::printf("cache: %llu hits / %llu lookups, %llu evictions\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.lookups),
              static_cast<unsigned long long>(cache.evictions));
  std::printf("answers identical to direct solve: %s\n",
              all_identical ? "yes" : "NO");

  std::string metrics_json = InstrumentedPassJson(snapshot, trace);
  std::string json =
      "{\n  \"bench\": \"serve\",\n  \"hardware_concurrency\": " +
      std::to_string(hardware) +
      ",\n  \"keyspace\": " + std::to_string(request_space.size()) +
      ",\n  \"trace_len\": " + std::to_string(trace.size()) +
      ",\n  \"batch_size\": " + std::to_string(kBatchSize) +
      ",\n  \"cold_ms\": " + Fmt(cold_ms) +
      ",\n  \"hot_first_ms\": " + Fmt(hot_first_ms) +
      ",\n  \"hot_ms\": " + Fmt(hot_ms) +
      ",\n  \"hot_p50_us\": " + Fmt(hot_p50_us, 1) +
      ",\n  \"hot_p99_us\": " + Fmt(hot_p99_us, 1) +
      ",\n  \"batched_ms\": " + Fmt(batched_ms) +
      ",\n  \"cold_qps\": " + Fmt(cold_qps, 0) +
      ",\n  \"hot_qps\": " + Fmt(hot_qps, 0) +
      ",\n  \"batched_qps\": " + Fmt(batched_qps, 0) +
      ",\n  \"hot_speedup\": " + Fmt(speedup, 2) +
      ",\n  \"cache\": {\"hits\": " + std::to_string(cache.hits) +
      ", \"lookups\": " + std::to_string(cache.lookups) +
      ", \"evictions\": " + std::to_string(cache.evictions) +
      "},\n  \"identical_answers\": " + (all_identical ? "true" : "false") +
      ",\n  \"metrics\": " + metrics_json + "\n}\n";
  Status written = WriteTextFile("BENCH_serve.json", json);
  if (!written.ok()) {
    PrintTitle("FATAL: " + written.ToString());
    return 1;
  }
  std::printf("\nwrote BENCH_serve.json\n");

  std::string metrics_path = flags->GetString("metrics_json");
  if (!metrics_path.empty()) {
    Status s = WriteTextFile(metrics_path, metrics_json);
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

  if (!all_identical) {
    PrintTitle("FATAL: served answers diverged from direct solve");
    return 1;
  }
  // Enforced gate: the warm cache must actually pay for itself. The full
  // tier demands 5x over cold; smoke runs on tiny datasets where compute is
  // cheap, so the bar drops to 2x instead of flapping.
  const double min_hot_speedup = smoke ? 2.0 : 5.0;
  if (speedup < min_hot_speedup) {
    PrintTitle("FATAL: hot speedup " + Fmt(speedup, 2) + "x below the " +
               Fmt(min_hot_speedup, 1) + "x gate");
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace fairjob

int main(int argc, char** argv) { return fairjob::bench::Main(argc, argv); }
