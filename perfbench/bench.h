#ifndef FAIRJOB_PERFBENCH_BENCH_H_
#define FAIRJOB_PERFBENCH_BENCH_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace fairbench {

// What one workload run hands back to main: every metric it measured (by
// name, with unit), the operation counts for the result line, and whether
// every checked answer agreed with its oracle.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  // Sample counts behind each percentile ("p99_us" -> n), for the host
  // record printed beside the result.
  std::vector<std::pair<std::string, uint64_t>> samples;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corrupts one checked answer before the oracle sees it: the run must
  // then fail (the benchmark's negative self-test, exercised by hand).
  bool corrupt_one = false;
  std::string out_dir;  // scratch files (cube files, span dumps)
};

RunResult RunAudit(const RunConfig& config);
RunResult RunServe(const RunConfig& config);

double NowS();
// Peak resident set (VmHWM) in MB.
double PeakRssMb();
// Value at quantile q (0..1) of `values`, nearest-rank; sorts a copy.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

template <typename T>
T OrDie(fairjob::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "fatal: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

inline void MustOk(const fairjob::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s: %s\n", what, status.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace fairbench

#endif  // FAIRJOB_PERFBENCH_BENCH_H_
