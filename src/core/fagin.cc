#include "core/fagin.h"

#include <string>

#include "common/metrics.h"
#include "core/fagin_family.h"

namespace fairjob {

void RecordFaginMetrics(const char* algorithm, const FaginStats& stats,
                        std::optional<double> elapsed_us) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  if (!metrics.enabled()) return;
  std::string prefix = std::string("fagin.") + algorithm;
  metrics.counter(prefix + ".runs")->Add(1);
  metrics.counter(prefix + ".sorted_accesses")->Add(stats.sorted_accesses);
  metrics.counter(prefix + ".random_accesses")->Add(stats.random_accesses);
  metrics.counter(prefix + ".ids_scored")->Add(stats.ids_scored);
  metrics.counter(prefix + ".rounds")->Add(stats.rounds);
  metrics.counter(prefix + ".threshold_checks")->Add(stats.threshold_checks);
  metrics.counter(prefix + ".dense_accesses")->Add(stats.dense_accesses);
  metrics.counter(prefix + ".hash_accesses")->Add(stats.hash_accesses);
  if (elapsed_us.has_value()) {
    metrics.histogram(prefix + ".latency_us")->Record(*elapsed_us);
  }
}

Result<std::vector<ScoredEntry>> FaginTopK(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats) {
  return RunTopK(TopKAlgorithm::kThresholdAlgorithm, lists, options, stats);
}

Result<std::vector<ScoredEntry>> ScanTopK(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats) {
  return RunTopK(TopKAlgorithm::kScan, lists, options, stats);
}

}  // namespace fairjob
