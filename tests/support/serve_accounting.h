#ifndef FAIRJOB_TESTS_SUPPORT_SERVE_ACCOUNTING_H_
#define FAIRJOB_TESTS_SUPPORT_SERVE_ACCOUNTING_H_

// Accounting checks shared by the serve suites: the identities every serve
// mode keeps on QuantificationService::Stats, and the match between those
// per-instance counts and the serve.* / serve.cache.* values
// MetricsRegistry::Global() exports (the registry reads them through the
// service's collector, so the two must agree exactly).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "metrics_json.h"
#include "serve/quantification_service.h"

namespace fairjob {

// `batch_submitted` requests reached AnswerBatch over `batch_calls` calls.
inline void ExpectExactAccounting(const QuantificationService::Stats& stats,
                                  uint64_t batch_submitted = 0,
                                  uint64_t batch_calls = 0) {
  EXPECT_EQ(stats.admitted + stats.shed_deadline + stats.rejected_queue +
                stats.rejected_followers,
            stats.requests);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.admitted);
  EXPECT_EQ(stats.computations + stats.coalesced, stats.cache_misses);
  EXPECT_EQ(stats.batch_requests + stats.batch_deduped, batch_submitted);
  EXPECT_LE(stats.batch_requests, stats.requests);
  EXPECT_EQ(stats.batch_calls, batch_calls);
}

// One service's counts, read while it lives.
struct ServeCounts {
  QuantificationService::Stats stats;
  QuantificationService::AnswerCache::Stats cache;
};

inline ServeCounts CountsOf(const QuantificationService& service) {
  return {service.stats(), service.cache_stats()};
}

// The export names with the per-instance value each one carries, spelled
// out independently of the service's collector.
inline std::vector<std::pair<std::string, uint64_t>> ExpectedServeCounters(
    const ServeCounts& counts) {
  const QuantificationService::Stats& s = counts.stats;
  return {
      {"serve.requests", s.requests},
      {"serve.computations", s.computations},
      {"serve.singleflight.coalesced", s.coalesced},
      {"serve.errors", s.errors},
      {"serve.batch.calls", s.batch_calls},
      {"serve.batch.requests", s.batch_requests + s.batch_deduped},
      {"serve.batch.deduped", s.batch_deduped},
      {"serve.snapshot.flips", s.snapshot_flips},
      {"serve.admission.admitted", s.admitted},
      {"serve.admission.rejected", s.rejected_queue},
      {"serve.shed.deadline", s.shed_deadline},
      {"serve.shed.followers", s.rejected_followers},
      {"serve.stale.hits", s.stale_hits},
      {"serve.stale.refreshes", s.stale_refreshes},
      {"serve.stale.ttl_expired", s.ttl_expired},
      {"serve.cache.hits", counts.cache.hits},
      {"serve.cache.misses", counts.cache.misses},
      {"serve.cache.evictions", counts.cache.evictions},
      {"serve.cache.insertions", counts.cache.insertions},
  };
}

// Checks MetricsRegistry::Global()'s export against the services counted
// since its last Reset(): every serve.* / serve.cache.* counter equals the
// sum over `live` and `retired` (services already destroyed, read just
// before), and the serve.cache.entries gauge equals the entries the `live`
// caches hold. Tests call Reset() before creating their services, so that
// services of earlier tests in the same process drop out.
inline void ExpectExportMatches(const std::vector<ServeCounts>& live,
                                const std::vector<ServeCounts>& retired = {}) {
  const std::string json = MetricsRegistry::Global().ToJson();
  std::vector<std::pair<std::string, uint64_t>> expected =
      ExpectedServeCounters(ServeCounts{});
  uint64_t entries = 0;
  for (const std::vector<ServeCounts>* group : {&live, &retired}) {
    for (const ServeCounts& counts : *group) {
      std::vector<std::pair<std::string, uint64_t>> own =
          ExpectedServeCounters(counts);
      for (size_t i = 0; i < own.size(); ++i) {
        expected[i].second += own[i].second;
      }
    }
  }
  for (const ServeCounts& counts : live) {
    entries += counts.cache.insertions - counts.cache.evictions -
               counts.cache.erasures;
  }
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(ExportedValue(json, name), static_cast<double>(value)) << name;
  }
  EXPECT_EQ(ExportedValue(json, "serve.cache.entries"),
            static_cast<double>(entries));
}

}  // namespace fairjob

#endif  // FAIRJOB_TESTS_SUPPORT_SERVE_ACCOUNTING_H_
