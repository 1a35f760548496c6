#include "core/fagin.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/trace.h"
#include "core/fagin_dense.h"
#include "core/fagin_run_metrics.h"

namespace fairjob {
namespace {

using fagin_internal::GatherNonEmpty;
using fagin_internal::ValidateTopK;

}  // namespace

void RecordFaginMetrics(const char* algorithm, const FaginStats& stats,
                        double elapsed_us) {
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
  metrics.histogram(prefix + ".latency_us")->Record(elapsed_us);
}

Result<std::vector<ScoredEntry>> FaginTopK(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(lists, options.k));
  return fagin_internal::ThresholdTopK(GatherNonEmpty(lists), options, stats);
}

Result<std::vector<ScoredEntry>> ScanTopK(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(lists, options.k));
  return fagin_internal::ScanTopK(GatherNonEmpty(lists), options, stats);
}

namespace fagin_internal {

Result<std::vector<ScoredEntry>> ThresholdTopK(const ListSet& set,
                                               const TopKOptions& options,
                                               FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(set, options.k));
  TraceSpan span("FaginTopK", "fagin");
  MeteredRun run("ta", &stats);
  bool most = options.direction == RankDirection::kMostUnfair;
  const std::vector<const InvertedIndex*>& lists = set.lists;

  const size_t universe = UniverseOf(set, options.universe_hint);
  std::vector<uint8_t> allowed_scratch;
  const uint8_t* allowed =
      BuildAllowedBitmap(options.allowed, universe, &allowed_scratch);

  std::vector<size_t> cursors(lists.size(), 0);
  std::vector<uint8_t> seen(universe, 0);
  CandidateScorer scorer(set, universe);

  // `kept` is a heap whose top is the *worst* retained entry, so it can be
  // evicted when a better candidate arrives. std::push_heap puts the
  // comparator-largest element on top, so "better" must compare as smaller.
  std::vector<ScoredEntry> kept;
  auto worse_on_top = [dir = options.direction](const ScoredEntry& a,
                                                const ScoredEntry& b) {
    return Better(a.value, b.value, dir);
  };

  for (;;) {
    bool any_read = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i]->size()) continue;
      size_t at = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i]->entry(at);
      ++cursors[i];
      ++stats->sorted_accesses;
      any_read = true;
      if (!IsAllowed(allowed, e.pos) || seen[static_cast<size_t>(e.pos)] != 0) {
        continue;
      }
      seen[static_cast<size_t>(e.pos)] = 1;
      std::optional<double> agg =
          scorer.Aggregate(e.pos, options.missing, stats);
      if (!agg.has_value()) continue;  // unreachable: e.pos is in list i
      ++stats->ids_scored;
      ScoredEntry scored{e.pos, *agg};
      if (kept.size() < options.k) {
        kept.push_back(scored);
        std::push_heap(kept.begin(), kept.end(), worse_on_top);
      } else if (Better(scored.value, kept.front().value, options.direction)) {
        std::pop_heap(kept.begin(), kept.end(), worse_on_top);
        kept.back() = scored;
        std::push_heap(kept.begin(), kept.end(), worse_on_top);
      }
    }
    if (!any_read) break;  // every list exhausted
    ++stats->rounds;

    if (kept.size() >= options.k) {
      ++stats->threshold_checks;
      double tau = ThresholdBound(set, cursors, options);
      double kth = kept.front().value;
      bool done = most ? (kth >= tau) : (kth <= tau);
      if (done) break;
    }
  }

  SortResults(&kept, options.direction);
  return kept;
}

Result<std::vector<ScoredEntry>> ScanTopK(const ListSet& set,
                                          const TopKOptions& options,
                                          FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(set, options.k));
  TraceSpan span("ScanTopK", "fagin");
  MeteredRun run("scan", &stats);

  const size_t universe = UniverseOf(set, options.universe_hint);
  std::vector<uint8_t> allowed_scratch;
  const uint8_t* allowed =
      BuildAllowedBitmap(options.allowed, universe, &allowed_scratch);

  // One list-order pass over every entry: O(total entries) instead of
  // O(candidates × lists) random accesses, with the same per-position sums.
  // A scan's "depth" is the longest list: it reads everything.
  for (const InvertedIndex* list : set.lists) {
    stats->rounds = std::max(stats->rounds, list->size());
  }
  stats->sorted_accesses += set.entries;
  CandidateScorer scorer(set, universe);
  scorer.Fill();

  std::vector<ScoredEntry> scored;
  for (size_t pos = 0; pos < universe; ++pos) {
    uint32_t present = scorer.count(pos);
    if (present == 0 || !IsAllowed(allowed, static_cast<int32_t>(pos))) {
      continue;
    }
    // The pass keeps the counters of per-candidate random access.
    scorer.CountAccess(stats);
    ++stats->ids_scored;
    const double value =
        AggregateOf(scorer.sum(pos), present, set.selected, options.missing);
    scored.push_back(ScoredEntry{static_cast<int32_t>(pos), value});
  }

  KeepTopK(&scored, options.k, options.direction);
  return scored;
}

}  // namespace fagin_internal
}  // namespace fairjob
