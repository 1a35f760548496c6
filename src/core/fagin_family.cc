#include "core/fagin_family.h"

#include <algorithm>
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

const char* TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return "TA";
    case TopKAlgorithm::kFA:
      return "FA";
    case TopKAlgorithm::kNRA:
      return "NRA";
    case TopKAlgorithm::kScan:
      return "scan";
  }
  return "?";
}

Result<std::vector<ScoredEntry>> FaginFA(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(lists, options.k));
  return fagin_internal::FaginFA(GatherNonEmpty(lists), options, stats);
}

Result<std::vector<ScoredEntry>> FaginNRA(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(lists, options.k));
  return fagin_internal::FaginNRA(GatherNonEmpty(lists), options, stats);
}

Result<std::vector<ScoredEntry>> RunTopK(
    TopKAlgorithm algorithm, const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options, FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(lists, options.k));
  return fagin_internal::RunTopK(algorithm, GatherNonEmpty(lists), options,
                                 stats);
}

namespace fagin_internal {

Result<std::vector<ScoredEntry>> FaginFA(const ListSet& set,
                                         const TopKOptions& options,
                                         FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(set, options.k));
  TraceSpan span("FaginFA", "fagin");
  MeteredRun run("fa", &stats);
  bool most = options.direction == RankDirection::kMostUnfair;
  const std::vector<const InvertedIndex*>& lists = set.lists;

  const size_t universe = UniverseOf(set, options.universe_hint);
  std::vector<uint8_t> allowed_scratch;
  const uint8_t* allowed =
      BuildAllowedBitmap(options.allowed, universe, &allowed_scratch);

  // Phase 1: round-robin sorted access until k (allowed) ids have been seen
  // on every list, or all lists are exhausted. Early stopping is only sound
  // under kZero semantics (see header); under kSkip we read everything.
  // Per-position sorted-access counts live in a flat array.
  std::vector<size_t> cursors(lists.size(), 0);
  std::vector<uint32_t> seen_count(universe, 0);
  size_t complete_ids = 0;
  bool can_stop_early = options.missing == MissingCellPolicy::kZero;
  for (;;) {
    bool any_read = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i]->size()) continue;
      size_t at = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i]->entry(at);
      ++cursors[i];
      ++stats->sorted_accesses;
      any_read = true;
      if (!IsAllowed(allowed, e.pos)) continue;
      // Complete means seen on every *selected* list, so a selection with
      // an empty list never completes an id.
      uint32_t seen = ++seen_count[static_cast<size_t>(e.pos)];
      if (seen == set.selected) ++complete_ids;
    }
    if (!any_read) break;
    ++stats->rounds;
    if (can_stop_early) {
      ++stats->threshold_checks;
      if (complete_ids >= options.k) break;
    }
  }

  // Phase 2: random access to score every seen id, ascending by position.
  std::vector<int32_t> candidates;
  for (size_t pos = 0; pos < universe; ++pos) {
    if (seen_count[pos] > 0) candidates.push_back(static_cast<int32_t>(pos));
  }
  CandidateScorer scorer(set, universe);
  return ScoreSeenCandidates(candidates, options, &scorer, stats);
}

Result<std::vector<ScoredEntry>> FaginNRA(const ListSet& set,
                                          const TopKOptions& options,
                                          FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(ValidateTopK(set, options.k));
  if (options.missing != MissingCellPolicy::kZero) {
    return Status::InvalidArgument(
        "NRA bounds require MissingCellPolicy::kZero (the average over "
        "present lists is not monotone in the unknown entries)");
  }
  if (options.direction != RankDirection::kMostUnfair) {
    return Status::InvalidArgument(
        "NRA supports kMostUnfair only; use TA or the scan for bottom-k");
  }
  TraceSpan span("FaginNRA", "fagin");
  MeteredRun run("nra", &stats);

  // The width limit and the kZero denominator count every selected list;
  // the per-list bookkeeping below covers only the non-empty ones.
  if (set.selected > 64) {
    return Status::InvalidArgument("NRA supports at most 64 lists");
  }
  const std::vector<const InvertedIndex*>& lists = set.lists;
  const size_t num_lists = lists.size();
  const double denom = static_cast<double>(set.selected);

  const size_t universe = UniverseOf(set, options.universe_hint);
  std::vector<uint8_t> allowed_scratch;
  const uint8_t* allowed =
      BuildAllowedBitmap(options.allowed, universe, &allowed_scratch);

  // Candidate bookkeeping in flat position-indexed arrays: the partial sum
  // of known entries, its /denom quotient (the lower bound, cached so each
  // threshold check reads it instead of re-dividing per candidate — the
  // quotient only changes when sorted access touches the position), and a
  // bitmask of the lists sorted access has seen. `seen_positions` records
  // first-touch order so threshold checks iterate candidates, not the whole
  // axis.
  std::vector<double> known_sum(universe, 0.0);
  std::vector<double> lower_bound(universe, 0.0);
  std::vector<uint64_t> known_mask(universe, 0);
  std::vector<int32_t> seen_positions;
  std::vector<uint8_t> in_top(universe, 0);
  std::vector<size_t> cursors(num_lists, 0);

  auto frontier = [&](size_t i) -> double {
    if (cursors[i] >= lists[i]->size()) return 0.0;  // exhausted: rest is 0
    return std::max(lists[i]->entry(cursors[i]).value, 0.0);
  };
  // Reused across threshold checks (frontiers are constant within a check;
  // lowers keeps its capacity) so the per-round bookkeeping allocates once.
  std::vector<double> frontiers(num_lists, 0.0);
  std::vector<std::pair<double, int32_t>> lowers;

  // Lower bounds are compared under the total order (value desc, pos asc),
  // which makes the current top-k set unique — any selection method yields
  // the same set. When every list value is non-negative (lists are sorted
  // descending, so the tail entry is the minimum) the bounds are monotone
  // non-decreasing, and the top-k can be maintained incrementally from the
  // <= num_lists positions touched per round — O(k) per check instead of
  // rebuilding + selecting over all candidates. Negative values fall back
  // to the per-check nth_element.
  auto lower_cmp = [](const std::pair<double, int32_t>& a,
                      const std::pair<double, int32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  bool monotone = true;
  for (const InvertedIndex* list : lists) {
    if (!list->empty() && list->entry(list->size() - 1).value < 0.0) {
      monotone = false;
      break;
    }
  }
  std::vector<std::pair<double, int32_t>> top;  // sorted by lower_cmp
  bool top_built = false;
  std::vector<int32_t> touched;  // positions updated this round

  for (;;) {
    bool any_read = false;
    touched.clear();
    for (size_t i = 0; i < num_lists; ++i) {
      if (cursors[i] >= lists[i]->size()) continue;
      const ScoredEntry& e = lists[i]->entry(cursors[i]);
      ++cursors[i];
      ++stats->sorted_accesses;
      any_read = true;
      if (!IsAllowed(allowed, e.pos)) continue;
      size_t p = static_cast<size_t>(e.pos);
      if (known_mask[p] == 0) seen_positions.push_back(e.pos);
      known_sum[p] += e.value;
      lower_bound[p] = known_sum[p] / denom;
      known_mask[p] |= (1ull << i);
      if (top_built) touched.push_back(e.pos);
    }
    if (!any_read) break;
    ++stats->rounds;

    if (seen_positions.size() < options.k) continue;
    ++stats->threshold_checks;

    // Lower bound: unknown entries contribute 0 (kZero). Upper bound:
    // unknown entries are at most the list frontier.
    double frontier_sum = 0.0;
    for (size_t i = 0; i < num_lists; ++i) {
      frontiers[i] = frontier(i);
      frontier_sum += frontiers[i];
    }

    // k-th best lower bound.
    double kth_lower;
    if (monotone) {
      if (!top_built) {
        // Bootstrap from the full candidate set once; incremental from here.
        lowers.clear();
        lowers.reserve(seen_positions.size());
        for (int32_t pos : seen_positions) {
          lowers.emplace_back(lower_bound[static_cast<size_t>(pos)], pos);
        }
        std::partial_sort(lowers.begin(),
                          lowers.begin() + static_cast<long>(options.k),
                          lowers.end(), lower_cmp);
        top.assign(lowers.begin(),
                   lowers.begin() + static_cast<long>(options.k));
        for (const auto& entry : top) {
          in_top[static_cast<size_t>(entry.second)] = 1;
        }
        top_built = true;
      } else {
        // Only touched positions can enter or move (bounds never decrease
        // and untouched members keep their keys). Duplicates are harmless:
        // reprocessing reads the same final lower bound.
        for (int32_t pos : touched) {
          size_t p = static_cast<size_t>(pos);
          std::pair<double, int32_t> key{lower_bound[p], pos};
          if (in_top[p] != 0) {
            size_t j = 0;
            while (top[j].second != pos) ++j;
            top[j] = key;
            for (; j > 0 && lower_cmp(top[j], top[j - 1]); --j) {
              std::swap(top[j], top[j - 1]);
            }
          } else if (lower_cmp(key, top.back())) {
            in_top[static_cast<size_t>(top.back().second)] = 0;
            top.back() = key;
            in_top[p] = 1;
            for (size_t j = top.size() - 1;
                 j > 0 && lower_cmp(top[j], top[j - 1]); --j) {
              std::swap(top[j], top[j - 1]);
            }
          }
        }
      }
      kth_lower = top.back().first;
    } else {
      lowers.clear();
      lowers.reserve(seen_positions.size());
      for (int32_t pos : seen_positions) {
        lowers.emplace_back(lower_bound[static_cast<size_t>(pos)], pos);
      }
      std::nth_element(lowers.begin(),
                       lowers.begin() + static_cast<long>(options.k - 1),
                       lowers.end(), lower_cmp);
      kth_lower = lowers[options.k - 1].first;
      for (size_t i = 0; i < options.k; ++i) {
        in_top[static_cast<size_t>(lowers[i].second)] = 1;
      }
    }

    // Upper bound of any id outside the current top-k (seen or unseen).
    // The max is taken over the raw sums and divided once at the end:
    // correctly-rounded division by a positive constant is monotone, so it
    // commutes with max and the quotient is bitwise-identical to dividing
    // each term.
    double outside_upper_raw = frontier_sum;  // fully unseen id
    for (int32_t pos : seen_positions) {
      size_t p = static_cast<size_t>(pos);
      if (in_top[p] != 0) continue;
      double upper = known_sum[p];
      for (size_t i = 0; i < num_lists; ++i) {
        if ((known_mask[p] & (1ull << i)) == 0) upper += frontiers[i];
      }
      outside_upper_raw = std::max(outside_upper_raw, upper);
    }
    double outside_upper = outside_upper_raw / denom;
    bool done = kth_lower >= outside_upper;
    if (done) {
      // The top-k id set is final. Resolve exact aggregates for those ids
      // (a pragmatic k·L random-access epilogue; classic NRA would return
      // bounds).
      CandidateScorer scorer(set, universe);
      std::vector<ScoredEntry> out;
      out.reserve(options.k);
      for (size_t i = 0; i < options.k; ++i) {
        int32_t pos = monotone ? top[i].second : lowers[i].second;
        std::optional<double> agg =
            scorer.Aggregate(pos, options.missing, stats);
        if (agg.has_value()) {
          ++stats->ids_scored;
          out.push_back(ScoredEntry{pos, *agg});
        }
      }
      SortResults(&out, options.direction);
      return out;
    }
    // The incremental top keeps its marks; the fallback rebuilds each check,
    // so reset only the k marked slots (a full clear would be O(universe)).
    if (!monotone) {
      for (size_t i = 0; i < options.k; ++i) {
        in_top[static_cast<size_t>(lowers[i].second)] = 0;
      }
    }
  }

  // Lists exhausted: every candidate's aggregate is fully known.
  std::vector<ScoredEntry> out;
  out.reserve(seen_positions.size());
  for (int32_t pos : seen_positions) {
    ++stats->ids_scored;
    out.push_back(
        ScoredEntry{pos, known_sum[static_cast<size_t>(pos)] / denom});
  }
  KeepTopK(&out, options.k, options.direction);
  return out;
}

Result<std::vector<ScoredEntry>> RunTopK(TopKAlgorithm algorithm,
                                         const ListSet& set,
                                         const TopKOptions& options,
                                         FaginStats* stats) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return ThresholdTopK(set, options, stats);
    case TopKAlgorithm::kFA:
      return FaginFA(set, options, stats);
    case TopKAlgorithm::kNRA:
      return FaginNRA(set, options, stats);
    case TopKAlgorithm::kScan:
      return ScanTopK(set, options, stats);
  }
  return Status::InvalidArgument("unknown top-k algorithm");
}

}  // namespace fagin_internal
}  // namespace fairjob
