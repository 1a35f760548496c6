#include "support/fagin_reference.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/metrics.h"

namespace fairjob {
namespace {

// Run-scope frame of every reference engine: redirects a null caller
// `stats` to local storage so the metrics layer always has access counts,
// times the run, and publishes via RecordFaginMetrics on destruction. When
// metrics are disabled the frame costs one relaxed atomic load and no clock
// reads.
class MeteredRun {
 public:
  MeteredRun(const char* algorithm, FaginStats** stats)
      : algorithm_(algorithm), timed_(MetricsRegistry::Global().enabled()) {
    if (*stats == nullptr) *stats = &local_;
    stats_ = *stats;
    if (timed_) start_ = std::chrono::steady_clock::now();
  }
  ~MeteredRun() {
    if (!timed_) return;
    RecordFaginMetrics(algorithm_, *stats_,
                       std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
  }

  MeteredRun(const MeteredRun&) = delete;
  MeteredRun& operator=(const MeteredRun&) = delete;

 private:
  const char* algorithm_;
  bool timed_;
  FaginStats local_;
  FaginStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

bool Better(double a, double b, RankDirection dir) {
  return dir == RankDirection::kMostUnfair ? a > b : a < b;
}

void SortResults(std::vector<ScoredEntry>* out, RankDirection dir) {
  std::sort(out->begin(), out->end(),
            [dir](const ScoredEntry& a, const ScoredEntry& b) {
              if (a.value != b.value) return Better(a.value, b.value, dir);
              return a.pos < b.pos;
            });
}

Status Validate(const std::vector<HashedListView>& lists, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (lists.empty()) {
    return Status::InvalidArgument("top-k needs at least one inverted list");
  }
  return Status::OK();
}

// Aggregate of `pos` across all lists under the missing-cell policy via
// hash-map random access; nullopt when the id appears in no list.
std::optional<double> Aggregate(const std::vector<HashedListView>& lists,
                                int32_t pos, MissingCellPolicy policy,
                                FaginStats* stats) {
  double sum = 0.0;
  size_t present = 0;
  stats->random_accesses += lists.size();
  for (const HashedListView& list : lists) {
    std::optional<double> v = list.Find(pos);
    if (v.has_value()) {
      sum += *v;
      ++present;
    }
  }
  if (present == 0) return std::nullopt;
  if (policy == MissingCellPolicy::kSkip) {
    return sum / static_cast<double>(present);
  }
  return sum / static_cast<double>(lists.size());
}

// Bound on the aggregate of any id never returned by sorted access so far.
double Threshold(const std::vector<HashedListView>& lists,
                 const std::vector<size_t>& cursors, const TopKOptions& opt) {
  bool most = opt.direction == RankDirection::kMostUnfair;
  if (opt.missing == MissingCellPolicy::kSkip) {
    double bound = most ? -kInf : kInf;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i].size()) continue;  // exhausted: no unseen ids
      size_t next = most ? cursors[i] : lists[i].size() - 1 - cursors[i];
      double frontier = lists[i].entry(next).value;
      bound = most ? std::max(bound, frontier) : std::min(bound, frontier);
    }
    return bound;
  }
  double sum = 0.0;
  for (size_t i = 0; i < lists.size(); ++i) {
    if (cursors[i] >= lists[i].size()) continue;  // per-list bound is 0
    size_t next = most ? cursors[i] : lists[i].size() - 1 - cursors[i];
    double frontier = lists[i].entry(next).value;
    sum += most ? std::max(frontier, 0.0) : std::min(frontier, 0.0);
  }
  return sum / static_cast<double>(lists.size());
}

}  // namespace

HashedListView::HashedListView(const InvertedIndex* list) : list_(list) {
  if (list_ == nullptr) return;
  by_pos_.reserve(list_->size());
  for (size_t i = 0; i < list_->size(); ++i) {
    const ScoredEntry& e = list_->entry(i);
    by_pos_.emplace(e.pos, e.value);
  }
}

std::optional<double> HashedListView::Find(int32_t pos) const {
  auto it = by_pos_.find(pos);
  if (it == by_pos_.end()) return std::nullopt;
  return it->second;
}

std::vector<HashedListView> BuildHashedViews(
    const std::vector<const InvertedIndex*>& lists) {
  std::vector<HashedListView> views;
  views.reserve(lists.size());
  for (const InvertedIndex* list : lists) views.emplace_back(list);
  return views;
}

Result<std::vector<ScoredEntry>> ReferenceFaginTopK(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(Validate(lists, options.k));
  MeteredRun run("ref_ta", &stats);
  bool most = options.direction == RankDirection::kMostUnfair;

  std::unordered_set<int32_t> allowed;
  if (options.allowed != nullptr) {
    allowed.insert(options.allowed->begin(), options.allowed->end());
  }
  auto is_allowed = [&](int32_t pos) {
    return options.allowed == nullptr || allowed.count(pos) > 0;
  };

  std::vector<size_t> cursors(lists.size(), 0);
  std::unordered_set<int32_t> seen;

  std::vector<ScoredEntry> kept;
  auto worse_on_top = [dir = options.direction](const ScoredEntry& a,
                                                const ScoredEntry& b) {
    return Better(a.value, b.value, dir);
  };

  for (;;) {
    bool any_read = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i].size()) continue;
      size_t at = most ? cursors[i] : lists[i].size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i].entry(at);
      ++cursors[i];
      ++stats->sorted_accesses;
      any_read = true;
      if (!is_allowed(e.pos) || !seen.insert(e.pos).second) continue;
      std::optional<double> agg =
          Aggregate(lists, e.pos, options.missing, stats);
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
      double tau = Threshold(lists, cursors, options);
      double kth = kept.front().value;
      bool done = most ? (kth >= tau) : (kth <= tau);
      if (done) break;
    }
  }

  SortResults(&kept, options.direction);
  return kept;
}

Result<std::vector<ScoredEntry>> ReferenceScanTopK(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(Validate(lists, options.k));
  MeteredRun run("ref_scan", &stats);
  std::unordered_set<int32_t> allowed;
  if (options.allowed != nullptr) {
    allowed.insert(options.allowed->begin(), options.allowed->end());
  }
  std::unordered_set<int32_t> ids;
  for (const HashedListView& list : lists) {
    // A scan's "depth" is the longest list: it reads everything.
    stats->rounds = std::max(stats->rounds, list.size());
    for (size_t i = 0; i < list.size(); ++i) {
      ++stats->sorted_accesses;
      int32_t pos = list.entry(i).pos;
      if (options.allowed == nullptr || allowed.count(pos) > 0) {
        ids.insert(pos);
      }
    }
  }
  std::vector<ScoredEntry> scored;
  scored.reserve(ids.size());
  for (int32_t pos : ids) {
    std::optional<double> agg = Aggregate(lists, pos, options.missing, stats);
    if (agg.has_value()) {
      ++stats->ids_scored;
      scored.push_back(ScoredEntry{pos, *agg});
    }
  }
  SortResults(&scored, options.direction);
  if (scored.size() > options.k) scored.resize(options.k);
  return scored;
}

Result<std::vector<ScoredEntry>> ReferenceFaginFA(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(Validate(lists, options.k));
  MeteredRun run("ref_fa", &stats);
  bool most = options.direction == RankDirection::kMostUnfair;
  std::unordered_set<int32_t> allowed;
  if (options.allowed != nullptr) {
    allowed.insert(options.allowed->begin(), options.allowed->end());
  }
  auto is_allowed = [&](int32_t pos) {
    return options.allowed == nullptr || allowed.count(pos) > 0;
  };

  std::vector<size_t> cursors(lists.size(), 0);
  std::unordered_map<int32_t, size_t> lists_seen;
  size_t complete_ids = 0;
  bool can_stop_early = options.missing == MissingCellPolicy::kZero;
  for (;;) {
    bool any_read = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i].size()) continue;
      size_t at = most ? cursors[i] : lists[i].size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i].entry(at);
      ++cursors[i];
      ++stats->sorted_accesses;
      any_read = true;
      if (!is_allowed(e.pos)) continue;
      size_t seen = ++lists_seen[e.pos];
      if (seen == lists.size()) ++complete_ids;
    }
    if (!any_read) break;
    ++stats->rounds;
    if (can_stop_early) {
      ++stats->threshold_checks;
      if (complete_ids >= options.k) break;
    }
  }

  std::vector<ScoredEntry> scored;
  scored.reserve(lists_seen.size());
  for (const auto& [pos, seen] : lists_seen) {
    std::optional<double> agg = Aggregate(lists, pos, options.missing, stats);
    if (agg.has_value()) {
      ++stats->ids_scored;
      scored.push_back(ScoredEntry{pos, *agg});
    }
  }
  SortResults(&scored, options.direction);
  if (scored.size() > options.k) scored.resize(options.k);
  return scored;
}

Result<std::vector<ScoredEntry>> ReferenceFaginNRA(
    const std::vector<HashedListView>& lists, const TopKOptions& options,
    FaginStats* stats) {
  FAIRJOB_RETURN_IF_ERROR(Validate(lists, options.k));
  if (options.missing != MissingCellPolicy::kZero) {
    return Status::InvalidArgument(
        "NRA bounds require MissingCellPolicy::kZero (the average over "
        "present lists is not monotone in the unknown entries)");
  }
  if (options.direction != RankDirection::kMostUnfair) {
    return Status::InvalidArgument(
        "NRA supports kMostUnfair only; use TA or the scan for bottom-k");
  }
  MeteredRun run("ref_nra", &stats);
  std::unordered_set<int32_t> allowed;
  if (options.allowed != nullptr) {
    allowed.insert(options.allowed->begin(), options.allowed->end());
  }
  auto is_allowed = [&](int32_t pos) {
    return options.allowed == nullptr || allowed.count(pos) > 0;
  };

  const size_t num_lists = lists.size();
  const double denom = static_cast<double>(num_lists);
  struct Candidate {
    double known_sum = 0.0;
    // Bitmask of lists whose value is known (sorted access saw this id).
    uint64_t known_mask = 0;
  };
  if (num_lists > 64) {
    return Status::InvalidArgument("NRA supports at most 64 lists");
  }
  std::unordered_map<int32_t, Candidate> candidates;
  std::vector<size_t> cursors(num_lists, 0);

  auto frontier = [&](size_t i) -> double {
    if (cursors[i] >= lists[i].size()) return 0.0;  // exhausted: rest is 0
    return std::max(lists[i].entry(cursors[i]).value, 0.0);
  };

  for (;;) {
    bool any_read = false;
    for (size_t i = 0; i < num_lists; ++i) {
      if (cursors[i] >= lists[i].size()) continue;
      const ScoredEntry& e = lists[i].entry(cursors[i]);
      ++cursors[i];
      ++stats->sorted_accesses;
      any_read = true;
      if (!is_allowed(e.pos)) continue;
      Candidate& c = candidates[e.pos];
      c.known_sum += e.value;
      c.known_mask |= (1ull << i);
    }
    if (!any_read) break;
    ++stats->rounds;

    if (candidates.size() < options.k) continue;
    ++stats->threshold_checks;

    double frontier_sum = 0.0;
    for (size_t i = 0; i < num_lists; ++i) frontier_sum += frontier(i);

    std::vector<std::pair<double, int32_t>> lowers;
    lowers.reserve(candidates.size());
    for (const auto& [pos, c] : candidates) {
      lowers.emplace_back(c.known_sum / denom, pos);
    }
    std::nth_element(
        lowers.begin(), lowers.begin() + static_cast<long>(options.k - 1),
        lowers.end(), [](const auto& a, const auto& b) {
          if (a.first != b.first) return a.first > b.first;
          return a.second < b.second;
        });
    double kth_lower = lowers[options.k - 1].first;
    std::unordered_set<int32_t> top_positions;
    for (size_t i = 0; i < options.k; ++i) {
      top_positions.insert(lowers[i].second);
    }

    double outside_upper = frontier_sum / denom;  // fully unseen id
    for (const auto& [pos, c] : candidates) {
      if (top_positions.count(pos) > 0) continue;
      double upper = c.known_sum;
      for (size_t i = 0; i < num_lists; ++i) {
        if ((c.known_mask & (1ull << i)) == 0) upper += frontier(i);
      }
      outside_upper = std::max(outside_upper, upper / denom);
    }
    if (kth_lower >= outside_upper) {
      std::vector<ScoredEntry> out;
      out.reserve(options.k);
      for (int32_t pos : top_positions) {
        std::optional<double> agg =
            Aggregate(lists, pos, options.missing, stats);
        if (agg.has_value()) {
          ++stats->ids_scored;
          out.push_back(ScoredEntry{pos, *agg});
        }
      }
      SortResults(&out, options.direction);
      return out;
    }
  }

  std::vector<ScoredEntry> out;
  out.reserve(candidates.size());
  for (const auto& [pos, c] : candidates) {
    ++stats->ids_scored;
    out.push_back(ScoredEntry{pos, c.known_sum / denom});
  }
  SortResults(&out, options.direction);
  if (out.size() > options.k) out.resize(options.k);
  return out;
}

Result<std::vector<ScoredEntry>> ReferenceRunTopK(
    TopKAlgorithm algorithm, const std::vector<HashedListView>& lists,
    const TopKOptions& options, FaginStats* stats) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return ReferenceFaginTopK(lists, options, stats);
    case TopKAlgorithm::kFA:
      return ReferenceFaginFA(lists, options, stats);
    case TopKAlgorithm::kNRA:
      return ReferenceFaginNRA(lists, options, stats);
    case TopKAlgorithm::kScan:
      return ReferenceScanTopK(lists, options, stats);
  }
  return Status::InvalidArgument("unknown top-k algorithm");
}

}  // namespace fairjob
