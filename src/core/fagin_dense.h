#ifndef FAIRJOB_CORE_FAGIN_DENSE_H_
#define FAIRJOB_CORE_FAGIN_DENSE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/fagin.h"
#include "core/fagin_family.h"
#include "core/indices.h"

// Internal interface of the dense Fagin engine. The engine itself — the
// TA, FA, NRA and scan lane runners — lives in quantification_batch.cc;
// fagin_family.cc (RunTopK over caller-built lists) reaches it through
// RunLaneGroup, and tests/fagin_dense_test.cc drives the gather and the
// scorer directly.
// Axis positions are dense 0..N-1 cube coordinates, so all per-run
// candidate state lives in flat position-indexed arrays: the allowed filter
// is a byte bitmap, random accesses are O(1) rank-bitmap lookups, and
// candidate aggregates come from one CandidateScorer that switches from
// per-candidate random access to a single list-order pass once that pass is
// the cheaper of the two.

namespace fairjob {
namespace fagin_internal {

// The lists one run reads: the non-empty lists of a selection, in selection
// order, plus how many lists were selected, empty ones included. An empty
// list is exhausted from the start and adds exactly 0 to every sum, so
// dropping it changes no sorted access, bound or aggregate bit. The
// selected count still fixes kZero denominators, FA's completeness test,
// NRA's width limit and the random-access counters.
struct ListSet {
  std::vector<const InvertedIndex*> lists;  // non-empty, selection order
  size_t selected = 0;
  size_t entries = 0;  // total entries over `lists`
};

// Drops the empty lists of a selection whose lists are all non-null.
inline ListSet GatherNonEmpty(std::vector<const InvertedIndex*> lists) {
  ListSet set;
  set.selected = lists.size();
  size_t kept = 0;
  for (const InvertedIndex* list : lists) {
    if (list->empty()) continue;
    set.entries += list->size();
    lists[kept++] = list;
  }
  lists.resize(kept);
  set.lists = std::move(lists);
  return set;
}

// True when `a` should rank ahead of `b` for the requested direction.
inline bool Better(double a, double b, RankDirection dir) {
  return dir == RankDirection::kMostUnfair ? a > b : a < b;
}

// Final ordering of every engine's output: best-first for the direction,
// ties by ascending position. A total order, so the result is deterministic
// however the candidate set was produced.
inline auto ResultOrder(RankDirection dir) {
  return [dir](const ScoredEntry& a, const ScoredEntry& b) {
    if (a.value != b.value) return Better(a.value, b.value, dir);
    return a.pos < b.pos;
  };
}

inline void SortResults(std::vector<ScoredEntry>* out, RankDirection dir) {
  std::sort(out->begin(), out->end(), ResultOrder(dir));
}

// The best k entries of `out` in ResultOrder, sorted: a selection, then a
// sort of the k kept. The order is total, so these are the entries, in the
// order, that sorting everything and truncating would keep.
inline void KeepTopK(std::vector<ScoredEntry>* out, size_t k,
                     RankDirection dir) {
  if (out->size() > k) {
    std::nth_element(out->begin(), out->begin() + static_cast<long>(k),
                     out->end(), ResultOrder(dir));
    out->resize(k);
  }
  SortResults(out, dir);
}

// Bound on the aggregate of any id never returned by sorted access so far —
// TA's termination bound. Pure in (lists, cursors, direction, missing), so
// TA lanes evaluate it against their group's shared cursors.
inline double ThresholdBound(const ListSet& set,
                             const std::vector<size_t>& cursors,
                             const TopKOptions& opt) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<const InvertedIndex*>& lists = set.lists;
  bool most = opt.direction == RankDirection::kMostUnfair;
  if (opt.missing == MissingCellPolicy::kSkip) {
    double bound = most ? -kInf : kInf;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i]->size()) continue;  // exhausted: no unseen ids
      size_t next = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
      double frontier = lists[i]->entry(next).value;
      bound = most ? std::max(bound, frontier) : std::min(bound, frontier);
    }
    return bound;
  }
  // kZero: average of per-list bounds over every selected list; a missing
  // cell (and so an empty list) contributes exactly 0.
  double sum = 0.0;
  for (size_t i = 0; i < lists.size(); ++i) {
    if (cursors[i] >= lists[i]->size()) continue;  // per-list bound is 0
    size_t next = most ? cursors[i] : lists[i]->size() - 1 - cursors[i];
    double frontier = lists[i]->entry(next).value;
    sum += most ? std::max(frontier, 0.0) : std::min(frontier, 0.0);
  }
  return sum / static_cast<double>(set.selected);
}

// Extent of the position space: every entry pos of every list lies in
// [0, universe). An understated hint is corrected from the lists.
inline size_t UniverseOf(const ListSet& set, size_t hint) {
  size_t universe = hint;
  for (const InvertedIndex* list : set.lists) {
    universe = std::max(universe, list->dense_size());
  }
  return universe;
}

// Materializes TopKOptions::allowed into a position-indexed byte bitmap
// inside `scratch` (reused across runs by capacity). Returns nullptr when
// every position is allowed, so the hot loops keep a single branch.
inline const uint8_t* BuildAllowedBitmap(const std::vector<int32_t>* allowed,
                                         size_t universe,
                                         std::vector<uint8_t>* scratch) {
  if (allowed == nullptr) return nullptr;
  scratch->assign(universe, 0);
  for (int32_t pos : *allowed) {
    if (pos >= 0 && static_cast<size_t>(pos) < universe) {
      (*scratch)[static_cast<size_t>(pos)] = 1;
    }
  }
  return scratch->data();
}

// `pos` must lie in [0, universe) — true for every position read from a
// list entry.
inline bool IsAllowed(const uint8_t* allowed, int32_t pos) {
  return allowed == nullptr || allowed[static_cast<size_t>(pos)] != 0;
}

// The aggregate of a position over a ListSet under the missing-cell policy:
// the mean over present lists (kSkip) or over every selected list (kZero).
inline double AggregateOf(double sum, uint32_t present, size_t selected,
                          MissingCellPolicy policy) {
  double denom = policy == MissingCellPolicy::kSkip
                     ? static_cast<double>(present)
                     : static_cast<double>(selected);
  return sum / denom;
}

// The inputs of a position's aggregate: the sum of its values over the
// lists, in list order, and how many lists hold it.
struct PositionSum {
  double sum = 0.0;
  uint32_t present = 0;
};

// The one source of candidate aggregates: TA's and FA's random accesses,
// NRA's exact-value epilogue and the scan. A candidate is first answered by
// random access, one InvertedIndex::Find (a rank-bitmap lookup) per
// non-empty list. Once those lookups would exceed the entry count of the
// lists, the scorer instead fills a per-position (sum, present-count) table
// in one pass over every entry and answers each later candidate from it.
// Either way a position's sum accumulates in list order — each list holds a
// position at most once — so the aggregate bits do not depend on which path
// answered, and the switch point is a property of the input, not a tuning
// knob. Counters follow per-candidate random access over the selected lists
// whichever path ran.
class CandidateScorer {
 public:
  CandidateScorer(const ListSet& set, size_t universe)
      : set_(set), universe_(universe), budget_(set.entries) {}

  CandidateScorer(const CandidateScorer&) = delete;
  CandidateScorer& operator=(const CandidateScorer&) = delete;

  // The caller is about to score `candidates` positions: fills the table
  // now when answering them one by one would exceed the remaining budget.
  void Expect(size_t candidates) {
    const size_t width = set_.lists.size();
    if (width > 0 && candidates > budget_ / width) Fill();
  }

  // The aggregate of `pos` under `policy`, nullopt when no list holds it.
  // Counts one random access per selected list; the caller owns
  // ids_scored.
  std::optional<double> Aggregate(int32_t pos, MissingCellPolicy policy,
                                  FaginStats* stats) {
    CountAccess(stats);
    PositionSum s = Sum(pos);
    if (s.present == 0) return std::nullopt;
    return AggregateOf(s.sum, s.present, set_.selected, policy);
  }

  // What one per-candidate random access costs in the counters.
  void CountAccess(FaginStats* stats) const {
    stats->random_accesses += set_.selected;
  }

  // The inputs of `pos`'s aggregate, counting nothing: batch lanes that
  // share a candidate compute it once and each count their own access.
  PositionSum Sum(int32_t pos) {
    const size_t width = set_.lists.size();
    if (width > budget_) Fill();
    PositionSum s;
    if (filled_) {
      s.sum = sums_[static_cast<size_t>(pos)];
      s.present = counts_[static_cast<size_t>(pos)];
      return s;
    }
    budget_ -= width;
    for (const InvertedIndex* list : set_.lists) {
      std::optional<double> v = list->Find(pos);
      if (v.has_value()) {
        s.sum += *v;
        ++s.present;
      }
    }
    return s;
  }

  // The list-order pass over every entry; idempotent.
  void Fill() {
    if (filled_) return;
    filled_ = true;
    budget_ = 0;
    sums_.assign(universe_, 0.0);
    counts_.assign(universe_, 0);
    for (const InvertedIndex* list : set_.lists) {
      for (size_t i = 0; i < list->size(); ++i) {
        const ScoredEntry& e = list->entry(i);
        sums_[static_cast<size_t>(e.pos)] += e.value;
        ++counts_[static_cast<size_t>(e.pos)];
      }
    }
  }

  // The table, valid after Fill.
  bool filled() const { return filled_; }
  double sum(size_t pos) const { return sums_[pos]; }
  uint32_t count(size_t pos) const { return counts_[pos]; }

 private:
  const ListSet& set_;
  size_t universe_;
  size_t budget_;  // random accesses left before the table pass is cheaper
  bool filled_ = false;
  std::vector<double> sums_;
  std::vector<uint32_t> counts_;
};

// FA's phase 2, run per FA lane: scores the positions sorted access has
// seen, in the given ascending order, and keeps the best k. The candidate
// count is known up front, so the scorer decides once whether one pass over
// the entries is cheaper than per-candidate random access.
inline std::vector<ScoredEntry> ScoreSeenCandidates(
    const std::vector<int32_t>& candidates, const TopKOptions& options,
    CandidateScorer* scorer, FaginStats* stats) {
  scorer->Expect(candidates.size());
  std::vector<ScoredEntry> scored;
  scored.reserve(candidates.size());
  for (int32_t pos : candidates) {
    std::optional<double> agg = scorer->Aggregate(pos, options.missing, stats);
    if (!agg.has_value()) continue;
    ++stats->ids_scored;
    scored.push_back(ScoredEntry{pos, *agg});
  }
  KeepTopK(&scored, options.k, options.direction);
  return scored;
}

// One top-k request over a gathered ListSet: a lane of the Problem-1
// engine. The caller fills `algorithm`, `options` and (optionally) the
// starting `stats`; RunLaneGroup fills the rest.
struct Lane {
  TopKAlgorithm algorithm = TopKAlgorithm::kThresholdAlgorithm;
  TopKOptions options;
  Status status;                     // engine validation; entries need ok()
  FaginStats stats;                  // counters accumulate onto these
  std::vector<ScoredEntry> entries;  // best-first for the direction
  std::vector<uint8_t> allowed_scratch;
  const uint8_t* allowed = nullptr;  // options.allowed as a bitmap
};

// The one TA / FA / NRA / scan engine (quantification_batch.cc). Validates
// every lane against `set` (k, an empty selection, NRA's policy, direction
// and width limits), then runs the valid ones in shared passes over the
// lists: one CandidateScorer per call, one sorted-access pass per algorithm
// and direction. A lane's answers and stats do not depend on the other
// lanes. Each valid lane publishes its stats via RecordFaginMetrics under
// fagin.<ta|fa|nra|scan>.*; a group run `alone` (a single request, not part
// of a batch) also records the run's latency.
void RunLaneGroup(const ListSet& set, std::vector<Lane>* lanes, bool alone);

}  // namespace fagin_internal
}  // namespace fairjob

#endif  // FAIRJOB_CORE_FAGIN_DENSE_H_
