#include "core/quantification_batch.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/fagin_dense.h"
#include "ranking/simd.h"

namespace fairjob {
namespace {

using fagin_internal::AggregateOf;
using fagin_internal::Better;
using fagin_internal::BuildAllowedBitmap;
using fagin_internal::CandidateScorer;
using fagin_internal::GatherNonEmpty;
using fagin_internal::IsAllowed;
using fagin_internal::KeepTopK;
using fagin_internal::Lane;
using fagin_internal::ListSet;
using fagin_internal::PositionSum;
using fagin_internal::ScoreSeenCandidates;
using fagin_internal::SortResults;
using fagin_internal::ThresholdBound;
using fagin_internal::UniverseOf;

// A request's selector group: its target and canonical selectors.
struct SelectorKey {
  Dimension target;
  AxisSelector agg1;
  AxisSelector agg2;

  bool operator==(const SelectorKey& o) const {
    return target == o.target && agg1.positions == o.agg1.positions &&
           agg2.positions == o.agg2.positions;
  }
};

// FNV-1a over the canonical selector sequences; bucket collisions fall back
// to SelectorKey equality.
uint64_t SelectorHash(const SelectorKey& key) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(key.target));
  mix(key.agg1.positions.size());
  for (size_t p : key.agg1.positions) mix(p);
  mix(key.agg2.positions.size());
  for (size_t p : key.agg2.positions) mix(p);
  return h;
}

// Engine-eligibility checks of a lane over a gathered selection: k, an
// empty selection, then NRA's policy, direction and width restrictions.
Status ValidateForEngine(TopKAlgorithm algorithm, const ListSet& set,
                         const TopKOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (set.selected == 0) {
    return Status::InvalidArgument("top-k needs at least one inverted list");
  }
  if (algorithm == TopKAlgorithm::kNRA) {
    if (options.missing != MissingCellPolicy::kZero) {
      return Status::InvalidArgument(
          "NRA bounds require MissingCellPolicy::kZero (the average over "
          "present lists is not monotone in the unknown entries)");
    }
    if (options.direction != RankDirection::kMostUnfair) {
      return Status::InvalidArgument(
          "NRA supports kMostUnfair only; use TA or the scan for bottom-k");
    }
    if (set.selected > 64) {
      return Status::InvalidArgument("NRA supports at most 64 lists");
    }
  }
  return Status::OK();
}

// The label of a lane's fagin.<label>.* metrics.
const char* MetricLabel(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kThresholdAlgorithm:
      return "ta";
    case TopKAlgorithm::kFA:
      return "fa";
    case TopKAlgorithm::kNRA:
      return "nra";
    case TopKAlgorithm::kScan:
      return "scan";
  }
  return "?";
}

// --- Scan lanes ----------------------------------------------------------
// The group scorer's one list-order table pass answers all scan lanes of the
// group. An entry at position p only ever contributes to the sum of p, so
// lane filters only decide which positions are *emitted*, never what their
// sums are. Sequential cost O(lanes × total entries) drops to
// O(total entries + lanes × universe).
void RunScanLanes(const ListSet& set, size_t universe,
                  const std::vector<Lane*>& lanes, CandidateScorer* scorer) {
  scorer->Fill();
  size_t longest = 0;
  for (const InvertedList& list : set.lists) {
    longest = std::max(longest, list.size());
  }

  // Present positions as a word bitmap: each lane's emit sweep intersects
  // it with the lane filter, skipping empty words, and the
  // simd::IntersectPopcount kernel (integer-only, so bitwise-safe) sizes
  // the output vector exactly up front.
  const size_t words = (universe + 63) / 64;
  std::vector<uint64_t> present(words, 0);
  for (size_t pos = 0; pos < universe; ++pos) {
    if (scorer->count(pos) != 0) {
      present[pos >> 6] |= uint64_t{1} << (pos & 63);
    }
  }

  std::vector<uint64_t> lane_words;
  for (Lane* lane : lanes) {
    FaginStats* stats = &lane->stats;
    stats->rounds = std::max(stats->rounds, longest);
    stats->sorted_accesses += set.entries;

    const uint64_t* filter = present.data();
    if (lane->allowed != nullptr) {
      lane_words.assign(words, 0);
      for (size_t pos = 0; pos < universe; ++pos) {
        if (lane->allowed[pos] != 0) {
          lane_words[pos >> 6] |= uint64_t{1} << (pos & 63);
        }
      }
      filter = lane_words.data();
    }
    const size_t emitted =
        simd::IntersectPopcount(filter, present.data(), words);
    std::vector<ScoredEntry>& out = lane->entries;
    out.reserve(emitted);
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = filter[w] & present[w];
      while (bits != 0) {
        const size_t pos =
            (w << 6) + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const double value =
            AggregateOf(scorer->sum(pos), scorer->count(pos), set.selected,
                        lane->options.missing);
        out.push_back(ScoredEntry{static_cast<int32_t>(pos), value});
      }
    }
    // Per-request counter semantics: one random access per selected list per
    // emitted candidate, one ids_scored each.
    stats->random_accesses += emitted * set.selected;
    stats->ids_scored += emitted;
    KeepTopK(&out, lane->options.k, lane->options.direction);
  }
}

// --- TA lanes ------------------------------------------------------------
// Fagin's Threshold Algorithm (the paper's Algorithm 1): round-robin sorted
// access, random access to complete each newly seen id's aggregate, and a
// per-policy bound on unseen ids for early termination (ThresholdBound).
// The cursors advance identically every round regardless of k / allowed /
// missing — only the direction changes the access pattern.
// So all TA lanes of one direction share the round-robin sorted access, and
// with it the seen set: a lane is active from the first round until it
// stops, so while active it has read every entry read so far, and a
// position is new to it exactly when it is new to the group and allowed by
// the lane. Each new position's (sum, count) is fetched once from the group
// CandidateScorer; each lane that allows it counts its own random access
// and offers the aggregate under its own missing policy to its own heap.
// Sorted accesses are counted per lane once per round. Threshold bounds are
// pure in (cursors, missing, direction), so they are memoized per missing
// policy within a round.
void RunTaLanes(const ListSet& set, size_t universe, RankDirection direction,
                const std::vector<Lane*>& lanes, CandidateScorer* scorer) {
  const std::vector<InvertedList>& lists = set.lists;
  const bool most = direction == RankDirection::kMostUnfair;
  auto worse_on_top = [direction](const ScoredEntry& a, const ScoredEntry& b) {
    return Better(a.value, b.value, direction);
  };

  // Each lane's entries are its kept heap until the final sort.
  std::vector<Lane*> active = lanes;
  std::vector<uint8_t> seen(universe, 0);
  std::vector<size_t> cursors(lists.size(), 0);
  while (!active.empty()) {
    size_t reads = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i].size()) continue;
      const size_t at = most ? cursors[i] : lists[i].size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i].entry(at);
      ++cursors[i];
      ++reads;
      if (seen[static_cast<size_t>(e.pos)] != 0) continue;
      seen[static_cast<size_t>(e.pos)] = 1;
      std::optional<PositionSum> sum;
      for (Lane* lane : active) {
        if (!IsAllowed(lane->allowed, e.pos)) continue;
        FaginStats* stats = &lane->stats;
        scorer->CountAccess(stats);
        if (!sum.has_value()) sum = scorer->Sum(e.pos);
        if (sum->present == 0) continue;  // unreachable: e.pos is in list i
        ++stats->ids_scored;
        const double value = AggregateOf(sum->sum, sum->present, set.selected,
                                         lane->options.missing);
        ScoredEntry scored{e.pos, value};
        std::vector<ScoredEntry>& kept = lane->entries;
        if (kept.size() < lane->options.k) {
          kept.push_back(scored);
          std::push_heap(kept.begin(), kept.end(), worse_on_top);
        } else if (Better(scored.value, kept.front().value, direction)) {
          std::pop_heap(kept.begin(), kept.end(), worse_on_top);
          kept.back() = scored;
          std::push_heap(kept.begin(), kept.end(), worse_on_top);
        }
      }
    }
    if (reads == 0) break;  // every list exhausted, for every lane at once
    bool tau_valid[2] = {false, false};
    double tau_memo[2] = {0.0, 0.0};
    size_t still_active = 0;
    for (Lane* lane : active) {
      FaginStats* stats = &lane->stats;
      stats->sorted_accesses += reads;
      ++stats->rounds;
      bool done = false;
      if (lane->entries.size() >= lane->options.k) {
        ++stats->threshold_checks;
        const size_t mi =
            lane->options.missing == MissingCellPolicy::kSkip ? 0 : 1;
        if (!tau_valid[mi]) {
          tau_memo[mi] = ThresholdBound(set, cursors, lane->options);
          tau_valid[mi] = true;
        }
        const double tau = tau_memo[mi];
        const double kth = lane->entries.front().value;
        done = most ? (kth >= tau) : (kth <= tau);
      }
      if (!done) active[still_active++] = lane;
    }
    active.resize(still_active);
  }
  for (Lane* lane : lanes) SortResults(&lane->entries, direction);
}

// --- FA lanes ------------------------------------------------------------
// Fagin's original algorithm: round-robin sorted access until k ids are
// complete (seen on every selected list), then random access to score every
// id seen. Early stopping is only sound under kZero; kSkip lanes read every
// list. Phase 1 is shared per direction exactly like TA, and so are the
// seen counts: an active lane's count of a position is
// the group's count when the lane allows it and 0 otherwise. Each lane
// stops when k of its allowed ids are complete on every selected list
// (kZero only); its phase-2 candidates are the allowed positions first read
// no later than its last round. Phase 2 scores them in ascending position
// order against the group CandidateScorer.
void RunFaLanes(const ListSet& set, size_t universe, RankDirection direction,
                const std::vector<Lane*>& lanes, CandidateScorer* scorer) {
  const std::vector<InvertedList>& lists = set.lists;
  struct FaState {
    Lane* lane;
    size_t complete_ids = 0;
    size_t last_round = 0;  // the round the lane stopped after
  };
  const bool most = direction == RankDirection::kMostUnfair;

  std::vector<FaState> states;
  states.reserve(lanes.size());
  for (Lane* lane : lanes) states.push_back(FaState{lane, 0, 0});
  std::vector<FaState*> active;
  for (FaState& s : states) active.push_back(&s);

  std::vector<uint32_t> seen_count(universe, 0);
  // Round of each position's first read (1-based; 0 = never read).
  std::vector<uint32_t> first_round(universe, 0);
  std::vector<size_t> cursors(lists.size(), 0);
  size_t round = 0;
  while (!active.empty()) {
    ++round;
    size_t reads = 0;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursors[i] >= lists[i].size()) continue;
      const size_t at = most ? cursors[i] : lists[i].size() - 1 - cursors[i];
      const ScoredEntry& e = lists[i].entry(at);
      ++cursors[i];
      ++reads;
      const size_t p = static_cast<size_t>(e.pos);
      if (first_round[p] == 0) first_round[p] = static_cast<uint32_t>(round);
      if (++seen_count[p] != set.selected) continue;
      for (FaState* s : active) {
        if (IsAllowed(s->lane->allowed, e.pos)) ++s->complete_ids;
      }
    }
    if (reads == 0) break;
    size_t still_active = 0;
    for (FaState* s : active) {
      FaginStats* stats = &s->lane->stats;
      stats->sorted_accesses += reads;
      ++stats->rounds;
      s->last_round = round;
      bool done = false;
      if (s->lane->options.missing == MissingCellPolicy::kZero) {
        ++stats->threshold_checks;
        done = s->complete_ids >= s->lane->options.k;
      }
      if (!done) active[still_active++] = s;
    }
    active.resize(still_active);
  }

  std::vector<int32_t> candidates;
  for (FaState& s : states) {
    candidates.clear();
    for (size_t pos = 0; pos < universe; ++pos) {
      if (first_round[pos] != 0 && first_round[pos] <= s.last_round &&
          IsAllowed(s.lane->allowed, static_cast<int32_t>(pos))) {
        candidates.push_back(static_cast<int32_t>(pos));
      }
    }
    s.lane->entries = ScoreSeenCandidates(candidates, s.lane->options,
                                          scorer, &s.lane->stats);
  }
}

// --- NRA lanes -----------------------------------------------------------
// No random access: each lane keeps [lower, upper] bounds per seen id from
// sorted access alone — the partial sum of known entries over the selected
// count (unknown entries are 0 under kZero) and that plus the frontiers of
// the lists that have not shown the id — and stops once its k-th best lower
// bound reaches every other id's upper bound. The returned ids then get
// exact aggregates from the scorer (a k·L random-access epilogue; classic
// NRA would return bounds). The sorted access (always from the top — NRA is
// kMostUnfair + kZero only) and the per-round frontier bounds are shared,
// the bound bookkeeping is per lane.
//
// Lower bounds are compared under the total order (value desc, pos asc),
// which makes a lane's current top-k unique. When every list value is
// non-negative the bounds never decrease, so the top-k is kept
// incrementally from the positions touched per round; negative values fall
// back to an nth_element per check. That `monotone` choice depends only on
// the lists, so it is made once for the whole group.
void RunNraLanes(const ListSet& set, size_t universe,
                 const std::vector<Lane*>& lanes, CandidateScorer* scorer) {
  struct NraState {
    Lane* lane;
    std::vector<double> known_sum;
    std::vector<double> lower_bound;
    std::vector<uint64_t> known_mask;
    std::vector<int32_t> seen_positions;
    std::vector<uint8_t> in_top;
    std::vector<std::pair<double, int32_t>> lowers;
    std::vector<std::pair<double, int32_t>> top;
    std::vector<int32_t> touched;
    bool top_built = false;
    bool active = true;
  };
  const std::vector<InvertedList>& lists = set.lists;
  const size_t num_lists = lists.size();
  const double denom = static_cast<double>(set.selected);

  auto lower_cmp = [](const std::pair<double, int32_t>& a,
                      const std::pair<double, int32_t>& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  };
  bool monotone = true;
  for (const InvertedList& list : lists) {
    if (!list.empty() && list.entry(list.size() - 1).value < 0.0) {
      monotone = false;
      break;
    }
  }

  std::vector<NraState> states;
  states.reserve(lanes.size());
  for (Lane* lane : lanes) {
    NraState s;
    s.lane = lane;
    s.known_sum.assign(universe, 0.0);
    s.lower_bound.assign(universe, 0.0);
    s.known_mask.assign(universe, 0);
    s.in_top.assign(universe, 0);
    states.push_back(std::move(s));
  }

  std::vector<size_t> cursors(num_lists, 0);
  std::vector<double> frontiers(num_lists, 0.0);
  // The entries read this round: every active lane replays them in list
  // order.
  std::vector<std::pair<size_t, const ScoredEntry*>> reads;
  size_t active = states.size();
  while (active > 0) {
    reads.clear();
    for (size_t i = 0; i < num_lists; ++i) {
      if (cursors[i] >= lists[i].size()) continue;
      reads.emplace_back(i, &lists[i].entry(cursors[i]));
      ++cursors[i];
    }
    if (reads.empty()) break;  // exhausted: epilogue below

    bool frontiers_valid = false;
    double frontier_sum = 0.0;
    for (NraState& s : states) {
      if (!s.active) continue;
      FaginStats* stats = &s.lane->stats;
      const size_t k = s.lane->options.k;
      s.touched.clear();
      for (const auto& [i, e] : reads) {
        ++stats->sorted_accesses;
        if (!IsAllowed(s.lane->allowed, e->pos)) continue;
        const size_t p = static_cast<size_t>(e->pos);
        if (s.known_mask[p] == 0) s.seen_positions.push_back(e->pos);
        s.known_sum[p] += e->value;
        s.lower_bound[p] = s.known_sum[p] / denom;
        s.known_mask[p] |= (1ull << i);
        if (s.top_built) s.touched.push_back(e->pos);
      }
      ++stats->rounds;

      if (s.seen_positions.size() < k) continue;
      ++stats->threshold_checks;

      if (!frontiers_valid) {
        // Frontier bounds depend only on the shared cursors, so one
        // evaluation per round serves every lane that checks.
        frontier_sum = 0.0;
        for (size_t i = 0; i < num_lists; ++i) {
          frontiers[i] = cursors[i] >= lists[i].size()
                             ? 0.0
                             : std::max(lists[i].entry(cursors[i]).value, 0.0);
          frontier_sum += frontiers[i];
        }
        frontiers_valid = true;
      }

      double kth_lower;
      if (monotone) {
        if (!s.top_built) {
          s.lowers.clear();
          s.lowers.reserve(s.seen_positions.size());
          for (int32_t pos : s.seen_positions) {
            s.lowers.emplace_back(s.lower_bound[static_cast<size_t>(pos)], pos);
          }
          std::partial_sort(s.lowers.begin(),
                            s.lowers.begin() + static_cast<long>(k),
                            s.lowers.end(), lower_cmp);
          s.top.assign(s.lowers.begin(),
                       s.lowers.begin() + static_cast<long>(k));
          for (const auto& entry : s.top) {
            s.in_top[static_cast<size_t>(entry.second)] = 1;
          }
          s.top_built = true;
        } else {
          for (int32_t pos : s.touched) {
            const size_t p = static_cast<size_t>(pos);
            std::pair<double, int32_t> key{s.lower_bound[p], pos};
            if (s.in_top[p] != 0) {
              size_t j = 0;
              while (s.top[j].second != pos) ++j;
              s.top[j] = key;
              for (; j > 0 && lower_cmp(s.top[j], s.top[j - 1]); --j) {
                std::swap(s.top[j], s.top[j - 1]);
              }
            } else if (lower_cmp(key, s.top.back())) {
              s.in_top[static_cast<size_t>(s.top.back().second)] = 0;
              s.top.back() = key;
              s.in_top[p] = 1;
              for (size_t j = s.top.size() - 1;
                   j > 0 && lower_cmp(s.top[j], s.top[j - 1]); --j) {
                std::swap(s.top[j], s.top[j - 1]);
              }
            }
          }
        }
        kth_lower = s.top.back().first;
      } else {
        s.lowers.clear();
        s.lowers.reserve(s.seen_positions.size());
        for (int32_t pos : s.seen_positions) {
          s.lowers.emplace_back(s.lower_bound[static_cast<size_t>(pos)], pos);
        }
        std::nth_element(s.lowers.begin(),
                         s.lowers.begin() + static_cast<long>(k - 1),
                         s.lowers.end(), lower_cmp);
        kth_lower = s.lowers[k - 1].first;
        for (size_t i = 0; i < k; ++i) {
          s.in_top[static_cast<size_t>(s.lowers[i].second)] = 1;
        }
      }

      // Upper bound of any id outside the top-k (seen or unseen), maxed over
      // raw sums and divided once: correctly rounded division by a positive
      // constant is monotone, so the quotient equals dividing each term.
      double outside_upper_raw = frontier_sum;  // a fully unseen id
      for (int32_t pos : s.seen_positions) {
        const size_t p = static_cast<size_t>(pos);
        if (s.in_top[p] != 0) continue;
        double upper = s.known_sum[p];
        for (size_t i = 0; i < num_lists; ++i) {
          if ((s.known_mask[p] & (1ull << i)) == 0) upper += frontiers[i];
        }
        outside_upper_raw = std::max(outside_upper_raw, upper);
      }
      const double outside_upper = outside_upper_raw / denom;
      if (kth_lower >= outside_upper) {
        std::vector<ScoredEntry> out;
        out.reserve(k);
        for (size_t i = 0; i < k; ++i) {
          const int32_t pos = monotone ? s.top[i].second : s.lowers[i].second;
          std::optional<double> agg =
              scorer->Aggregate(pos, s.lane->options.missing, stats);
          if (agg.has_value()) {
            ++stats->ids_scored;
            out.push_back(ScoredEntry{pos, *agg});
          }
        }
        SortResults(&out, s.lane->options.direction);
        s.lane->entries = std::move(out);
        s.active = false;
        --active;
      } else if (!monotone) {
        for (size_t i = 0; i < k; ++i) {
          s.in_top[static_cast<size_t>(s.lowers[i].second)] = 0;
        }
      }
    }
  }

  // Lists exhausted: every remaining lane's aggregates are fully known.
  for (NraState& s : states) {
    if (!s.active) continue;
    FaginStats* stats = &s.lane->stats;
    std::vector<ScoredEntry> out;
    out.reserve(s.seen_positions.size());
    for (int32_t pos : s.seen_positions) {
      ++stats->ids_scored;
      out.push_back(
          ScoredEntry{pos, s.known_sum[static_cast<size_t>(pos)] / denom});
    }
    KeepTopK(&out, s.lane->options.k, s.lane->options.direction);
    s.lane->entries = std::move(out);
  }
}

// The lane of one valid request. Its universe hint is the target axis
// size, which bounds every list position.
Lane LaneFor(const UnfairnessCube& cube, const QuantificationRequest& request) {
  Lane lane;
  lane.algorithm = request.algorithm;
  lane.options.k = request.k;
  lane.options.direction = request.direction;
  lane.options.missing = request.missing;
  lane.options.allowed =
      request.allowed_targets.empty() ? nullptr : &request.allowed_targets;
  lane.options.universe_hint = cube.axis_size(request.target);
  return lane;
}

// A finished valid lane as a result: positions mapped to target axis ids.
QuantificationResult ResultOf(const UnfairnessCube& cube, Dimension target,
                              const Lane& lane) {
  QuantificationResult result;
  result.stats = lane.stats;
  result.answers.reserve(lane.entries.size());
  for (const ScoredEntry& e : lane.entries) {
    result.answers.push_back(QuantificationAnswer{
        cube.axis_id(target, static_cast<size_t>(e.pos)), e.value});
  }
  return result;
}

}  // namespace

namespace fagin_internal {

void RunLaneGroup(const ListSet& set, std::vector<Lane>* lanes, bool alone) {
  using Clock = std::chrono::steady_clock;
  TraceSpan span("RunLaneGroup", "fagin");
  const bool timed = alone && MetricsRegistry::Global().enabled();
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};

  size_t hint = 0;
  for (const Lane& lane : *lanes) {
    hint = std::max(hint, lane.options.universe_hint);
  }
  const size_t universe = UniverseOf(set, hint);

  std::vector<Lane*> scan_lanes;
  std::vector<Lane*> ta_most;
  std::vector<Lane*> ta_least;
  std::vector<Lane*> fa_most;
  std::vector<Lane*> fa_least;
  std::vector<Lane*> nra_lanes;
  for (Lane& lane : *lanes) {
    lane.status = ValidateForEngine(lane.algorithm, set, lane.options);
    if (!lane.status.ok()) continue;
    lane.allowed = BuildAllowedBitmap(lane.options.allowed, universe,
                                      &lane.allowed_scratch);
    const bool most = lane.options.direction == RankDirection::kMostUnfair;
    switch (lane.algorithm) {
      case TopKAlgorithm::kScan:
        scan_lanes.push_back(&lane);
        break;
      case TopKAlgorithm::kThresholdAlgorithm:
        (most ? ta_most : ta_least).push_back(&lane);
        break;
      case TopKAlgorithm::kFA:
        (most ? fa_most : fa_least).push_back(&lane);
        break;
      case TopKAlgorithm::kNRA:
        nra_lanes.push_back(&lane);
        break;
    }
  }

  // One scorer per group: scan passes, TA random accesses, FA phase-2
  // sweeps and NRA epilogues all aggregate the same lists, so they share
  // one random-access budget and at most one table pass.
  CandidateScorer scorer(set, universe);
  if (!scan_lanes.empty()) RunScanLanes(set, universe, scan_lanes, &scorer);
  if (!ta_most.empty()) {
    RunTaLanes(set, universe, RankDirection::kMostUnfair, ta_most, &scorer);
  }
  if (!ta_least.empty()) {
    RunTaLanes(set, universe, RankDirection::kLeastUnfair, ta_least, &scorer);
  }
  if (!fa_most.empty()) {
    RunFaLanes(set, universe, RankDirection::kMostUnfair, fa_most, &scorer);
  }
  if (!fa_least.empty()) {
    RunFaLanes(set, universe, RankDirection::kLeastUnfair, fa_least, &scorer);
  }
  if (!nra_lanes.empty()) RunNraLanes(set, universe, nra_lanes, &scorer);

  std::optional<double> elapsed_us;
  if (timed) {
    elapsed_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  }
  for (const Lane& lane : *lanes) {
    if (lane.status.ok()) {
      RecordFaginMetrics(MetricLabel(lane.algorithm), lane.stats, elapsed_us);
    }
  }
}

}  // namespace fagin_internal

Result<QuantificationResult> SolveQuantification(
    const UnfairnessCube& cube, const IndexSet& indices,
    const QuantificationRequest& request) {
  TraceSpan span("SolveQuantification", "quantification");
  FAIRJOB_RETURN_IF_ERROR(ValidateQuantificationRequest(cube, request));
  // A lane group of one, without the batch's grouping. Lists are gathered
  // in canonical selector order, as the batch gathers each group's.
  const ListSet lists = GatherNonEmpty(
      indices.ListsFor(request.target, CanonicalSelector(request.agg1),
                       CanonicalSelector(request.agg2)));
  std::vector<Lane> lanes;
  lanes.push_back(LaneFor(cube, request));
  fagin_internal::RunLaneGroup(lists, &lanes, /*alone=*/true);
  if (!lanes[0].status.ok()) return lanes[0].status;
  return ResultOf(cube, request.target, lanes[0]);
}

std::vector<Result<QuantificationResult>> SolveQuantificationBatch(
    const UnfairnessCube& cube, const IndexSet& indices,
    const std::vector<QuantificationRequest>& requests,
    BatchExecStats* exec_stats) {
  TraceSpan span("SolveQuantificationBatch", "quantification");
  BatchExecStats local_stats;
  if (exec_stats == nullptr) exec_stats = &local_stats;
  *exec_stats = BatchExecStats{};

  // errors[i] OK means values[i] holds the computed result.
  std::vector<Status> errors(requests.size());
  std::vector<QuantificationResult> values(requests.size());

  // Group valid requests by canonical selectors (see header).
  struct Group {
    SelectorKey key;
    std::vector<size_t> members;  // request indices, in arrival order
  };
  std::vector<Group> groups;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < requests.size(); ++i) {
    Status valid = ValidateQuantificationRequest(cube, requests[i]);
    if (!valid.ok()) {
      errors[i] = std::move(valid);
      ++exec_stats->invalid;
      continue;
    }
    SelectorKey key{requests[i].target, CanonicalSelector(requests[i].agg1),
                    CanonicalSelector(requests[i].agg2)};
    std::vector<size_t>& bucket = buckets[SelectorHash(key)];
    size_t group_index = groups.size();
    for (size_t g : bucket) {
      if (groups[g].key == key) {
        group_index = g;
        break;
      }
    }
    if (group_index == groups.size()) {
      groups.push_back(Group{std::move(key), {}});
      bucket.push_back(group_index);
    }
    groups[group_index].members.push_back(i);
  }

  for (const Group& group : groups) {
    const SelectorKey& key = group.key;
    const ListSet lists = GatherNonEmpty(
        indices.ListsFor(key.target, key.agg1, key.agg2));
    ++exec_stats->groups;
    exec_stats->lists_gathered += lists.selected;
    // Every member demands the lists, including the ones the engine then
    // rejects: a single run of those gathers the lists too.
    exec_stats->lists_demanded += group.members.size() * lists.selected;

    std::vector<Lane> lanes;
    lanes.reserve(group.members.size());
    for (size_t i : group.members) lanes.push_back(LaneFor(cube, requests[i]));
    fagin_internal::RunLaneGroup(lists, &lanes, /*alone=*/false);

    bool scanned = false;
    for (size_t j = 0; j < lanes.size(); ++j) {
      const size_t i = group.members[j];
      const Lane& lane = lanes[j];
      if (!lane.status.ok()) {
        errors[i] = lane.status;
        ++exec_stats->invalid;
        continue;
      }
      switch (lane.algorithm) {
        case TopKAlgorithm::kScan:
          ++exec_stats->scan_lanes;
          scanned = true;
          break;
        case TopKAlgorithm::kThresholdAlgorithm:
          ++exec_stats->ta_lanes;
          break;
        case TopKAlgorithm::kFA:
          ++exec_stats->fa_lanes;
          break;
        case TopKAlgorithm::kNRA:
          ++exec_stats->nra_lanes;
          break;
      }
      values[i] = ResultOf(cube, requests[i].target, lane);
      ++exec_stats->requests;
    }
    if (scanned) ++exec_stats->shared_scan_passes;
  }

  std::vector<Result<QuantificationResult>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (errors[i].ok()) {
      results.push_back(std::move(values[i]));
    } else {
      results.push_back(std::move(errors[i]));
    }
  }
  return results;
}

}  // namespace fairjob
