#include "ranking/kendall_tau.h"

#include <algorithm>
#include <unordered_map>

#include "ranking/list_internal.h"

namespace fairjob {
namespace {

using ranking_internal::RankPositions;

uint64_t MergeCount(std::vector<int32_t>& v, std::vector<int32_t>& scratch,
                    size_t lo, size_t hi) {
  if (hi - lo <= 1) return 0;
  size_t mid = lo + (hi - lo) / 2;
  uint64_t inv = MergeCount(v, scratch, lo, mid) + MergeCount(v, scratch, mid, hi);
  size_t i = lo;
  size_t j = mid;
  size_t k = lo;
  while (i < mid && j < hi) {
    if (v[i] <= v[j]) {
      scratch[k++] = v[i++];
    } else {
      inv += mid - i;
      scratch[k++] = v[j++];
    }
  }
  while (i < mid) scratch[k++] = v[i++];
  while (j < hi) scratch[k++] = v[j++];
  std::copy(scratch.begin() + static_cast<long>(lo),
            scratch.begin() + static_cast<long>(hi),
            v.begin() + static_cast<long>(lo));
  return inv;
}

}  // namespace

uint64_t CountInversionsInPlace(std::vector<int32_t>& v,
                                std::vector<int32_t>& scratch) {
  if (scratch.size() < v.size()) scratch.resize(v.size());
  return MergeCount(v, scratch, 0, v.size());
}

uint64_t CountInversions(std::vector<int32_t> v) {
  std::vector<int32_t> scratch(v.size());
  return MergeCount(v, scratch, 0, v.size());
}

Result<double> KendallTauDistance(const RankedList& a, const RankedList& b) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("Kendall-Tau distance needs non-empty lists");
  }
  if (a.size() != b.size()) {
    return Status::InvalidArgument(
        "full Kendall-Tau needs lists over the same item set; use "
        "KendallTauTopK for top-k lists");
  }
  FAIRJOB_ASSIGN_OR_RETURN(auto pos_a, RankPositions(a, 0));
  // Rewrite b in terms of a's positions; discordant pairs become inversions.
  // a's positions are distinct, so a duplicate in b surfaces as a repeated
  // mapped position — a flat byte vector validates b without a second hash
  // set per call.
  std::vector<int32_t> mapped;
  mapped.reserve(b.size());
  std::vector<uint8_t> seen_pos(a.size(), 0);
  for (int32_t item : b) {
    auto it = pos_a.find(item);
    if (it == pos_a.end()) {
      return Status::InvalidArgument("lists rank different item sets (item " +
                                     std::to_string(item) + " missing)");
    }
    if (seen_pos[it->second] != 0) {
      return Status::InvalidArgument("ranked list contains duplicate item id " +
                                     std::to_string(item));
    }
    seen_pos[it->second] = 1;
    mapped.push_back(static_cast<int32_t>(it->second));
  }
  size_t n = a.size();
  if (n == 1) return 0.0;
  uint64_t inv = CountInversions(std::move(mapped));
  double max_pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(inv) / max_pairs;
}

Result<double> KendallTauCorrelation(const RankedList& a, const RankedList& b) {
  FAIRJOB_ASSIGN_OR_RETURN(double d, KendallTauDistance(a, b));
  return 1.0 - 2.0 * d;
}

Result<double> KendallTauTopK(const RankedList& a, const RankedList& b,
                              double p) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("Kendall-Tau top-k needs non-empty lists");
  }
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("penalty p must lie in [0, 1]");
  }
  FAIRJOB_ASSIGN_OR_RETURN(auto pos_a, RankPositions(a, 0));
  FAIRJOB_ASSIGN_OR_RETURN(auto pos_b, RankPositions(b, 0));

  // Partition the union: Z (both), S (only a), T (only b).
  size_t z = 0;
  for (int32_t item : a) {
    if (pos_b.count(item) > 0) ++z;
  }
  size_t only_b = b.size() - z;

  // Explicit case analysis over every pair of the union. This per-pair path
  // is the readable oracle: it rebuilds the position maps on every call and
  // scans O(u²) pairs. ListDistanceBatch (ranking/list_batch.h) counts the
  // same cases in O(u log u) on interned lists; both tally integer case
  // counts and combine them once with the same expression, so the two stay
  // bitwise-identical at every p.
  std::vector<int32_t> union_items;
  union_items.reserve(a.size() + only_b);
  union_items.insert(union_items.end(), a.begin(), a.end());
  for (int32_t item : b) {
    if (pos_a.count(item) == 0) union_items.push_back(item);
  }

  // Hoist per-item membership flags and ranks out of the O(u²) pair scan:
  // one hash lookup per union item here replaces four count() plus up to
  // four at()/find() probes per *pair* below. Items absent from a top-k
  // list are implicitly ranked below everything.
  const size_t u = union_items.size();
  std::vector<uint8_t> in_a(u), in_b(u);
  std::vector<size_t> rank_a(u), rank_b(u);
  for (size_t x = 0; x < u; ++x) {
    auto it_a = pos_a.find(union_items[x]);
    in_a[x] = it_a != pos_a.end() ? 1 : 0;
    rank_a[x] = in_a[x] ? it_a->second : a.size() + 1000000;
    auto it_b = pos_b.find(union_items[x]);
    in_b[x] = it_b != pos_b.end() ? 1 : 0;
    rank_b[x] = in_b[x] ? it_b->second : b.size() + 1000000;
  }

  uint64_t discordant = 0;  // pairs costing 1 (cases 1, 2 and 3)
  uint64_t penalized = 0;   // pairs costing p (case 4)
  for (size_t x = 0; x < u; ++x) {
    for (size_t y = x + 1; y < u; ++y) {
      bool i_in_a = in_a[x] != 0;
      bool j_in_a = in_a[y] != 0;
      bool i_in_b = in_b[x] != 0;
      bool j_in_b = in_b[y] != 0;
      int lists_with_both = static_cast<int>(i_in_a && j_in_a) +
                            static_cast<int>(i_in_b && j_in_b);
      if (lists_with_both == 2) {
        // Case 1: both lists rank both items.
        bool agree = (rank_a[x] < rank_a[y]) == (rank_b[x] < rank_b[y]);
        if (!agree) ++discordant;
      } else if ((i_in_a != i_in_b) && (j_in_a != j_in_b) &&
                 (i_in_a != j_in_a)) {
        // Case 3: i appears only in one list, j only in the other.
        ++discordant;
      } else if (lists_with_both == 1) {
        bool both_absent_somewhere =
            (!i_in_a && !j_in_a) || (!i_in_b && !j_in_b);
        if (both_absent_somewhere) {
          // Case 4: both items confined to the same single list.
          ++penalized;
        } else {
          // Case 2: one list ranks both, the other ranks exactly one. The
          // absent item is implicitly below the present one there.
          if ((rank_a[x] < rank_a[y]) != (rank_b[x] < rank_b[y])) {
            ++discordant;
          }
        }
      }
    }
  }

  double penalty =
      static_cast<double>(discordant) + p * static_cast<double>(penalized);

  // Normalize by the value attained by two fully disjoint lists of these
  // sizes, the maximum over list pairs (see header).
  auto pairs_within = [](size_t n) {
    return static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  };
  double max_penalty =
      static_cast<double>(a.size()) * static_cast<double>(b.size()) +
      p * (pairs_within(a.size()) + pairs_within(b.size()));
  if (max_penalty <= 0.0) return 0.0;  // both lists are single identical item
  double d = penalty / max_penalty;
  return std::min(1.0, std::max(0.0, d));
}

}  // namespace fairjob
