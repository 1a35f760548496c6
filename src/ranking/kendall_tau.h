#ifndef FAIRJOB_RANKING_KENDALL_TAU_H_
#define FAIRJOB_RANKING_KENDALL_TAU_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace fairjob {

// A ranked result list: item ids in rank order, best first.
using RankedList = std::vector<int32_t>;

// Normalized Kendall-Tau distance between two total orders of the *same*
// item set: fraction of discordant pairs in [0, 1] (0 = identical order,
// 1 = reversed). O(n log n) via merge-sort inversion counting.
//
// Errors: InvalidArgument if the lists are not permutations of one another,
// contain duplicates, or are empty.
Result<double> KendallTauDistance(const RankedList& a, const RankedList& b);

// Kendall-Tau correlation tau = 1 - 2 * distance, in [-1, 1].
Result<double> KendallTauCorrelation(const RankedList& a, const RankedList& b);

// Generalized Kendall-Tau distance K^(p) of Fagin, Kumar & Sivakumar
// ("Comparing top k lists", 2003) between two top-k lists that may rank
// different items. Pair categories:
//   * both items in both lists: 1 if order disagrees;
//   * i in both, j in only one list and ranked above i there: 1;
//   * i only in a, j only in b: 1 (they cannot agree);
//   * both items missing from one list entirely: penalty p in [0, 1]
//     (p = 0 optimistic, p = 0.5 neutral).
// Result is normalized by the maximum attainable value so it lies in [0, 1].
// The raw penalty is n1 + p·np from the integer case counts (n1 pairs
// costing 1, np pairs costing p), combined once; ListDistanceBatch's kernel
// uses the same expression, so the two are bitwise identical at every p,
// and the distance is exactly symmetric in (a, b).
//
// Errors: InvalidArgument if either list is empty or contains duplicates,
// or p is outside [0, 1].
Result<double> KendallTauTopK(const RankedList& a, const RankedList& b,
                              double p = 0.5);

// Counts inversions of `v` w.r.t. ascending order; exposed for testing and
// benchmarks. O(n log n).
uint64_t CountInversions(std::vector<int32_t> v);

// Allocation-free variant for batched kernels: sorts `v` in place, reusing
// `scratch` (grown as needed, never shrunk) for the merge buffer. Identical
// counts to CountInversions.
uint64_t CountInversionsInPlace(std::vector<int32_t>& v,
                                std::vector<int32_t>& scratch);

}  // namespace fairjob

#endif  // FAIRJOB_RANKING_KENDALL_TAU_H_
