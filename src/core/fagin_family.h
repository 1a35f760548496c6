#ifndef FAIRJOB_CORE_FAGIN_FAMILY_H_
#define FAIRJOB_CORE_FAGIN_FAMILY_H_

#include "core/fagin.h"

namespace fairjob {

// The Fagin top-k family (Fagin, Lotem & Naor, "Optimal aggregation
// algorithms for middleware", JCSS 2003), adapted to the unfairness-cube
// setting, plus the exhaustive baseline they are checked against.
enum class TopKAlgorithm {
  // Algorithm 1, the Threshold Algorithm (default): round-robin sorted
  // access over the inverted lists, random access to complete each newly
  // seen id's aggregate, and a per-policy threshold bound on unseen ids for
  // early termination. With MissingCellPolicy::kSkip the bound is the max
  // (resp. min) frontier, with kZero the mean of clamped frontiers; with
  // kZero + kLeastUnfair no useful bound exists and the run degenerates to
  // a scan (still correct).
  kThresholdAlgorithm,
  // Fagin's original algorithm: round-robin sorted access until k ids have
  // been seen on *every* list, then random access to score every id seen.
  // Simpler bound than TA, typically more accesses. It needs kZero
  // semantics to bound unseen ids on incomplete cubes; with kSkip it falls
  // back to scoring every seen id after exhausting the lists (still
  // correct, no early stop).
  kFA,
  // No-random-access algorithm: maintains [lower, upper] bounds per seen id
  // from sorted accesses only; stops when the k-th best lower bound is at
  // least every other id's upper bound. Returns exact aggregates (it keeps
  // reading until bounds collapse for the returned ids), which keeps its
  // contract identical to TA/scan at the price of more sorted accesses.
  // Supports kZero + kMostUnfair only (bounds for "average over present
  // lists" are not monotone) and at most 64 lists; other requests are
  // rejected as InvalidArgument.
  kNRA,
  // Baseline: scores every id appearing in any list, in a single pass over
  // all list entries into per-position sum / present-count accumulator
  // arrays — O(total entries) instead of O(candidates × lists) random
  // accesses. The pass keeps the per-candidate list-iteration order, so
  // aggregates are bitwise-identical to per-candidate random access. Used
  // for correctness cross-checks and as the comparison point in
  // bench_fagin_perf.
  kScan,
};

const char* TopKAlgorithmName(TopKAlgorithm algorithm);

// Runs `algorithm` over caller-built `lists` and returns up to k entries
// sorted by value (descending for most-unfair, ascending for least-unfair),
// ties by ascending position. Ids absent from every list are never
// returned. `stats`, when given, accumulates the run's access counts.
//
// Errors: InvalidArgument when k == 0, `lists` is empty or holds a null
// list, plus the NRA restrictions above.
//
// The call gathers the non-empty lists and runs the request as a lane group
// of one through the batch engine's lane runners
// (core/quantification_batch.cc), the one TA / FA / NRA / scan
// implementation; SolveQuantification{,Batch} reach the same runners.
Result<std::vector<ScoredEntry>> RunTopK(
    TopKAlgorithm algorithm, const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options, FaginStats* stats = nullptr);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_FAGIN_FAMILY_H_
