#ifndef FAIRJOB_CORE_FAGIN_FAMILY_H_
#define FAIRJOB_CORE_FAGIN_FAMILY_H_

#include "core/fagin.h"

namespace fairjob {

// The other two members of the Fagin top-k family (Fagin, Lotem & Naor,
// "Optimal aggregation algorithms for middleware", JCSS 2003), adapted to
// the unfairness-cube setting like Algorithm 1's TA:
//
//  * FaginFA  — Fagin's original algorithm: round-robin sorted access until
//    k ids have been seen on *every* list, then random access to score every
//    id seen. Simpler bound than TA, typically more accesses.
//  * FaginNRA — no-random-access algorithm: maintains [lower, upper] bounds
//    per seen id from sorted accesses only; stops when the k-th best lower
//    bound is at least every other id's upper bound. Returns exact
//    aggregates (it keeps reading until bounds collapse for the returned
//    ids), which keeps its contract identical to TA/scan at the price of
//    more sorted accesses.
//
// Both support the same options as FaginTopK with these caveats:
//  * FA requires MissingCellPolicy::kZero semantics to bound unseen ids on
//    incomplete cubes; with kSkip it falls back to scoring every seen id
//    after exhausting the lists (still correct, no early stop).
//  * NRA supports kZero only (bounds for "average over present lists"
//    are not monotone); requests with kSkip are rejected as
//    InvalidArgument.
//
// Errors: as FaginTopK, plus the NRA restriction above and NRA's limit of
// 64 lists.
//
// Every entry point here and in fagin.h gathers the non-empty lists and
// runs the request as a lane group of one through the batch engine's lane
// runners (core/quantification_batch.cc), the one TA / FA / NRA / scan
// implementation; the hash engine in core/fagin_reference.h is the
// independent reference.
Result<std::vector<ScoredEntry>> FaginFA(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr);

Result<std::vector<ScoredEntry>> FaginNRA(
    const std::vector<const InvertedIndex*>& lists, const TopKOptions& options,
    FaginStats* stats = nullptr);

// Which member of the family SolveQuantification should run.
enum class TopKAlgorithm {
  kThresholdAlgorithm,  // Algorithm 1 (default)
  kFA,
  kNRA,
  kScan,
};

const char* TopKAlgorithmName(TopKAlgorithm algorithm);

// Runs `algorithm` over `lists`; FaginTopK, ScanTopK, FaginFA and FaginNRA
// are this call with their algorithm fixed.
Result<std::vector<ScoredEntry>> RunTopK(
    TopKAlgorithm algorithm, const std::vector<const InvertedIndex*>& lists,
    const TopKOptions& options, FaginStats* stats = nullptr);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_FAGIN_FAMILY_H_
