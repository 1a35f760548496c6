#ifndef FAIRJOB_CORE_QUANTIFICATION_BATCH_H_
#define FAIRJOB_CORE_QUANTIFICATION_BATCH_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/quantification.h"

namespace fairjob {

// Execution counters for one SolveQuantificationBatch call. The amortization
// the batch engine buys is lists_demanded / lists_gathered: what N
// per-request executions would have materialized vs. what the grouped pass
// actually touched.
struct BatchExecStats {
  size_t requests = 0;   // lanes that reached an engine (valid requests)
  size_t invalid = 0;    // requests rejected by validation
  size_t groups = 0;     // distinct (target, agg1, agg2) selector groups
  size_t lists_gathered = 0;  // inverted lists selected (once per group)
  size_t lists_demanded = 0;  // lists N per-request runs would have selected
  size_t scan_lanes = 0;
  size_t ta_lanes = 0;
  size_t fa_lanes = 0;
  size_t nra_lanes = 0;
  size_t shared_scan_passes = 0;  // one per group with >= 1 scan lane
};

// Multi-request Fagin executor: answers a whole batch of quantification
// requests with one pass over each distinct list view.
//
// Requests are grouped by target and canonical selectors (CanonicalSelector:
// sorted, duplicates kept — the multiset the cache key uses). Both solvers
// gather lists in that order, so every spelling of a selector multiset sees
// the same list view and the same FP summation order. Each group gathers
// its non-empty inverted lists once; every request in the group becomes
// a *lane* (its own k / direction / missing policy / allowed bitmap /
// algorithm) driven during shared passes over those lists:
//
//  * scan lanes share ONE unfiltered accumulation pass over all list
//    entries (a position's sum is independent of every other position, so
//    lane filters only select which positions are emitted);
//  * TA / FA lanes of the same direction share the round-robin sorted
//    access — cursors advance identically whatever a lane's k, filter or
//    policy, so each entry is read once per round — and with it the seen
//    set (TA) or seen counts (FA): a lane's view is the group's, filtered
//    by the lane's allowed targets;
//  * NRA lanes share the sorted access and the per-round frontier bounds,
//    keeping per-lane bound state;
//  * every lane takes its candidates' (sum, count) from one group
//    CandidateScorer, so random-access work is paid once per group.
//
// These lane runners are the only TA / FA / NRA / scan implementation:
// SolveQuantification runs a single request as a lane group of one, and
// RunTopK (fagin_family.h) does the same over caller-built lists.
//
// Contract: results[i] is bitwise-identical to
// SolveQuantification(cube, indices, requests[i]) — same answers (bit-equal
// values, same order), same FaginStats, same error codes and messages, for
// every request independently of what else is in the batch. The hash engine
// of tests/support/fagin_reference.h is the independent differential
// reference for both (tests/batch_exec_test.cc, tests/fagin_dense_test.cc
// and bench_fagin_perf --dense_compare).
//
// Every lane publishes its FaginStats under fagin.<algorithm>.*, so those
// counters are sums over lanes. A batched lane records no latency sample (a
// shared pass has no per-lane latency); callers read `stats` instead.
std::vector<Result<QuantificationResult>> SolveQuantificationBatch(
    const UnfairnessCube& cube, const IndexSet& indices,
    const std::vector<QuantificationRequest>& requests,
    BatchExecStats* stats = nullptr);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_QUANTIFICATION_BATCH_H_
