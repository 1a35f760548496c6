#ifndef FAIRJOB_PERFBENCH_ORACLE_H_
#define FAIRJOB_PERFBENCH_ORACLE_H_

#include <optional>
#include <string>
#include <vector>

#include "core/comparison.h"
#include "core/quantification.h"
#include "core/unfairness_cube.h"

namespace fairbench {

// Brute-force oracles, computed outside every timed region.

// Problem 1: the aggregate of every target position, from
// UnfairnessCube::Average over the request's selected sub-box (nullopt when
// the position has no present cell there). Supports the kSkip policy and no
// allowed_targets filter, the only request shapes the benchmark issues.
std::vector<std::optional<double>> TopKOracle(
    const fairjob::UnfairnessCube& cube,
    const fairjob::QuantificationRequest& request);

// Whether `answer` is a correct top-k for the oracle values: the right
// length, every value within a relative 1e-9 of the oracle, best-first
// order, no id twice, and no returned value worse than the oracle's k-th
// (ties at the boundary may be broken either way). On failure *why says how.
bool TopKMatches(const fairjob::UnfairnessCube& cube,
                 const fairjob::QuantificationRequest& request,
                 const std::vector<std::optional<double>>& oracle,
                 const fairjob::QuantificationResult& answer,
                 std::string* why);

// Problem 2: recomputes every breakdown row by summing present cells
// directly (no call into the library), checks the row set and values, and
// re-derives each row's reversal flag from the returned values by the
// paper's rule.
bool ComparisonMatches(const fairjob::UnfairnessCube& cube,
                       const fairjob::ComparisonRequest& request,
                       const fairjob::ComparisonResult& answer,
                       std::string* why);

// Exact equality of ids and value bit patterns.
bool SameBits(const fairjob::QuantificationResult& a,
              const fairjob::QuantificationResult& b);

// Order-sensitive digest of ids and value bits, for recording served
// answers cheaply and checking them later.
uint64_t AnswerDigest(const fairjob::QuantificationResult& result);

// The checkers must reject a corrupted answer; returns false if they do
// not (then the benchmark's correctness verdicts cannot be trusted).
bool OracleSelfTest();

}  // namespace fairbench

#endif  // FAIRJOB_PERFBENCH_ORACLE_H_
