#ifndef FAIRJOB_CORE_FAGIN_H_
#define FAIRJOB_CORE_FAGIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/indices.h"

namespace fairjob {

// Direction of Problem 1: most-unfair returns the largest aggregates,
// least-unfair the smallest.
enum class RankDirection { kMostUnfair, kLeastUnfair };

// What a missing cube cell means when aggregating a target id across lists:
//  * kSkip: average over the lists where the id is present (the framework's
//    semantics: unobserved (q,l) pairs do not dilute a group's unfairness);
//  * kZero: treat missing as 0 (a full |Q|·|L| denominator, Algorithm 1's
//    literal behaviour on a complete cube).
// Both agree on complete cubes.
enum class MissingCellPolicy { kSkip, kZero };

// Instrumentation for the sorted/random access counts the Fagin family is
// judged by (the paper's Figure-9-style efficiency metrics).
struct FaginStats {
  size_t sorted_accesses = 0;
  size_t random_accesses = 0;
  size_t ids_scored = 0;
  // Round-robin passes over the lists before termination — the early-stop
  // depth (a full scan of lists of length n reports n rounds).
  size_t rounds = 0;
  // Times the termination bound was evaluated against the k-th best value.
  size_t threshold_checks = 0;
};

// Publishes one run's stats to the global MetricsRegistry under
// "fagin.<algorithm>.*" (runs, access counts, rounds, threshold checks and,
// when `elapsed_us` is given, a latency sample); no-op while metrics are
// disabled. Every lane of the engine calls it once; a lane run inside a
// batch passes no latency, because a shared pass has none per lane.
void RecordFaginMetrics(const char* algorithm, const FaginStats& stats,
                        std::optional<double> elapsed_us);

// Options for a top-k run (RunTopK, core/fagin_family.h).
struct TopKOptions {
  size_t k = 5;
  RankDirection direction = RankDirection::kMostUnfair;
  MissingCellPolicy missing = MissingCellPolicy::kSkip;
  // When non-null, only these target positions are eligible (e.g. "out of
  // Black Males, Asian Males and White Females, ..."); others are skipped.
  // Materialized once per run into a position-indexed bitmap.
  const std::vector<int32_t>* allowed = nullptr;
  // Size of the target axis when known (SolveQuantification passes the cube
  // axis size). 0 = derive from the lists' dense_size. The engines size
  // their flat accumulator arrays and bitmaps to
  // max(universe_hint, max list dense_size), so an understated hint is
  // harmless.
  size_t universe_hint = 0;
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_FAGIN_H_
