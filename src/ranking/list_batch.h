#ifndef FAIRJOB_RANKING_LIST_BATCH_H_
#define FAIRJOB_RANKING_LIST_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ranking/kendall_tau.h"

namespace fairjob {

// Build-time statistics of a ListDistanceBatch (FaginStats-style; the same
// numbers are published as `measure.batch.*` counters, see
// docs/observability.md).
struct ListBatchStats {
  uint64_t lists_interned = 0;  // lists sharing the arena
  uint64_t unique_lists = 0;    // distinct list contents (arena slots)
  uint64_t items_interned = 0;  // total item slots across all lists
  uint64_t universe_size = 0;   // distinct item ids across all lists
};

// Batched list-distance engine: the per-cell fast path behind
// BuildSearchCube's pairwise distance matrix.
//
// The per-pair kernels (KendallTauTopK, JaccardDistance, FootruleTopK,
// RboDistance, KendallTauDistance) are self-contained: every call rebuilds
// `unordered_map` position lookups and re-validates duplicates for both
// lists. Evaluating all O(n²) pairs of one cell therefore hashes every list
// O(n) times. This engine interns the n lists once — item ids are mapped
// into a dense [0, U) universe, and each list gets a flat position array
// (rank of every universe item, −1 when absent) plus a membership bitmap —
// after which every pair kernel runs on flat arrays only: no hashing, no
// per-pair allocation, duplicate/size validation already done per list.
//
// Lists with identical contents share one arena slot (positions + bitmap
// stored once): at scale most users of a cell see one of a few personalized
// variants of the same ranking, so a million-observation cell costs
// arena memory proportional to its *distinct* lists. Kernels are pure
// functions of list contents, so deduplication cannot change any result.
//
// The integer hot loops (the dense-universe Jaccard popcount sweep and the
// membership/rank gathers feeding Kendall-Tau / Footrule / RBO) run through
// the runtime-dispatched SIMD kernels of ranking/simd.h — AVX2 when
// compiled in and supported, scalar otherwise; both are bitwise-equivalent
// by construction (integer-only work).
//
// Bitwise contract: on inputs both paths accept, every kernel's result is
// bitwise identical to its per-pair reference (enforced by
// tests/list_batch_test.cc and `bench_measures_perf --batch_compare`).
// Jaccard, Footrule and RBO accumulate exactly the reference's
// floating-point terms in the reference's order. Top-k Kendall-Tau counts
// the reference's pair cases in O(u log u) instead of scanning all O(u²)
// pairs; both sides tally integer case counts, combined once with the same
// expression.
// Validation is stricter in one corner: Make rejects duplicate ids anywhere
// in a list, while RboSimilarity only inspects the first min(|a|, |b|)
// positions. SearchDataset::AddObservation already enforces the stricter
// rule, so cube builds see no behavior change.
//
// The batch is immutable after Make and borrows nothing from the input
// lists, so it may be shared freely across threads; each thread passes its
// own Scratch to the kernels that need one.
class ListDistanceBatch {
 public:
  // Reusable per-thread buffers for the kernels that need scratch space.
  // Buffers grow to the largest list pair seen and are never shrunk, so a
  // row of pair evaluations allocates at most once per buffer.
  class Scratch {
   private:
    friend class ListDistanceBatch;
    std::vector<int32_t> mapped_;
    std::vector<int32_t> merge_;
    std::vector<int32_t> gather_;
  };

  // Interns `lists` (which may be empty) into a shared arena. Errors:
  // InvalidArgument when a list is null, empty, or contains a duplicate
  // item id, or when the position arrays would exceed the documented arena
  // cap (num_lists × universe entries; guards pathological inputs).
  static Result<ListDistanceBatch> Make(
      const std::vector<const RankedList*>& lists);

  size_t num_lists() const { return rep_.size(); }
  size_t universe_size() const { return item_ids_.size(); }
  // Arena slot of list i: lists with identical contents share a slot, and
  // every kernel is a pure function of the two slots it reads, so callers
  // may evaluate each distinct ordered slot pair once. Slots are numbered
  // in order of first appearance, in [0, stats().unique_lists).
  size_t slot(size_t i) const { return rep_[i]; }
  size_t list_size(size_t i) const {
    size_t slot = rep_[i];
    return offsets_[slot + 1] - offsets_[slot];
  }
  const ListBatchStats& stats() const { return stats_; }

  // Pair kernels over the lists passed to Make (indices into that vector).
  // All errors are InvalidArgument: out-of-range indices, out-of-range
  // penalty/persistence, or (full Kendall-Tau) lists over different item
  // sets.

  // ≡ KendallTauDistance(lists[i], lists[j]).
  Result<double> KendallTauFull(size_t i, size_t j, Scratch* scratch) const;
  // ≡ KendallTauTopK(lists[i], lists[j], p).
  Result<double> KendallTauTopK(size_t i, size_t j, double p,
                                Scratch* scratch) const;
  // ≡ JaccardDistance(lists[i], lists[j]).
  Result<double> Jaccard(size_t i, size_t j) const;
  // ≡ FootruleTopK(lists[i], lists[j]).
  Result<double> FootruleTopK(size_t i, size_t j) const;
  // ≡ RboDistance(lists[i], lists[j], p).
  Result<double> Rbo(size_t i, size_t j, double p) const;

 private:
  ListDistanceBatch() = default;

  Status CheckPair(size_t i, size_t j) const;

  // Dense id → original item id (error messages, tests).
  std::vector<int32_t> item_ids_;
  // Logical list index → arena slot; lists with identical contents share a
  // slot, so the arrays below are sized by distinct lists, not by n.
  std::vector<size_t> rep_;
  // Slot s's dense ids in rank order live in
  // dense_[offsets_[s], offsets_[s + 1]).
  std::vector<size_t> offsets_;
  std::vector<int32_t> dense_;
  // pos_[s * U + u]: 0-based rank of universe item u in slot s, −1 absent.
  std::vector<int32_t> pos_;
  // bits_[s * words_ + w]: membership bitmap of slot s (bit u%64 of word
  // u/64 set iff u present). Used by the Jaccard kernel when a popcount
  // sweep beats probing the shorter list.
  std::vector<uint64_t> bits_;
  size_t words_ = 0;
  ListBatchStats stats_;
};

}  // namespace fairjob

#endif  // FAIRJOB_RANKING_LIST_BATCH_H_
