#ifndef FAIRJOB_CORE_MARKETPLACE_BATCH_H_
#define FAIRJOB_CORE_MARKETPLACE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/group_space.h"
#include "core/unfairness_measures.h"

namespace fairjob {

// Per-worker group membership bitmaps, hoisted across (query, location)
// columns — the marketplace twin of the search cube's SearchGroupMembership.
// Whether a worker matches a group label depends only on demographics, never
// on the column, so label matching is done once per dataset version instead
// of once per cell — and once per distinct demographic profile rather than
// per worker; the bits are then filled in word blocks on ThreadPool::Shared().
// Per-cell membership becomes one word probe per (group, position). Rows are
// bit-packed (bit w of row g = "worker w is in group g"), 8x smaller than a
// byte table and directly usable as the input of the simd:: bitmap kernels.
//
// Lifecycle: built once per dataset version (cube builders construct one per
// build; MarketplaceCubeMaintainer keeps one alive) and extended by Update
// when workers were added. Demographics are immutable after AddWorker, so an
// update only labels the NEW workers — existing bits are carried over — and
// the row layout is a pure function of the worker count, which makes an
// incrementally-updated table operator== identical to one rebuilt from
// scratch (asserted in tests/marketplace_batch_test.cc).
class MarketplaceGroupMembership {
 public:
  MarketplaceGroupMembership(const MarketplaceDataset& data,
                             const GroupSpace& space);

  // Extends the table over workers added to `data` since construction (or
  // the last Update); a no-op when the worker count is unchanged. `space`
  // must be the one the table was built with. Not thread-safe against
  // concurrent Matches/group_bits readers — update between builds, exactly
  // like the dataset itself.
  void Update(const MarketplaceDataset& data, const GroupSpace& space);

  size_t num_workers() const { return num_workers_; }
  size_t num_groups() const { return num_groups_; }
  // Words per bitmap row; bit (w % 64) of word (w / 64) is worker w.
  size_t words_per_group() const { return words_per_group_; }
  const uint64_t* group_bits(GroupId g) const {
    return words_.data() + static_cast<size_t>(g) * words_per_group_;
  }

  bool Matches(GroupId g, WorkerId w) const {
    const size_t worker = static_cast<size_t>(w);
    return (group_bits(g)[worker >> 6] >> (worker & 63)) & 1;
  }

  // Exact-state comparison (layout is deterministic, so "incrementally
  // updated" == "freshly built" is a meaningful assertion).
  friend bool operator==(const MarketplaceGroupMembership& a,
                         const MarketplaceGroupMembership& b) {
    return a.num_workers_ == b.num_workers_ && a.words_ == b.words_;
  }
  friend bool operator!=(const MarketplaceGroupMembership& a,
                         const MarketplaceGroupMembership& b) {
    return !(a == b);
  }

 private:
  // Labels workers [first, num_workers_) into the already-sized rows: maps
  // them to distinct profiles, matches each profile once, then ORs worker
  // bits in per-task blocks of whole words starting at word first / 64.
  void LabelNewWorkers(const MarketplaceDataset& data, const GroupSpace& space,
                       size_t first);

  size_t num_workers_ = 0;
  size_t num_groups_ = 0;
  size_t words_per_group_ = 0;
  std::vector<uint64_t> words_;  // num_groups_ rows of words_per_group_
};

// Shared per-(query, location) state for evaluating ONE marketplace measure
// across a whole group axis — the batched successor of
// MarketplaceCellContext. The context still label-matches every worker
// against every group per cell and re-derives position bias and histogram
// bins per group; the batch instead computes, once per cell:
//
//  * a per-position probe arena (membership word index + mask of each ranked
//    worker), turning group membership into bitmap probes;
//  * per-group position bitmaps, swept by the simd:: kernels —
//    CompressPositions for ascending member positions (exposure),
//    MaskedBinCount to scatter precomputed per-position histogram bin
//    indices into per-group integer counts (EMD);
//  * position bias from the process-shared PositionBiasTable (log-inverse
//    model) instead of per-(cell × group × position) transcendentals;
//  * for EMD, each group's renormalized distribution, making a comparable
//    pair O(bins) with zero allocations (the reference allocates four
//    vectors per pair inside Emd1D).
//
// Only O(G) state is retained — member counts, exposure/relevance partial
// sums or renormalized histograms — so a batch is as cheap to keep per
// column task as the context was.
//
// Bitwise contract: Unfairness(g) accumulates exactly the same FP terms in
// the same order as MarketplaceCellContext::Unfairness and
// MarketplaceUnfairness (integer histogram counts are exact in double, the
// bias table is filled by the same expression ExposureAtRank evaluates, and
// all position sweeps run in the reference's ascending order), so results —
// including the missing-cell pattern and exact NotFound messages — are
// bit-identical, not approximately equal. Cross-checked in
// tests/marketplace_batch_test.cc and enforced by bench_cube_build.
//
// Immutable after Make and borrows only the GroupSpace, so it may be shared
// freely across threads.
class MarketplaceCellBatch {
 public:
  // Precomputes the shared state for one (query, location) ranking under one
  // measure. `ranking` may be the (possibly null) result of
  // MarketplaceDataset::GetRanking; `membership` must cover every worker the
  // ranking lists (i.e. be built/updated from the same dataset version).
  // Errors: InvalidArgument on malformed options or a stale membership
  // table; NotFound when ranking is null or empty (the whole column is
  // undefined — callers clear the cells).
  static Result<MarketplaceCellBatch> Make(
      const GroupSpace& space, const MarketplaceGroupMembership& membership,
      const MarketRanking* ranking, MarketMeasure measure,
      const MeasureOptions& options);

  // d<g,q,l> for this cell under the measure fixed at Make; bitwise-identical
  // to MarketplaceUnfairness on the same triple. Errors: NotFound when the
  // triple is undefined (g or every comparable group has no members in the
  // ranking).
  Result<double> Unfairness(GroupId g) const;

  // Number of g's members in the ranking (0 = the group's cells are missing).
  size_t member_count(GroupId g) const {
    return member_counts_[static_cast<size_t>(g)];
  }

 private:
  MarketplaceCellBatch() = default;

  Result<double> Emd(GroupId g) const;
  Result<double> Exposure(GroupId g) const;

  const GroupSpace* space_ = nullptr;
  MarketMeasure measure_ = MarketMeasure::kEmd;
  std::vector<uint32_t> member_counts_;  // per group

  // kEmd: per-group renormalized distributions (G × bins_, row-major; rows
  // of memberless groups stay zero and are never read).
  size_t bins_ = 0;
  std::vector<double> renormalized_;

  // kExposure: per-group Σ position bias / Σ worker value, ascending order.
  std::vector<double> exposure_sums_;
  std::vector<double> relevance_sums_;
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_MARKETPLACE_BATCH_H_
