#ifndef FAIRJOB_CORE_INDICES_H_
#define FAIRJOB_CORE_INDICES_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/unfairness_cube.h"

namespace fairjob {

// One (target position, unfairness) pair inside an inverted index.
struct ScoredEntry {
  int32_t pos;   // position on the target axis of the cube
  double value;  // d<...> for that position

  friend bool operator==(const ScoredEntry& a, const ScoredEntry& b) {
    return a.pos == b.pos && a.value == b.value;
  }
};

// A sorted inverted list with random access (Table 5 of the paper): entries
// descending by value for sorted access from the top (most unfair) and
// ascending access from the tail (least unfair), plus a dense
// position-indexed value column for Fagin-style random accesses. Axis
// positions are dense 0..N-1 cube coordinates, so the column is a flat
// vector (with a companion presence bitmap) and Find is a cache-friendly
// O(1) array load — no hashing anywhere on the query path.
class InvertedIndex {
 public:
  // Takes entries in any order; sorts descending by value (ties by pos for
  // determinism). A position given more than once keeps only its first
  // entry in that order, the one Find returns.
  explicit InvertedIndex(std::vector<ScoredEntry> entries);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // i-th entry in descending-value order.
  const ScoredEntry& entry(size_t i) const { return entries_[i]; }

  // Random access: value of `pos`, or nullopt when absent from this list.
  std::optional<double> Find(int32_t pos) const {
    if (pos < 0 || static_cast<size_t>(pos) >= present_.size() ||
        present_[static_cast<size_t>(pos)] == 0) {
      return std::nullopt;
    }
    return values_[static_cast<size_t>(pos)];
  }

  // Extent of the dense column: 1 + the largest position ever stored (0 for
  // an empty list). Every entry pos lies in [0, dense_size()).
  size_t dense_size() const { return values_.size(); }

  // Incremental maintenance (crawl refreshes): inserts or updates `pos`,
  // keeping the descending order and the dense column in sync. O(n).
  void Upsert(int32_t pos, double value);
  // Removes `pos` if present (the cell became undefined). O(n).
  void Remove(int32_t pos);

 private:
  std::vector<ScoredEntry> entries_;
  // Dense random-access column: values_[pos] is valid iff present_[pos].
  std::vector<double> values_;
  std::vector<uint8_t> present_;
};

// The three index families of Section 4.2, built once from a cube:
//  * group-based:    one list per (query, location) pair, over groups;
//  * query-based:    one list per (group, location) pair, over queries;
//  * location-based: one list per (group, query) pair, over locations.
// Missing cube cells simply do not appear in the lists. Build reads the
// cube's stored columns in two parallel sweeps on ThreadPool::Shared()
// (docs/performance.md).
class IndexSet {
 public:
  static IndexSet Build(const UnfairnessCube& cube);

  // The inverted lists to aggregate when ranking dimension `target`,
  // restricted to subsets of the two other axes (AxisSelector::All() = every
  // position). The "other" axes are always taken in ascending Dimension
  // order, e.g. target=kQuery -> (other1=group, other2=location).
  std::vector<const InvertedIndex*> ListsFor(Dimension target,
                                             const AxisSelector& other1,
                                             const AxisSelector& other2) const;

  // Single list access, mainly for tests: positions are along the two other
  // axes in ascending Dimension order.
  const InvertedIndex& ListAt(Dimension target, size_t other1_pos,
                              size_t other2_pos) const;

  size_t axis_size(Dimension d) const {
    return sizes_[static_cast<size_t>(d)];
  }

  // Re-syncs every inverted list touched by changes to the cube column at
  // (query_pos, location_pos) — i.e. after RefreshMarketplaceColumn updated
  // the group cells for one re-crawled (query, location):
  //  * the group-based list for that pair is rebuilt;
  //  * the query-based list of every (g, location_pos) gets its query entry
  //    upserted/removed;
  //  * the location-based list of every (g, query_pos) likewise.
  // The cube must be the one this set was built from (same axis sizes).
  void RefreshColumn(const UnfairnessCube& cube, size_t query_pos,
                     size_t location_pos);

 private:
  IndexSet() = default;

  // Sizes of the two non-target axes, ascending Dimension order.
  void OtherSizes(Dimension target, size_t* s1, size_t* s2) const;

  std::vector<InvertedIndex> family_[3];  // indexed by target Dimension
  size_t sizes_[3] = {0, 0, 0};
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_INDICES_H_
