#ifndef FAIRJOB_CORE_INDICES_H_
#define FAIRJOB_CORE_INDICES_H_

#include <bit>
#include <cstdint>
#include <deque>
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
// ascending access from the tail (least unfair), plus a rank bitmap for
// Fagin-style random accesses. Axis positions are dense 0..N-1 cube
// coordinates; for every 64 of them the list keeps one presence word and
// the number of present positions below that word, and it keeps the
// present values in ascending position order. Find(pos) is one word load,
// a bit test, a popcount and one value load: O(1), with no hashing and no
// search. Random access costs 8 bytes per present value plus 16 bytes per
// 64 positions up to the largest present one, not a column as long as the
// axis.
class InvertedIndex {
 public:
  // Takes entries in any order of non-negative positions; sorts descending
  // by value (ties by pos for determinism). A position given more than once
  // keeps only its first entry in that order, the one Find returns.
  explicit InvertedIndex(std::vector<ScoredEntry> entries);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // i-th entry in descending-value order.
  const ScoredEntry& entry(size_t i) const { return entries_[i]; }

  // Random access: value of `pos`, or nullopt when absent from this list.
  // A negative `pos` wraps to a word index past the end.
  std::optional<double> Find(int32_t pos) const {
    const size_t p = static_cast<size_t>(pos);
    if ((p >> 6) >= words_.size() ||
        (words_[p >> 6].bits >> (p & 63) & 1) == 0) {
      return std::nullopt;
    }
    return by_position_[RankOf(p)];
  }

  // 1 + the largest present position (0 for an empty list): every entry pos
  // lies in [0, dense_size()), and the engines size their position-indexed
  // arrays by it.
  size_t dense_size() const {
    if (words_.empty()) return 0;
    return 64 * (words_.size() - 1) +
           static_cast<size_t>(std::bit_width(words_.back().bits));
  }

  // Incremental maintenance (crawl refreshes): inserts or updates `pos`
  // (non-negative), keeping the descending order and the rank bitmap in
  // sync. O(n), with no re-sort.
  void Upsert(int32_t pos, double value);
  // Removes `pos` if present (the cell became undefined). O(n).
  void Remove(int32_t pos);

 private:
  // Presence bits of positions [64w, 64w + 64) and how many positions
  // below 64w are present: the index of the word's first value in
  // by_position_.
  struct RankWord {
    uint64_t bits = 0;
    uint32_t below = 0;
  };

  // std::popcount compiles to a libgcc call on targets without a popcount
  // instruction (the default x86-64 one); this is the same count in a few
  // inline ALU operations, on the random-access path.
  static size_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return static_cast<size_t>((x * 0x0101010101010101u) >> 56);
  }

  // Index into by_position_ of present position `pos`.
  size_t RankOf(size_t pos) const {
    const RankWord& word = words_[pos >> 6];
    const uint64_t bit = uint64_t{1} << (pos & 63);
    return word.below + PopCount(word.bits & (bit - 1));
  }

  std::vector<ScoredEntry> entries_;
  // The last word is non-zero, so words_.size() is ceil(dense_size() / 64).
  std::vector<RankWord> words_;
  std::vector<double> by_position_;  // present values, ascending position
};

// The three index families of Section 4.2, built once from a cube:
//  * group-based:    one list per (query, location) pair, over groups;
//  * query-based:    one list per (group, location) pair, over queries;
//  * location-based: one list per (group, query) pair, over locations.
// Missing cube cells simply do not appear in the lists. Each family keeps a
// table of 4-byte slot ids, one per list, and stores a list only once it
// has had an entry; a list without a slot reads as a shared empty list. Build
// reads the cube's stored columns in two parallel sweeps on
// ThreadPool::Shared() (docs/performance.md).
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
  // (query_pos, location_pos) — i.e. after a delta build
  // (BuildMarketplaceCubeColumns into a CubeMaterializeSink) rewrote the
  // group cells for one re-crawled (query, location):
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

  // One family: a slot per (other1, other2) list, and the lists that were
  // given one. Lists live in a deque, so adding a list moves no other.
  class Family {
   public:
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    Family() = default;
    // `num_lists` lists, none with a slot yet, and `num_slots` empty lists
    // for Place to hand out.
    Family(size_t num_lists, size_t num_slots);

    const InvertedIndex& at(size_t i) const;
    // Gives list i the constructor-made slot `slot` and returns its list.
    // Calls for distinct lists and slots may run concurrently.
    InvertedIndex& Place(size_t i, size_t slot);
    // List i if it has a slot, else nullptr.
    InvertedIndex* Find(size_t i);
    // List i, given a slot holding an empty list when it had none.
    InvertedIndex& Get(size_t i);

   private:
    std::vector<uint32_t> slot_of_;
    std::deque<InvertedIndex> lists_;
  };

  Family family_[3];  // indexed by target Dimension
  size_t sizes_[3] = {0, 0, 0};
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_INDICES_H_
