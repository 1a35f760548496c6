#ifndef FAIRJOB_CORE_INDICES_H_
#define FAIRJOB_CORE_INDICES_H_

#include <bit>
#include <cstdint>
#include <memory>
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

// Presence bits of 64 consecutive positions and how many positions below
// the first of them are present: one word of a rank bitmap. The rank of a
// present position p is words[p / 64].below plus the set bits of its word
// below p.
struct RankWord {
  uint64_t bits = 0;
  uint32_t below = 0;

  // std::popcount compiles to a libgcc call on targets without a popcount
  // instruction (the default x86-64 one); this is the same count in a few
  // inline ALU operations, on the random-access path.
  static size_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555u;
    x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fu;
    return static_cast<size_t>((x * 0x0101010101010101u) >> 56);
  }

  bool test(size_t pos) const { return (bits >> (pos & 63) & 1) != 0; }
  // Rank of present position `pos`, whose word this is.
  size_t RankOf(size_t pos) const {
    return below + PopCount(bits & ((uint64_t{1} << (pos & 63)) - 1));
  }
};

// A read-only view of one sorted inverted list (Table 5 of the paper):
// entries descending by value for sorted access from the top (most unfair)
// and ascending access from the tail (least unfair), plus a rank bitmap
// for Fagin-style random accesses. Axis positions are dense 0..N-1 cube
// coordinates; for every 64 of them the list keeps one RankWord, and it
// keeps the present values in ascending position order. Find(pos) is one
// word load, a bit test, a popcount and one value load: O(1), with no
// hashing and no search. Random access costs 8 bytes per present value
// plus 16 bytes per 64 positions up to the largest present one.
//
// A view is 32 bytes and trivially copyable; it points into storage that
// someone else owns (a ListStore, an IndexSet or an InvertedIndex) and is
// valid for as long as that storage is. A default-constructed view is the
// empty list.
class InvertedList {
 public:
  InvertedList() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // i-th entry in descending-value order.
  const ScoredEntry& entry(size_t i) const { return entries_[i]; }

  // Random access: value of `pos`, or nullopt when absent from this list.
  // A negative `pos` wraps to a word index past the end.
  std::optional<double> Find(int32_t pos) const {
    const size_t p = static_cast<size_t>(pos);
    if ((p >> 6) >= num_words_ || !words_[p >> 6].test(p)) {
      return std::nullopt;
    }
    return by_position_[words_[p >> 6].RankOf(p)];
  }

  // 1 + the largest present position (0 for an empty list): every entry pos
  // lies in [0, dense_size()), and the engines size their position-indexed
  // arrays by it.
  size_t dense_size() const {
    if (num_words_ == 0) return 0;
    return 64 * (size_t{num_words_} - 1) +
           static_cast<size_t>(std::bit_width(words_[num_words_ - 1].bits));
  }

 private:
  friend class ListStore;

  const ScoredEntry* entries_ = nullptr;
  const RankWord* words_ = nullptr;
  const double* by_position_ = nullptr;
  uint32_t size_ = 0;
  uint32_t num_words_ = 0;
};

// Flat storage for a sequence of inverted lists, in compressed sparse row
// form: list i owns entries [begin_[i].entry, begin_[i + 1].entry) of the
// entry and value arrays, and words [begin_[i].word, begin_[i + 1].word)
// of the word array. A list costs 16 bytes of offsets plus its data, with
// no heap block of its own. Lists are only ever appended; nothing in a
// store moves once the store is complete, so views stay valid for the
// store's lifetime.
class ListStore {
 public:
  ListStore() = default;

  size_t num_lists() const { return begin_.empty() ? 0 : begin_.size() - 1; }
  size_t num_entries() const { return entries_.size(); }
  size_t num_words() const { return words_.size(); }

  InvertedList list(size_t i) const {
    InvertedList view;
    const Offsets& b = begin_[i];
    const Offsets& e = begin_[i + 1];
    view.entries_ = entries_.data() + b.entry;
    view.by_position_ = by_position_.data() + b.entry;
    view.words_ = words_.data() + b.word;
    view.size_ = static_cast<uint32_t>(e.entry - b.entry);
    view.num_words_ = static_cast<uint32_t>(e.word - b.word);
    return view;
  }

  // Reserves room for `lists` more lists holding `entries` entries and
  // `words` rank words in total, so that appending them allocates once.
  void Reserve(size_t lists, size_t entries, size_t words);

  // Appends copies of lists [first, last) of `other`, in one copy per array.
  void Append(const ListStore& other, size_t first, size_t last);

  // One cell change of a list: `pos` (non-negative) loses its entry and,
  // when `present`, gets `value`.
  struct Edit {
    int32_t pos;
    bool present;
    double value;
  };
  // Appends `list` with `edits` (ascending, distinct positions) applied:
  // the new entries are sorted into list order and merged with the kept
  // ones, and the words and values are merged in position order, so the
  // list's own entries are never re-sorted. `scratch` is reused across
  // calls.
  void AppendEdited(const InvertedList& list, const Edit* edits, size_t n,
                    std::vector<ScoredEntry>* scratch);

 private:
  struct Offsets {
    uint64_t entry = 0;
    uint64_t word = 0;
  };

  std::vector<Offsets> begin_;  // num_lists() + 1, or empty for none
  std::vector<ScoredEntry> entries_;
  std::vector<double> by_position_;
  std::vector<RankWord> words_;
};

// An inverted list that owns its storage: the standalone form, for callers
// that build their own lists (RunTopK's input, tests, benches). It is an
// InvertedList, so every read above applies to it.
class InvertedIndex : public InvertedList {
 public:
  // Takes entries in any order; sorts descending by value (ties by pos for
  // determinism). A position given more than once keeps only its first
  // entry in that order, the one Find returns. A negative position is
  // dropped and makes the list invalid(): RunTopK rejects it.
  explicit InvertedIndex(std::vector<ScoredEntry> entries);

  InvertedIndex(const InvertedIndex& other);
  InvertedIndex& operator=(const InvertedIndex& other);
  InvertedIndex(InvertedIndex&& other) noexcept;
  InvertedIndex& operator=(InvertedIndex&& other) noexcept;

  // False when a negative position was given to the constructor or to
  // Upsert; such an entry is never stored.
  bool valid() const { return valid_; }

  // Incremental maintenance: inserts or updates `pos`, keeping the
  // descending order and the rank bitmap in sync. O(n), with no re-sort.
  void Upsert(int32_t pos, double value);
  // Removes `pos` if present (the cell became undefined). O(n).
  void Remove(int32_t pos);

 private:
  // Points the view at the store's one list.
  void Bind();
  // Replaces the list by itself with `edit` applied.
  void Apply(const ListStore::Edit& edit);

  ListStore store_;
  bool valid_ = true;
};

// The three index families of Section 4.2, built once from a cube:
//  * group-based:    one list per (query, location) pair, over groups;
//  * query-based:    one list per (group, location) pair, over queries;
//  * location-based: one list per (group, query) pair, over locations.
// Missing cube cells simply do not appear in the lists.
//
// An IndexSet is a persistent structure. A family keeps its lists in
// immutable blocks, one per value of the axis a cube column fixes: the
// group lists (q, ·) and the location lists (·, q) of one query q form a
// block, and so do the query lists (·, l) of one location l. A block is
// flat storage (one ListStore, plus a rank bitmap saying which of its lists
// have a slot), shared by reference between copies of the set. Copying a
// set copies one pointer per block; RefreshColumns writes a new block for
// each block it changes, so a copy and its original never see each other's
// writes, and every block neither changed stays one object in both. Build
// reads the cube's stored columns in parallel on ThreadPool::Shared()
// (docs/performance.md).
class IndexSet {
 public:
  static IndexSet Build(const UnfairnessCube& cube);

  // The inverted lists to aggregate when ranking dimension `target`,
  // restricted to subsets of the two other axes (AxisSelector::All() = every
  // position). The "other" axes are always taken in ascending Dimension
  // order, e.g. target=kQuery -> (other1=group, other2=location). The views
  // are valid while this set is alive and not refreshed.
  std::vector<InvertedList> ListsFor(Dimension target,
                                     const AxisSelector& other1,
                                     const AxisSelector& other2) const;

  // Single list access, mainly for tests: positions are along the two other
  // axes in ascending Dimension order.
  InvertedList ListAt(Dimension target, size_t other1_pos,
                      size_t other2_pos) const;

  size_t axis_size(Dimension d) const {
    return sizes_[static_cast<size_t>(d)];
  }

  // Re-syncs every inverted list touched by changes to the listed cube
  // columns, e.g. after a delta build (BuildMarketplaceCubeColumns into a
  // CubeMaterializeSink) rewrote the group cells of re-crawled
  // (query, location) pairs. Each cell (g, q, l) of a listed column that
  // differs from the lists replaces, inserts or removes its entry in the
  // group list (q, l), the query list (g, l) and the location list (g, q).
  // Only the blocks holding those lists are rewritten, one block at a time
  // on up to `parallelism` threads of ThreadPool::Shared(). The cube must
  // have this set's axis sizes; a column may be listed more than once.
  void RefreshColumns(const UnfairnessCube& cube,
                      const std::vector<CubeColumnRef>& columns,
                      size_t parallelism = 1);

 private:
  // The lists of one block, by their position on the family's other
  // non-block axis, and a rank bitmap over those positions marking the
  // lists that have a slot. Build gives a slot to the non-empty lists only;
  // a list an upsert emptied keeps an empty one.
  struct Block {
    std::vector<RankWord> directory;
    ListStore lists;

    InvertedList at(size_t i) const {
      const RankWord& word = directory[i >> 6];
      if (!word.test(i)) return InvertedList();
      return lists.list(word.RankOf(i));
    }
  };

  // One family: a block per position of its block axis (null when it never
  // held an entry). The group family's block axis is other1 (query); the
  // query and location families' is other2.
  struct Family {
    std::vector<std::shared_ptr<const Block>> blocks;
    bool blocks_by_other2 = false;

    InvertedList at(size_t p1, size_t p2) const {
      const Block* block = blocks[blocks_by_other2 ? p2 : p1].get();
      if (block == nullptr) return InvertedList();
      return block->at(blocks_by_other2 ? p1 : p2);
    }
  };

  IndexSet() = default;

  // Sizes of the two non-target axes, ascending Dimension order.
  void OtherSizes(Dimension target, size_t* s1, size_t* s2) const;

  Family family_[3];  // indexed by target Dimension
  size_t sizes_[3] = {0, 0, 0};
};

}  // namespace fairjob

#endif  // FAIRJOB_CORE_INDICES_H_
