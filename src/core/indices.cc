#include "core/indices.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>

#include "common/thread_pool.h"

namespace fairjob {
namespace {

// The two non-target dimensions in ascending enum order.
void OtherDims(Dimension target, Dimension* d1, Dimension* d2) {
  switch (target) {
    case Dimension::kGroup:
      *d1 = Dimension::kQuery;
      *d2 = Dimension::kLocation;
      return;
    case Dimension::kQuery:
      *d1 = Dimension::kGroup;
      *d2 = Dimension::kLocation;
      return;
    case Dimension::kLocation:
      *d1 = Dimension::kGroup;
      *d2 = Dimension::kQuery;
      return;
  }
  assert(false);
}

std::vector<size_t> ResolvePositions(const AxisSelector& sel, size_t size) {
  if (!sel.all()) return sel.positions;
  std::vector<size_t> all(size);
  for (size_t i = 0; i < size; ++i) all[i] = i;
  return all;
}

// The sorted-access order: descending by value, ties by ascending position.
bool DescendingByValue(const ScoredEntry& a, const ScoredEntry& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.pos < b.pos;
}

// Words a list whose largest position is `max_pos` needs (0 for none).
size_t WordsFor(int64_t max_pos) {
  return static_cast<size_t>(max_pos + 64) / 64;
}

bool SameBits(const std::optional<double>& a, const std::optional<double>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() ||
         std::bit_cast<uint64_t>(*a) == std::bit_cast<uint64_t>(*b);
}

// Calls fn(g) for every group present in a stored column, ascending.
template <typename Fn>
void ForEachPresent(const UnfairnessCube::Column& cells, size_t num_words,
                    const Fn& fn) {
  for (size_t w = 0; w < num_words; ++w) {
    for (uint64_t bits = cells.presence_word(w); bits != 0; bits &= bits - 1) {
      fn(64 * w + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

// Fills `below` of the rank words [first, last), whose bits are set.
void RankWords(RankWord* first, RankWord* last) {
  uint32_t below = 0;
  for (RankWord* word = first; word != last; ++word) {
    word->below = below;
    below += static_cast<uint32_t>(RankWord::PopCount(word->bits));
  }
}

}  // namespace

void ListStore::Reserve(size_t lists, size_t entries, size_t words) {
  begin_.reserve((begin_.empty() ? 1 : begin_.size()) + lists);
  entries_.reserve(entries_.size() + entries);
  by_position_.reserve(by_position_.size() + entries);
  words_.reserve(words_.size() + words);
}

void ListStore::Append(const ListStore& other, size_t first, size_t last) {
  if (first == last) return;
  if (begin_.empty()) begin_.emplace_back();
  const Offsets& b = other.begin_[first];
  const Offsets& e = other.begin_[last];
  const uint64_t entry_shift = entries_.size() - b.entry;
  const uint64_t word_shift = words_.size() - b.word;
  entries_.insert(entries_.end(), other.entries_.begin() + b.entry,
                  other.entries_.begin() + e.entry);
  by_position_.insert(by_position_.end(), other.by_position_.begin() + b.entry,
                      other.by_position_.begin() + e.entry);
  words_.insert(words_.end(), other.words_.begin() + b.word,
                other.words_.begin() + e.word);
  for (size_t i = first + 1; i <= last; ++i) {
    begin_.push_back(Offsets{other.begin_[i].entry + entry_shift,
                             other.begin_[i].word + word_shift});
  }
}

void ListStore::AppendEdited(const InvertedList& list, const Edit* edits,
                             size_t n, std::vector<ScoredEntry>* scratch) {
  if (begin_.empty()) begin_.emplace_back();
  // Entries, in list order: the kept ones merged with the new ones.
  std::vector<ScoredEntry>& added = *scratch;
  added.clear();
  for (size_t i = 0; i < n; ++i) {
    if (edits[i].present) added.push_back({edits[i].pos, edits[i].value});
  }
  std::sort(added.begin(), added.end(), DescendingByValue);
  auto edited = [&](int32_t pos) {
    return std::binary_search(
        edits, edits + n, Edit{pos, false, 0.0},
        [](const Edit& a, const Edit& b) { return a.pos < b.pos; });
  };
  size_t next = 0;
  for (size_t i = 0; i < list.size_; ++i) {
    const ScoredEntry& e = list.entries_[i];
    if (edited(e.pos)) continue;
    while (next < added.size() && DescendingByValue(added[next], e)) {
      entries_.push_back(added[next++]);
    }
    entries_.push_back(e);
  }
  entries_.insert(entries_.end(), added.begin() + static_cast<long>(next),
                  added.end());

  // Words and values, in position order: the old positions merged with the
  // edited ones.
  const size_t w0 = words_.size();
  auto emit = [&](int32_t at, double value) {
    const size_t pos = static_cast<size_t>(at);
    while (words_.size() - w0 <= (pos >> 6)) words_.emplace_back();
    words_[w0 + (pos >> 6)].bits |= uint64_t{1} << (pos & 63);
    by_position_.push_back(value);
  };
  size_t j = 0;  // into edits
  size_t rank = 0;
  for (size_t w = 0; w < list.num_words_; ++w) {
    for (uint64_t bits = list.words_[w].bits; bits != 0; bits &= bits - 1) {
      const size_t pos = 64 * w + static_cast<size_t>(std::countr_zero(bits));
      const double value = list.by_position_[rank++];
      for (; j < n && static_cast<size_t>(edits[j].pos) < pos; ++j) {
        if (edits[j].present) emit(edits[j].pos, edits[j].value);
      }
      if (j < n && static_cast<size_t>(edits[j].pos) == pos) {
        if (edits[j].present) emit(edits[j].pos, edits[j].value);
        ++j;
        continue;
      }
      emit(static_cast<int32_t>(pos), value);
    }
  }
  for (; j < n; ++j) {
    if (edits[j].present) emit(edits[j].pos, edits[j].value);
  }
  RankWords(words_.data() + w0, words_.data() + words_.size());
  begin_.push_back(Offsets{entries_.size(), words_.size()});
}

InvertedIndex::InvertedIndex(std::vector<ScoredEntry> entries) {
  // A negative position would index the presence words out of bounds: it
  // is dropped here, and the list reports itself invalid.
  auto negative =
      std::remove_if(entries.begin(), entries.end(),
                     [](const ScoredEntry& e) { return e.pos < 0; });
  valid_ = negative == entries.end();
  entries.erase(negative, entries.end());
  // One entry per position: on duplicates the highest-value entry (the
  // first in list order) is kept and the rest are dropped, so sorted
  // access, the rank bitmap and Find all see the same value.
  std::sort(entries.begin(), entries.end(),
            [](const ScoredEntry& a, const ScoredEntry& b) {
              if (a.pos != b.pos) return a.pos < b.pos;
              return a.value > b.value;
            });
  std::vector<ListStore::Edit> edits;
  edits.reserve(entries.size());
  for (const ScoredEntry& e : entries) {
    if (edits.empty() || edits.back().pos != e.pos) {
      edits.push_back(ListStore::Edit{e.pos, true, e.value});
    }
  }
  std::vector<ScoredEntry> scratch;
  store_.AppendEdited(InvertedList(), edits.data(), edits.size(), &scratch);
  Bind();
}

InvertedIndex::InvertedIndex(const InvertedIndex& other)
    : InvertedList(), store_(other.store_), valid_(other.valid_) {
  Bind();
}

InvertedIndex& InvertedIndex::operator=(const InvertedIndex& other) {
  if (this != &other) {
    store_ = other.store_;
    valid_ = other.valid_;
    Bind();
  }
  return *this;
}

InvertedIndex::InvertedIndex(InvertedIndex&& other) noexcept
    : InvertedList(), store_(std::move(other.store_)), valid_(other.valid_) {
  Bind();
  other.Bind();
}

InvertedIndex& InvertedIndex::operator=(InvertedIndex&& other) noexcept {
  if (this != &other) {
    store_ = std::move(other.store_);
    valid_ = other.valid_;
    Bind();
    other.Bind();
  }
  return *this;
}

void InvertedIndex::Bind() {
  InvertedList& view = *this;
  view = store_.num_lists() == 0 ? InvertedList() : store_.list(0);
}

void InvertedIndex::Upsert(int32_t pos, double value) {
  if (pos < 0) {
    valid_ = false;
    return;
  }
  if (!SameBits(Find(pos), value)) Apply(ListStore::Edit{pos, true, value});
}

void InvertedIndex::Remove(int32_t pos) {
  if (Find(pos).has_value()) Apply(ListStore::Edit{pos, false, 0.0});
}

void InvertedIndex::Apply(const ListStore::Edit& edit) {
  std::vector<ScoredEntry> scratch;
  ListStore edited;
  edited.AppendEdited(*this, &edit, 1, &scratch);
  store_ = std::move(edited);
  Bind();
}

void IndexSet::OtherSizes(Dimension target, size_t* s1, size_t* s2) const {
  Dimension d1 = Dimension::kQuery;
  Dimension d2 = Dimension::kLocation;
  OtherDims(target, &d1, &d2);
  *s1 = sizes_[static_cast<size_t>(d1)];
  *s2 = sizes_[static_cast<size_t>(d2)];
}

IndexSet IndexSet::Build(const UnfairnessCube& cube) {
  IndexSet set;
  const size_t num_groups = cube.axis_size(Dimension::kGroup);
  const size_t num_queries = cube.axis_size(Dimension::kQuery);
  const size_t num_locations = cube.axis_size(Dimension::kLocation);
  set.sizes_[0] = num_groups;
  set.sizes_[1] = num_queries;
  set.sizes_[2] = num_locations;
  const size_t group_words = (num_groups + 63) / 64;

  // The cube's stored columns, by query then location and by location then
  // query; columns without a slot hold no cell and feed no list.
  // query_runs[q] .. query_runs[q + 1] are query q's columns in `stored`,
  // and location_runs likewise index `by_location`.
  struct StoredColumn {
    size_t q;
    size_t l;
    UnfairnessCube::Column cells;
  };
  std::vector<StoredColumn> stored;
  std::vector<size_t> query_runs(num_queries + 1, 0);
  std::vector<size_t> location_runs(num_locations + 1, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t l = 0; l < num_locations; ++l) {
      UnfairnessCube::Column cells = cube.column(q, l);
      if (!cells.stored()) continue;
      stored.push_back(StoredColumn{q, l, cells});
      ++location_runs[l + 1];
    }
    query_runs[q + 1] = stored.size();
  }
  for (size_t l = 0; l < num_locations; ++l) {
    location_runs[l + 1] += location_runs[l];
  }
  std::vector<const StoredColumn*> by_query(stored.size());
  std::vector<const StoredColumn*> by_location(stored.size());
  {
    std::vector<size_t> next(location_runs.begin(), location_runs.end() - 1);
    for (size_t i = 0; i < stored.size(); ++i) {
      by_query[i] = &stored[i];
      by_location[next[stored[i].l]++] = &stored[i];
    }
  }

  // A block from its cells bucketed by list: list i of the block holds
  // cells [begin[i], begin[i + 1]), in ascending position.
  auto make_block = [](const std::vector<size_t>& begin,
                       const std::vector<ListStore::Edit>& cells)
      -> std::shared_ptr<const Block> {
    if (cells.empty()) return nullptr;
    const size_t width = begin.size() - 1;
    auto block = std::make_shared<Block>();
    block->directory.resize((width + 63) / 64);
    size_t lists = 0;
    size_t words = 0;
    for (size_t i = 0; i < width; ++i) {
      if (begin[i] == begin[i + 1]) continue;
      ++lists;
      words += WordsFor(cells[begin[i + 1] - 1].pos);
    }
    block->lists.Reserve(lists, cells.size(), words);
    std::vector<ScoredEntry> scratch;
    for (size_t i = 0; i < width; ++i) {
      if (begin[i] == begin[i + 1]) continue;
      block->directory[i >> 6].bits |= uint64_t{1} << (i & 63);
      block->lists.AppendEdited(InvertedList(), cells.data() + begin[i],
                                begin[i + 1] - begin[i], &scratch);
    }
    RankWords(block->directory.data(),
              block->directory.data() + block->directory.size());
    return block;
  };

  // A block of a query or location family: the lists (g, ·) of every
  // group, from the block's columns in ascending position (the column's
  // location for location lists, its query for query lists), with the
  // cells bucketed by group.
  auto group_major_block = [&](const StoredColumn* const* first,
                               const StoredColumn* const* last,
                               bool pos_is_location) {
    std::vector<size_t> begin(num_groups + 1, 0);
    for (const StoredColumn* const* c = first; c != last; ++c) {
      ForEachPresent((*c)->cells, group_words,
                     [&](size_t g) { ++begin[g + 1]; });
    }
    for (size_t g = 0; g < num_groups; ++g) begin[g + 1] += begin[g];
    std::vector<ListStore::Edit> cells(begin[num_groups]);
    std::vector<size_t> next(begin.begin(), begin.end() - 1);
    for (const StoredColumn* const* c = first; c != last; ++c) {
      const int32_t pos = static_cast<int32_t>(pos_is_location ? (*c)->l
                                                               : (*c)->q);
      ForEachPresent((*c)->cells, group_words, [&](size_t g) {
        cells[next[g]++] = ListStore::Edit{pos, true, (*c)->cells.value(g)};
      });
    }
    return make_block(begin, cells);
  };

  // A block of the group family: the lists (q, l) of one query, one per
  // stored column, over the column's present groups.
  auto query_block = [&](size_t q) {
    std::vector<size_t> begin(num_locations + 1, 0);
    std::vector<ListStore::Edit> cells;
    for (size_t i = query_runs[q]; i < query_runs[q + 1]; ++i) {
      const UnfairnessCube::Column& column = stored[i].cells;
      ForEachPresent(column, group_words, [&](size_t g) {
        cells.push_back(
            ListStore::Edit{static_cast<int32_t>(g), true, column.value(g)});
      });
      begin[stored[i].l + 1] = cells.size();
    }
    for (size_t l = 0; l < num_locations; ++l) {
      begin[l + 1] = std::max(begin[l + 1], begin[l]);
    }
    return make_block(begin, cells);
  };

  Family& group_lists = set.family_[static_cast<size_t>(Dimension::kGroup)];
  Family& query_lists = set.family_[static_cast<size_t>(Dimension::kQuery)];
  Family& location_lists =
      set.family_[static_cast<size_t>(Dimension::kLocation)];
  group_lists.blocks.resize(num_queries);
  query_lists.blocks.resize(num_locations);
  query_lists.blocks_by_other2 = true;
  location_lists.blocks.resize(num_queries);
  location_lists.blocks_by_other2 = true;
  // One task per query (its group and location blocks) and one per
  // location (its query block); each task writes only its own blocks.
  ThreadPool& pool = ThreadPool::Shared();
  Status status = pool.ParallelFor(
      num_queries + num_locations, pool.num_threads() + 1, [&](size_t i) {
        if (i < num_queries) {
          group_lists.blocks[i] = query_block(i);
          location_lists.blocks[i] =
              group_major_block(by_query.data() + query_runs[i],
                                by_query.data() + query_runs[i + 1], true);
        } else {
          const size_t l = i - num_queries;
          query_lists.blocks[l] =
              group_major_block(by_location.data() + location_runs[l],
                                by_location.data() + location_runs[l + 1],
                                false);
        }
        return Status::OK();
      });
  // The task bodies cannot fail, so neither can the fan-out.
  assert(status.ok());
  (void)status;
  return set;
}

void IndexSet::RefreshColumns(const UnfairnessCube& cube,
                              const std::vector<CubeColumnRef>& columns,
                              size_t parallelism) {
  const size_t num_groups = sizes_[0];
  std::vector<std::pair<size_t, size_t>> touched;
  touched.reserve(columns.size());
  for (const CubeColumnRef& c : columns) {
    touched.emplace_back(c.query_pos, c.location_pos);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Each changed cell (g, q, l) edits three lists: the group list (q, l) at
  // g, in block q; the query list (g, l) at q, in block l; and the location
  // list (g, q) at l, in block q. The group list holds the old cells.
  struct Edit {
    size_t block;
    size_t within;
    ListStore::Edit edit;
  };
  std::vector<Edit> edits[3];
  for (const auto& [q, l] : touched) {
    const UnfairnessCube::Column cells = cube.column(q, l);
    const InvertedList old =
        family_[static_cast<size_t>(Dimension::kGroup)].at(q, l);
    for (size_t g = 0; g < num_groups; ++g) {
      const std::optional<double> now = cells.Get(g);
      if (SameBits(old.Find(static_cast<int32_t>(g)), now)) continue;
      const bool present = now.has_value();
      const double value = now.value_or(0.0);
      edits[0].push_back(
          Edit{q, l, ListStore::Edit{static_cast<int32_t>(g), present, value}});
      edits[1].push_back(
          Edit{l, g, ListStore::Edit{static_cast<int32_t>(q), present, value}});
      edits[2].push_back(
          Edit{q, g, ListStore::Edit{static_cast<int32_t>(l), present, value}});
    }
  }

  // Per family, every block with an edit is rewritten once: the runs of
  // its lists without an edit are copied whole, and each edited list is
  // merged with all of its edits. One task per block.
  struct Task {
    size_t family;
    size_t first;  // edits of the block: [first, last) of edits[family]
    size_t last;
  };
  std::vector<Task> tasks;
  for (size_t f = 0; f < 3; ++f) {
    std::vector<Edit>& family_edits = edits[f];
    std::sort(family_edits.begin(), family_edits.end(),
              [](const Edit& a, const Edit& b) {
                if (a.block != b.block) return a.block < b.block;
                if (a.within != b.within) return a.within < b.within;
                return a.edit.pos < b.edit.pos;
              });
    for (size_t i = 0; i < family_edits.size();) {
      size_t end = i;
      while (end < family_edits.size() &&
             family_edits[end].block == family_edits[i].block) {
        ++end;
      }
      tasks.push_back(Task{f, i, end});
      i = end;
    }
  }
  auto rewrite = [&](const Task& task) {
    Family& family = family_[task.family];
    const Edit* first = edits[task.family].data() + task.first;
    const Edit* last = edits[task.family].data() + task.last;
    // Lists per block: the size of the family's other non-block axis.
    size_t n1 = 0;
    size_t n2 = 0;
    OtherSizes(static_cast<Dimension>(task.family), &n1, &n2);
    const size_t width = family.blocks_by_other2 ? n1 : n2;
    const Block* old = family.blocks[first->block].get();
    auto block = std::make_shared<Block>();
    block->directory = old != nullptr
                           ? old->directory
                           : std::vector<RankWord>((width + 63) / 64);
    // Exact sizes: the old lists, less the edited ones, plus their edited
    // versions (words bounded by the largest position).
    size_t lists = old != nullptr ? old->lists.num_lists() : 0;
    size_t entries = old != nullptr ? old->lists.num_entries() : 0;
    size_t words = old != nullptr ? old->lists.num_words() : 0;
    std::vector<uint64_t> edited(block->directory.size(), 0);
    for (const Edit* e = first; e != last;) {
      const size_t within = e->within;
      const InvertedList prev =
          old != nullptr ? old->at(within) : InvertedList();
      if (block->directory[within >> 6].test(within)) {
        --lists;
        words -= (prev.dense_size() + 63) / 64;
      }
      ++lists;
      int64_t max_pos = static_cast<int64_t>(prev.dense_size()) - 1;
      for (; e != last && e->within == within; ++e) {
        if (prev.Find(e->edit.pos).has_value()) --entries;
        if (e->edit.present) ++entries;
        max_pos = std::max<int64_t>(max_pos, e->edit.pos);
      }
      words += WordsFor(max_pos);
      edited[within >> 6] |= uint64_t{1} << (within & 63);
    }
    block->lists.Reserve(lists, entries, words);

    std::vector<ScoredEntry> scratch;
    std::vector<ListStore::Edit> run;
    const Edit* e = first;  // the next edit
    size_t slot = 0;        // the next old slot, in position order
    size_t copied = 0;      // first old slot not yet copied
    for (size_t w = 0; w < block->directory.size(); ++w) {
      const uint64_t old_bits = block->directory[w].bits;
      block->directory[w].bits |= edited[w];
      if (edited[w] == 0) {
        slot += RankWord::PopCount(old_bits);
        continue;
      }
      for (uint64_t bits = old_bits | edited[w]; bits != 0; bits &= bits - 1) {
        const uint64_t bit = bits & (~bits + 1);
        if ((edited[w] & bit) == 0) {
          ++slot;
          continue;
        }
        if (old != nullptr) block->lists.Append(old->lists, copied, slot);
        const size_t within =
            64 * w + static_cast<size_t>(std::countr_zero(bit));
        const InvertedList prev =
            (old_bits & bit) != 0 ? old->lists.list(slot++) : InvertedList();
        copied = slot;
        run.clear();
        for (; e != last && e->within == within; ++e) run.push_back(e->edit);
        block->lists.AppendEdited(prev, run.data(), run.size(), &scratch);
      }
    }
    if (old != nullptr) block->lists.Append(old->lists, copied, slot);
    RankWords(block->directory.data(),
              block->directory.data() + block->directory.size());
    family.blocks[first->block] = std::move(block);
    return Status::OK();
  };
  // Tasks write distinct blocks; the rewrite cannot fail.
  Status status = ThreadPool::Shared().ParallelFor(
      tasks.size(), parallelism, [&](size_t i) { return rewrite(tasks[i]); });
  assert(status.ok());
  (void)status;
}

std::vector<InvertedList> IndexSet::ListsFor(
    Dimension target, const AxisSelector& other1,
    const AxisSelector& other2) const {
  size_t n1;
  size_t n2;
  OtherSizes(target, &n1, &n2);
  std::vector<size_t> p1s = ResolvePositions(other1, n1);
  std::vector<size_t> p2s = ResolvePositions(other2, n2);
  const Family& family = family_[static_cast<size_t>(target)];
  std::vector<InvertedList> lists;
  lists.reserve(p1s.size() * p2s.size());
  for (size_t p1 : p1s) {
    for (size_t p2 : p2s) lists.push_back(family.at(p1, p2));
  }
  return lists;
}

InvertedList IndexSet::ListAt(Dimension target, size_t other1_pos,
                              size_t other2_pos) const {
  return family_[static_cast<size_t>(target)].at(other1_pos, other2_pos);
}

}  // namespace fairjob
