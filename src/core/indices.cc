#include "core/indices.h"

#include <algorithm>
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

// The list every family hands out for an (other1, other2) pair that never
// held an entry.
const InvertedIndex& EmptyList() {
  static const InvertedIndex empty{std::vector<ScoredEntry>()};
  return empty;
}

// The sorted-access order: descending by value, ties by ascending position.
bool DescendingByValue(const ScoredEntry& a, const ScoredEntry& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.pos < b.pos;
}

}  // namespace

InvertedIndex::InvertedIndex(std::vector<ScoredEntry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(), DescendingByValue);
  int32_t max_pos = -1;
  for (const ScoredEntry& e : entries_) {
    assert(e.pos >= 0);
    max_pos = std::max(max_pos, e.pos);
  }
  words_.resize(static_cast<size_t>(int64_t{max_pos} + 64) / 64);
  // One entry per position: on duplicates the first (highest-value) entry
  // is kept and the rest are dropped, so sorted access, the rank bitmap and
  // Find all see the same value.
  size_t kept = 0;
  for (const ScoredEntry& e : entries_) {
    const size_t pos = static_cast<size_t>(e.pos);
    uint64_t& bits = words_[pos >> 6].bits;
    const uint64_t bit = uint64_t{1} << (pos & 63);
    if ((bits & bit) != 0) continue;
    bits |= bit;
    entries_[kept++] = e;
  }
  // Lists are long-lived: drop the growth slack of the caller's vector.
  entries_.resize(kept);
  entries_.shrink_to_fit();
  uint32_t below = 0;
  for (RankWord& word : words_) {
    word.below = below;
    below += static_cast<uint32_t>(PopCount(word.bits));
  }
  // Each kept entry goes to its rank: one scatter, no second sort.
  by_position_.resize(kept);
  for (const ScoredEntry& e : entries_) {
    by_position_[RankOf(static_cast<size_t>(e.pos))] = e.value;
  }
}

void InvertedIndex::Upsert(int32_t pos, double value) {
  assert(pos >= 0);
  std::optional<double> existing = Find(pos);
  if (existing.has_value()) {
    if (*existing == value) return;
    Remove(pos);
  }
  const size_t p = static_cast<size_t>(pos);
  const size_t w = p >> 6;
  if (w >= words_.size()) {
    words_.resize(w + 1,
                  RankWord{0, static_cast<uint32_t>(by_position_.size())});
  }
  const auto rank = static_cast<std::ptrdiff_t>(RankOf(p));
  words_[w].bits |= uint64_t{1} << (p & 63);
  for (size_t i = w + 1; i < words_.size(); ++i) ++words_[i].below;
  by_position_.insert(by_position_.begin() + rank, value);
  ScoredEntry entry{pos, value};
  entries_.insert(std::lower_bound(entries_.begin(), entries_.end(), entry,
                                   DescendingByValue),
                  entry);
}

void InvertedIndex::Remove(int32_t pos) {
  if (!Find(pos).has_value()) return;
  const size_t p = static_cast<size_t>(pos);
  const size_t w = p >> 6;
  by_position_.erase(by_position_.begin() +
                     static_cast<std::ptrdiff_t>(RankOf(p)));
  words_[w].bits &= ~(uint64_t{1} << (p & 63));
  for (size_t i = w + 1; i < words_.size(); ++i) --words_[i].below;
  while (!words_.empty() && words_.back().bits == 0) words_.pop_back();
  for (auto entry = entries_.begin(); entry != entries_.end(); ++entry) {
    if (entry->pos == pos) {
      entries_.erase(entry);
      return;
    }
  }
}

const InvertedIndex& IndexSet::Family::at(size_t i) const {
  const uint32_t slot = slot_of_[i];
  return slot == kNoSlot ? EmptyList() : lists_[slot];
}

InvertedIndex* IndexSet::Family::Find(size_t i) {
  const uint32_t slot = slot_of_[i];
  return slot == kNoSlot ? nullptr : &lists_[slot];
}

InvertedIndex& IndexSet::Family::Get(size_t i) {
  if (slot_of_[i] == kNoSlot) {
    assert(lists_.size() < kNoSlot);
    slot_of_[i] = static_cast<uint32_t>(lists_.size());
    lists_.push_back(EmptyList());
  }
  return lists_[slot_of_[i]];
}

IndexSet::Family::Family(size_t num_lists, size_t num_slots)
    : slot_of_(num_lists, kNoSlot), lists_(num_slots, EmptyList()) {
  assert(num_slots < kNoSlot);
}

InvertedIndex& IndexSet::Family::Place(size_t i, size_t slot) {
  slot_of_[i] = static_cast<uint32_t>(slot);
  return lists_[slot];
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

  // The cube's stored columns in (q, l) order; columns without a slot hold
  // no cell and feed no list.
  struct StoredColumn {
    size_t q;
    size_t l;
    UnfairnessCube::Column cells;
  };
  std::vector<StoredColumn> stored;
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t l = 0; l < num_locations; ++l) {
      UnfairnessCube::Column cells = cube.column(q, l);
      if (cells.stored()) stored.push_back(StoredColumn{q, l, cells});
    }
  }

  // Every list is fed its entries in ascending target position, and the
  // InvertedIndex sort is a total order on distinct positions, so the lists
  // are the ones a per-list scan of the cube would build. Lists are counted
  // before they are built, so each family makes its slots once and each
  // task fills only the slots and lists of its own g (sweep 1) or column
  // (sweep 2).
  ThreadPool& pool = ThreadPool::Shared();
  const size_t parallelism = pool.num_threads() + 1;
  // Counting pass, one task per group: g's location lists (g, q) are the
  // runs of stored columns with one q holding a cell of g; its query lists
  // (g, l) are the locations with such a column.
  std::vector<size_t> location_slot(num_groups + 1, 0);
  std::vector<size_t> query_slot(num_groups + 1, 0);
  Status status = pool.ParallelFor(num_groups, parallelism, [&](size_t g) {
    std::vector<uint8_t> has_location(num_locations, 0);
    size_t last_q = SIZE_MAX;
    for (const StoredColumn& c : stored) {
      if (!c.cells.present(g)) continue;
      location_slot[g + 1] += c.q != last_q;
      last_q = c.q;
      has_location[c.l] = 1;
    }
    for (uint8_t has : has_location) query_slot[g + 1] += has;
    return Status::OK();
  });
  for (size_t g = 0; g < num_groups; ++g) {
    location_slot[g + 1] += location_slot[g];
    query_slot[g + 1] += query_slot[g];
  }
  Family& group_lists = set.family_[static_cast<size_t>(Dimension::kGroup)];
  Family& query_lists = set.family_[static_cast<size_t>(Dimension::kQuery)];
  Family& location_lists =
      set.family_[static_cast<size_t>(Dimension::kLocation)];
  group_lists = Family(num_queries * num_locations, stored.size());
  query_lists = Family(num_groups * num_locations, query_slot[num_groups]);
  location_lists =
      Family(num_groups * num_queries, location_slot[num_groups]);

  // Sweep 1, one task per group: walk the stored columns once. The run of
  // columns with one q is the location list (g, q); bucketing it by l
  // builds the query lists (g, l).
  if (status.ok()) {
    status = pool.ParallelFor(num_groups, parallelism, [&](size_t g) {
      std::vector<std::vector<ScoredEntry>> by_location(num_locations);
      size_t slot = location_slot[g];
      for (size_t i = 0; i < stored.size();) {
        const size_t q = stored[i].q;
        std::vector<ScoredEntry> row;
        for (; i < stored.size() && stored[i].q == q; ++i) {
          const StoredColumn& c = stored[i];
          if (!c.cells.present(g)) continue;
          double v = c.cells.value(g);
          row.push_back(ScoredEntry{static_cast<int32_t>(c.l), v});
          by_location[c.l].push_back(ScoredEntry{static_cast<int32_t>(q), v});
        }
        if (!row.empty()) {
          location_lists.Place(g * num_queries + q, slot++) =
              InvertedIndex(std::move(row));
        }
      }
      slot = query_slot[g];
      for (size_t l = 0; l < num_locations; ++l) {
        if (by_location[l].empty()) continue;
        query_lists.Place(g * num_locations + l, slot++) =
            InvertedIndex(std::move(by_location[l]));
      }
      return Status::OK();
    });
  }
  // Sweep 2, one task per stored column: its present cells, by ascending g,
  // are the group list (q, l).
  if (status.ok()) {
    status = pool.ParallelFor(stored.size(), parallelism, [&](size_t i) {
      const StoredColumn& c = stored[i];
      std::vector<ScoredEntry> entries;
      for (size_t g = 0; g < num_groups; ++g) {
        if (c.cells.present(g)) {
          entries.push_back(
              ScoredEntry{static_cast<int32_t>(g), c.cells.value(g)});
        }
      }
      group_lists.Place(c.q * num_locations + c.l, i) =
          InvertedIndex(std::move(entries));
      return Status::OK();
    });
  }
  // The sweep bodies cannot fail, so neither can the fan-out.
  assert(status.ok());
  (void)status;
  return set;
}

void IndexSet::RefreshColumn(const UnfairnessCube& cube, size_t query_pos,
                             size_t location_pos) {
  size_t num_groups = sizes_[0];
  size_t num_queries = sizes_[1];
  size_t num_locations = sizes_[2];

  // Group-based family: the list for (query_pos, location_pos), rebuilt.
  {
    std::vector<ScoredEntry> entries;
    for (size_t g = 0; g < num_groups; ++g) {
      std::optional<double> v = cube.Get(g, query_pos, location_pos);
      if (v.has_value()) {
        entries.push_back(ScoredEntry{static_cast<int32_t>(g), *v});
      }
    }
    Family& group_lists = family_[static_cast<size_t>(Dimension::kGroup)];
    const size_t list = query_pos * num_locations + location_pos;
    if (!entries.empty() || group_lists.Find(list) != nullptr) {
      group_lists.Get(list) = InvertedIndex(std::move(entries));
    }
  }

  // Query-based family: per group, the (g, location_pos) list's entry for
  // query_pos. Location-based family: per group, the (g, query_pos) list's
  // entry for location_pos.
  Family& query_lists = family_[static_cast<size_t>(Dimension::kQuery)];
  Family& location_lists = family_[static_cast<size_t>(Dimension::kLocation)];
  for (size_t g = 0; g < num_groups; ++g) {
    std::optional<double> v = cube.Get(g, query_pos, location_pos);
    const size_t query_list = g * num_locations + location_pos;
    const size_t location_list = g * num_queries + query_pos;
    if (v.has_value()) {
      query_lists.Get(query_list).Upsert(static_cast<int32_t>(query_pos), *v);
      location_lists.Get(location_list)
          .Upsert(static_cast<int32_t>(location_pos), *v);
      continue;
    }
    if (InvertedIndex* list = query_lists.Find(query_list)) {
      list->Remove(static_cast<int32_t>(query_pos));
    }
    if (InvertedIndex* list = location_lists.Find(location_list)) {
      list->Remove(static_cast<int32_t>(location_pos));
    }
  }
}

std::vector<const InvertedIndex*> IndexSet::ListsFor(
    Dimension target, const AxisSelector& other1,
    const AxisSelector& other2) const {
  size_t n1;
  size_t n2;
  OtherSizes(target, &n1, &n2);
  std::vector<size_t> p1s = ResolvePositions(other1, n1);
  std::vector<size_t> p2s = ResolvePositions(other2, n2);
  const Family& family = family_[static_cast<size_t>(target)];
  std::vector<const InvertedIndex*> lists;
  lists.reserve(p1s.size() * p2s.size());
  for (size_t p1 : p1s) {
    for (size_t p2 : p2s) {
      lists.push_back(&family.at(p1 * n2 + p2));
    }
  }
  return lists;
}

const InvertedIndex& IndexSet::ListAt(Dimension target, size_t other1_pos,
                                      size_t other2_pos) const {
  size_t n1;
  size_t n2;
  OtherSizes(target, &n1, &n2);
  (void)n1;
  return family_[static_cast<size_t>(target)].at(other1_pos * n2 + other2_pos);
}

}  // namespace fairjob
