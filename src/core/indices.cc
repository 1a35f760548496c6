#include "core/indices.h"

#include <algorithm>
#include <cassert>

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

}  // namespace

InvertedIndex::InvertedIndex(std::vector<ScoredEntry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ScoredEntry& a, const ScoredEntry& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.pos < b.pos;
            });
  int32_t max_pos = -1;
  for (const ScoredEntry& e : entries_) max_pos = std::max(max_pos, e.pos);
  values_.assign(static_cast<size_t>(max_pos + 1), 0.0);
  present_.assign(static_cast<size_t>(max_pos + 1), 0);
  // One entry per position: on duplicates the first (highest-value) entry
  // is kept and the rest are dropped, so sorted access, the dense column and
  // Find all see the same value.
  size_t kept = 0;
  for (const ScoredEntry& e : entries_) {
    size_t pos = static_cast<size_t>(e.pos);
    if (present_[pos] != 0) continue;
    present_[pos] = 1;
    values_[pos] = e.value;
    entries_[kept++] = e;
  }
  entries_.resize(kept);
}

void InvertedIndex::Upsert(int32_t pos, double value) {
  std::optional<double> existing = Find(pos);
  if (existing.has_value()) {
    if (*existing == value) return;
    Remove(pos);
  }
  if (static_cast<size_t>(pos) >= values_.size()) {
    values_.resize(static_cast<size_t>(pos) + 1, 0.0);
    present_.resize(static_cast<size_t>(pos) + 1, 0);
  }
  values_[static_cast<size_t>(pos)] = value;
  present_[static_cast<size_t>(pos)] = 1;
  ScoredEntry entry{pos, value};
  auto insert_at = std::lower_bound(
      entries_.begin(), entries_.end(), entry,
      [](const ScoredEntry& a, const ScoredEntry& b) {
        if (a.value != b.value) return a.value > b.value;
        return a.pos < b.pos;
      });
  entries_.insert(insert_at, entry);
}

void InvertedIndex::Remove(int32_t pos) {
  if (pos < 0 || static_cast<size_t>(pos) >= present_.size() ||
      present_[static_cast<size_t>(pos)] == 0) {
    return;
  }
  present_[static_cast<size_t>(pos)] = 0;
  values_[static_cast<size_t>(pos)] = 0.0;
  for (auto entry = entries_.begin(); entry != entries_.end(); ++entry) {
    if (entry->pos == pos) {
      entries_.erase(entry);
      return;
    }
  }
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
  const InvertedIndex empty{std::vector<ScoredEntry>()};
  auto& group_lists = set.family_[static_cast<size_t>(Dimension::kGroup)];
  auto& query_lists = set.family_[static_cast<size_t>(Dimension::kQuery)];
  auto& location_lists =
      set.family_[static_cast<size_t>(Dimension::kLocation)];
  group_lists.assign(num_queries * num_locations, empty);
  query_lists.assign(num_groups * num_locations, empty);
  location_lists.assign(num_groups * num_queries, empty);

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
  // are the ones a per-list scan of the cube would build. Each task writes
  // only the lists of its own g (first sweep) or column (second sweep).
  ThreadPool& pool = ThreadPool::Shared();
  const size_t parallelism = pool.num_threads() + 1;
  // Sweep 1, one task per group: walk the stored columns once. The run of
  // columns with one q is the location list (g, q); bucketing it by l
  // builds the query lists (g, l).
  Status status = pool.ParallelFor(num_groups, parallelism, [&](size_t g) {
    std::vector<std::vector<ScoredEntry>> by_location(num_locations);
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
        location_lists[g * num_queries + q] = InvertedIndex(std::move(row));
      }
    }
    for (size_t l = 0; l < num_locations; ++l) {
      if (by_location[l].empty()) continue;
      query_lists[g * num_locations + l] =
          InvertedIndex(std::move(by_location[l]));
    }
    return Status::OK();
  });
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
      group_lists[c.q * num_locations + c.l] =
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
    family_[static_cast<size_t>(Dimension::kGroup)]
           [query_pos * num_locations + location_pos] =
               InvertedIndex(std::move(entries));
  }

  // Query-based family: per group, the (g, location_pos) list's entry for
  // query_pos. Location-based family: per group, the (g, query_pos) list's
  // entry for location_pos.
  for (size_t g = 0; g < num_groups; ++g) {
    std::optional<double> v = cube.Get(g, query_pos, location_pos);
    InvertedIndex& query_list =
        family_[static_cast<size_t>(Dimension::kQuery)]
               [g * num_locations + location_pos];
    InvertedIndex& location_list =
        family_[static_cast<size_t>(Dimension::kLocation)]
               [g * num_queries + query_pos];
    if (v.has_value()) {
      query_list.Upsert(static_cast<int32_t>(query_pos), *v);
      location_list.Upsert(static_cast<int32_t>(location_pos), *v);
    } else {
      query_list.Remove(static_cast<int32_t>(query_pos));
      location_list.Remove(static_cast<int32_t>(location_pos));
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
  const auto& family = family_[static_cast<size_t>(target)];
  std::vector<const InvertedIndex*> lists;
  lists.reserve(p1s.size() * p2s.size());
  for (size_t p1 : p1s) {
    for (size_t p2 : p2s) {
      lists.push_back(&family[p1 * n2 + p2]);
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
  return family_[static_cast<size_t>(target)][other1_pos * n2 + other2_pos];
}

}  // namespace fairjob
