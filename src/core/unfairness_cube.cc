#include "core/unfairness_cube.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/marketplace_batch.h"
#include "ranking/jaccard.h"
#include "ranking/list_batch.h"

namespace fairjob {
namespace {

Status ValidateAxis(const std::vector<int32_t>& ids, const char* name) {
  if (ids.empty()) {
    return Status::InvalidArgument(std::string("cube axis '") + name +
                                   "' is empty");
  }
  std::unordered_set<int32_t> seen;
  for (int32_t id : ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument(std::string("cube axis '") + name +
                                     "' repeats id " + std::to_string(id));
    }
  }
  return Status::OK();
}

// Slot ids are 32-bit with one value reserved for "no slot".
constexpr size_t kMaxColumns = UINT32_MAX;
constexpr size_t kChunkBytes = size_t{64} << 10;

std::vector<int32_t> DefaultIds(size_t n) {
  std::vector<int32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int32_t>(i);
  return ids;
}

// Iteration order for a selector: its positions, or 0..size-1 when "all".
std::vector<size_t> ResolvePositions(const AxisSelector& sel, size_t size) {
  if (!sel.all()) return sel.positions;
  std::vector<size_t> all(size);
  for (size_t i = 0; i < size; ++i) all[i] = i;
  return all;
}

}  // namespace

const char* DimensionName(Dimension d) {
  switch (d) {
    case Dimension::kGroup:
      return "group";
    case Dimension::kQuery:
      return "query";
    case Dimension::kLocation:
      return "location";
  }
  return "?";
}

Result<UnfairnessCube> UnfairnessCube::Make(std::vector<GroupId> groups,
                                            std::vector<QueryId> queries,
                                            std::vector<LocationId> locations) {
  FAIRJOB_RETURN_IF_ERROR(ValidateAxis(groups, "group"));
  FAIRJOB_RETURN_IF_ERROR(ValidateAxis(queries, "query"));
  FAIRJOB_RETURN_IF_ERROR(ValidateAxis(locations, "location"));
  if (queries.size() > kMaxColumns / locations.size()) {
    return Status::InvalidArgument(
        "cube has more (query, location) columns than a 32-bit slot table "
        "can address");
  }
  UnfairnessCube cube;
  cube.ids_[0] = std::move(groups);
  cube.ids_[1] = std::move(queries);
  cube.ids_[2] = std::move(locations);
  for (size_t axis = 0; axis < 3; ++axis) {
    cube.pos_of_[axis].reserve(cube.ids_[axis].size());
    for (size_t i = 0; i < cube.ids_[axis].size(); ++i) {
      cube.pos_of_[axis].emplace(cube.ids_[axis][i], i);
    }
  }
  size_t num_columns = cube.ids_[1].size() * cube.ids_[2].size();
  cube.store_ = ColumnStore(cube.ids_[0].size(), num_columns);
  cube.epochs_.assign(num_columns, 0);
  return cube;
}

UnfairnessCube::ColumnStore::ColumnStore(size_t num_groups,
                                         size_t num_columns)
    : words_((num_groups + 63) / 64),
      block_words_(words_ + num_groups),
      slot_of_(num_columns, kNoSlot),
      ownership_(std::make_unique<Ownership>()) {
  // Chunks of about 64 KiB: a power-of-two slot count, so a slot id splits
  // into chunk and offset by shift and mask, and no more slots than the
  // cube has columns.
  size_t slots_per_chunk = std::bit_floor(
      std::max<size_t>(1, kChunkBytes / (8 * block_words_)));
  slots_per_chunk = std::min(slots_per_chunk, std::bit_ceil(num_columns));
  chunk_shift_ = static_cast<size_t>(std::countr_zero(slots_per_chunk));
  chunks_.resize((num_columns + slots_per_chunk - 1) / slots_per_chunk);
  owned_at_.assign(chunks_.size(), 0);
}

UnfairnessCube::ColumnStore::ColumnStore(const ColumnStore& other)
    : words_(other.words_),
      block_words_(other.block_words_),
      chunk_shift_(other.chunk_shift_),
      num_slots_(other.num_slots_),
      slot_of_(other.slot_of_),
      chunks_(other.chunks_),
      owned_at_(other.owned_at_.size(), 0),
      ownership_(std::make_unique<Ownership>()) {
  // Every chunk is now shared: neither store may write one in place.
  if (other.ownership_ != nullptr) {
    other.ownership_->generation.fetch_add(1, std::memory_order_relaxed);
  }
}

UnfairnessCube::ColumnStore& UnfairnessCube::ColumnStore::operator=(
    const ColumnStore& other) {
  if (this != &other) *this = ColumnStore(other);
  return *this;
}

uint64_t* UnfairnessCube::ColumnStore::MutableBlock(size_t column) {
  uint32_t slot = slot_of_[column];
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(num_slots_++);
    slot_of_[column] = slot;
  }
  const size_t c = slot >> chunk_shift_;
  const uint64_t generation =
      ownership_->generation.load(std::memory_order_relaxed);
  if (owned_at_[c] != generation) {
    const size_t chunk_words = block_words_ << chunk_shift_;
    std::shared_ptr<uint64_t[]> own;
    if (chunks_[c] == nullptr) {
      own = std::make_shared<uint64_t[]>(chunk_words);
    } else {
      own = std::make_shared_for_overwrite<uint64_t[]>(chunk_words);
      std::copy_n(chunks_[c].get(), chunk_words, own.get());
    }
    chunks_[c] = std::move(own);
    owned_at_[c] = generation;
  }
  return BlockAt(slot);
}

uint64_t* UnfairnessCube::ColumnStore::LockedMutableBlock(size_t column) {
  std::lock_guard<std::mutex> lock(ownership_->mutex);
  return MutableBlock(column);
}

size_t UnfairnessCube::ColumnStore::num_present() const {
  size_t n = 0;
  for (size_t slot = 0; slot < num_slots_; ++slot) {
    const uint64_t* block = BlockAt(slot);
    for (size_t w = 0; w < words_; ++w) {
      n += static_cast<size_t>(std::popcount(block[w]));
    }
  }
  return n;
}

Result<size_t> UnfairnessCube::PosOf(Dimension d, int32_t id) const {
  const std::unordered_map<int32_t, size_t>& index = pos_of_[AxisIndex(d)];
  auto it = index.find(id);
  if (it != index.end()) return it->second;
  return Status::NotFound(std::string("id ") + std::to_string(id) +
                          " not on cube axis '" + DimensionName(d) + "'");
}

size_t UnfairnessCube::num_present() const { return store_.num_present(); }

void UnfairnessCube::SetColumn(size_t q, size_t l,
                               const std::optional<double>* values,
                               size_t n) {
  assert(n == ids_[0].size());
  size_t column = ColumnOffset(q, l);
  // Only this call writes the column's table entry, so reading it without
  // the store's mutex is safe.
  if (!store_.HasSlot(column)) {
    bool any = false;
    for (size_t g = 0; g < n && !any; ++g) any = values[g].has_value();
    if (!any) return;
  }
  uint64_t* block = store_.LockedMutableBlock(column);
  size_t words = store_.words();
  std::fill_n(block, words, uint64_t{0});
  for (size_t g = 0; g < n; ++g) {
    if (values[g].has_value()) {
      block[g >> 6] |= uint64_t{1} << (g & 63);
      block[words + g] = std::bit_cast<uint64_t>(*values[g]);
    } else {
      block[words + g] = 0;
    }
  }
}

std::optional<double> UnfairnessCube::Average(
    const AxisSelector& groups, const AxisSelector& queries,
    const AxisSelector& locations) const {
  std::vector<size_t> gs = ResolvePositions(groups, ids_[0].size());
  std::vector<size_t> qs = ResolvePositions(queries, ids_[1].size());
  std::vector<size_t> ls = ResolvePositions(locations, ids_[2].size());
  // The selected columns that have a slot, in (q, l) selection order. The
  // sum still runs g, then q, then l, and a column without a slot adds no
  // cell, so every average keeps its bits.
  std::vector<Column> columns;
  for (size_t q : qs) {
    for (size_t l : ls) {
      Column c = column(q, l);
      if (c.stored()) columns.push_back(c);
    }
  }
  double sum = 0.0;
  size_t count = 0;
  for (size_t g : gs) {
    for (const Column& c : columns) {
      if (c.present(g)) {
        sum += c.value(g);
        ++count;
      }
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

std::optional<double> UnfairnessCube::AxisAverage(Dimension d,
                                                  size_t pos) const {
  AxisSelector fixed = AxisSelector::Single(pos);
  switch (d) {
    case Dimension::kGroup:
      return Average(fixed, AxisSelector::All(), AxisSelector::All());
    case Dimension::kQuery:
      return Average(AxisSelector::All(), fixed, AxisSelector::All());
    case Dimension::kLocation:
      return Average(AxisSelector::All(), AxisSelector::All(), fixed);
  }
  return std::nullopt;
}

namespace {

// Runs fn(i) for every i in [0, n) on up to `parallelism` threads of the
// process-wide pool; serial calls never touch (or create) the pool. The
// first non-OK status wins and stops remaining work; fn must only touch
// disjoint state per index.
Status ParallelFor(size_t n, size_t parallelism,
                   const std::function<Status(size_t)>& fn) {
  if (parallelism <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      FAIRJOB_RETURN_IF_ERROR(fn(i));
    }
    return Status::OK();
  }
  return ThreadPool::Shared().ParallelFor(n, parallelism, fn);
}

// The one place every builder's axes pass through, so a group id outside
// the space never reaches the column evaluators' per-group tables.
Result<CubeAxes> ResolveAxes(const CubeAxes& axes, size_t num_groups,
                             size_t num_queries, size_t num_locations) {
  if (num_queries == 0 || num_locations == 0) {
    return Status::InvalidArgument(
        "dataset has no queries or no locations to build a cube over");
  }
  for (GroupId g : axes.groups) {
    if (g < 0 || static_cast<size_t>(g) >= num_groups) {
      return Status::InvalidArgument("cube group id " + std::to_string(g) +
                                     " is outside the group space");
    }
  }
  CubeAxes out = axes;
  if (out.groups.empty()) out.groups = DefaultIds(num_groups);
  if (out.queries.empty()) out.queries = DefaultIds(num_queries);
  if (out.locations.empty()) out.locations = DefaultIds(num_locations);
  return out;
}

// Evaluates one marketplace (query, location) column over `groups` into
// `out` (nullopt = undefined triple) via the batched engine
// (core/marketplace_batch.h): the hoisted membership table turns per-cell
// label matching into bitmap probes, and one MarketplaceCellBatch is shared
// across the whole group axis. Semantics are bitwise-identical to calling
// MarketplaceUnfairness per triple (cross-checked in
// tests/marketplace_batch_test.cc and enforced by bench_cube_build). `out`
// must be pre-sized to groups.size().
Status EvaluateMarketplaceColumn(const MarketplaceDataset& data,
                                 const GroupSpace& space,
                                 const MarketplaceGroupMembership& membership,
                                 MarketMeasure measure,
                                 const MeasureOptions& options, QueryId q,
                                 LocationId l,
                                 const std::vector<GroupId>& groups,
                                 std::vector<std::optional<double>>* out) {
  // Per-phase observability: batch construction (membership sweeps,
  // histogram scatter, bias/relevance sums) versus per-group evaluation.
  // cube.market.cell_context_us keeps its name across the engine swap so
  // dashboards show the construction phase continuously.
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static LatencyHistogram* const column_us =
      metrics.histogram("cube.market.column_us");
  static LatencyHistogram* const context_us =
      metrics.histogram("cube.market.cell_context_us");
  static LatencyHistogram* const group_eval_us =
      metrics.histogram("cube.market.group_eval_us");
  static Counter* const cells_present =
      metrics.counter("cube.market.cells_present");
  static Counter* const cells_missing =
      metrics.counter("cube.market.cells_missing");
  ScopedTimer column_timer(column_us);
  TraceSpan span("market_column", "cube");

  Result<MarketplaceCellBatch> batch = [&] {
    ScopedTimer context_timer(context_us);
    return MarketplaceCellBatch::Make(space, membership, data.GetRanking(q, l),
                                      measure, options);
  }();
  if (!batch.ok()) {
    if (batch.status().code() == StatusCode::kNotFound) {
      for (auto& cell : *out) cell.reset();
      cells_missing->Add(out->size());
      return Status::OK();
    }
    return batch.status();
  }
  ScopedTimer group_timer(group_eval_us);
  for (size_t g = 0; g < groups.size(); ++g) {
    Result<double> v = batch->Unfairness(groups[g]);
    if (v.ok()) {
      (*out)[g] = *v;
    } else if (v.status().code() == StatusCode::kNotFound) {
      (*out)[g].reset();
    } else {
      return v.status();
    }
  }
  size_t present = 0;
  for (const auto& cell : *out) present += cell.has_value() ? 1 : 0;
  cells_present->Add(present);
  cells_missing->Add(out->size() - present);
  return Status::OK();
}

// Per-user group membership, hoisted across (query, location) columns:
// whether a user matches a group label depends only on demographics, so the
// O(G · users) label matching is done once per build instead of once per
// column (observation *indices* still differ per column and are derived
// from this table with flat probes).
class SearchGroupMembership {
 public:
  SearchGroupMembership(const SearchDataset& data, const GroupSpace& space)
      : num_users_(data.num_users()) {
    size_t num_groups = space.num_groups();
    member_.assign(num_groups * num_users_, 0);
    for (size_t g = 0; g < num_groups; ++g) {
      const GroupLabel& label = space.label(static_cast<GroupId>(g));
      for (size_t u = 0; u < num_users_; ++u) {
        if (label.Matches(data.user_demographics(static_cast<UserId>(u)))) {
          member_[g * num_users_ + u] = 1;
        }
      }
    }
  }

  bool Matches(GroupId g, UserId u) const {
    return member_[static_cast<size_t>(g) * num_users_ +
                   static_cast<size_t>(u)] != 0;
  }

 private:
  size_t num_users_;
  std::vector<uint8_t> member_;
};

// Search-side twin: evaluates one (query, location) column over `groups`
// into `out`, filling the pairwise list-distance matrix once per cell via
// the batched engine (ranking/list_batch.h) — lists interned once, pair
// kernels allocation-free — and reusing it across the whole group axis.
// Lists with identical contents share an arena slot, so the matrix is kept
// over distinct slots: list pair (i, j), i < j, reads slot pair
// (slot(i), slot(j)), and each distinct ordered slot pair is evaluated once.
// Ordered pairs keep every measure's orientation exactly as a per-list-pair
// evaluation would see it. With `parallelism` > 1 the slot rows are
// computed on the pool, so a few large cells no longer serialize a build.
// Semantics are identical to calling SearchUnfairness per triple — bitwise,
// not approximately (cross-checked in tests/list_batch_test.cc and
// bench_measures_perf --batch_compare).
Status EvaluateSearchColumn(const SearchDataset& data, const GroupSpace& space,
                            const SearchGroupMembership& membership,
                            SearchMeasure measure,
                            const MeasureOptions& options, QueryId query,
                            LocationId location,
                            const std::vector<GroupId>& groups,
                            std::vector<std::optional<double>>* out,
                            size_t parallelism) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static LatencyHistogram* const column_us =
      metrics.histogram("cube.search.column_us");
  static LatencyHistogram* const matrix_us =
      metrics.histogram("cube.search.distance_matrix_us");
  static LatencyHistogram* const group_eval_us =
      metrics.histogram("cube.search.group_eval_us");
  static Counter* const cells_present =
      metrics.counter("cube.search.cells_present");
  static Counter* const cells_missing =
      metrics.counter("cube.search.cells_missing");
  static Counter* const triangle_entries =
      metrics.counter("cube.search.batch.triangle_entries");
  static Counter* const colsum_vectors =
      metrics.counter("cube.search.batch.colsum_vectors");
  // The batch path still feeds the per-measure invocation counters (one
  // bulk Add per cell); per-pair latency sampling is intentionally absent —
  // cube.search.distance_matrix_us covers the whole phase.
  static Counter* const measure_invocations[4] = {
      metrics.counter("measure.kendall_tau.invocations"),
      metrics.counter("measure.jaccard.invocations"),
      metrics.counter("measure.footrule.invocations"),
      metrics.counter("measure.rbo.invocations")};
  ScopedTimer column_timer(column_us);
  TraceSpan span("search_column", "cube");

  for (auto& cell : *out) cell.reset();
  const std::vector<SearchObservation>* obs =
      data.GetObservations(query, location);
  if (obs == nullptr || obs->empty()) {
    cells_missing->Add(out->size());
    return Status::OK();
  }
  size_t n = obs->size();
  if (n == 1) {
    // No pairs: a lone user cannot match both a group and one of its
    // comparables, so every cell of the column is undefined.
    cells_missing->Add(out->size());
    return Status::OK();
  }

  std::vector<const RankedList*> lists;
  lists.reserve(n);
  for (const SearchObservation& o : *obs) lists.push_back(&o.results);
  FAIRJOB_ASSIGN_OR_RETURN(ListDistanceBatch batch,
                           ListDistanceBatch::Make(lists));

  // Slot s first appears at list first[s] and last at last[s]. Slots are
  // numbered by first appearance, so list pairs i < j reach ordered slot
  // pair (s, t) iff first[s] < last[t]: always for s < t, for s == t only
  // when the slot recurs, and for s > t only when t recurs after s first
  // appears. Only those pairs are evaluated; each row of the S × S slot
  // matrix is written by one pool task, reusing one Scratch.
  size_t num_slots = batch.stats().unique_lists;
  std::vector<size_t> first(num_slots, n);
  std::vector<size_t> last(num_slots, 0);
  for (size_t i = 0; i < n; ++i) {
    size_t s = batch.slot(i);
    first[s] = std::min(first[s], i);
    last[s] = i;
  }
  size_t num_pairs = n * (n - 1) / 2;
  std::vector<double> slot_dist(num_slots * num_slots, 0.0);
  Status dist_status = [&] {
    ScopedTimer matrix_timer(matrix_us);
    TraceSpan matrix_span("distance_matrix", "cube");
    return ParallelFor(num_slots, parallelism, [&](size_t s) -> Status {
      ListDistanceBatch::Scratch scratch;
      size_t i = first[s];
      for (size_t t = 0; t < num_slots; ++t) {
        if (i >= last[t]) continue;
        size_t j = first[t];
        Result<double> d = [&]() -> Result<double> {
          switch (measure) {
            case SearchMeasure::kKendallTau:
              return batch.KendallTauTopK(i, j, options.kendall_penalty,
                                          &scratch);
            case SearchMeasure::kJaccard:
              return batch.Jaccard(i, j);
            case SearchMeasure::kFootrule:
              return batch.FootruleTopK(i, j);
            case SearchMeasure::kRbo:
              return batch.Rbo(i, j, options.rbo_persistence);
          }
          return Status::InvalidArgument("unknown search measure");
        }();
        if (!d.ok()) return d.status();
        slot_dist[s * num_slots + t] = *d;
      }
      return Status::OK();
    });
  }();
  FAIRJOB_RETURN_IF_ERROR(dist_status);
  size_t measure_index = static_cast<size_t>(measure);
  if (measure_index < 4) measure_invocations[measure_index]->Add(num_pairs);
  triangle_entries->Add(num_pairs);
  ScopedTimer group_timer(group_eval_us);

  auto dist_at = [&](size_t x, size_t y) -> double {
    if (x == y) return 0.0;
    if (x > y) std::swap(x, y);
    return slot_dist[batch.slot(x) * num_slots + batch.slot(y)];
  };

  // Observation indices per group (lazy; flat membership probes, no label
  // matching) for every group appearing as a cube row or as a comparable.
  size_t num_groups = space.num_groups();
  std::vector<std::vector<size_t>> members(num_groups);
  std::vector<uint8_t> members_done(num_groups, 0);
  auto members_of = [&](GroupId group) -> const std::vector<size_t>& {
    size_t gi = static_cast<size_t>(group);
    if (!members_done[gi]) {
      members_done[gi] = 1;
      for (size_t i = 0; i < n; ++i) {
        if (membership.Matches(group, (*obs)[i].user)) {
          members[gi].push_back(i);
        }
      }
    }
    return members[gi];
  };

  // Column-sum vectors, one per comparable group (lazy, shared across every
  // row that lists the group as comparable): colsum[g'][i] = Σ_{b ∈ g'}
  // D(i, b) with b ascending, so a group row later costs O(|own|) instead
  // of O(|own| · |theirs|). The b-ascending inner order keeps each entry
  // bitwise-identical to the per-triple row sums of SearchUnfairness.
  std::vector<std::vector<double>> colsum(num_groups);
  std::vector<uint8_t> colsum_done(num_groups, 0);
  auto colsum_of = [&](GroupId group) -> const std::vector<double>& {
    size_t gi = static_cast<size_t>(group);
    if (!colsum_done[gi]) {
      colsum_done[gi] = 1;
      colsum[gi].assign(n, 0.0);
      for (size_t b : members[gi]) {
        for (size_t i = 0; i < n; ++i) {
          if (i == b) continue;  // never queried: groups are disjoint
          colsum[gi][i] += dist_at(i, b);
        }
      }
      colsum_vectors->Add(1);
    }
    return colsum[gi];
  };

  for (size_t g = 0; g < groups.size(); ++g) {
    GroupId group = groups[g];
    const std::vector<size_t>& own = members_of(group);
    if (own.empty()) continue;
    double group_sum = 0.0;
    size_t group_count = 0;
    for (GroupId other : space.Comparables(group)) {
      const std::vector<size_t>& theirs = members_of(other);
      if (theirs.empty()) continue;
      const std::vector<double>& sums = colsum_of(other);
      double pair_sum = 0.0;
      for (size_t a : own) pair_sum += sums[a];
      group_sum += pair_sum / static_cast<double>(own.size() * theirs.size());
      ++group_count;
    }
    if (group_count > 0) {
      (*out)[g] = group_sum / static_cast<double>(group_count);
    }
  }
  size_t present = 0;
  for (const auto& cell : *out) present += cell.has_value() ? 1 : 0;
  cells_present->Add(present);
  cells_missing->Add(out->size() - present);
  return Status::OK();
}

// Build-level summary gauges of the full builds (in-memory and sharded):
// wall-clock of the most recent build since `start` and its cell
// throughput (the "cells/sec" headline).
void RecordBuildSummary(const char* family,
                        std::chrono::steady_clock::time_point start,
                        size_t cells) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  double elapsed_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (!metrics.enabled() || elapsed_us <= 0.0) return;
  std::string prefix = std::string("cube.") + family;
  metrics.gauge(prefix + ".last_build_ms")->Set(elapsed_us / 1e3);
  metrics.gauge(prefix + ".last_build_cells_per_sec")
      ->Set(static_cast<double>(cells) / (elapsed_us / 1e6));
}

// Evaluates one column over the resolved group axis into `out`.
using ColumnEval = std::function<Status(
    QueryId, LocationId, std::vector<std::optional<double>>*)>;

// A pass size that puts every column in one pass.
constexpr size_t kOnePass = SIZE_MAX;

// The one column loop under every builder: evaluates `columns` — or, when
// null, every (q, l) of `resolved` in row-major order, enumerated by index
// — on up to `parallelism` pool threads, in passes of at most
// `pass_columns` columns with a barrier between passes, and hands each
// finished column to `sink`.
Status StreamColumns(const CubeAxes& resolved,
                     const std::vector<CubeColumnRef>* columns,
                     size_t pass_columns, size_t parallelism,
                     CubeColumnSink* sink, const ColumnEval& eval) {
  if (sink == nullptr) {
    return Status::InvalidArgument("cube build needs a column sink");
  }
  size_t num_locations = resolved.locations.size();
  size_t total = resolved.queries.size() * num_locations;
  if (columns != nullptr) {
    for (const CubeColumnRef& column : *columns) {
      if (column.query_pos >= resolved.queries.size() ||
          column.location_pos >= num_locations) {
        return Status::InvalidArgument("delta column position out of range");
      }
    }
    total = columns->size();
  }
  for (size_t start = 0; start < total;) {
    size_t pass = std::min(pass_columns, total - start);
    FAIRJOB_RETURN_IF_ERROR(
        ParallelFor(pass, parallelism, [&](size_t offset) -> Status {
          size_t index = start + offset;
          CubeColumnRef column =
              columns != nullptr
                  ? (*columns)[index]
                  : CubeColumnRef{index / num_locations, index % num_locations};
          std::vector<std::optional<double>> values(resolved.groups.size());
          FAIRJOB_RETURN_IF_ERROR(eval(resolved.queries[column.query_pos],
                                       resolved.locations[column.location_pos],
                                       &values));
          return sink->Consume(column.query_pos, column.location_pos,
                               values.data(), values.size());
        }));
    start += pass;
  }
  return Status::OK();
}

Status StreamMarketplaceColumns(const MarketplaceDataset& data,
                                const GroupSpace& space,
                                const MarketplaceGroupMembership& membership,
                                MarketMeasure measure,
                                const MeasureOptions& options,
                                const CubeAxes& resolved,
                                const std::vector<CubeColumnRef>* columns,
                                size_t pass_columns, size_t parallelism,
                                CubeColumnSink* sink) {
  return StreamColumns(
      resolved, columns, pass_columns, parallelism, sink,
      [&](QueryId q, LocationId l, std::vector<std::optional<double>>* out) {
        return EvaluateMarketplaceColumn(data, space, membership, measure,
                                         options, q, l, resolved.groups, out);
      });
}

Status StreamSearchColumns(const SearchDataset& data, const GroupSpace& space,
                           SearchMeasure measure, const MeasureOptions& options,
                           const CubeAxes& resolved,
                           const std::vector<CubeColumnRef>* columns,
                           size_t parallelism, CubeColumnSink* sink) {
  if (options.kendall_penalty < 0.0 || options.kendall_penalty > 1.0) {
    return Status::InvalidArgument("kendall_penalty must lie in [0, 1]");
  }
  // Group membership depends only on user demographics, never on the
  // (query, location) column, so the label matching is hoisted out of the
  // column loop and shared read-only across all column tasks.
  SearchGroupMembership membership(data, space);
  return StreamColumns(
      resolved, columns, kOnePass, parallelism, sink,
      [&](QueryId q, LocationId l, std::vector<std::optional<double>>* out) {
        return EvaluateSearchColumn(data, space, membership, measure, options,
                                    q, l, resolved.groups, out, parallelism);
      });
}

}  // namespace

Result<CubeAxes> ResolveMarketplaceCubeAxes(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            const CubeAxes& axes) {
  return ResolveAxes(axes, space.num_groups(), data.queries().size(),
                     data.locations().size());
}

Result<CubeAxes> ResolveSearchCubeAxes(const SearchDataset& data,
                                       const GroupSpace& space,
                                       const CubeAxes& axes) {
  return ResolveAxes(axes, space.num_groups(), data.queries().size(),
                     data.locations().size());
}

Status CheckFiniteColumn(const std::optional<double>* values, size_t n) {
  for (size_t g = 0; g < n; ++g) {
    if (values[g].has_value() && !std::isfinite(*values[g])) {
      return Status::InvalidArgument("non-finite cell value in column");
    }
  }
  return Status::OK();
}

Status CubeMaterializeSink::Consume(size_t query_pos, size_t location_pos,
                                    const std::optional<double>* values,
                                    size_t num_groups) {
  if (num_groups != cube_->axis_size(Dimension::kGroup) ||
      query_pos >= cube_->axis_size(Dimension::kQuery) ||
      location_pos >= cube_->axis_size(Dimension::kLocation)) {
    return Status::InvalidArgument(
        "streamed column does not match the sink cube's axes");
  }
  FAIRJOB_RETURN_IF_ERROR(CheckFiniteColumn(values, num_groups));
  cube_->SetColumn(query_pos, location_pos, values, num_groups);
  return Status::OK();
}

Result<UnfairnessCube> BuildMarketplaceCube(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            MarketMeasure measure,
                                            const MeasureOptions& options,
                                            const CubeAxes& axes,
                                            size_t parallelism) {
  TraceSpan span("BuildMarketplaceCube", "cube");
  auto start = std::chrono::steady_clock::now();
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveMarketplaceCubeAxes(data, space, axes));
  FAIRJOB_ASSIGN_OR_RETURN(
      UnfairnessCube cube,
      UnfairnessCube::Make(resolved.groups, resolved.queries,
                           resolved.locations));
  MarketplaceGroupMembership membership(data, space);
  CubeMaterializeSink sink(&cube);
  FAIRJOB_RETURN_IF_ERROR(StreamMarketplaceColumns(
      data, space, membership, measure, options, resolved,
      /*columns=*/nullptr, kOnePass, parallelism, &sink));
  RecordBuildSummary("market", start, cube.num_cells());
  return cube;
}

Result<UnfairnessCube> BuildSearchCube(const SearchDataset& data,
                                       const GroupSpace& space,
                                       SearchMeasure measure,
                                       const MeasureOptions& options,
                                       const CubeAxes& axes,
                                       size_t parallelism) {
  TraceSpan span("BuildSearchCube", "cube");
  auto start = std::chrono::steady_clock::now();
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveSearchCubeAxes(data, space, axes));
  FAIRJOB_ASSIGN_OR_RETURN(
      UnfairnessCube cube,
      UnfairnessCube::Make(resolved.groups, resolved.queries,
                           resolved.locations));
  CubeMaterializeSink sink(&cube);
  FAIRJOB_RETURN_IF_ERROR(StreamSearchColumns(data, space, measure, options,
                                              resolved, /*columns=*/nullptr,
                                              parallelism, &sink));
  RecordBuildSummary("search", start, cube.num_cells());
  return cube;
}

Status BuildMarketplaceCubeSharded(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const ShardedBuildOptions& sharded,
                                   CubeColumnSink* sink) {
  TraceSpan span("BuildMarketplaceCubeSharded", "cube");
  MetricsRegistry& metrics = MetricsRegistry::Global();
  static Counter* const columns_streamed =
      metrics.counter("cube.sharded.columns_streamed");
  static Counter* const shards_built = metrics.counter("cube.sharded.shards");
  auto start = std::chrono::steady_clock::now();
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveMarketplaceCubeAxes(data, space, axes));
  if (sharded.shard_columns == 0) {
    return Status::InvalidArgument("shard_columns must be at least 1");
  }
  MarketplaceGroupMembership membership(data, space);
  FAIRJOB_RETURN_IF_ERROR(StreamMarketplaceColumns(
      data, space, membership, measure, options, resolved,
      /*columns=*/nullptr, sharded.shard_columns, sharded.parallelism, sink));
  size_t total_columns = resolved.queries.size() * resolved.locations.size();
  columns_streamed->Add(total_columns);
  shards_built->Add((total_columns + sharded.shard_columns - 1) /
                    sharded.shard_columns);
  RecordBuildSummary("market", start, total_columns * resolved.groups.size());
  return Status::OK();
}

Status BuildMarketplaceCubeColumns(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   const MarketplaceGroupMembership& membership,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const std::vector<CubeColumnRef>& columns,
                                   size_t parallelism, CubeColumnSink* sink) {
  TraceSpan span("BuildMarketplaceCubeColumns", "cube");
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveMarketplaceCubeAxes(data, space, axes));
  return StreamMarketplaceColumns(data, space, membership, measure, options,
                                  resolved, &columns, kOnePass, parallelism,
                                  sink);
}

Status BuildSearchCubeColumns(const SearchDataset& data,
                              const GroupSpace& space, SearchMeasure measure,
                              const MeasureOptions& options,
                              const CubeAxes& axes,
                              const std::vector<CubeColumnRef>& columns,
                              size_t parallelism, CubeColumnSink* sink) {
  TraceSpan span("BuildSearchCubeColumns", "cube");
  FAIRJOB_ASSIGN_OR_RETURN(CubeAxes resolved,
                           ResolveSearchCubeAxes(data, space, axes));
  return StreamSearchColumns(data, space, measure, options, resolved, &columns,
                             parallelism, sink);
}

}  // namespace fairjob
