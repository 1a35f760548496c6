#ifndef FAIRJOB_CORE_UNFAIRNESS_CUBE_H_
#define FAIRJOB_CORE_UNFAIRNESS_CUBE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/data_model.h"
#include "core/group_space.h"
#include "core/marketplace_batch.h"
#include "core/unfairness_measures.h"

namespace fairjob {

// The three dimensions of the framework (Section 4.1).
enum class Dimension { kGroup = 0, kQuery = 1, kLocation = 2 };

const char* DimensionName(Dimension d);

// Selects positions along one cube axis; an empty position list means "all".
struct AxisSelector {
  std::vector<size_t> positions;

  static AxisSelector All() { return AxisSelector{}; }
  static AxisSelector Single(size_t pos) { return AxisSelector{{pos}}; }

  bool all() const { return positions.empty(); }
};

// Group × query × location tensor of unfairness values d<g,q,l>, with
// missing cells (triples the measure is undefined for: unobserved (q,l)
// pairs, groups without members, ...). Axis positions are indices into the
// id lists the cube was built over.
//
// Storage is sized by the columns that hold values, not by the grid: a
// (query, location) column table maps each column to a slot id, or to "no
// slot" for a column that never held a value. A slot is one block of
// ⌈G/64⌉ presence words followed by G values (absent cells store 0.0), the
// same block the binary cube file holds (crawl/cube_io.h). Slots live in
// fixed-size chunks that never move, so a slot's address is stable once
// allocated. An all-absent column costs one table entry; num_cells() still
// reports the grid size G·Q·L.
class UnfairnessCube {
 public:
  // Errors: InvalidArgument on an empty axis, duplicate ids within an axis,
  // or more than 2^32 - 1 (query, location) columns.
  static Result<UnfairnessCube> Make(std::vector<GroupId> groups,
                                     std::vector<QueryId> queries,
                                     std::vector<LocationId> locations);

  size_t axis_size(Dimension d) const { return ids_[AxisIndex(d)].size(); }
  int32_t axis_id(Dimension d, size_t pos) const {
    return ids_[AxisIndex(d)][pos];
  }
  // O(1) via the per-axis position index built in Make. Errors: NotFound if
  // `id` is not on axis `d`.
  Result<size_t> PosOf(Dimension d, int32_t id) const;

  // Single-cell access. Set and Clear are not safe to call concurrently
  // with any other write; use SetColumn for that.
  void Set(size_t g, size_t q, size_t l, double value) {
    uint64_t* block = store_.BlockOrAllocate(ColumnOffset(q, l));
    block[g >> 6] |= uint64_t{1} << (g & 63);
    block[store_.words() + g] = std::bit_cast<uint64_t>(value);
  }
  void Clear(size_t g, size_t q, size_t l) {
    uint64_t* block = store_.Block(ColumnOffset(q, l));
    if (block == nullptr) return;
    block[g >> 6] &= ~(uint64_t{1} << (g & 63));
    block[store_.words() + g] = 0;
  }
  std::optional<double> Get(size_t g, size_t q, size_t l) const {
    return column(q, l).Get(g);
  }

  // Writes every group cell of column (q, l): values[g] set, nullopt
  // cleared. `n` must equal axis_size(kGroup). An all-absent column that
  // has no slot stays without one. The one write that is safe to call
  // concurrently for distinct columns (the parallel builders and column
  // sinks use it).
  void SetColumn(size_t q, size_t l, const std::optional<double>* values,
                 size_t n);

  // Read-only view of one (query, location) column, valid until the cube is
  // next written, moved or destroyed.
  class Column {
   public:
    // False for a column without a slot; every cell of it is absent.
    bool stored() const { return block_ != nullptr; }
    bool present(size_t g) const {
      return block_ != nullptr && (block_[g >> 6] >> (g & 63) & 1) != 0;
    }
    // The value of a present cell.
    double value(size_t g) const {
      return std::bit_cast<double>(block_[words_ + g]);
    }
    std::optional<double> Get(size_t g) const {
      if (!present(g)) return std::nullopt;
      return value(g);
    }

   private:
    friend class UnfairnessCube;
    Column(const uint64_t* block, size_t words)
        : block_(block), words_(words) {}
    const uint64_t* block_;
    size_t words_;
  };
  Column column(size_t q, size_t l) const {
    return Column(store_.Block(ColumnOffset(q, l)), store_.words());
  }

  size_t num_cells() const {
    return ids_[0].size() * ids_[1].size() * ids_[2].size();
  }
  size_t num_present() const;

  // Per-(query, location) column epochs for incremental maintenance
  // (docs/serving.md): a counter that the delta path bumps whenever the
  // column's cells were recomputed to *different* values, so snapshot cache
  // keys can bind to exactly the columns a request reads instead of the
  // whole cube. Epochs start at 0, are carried along by cube copies, and
  // are NOT part of FingerprintCube (they describe history, not contents).
  uint64_t column_epoch(size_t q, size_t l) const {
    return epochs_[ColumnOffset(q, l)];
  }
  void BumpColumnEpoch(size_t q, size_t l) { ++epochs_[ColumnOffset(q, l)]; }
  size_t num_columns() const { return epochs_.size(); }

  // Mean of the present cells within the selected sub-box; nullopt when the
  // selection contains no present cell. This realizes every aggregate in
  // Section 3.4 (d<g,Q,L>, d<G,Q,l>, d<G,q,L>, ...).
  std::optional<double> Average(const AxisSelector& groups,
                                const AxisSelector& queries,
                                const AxisSelector& locations) const;

  // d<g,Q,L> with axis `d` fixed at `pos`, averaging over everything else.
  std::optional<double> AxisAverage(Dimension d, size_t pos) const;

 private:
  // The column table and the slot chunks. Copies are deep; slot allocation
  // is serialized by a mutex, so distinct columns may allocate concurrently.
  class ColumnStore {
   public:
    ColumnStore() = default;
    ColumnStore(size_t num_groups, size_t num_columns);
    ColumnStore(const ColumnStore& other);
    ColumnStore& operator=(const ColumnStore& other);
    ColumnStore(ColumnStore&&) noexcept = default;
    ColumnStore& operator=(ColumnStore&&) noexcept = default;

    // Presence words per block.
    size_t words() const { return words_; }
    // The column's block, or nullptr when it has no slot.
    const uint64_t* Block(size_t column) const {
      uint32_t slot = slot_of_[column];
      return slot == kNoSlot ? nullptr : BlockAt(slot);
    }
    uint64_t* Block(size_t column) {
      return const_cast<uint64_t*>(std::as_const(*this).Block(column));
    }
    // The column's block, allocating a zeroed slot when it has none.
    uint64_t* BlockOrAllocate(size_t column);
    size_t num_present() const;

   private:
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    uint64_t* BlockAt(size_t slot) const {
      return chunks_[slot >> chunk_shift_].get() +
             (slot & ((size_t{1} << chunk_shift_) - 1)) * block_words_;
    }

    size_t words_ = 0;        // ⌈G/64⌉
    size_t block_words_ = 0;  // words_ + G
    size_t chunk_shift_ = 0;  // log2(slots per chunk)
    size_t num_slots_ = 0;
    std::vector<uint32_t> slot_of_;  // per (q, l) column
    // Fixed-length directory, sized in the constructor so that allocating
    // a chunk never moves another chunk's pointer.
    std::vector<std::unique_ptr<uint64_t[]>> chunks_;
    std::unique_ptr<std::mutex> alloc_mutex_;
  };

  UnfairnessCube() = default;

  static size_t AxisIndex(Dimension d) { return static_cast<size_t>(d); }
  size_t ColumnOffset(size_t q, size_t l) const {
    return q * ids_[2].size() + l;
  }

  std::vector<int32_t> ids_[3];  // group / query / location ids per axis
  std::unordered_map<int32_t, size_t> pos_of_[3];  // id -> axis position
  ColumnStore store_;
  std::vector<uint64_t> epochs_;  // per-(query, location) column epochs
};

// Axis universes for cube construction; empty vectors default to "all groups
// in the space" / "all queries and locations in the dataset vocabulary".
struct CubeAxes {
  std::vector<GroupId> groups;
  std::vector<QueryId> queries;
  std::vector<LocationId> locations;
};

// The axes a builder would actually use: `axes` with empty vectors defaulted
// against the dataset/space. Lets a caller size a CubeColumnSink (e.g. a
// binary cube file header) before starting a sharded build over the same
// axes. Errors: InvalidArgument when the dataset has no queries/locations.
Result<CubeAxes> ResolveMarketplaceCubeAxes(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            const CubeAxes& axes = {});
Result<CubeAxes> ResolveSearchCubeAxes(const SearchDataset& data,
                                       const GroupSpace& space,
                                       const CubeAxes& axes = {});

// Receives finished (query, location) columns from a sharded cube build.
// `values[g]` is the cell for group-axis position g (nullopt = undefined
// triple); positions index the resolved cube axes. Consume is called from
// pool threads in no particular column order — implementations must be
// thread-safe — but each column is delivered exactly once.
class CubeColumnSink {
 public:
  virtual ~CubeColumnSink() = default;
  virtual Status Consume(size_t query_pos, size_t location_pos,
                         const std::optional<double>* values,
                         size_t num_groups) = 0;
};

// Sink that materializes the streamed columns into a pre-made cube (the
// cube's axes must equal the build's resolved axes) through
// UnfairnessCube::SetColumn, so concurrent distinct columns are safe. Used
// for differential testing and for small builds where bounded memory is not
// a concern.
class CubeMaterializeSink final : public CubeColumnSink {
 public:
  explicit CubeMaterializeSink(UnfairnessCube* cube) : cube_(cube) {}
  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values,
                 size_t num_groups) override;

 private:
  UnfairnessCube* cube_;
};

// Sharded construction: (query, location) columns are partitioned into
// shards of `shard_columns`; within a shard, columns are evaluated on
// `parallelism` threads of the shared pool and streamed into the sink as
// they finish. Peak memory is O(parallelism) column buffers plus whatever
// the sink holds — the G×Q×L tensor never materializes — so million-user
// datasets build in bounded RSS with the cube landing on disk (see
// BinaryCubeColumnWriter in crawl/cube_io.h).
struct ShardedBuildOptions {
  size_t shard_columns = 1024;  // columns per shard; bounds in-flight work
  size_t parallelism = 1;
};

// Evaluates the chosen measure for every (g, q, l) in the axes; undefined
// triples stay missing. Group membership is hoisted into a per-build
// MarketplaceGroupMembership table (label matching once per build, not per
// cell) and per-cell state (worker values, per-group histograms, bias and
// relevance sums — see MarketplaceCellBatch in core/marketplace_batch.h) is
// computed once per (query, location) and shared across the whole group
// axis; results stay bitwise-identical to MarketplaceUnfairness. With
// `parallelism` > 1, (query, location) columns are evaluated on that many
// threads of the shared ThreadPool (cells are disjoint, datasets are read
// only; results are bitwise-identical to the serial build). Errors: only on
// structurally invalid input (bad options, bad axes) — per-cell NotFound is
// expected and absorbed.
Result<UnfairnessCube> BuildMarketplaceCube(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            MarketMeasure measure,
                                            const MeasureOptions& options = {},
                                            const CubeAxes& axes = {},
                                            size_t parallelism = 1);

Result<UnfairnessCube> BuildSearchCube(const SearchDataset& data,
                                       const GroupSpace& space,
                                       SearchMeasure measure,
                                       const MeasureOptions& options = {},
                                       const CubeAxes& axes = {},
                                       size_t parallelism = 1);

// Bounded-memory variants of the two builders (see ShardedBuildOptions).
// Column values are bitwise-identical to the in-memory builds: the same
// EvaluateMarketplaceColumn / EvaluateSearchColumn code paths run, only the
// destination differs. Errors: InvalidArgument on a null sink or bad
// options/axes, plus whatever the sink's Consume returns (first failure
// stops the build).
Status BuildMarketplaceCubeSharded(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const ShardedBuildOptions& sharded,
                                   CubeColumnSink* sink);
Status BuildSearchCubeSharded(const SearchDataset& data,
                              const GroupSpace& space, SearchMeasure measure,
                              const MeasureOptions& options,
                              const CubeAxes& axes,
                              const ShardedBuildOptions& sharded,
                              CubeColumnSink* sink);

// One (query, location) column by cube-axis position; the unit of delta
// recomputation (and of the column epochs above).
struct CubeColumnRef {
  size_t query_pos = 0;
  size_t location_pos = 0;
};

// Delta builds: evaluate ONLY the listed columns over the resolved axes and
// stream them through the same CubeColumnSink seam the sharded builders use
// — the G×Q×L tensor never materializes, and column values are bitwise
// identical to the full builders' (same EvaluateMarketplaceColumn /
// EvaluateSearchColumn code paths). Columns are fanned out on up to
// `parallelism` threads of the shared pool; Consume sees each column exactly
// once, in no particular order. Errors: InvalidArgument on a null sink, bad
// axes, or a column position outside the resolved axes.
Status BuildMarketplaceCubeColumns(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const std::vector<CubeColumnRef>& columns,
                                   size_t parallelism, CubeColumnSink* sink);
// Variant taking a caller-maintained MarketplaceGroupMembership table, the
// amortization seam for tight delta loops (MarketplaceCubeMaintainer keeps
// one per dataset version and updates it instead of relabeling every worker
// per upsert). `membership` must cover every worker the touched rankings
// list. The parameterless variant above builds a fresh table per call.
Status BuildMarketplaceCubeColumns(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   const MarketplaceGroupMembership& membership,
                                   MarketMeasure measure,
                                   const MeasureOptions& options,
                                   const CubeAxes& axes,
                                   const std::vector<CubeColumnRef>& columns,
                                   size_t parallelism, CubeColumnSink* sink);
Status BuildSearchCubeColumns(const SearchDataset& data,
                              const GroupSpace& space, SearchMeasure measure,
                              const MeasureOptions& options,
                              const CubeAxes& axes,
                              const std::vector<CubeColumnRef>& columns,
                              size_t parallelism, CubeColumnSink* sink);

// Incremental maintenance: re-evaluates the group cells of one
// (query, location) column after its underlying ranking changed (a crawl
// refresh); triples that became undefined are cleared. Pair with
// IndexSet::RefreshColumn to keep the inverted lists in sync. Builds one
// MarketplaceGroupMembership table and shares one MarketplaceCellBatch
// across the column; with `parallelism` > 1 the group cells are evaluated
// on the shared ThreadPool (no per-call thread spawns, so tight refresh
// loops stay cheap).
// Errors: InvalidArgument on out-of-range positions or bad options.
Status RefreshMarketplaceColumn(const MarketplaceDataset& data,
                                const GroupSpace& space, MarketMeasure measure,
                                const MeasureOptions& options,
                                UnfairnessCube* cube, size_t query_pos,
                                size_t location_pos, size_t parallelism = 1);

// Search-side twin of RefreshMarketplaceColumn (e.g. after a study collected
// new runs for one (term, location)).
Status RefreshSearchColumn(const SearchDataset& data, const GroupSpace& space,
                           SearchMeasure measure,
                           const MeasureOptions& options, UnfairnessCube* cube,
                           size_t query_pos, size_t location_pos,
                           size_t parallelism = 1);

}  // namespace fairjob

#endif  // FAIRJOB_CORE_UNFAIRNESS_CUBE_H_
