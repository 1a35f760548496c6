#ifndef FAIRJOB_CORE_UNFAIRNESS_CUBE_H_
#define FAIRJOB_CORE_UNFAIRNESS_CUBE_H_

#include <atomic>
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
// chunks of about 64 KiB. An all-absent column costs one table entry;
// num_cells() still reports the grid size G·Q·L.
//
// Copies share chunks: a copy takes the column table and the epochs, and
// shares every chunk with its source. A chunk is cloned the first time
// either cube writes into it (including allocating a new slot in a shared,
// partly filled chunk), so a copy costs O(columns) words however many cells
// the cube holds, and a cube derived from a published one allocates only
// the chunks it writes.
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
    uint64_t* block = store_.MutableBlock(ColumnOffset(q, l));
    block[g >> 6] |= uint64_t{1} << (g & 63);
    block[store_.words() + g] = std::bit_cast<uint64_t>(value);
  }
  void Clear(size_t g, size_t q, size_t l) {
    const size_t column = ColumnOffset(q, l);
    if (!store_.HasSlot(column)) return;
    uint64_t* block = store_.MutableBlock(column);
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
  // sinks use it), also when they share a chunk that a copy shares too.
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
    // Presence bits of groups [64w, 64w + 64) of a stored column.
    uint64_t presence_word(size_t w) const { return block_[w]; }
    // The column's storage (nullptr when not stored). Two cubes that share
    // the column's chunk return the same address.
    const uint64_t* data() const { return block_; }

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
  // The column table and the slot chunks. Copies share chunks and clone
  // one on its first write (see the class comment); slot allocation and
  // cloning are serialized by a mutex, so distinct columns may be written
  // concurrently through LockedMutableBlock.
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
    bool HasSlot(size_t column) const { return slot_of_[column] != kNoSlot; }
    // The column's block, or nullptr when it has no slot.
    const uint64_t* Block(size_t column) const {
      uint32_t slot = slot_of_[column];
      return slot == kNoSlot ? nullptr : BlockAt(slot);
    }
    // The column's block for writing: gives the column a zeroed slot when
    // it has none, and first clones the block's chunk when it is shared.
    // Not safe concurrently with any other write.
    uint64_t* MutableBlock(size_t column);
    // MutableBlock under the store's mutex: safe concurrently for distinct
    // columns.
    uint64_t* LockedMutableBlock(size_t column);
    size_t num_present() const;

   private:
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    // Whether this store may write chunk c in place: it allocated or cloned
    // the chunk, and has not been copied since. A copy bumps the source's
    // generation, so every chunk the two now share reads as not owned.
    struct Ownership {
      std::mutex mutex;
      std::atomic<uint64_t> generation{1};
    };

    uint64_t* BlockAt(size_t slot) const {
      return chunks_[slot >> chunk_shift_].get() +
             (slot & ((size_t{1} << chunk_shift_) - 1)) * block_words_;
    }

    size_t words_ = 0;        // ⌈G/64⌉
    size_t block_words_ = 0;  // words_ + G
    size_t chunk_shift_ = 0;  // log2(slots per chunk)
    size_t num_slots_ = 0;
    std::vector<uint32_t> slot_of_;  // per (q, l) column
    // Fixed-length directory, sized in the constructor; a null chunk holds
    // no slot yet.
    std::vector<std::shared_ptr<uint64_t[]>> chunks_;
    // Per chunk: the generation at which this store made it its own.
    std::vector<uint64_t> owned_at_;
    std::unique_ptr<Ownership> ownership_;
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
// axes. Errors: InvalidArgument when the dataset has no queries/locations
// or a group id lies outside [0, space.num_groups()).
Result<CubeAxes> ResolveMarketplaceCubeAxes(const MarketplaceDataset& data,
                                            const GroupSpace& space,
                                            const CubeAxes& axes = {});
Result<CubeAxes> ResolveSearchCubeAxes(const SearchDataset& data,
                                       const GroupSpace& space,
                                       const CubeAxes& axes = {});

// Receives the finished (query, location) columns of a cube build.
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

// InvalidArgument when a present cell among values[0, n) is NaN or
// infinite. No measure produces either, and either would break the
// engines' orderings, so every column sink rejects such a column.
Status CheckFiniteColumn(const std::optional<double>* values, size_t n);

// Sink that materializes the streamed columns into a pre-made cube (the
// cube's axes must equal the build's resolved axes) through
// UnfairnessCube::SetColumn, so concurrent distinct columns are safe. The
// in-memory builders stream into one; a delta build into one patches an
// existing cube. Errors: InvalidArgument on a column that does not fit the
// cube's axes or holds a non-finite cell.
class CubeMaterializeSink final : public CubeColumnSink {
 public:
  explicit CubeMaterializeSink(UnfairnessCube* cube) : cube_(cube) {}
  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values,
                 size_t num_groups) override;

 private:
  UnfairnessCube* cube_;
};

// Every builder below runs one column loop: it evaluates (query, location)
// columns on up to `parallelism` threads of the shared pool — the pool
// claims one column at a time, so O(parallelism) column buffers are in
// flight — and hands each finished column to a CubeColumnSink. They differ
// only in which columns they visit and where the columns go. Column values
// are bitwise-identical across entry points and across parallelism.
//
// Marketplace group membership is hoisted into a MarketplaceGroupMembership
// table (label matching once per build, not per cell) and per-cell state
// (worker values, per-group histograms, bias and relevance sums — see
// MarketplaceCellBatch in core/marketplace_batch.h) is computed once per
// column and shared across the whole group axis; results stay
// bitwise-identical to MarketplaceUnfairness. Search columns also compute
// their pairwise distance rows on `parallelism` pool threads (the thread
// that submits a nested pool call drains it, so nesting cannot deadlock).
//
// Errors: only on structurally invalid input (bad options, bad axes) or a
// failing sink — per-cell NotFound is expected and absorbed. The first
// failure stops the build.

// In-memory builds: every (g, q, l) of the axes, materialized in one pass;
// undefined triples stay missing.
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

// Sharded construction: every column of the axes streamed into `sink` in
// passes of `shard_columns` columns, each pass ending in a barrier. Peak
// memory is O(parallelism) column buffers plus whatever the sink holds —
// the G×Q×L tensor never materializes — so million-user datasets build in
// bounded RSS with the cube landing on disk (see BinaryCubeColumnWriter in
// crawl/cube_io.h). `shard_columns` bounds no memory; it sets the number
// of passes (the cube.sharded.shards counter).
struct ShardedBuildOptions {
  size_t shard_columns = 1024;  // columns per pass
  size_t parallelism = 1;
};

// Errors: InvalidArgument on a null sink or shard_columns == 0.
Status BuildMarketplaceCubeSharded(const MarketplaceDataset& data,
                                   const GroupSpace& space,
                                   MarketMeasure measure,
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
// stream them into `sink`. To patch a cube after its dataset changed, pass
// a CubeMaterializeSink over it (then IndexSet::RefreshColumns re-syncs the
// inverted lists); the maintainers (serve/incremental.h) stream into a
// sink that also tracks which columns changed. The marketplace variant
// takes a caller-maintained MarketplaceGroupMembership table, the
// amortization seam for tight delta loops (MarketplaceCubeMaintainer keeps
// one per dataset version and updates it instead of relabeling every worker
// per upsert); it must cover every worker the touched rankings list.
// Errors: InvalidArgument on a null sink or a column position outside the
// resolved axes.
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

}  // namespace fairjob

#endif  // FAIRJOB_CORE_UNFAIRNESS_CUBE_H_
