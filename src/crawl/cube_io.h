#ifndef FAIRJOB_CRAWL_CUBE_IO_H_
#define FAIRJOB_CRAWL_CUBE_IO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/unfairness_cube.h"

namespace fairjob {

// Persistence for precomputed unfairness cubes — the F-Box's expensive step
// is evaluating the measures over a crawl; a saved cube lets later analysis
// sessions (top-k, comparisons, statistics) skip it.
//
// Two interchangeable formats hold the same information (axes + names +
// present cells) and round-trip bitwise-identically through each other
// (cross-checked in tests/cube_io_test.cc):
//
//  * CSV — human-readable interop format and the differential reference.
//  * Binary — versioned little-endian format for scale: a fixed header
//    (magic, version, layout flag, axis sizes, present count, payload CRC32)
//    followed by axis-id tables, a name table, and one of two cell sections.
//    The column-block section ("dense") is the in-memory cube's layout
//    (core/unfairness_cube.h): a Q×L table of u32 block numbers
//    (0xFFFFFFFF for a column without a present cell), then one block per
//    column with a present cell, in column order: ⌈G/64⌉ presence words
//    and G f64 values. The sparse section holds delta-encoded varint cell
//    indices interleaved with f64 values. Both are sized by the present
//    cells, not by the G·Q·L grid. Column-block files open O(ms) via mmap
//    (MappedCube) with O(1) random-access Get; both layouts materialize
//    back into an UnfairnessCube. The exact byte layout is documented next
//    to the codec in crawl/cube_io.cc.
//
// CSV format: rows
//   axis,<group|query|location>,<id>,<name>      one per axis entry
//   cell,<group pos>,<query pos>,<location pos>,<value>   one per present cell
// Names are optional context (resolved via the resolver callbacks below) and
// round-trip verbatim; missing cells are simply absent.

// A name lookup per dimension; may return "" when names are unavailable.
using AxisNamer = std::string (*)(Dimension, int32_t, const void* context);

std::vector<std::vector<std::string>> CubeToCsvRows(
    const UnfairnessCube& cube,
    AxisNamer namer = nullptr, const void* namer_context = nullptr);

// Reconstructs a cube (axes + present cells) from rows produced by
// CubeToCsvRows. Errors: InvalidArgument on malformed rows, duplicate axis
// ids, or out-of-range cell positions.
Result<UnfairnessCube> CubeFromCsvRows(
    const std::vector<std::vector<std::string>>& rows);

// Names from the CSV, parallel to the cube axes ("" when absent).
struct CubeNames {
  std::vector<std::string> groups;
  std::vector<std::string> queries;
  std::vector<std::string> locations;
};
Result<CubeNames> CubeNamesFromCsvRows(
    const std::vector<std::vector<std::string>>& rows);

// File convenience wrappers. Errors: IOError / InvalidArgument.
Status SaveCube(const std::string& path, const UnfairnessCube& cube,
                AxisNamer namer = nullptr, const void* namer_context = nullptr);
Result<UnfairnessCube> LoadCube(const std::string& path);

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

// Bumped on any incompatible layout change; readers reject other versions.
// Version 2 replaced the grid-sized dense section (G·Q·L values plus a
// presence bitmap) with column blocks.
inline constexpr uint32_t kBinaryCubeVersion = 2;

struct BinaryCubeWriteOptions {
  // kDense is the column-block layout, the one MappedCube::Get reads.
  enum class Layout { kAuto, kDense, kSparse };
  // kAuto picks whichever layout makes the smaller file, column blocks on a
  // tie. A sparse cell costs ~9 bytes; a column block costs 8 bytes per
  // group plus its presence words, and every column costs a 4-byte table
  // entry.
  Layout layout = Layout::kAuto;
};

// Writes `cube` (and optional axis names, parallel to the cube axes) as one
// binary file. Errors: IOError on filesystem failure, InvalidArgument when
// `names` axis lengths do not match the cube or a cell is not finite.
Status SaveCubeBinary(const std::string& path, const UnfairnessCube& cube,
                      const CubeNames* names = nullptr,
                      const BinaryCubeWriteOptions& options = {});

// Reads a binary cube file back into memory (either layout). Errors:
// IOError on filesystem failure; InvalidArgument on bad magic, unsupported
// version, truncation, CRC mismatch, or a body Materialize rejects.
Result<UnfairnessCube> LoadCubeBinary(const std::string& path);

// mmap-backed random-access view of a binary cube file: Open maps the file
// and validates the header and section sizes (plus the payload CRC unless
// disabled), so a large cube is servable in milliseconds without copying
// cell data. Get is O(1) on column-block files (one table load, one block
// load); sparse files support Materialize/Names only. The mapping is
// read-only and safely shared across threads.
class MappedCube {
 public:
  struct Options {
    // Full-payload CRC32 check at Open (one sequential pass). Disable to
    // make Open O(1) when the file is trusted (e.g. written this process).
    bool verify_checksum = true;
  };

  static Result<MappedCube> Open(const std::string& path,
                                 const Options& options);
  static Result<MappedCube> Open(const std::string& path) {
    return Open(path, Options());
  }

  MappedCube(MappedCube&& other) noexcept;
  MappedCube& operator=(MappedCube&& other) noexcept;
  MappedCube(const MappedCube&) = delete;
  MappedCube& operator=(const MappedCube&) = delete;
  ~MappedCube();

  size_t axis_size(Dimension d) const { return axis_sizes_[AxisIndex(d)]; }
  int32_t axis_id(Dimension d, size_t pos) const;
  bool dense() const { return dense_; }
  size_t num_cells() const;
  uint64_t num_present() const { return present_; }
  size_t file_bytes() const { return bytes_; }

  // Column-block files only (returns nullopt unconditionally on sparse
  // files, like an all-missing cube); positions must be in range.
  std::optional<double> Get(size_t g, size_t q, size_t l) const;

  // Decodes the full file into an UnfairnessCube / CubeNames (both layouts),
  // copying only the column blocks. Errors: InvalidArgument on a non-finite
  // cell, a malformed slot table or block, or a decoded present count that
  // differs from the header's (the check that catches a flipped presence
  // bit when the CRC was not verified).
  Result<UnfairnessCube> Materialize() const;
  Result<CubeNames> Names() const;

 private:
  MappedCube() = default;

  void Release();

  static size_t AxisIndex(Dimension d) { return static_cast<size_t>(d); }

  const unsigned char* data_ = nullptr;  // whole file
  size_t bytes_ = 0;
  bool mapped_ = false;  // mmap'd (else heap-owned fallback)
  bool dense_ = false;
  uint64_t present_ = 0;
  size_t axis_sizes_[3] = {0, 0, 0};
  const unsigned char* axis_ids_ = nullptr;  // 3 consecutive i32 tables
  const unsigned char* names_ = nullptr;     // length-prefixed name table
  const unsigned char* cells_ = nullptr;     // slot table / sparse stream
  size_t cells_bytes_ = 0;
  const unsigned char* blocks_ = nullptr;    // column blocks (dense only)
  size_t num_blocks_ = 0;
};

// Streams a column-block binary cube file column-by-column: the
// CubeColumnSink fed to BuildMarketplaceCubeSharded (or a delta build) when
// the cube should land on disk instead of in memory. Create writes the
// axis tables (unstreamed columns stay all-missing); Consume accepts columns
// from any thread in any order and appends one block per column with a
// present cell (an all-absent column writes nothing). It rejects a column
// streamed twice with FailedPrecondition and a non-finite cell with
// InvalidArgument. Finish seals the file: it puts the blocks in column
// order, writes the slot table, the CRC and the header, so the file's bytes
// do not depend on arrival order and equal SaveCubeBinary's kDense file of
// the same cube. It must be called exactly once before destruction for the
// file to be readable.
class BinaryCubeColumnWriter final : public CubeColumnSink {
 public:
  static Result<std::unique_ptr<BinaryCubeColumnWriter>> Create(
      const std::string& path, const CubeAxes& axes,
      const CubeNames* names = nullptr);

  ~BinaryCubeColumnWriter() override;

  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values,
                 size_t num_groups) override;
  Status Finish();

 private:
  class Impl;
  explicit BinaryCubeColumnWriter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace fairjob

#endif  // FAIRJOB_CRAWL_CUBE_IO_H_
