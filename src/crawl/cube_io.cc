#include "crawl/cube_io.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "crawl/csv.h"

#if defined(__unix__) || defined(__APPLE__)
#define FAIRJOB_CUBE_IO_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fairjob {
namespace {

const char* DimensionTag(Dimension d) { return DimensionName(d); }

Result<Dimension> DimensionFromTag(const std::string& tag) {
  if (tag == "group") return Dimension::kGroup;
  if (tag == "query") return Dimension::kQuery;
  if (tag == "location") return Dimension::kLocation;
  return Status::InvalidArgument("unknown cube axis tag '" + tag + "'");
}

// Shortest representation that strtod parses back to the same bits, so the
// CSV format round-trips cell values exactly (fixed-decimal formatting
// truncates small magnitudes and breaks the binary<->CSV differential).
std::string FormatRoundTripDouble(double value) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return FormatDouble(value, 17);
  return std::string(buf, ptr);
}

// A cell value: a finite double. strtod also reads "nan" and "inf" (and
// overflows to inf), which no measure produces and which break the engines'
// orderings.
Result<double> ParseDouble(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad numeric field '" + s + "'");
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite cell value '" + s + "'");
  }
  return v;
}

Result<long> ParseLong(const std::string& s) {
  char* end = nullptr;
  long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad integer field '" + s + "'");
  }
  return v;
}

// An axis id: an integer that fits int32_t, the cube's id type.
Result<int32_t> ParseAxisId(const std::string& s) {
  FAIRJOB_ASSIGN_OR_RETURN(long v, ParseLong(s));
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("axis id '" + s + "' out of int32 range");
  }
  return static_cast<int32_t>(v);
}

}  // namespace

std::vector<std::vector<std::string>> CubeToCsvRows(const UnfairnessCube& cube,
                                                    AxisNamer namer,
                                                    const void* namer_context) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cube.axis_size(Dimension::kGroup) +
               cube.axis_size(Dimension::kQuery) +
               cube.axis_size(Dimension::kLocation) + cube.num_present());
  for (Dimension d :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    for (size_t pos = 0; pos < cube.axis_size(d); ++pos) {
      int32_t id = cube.axis_id(d, pos);
      std::string name =
          namer != nullptr ? namer(d, id, namer_context) : std::string();
      rows.push_back({"axis", DimensionTag(d), std::to_string(id),
                      std::move(name)});
    }
  }
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < cube.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < cube.axis_size(Dimension::kLocation); ++l) {
        std::optional<double> v = cube.Get(g, q, l);
        if (v.has_value()) {
          rows.push_back({"cell", std::to_string(g), std::to_string(q),
                          std::to_string(l), FormatRoundTripDouble(*v)});
        }
      }
    }
  }
  return rows;
}

Result<UnfairnessCube> CubeFromCsvRows(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<int32_t> axes[3];
  // Size the axis vectors up front (a million-entry axis would otherwise
  // reallocate its way through the parse).
  size_t axis_counts[3] = {0, 0, 0};
  for (const auto& row : rows) {
    if (row.size() >= 2 && row[0] == "axis") {
      Result<Dimension> d = DimensionFromTag(row[1]);
      if (d.ok()) ++axis_counts[static_cast<size_t>(*d)];
    }
  }
  for (size_t i = 0; i < 3; ++i) axes[i].reserve(axis_counts[i]);
  // First pass: axes (must precede cells to size the cube).
  for (const auto& row : rows) {
    if (row.empty()) continue;
    if (row[0] == "axis") {
      if (row.size() != 4) {
        return Status::InvalidArgument("axis row needs 4 fields");
      }
      FAIRJOB_ASSIGN_OR_RETURN(Dimension d, DimensionFromTag(row[1]));
      FAIRJOB_ASSIGN_OR_RETURN(int32_t id, ParseAxisId(row[2]));
      axes[static_cast<size_t>(d)].push_back(id);
    } else if (row[0] != "cell") {
      return Status::InvalidArgument("unknown cube CSV row kind '" + row[0] +
                                     "'");
    }
  }
  FAIRJOB_ASSIGN_OR_RETURN(UnfairnessCube cube,
                           UnfairnessCube::Make(axes[0], axes[1], axes[2]));

  for (const auto& row : rows) {
    if (row.empty() || row[0] != "cell") continue;
    if (row.size() != 5) {
      return Status::InvalidArgument("cell row needs 5 fields");
    }
    FAIRJOB_ASSIGN_OR_RETURN(long g, ParseLong(row[1]));
    FAIRJOB_ASSIGN_OR_RETURN(long q, ParseLong(row[2]));
    FAIRJOB_ASSIGN_OR_RETURN(long l, ParseLong(row[3]));
    FAIRJOB_ASSIGN_OR_RETURN(double v, ParseDouble(row[4]));
    if (g < 0 || static_cast<size_t>(g) >= cube.axis_size(Dimension::kGroup) ||
        q < 0 || static_cast<size_t>(q) >= cube.axis_size(Dimension::kQuery) ||
        l < 0 ||
        static_cast<size_t>(l) >= cube.axis_size(Dimension::kLocation)) {
      return Status::InvalidArgument("cell position out of range");
    }
    cube.Set(static_cast<size_t>(g), static_cast<size_t>(q),
             static_cast<size_t>(l), v);
  }
  return cube;
}

Result<CubeNames> CubeNamesFromCsvRows(
    const std::vector<std::vector<std::string>>& rows) {
  CubeNames names;
  size_t axis_rows = 0;
  for (const auto& row : rows) {
    if (!row.empty() && row[0] == "axis") ++axis_rows;
  }
  names.groups.reserve(axis_rows);
  for (const auto& row : rows) {
    if (row.empty() || row[0] != "axis") continue;
    if (row.size() != 4) {
      return Status::InvalidArgument("axis row needs 4 fields");
    }
    FAIRJOB_ASSIGN_OR_RETURN(Dimension d, DimensionFromTag(row[1]));
    switch (d) {
      case Dimension::kGroup:
        names.groups.push_back(row[3]);
        break;
      case Dimension::kQuery:
        names.queries.push_back(row[3]);
        break;
      case Dimension::kLocation:
        names.locations.push_back(row[3]);
        break;
    }
  }
  return names;
}

Status SaveCube(const std::string& path, const UnfairnessCube& cube,
                AxisNamer namer, const void* namer_context) {
  return WriteCsvFile(path, CubeToCsvRows(cube, namer, namer_context));
}

Result<UnfairnessCube> LoadCube(const std::string& path) {
  FAIRJOB_ASSIGN_OR_RETURN(auto rows, ReadCsvFile(path));
  return CubeFromCsvRows(rows);
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

namespace {

// File layout (all integers little-endian):
//   [ 0, 64)  header: magic[8] version:u32 flags:u32 G:u64 Q:u64 L:u64
//             present:u64 payload_bytes:u64 payload_crc:u32 header_crc:u32
//   [64, ...) payload:
//             axis ids        i32 × (G + Q + L), group/query/location order
//             name table      (len:u32 bytes[len]) × (G + Q + L)
//             zero padding    to the next 8-byte file offset
//             cell section, one of:
//               column blocks (flag bit 0 clear):
//                 slot table  u32 × Q·L in q·L + l order: the column's
//                             block number, or 0xFFFFFFFF for a column
//                             without a present cell
//                 zero padding to the next 8-byte file offset
//                 blocks      one per column with a present cell, in
//                             column order (block k is the k-th such
//                             column): presence u64 × ⌈G/64⌉ (bit g set
//                             iff cell g present), then value:f64 × G
//                             (0.0 for absent cells)
//               sparse (flag bit 0 set): per present cell, ascending index
//                       (q·L + l)·G + g: varint delta from the previous
//                       index (previous starts at −1, so deltas are ≥ 1)
//                       followed by value:f64
// header_crc covers header bytes [0, 60); payload_crc covers [64, EOF).
constexpr char kBinaryCubeMagic[8] = {'F', 'J', 'C', 'U', 'B', 'E', '0', '1'};
constexpr size_t kBinaryCubeHeaderBytes = 64;
constexpr uint32_t kBinaryCubeFlagSparse = 1u << 0;
constexpr uint32_t kNoBlock = 0xFFFFFFFFu;

// `cube.io.*` observability (docs/observability.md).
LatencyHistogram* BinarySaveLatency() {
  static LatencyHistogram* const histogram =
      MetricsRegistry::Global().histogram("cube.io.binary_save_us");
  return histogram;
}
LatencyHistogram* BinaryOpenLatency() {
  static LatencyHistogram* const histogram =
      MetricsRegistry::Global().histogram("cube.io.binary_open_us");
  return histogram;
}
Counter* BinaryBytesWritten() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("cube.io.binary_bytes_written");
  return counter;
}
Counter* ColumnsStreamed() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("cube.io.columns_streamed");
  return counter;
}
Counter* CrcFailures() {
  static Counter* const counter =
      MetricsRegistry::Global().counter("cube.io.crc_failures");
  return counter;
}

// Table-driven CRC32 (reflected, polynomial 0xEDB88320 — the zlib/PNG one),
// slicing-by-8: eight lookup tables let the hot loop fold 8 bytes per
// iteration, which matters when Open checksums a multi-hundred-MB cube file.
using Crc32Tables = uint32_t[8][256];

const Crc32Tables& Crc32Table() {
  static const Crc32Tables& tables = [] () -> const Crc32Tables& {
    static Crc32Tables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t bytes) {
  const Crc32Tables& t = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (bytes >= 8) {
    uint32_t lo = (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                   uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24) ^
                  crc;
    uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                  uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    bytes -= 8;
  }
  for (size_t i = 0; i < bytes; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t bytes) {
  return Crc32Update(0, data, bytes);
}

// Explicit little-endian encoding, so files are byte-identical across hosts.
void StoreU32(unsigned char* p, uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}
void StoreU64(unsigned char* p, uint64_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
  StoreU32(p + 4, static_cast<uint32_t>(v >> 32));
}
void StoreI32(unsigned char* p, int32_t v) {
  StoreU32(p, static_cast<uint32_t>(v));
}
void StoreF64(unsigned char* p, double v) {
  StoreU64(p, std::bit_cast<uint64_t>(v));
}
uint32_t LoadU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
uint64_t LoadU64(const unsigned char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}
int32_t LoadI32(const unsigned char* p) {
  return static_cast<int32_t>(LoadU32(p));
}
double LoadF64(const unsigned char* p) {
  return std::bit_cast<double>(LoadU64(p));
}

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Decodes one varint from [p, end); returns nullptr on truncation/overflow.
const unsigned char* ParseVarint(const unsigned char* p,
                                 const unsigned char* end, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return nullptr;
    unsigned char byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return p;
    }
  }
  return nullptr;
}

struct BinaryCubeHeader {
  uint32_t flags = 0;
  uint64_t dims[3] = {0, 0, 0};
  uint64_t present = 0;
  uint64_t payload_bytes = 0;
  uint32_t payload_crc = 0;
};

void SerializeHeader(const BinaryCubeHeader& h,
                     unsigned char out[kBinaryCubeHeaderBytes]) {
  std::memcpy(out, kBinaryCubeMagic, 8);
  StoreU32(out + 8, kBinaryCubeVersion);
  StoreU32(out + 12, h.flags);
  StoreU64(out + 16, h.dims[0]);
  StoreU64(out + 24, h.dims[1]);
  StoreU64(out + 32, h.dims[2]);
  StoreU64(out + 40, h.present);
  StoreU64(out + 48, h.payload_bytes);
  StoreU32(out + 56, h.payload_crc);
  StoreU32(out + 60, Crc32(out, 60));
}

Result<BinaryCubeHeader> ParseHeader(const unsigned char* data, size_t bytes) {
  if (bytes < kBinaryCubeHeaderBytes) {
    return Status::InvalidArgument("binary cube file truncated: " +
                                   std::to_string(bytes) +
                                   " bytes is smaller than the header");
  }
  if (std::memcmp(data, kBinaryCubeMagic, 8) != 0) {
    return Status::InvalidArgument(
        "not a binary cube file (bad magic); expected the FJCUBE01 header");
  }
  uint32_t version = LoadU32(data + 8);
  if (version != kBinaryCubeVersion) {
    return Status::InvalidArgument(
        "unsupported binary cube version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kBinaryCubeVersion) +
        ")");
  }
  if (LoadU32(data + 60) != Crc32(data, 60)) {
    CrcFailures()->Add(1);
    return Status::InvalidArgument("binary cube header checksum mismatch");
  }
  BinaryCubeHeader h;
  h.flags = LoadU32(data + 12);
  h.dims[0] = LoadU64(data + 16);
  h.dims[1] = LoadU64(data + 24);
  h.dims[2] = LoadU64(data + 32);
  h.present = LoadU64(data + 40);
  h.payload_bytes = LoadU64(data + 48);
  h.payload_crc = LoadU32(data + 56);
  return h;
}

size_t AxisTableBytes(const BinaryCubeHeader& h) {
  return 4 * static_cast<size_t>(h.dims[0] + h.dims[1] + h.dims[2]);
}

size_t PadTo8(size_t offset) { return (8 - offset % 8) % 8; }

void AppendAxisIds(std::string* out, const std::vector<int32_t>& ids) {
  for (int32_t id : ids) {
    unsigned char buf[4];
    StoreI32(buf, id);
    out->append(reinterpret_cast<const char*>(buf), 4);
  }
}

void AppendNames(std::string* out, const std::vector<std::string>* names,
                 size_t axis_size) {
  for (size_t i = 0; i < axis_size; ++i) {
    const std::string& name =
        names != nullptr && i < names->size() ? (*names)[i] : std::string();
    unsigned char buf[4];
    StoreU32(buf, static_cast<uint32_t>(name.size()));
    out->append(reinterpret_cast<const char*>(buf), 4);
    out->append(name);
  }
}

// Sizes of the column-block cell section for G groups and Q·L columns.
struct BlockLayout {
  size_t words = 0;        // presence words per block: ⌈G/64⌉
  size_t block_bytes = 0;  // 8 · (words + G)
  size_t table_bytes = 0;  // the slot table plus its padding to 8 bytes

  BlockLayout(size_t num_groups, size_t num_columns)
      : words((num_groups + 63) / 64),
        block_bytes(8 * (words + num_groups)),
        table_bytes(4 * num_columns + PadTo8(4 * num_columns)) {}
};

// Writes one column block (presence words, then values) to `out`, which
// holds layout.block_bytes bytes.
void EncodeBlock(const std::optional<double>* values, size_t num_groups,
                 const BlockLayout& layout, unsigned char* out) {
  for (size_t w = 0; w < layout.words; ++w) {
    uint64_t word = 0;
    for (size_t g = 64 * w; g < std::min(num_groups, 64 * (w + 1)); ++g) {
      if (values[g].has_value()) word |= uint64_t{1} << (g % 64);
    }
    StoreU64(out + 8 * w, word);
  }
  unsigned char* cells = out + 8 * layout.words;
  for (size_t g = 0; g < num_groups; ++g) {
    StoreF64(cells + 8 * g, values[g].value_or(0.0));
  }
}

// Decodes one column block into values[0, G). Errors: InvalidArgument on
// presence bits past G, a block without a present cell (writers never emit
// one), or a non-finite present value. Returns the present count.
Result<size_t> DecodeBlock(const unsigned char* block, size_t num_groups,
                           const BlockLayout& layout,
                           std::optional<double>* values) {
  size_t present = 0;
  const unsigned char* cells = block + 8 * layout.words;
  for (size_t w = 0; w < layout.words; ++w) {
    uint64_t word = LoadU64(block + 8 * w);
    size_t end = std::min(num_groups, 64 * (w + 1));
    if (end - 64 * w < 64 && (word >> (end - 64 * w)) != 0) {
      return Status::InvalidArgument(
          "binary cube column block has presence bits past the group axis");
    }
    for (size_t g = 64 * w; g < end; ++g) {
      if ((word >> (g % 64) & 1) == 0) {
        values[g].reset();
        continue;
      }
      double v = LoadF64(cells + 8 * g);
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("binary cube holds a non-finite cell");
      }
      values[g] = v;
      ++present;
    }
  }
  if (present == 0) {
    return Status::InvalidArgument(
        "binary cube column block has no present cell");
  }
  return present;
}

std::vector<int32_t> AxisIdsOf(const UnfairnessCube& cube, Dimension d) {
  std::vector<int32_t> ids(cube.axis_size(d));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = cube.axis_id(d, i);
  return ids;
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
#if defined(FAIRJOB_CUBE_IO_POSIX)
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("short write to '" + path + "'");
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return Status::OK();
#else
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (n != bytes.size()) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
#endif
}

}  // namespace

Status SaveCubeBinary(const std::string& path, const UnfairnessCube& cube,
                      const CubeNames* names,
                      const BinaryCubeWriteOptions& options) {
  ScopedTimer timer(BinarySaveLatency());
  size_t g_size = cube.axis_size(Dimension::kGroup);
  size_t q_size = cube.axis_size(Dimension::kQuery);
  size_t l_size = cube.axis_size(Dimension::kLocation);
  if (names != nullptr) {
    if (names->groups.size() != g_size || names->queries.size() != q_size ||
        names->locations.size() != l_size) {
      return Status::InvalidArgument(
          "cube names axis lengths do not match the cube");
    }
  }
  size_t num_columns = q_size * l_size;
  BlockLayout layout(g_size, num_columns);

  std::vector<std::optional<double>> cells(g_size);
  auto load_cells = [&](size_t c) {
    UnfairnessCube::Column column = cube.column(c / l_size, c % l_size);
    for (size_t g = 0; g < g_size; ++g) cells[g] = column.Get(g);
  };
  // The columns with a present cell, in column order.
  std::vector<size_t> block_columns;
  size_t present = 0;
  for (size_t c = 0; c < num_columns; ++c) {
    if (!cube.column(c / l_size, c % l_size).stored()) continue;
    load_cells(c);
    FAIRJOB_RETURN_IF_ERROR(CheckFiniteColumn(cells.data(), g_size));
    size_t n = static_cast<size_t>(
        std::count_if(cells.begin(), cells.end(),
                      [](const std::optional<double>& v) {
                        return v.has_value();
                      }));
    if (n == 0) continue;
    present += n;
    block_columns.push_back(c);
  }

  // Sparse cells in ascending (q·L + l)·G + g order.
  std::string sparse_cells;
  if (options.layout != BinaryCubeWriteOptions::Layout::kDense) {
    uint64_t prev = uint64_t(-1);
    unsigned char buf[8];
    for (size_t c : block_columns) {
      load_cells(c);
      for (size_t g = 0; g < g_size; ++g) {
        const std::optional<double>& v = cells[g];
        if (!v.has_value()) continue;
        uint64_t index = c * g_size + g;
        AppendVarint(&sparse_cells, index - prev);
        prev = index;
        StoreF64(buf, *v);
        sparse_cells.append(reinterpret_cast<const char*>(buf), 8);
      }
    }
  }
  size_t block_cells_bytes =
      layout.table_bytes + block_columns.size() * layout.block_bytes;
  bool sparse;
  switch (options.layout) {
    case BinaryCubeWriteOptions::Layout::kDense:
      sparse = false;
      break;
    case BinaryCubeWriteOptions::Layout::kSparse:
      sparse = true;
      break;
    case BinaryCubeWriteOptions::Layout::kAuto:
    default:
      sparse = sparse_cells.size() < block_cells_bytes;
      break;
  }

  std::string payload;
  AppendAxisIds(&payload, AxisIdsOf(cube, Dimension::kGroup));
  AppendAxisIds(&payload, AxisIdsOf(cube, Dimension::kQuery));
  AppendAxisIds(&payload, AxisIdsOf(cube, Dimension::kLocation));
  AppendNames(&payload, names != nullptr ? &names->groups : nullptr, g_size);
  AppendNames(&payload, names != nullptr ? &names->queries : nullptr, q_size);
  AppendNames(&payload, names != nullptr ? &names->locations : nullptr,
              l_size);
  payload.append(PadTo8(kBinaryCubeHeaderBytes + payload.size()), '\0');
  if (sparse) {
    payload += sparse_cells;
  } else {
    size_t table_at = payload.size();
    payload.resize(table_at + block_cells_bytes, '\0');
    unsigned char* table =
        reinterpret_cast<unsigned char*>(payload.data()) + table_at;
    for (size_t c = 0; c < num_columns; ++c) StoreU32(table + 4 * c, kNoBlock);
    for (size_t b = 0; b < block_columns.size(); ++b) {
      StoreU32(table + 4 * block_columns[b], static_cast<uint32_t>(b));
      load_cells(block_columns[b]);
      EncodeBlock(cells.data(), g_size, layout,
                  table + layout.table_bytes + b * layout.block_bytes);
    }
  }

  BinaryCubeHeader header;
  header.flags = sparse ? kBinaryCubeFlagSparse : 0;
  header.dims[0] = g_size;
  header.dims[1] = q_size;
  header.dims[2] = l_size;
  header.present = present;
  header.payload_bytes = payload.size();
  header.payload_crc = Crc32(payload.data(), payload.size());

  std::string file(kBinaryCubeHeaderBytes, '\0');
  SerializeHeader(header,
                  reinterpret_cast<unsigned char*>(file.data()));
  file += payload;
  FAIRJOB_RETURN_IF_ERROR(WriteFileBytes(path, file));
  BinaryBytesWritten()->Add(file.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MappedCube
// ---------------------------------------------------------------------------

MappedCube::MappedCube(MappedCube&& other) noexcept {
  *this = std::move(other);
}

MappedCube& MappedCube::operator=(MappedCube&& other) noexcept {
  if (this == &other) return *this;
  Release();
  data_ = other.data_;
  bytes_ = other.bytes_;
  mapped_ = other.mapped_;
  dense_ = other.dense_;
  present_ = other.present_;
  for (size_t i = 0; i < 3; ++i) axis_sizes_[i] = other.axis_sizes_[i];
  axis_ids_ = other.axis_ids_;
  names_ = other.names_;
  cells_ = other.cells_;
  cells_bytes_ = other.cells_bytes_;
  blocks_ = other.blocks_;
  num_blocks_ = other.num_blocks_;
  other.data_ = nullptr;
  other.bytes_ = 0;
  other.mapped_ = false;
  return *this;
}

MappedCube::~MappedCube() { Release(); }

void MappedCube::Release() {
  if (data_ == nullptr) return;
#if defined(FAIRJOB_CUBE_IO_POSIX)
  if (mapped_) {
    ::munmap(const_cast<unsigned char*>(data_), bytes_);
    data_ = nullptr;
    return;
  }
#endif
  delete[] data_;
  data_ = nullptr;
}

Result<MappedCube> MappedCube::Open(const std::string& path,
                                    const Options& options) {
  ScopedTimer timer(BinaryOpenLatency());
  MappedCube cube;
#if defined(FAIRJOB_CUBE_IO_POSIX)
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  cube.bytes_ = static_cast<size_t>(st.st_size);
  void* mapping = cube.bytes_ == 0
                      ? MAP_FAILED
                      : ::mmap(nullptr, cube.bytes_, PROT_READ, MAP_PRIVATE,
                               fd, 0);
  if (mapping != MAP_FAILED) {
    cube.data_ = static_cast<const unsigned char*>(mapping);
    cube.mapped_ = true;
    ::close(fd);
  } else {
    // Zero-byte or unmappable file: fall back to a heap read so the header
    // validation below reports the real problem.
    unsigned char* buffer = new unsigned char[cube.bytes_ + 1];
    size_t done = 0;
    while (done < cube.bytes_) {
      ssize_t n = ::pread(fd, buffer + done, cube.bytes_ - done,
                          static_cast<off_t>(done));
      if (n <= 0) {
        delete[] buffer;
        ::close(fd);
        return Status::IOError("short read from '" + path + "'");
      }
      done += static_cast<size_t>(n);
    }
    ::close(fd);
    cube.data_ = buffer;
    cube.mapped_ = false;
  }
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("cannot stat '" + path + "'");
  }
  cube.bytes_ = static_cast<size_t>(size);
  unsigned char* buffer = new unsigned char[cube.bytes_ + 1];
  size_t n = std::fread(buffer, 1, cube.bytes_, f);
  std::fclose(f);
  if (n != cube.bytes_) {
    delete[] buffer;
    return Status::IOError("short read from '" + path + "'");
  }
  cube.data_ = buffer;
  cube.mapped_ = false;
#endif

  FAIRJOB_ASSIGN_OR_RETURN(BinaryCubeHeader header,
                           ParseHeader(cube.data_, cube.bytes_));
  if (header.payload_bytes != cube.bytes_ - kBinaryCubeHeaderBytes) {
    return Status::InvalidArgument(
        "binary cube file truncated: header promises " +
        std::to_string(header.payload_bytes) + " payload bytes, file has " +
        std::to_string(cube.bytes_ - kBinaryCubeHeaderBytes));
  }
  const unsigned char* payload = cube.data_ + kBinaryCubeHeaderBytes;
  if (options.verify_checksum &&
      Crc32(payload, header.payload_bytes) != header.payload_crc) {
    CrcFailures()->Add(1);
    return Status::InvalidArgument("binary cube payload checksum mismatch");
  }

  cube.dense_ = (header.flags & kBinaryCubeFlagSparse) == 0;
  cube.present_ = header.present;
  for (size_t i = 0; i < 3; ++i) {
    if (header.dims[i] == 0 || header.dims[i] > (uint64_t{1} << 31)) {
      return Status::InvalidArgument(
          "binary cube axis size " + std::to_string(header.dims[i]) +
          " is empty or implausibly large (corrupt header?)");
    }
    cube.axis_sizes_[i] = static_cast<size_t>(header.dims[i]);
  }
  size_t cells = cube.num_cells();
  if (cells / cube.axis_sizes_[0] / cube.axis_sizes_[1] !=
      cube.axis_sizes_[2]) {
    return Status::InvalidArgument("binary cube axis sizes overflow");
  }
  if (cube.present_ > cells) {
    return Status::InvalidArgument(
        "binary cube header claims more present cells than exist");
  }
  size_t num_columns = cube.axis_sizes_[1] * cube.axis_sizes_[2];
  if (num_columns >= kNoBlock) {
    return Status::InvalidArgument(
        "binary cube has more columns than its slot table can address");
  }

  // Walk the variable-length sections with bounds checks.
  size_t remaining = header.payload_bytes;
  const unsigned char* p = payload;
  size_t axis_bytes = AxisTableBytes(header);
  if (remaining < axis_bytes) {
    return Status::InvalidArgument("binary cube axis table truncated");
  }
  cube.axis_ids_ = p;
  p += axis_bytes;
  remaining -= axis_bytes;
  cube.names_ = p;
  size_t total_axis = cube.axis_sizes_[0] + cube.axis_sizes_[1] +
                      cube.axis_sizes_[2];
  for (size_t i = 0; i < total_axis; ++i) {
    if (remaining < 4) {
      return Status::InvalidArgument("binary cube name table truncated");
    }
    uint32_t len = LoadU32(p);
    p += 4;
    remaining -= 4;
    if (remaining < len) {
      return Status::InvalidArgument("binary cube name table truncated");
    }
    p += len;
    remaining -= len;
  }
  size_t pad = PadTo8(static_cast<size_t>(p - cube.data_));
  if (remaining < pad) {
    return Status::InvalidArgument("binary cube cell section truncated");
  }
  p += pad;
  remaining -= pad;
  cube.cells_ = p;
  cube.cells_bytes_ = remaining;
  if (cube.dense_) {
    BlockLayout layout(cube.axis_sizes_[0], num_columns);
    if (remaining < layout.table_bytes ||
        (remaining - layout.table_bytes) % layout.block_bytes != 0 ||
        (remaining - layout.table_bytes) / layout.block_bytes > num_columns) {
      return Status::InvalidArgument(
          "binary cube column-block section has " +
          std::to_string(remaining) + " bytes, not a slot table plus " +
          std::to_string(layout.block_bytes) + "-byte blocks");
    }
    cube.blocks_ = cube.cells_ + layout.table_bytes;
    cube.num_blocks_ = (remaining - layout.table_bytes) / layout.block_bytes;
    if (cube.present_ > cube.num_blocks_ * cube.axis_sizes_[0]) {
      return Status::InvalidArgument(
          "binary cube header claims more present cells than its blocks "
          "hold");
    }
  }
  return cube;
}

int32_t MappedCube::axis_id(Dimension d, size_t pos) const {
  size_t base = 0;
  for (size_t i = 0; i < AxisIndex(d); ++i) base += axis_sizes_[i];
  return LoadI32(axis_ids_ + 4 * (base + pos));
}

size_t MappedCube::num_cells() const {
  return axis_sizes_[0] * axis_sizes_[1] * axis_sizes_[2];
}

std::optional<double> MappedCube::Get(size_t g, size_t q, size_t l) const {
  if (!dense_) return std::nullopt;
  uint32_t slot = LoadU32(cells_ + 4 * (q * axis_sizes_[2] + l));
  // kNoBlock, or a slot past the blocks in a file opened without its CRC.
  if (slot >= num_blocks_) return std::nullopt;
  BlockLayout layout(axis_sizes_[0], 0);
  const unsigned char* block = blocks_ + slot * layout.block_bytes;
  uint64_t word = LoadU64(block + 8 * (g / 64));
  if ((word >> (g % 64) & 1) == 0) return std::nullopt;
  return LoadF64(block + 8 * (layout.words + g));
}

Result<CubeNames> MappedCube::Names() const {
  CubeNames names;
  names.groups.reserve(axis_sizes_[0]);
  names.queries.reserve(axis_sizes_[1]);
  names.locations.reserve(axis_sizes_[2]);
  const unsigned char* p = names_;
  for (size_t axis = 0; axis < 3; ++axis) {
    std::vector<std::string>* out =
        axis == 0 ? &names.groups : axis == 1 ? &names.queries
                                              : &names.locations;
    for (size_t i = 0; i < axis_sizes_[axis]; ++i) {
      uint32_t len = LoadU32(p);
      p += 4;
      out->emplace_back(reinterpret_cast<const char*>(p), len);
      p += len;
    }
  }
  return names;
}

Result<UnfairnessCube> MappedCube::Materialize() const {
  std::vector<int32_t> axes[3];
  for (size_t axis = 0; axis < 3; ++axis) {
    axes[axis].resize(axis_sizes_[axis]);
  }
  size_t base = 0;
  for (size_t axis = 0; axis < 3; ++axis) {
    for (size_t i = 0; i < axis_sizes_[axis]; ++i) {
      axes[axis][i] = LoadI32(axis_ids_ + 4 * (base + i));
    }
    base += axis_sizes_[axis];
  }
  FAIRJOB_ASSIGN_OR_RETURN(UnfairnessCube cube,
                           UnfairnessCube::Make(axes[0], axes[1], axes[2]));
  size_t g_size = axis_sizes_[0];
  size_t l_size = axis_sizes_[2];
  size_t cells = num_cells();
  if (dense_) {
    // Blocks are numbered in column order, so the slot table must name
    // 0, 1, 2, ... as it is walked; that also bounds every slot. Columns
    // without a block are never touched.
    size_t num_columns = axis_sizes_[1] * l_size;
    BlockLayout layout(g_size, num_columns);
    std::vector<std::optional<double>> column(g_size);
    uint64_t next_block = 0;
    uint64_t decoded = 0;
    for (size_t c = 0; c < num_columns; ++c) {
      uint32_t slot = LoadU32(cells_ + 4 * c);
      if (slot == kNoBlock) continue;
      if (slot != next_block || next_block == num_blocks_) {
        return Status::InvalidArgument(
            "binary cube slot table does not number its blocks in column "
            "order");
      }
      FAIRJOB_ASSIGN_OR_RETURN(
          size_t present,
          DecodeBlock(blocks_ + slot * layout.block_bytes, g_size, layout,
                      column.data()));
      decoded += present;
      ++next_block;
      cube.SetColumn(c / l_size, c % l_size, column.data(), g_size);
    }
    if (next_block != num_blocks_) {
      return Status::InvalidArgument(
          "binary cube holds blocks that no column names");
    }
    if (decoded != present_) {
      return Status::InvalidArgument(
          "binary cube decodes " + std::to_string(decoded) +
          " present cells, but its header says " + std::to_string(present_));
    }
  } else {
    const unsigned char* p = cells_;
    const unsigned char* end = cells_ + cells_bytes_;
    uint64_t prev = uint64_t(-1);
    for (uint64_t k = 0; k < present_; ++k) {
      uint64_t delta = 0;
      p = ParseVarint(p, end, &delta);
      if (p == nullptr || delta == 0 || end - p < 8) {
        return Status::InvalidArgument(
            "binary cube sparse cell stream truncated or malformed");
      }
      uint64_t index = prev + delta;
      prev = index;
      if (index >= cells) {
        return Status::InvalidArgument(
            "binary cube sparse cell index out of range");
      }
      double v = LoadF64(p);
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("binary cube holds a non-finite cell");
      }
      size_t g = static_cast<size_t>(index) % g_size;
      size_t rest = static_cast<size_t>(index) / g_size;
      cube.Set(g, rest / l_size, rest % l_size, v);
      p += 8;
    }
    if (p != end) {
      return Status::InvalidArgument(
          "binary cube sparse cell stream has trailing bytes");
    }
  }
  return cube;
}

Result<UnfairnessCube> LoadCubeBinary(const std::string& path) {
  FAIRJOB_ASSIGN_OR_RETURN(MappedCube mapped, MappedCube::Open(path));
  return mapped.Materialize();
}

// ---------------------------------------------------------------------------
// BinaryCubeColumnWriter
// ---------------------------------------------------------------------------

class BinaryCubeColumnWriter::Impl {
 public:
  ~Impl() {
#if defined(FAIRJOB_CUBE_IO_POSIX)
    if (fd_ >= 0) ::close(fd_);
#endif
  }

  Status Init(const std::string& path, const CubeAxes& axes,
              const CubeNames* names) {
#if !defined(FAIRJOB_CUBE_IO_POSIX)
    (void)path;
    (void)axes;
    (void)names;
    return Status::Internal(
        "BinaryCubeColumnWriter requires POSIX file I/O on this platform; "
        "build the cube in memory and use SaveCubeBinary instead");
#else
    if (axes.groups.empty() || axes.queries.empty() ||
        axes.locations.empty()) {
      return Status::InvalidArgument(
          "binary cube writer needs non-empty axes");
    }
    if (names != nullptr &&
        (names->groups.size() != axes.groups.size() ||
         names->queries.size() != axes.queries.size() ||
         names->locations.size() != axes.locations.size())) {
      return Status::InvalidArgument(
          "cube names axis lengths do not match the axes");
    }
    path_ = path;
    g_size_ = axes.groups.size();
    q_size_ = axes.queries.size();
    l_size_ = axes.locations.size();
    num_columns_ = q_size_ * l_size_;
    if (num_columns_ >= kNoBlock) {
      return Status::InvalidArgument(
          "binary cube writer axes have more columns than a slot table can "
          "address");
    }
    layout_ = BlockLayout(g_size_, num_columns_);
    streamed_.assign((num_columns_ + 63) / 64, 0);

    // Header placeholder + axis/name tables + padding, then the slot table
    // (written by Finish) and the blocks, appended as columns arrive.
    std::string prefix(kBinaryCubeHeaderBytes, '\0');
    AppendAxisIds(&prefix, axes.groups);
    AppendAxisIds(&prefix, axes.queries);
    AppendAxisIds(&prefix, axes.locations);
    AppendNames(&prefix, names != nullptr ? &names->groups : nullptr,
                g_size_);
    AppendNames(&prefix, names != nullptr ? &names->queries : nullptr,
                q_size_);
    AppendNames(&prefix, names != nullptr ? &names->locations : nullptr,
                l_size_);
    prefix.append(PadTo8(prefix.size()), '\0');
    table_offset_ = prefix.size();
    blocks_offset_ = table_offset_ + layout_.table_bytes;

    fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
    if (fd_ < 0) {
      return Status::IOError("cannot open '" + path + "' for writing");
    }
    return WriteAt(prefix.data(), prefix.size(), 0);
#endif
  }

  Status Consume(size_t query_pos, size_t location_pos,
                 const std::optional<double>* values, size_t num_groups) {
#if !defined(FAIRJOB_CUBE_IO_POSIX)
    (void)query_pos;
    (void)location_pos;
    (void)values;
    (void)num_groups;
    return Status::Internal("BinaryCubeColumnWriter requires POSIX file I/O");
#else
    if (finished_) {
      return Status::FailedPrecondition(
          "binary cube writer already finished");
    }
    if (num_groups != g_size_ || query_pos >= q_size_ ||
        location_pos >= l_size_) {
      return Status::InvalidArgument(
          "streamed column does not match the writer's axes");
    }
    FAIRJOB_RETURN_IF_ERROR(CheckFiniteColumn(values, num_groups));
    size_t column = query_pos * l_size_ + location_pos;
    size_t present = 0;
    for (size_t g = 0; g < g_size_; ++g) present += values[g].has_value();
    size_t block = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      uint64_t& streamed = streamed_[column / 64];
      const uint64_t bit = uint64_t{1} << (column % 64);
      if ((streamed & bit) != 0) {
        return Status::FailedPrecondition(
            "column (" + std::to_string(query_pos) + ", " +
            std::to_string(location_pos) + ") was already streamed");
      }
      streamed |= bit;
      // An all-absent column gets no block.
      if (present > 0) {
        block = block_columns_.size();
        block_columns_.push_back(column);
      }
    }
    if (present > 0) {
      std::vector<unsigned char> buf(layout_.block_bytes);
      EncodeBlock(values, g_size_, layout_, buf.data());
      FAIRJOB_RETURN_IF_ERROR(
          WriteAt(buf.data(), buf.size(),
                  blocks_offset_ + block * layout_.block_bytes));
      present_count_.fetch_add(present, std::memory_order_relaxed);
    }
    ColumnsStreamed()->Add(1);
    return Status::OK();
#endif
  }

  Status Finish() {
#if !defined(FAIRJOB_CUBE_IO_POSIX)
    return Status::Internal("BinaryCubeColumnWriter requires POSIX file I/O");
#else
    if (finished_) {
      return Status::FailedPrecondition(
          "binary cube writer already finished");
    }
    finished_ = true;
    FAIRJOB_RETURN_IF_ERROR(SortBlocksByColumn());
    std::string table(layout_.table_bytes, '\0');
    unsigned char* entries = reinterpret_cast<unsigned char*>(table.data());
    for (size_t c = 0; c < num_columns_; ++c) {
      StoreU32(entries + 4 * c, kNoBlock);
    }
    for (size_t b = 0; b < block_columns_.size(); ++b) {
      StoreU32(entries + 4 * block_columns_[b], static_cast<uint32_t>(b));
    }
    FAIRJOB_RETURN_IF_ERROR(WriteAt(table.data(), table.size(), table_offset_));
    size_t file_bytes =
        blocks_offset_ + block_columns_.size() * layout_.block_bytes;

    // One sequential read-back pass checksums the payload exactly as a
    // reader will see it.
    uint32_t crc = 0;
    std::vector<unsigned char> chunk(1 << 20);
    size_t offset = kBinaryCubeHeaderBytes;
    while (offset < file_bytes) {
      size_t want = std::min(chunk.size(), file_bytes - offset);
      ssize_t n = ::pread(fd_, chunk.data(), want,
                          static_cast<off_t>(offset));
      if (n <= 0) {
        return Status::IOError("short read while checksumming '" + path_ +
                               "'");
      }
      crc = Crc32Update(crc, chunk.data(), static_cast<size_t>(n));
      offset += static_cast<size_t>(n);
    }

    BinaryCubeHeader header;
    header.flags = 0;
    header.dims[0] = g_size_;
    header.dims[1] = q_size_;
    header.dims[2] = l_size_;
    header.present = present_count_.load(std::memory_order_relaxed);
    header.payload_bytes = file_bytes - kBinaryCubeHeaderBytes;
    header.payload_crc = crc;
    unsigned char header_bytes[kBinaryCubeHeaderBytes];
    SerializeHeader(header, header_bytes);
    FAIRJOB_RETURN_IF_ERROR(WriteAt(header_bytes, sizeof(header_bytes), 0));
    BinaryBytesWritten()->Add(file_bytes);
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      return Status::IOError("cannot close '" + path_ + "'");
    }
    return Status::OK();
#endif
  }

 private:
#if defined(FAIRJOB_CUBE_IO_POSIX)
  Status WriteAt(const void* data, size_t bytes, size_t offset) {
    const char* p = static_cast<const char*>(data);
    size_t done = 0;
    while (done < bytes) {
      ssize_t n = ::pwrite(fd_, p + done, bytes - done,
                           static_cast<off_t>(offset + done));
      if (n <= 0) {
        return Status::IOError("short write to '" + path_ + "'");
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status ReadAt(void* data, size_t bytes, size_t offset) {
    char* p = static_cast<char*>(data);
    size_t done = 0;
    while (done < bytes) {
      ssize_t n = ::pread(fd_, p + done, bytes - done,
                          static_cast<off_t>(offset + done));
      if (n <= 0) {
        return Status::IOError("short read from '" + path_ + "'");
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  // Blocks land in arrival order, which depends on thread timing. Permutes
  // them in place into column order, one cycle of the permutation at a
  // time, so the file's bytes depend only on the cube.
  Status SortBlocksByColumn() {
    size_t n = block_columns_.size();
    std::vector<size_t> by_column(n);
    for (size_t i = 0; i < n; ++i) by_column[i] = i;
    std::sort(by_column.begin(), by_column.end(), [&](size_t a, size_t b) {
      return block_columns_[a] < block_columns_[b];
    });
    std::vector<size_t> target(n);  // arrival block -> sorted block
    for (size_t k = 0; k < n; ++k) target[by_column[k]] = k;
    std::vector<unsigned char> moving(layout_.block_bytes);
    std::vector<unsigned char> displaced(layout_.block_bytes);
    auto at = [&](size_t block) {
      return blocks_offset_ + block * layout_.block_bytes;
    };
    for (size_t start = 0; start < n; ++start) {
      if (target[start] == start) continue;
      FAIRJOB_RETURN_IF_ERROR(ReadAt(moving.data(), moving.size(), at(start)));
      size_t from = start;
      while (target[from] != from) {
        size_t to = target[from];
        if (to != start) {
          FAIRJOB_RETURN_IF_ERROR(
              ReadAt(displaced.data(), displaced.size(), at(to)));
        }
        FAIRJOB_RETURN_IF_ERROR(WriteAt(moving.data(), moving.size(), at(to)));
        target[from] = from;  // settled
        std::swap(moving, displaced);
        from = to;
        if (from == start) break;
      }
    }
    std::sort(block_columns_.begin(), block_columns_.end());
    return Status::OK();
  }

  int fd_ = -1;
#endif
  std::string path_;
  size_t g_size_ = 0;
  size_t q_size_ = 0;
  size_t l_size_ = 0;
  size_t num_columns_ = 0;
  BlockLayout layout_{0, 0};
  size_t table_offset_ = 0;
  size_t blocks_offset_ = 0;
  bool finished_ = false;
  std::mutex mutex_;  // guards streamed_ and block_columns_
  std::vector<uint64_t> streamed_;  // bit per (query, location) column
  std::vector<size_t> block_columns_;  // column of each written block
  std::atomic<uint64_t> present_count_{0};
};

BinaryCubeColumnWriter::BinaryCubeColumnWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

BinaryCubeColumnWriter::~BinaryCubeColumnWriter() = default;

Result<std::unique_ptr<BinaryCubeColumnWriter>> BinaryCubeColumnWriter::Create(
    const std::string& path, const CubeAxes& axes, const CubeNames* names) {
  auto impl = std::make_unique<Impl>();
  FAIRJOB_RETURN_IF_ERROR(impl->Init(path, axes, names));
  return std::unique_ptr<BinaryCubeColumnWriter>(
      new BinaryCubeColumnWriter(std::move(impl)));
}

Status BinaryCubeColumnWriter::Consume(size_t query_pos, size_t location_pos,
                                       const std::optional<double>* values,
                                       size_t num_groups) {
  return impl_->Consume(query_pos, location_pos, values, num_groups);
}

Status BinaryCubeColumnWriter::Finish() { return impl_->Finish(); }

}  // namespace fairjob
