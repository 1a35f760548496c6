#include "crawl/cube_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "crawl/csv.h"
#include "serve/cache_key.h"
#include "serve/incremental.h"

namespace fairjob {
namespace {

// Exact (bitwise) cell equality, the contract every persistence path and
// the sharded build share with the in-memory reference.
void ExpectCubesIdentical(const UnfairnessCube& a, const UnfairnessCube& b) {
  ASSERT_EQ(a.axis_size(Dimension::kGroup), b.axis_size(Dimension::kGroup));
  ASSERT_EQ(a.axis_size(Dimension::kQuery), b.axis_size(Dimension::kQuery));
  ASSERT_EQ(a.axis_size(Dimension::kLocation),
            b.axis_size(Dimension::kLocation));
  for (Dimension d :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    for (size_t pos = 0; pos < a.axis_size(d); ++pos) {
      ASSERT_EQ(a.axis_id(d, pos), b.axis_id(d, pos));
    }
  }
  for (size_t g = 0; g < a.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < a.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < a.axis_size(Dimension::kLocation); ++l) {
        ASSERT_EQ(a.Get(g, q, l), b.Get(g, q, l))
            << "g=" << g << " q=" << q << " l=" << l;
      }
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

UnfairnessCube SampleCube() {
  UnfairnessCube cube = *UnfairnessCube::Make({10, 11}, {20, 21, 22}, {30});
  cube.Set(0, 0, 0, 0.123456789012345);
  cube.Set(0, 2, 0, 0.5);
  cube.Set(1, 1, 0, 1.0 / 3.0);
  // (0,1,0), (1,0,0), (1,2,0) left missing.
  return cube;
}

std::string TestNamer(Dimension d, int32_t id, const void*) {
  return std::string(DimensionName(d)) + "#" + std::to_string(id);
}

TEST(CubeIoTest, RowsRoundTripValuesAndHoles) {
  UnfairnessCube cube = SampleCube();
  Result<UnfairnessCube> restored = CubeFromCsvRows(CubeToCsvRows(cube));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->axis_size(Dimension::kGroup), 2u);
  EXPECT_EQ(restored->axis_size(Dimension::kQuery), 3u);
  EXPECT_EQ(restored->axis_size(Dimension::kLocation), 1u);
  EXPECT_EQ(restored->axis_id(Dimension::kQuery, 2), 22);
  EXPECT_EQ(restored->num_present(), 3u);
  EXPECT_NEAR(*restored->Get(0, 0, 0), 0.123456789012345, 1e-15);
  EXPECT_NEAR(*restored->Get(1, 1, 0), 1.0 / 3.0, 1e-15);
  EXPECT_FALSE(restored->Get(0, 1, 0).has_value());
}

TEST(CubeIoTest, NamesRoundTrip) {
  UnfairnessCube cube = SampleCube();
  auto rows = CubeToCsvRows(cube, &TestNamer, nullptr);
  Result<CubeNames> names = CubeNamesFromCsvRows(rows);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->groups.size(), 2u);
  EXPECT_EQ(names->groups[1], "group#11");
  EXPECT_EQ(names->queries[0], "query#20");
  EXPECT_EQ(names->locations[0], "location#30");
}

TEST(CubeIoTest, NamesDefaultToEmpty) {
  auto rows = CubeToCsvRows(SampleCube());
  CubeNames names = *CubeNamesFromCsvRows(rows);
  EXPECT_EQ(names.groups[0], "");
}

TEST(CubeIoTest, SurvivesCsvTextSerialization) {
  UnfairnessCube cube = SampleCube();
  std::string text = WriteCsv(CubeToCsvRows(cube, &TestNamer, nullptr));
  Result<UnfairnessCube> restored = CubeFromCsvRows(*ParseCsv(text));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_present(), 3u);
}

TEST(CubeIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/fairjob_cube_test.csv";
  UnfairnessCube cube = SampleCube();
  ASSERT_TRUE(SaveCube(path, cube).ok());
  Result<UnfairnessCube> restored = LoadCube(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_present(), cube.num_present());
  std::remove(path.c_str());
}

TEST(CubeIoTest, RejectsMalformedRows) {
  EXPECT_FALSE(CubeFromCsvRows({{"axis", "group", "1"}}).ok());  // 3 fields
  EXPECT_FALSE(CubeFromCsvRows({{"axis", "planet", "1", ""}}).ok());
  EXPECT_FALSE(CubeFromCsvRows({{"blob", "x"}}).ok());
  EXPECT_FALSE(
      CubeFromCsvRows({{"axis", "group", "abc", ""}}).ok());  // bad id
}

TEST(CubeIoTest, RejectsCellsOutOfRange) {
  auto rows = CubeToCsvRows(SampleCube());
  rows.push_back({"cell", "9", "0", "0", "0.5"});
  EXPECT_FALSE(CubeFromCsvRows(rows).ok());
}

TEST(CubeIoTest, RejectsBadCellValue) {
  auto rows = CubeToCsvRows(SampleCube());
  rows.push_back({"cell", "0", "0", "0", "zero point five"});
  EXPECT_FALSE(CubeFromCsvRows(rows).ok());
}

// strtod reads these; a NaN cell would reach the engines' comparators.
TEST(CubeIoTest, RejectsNanCellValue) {
  auto rows = CubeToCsvRows(SampleCube());
  rows.push_back({"cell", "0", "0", "0", "nan"});
  Result<UnfairnessCube> cube = CubeFromCsvRows(rows);
  ASSERT_FALSE(cube.ok());
  EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument);
}

TEST(CubeIoTest, RejectsInfiniteCellValues) {
  for (const char* value : {"inf", "-inf", "1e999"}) {
    auto rows = CubeToCsvRows(SampleCube());
    rows.push_back({"cell", "0", "0", "0", value});
    Result<UnfairnessCube> cube = CubeFromCsvRows(rows);
    ASSERT_FALSE(cube.ok()) << value;
    EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument) << value;
  }
}

// Axis rows for a one-cell cube whose group id is `group_id`.
std::vector<std::vector<std::string>> OneCellAxes(const char* group_id) {
  return {{"axis", "group", group_id, ""},
          {"axis", "query", "0", ""},
          {"axis", "location", "0", ""}};
}

// 4294967297 = 2^32 + 1 would wrap to id 1 under a plain int32 cast.
TEST(CubeIoTest, RejectsAxisIdsOutsideInt32) {
  for (const char* id : {"4294967297", "2147483648", "-2147483649"}) {
    Result<UnfairnessCube> cube = CubeFromCsvRows(OneCellAxes(id));
    ASSERT_FALSE(cube.ok()) << id;
    EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument) << id;
  }
  // The int32 extremes still load.
  for (const char* id : {"2147483647", "-2147483648"}) {
    Result<UnfairnessCube> cube = CubeFromCsvRows(OneCellAxes(id));
    ASSERT_TRUE(cube.ok()) << id << ": " << cube.status().message();
    EXPECT_EQ(cube->axis_id(Dimension::kGroup, 0), std::stoll(id));
  }
}

TEST(CubeIoTest, RejectsDuplicateAxisIds) {
  std::vector<std::vector<std::string>> rows = {
      {"axis", "group", "1", ""}, {"axis", "group", "1", ""},
      {"axis", "query", "1", ""}, {"axis", "location", "1", ""},
  };
  EXPECT_FALSE(CubeFromCsvRows(rows).ok());
}

TEST(CubeIoTest, LargeRandomCubeRoundTrips) {
  UnfairnessCube cube = *UnfairnessCube::Make(
      {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5, 6}, {0, 1, 2});
  Rng rng(99);
  for (size_t g = 0; g < 5; ++g) {
    for (size_t q = 0; q < 7; ++q) {
      for (size_t l = 0; l < 3; ++l) {
        if (rng.NextBernoulli(0.6)) cube.Set(g, q, l, rng.NextDouble());
      }
    }
  }
  UnfairnessCube restored = *CubeFromCsvRows(CubeToCsvRows(cube));
  ASSERT_EQ(restored.num_present(), cube.num_present());
  for (size_t g = 0; g < 5; ++g) {
    for (size_t q = 0; q < 7; ++q) {
      for (size_t l = 0; l < 3; ++l) {
        std::optional<double> a = cube.Get(g, q, l);
        std::optional<double> b = restored.Get(g, q, l);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_NEAR(*a, *b, 1e-15);
        }
      }
    }
  }
}

// --- binary format ----------------------------------------------------------

// Values picked to break lossy serialization: non-terminating binary
// fractions, tiny magnitudes (where fixed-decimal CSV formatting used to
// truncate), negatives, and exact integers.
UnfairnessCube AwkwardCube() {
  UnfairnessCube cube =
      *UnfairnessCube::Make({10, 11, 12}, {20, 21, 22, 23}, {30, 31});
  cube.Set(0, 0, 0, 1.0 / 3.0);
  cube.Set(0, 3, 1, 4.9406564584124654e-312);
  cube.Set(1, 1, 0, -0.000123456789012345678);
  cube.Set(1, 2, 1, 1.0);
  cube.Set(2, 0, 1, 0.1 + 0.2);
  cube.Set(2, 3, 0, 7.389056098930650e-9);
  return cube;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryCubeIoTest, DenseRoundTripIsBitwise) {
  std::string path = TempPath("dense.fjcube");
  UnfairnessCube cube = AwkwardCube();
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(path, cube, nullptr, options).ok());
  Result<UnfairnessCube> restored = LoadCubeBinary(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectCubesIdentical(cube, *restored);
  std::remove(path.c_str());
}

TEST(BinaryCubeIoTest, SparseRoundTripIsBitwise) {
  std::string path = TempPath("sparse.fjcube");
  UnfairnessCube cube = AwkwardCube();
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kSparse;
  ASSERT_TRUE(SaveCubeBinary(path, cube, nullptr, options).ok());
  Result<UnfairnessCube> restored = LoadCubeBinary(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectCubesIdentical(cube, *restored);
  std::remove(path.c_str());
}

TEST(BinaryCubeIoTest, CsvAndBinaryLoadsAreBitwiseIdentical) {
  std::string bin_path = TempPath("diff.fjcube");
  std::string csv_path = TempPath("diff.csv");
  UnfairnessCube cube = AwkwardCube();
  ASSERT_TRUE(SaveCubeBinary(bin_path, cube).ok());
  ASSERT_TRUE(SaveCube(csv_path, cube).ok());
  UnfairnessCube from_binary = *LoadCubeBinary(bin_path);
  UnfairnessCube from_csv = *LoadCube(csv_path);
  ExpectCubesIdentical(from_binary, from_csv);
  ExpectCubesIdentical(cube, from_binary);
  std::remove(bin_path.c_str());
  std::remove(csv_path.c_str());
}

// kAuto writes whichever layout is smaller: full columns of 32 groups cost
// 8 bytes a cell as blocks against ~9 sparse, so they go dense; a lone
// cell goes sparse.
TEST(BinaryCubeIoTest, AutoLayoutTracksDensity) {
  std::string path = TempPath("auto.fjcube");
  std::vector<int32_t> groups(32);
  for (size_t g = 0; g < groups.size(); ++g) {
    groups[g] = static_cast<int32_t>(g);
  }
  UnfairnessCube full = *UnfairnessCube::Make(groups, {20, 21}, {30, 31});
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t q = 0; q < 2; ++q) {
      for (size_t l = 0; l < 2; ++l) {
        full.Set(g, q, l, 0.01 * static_cast<double>(g + 7 * q + 3 * l));
      }
    }
  }
  ASSERT_TRUE(SaveCubeBinary(path, full).ok());
  EXPECT_TRUE(MappedCube::Open(path)->dense());
  ExpectCubesIdentical(full, *LoadCubeBinary(path));
  // 1 of 24 present: sparse.
  UnfairnessCube sparse =
      *UnfairnessCube::Make({10, 11, 12}, {20, 21, 22, 23}, {30, 31});
  sparse.Set(1, 1, 1, 0.5);
  ASSERT_TRUE(SaveCubeBinary(path, sparse).ok());
  EXPECT_FALSE(MappedCube::Open(path)->dense());
  ExpectCubesIdentical(sparse, *LoadCubeBinary(path));
  std::remove(path.c_str());
}

TEST(BinaryCubeIoTest, NamesRoundTripVerbatim) {
  std::string path = TempPath("named.fjcube");
  UnfairnessCube cube = *UnfairnessCube::Make({10, 11}, {20}, {30});
  cube.Set(0, 0, 0, 0.25);
  CubeNames names;
  names.groups = {"gender=Female", ""};
  names.queries = {"handyman, with \"quotes\" and, commas"};
  names.locations = {"San Francisco"};
  ASSERT_TRUE(SaveCubeBinary(path, cube, &names).ok());
  Result<MappedCube> mapped = MappedCube::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  Result<CubeNames> restored = mapped->Names();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->groups, names.groups);
  EXPECT_EQ(restored->queries, names.queries);
  EXPECT_EQ(restored->locations, names.locations);
  std::remove(path.c_str());
}

TEST(BinaryCubeIoTest, RejectsNamesOfWrongLength) {
  std::string path = TempPath("badnames.fjcube");
  UnfairnessCube cube = *UnfairnessCube::Make({10, 11}, {20}, {30});
  CubeNames names;
  names.groups = {"only one"};
  EXPECT_EQ(SaveCubeBinary(path, cube, &names).code(),
            StatusCode::kInvalidArgument);
}

TEST(BinaryCubeIoTest, MappedGetMatchesMaterializedCube) {
  std::string path = TempPath("mapped.fjcube");
  UnfairnessCube cube = AwkwardCube();
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(path, cube, nullptr, options).ok());
  Result<MappedCube> mapped = MappedCube::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_present(), cube.num_present());
  EXPECT_EQ(mapped->num_cells(), cube.num_cells());
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    for (size_t q = 0; q < cube.axis_size(Dimension::kQuery); ++q) {
      for (size_t l = 0; l < cube.axis_size(Dimension::kLocation); ++l) {
        EXPECT_EQ(mapped->Get(g, q, l), cube.Get(g, q, l));
      }
    }
  }
  for (Dimension d :
       {Dimension::kGroup, Dimension::kQuery, Dimension::kLocation}) {
    for (size_t pos = 0; pos < cube.axis_size(d); ++pos) {
      EXPECT_EQ(mapped->axis_id(d, pos), cube.axis_id(d, pos));
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryCubeIoTest, SparseMappedGetReturnsMissing) {
  std::string path = TempPath("sparseget.fjcube");
  UnfairnessCube cube = AwkwardCube();
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kSparse;
  ASSERT_TRUE(SaveCubeBinary(path, cube, nullptr, options).ok());
  MappedCube mapped = *MappedCube::Open(path);
  EXPECT_FALSE(mapped.dense());
  EXPECT_EQ(mapped.Get(0, 0, 0), std::nullopt);
  std::remove(path.c_str());
}

TEST(BinaryCubeIoTest, RejectsTruncatedCorruptAndMismatchedFiles) {
  std::string path = TempPath("mangle.fjcube");
  ASSERT_TRUE(SaveCubeBinary(path, AwkwardCube()).ok());
  std::string good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 80u);

  // Truncated below the header.
  WriteFileBytes(path, good.substr(0, 10));
  Result<UnfairnessCube> r = LoadCubeBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("truncated"), std::string::npos);

  // Truncated payload.
  WriteFileBytes(path, good.substr(0, good.size() - 5));
  EXPECT_FALSE(LoadCubeBinary(path).ok());

  // Bad magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  WriteFileBytes(path, bad_magic);
  r = LoadCubeBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("magic"), std::string::npos);

  // Unsupported version (checked before the header CRC).
  std::string bad_version = good;
  bad_version[8] = 99;
  WriteFileBytes(path, bad_version);
  r = LoadCubeBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("version"), std::string::npos);

  // Corrupt header field (axis size) fails the header checksum.
  std::string bad_header = good;
  bad_header[17] ^= 0x40;
  WriteFileBytes(path, bad_header);
  r = LoadCubeBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);

  // Corrupt payload byte fails the payload CRC...
  std::string bad_payload = good;
  bad_payload[good.size() - 3] ^= 0x01;
  WriteFileBytes(path, bad_payload);
  EXPECT_FALSE(LoadCubeBinary(path).ok());
  // ...unless checksum verification is explicitly disabled.
  MappedCube::Options trusting;
  trusting.verify_checksum = false;
  EXPECT_TRUE(MappedCube::Open(path, trusting).ok());

  std::remove(path.c_str());
  EXPECT_FALSE(LoadCubeBinary(path).ok());  // missing file
}

TEST(BinaryCubeIoTest, ColumnWriterProducesSameFileAsSaveCubeBinary) {
  std::string streamed_path = TempPath("streamed.fjcube");
  std::string direct_path = TempPath("direct.fjcube");
  UnfairnessCube cube = AwkwardCube();
  CubeAxes axes;
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    axes.groups.push_back(cube.axis_id(Dimension::kGroup, g));
  }
  for (size_t q = 0; q < cube.axis_size(Dimension::kQuery); ++q) {
    axes.queries.push_back(cube.axis_id(Dimension::kQuery, q));
  }
  for (size_t l = 0; l < cube.axis_size(Dimension::kLocation); ++l) {
    axes.locations.push_back(cube.axis_id(Dimension::kLocation, l));
  }
  auto writer = BinaryCubeColumnWriter::Create(streamed_path, axes);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<std::optional<double>> column(axes.groups.size());
  for (size_t q = 0; q < axes.queries.size(); ++q) {
    for (size_t l = 0; l < axes.locations.size(); ++l) {
      for (size_t g = 0; g < axes.groups.size(); ++g) {
        column[g] = cube.Get(g, q, l);
      }
      ASSERT_TRUE(
          (*writer)->Consume(q, l, column.data(), column.size()).ok());
    }
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(direct_path, cube, nullptr, options).ok());
  EXPECT_EQ(ReadFileBytes(streamed_path), ReadFileBytes(direct_path));
  ExpectCubesIdentical(cube, *LoadCubeBinary(streamed_path));
  std::remove(streamed_path.c_str());
  std::remove(direct_path.c_str());
}

TEST(BinaryCubeIoTest, ColumnWriterSkippedColumnsStayMissing) {
  std::string path = TempPath("skipped.fjcube");
  CubeAxes axes;
  axes.groups = {1, 2};
  axes.queries = {3, 4, 5};
  axes.locations = {6};
  auto writer = BinaryCubeColumnWriter::Create(path, axes);
  ASSERT_TRUE(writer.ok());
  std::optional<double> column[2] = {0.75, std::nullopt};
  ASSERT_TRUE((*writer)->Consume(1, 0, column, 2).ok());
  // Error paths: out-of-range column, wrong group count, use after Finish.
  EXPECT_EQ((*writer)->Consume(3, 0, column, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*writer)->Consume(0, 0, column, 1).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_FALSE((*writer)->Consume(0, 0, column, 2).ok());

  UnfairnessCube restored = *LoadCubeBinary(path);
  EXPECT_EQ(restored.num_present(), 1u);
  EXPECT_EQ(restored.Get(0, 1, 0), std::optional<double>(0.75));
  EXPECT_EQ(restored.Get(0, 0, 0), std::nullopt);
  EXPECT_EQ(restored.Get(1, 2, 0), std::nullopt);
  std::remove(path.c_str());
}

// A column streamed twice would leave the first stream's presence bits and
// count it twice in the header's present total, so the writer rejects the
// repeat — also for an all-absent column, which writes nothing.
TEST(BinaryCubeIoTest, RejectsColumnStreamedTwice) {
  std::string path = TempPath("twice.fjcube");
  CubeAxes axes;
  axes.groups = {1, 2, 3};
  axes.queries = {4, 5};
  axes.locations = {6};
  auto writer = BinaryCubeColumnWriter::Create(path, axes);
  ASSERT_TRUE(writer.ok());
  std::optional<double> first[3] = {0.5, 0.25, std::nullopt};
  std::optional<double> fewer[3] = {std::nullopt, 0.75, std::nullopt};
  std::optional<double> absent[3] = {std::nullopt, std::nullopt,
                                     std::nullopt};
  ASSERT_TRUE((*writer)->Consume(0, 0, first, 3).ok());
  EXPECT_EQ((*writer)->Consume(0, 0, fewer, 3).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*writer)->Consume(0, 0, absent, 3).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*writer)->Consume(1, 0, absent, 3).ok());
  EXPECT_EQ((*writer)->Consume(1, 0, first, 3).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*writer)->Finish().ok());

  // The file holds exactly the first stream of each column.
  Result<MappedCube> mapped = MappedCube::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_present(), 2u);
  UnfairnessCube restored = *mapped->Materialize();
  EXPECT_EQ(restored.Get(0, 0, 0), std::optional<double>(0.5));
  EXPECT_EQ(restored.Get(1, 0, 0), std::optional<double>(0.25));
  EXPECT_EQ(restored.Get(2, 0, 0), std::nullopt);
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(restored.Get(g, 1, 0), std::nullopt) << "g=" << g;
  }
  std::remove(path.c_str());
}

// All-absent columns are not written: each costs one slot-table entry, so a
// cube whose columns are mostly empty still passes the verified open, reads
// back equal to the in-memory cube, and is byte-identical to
// SaveCubeBinary's dense file.
TEST(BinaryCubeIoTest, MostlyAbsentColumnsRoundTrip) {
  std::string streamed_path = TempPath("mostly_absent.fjcube");
  std::string direct_path = TempPath("mostly_absent_direct.fjcube");
  const size_t num_groups = 7;
  const size_t num_queries = 20;
  const size_t num_locations = 10;
  std::vector<int32_t> groups(num_groups);
  std::vector<int32_t> queries(num_queries);
  std::vector<int32_t> locations(num_locations);
  for (size_t i = 0; i < num_groups; ++i) groups[i] = static_cast<int32_t>(i);
  for (size_t i = 0; i < num_queries; ++i) {
    queries[i] = static_cast<int32_t>(100 + i);
  }
  for (size_t i = 0; i < num_locations; ++i) {
    locations[i] = static_cast<int32_t>(200 + i);
  }
  UnfairnessCube cube = *UnfairnessCube::Make(groups, queries, locations);
  // 14 of the 200 columns hold cells (93% all-absent), each at ~half density.
  Rng rng(4242);
  size_t filled_columns = 0;
  for (size_t column = 3; column < num_queries * num_locations; column += 15) {
    size_t q = column / num_locations;
    size_t l = column % num_locations;
    for (size_t g = 0; g < num_groups; ++g) {
      if (rng.NextBelow(2) == 0) cube.Set(g, q, l, rng.NextDouble());
    }
    cube.Set(column % num_groups, q, l, 0.0);  // a present exact zero
    ++filled_columns;
  }
  ASSERT_LE(filled_columns * 10, num_queries * num_locations);

  CubeAxes axes;
  axes.groups = groups;
  axes.queries = queries;
  axes.locations = locations;
  MetricsRegistry& metrics = MetricsRegistry::Global();
  bool was_enabled = metrics.enabled();
  metrics.SetEnabled(true);
  Counter* streamed = metrics.counter("cube.io.columns_streamed");
  uint64_t before = streamed->Value();
  auto writer = BinaryCubeColumnWriter::Create(streamed_path, axes);
  ASSERT_TRUE(writer.ok());
  std::vector<std::optional<double>> column(num_groups);
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t l = 0; l < num_locations; ++l) {
      for (size_t g = 0; g < num_groups; ++g) column[g] = cube.Get(g, q, l);
      ASSERT_TRUE(
          (*writer)->Consume(q, l, column.data(), column.size()).ok());
    }
  }
  ASSERT_TRUE((*writer)->Finish().ok());
  if (kObservabilityCompiledIn) {
    // Skipped all-absent columns are still counted as streamed.
    EXPECT_EQ(streamed->Value() - before, num_queries * num_locations);
  }
  metrics.SetEnabled(was_enabled);

  Result<MappedCube> mapped = MappedCube::Open(streamed_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_present(), cube.num_present());
  Result<UnfairnessCube> restored = mapped->Materialize();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(FingerprintCube(*restored), FingerprintCube(cube));

  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(direct_path, cube, nullptr, options).ok());
  EXPECT_EQ(ReadFileBytes(streamed_path), ReadFileBytes(direct_path));
  std::remove(streamed_path.c_str());
  std::remove(direct_path.c_str());
}

// End-to-end scale path in miniature: a sharded marketplace build streamed
// straight to disk must load back bitwise-equal to the in-memory builder.
TEST(BinaryCubeIoTest, ShardedBuildToFileMatchesInMemoryBuild) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  ASSERT_TRUE(schema.AddAttribute("age", {"young", "old"}).ok());
  MarketplaceDataset market(schema);
  GroupSpace space = *GroupSpace::Enumerate(market.schema());
  Rng rng(77);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 10; ++i) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(2)),
                      static_cast<ValueId>(rng.NextBelow(2))};
    workers.push_back(*market.AddWorker("w" + std::to_string(i), d));
  }
  for (QueryId q = 0; q < 4; ++q) {
    market.queries().GetOrAdd("q" + std::to_string(q));
    for (LocationId l = 0; l < 2; ++l) {
      market.locations().GetOrAdd("l" + std::to_string(l));
      if (q == 2 && l == 1) continue;  // hole
      MarketRanking r;
      r.workers = workers;
      rng.Shuffle(r.workers);
      ASSERT_TRUE(market.SetRanking(q, l, std::move(r)).ok());
    }
  }
  CubeAxes axes = *ResolveMarketplaceCubeAxes(market, space);
  std::string path = TempPath("sharded.fjcube");
  auto writer = BinaryCubeColumnWriter::Create(path, axes);
  ASSERT_TRUE(writer.ok());
  ShardedBuildOptions sharded;
  sharded.shard_columns = 3;
  sharded.parallelism = 2;
  ASSERT_TRUE(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd,
                                          {}, axes, sharded, writer->get())
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  UnfairnessCube from_file = *LoadCubeBinary(path);
  UnfairnessCube in_memory =
      *BuildMarketplaceCube(market, space, MarketMeasure::kEmd);
  ExpectCubesIdentical(in_memory, from_file);
  std::remove(path.c_str());
}

// --- binary boundary checks --------------------------------------------------

CubeAxes AxesOf(const UnfairnessCube& cube) {
  CubeAxes axes;
  for (size_t g = 0; g < cube.axis_size(Dimension::kGroup); ++g) {
    axes.groups.push_back(cube.axis_id(Dimension::kGroup, g));
  }
  for (size_t q = 0; q < cube.axis_size(Dimension::kQuery); ++q) {
    axes.queries.push_back(cube.axis_id(Dimension::kQuery, q));
  }
  for (size_t l = 0; l < cube.axis_size(Dimension::kLocation); ++l) {
    axes.locations.push_back(cube.axis_id(Dimension::kLocation, l));
  }
  return axes;
}

// Streams every column of `cube` into a column writer at `path`, in the
// column order given by `order` (indices q·L + l).
void StreamCube(const UnfairnessCube& cube, const std::vector<size_t>& order,
                const std::string& path) {
  size_t num_groups = cube.axis_size(Dimension::kGroup);
  size_t num_locations = cube.axis_size(Dimension::kLocation);
  auto writer = BinaryCubeColumnWriter::Create(path, AxesOf(cube));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<std::optional<double>> column(num_groups);
  for (size_t c : order) {
    size_t q = c / num_locations;
    size_t l = c % num_locations;
    for (size_t g = 0; g < num_groups; ++g) column[g] = cube.Get(g, q, l);
    ASSERT_TRUE((*writer)->Consume(q, l, column.data(), num_groups).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
}

TEST(BinaryCubeIoTest, ColumnWriterRejectsNonFiniteValues) {
  std::string path = TempPath("nonfinite_writer.fjcube");
  CubeAxes axes;
  axes.groups = {1, 2};
  axes.queries = {3};
  axes.locations = {4, 5};
  auto writer = BinaryCubeColumnWriter::Create(path, axes);
  ASSERT_TRUE(writer.ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::optional<double> column[2] = {0.5, bad};
    EXPECT_EQ((*writer)->Consume(0, 0, column, 2).code(),
              StatusCode::kInvalidArgument);
  }
  // A rejected column was not marked streamed.
  std::optional<double> good[2] = {0.5, 0.25};
  ASSERT_TRUE((*writer)->Consume(0, 0, good, 2).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  UnfairnessCube restored = *LoadCubeBinary(path);
  EXPECT_EQ(restored.num_present(), 2u);
  EXPECT_EQ(restored.Get(1, 0, 0), std::optional<double>(0.25));
  std::remove(path.c_str());
}

// Byte offset of column block `block` in a column-block file holding
// `num_blocks` blocks of `num_groups` groups: the blocks end the file.
size_t BlockOffset(const std::string& bytes, size_t num_groups,
                   size_t num_blocks, size_t block) {
  size_t block_bytes = 8 * ((num_groups + 63) / 64 + num_groups);
  return bytes.size() - (num_blocks - block) * block_bytes;
}

void PatchU64(std::string* bytes, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<char>(value >> (8 * i));
  }
}

uint64_t ReadU64(const std::string& bytes, size_t offset) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    value |= uint64_t{static_cast<unsigned char>(bytes[offset + i])}
             << (8 * i);
  }
  return value;
}

Result<UnfairnessCube> MaterializeTrusted(const std::string& path) {
  MappedCube::Options trusting;
  trusting.verify_checksum = false;
  FAIRJOB_ASSIGN_OR_RETURN(MappedCube mapped, MappedCube::Open(path, trusting));
  return mapped.Materialize();
}

// AwkwardCube's first block is column (0, 0), where only group 0 is present.
TEST(BinaryCubeIoTest, MaterializeRejectsNonFiniteValues) {
  std::string path = TempPath("nonfinite_file.fjcube");
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(path, AwkwardCube(), nullptr, options).ok());
  std::string good = ReadFileBytes(path);
  size_t block = BlockOffset(good, 3, 6, 0);
  ASSERT_EQ(ReadU64(good, block), 1u);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::string mangled = good;
    PatchU64(&mangled, block + 8, std::bit_cast<uint64_t>(bad));
    WriteFileBytes(path, mangled);
    Result<UnfairnessCube> r = MaterializeTrusted(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  // The sparse stream's first value follows its one-byte first delta.
  options.layout = BinaryCubeWriteOptions::Layout::kSparse;
  ASSERT_TRUE(SaveCubeBinary(path, AwkwardCube(), nullptr, options).ok());
  std::string sparse = ReadFileBytes(path);
  size_t value_at = sparse.size() - 6 * 9 + 1;
  ASSERT_EQ(ReadU64(sparse, value_at), std::bit_cast<uint64_t>(1.0 / 3.0));
  PatchU64(&sparse, value_at,
           std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity()));
  WriteFileBytes(path, sparse);
  Result<UnfairnessCube> r = MaterializeTrusted(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// A flipped presence bit changes the decoded present count, which must
// match the header's, so an unverified open cannot silently change a cube.
TEST(BinaryCubeIoTest, MaterializeRejectsPresentCountMismatch) {
  std::string path = TempPath("presence_flip.fjcube");
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(path, AwkwardCube(), nullptr, options).ok());
  std::string good = ReadFileBytes(path);
  ASSERT_TRUE(MaterializeTrusted(path).ok());
  size_t block = BlockOffset(good, 3, 6, 0);
  for (uint64_t presence : {uint64_t{0b011}, uint64_t{0b101}}) {
    std::string mangled = good;
    PatchU64(&mangled, block, presence);  // one absent cell turned present
    WriteFileBytes(path, mangled);
    ASSERT_TRUE(MappedCube::Open(path, {.verify_checksum = false}).ok());
    Result<UnfairnessCube> r = MaterializeTrusted(path);
    ASSERT_FALSE(r.ok()) << presence;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().ToString().find("present"), std::string::npos);
  }
  // A bit past the group axis, and a block emptied of its only cell.
  for (uint64_t presence : {uint64_t{0b1001}, uint64_t{0}}) {
    std::string mangled = good;
    PatchU64(&mangled, block, presence);
    WriteFileBytes(path, mangled);
    Result<UnfairnessCube> r = MaterializeTrusted(path);
    ASSERT_FALSE(r.ok()) << presence;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

// Opened without its CRC, a file with any one byte flipped either fails
// with a Status or reads back: no read leaves the mapping. Each present
// cell that survives keeps a finite value.
TEST(BinaryCubeIoTest, TrustedOpenSurvivesEveryByteFlip) {
  std::string path = TempPath("flip.fjcube");
  UnfairnessCube cube = AwkwardCube();
  for (auto layout : {BinaryCubeWriteOptions::Layout::kDense,
                      BinaryCubeWriteOptions::Layout::kSparse}) {
    BinaryCubeWriteOptions options;
    options.layout = layout;
    ASSERT_TRUE(SaveCubeBinary(path, cube, nullptr, options).ok());
    std::string good = ReadFileBytes(path);
    for (size_t i = 0; i < good.size(); ++i) {
      for (unsigned char mask : {0x01, 0x80}) {
        std::string mangled = good;
        mangled[i] = static_cast<char>(mangled[i] ^ mask);
        WriteFileBytes(path, mangled);
        Result<MappedCube> mapped =
            MappedCube::Open(path, {.verify_checksum = false});
        if (!mapped.ok()) continue;
        for (size_t g = 0; g < 3; ++g) {
          for (size_t q = 0; q < 4; ++q) {
            for (size_t l = 0; l < 2; ++l) (void)mapped->Get(g, q, l);
          }
        }
        Result<UnfairnessCube> restored = mapped->Materialize();
        if (!restored.ok()) continue;
        for (size_t g = 0; g < 3; ++g) {
          for (size_t q = 0; q < 4; ++q) {
            for (size_t l = 0; l < 2; ++l) {
              std::optional<double> v = restored->Get(g, q, l);
              EXPECT_TRUE(!v.has_value() || std::isfinite(*v))
                  << "byte " << i;
            }
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

// The file's bytes depend only on the cube: columns streamed in reverse or
// shuffled order, and sharded builds at parallelism 1 and 4, all equal
// SaveCubeBinary's column-block file.
TEST(BinaryCubeIoTest, ColumnWriterFilesIgnoreArrivalOrder) {
  UnfairnessCube cube = AwkwardCube();
  std::string direct_path = TempPath("order_direct.fjcube");
  std::string streamed_path = TempPath("order_streamed.fjcube");
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(direct_path, cube, nullptr, options).ok());
  std::string direct = ReadFileBytes(direct_path);

  std::vector<size_t> order(cube.num_columns());
  for (size_t c = 0; c < order.size(); ++c) order[c] = c;
  std::reverse(order.begin(), order.end());
  StreamCube(cube, order, streamed_path);
  EXPECT_EQ(ReadFileBytes(streamed_path), direct);
  Rng rng(31);
  for (int round = 0; round < 8; ++round) {
    rng.Shuffle(order);
    StreamCube(cube, order, streamed_path);
    EXPECT_EQ(ReadFileBytes(streamed_path), direct) << "round " << round;
  }
  std::remove(direct_path.c_str());
  std::remove(streamed_path.c_str());
}

// A marketplace over a three-attribute schema: 99 intersectional groups,
// so presence spans two words, and some (query, location) cells unranked.
MarketplaceDataset PropertyMarket(uint64_t seed) {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute("a", {"a0", "a1", "a2"}).ok());
  EXPECT_TRUE(schema.AddAttribute("b", {"b0", "b1", "b2", "b3"}).ok());
  EXPECT_TRUE(schema.AddAttribute("c", {"c0", "c1", "c2", "c3"}).ok());
  MarketplaceDataset market(schema);
  Rng rng(seed);
  std::vector<WorkerId> workers;
  for (int i = 0; i < 60; ++i) {
    Demographics d = {static_cast<ValueId>(rng.NextBelow(3)),
                      static_cast<ValueId>(rng.NextBelow(4)),
                      static_cast<ValueId>(rng.NextBelow(4))};
    workers.push_back(*market.AddWorker("w" + std::to_string(i), d));
  }
  for (QueryId q = 0; q < 9; ++q) {
    market.queries().GetOrAdd("q" + std::to_string(q));
  }
  for (LocationId l = 0; l < 5; ++l) {
    market.locations().GetOrAdd("l" + std::to_string(l));
  }
  for (QueryId q = 0; q < 9; ++q) {
    for (LocationId l = 0; l < 5; ++l) {
      if (rng.NextBelow(3) == 0) continue;  // unranked: an all-absent column
      MarketRanking r;
      r.workers = workers;
      rng.Shuffle(r.workers);
      r.workers.resize(8 + rng.NextBelow(40));
      EXPECT_TRUE(market.SetRanking(q, l, std::move(r)).ok());
    }
  }
  return market;
}

void ExpectSameFileAndFingerprint(const UnfairnessCube& expected,
                                  const UnfairnessCube& actual,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(FingerprintCube(actual), FingerprintCube(expected));
  ExpectCubesIdentical(expected, actual);
}

TEST(BinaryCubeIoTest, ShardedFilesAreByteIdenticalAcrossParallelism) {
  MarketplaceDataset market = PropertyMarket(5);
  GroupSpace space = *GroupSpace::Enumerate(market.schema());
  CubeAxes axes = *ResolveMarketplaceCubeAxes(market, space);
  UnfairnessCube in_memory =
      *BuildMarketplaceCube(market, space, MarketMeasure::kEmd);
  std::string direct_path = TempPath("parallel_direct.fjcube");
  BinaryCubeWriteOptions options;
  options.layout = BinaryCubeWriteOptions::Layout::kDense;
  ASSERT_TRUE(SaveCubeBinary(direct_path, in_memory, nullptr, options).ok());
  std::string direct = ReadFileBytes(direct_path);
  for (size_t parallelism : {1, 4, 4, 4}) {
    std::string path = TempPath("parallel_sharded.fjcube");
    auto writer = BinaryCubeColumnWriter::Create(path, axes);
    ASSERT_TRUE(writer.ok());
    ShardedBuildOptions sharded;
    sharded.shard_columns = 16;
    sharded.parallelism = parallelism;
    ASSERT_TRUE(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd,
                                            {}, axes, sharded, writer->get())
                    .ok());
    ASSERT_TRUE((*writer)->Finish().ok());
    EXPECT_EQ(ReadFileBytes(path), direct) << "parallelism " << parallelism;
    std::remove(path.c_str());
  }
  std::remove(direct_path.c_str());
}

// Every way to construct a cube yields the same cells: the in-memory build,
// the sharded build through a file, both binary layouts, the CSV round trip
// and a maintainer's deltas against a cold rebuild of the same data.
TEST(FingerprintCubeTest, EveryConstructionPathAgrees) {
  for (uint64_t seed : {11, 12, 13}) {
    SCOPED_TRACE(seed);
    MarketplaceDataset market = PropertyMarket(seed);
    GroupSpace space = *GroupSpace::Enumerate(market.schema());
    ASSERT_GT(space.num_groups(), 64u);
    UnfairnessCube in_memory = *BuildMarketplaceCube(
        market, space, MarketMeasure::kEmd, {}, {}, /*parallelism=*/3);
    ASSERT_GT(in_memory.num_present(), 0u);

    CubeAxes axes = *ResolveMarketplaceCubeAxes(market, space);
    std::string path = TempPath("paths.fjcube");
    auto writer = BinaryCubeColumnWriter::Create(path, axes);
    ASSERT_TRUE(writer.ok());
    ShardedBuildOptions sharded;
    sharded.shard_columns = 7;
    sharded.parallelism = 3;
    ASSERT_TRUE(BuildMarketplaceCubeSharded(market, space, MarketMeasure::kEmd,
                                            {}, axes, sharded, writer->get())
                    .ok());
    ASSERT_TRUE((*writer)->Finish().ok());
    ExpectSameFileAndFingerprint(
        in_memory, *MappedCube::Open(path)->Materialize(), "sharded file");

    for (auto layout : {BinaryCubeWriteOptions::Layout::kDense,
                        BinaryCubeWriteOptions::Layout::kSparse}) {
      BinaryCubeWriteOptions options;
      options.layout = layout;
      ASSERT_TRUE(SaveCubeBinary(path, in_memory, nullptr, options).ok());
      ExpectSameFileAndFingerprint(in_memory, *LoadCubeBinary(path),
                                   "binary layout");
    }
    std::remove(path.c_str());

    ExpectSameFileAndFingerprint(
        in_memory, *CubeFromCsvRows(CubeToCsvRows(in_memory)), "csv");

    // Deltas: re-crawl half the ranked columns with fresh rankings.
    MarketplaceCubeMaintainer maintainer = *MarketplaceCubeMaintainer::Make(
        market, space, MarketMeasure::kEmd, {}, {}, /*parallelism=*/3);
    MarketplaceDataset updated = market;
    Rng rng(seed * 7);
    CrawlBatch batch;
    for (QueryId q = 0; q < 9; ++q) {
      for (LocationId l = 0; l < 5; ++l) {
        if (rng.NextBelow(2) == 0) continue;
        MarketRanking r;
        for (WorkerId w = 0; w < 60; ++w) {
          if (rng.NextBelow(3) == 0) r.workers.push_back(w);
        }
        rng.Shuffle(r.workers);
        ASSERT_TRUE(updated.SetRanking(q, l, r).ok());
        batch.rows.push_back(CrawlBatchRow{q, l, std::move(r)});
      }
    }
    ASSERT_TRUE(maintainer.UpsertCrawlBatch(batch).ok());
    UnfairnessCube cold = *BuildMarketplaceCube(updated, space,
                                                MarketMeasure::kEmd);
    ExpectSameFileAndFingerprint(cold, maintainer.snapshot()->cube(),
                                 "maintainer deltas");
  }
}

// A search column that loses its observations keeps its slot with every
// cell absent; the cube still equals a cold rebuild, and its file equals
// the cold cube's byte for byte.
TEST(FingerprintCubeTest, EmptiedColumnMatchesColdRebuild) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute("gender", {"Male", "Female"}).ok());
  SearchDataset data(schema);
  for (int u = 0; u < 6; ++u) {
    ASSERT_TRUE(
        data.AddUser("u" + std::to_string(u), {static_cast<ValueId>(u % 2)})
            .ok());
  }
  data.queries().GetOrAdd("term");
  data.locations().GetOrAdd("here");
  data.locations().GetOrAdd("there");
  for (LocationId l = 0; l < 2; ++l) {
    for (UserId u = 0; u < 6; ++u) {
      SearchObservation obs;
      obs.user = u;
      obs.results = {1, 2, 3, static_cast<int32_t>(4 + u % 3)};
      ASSERT_TRUE(data.AddObservation(0, l, std::move(obs)).ok());
    }
  }
  GroupSpace space = *GroupSpace::Enumerate(data.schema());
  SearchCubeMaintainer maintainer = *SearchCubeMaintainer::Make(
      data, space, SearchMeasure::kJaccard);
  ASSERT_GT(maintainer.snapshot()->cube().num_present(), 0u);
  StudySnapshot emptied;
  emptied.cells.push_back(StudySnapshotCell{0, 1, {}});
  ASSERT_TRUE(maintainer.UpsertStudySnapshot(emptied).ok());
  ASSERT_TRUE(data.SetObservations(0, 1, {}).ok());
  UnfairnessCube cold = *BuildSearchCube(data, space, SearchMeasure::kJaccard);
  const UnfairnessCube& patched = maintainer.snapshot()->cube();
  // The emptied column keeps its slot, every cell of it absent.
  ASSERT_TRUE(patched.column(0, 1).stored());
  for (size_t g = 0; g < patched.axis_size(Dimension::kGroup); ++g) {
    EXPECT_FALSE(patched.column(0, 1).present(g)) << "g=" << g;
  }
  EXPECT_EQ(patched.num_present(), cold.num_present());
  ExpectSameFileAndFingerprint(cold, patched, "emptied column");

  std::string cold_path = TempPath("emptied_cold.fjcube");
  std::string patched_path = TempPath("emptied_patched.fjcube");
  for (auto layout : {BinaryCubeWriteOptions::Layout::kDense,
                      BinaryCubeWriteOptions::Layout::kSparse}) {
    BinaryCubeWriteOptions options;
    options.layout = layout;
    ASSERT_TRUE(SaveCubeBinary(cold_path, cold, nullptr, options).ok());
    ASSERT_TRUE(SaveCubeBinary(patched_path, patched, nullptr, options).ok());
    EXPECT_EQ(ReadFileBytes(patched_path), ReadFileBytes(cold_path));
  }
  std::remove(cold_path.c_str());
  std::remove(patched_path.c_str());
}

TEST(BinaryCubeIoTest, Crc32MatchesKnownCheckValue) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926. Guards
  // the sliced implementation against table or byte-order regressions, which
  // would silently change the on-disk format.
  std::string path = TempPath("crc.fjcube");
  UnfairnessCube cube = *UnfairnessCube::Make({1}, {2}, {3});
  cube.Set(0, 0, 0, 0.5);
  ASSERT_TRUE(SaveCubeBinary(path, cube).ok());
  std::string bytes = ReadFileBytes(path);
  // Flipping any single payload byte must flip the stored CRC check.
  for (size_t i : {size_t{64}, bytes.size() - 1}) {
    std::string mangled = bytes;
    mangled[i] = static_cast<char>(mangled[i] ^ 0x10);
    WriteFileBytes(path, mangled);
    EXPECT_FALSE(LoadCubeBinary(path).ok()) << "byte " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairjob
