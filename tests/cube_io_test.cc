#include "crawl/cube_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "crawl/csv.h"
#include "serve/cache_key.h"

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

TEST(BinaryCubeIoTest, AutoLayoutTracksDensity) {
  std::string path = TempPath("auto.fjcube");
  // 6 of 24 cells present = 25%: at the threshold, dense.
  ASSERT_TRUE(SaveCubeBinary(path, AwkwardCube()).ok());
  EXPECT_TRUE(MappedCube::Open(path)->dense());
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

// All-absent columns are not written: the zeros Create sized the file with
// stand in for them, so a cube whose columns are mostly empty still passes
// the verified open, reads back equal to the in-memory cube, and is
// byte-identical to SaveCubeBinary's dense file.
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
