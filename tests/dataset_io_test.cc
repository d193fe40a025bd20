#include "data/dataset_io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "data/markov_generator.h"

namespace hyperm::data {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  Dataset SampleDataset() {
    Rng rng(1);
    MarkovOptions options;
    options.count = 50;
    options.dim = 16;
    options.num_families = 4;
    Result<Dataset> ds = GenerateMarkov(options, rng);
    EXPECT_TRUE(ds.ok());
    return std::move(ds).value();
  }
};

TEST_F(DatasetIoTest, CsvRoundTrip) {
  const Dataset original = SampleDataset();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(original, path).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->dim(), original.dim());
  EXPECT_EQ(loaded->labels, original.labels);
  for (size_t i = 0; i < original.size(); ++i) {
    for (size_t j = 0; j < original.dim(); ++j) {
      EXPECT_DOUBLE_EQ(loaded->items[i][j], original.items[i][j]);
    }
  }
}

TEST_F(DatasetIoTest, CsvWithoutLabels) {
  Dataset unlabeled;
  unlabeled.items = {{1.0, 2.0}, {3.0, 4.0}};
  const std::string path = TempPath("unlabeled.csv");
  ASSERT_TRUE(WriteCsv(unlabeled, path).ok());
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_labels());
  EXPECT_EQ(loaded->items, unlabeled.items);
}

TEST_F(DatasetIoTest, CsvRejectsInconsistentDimensions) {
  const std::string path = TempPath("ragged.csv");
  {
    std::ofstream out(path);
    out << "0,1.0,2.0\n0,1.0\n";
  }
  Result<Dataset> loaded = ReadCsv(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, CsvRejectsGarbage) {
  const std::string path = TempPath("garbage.csv");
  {
    std::ofstream out(path);
    out << "0,1.0,banana\n";
  }
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(DatasetIoTest, CsvRejectsTrailingGarbageInAField) {
  // A value or label must be the whole field: "0.5abc" is not 0.5, "2x" is
  // not label 2.
  for (const char* record : {"1,0.5abc,0.25\n", "2x,0.5,0.25\n", "1,0.5,0.25 7\n"}) {
    const std::string path = TempPath("trailing.csv");
    {
      std::ofstream out(path);
      out << record;
    }
    Result<Dataset> loaded = ReadCsv(path);
    ASSERT_FALSE(loaded.ok()) << record;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << record;
  }
}

TEST_F(DatasetIoTest, CsvAllowsWhitespaceAroundFields) {
  const std::string path = TempPath("spaced.csv");
  {
    std::ofstream out(path);
    out << " 3 , 0.5 ,0.25\r\n";
  }
  Result<Dataset> loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->labels, std::vector<int>{3});
  EXPECT_EQ(loaded->items, (std::vector<Vector>{{0.5, 0.25}}));
}

TEST_F(DatasetIoTest, CsvMissingFileIsUnavailable) {
  Result<Dataset> loaded = ReadCsv(TempPath("does_not_exist.csv"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST_F(DatasetIoTest, BinaryRoundTripExact) {
  const Dataset original = SampleDataset();
  const std::string path = TempPath("roundtrip.hmd");
  ASSERT_TRUE(WriteBinary(original, path).ok());
  Result<Dataset> loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->items, original.items);  // bit-exact
  EXPECT_EQ(loaded->labels, original.labels);
}

TEST_F(DatasetIoTest, BinaryRejectsWrongMagic) {
  const std::string path = TempPath("notmagic.hmd");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTHYPERM-at-all";
  }
  Result<Dataset> loaded = ReadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, BinaryRejectsTruncation) {
  const Dataset original = SampleDataset();
  const std::string full = TempPath("full.hmd");
  ASSERT_TRUE(WriteBinary(original, full).ok());
  // Copy all but the last 100 bytes.
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(bytes.size() - 100);
  const std::string truncated = TempPath("truncated.hmd");
  {
    std::ofstream out(truncated, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadBinary(truncated).ok());
}

TEST_F(DatasetIoTest, BinaryRejectsHeaderCountBeyondFileSize) {
  // A 25-byte file: valid magic and a header claiming 2^32 one-dimensional
  // items, with no payload. Must be refused before anything is allocated.
  const std::string path = TempPath("hugecount.hmd");
  {
    std::ofstream out(path, std::ios::binary);
    const uint64_t count = uint64_t{1} << 32;
    const uint64_t dim = 1;
    const uint8_t labeled = 0;
    out.write("HYPERMD1", 8);
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&labeled), sizeof(labeled));
  }
  Result<Dataset> loaded = ReadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, BinaryRejectsNaNPayload) {
  Dataset dataset = SampleDataset();
  dataset.items[7][3] = std::nan("");
  const std::string path = TempPath("nan.hmd");
  ASSERT_TRUE(WriteBinary(dataset, path).ok());
  Result<Dataset> loaded = ReadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DatasetIoTest, BinaryRejectsInfinitePayload) {
  for (double bad : {HUGE_VAL, -HUGE_VAL}) {
    Dataset dataset = SampleDataset();
    dataset.items.back().back() = bad;
    const std::string path = TempPath("inf.hmd");
    ASSERT_TRUE(WriteBinary(dataset, path).ok());
    Result<Dataset> loaded = ReadBinary(path);
    EXPECT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace hyperm::data
