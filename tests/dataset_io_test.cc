#include "data/dataset_io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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

  std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

// HMD header layout: 8-byte magic, uint64 count, uint64 dim, uint8 labeled.
constexpr size_t kCountOffset = 8;
constexpr size_t kLabeledOffset = 24;

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

TEST_F(DatasetIoTest, BinaryRejectsTrailingBytes) {
  const Dataset dataset = SampleDataset();
  const std::string path = TempPath("trailing.hmd");
  ASSERT_TRUE(WriteBinary(dataset, path).ok());
  const std::string valid = ReadBytes(path);
  for (const std::string& extra : {std::string(1, '\0'), std::string(8, 'x')}) {
    WriteBytes(path, valid + extra);
    Result<Dataset> loaded = ReadBinary(path);
    EXPECT_FALSE(loaded.ok()) << extra.size() << " trailing bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(DatasetIoTest, BinaryRejectsCountCorruptedDownward) {
  // One item fewer in the header than in the payload used to load the first
  // count - 1 items and ignore the rest.
  for (bool labeled : {false, true}) {
    Dataset dataset = SampleDataset();
    if (!labeled) dataset.labels.clear();
    const std::string path = TempPath("shortcount.hmd");
    ASSERT_TRUE(WriteBinary(dataset, path).ok());
    std::string bytes = ReadBytes(path);
    const uint64_t count = dataset.size() - 1;
    bytes.replace(kCountOffset, sizeof(count),
                  reinterpret_cast<const char*>(&count), sizeof(count));
    WriteBytes(path, bytes);
    Result<Dataset> loaded = ReadBinary(path);
    EXPECT_FALSE(loaded.ok()) << "labeled=" << labeled;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(DatasetIoTest, BinaryRejectsLabeledFlagOtherThanZeroOrOne) {
  const Dataset dataset = SampleDataset();
  ASSERT_TRUE(dataset.has_labels());
  const std::string path = TempPath("flag.hmd");
  ASSERT_TRUE(WriteBinary(dataset, path).ok());
  std::string bytes = ReadBytes(path);
  ASSERT_EQ(bytes[kLabeledOffset], '\x01');
  for (char flag : {'\x02', '\xff'}) {
    bytes[kLabeledOffset] = flag;
    WriteBytes(path, bytes);
    Result<Dataset> loaded = ReadBinary(path);
    EXPECT_FALSE(loaded.ok()) << static_cast<int>(flag);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

// Seeded mutation fuzzing of both readers: valid files take byte flips,
// inserts, deletes and truncations. Every outcome must be a Status error or
// a well-formed dataset — finite values, one dimensionality, one label per
// item or none — and never a crash (the sanitizer builds run this too).
enum class Format { kCsv, kBinary };

std::string Mutate(std::string bytes, Format format, Rng& rng) {
  // CSV mutations favour bytes the parser treats specially.
  static const std::string kCsvAlphabet = "0123456789,.-+eE \n\tnaif";
  auto random_byte = [&]() -> char {
    if (format == Format::kCsv && rng.NextDouble() < 0.8) {
      return kCsvAlphabet[rng.NextUint64() % kCsvAlphabet.size()];
    }
    return static_cast<char>(rng.NextUint64() & 0xff);
  };
  const int edits = 1 + static_cast<int>(rng.NextUint64() % 4);
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const size_t at = rng.NextUint64() % bytes.size();
    switch (rng.NextUint64() % 4) {
      case 0:  // flip: xor with a nonzero mask (a CSV flip writes a new byte)
        if (format == Format::kCsv) {
          bytes[at] = random_byte();
        } else {
          bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.NextUint64() % 255));
        }
        break;
      case 1:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), random_byte());
        break;
      case 2:
        bytes.erase(at, 1);
        break;
      default:
        bytes.resize(at);
        break;
    }
  }
  return bytes;
}

void ExpectWellFormed(const Dataset& dataset, const std::string& context) {
  ASSERT_TRUE(dataset.labels.empty() ||
              dataset.labels.size() == dataset.items.size())
      << context;
  for (const Vector& item : dataset.items) {
    ASSERT_FALSE(item.empty()) << context;
    ASSERT_EQ(item.size(), dataset.items.front().size()) << context;
    for (double v : item) ASSERT_TRUE(std::isfinite(v)) << context;
  }
}

TEST_F(DatasetIoTest, MutatedFilesLoadWellFormedOrFail) {
  Dataset labeled;
  labeled.items = {{0.5, -1.25, 3.0}, {1e-3, 2.5, -0.75}, {4.0, 0.0, 1.5},
                   {-2.0, 7.25, 0.125}};
  labeled.labels = {0, 3, -1, 12};
  Dataset unlabeled = labeled;
  unlabeled.labels.clear();

  for (Format format : {Format::kCsv, Format::kBinary}) {
    const bool csv = format == Format::kCsv;
    const std::string path = TempPath(csv ? "fuzz.csv" : "fuzz.hmd");
    std::vector<std::string> seeds_files;
    for (const Dataset* dataset : {&labeled, &unlabeled}) {
      ASSERT_TRUE((csv ? WriteCsv(*dataset, path)
                       : WriteBinary(*dataset, path)).ok());
      seeds_files.push_back(ReadBytes(path));
    }
    int accepted = 0;
    int rejected = 0;
    for (uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34}) {
      Rng rng(seed);
      for (int round = 0; round < 150; ++round) {
        const std::string& original = seeds_files[round % seeds_files.size()];
        WriteBytes(path, Mutate(original, format, rng));
        Result<Dataset> loaded = csv ? ReadCsv(path) : ReadBinary(path);
        if (!loaded.ok()) {
          EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
              << loaded.status().ToString();
          ++rejected;
          continue;
        }
        ++accepted;
        ExpectWellFormed(loaded.value(), (csv ? "csv seed " : "hmd seed ") +
                                             std::to_string(seed) + " round " +
                                             std::to_string(round));
      }
    }
    // Both outcomes must actually occur, or the mutations test nothing.
    EXPECT_GT(accepted, 0) << (csv ? "csv" : "hmd");
    EXPECT_GT(rejected, 0) << (csv ? "csv" : "hmd");
  }
}

}  // namespace
}  // namespace hyperm::data
