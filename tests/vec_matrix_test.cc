// The SoA batch kernel's bit-identity contract: SquaredDistanceBatch must
// produce, for every row, the exact double vec::SquaredDistance produces —
// blocking is across rows only, never within a row's accumulation chain.
// SquaredDistanceGather must give the same sums over any listed subset of
// rows, and RangeScanGather must select exactly the listed rows whose such sum
// is <= the bound, in list order.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "vec/matrix.h"

namespace hyperm::vec {
namespace {

std::vector<Vector> RandomRows(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> out(rows);
  for (Vector& row : out) {
    row.resize(dim);
    for (double& x : row) x = rng.Uniform(-10.0, 10.0);
  }
  return out;
}

TEST(MatrixBatchTest, FromRowsRoundTrips) {
  const std::vector<Vector> rows = RandomRows(7, 5, 1);
  const Matrix m = Matrix::FromRows(rows);
  EXPECT_EQ(m.rows(), 7u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.stride(), 5u);
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(Vector(m.row(r), m.row(r) + m.cols()), rows[r]);
  }
}

TEST(MatrixBatchTest, AppendRowFixesColumnCount) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  m.AppendRow({1.0, 2.0, 3.0});
  EXPECT_EQ(m.cols(), 3u);
  m.AppendRow({4.0, 5.0, 6.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.row(1)[2], 6.0);
}

TEST(MatrixBatchTest, BatchBitIdenticalToScalarKernel) {
  // Row counts straddle the 4-row blocking boundary; dims cover tiny
  // through the paper's 128 and the scale tier's padding-free strides.
  for (size_t rows : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 33u}) {
    for (size_t dim : {1u, 2u, 31u, 128u}) {
      const std::vector<Vector> data = RandomRows(rows, dim, 100 + rows * 7 + dim);
      const Vector query = RandomRows(1, dim, 999 + dim).front();
      const Matrix m = Matrix::FromRows(data);
      std::vector<double> got(rows, -1.0);
      SquaredDistanceBatch(m, query, got.data());
      for (size_t r = 0; r < rows; ++r) {
        // Exact double equality: the accumulation order per row is the
        // contract, not an approximation of it.
        EXPECT_EQ(got[r], SquaredDistance(data[r], query))
            << "rows=" << rows << " dim=" << dim << " r=" << r;
      }
    }
  }
}

TEST(MatrixBatchTest, RawPointerOverloadMatchesMatrixOverload) {
  const std::vector<Vector> data = RandomRows(10, 16, 42);
  const Vector query = RandomRows(1, 16, 43).front();
  const Matrix m = Matrix::FromRows(data);
  std::vector<double> a(10), b(10);
  SquaredDistanceBatch(m, query, a.data());
  SquaredDistanceBatch(m.data(), m.rows(), m.stride(), query.data(),
                       query.size(), b.data());
  EXPECT_EQ(a, b);
}

TEST(MatrixBatchTest, QueryAsRowAndRowAsQueryAgree) {
  // diff vs -diff square to the same double, so swapping the operand roles
  // (how the k-means port calls it) cannot change any bit.
  const std::vector<Vector> data = RandomRows(6, 12, 77);
  const Vector query = RandomRows(1, 12, 78).front();
  const Matrix m = Matrix::FromRows(data);
  std::vector<double> got(6);
  SquaredDistanceBatch(m, query, got.data());
  const Matrix q = Matrix::FromRows({query});
  for (size_t r = 0; r < 6; ++r) {
    double one = 0.0;
    SquaredDistanceBatch(q, data[r], &one);
    EXPECT_EQ(got[r], one);
  }
}

std::vector<size_t> BruteForceRange(const std::vector<Vector>& data, const Vector& query,
                                    double bound_sq) {
  std::vector<size_t> hits;
  for (size_t r = 0; r < data.size(); ++r) {
    if (SquaredDistance(data[r], query) <= bound_sq) hits.push_back(r);
  }
  return hits;
}

// Row indices 0..rows-1: the list that scans a whole matrix in row order.
std::vector<size_t> AllRows(size_t rows) {
  std::vector<size_t> list(rows);
  std::iota(list.begin(), list.end(), size_t{0});
  return list;
}

void RangeScanAll(const Matrix& m, const Vector& query, double bound_sq,
                  std::vector<size_t>* hits) {
  const std::vector<size_t> list = AllRows(m.rows());
  RangeScanGather(m.data(), m.stride(), list.data(), list.size(), query.data(), query.size(),
                  bound_sq, hits);
}

TEST(MatrixRangeScanTest, MatchesBruteForceIdsAndOrder) {
  // Row counts straddle the 4-row blocks; dims straddle the 16-column
  // bound checks (and the paper's 512).
  for (size_t rows = 0; rows <= 9; ++rows) {
    for (size_t dim : {1u, 15u, 16u, 17u, 512u}) {
      const std::vector<Vector> data = RandomRows(rows, dim, 300 + rows * 13 + dim);
      const Vector query = RandomRows(1, dim, 777 + dim).front();
      const Matrix m = Matrix::FromRows(data);
      std::vector<double> bounds = {0.0, 1e300};
      for (const Vector& row : data) {
        // A row exactly at the bound must be kept (<=, as the brute force).
        const double exact = SquaredDistance(row, query);
        bounds.push_back(exact);
        bounds.push_back(std::nextafter(exact, 0.0));
      }
      for (double bound_sq : bounds) {
        std::vector<size_t> got;
        RangeScanAll(m, query, bound_sq, &got);
        EXPECT_EQ(got, BruteForceRange(data, query, bound_sq))
            << "rows=" << rows << " dim=" << dim << " bound=" << bound_sq;
      }
    }
  }
}

TEST(MatrixRangeScanTest, EarlyFarRowsNeverHideANearRowInTheirBlock) {
  // Rows equal the query except where noted. Far-early rows leave the bound
  // in column 0, so whole blocks of them are dropped after 16 columns; a
  // far-late row only crosses it in the last column; a near row never does.
  constexpr size_t kDim = 512;
  const Vector query(kDim, 0.5);
  auto far_early = [&] {
    Vector row = query;
    row[0] += 3.0;
    return row;
  };
  auto far_late = [&] {
    Vector row = query;
    row[kDim - 1] += 3.0;
    return row;
  };
  auto near = [&] {
    Vector row = query;
    for (double& x : row) x += 0.01;
    return row;
  };
  const std::vector<Vector> data = {
      far_early(), far_early(), far_early(), far_early(),  // an all-far block
      far_early(), far_early(), far_early(), near(),       // one near row
      far_late(),  far_early(), far_late(),  far_early(),  // far only at the end
      near(),      far_early(), near()};                   // tail rows
  const Matrix m = Matrix::FromRows(data);
  for (double bound_sq : {0.0, 0.01, 1.0, 8.9, 9.5}) {
    std::vector<size_t> got;
    RangeScanAll(m, query, bound_sq, &got);
    EXPECT_EQ(got, BruteForceRange(data, query, bound_sq)) << "bound=" << bound_sq;
  }
  std::vector<size_t> got;
  RangeScanAll(m, query, 1.0, &got);
  EXPECT_EQ(got, (std::vector<size_t>{7, 12, 14}));
}

TEST(MatrixRangeScanTest, PaddedStrideAndAppendSemantics) {
  // The scan honours a stride wider than dim, and appends after whatever
  // `hits` already holds.
  constexpr size_t kRows = 6, kDim = 17, kStride = 20;
  const std::vector<Vector> data = RandomRows(kRows, kDim, 5);
  const Vector query = RandomRows(1, kDim, 6).front();
  std::vector<double> padded(kRows * kStride, 1e9);
  for (size_t r = 0; r < kRows; ++r) {
    std::copy(data[r].begin(), data[r].end(), padded.begin() + static_cast<long>(r * kStride));
  }
  const double bound_sq = SquaredDistance(data[2], query);
  std::vector<size_t> got = {99};
  const std::vector<size_t> list = AllRows(kRows);
  RangeScanGather(padded.data(), kStride, list.data(), kRows, query.data(), kDim, bound_sq, &got);
  std::vector<size_t> want = {99};
  for (size_t r : BruteForceRange(data, query, bound_sq)) want.push_back(r);
  EXPECT_EQ(got, want);
}

TEST(MatrixGatherTest, ListedRowsMatchTheContiguousKernels) {
  // Lists of every length up to 9 (straddling the 4-row blocks), with rows
  // skipped, repeated and out of order, over dims straddling the 16-column
  // bound checks.
  for (size_t dim : {1u, 15u, 16u, 17u, 512u}) {
    const std::vector<Vector> data = RandomRows(12, dim, 40 + dim);
    const Vector query = RandomRows(1, dim, 41 + dim).front();
    const Matrix m = Matrix::FromRows(data);
    std::vector<double> all(m.rows());
    SquaredDistanceBatch(m, query, all.data());
    Rng rng(42 + dim);
    for (size_t count = 0; count <= 9; ++count) {
      std::vector<size_t> list(count);
      for (size_t& r : list) r = rng.NextIndex(data.size());
      std::vector<double> got(count);
      SquaredDistanceGather(m.data(), m.stride(), list.data(), count, query.data(), dim,
                            got.data());
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(got[i], all[list[i]]) << "dim=" << dim << " count=" << count;
      }
      for (size_t r : list) {
        for (double bound_sq : {all[r], std::nextafter(all[r], 0.0)}) {
          std::vector<size_t> hits = {99};
          RangeScanGather(m.data(), m.stride(), list.data(), count, query.data(), dim,
                          bound_sq, &hits);
          std::vector<size_t> want = {99};
          for (size_t listed : list) {
            if (all[listed] <= bound_sq) want.push_back(listed);
          }
          EXPECT_EQ(hits, want) << "dim=" << dim << " count=" << count;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hyperm::vec
