// Flat SoA storage for sets of equal-dimension feature vectors, plus the
// blocked distance kernels that run over them.
//
// `std::vector<Vector>` scatters every row behind its own heap allocation;
// the scan-heavy hot paths (k-means assignment, flat-oracle range search,
// peer-local scoring) pay a pointer chase and a cache miss per row. Matrix
// keeps all rows in one contiguous row-major float64 buffer with a fixed
// stride, and SquaredDistanceBatch streams it with several independent
// accumulator chains.
//
// Bit-identity contract: for every row, SquaredDistanceBatch accumulates
// (row[j] - query[j])² over ascending j into a single running sum — exactly
// the operation order of vec::SquaredDistance — so replacing a per-Vector
// scan with a batch call cannot change any result, only its speed. Blocking
// happens across rows (independent sums), never within one row.
//
// RangeScanGather keeps the same per-row order and decides `sum <= bound` on
// the sum SquaredDistanceBatch would produce. It may stop adding a block's
// terms early, but only once every row in the block is already past the
// bound: each term is non-negative and rounding is monotone, so a partial
// sum above the bound stays above it, and the answer cannot change.

#ifndef HYPERM_VEC_MATRIX_H_
#define HYPERM_VEC_MATRIX_H_

#include <cstddef>
#include <vector>

#include "vec/vector.h"

namespace hyperm::vec {

/// Contiguous row-major float64 matrix. Rows are appended once and then
/// scanned; the column count is fixed by the first row.
class Matrix {
 public:
  Matrix() = default;

  /// `rows` zero-filled rows of `cols` columns.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), stride_(cols), data_(rows * cols, 0.0) {}

  /// Copies `rows` (all of equal dimensionality) into flat storage.
  static Matrix FromRows(const std::vector<Vector>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Doubles between consecutive row starts (== cols(); kept distinct so
  /// padded layouts stay representable).
  size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0; }

  double* row(size_t r) { return data_.data() + r * stride_; }
  const double* row(size_t r) const { return data_.data() + r * stride_; }
  const double* data() const { return data_.data(); }

  /// Appends one row. The first row fixes cols(); later rows must match.
  void AppendRow(const Vector& values);

  /// Pre-allocates storage for `rows` rows of `cols` columns.
  void Reserve(size_t rows, size_t cols) { data_.reserve(rows * cols); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t stride_ = 0;
  std::vector<double> data_;
};

/// out[r] = squared Euclidean distance from row r of [rows, stride] to
/// `query` (`dim` doubles, dim <= stride). Each row's sum is bit-identical
/// to vec::SquaredDistance on the same values; rows are processed in blocks
/// of four with independent accumulators for instruction-level parallelism.
void SquaredDistanceBatch(const double* rows, size_t num_rows, size_t stride,
                          const double* query, size_t dim, double* out);

/// Matrix convenience overload; `out` must hold m.rows() doubles.
void SquaredDistanceBatch(const Matrix& m, const Vector& query, double* out);

/// out[i] = squared distance from row list[i] of [rows, stride] to `query`,
/// for i < count: SquaredDistanceBatch over a gathered row list, in blocks
/// of four listed rows, with the same bit-identical per-row sums.
void SquaredDistanceGather(const double* rows, size_t stride, const size_t* list,
                           size_t count, const double* query, size_t dim, double* out);

/// Appends to `hits`, in list order, every index list[i] (i < count) whose
/// row of [rows, stride] has squared distance to `query` <= `bound_sq`:
/// exactly the listed rows whose SquaredDistanceBatch sum is <= bound_sq.
/// Listed rows are summed in blocks of four as there; every 16 columns a
/// block whose four partial sums all exceed `bound_sq` is dropped without
/// reading the rest.
void RangeScanGather(const double* rows, size_t stride, const size_t* list, size_t count,
                     const double* query, size_t dim, double bound_sq,
                     std::vector<size_t>* hits);

}  // namespace hyperm::vec

#endif  // HYPERM_VEC_MATRIX_H_
