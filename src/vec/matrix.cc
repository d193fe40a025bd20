#include "vec/matrix.h"

#include <algorithm>

#include "common/check.h"

namespace hyperm::vec {

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  Matrix m;
  if (rows.empty()) return m;
  m.Reserve(rows.size(), rows.front().size());
  for (const Vector& r : rows) m.AppendRow(r);
  return m;
}

void Matrix::AppendRow(const Vector& values) {
  if (rows_ == 0) {
    cols_ = values.size();
    stride_ = values.size();
  }
  HM_CHECK_EQ(values.size(), cols_);
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void SquaredDistanceBatch(const double* rows, size_t num_rows, size_t stride,
                          const double* query, size_t dim, double* out) {
  HM_CHECK(dim <= stride || num_rows == 0);
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const double* a0 = rows + (r + 0) * stride;
    const double* a1 = rows + (r + 1) * stride;
    const double* a2 = rows + (r + 2) * stride;
    const double* a3 = rows + (r + 3) * stride;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double q = query[j];
      const double d0 = a0[j] - q;
      const double d1 = a1[j] - q;
      const double d2 = a2[j] - q;
      const double d3 = a3[j] - q;
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    out[r + 0] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < num_rows; ++r) {
    const double* a = rows + r * stride;
    double sum = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = a[j] - query[j];
      sum += diff * diff;
    }
    out[r] = sum;
  }
}

void SquaredDistanceBatch(const Matrix& m, const Vector& query, double* out) {
  HM_CHECK_EQ(query.size(), m.empty() ? query.size() : m.cols());
  SquaredDistanceBatch(m.data(), m.rows(), m.stride(), query.data(),
                       query.size(), out);
}

void RangeScanBatch(const double* rows, size_t num_rows, size_t stride,
                    const double* query, size_t dim, double bound_sq,
                    std::vector<size_t>* hits) {
  HM_CHECK(dim <= stride || num_rows == 0);
  // Columns summed between two bound checks: long enough that the check
  // costs little next to the arithmetic, short enough to drop a far row
  // after a small fraction of a 512-d scan.
  constexpr size_t kCheckEvery = 16;
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const double* a0 = rows + (r + 0) * stride;
    const double* a1 = rows + (r + 1) * stride;
    const double* a2 = rows + (r + 2) * stride;
    const double* a3 = rows + (r + 3) * stride;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t begin = 0; begin < dim; begin += kCheckEvery) {
      const size_t end = std::min(dim, begin + kCheckEvery);
      for (size_t j = begin; j < end; ++j) {
        const double q = query[j];
        const double d0 = a0[j] - q;
        const double d1 = a1[j] - q;
        const double d2 = a2[j] - q;
        const double d3 = a3[j] - q;
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
      }
      if (s0 > bound_sq && s1 > bound_sq && s2 > bound_sq && s3 > bound_sq) break;
    }
    if (s0 <= bound_sq) hits->push_back(r + 0);
    if (s1 <= bound_sq) hits->push_back(r + 1);
    if (s2 <= bound_sq) hits->push_back(r + 2);
    if (s3 <= bound_sq) hits->push_back(r + 3);
  }
  for (; r < num_rows; ++r) {
    const double* a = rows + r * stride;
    double sum = 0.0;
    for (size_t begin = 0; begin < dim && !(sum > bound_sq); begin += kCheckEvery) {
      const size_t end = std::min(dim, begin + kCheckEvery);
      for (size_t j = begin; j < end; ++j) {
        const double diff = a[j] - query[j];
        sum += diff * diff;
      }
    }
    if (sum <= bound_sq) hits->push_back(r);
  }
}

void RangeScanBatch(const Matrix& m, const Vector& query, double bound_sq,
                    std::vector<size_t>* hits) {
  HM_CHECK_EQ(query.size(), m.empty() ? query.size() : m.cols());
  RangeScanBatch(m.data(), m.rows(), m.stride(), query.data(), query.size(),
                 bound_sq, hits);
}

}  // namespace hyperm::vec
