#include "vec/matrix.h"

#include <algorithm>

#include "common/check.h"

namespace hyperm::vec {
namespace {

// Row sources for the shared distance kernel: `at(i)` is the i-th row.
struct ContiguousRows {
  const double* rows;
  size_t stride;
  const double* at(size_t i) const { return rows + i * stride; }
};

struct ListedRows {
  const double* rows;
  size_t stride;
  const size_t* list;
  const double* at(size_t i) const { return rows + list[i] * stride; }
};

template <class Rows>
void SquaredDistances(const Rows& rows, size_t count, const double* query, size_t dim,
                      double* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* a0 = rows.at(r + 0);
    const double* a1 = rows.at(r + 1);
    const double* a2 = rows.at(r + 2);
    const double* a3 = rows.at(r + 3);
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
  for (; r < count; ++r) {
    const double* a = rows.at(r);
    double sum = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = a[j] - query[j];
      sum += diff * diff;
    }
    out[r] = sum;
  }
}

}  // namespace

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
  SquaredDistances(ContiguousRows{rows, stride}, num_rows, query, dim, out);
}

void SquaredDistanceBatch(const Matrix& m, const Vector& query, double* out) {
  HM_CHECK_EQ(query.size(), m.empty() ? query.size() : m.cols());
  SquaredDistanceBatch(m.data(), m.rows(), m.stride(), query.data(),
                       query.size(), out);
}

void SquaredDistanceGather(const double* rows, size_t stride, const size_t* list,
                           size_t count, const double* query, size_t dim, double* out) {
  HM_CHECK(dim <= stride || count == 0);
  SquaredDistances(ListedRows{rows, stride, list}, count, query, dim, out);
}

void RangeScanGather(const double* rows, size_t stride, const size_t* list, size_t count,
                     const double* query, size_t dim, double bound_sq,
                     std::vector<size_t>* hits) {
  HM_CHECK(dim <= stride || count == 0);
  // Columns summed between two bound checks: long enough that the check
  // costs little next to the arithmetic, short enough to drop a far row
  // after a small fraction of a 512-d scan.
  constexpr size_t kCheckEvery = 16;
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* a0 = rows + list[r + 0] * stride;
    const double* a1 = rows + list[r + 1] * stride;
    const double* a2 = rows + list[r + 2] * stride;
    const double* a3 = rows + list[r + 3] * stride;
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
    if (s0 <= bound_sq) hits->push_back(list[r + 0]);
    if (s1 <= bound_sq) hits->push_back(list[r + 1]);
    if (s2 <= bound_sq) hits->push_back(list[r + 2]);
    if (s3 <= bound_sq) hits->push_back(list[r + 3]);
  }
  for (; r < count; ++r) {
    const double* a = rows + list[r] * stride;
    double sum = 0.0;
    for (size_t begin = 0; begin < dim && !(sum > bound_sq); begin += kCheckEvery) {
      const size_t end = std::min(dim, begin + kCheckEvery);
      for (size_t j = begin; j < end; ++j) {
        const double diff = a[j] - query[j];
        sum += diff * diff;
      }
    }
    if (sum <= bound_sq) hits->push_back(list[r]);
  }
}

}  // namespace hyperm::vec
