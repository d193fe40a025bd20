#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hyperm::obs {

Buckets Buckets::Linear(double lo, double hi, int n) {
  HM_CHECK_GT(n, 0);
  HM_CHECK_LT(lo, hi);
  Buckets b;
  b.edges.reserve(static_cast<size_t>(n) + 1);
  const double width = (hi - lo) / n;
  for (int i = 0; i <= n; ++i) b.edges.push_back(lo + width * i);
  return b;
}

Buckets Buckets::Exponential(double lo, double factor, int n) {
  HM_CHECK_GT(n, 0);
  HM_CHECK_GT(lo, 0.0);
  HM_CHECK_GT(factor, 1.0);
  Buckets b;
  b.edges.reserve(static_cast<size_t>(n) + 1);
  double edge = lo;
  for (int i = 0; i <= n; ++i) {
    b.edges.push_back(edge);
    edge *= factor;
  }
  return b;
}

Buckets Buckets::Explicit(std::vector<double> edges) {
  HM_CHECK_GE(edges.size(), 2u);
  for (size_t i = 1; i < edges.size(); ++i) HM_CHECK_LT(edges[i - 1], edges[i]);
  Buckets b;
  b.edges = std::move(edges);
  return b;
}

Histogram::Histogram(const Buckets& buckets) {
  HM_CHECK_GE(buckets.edges.size(), 2u);
  snap_.edges = buckets.edges;
  snap_.counts.assign(snap_.edges.size() - 1, 0);
}

void Histogram::Observe(double value) { ObserveN(value, 1); }

void Histogram::ObserveN(double value, uint64_t n) {
  if (n == 0) return;
  snap_.count += n;
  if (std::isnan(value)) {
    // Every comparison with NaN is false, so no bucket search may see it.
    snap_.overflow += n;
    return;
  }
  if (value < snap_.edges.front()) {
    snap_.underflow += n;
  } else if (value >= snap_.edges.back()) {
    snap_.overflow += n;
  } else {
    // First edge strictly greater than value; the bucket is the one before.
    const auto it = std::upper_bound(snap_.edges.begin(), snap_.edges.end(), value);
    snap_.counts[static_cast<size_t>(it - snap_.edges.begin()) - 1] += n;
  }
  snap_.sum += value * static_cast<double>(n);
  snap_.min = std::min(snap_.min, value);
  snap_.max = std::max(snap_.max, value);
}

void Histogram::Reset() {
  std::fill(snap_.counts.begin(), snap_.counts.end(), uint64_t{0});
  snap_.underflow = 0;
  snap_.overflow = 0;
  snap_.count = 0;
  snap_.sum = 0.0;
  snap_.min = std::numeric_limits<double>::infinity();
  snap_.max = -std::numeric_limits<double>::infinity();
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  double cum = static_cast<double>(underflow);
  if (rank <= cum) return min;  // target lands below the first edge
  for (size_t i = 0; i < counts.size(); ++i) {
    const double bucket = static_cast<double>(counts[i]);
    if (bucket > 0.0 && rank <= cum + bucket) {
      const double lo = edges[i];
      const double hi = edges[i + 1];
      const double estimate = lo + (hi - lo) * (rank - cum) / bucket;
      // Observations cluster inside [min, max] even when the bucket is wider.
      return std::min(max, std::max(min, estimate));
    }
    cum += bucket;
  }
  return max;  // target lands in the overflow bucket
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, const Buckets& buckets) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(buckets);
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) snap.counters[name] = counter->value();
  for (const auto& [name, gauge] : gauges_) snap.gauges[name] = gauge->value();
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

void MetricsRegistry::Reset() {
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace hyperm::obs
