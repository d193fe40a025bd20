#include "sim/stats.h"

#include <sstream>

#include "common/check.h"
#include "obs/trace.h"

namespace hyperm::sim {
namespace {

size_t Index(TrafficClass cls) {
  const auto i = static_cast<size_t>(cls);
  HM_CHECK_LT(i, static_cast<size_t>(TrafficClass::kCount_));
  return i;
}

}  // namespace

std::string TrafficClassName(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kJoin:
      return "join";
    case TrafficClass::kInsert:
      return "insert";
    case TrafficClass::kReplicate:
      return "replicate";
    case TrafficClass::kQuery:
      return "query";
    case TrafficClass::kRetrieve:
      return "retrieve";
    case TrafficClass::kCount_:
      break;
  }
  return "unknown";
}

void NetworkStats::RecordHop(TrafficClass cls, uint64_t bytes) {
  RecordHops(cls, bytes, 1);
}

void NetworkStats::RecordHops(TrafficClass cls, uint64_t bytes, uint64_t count) {
  if (count == 0) return;
  const size_t i = Index(cls);
  hops_[i] += count;
  bytes_[i] += bytes * count;
  energy_nj_[i] += HopEnergyNanojoules(bytes) * static_cast<double>(count);
  HM_OBS_COUNTER_ADD("net.hops", count);
  HM_OBS_HISTOGRAM_N("net.bytes_per_message",
                     obs::Buckets::Exponential(16, 2.0, 16), bytes, count);
}

uint64_t NetworkStats::hops(TrafficClass cls) const { return hops_[Index(cls)]; }

uint64_t NetworkStats::total_hops() const {
  uint64_t total = 0;
  for (uint64_t h : hops_) total += h;
  return total;
}

uint64_t NetworkStats::bytes(TrafficClass cls) const { return bytes_[Index(cls)]; }

uint64_t NetworkStats::total_bytes() const {
  uint64_t total = 0;
  for (uint64_t b : bytes_) total += b;
  return total;
}

double NetworkStats::energy_millijoules(TrafficClass cls) const {
  return energy_nj_[Index(cls)] * 1e-6;
}

double NetworkStats::total_energy_millijoules() const {
  double total = 0.0;
  for (double e : energy_nj_) total += e;
  return total * 1e-6;
}

void NetworkStats::Reset() {
  hops_.fill(0);
  bytes_.fill(0);
  energy_nj_.fill(0.0);
  queries_served_ = 0;
}

std::string NetworkStats::Summary() const {
  std::ostringstream os;
  os << "hops=" << total_hops() << " bytes=" << total_bytes()
     << " energy_mJ=" << total_energy_millijoules()
     << " served=" << queries_served();
  for (size_t i = 0; i < kNumClasses; ++i) {
    if (hops_[i] == 0) continue;
    os << " " << TrafficClassName(static_cast<TrafficClass>(i)) << "=" << hops_[i]
       << "/" << bytes_[i] << "B";
  }
  return os.str();
}

}  // namespace hyperm::sim
