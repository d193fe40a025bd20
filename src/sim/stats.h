// Network traffic accounting and the first-order radio energy model.
//
// Every overlay hop is one radio transmission (one send + one receive). The
// MANET motivation of the paper is energy: publishing hundreds of items per
// peer is "simply too energy and time consuming", so insertion-cost
// experiments report hops, bytes and estimated radio energy side by side.

#ifndef HYPERM_SIM_STATS_H_
#define HYPERM_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <string>

namespace hyperm::sim {

/// Why a message was sent; lets experiments split setup cost from query cost.
enum class TrafficClass {
  kJoin = 0,    ///< overlay construction (node joins, zone splits)
  kInsert,      ///< summary/item publication routing
  kReplicate,   ///< sphere replication into overlapping zones
  kQuery,       ///< query routing and zone flooding
  kRetrieve,    ///< actual data transfer from owner peers
  kCount_,      // sentinel
};

/// Human-readable class name ("join", "insert", ...).
std::string TrafficClassName(TrafficClass cls);

// First-order radio energy model (values in the range of classic
// sensor-network models: ~50 nJ/byte electronics on both ends plus amplifier
// cost on tx).
inline constexpr double kTxNanojoulePerByte = 80.0;
inline constexpr double kRxNanojoulePerByte = 50.0;
inline constexpr double kPerMessageNanojoule = 2000.0;  ///< fixed header/packet overhead

/// Energy (nJ) consumed network-wide by one hop carrying `bytes` of payload
/// (sender tx + receiver rx + fixed overhead on both radios).
inline double HopEnergyNanojoules(uint64_t bytes) {
  return (kTxNanojoulePerByte + kRxNanojoulePerByte) * static_cast<double>(bytes) +
         2.0 * kPerMessageNanojoule;
}

/// Accumulates hop/byte/energy counters per traffic class.
///
/// Not thread-safe: every sender is the orchestrating thread (pool tasks
/// send nothing; DESIGN.md §8).
class NetworkStats {
 public:
  /// Records one hop (one physical transmission) of `bytes` payload.
  void RecordHop(TrafficClass cls, uint64_t bytes);

  /// Records `count` hops of identical payload size in one accounting
  /// update — the radio channel batches a multi-hop route's bookkeeping per
  /// message instead of per hop. Totals are bit-identical to `count`
  /// RecordHop calls while the per-hop energy is integer-valued nanojoules,
  /// as under the model above (the energy addend `count * delta` equals
  /// `count` exact integer additions while the running sum stays below 2^53).
  void RecordHops(TrafficClass cls, uint64_t bytes, uint64_t count);

  /// Bumps the served-query counter (range/k-NN/point queries answered).
  void RecordQueryServed() { ++queries_served_; }
  uint64_t queries_served() const { return queries_served_; }

  /// Hops recorded for one class / all classes.
  uint64_t hops(TrafficClass cls) const;
  uint64_t total_hops() const;

  /// Bytes carried for one class / all classes.
  uint64_t bytes(TrafficClass cls) const;
  uint64_t total_bytes() const;

  /// Estimated radio energy in millijoules.
  double energy_millijoules(TrafficClass cls) const;
  double total_energy_millijoules() const;

  /// Zeroes every counter (per-class traffic and queries_served alike).
  void Reset();

  /// One-line summary for experiment logs: totals, served queries, then
  /// per-class `name=hops/bytesB` for every class with traffic.
  std::string Summary() const;

 private:
  static constexpr size_t kNumClasses = static_cast<size_t>(TrafficClass::kCount_);
  std::array<uint64_t, kNumClasses> hops_{};
  std::array<uint64_t, kNumClasses> bytes_{};
  std::array<double, kNumClasses> energy_nj_{};
  uint64_t queries_served_ = 0;
};

}  // namespace hyperm::sim

#endif  // HYPERM_SIM_STATS_H_
