#include "net/fault_plan.h"

#include "common/check.h"

namespace hyperm::net {

Status FaultPlan::Validate(int num_peers) const {
  if (loss_rate < 0.0 || loss_rate > 1.0) {
    return InvalidArgumentError("FaultPlan: loss_rate outside [0,1]");
  }
  for (const PeerEvent& event : peer_events) {
    if (event.at_ms < 0.0) {
      return InvalidArgumentError("FaultPlan: peer event at negative time");
    }
    if (event.peer < 0 || event.peer >= num_peers) {
      return InvalidArgumentError("FaultPlan: peer event for unknown peer");
    }
  }
  for (const Partition& partition : partitions) {
    if (partition.start_ms < 0.0 || partition.end_ms < partition.start_ms) {
      return InvalidArgumentError("FaultPlan: bad partition window");
    }
    for (int peer : partition.group) {
      if (peer < 0 || peer >= num_peers) {
        return InvalidArgumentError("FaultPlan: partition member out of range");
      }
    }
  }
  return OkStatus();
}

FaultState::FaultState(int num_peers, const FaultPlan& plan)
    : up_(static_cast<size_t>(num_peers), 1) {
  partitions_.reserve(plan.partitions.size());
  for (const Partition& partition : plan.partitions) {
    ActivePartition active;
    active.start_ms = partition.start_ms;
    active.end_ms = partition.end_ms;
    active.in_group.assign(static_cast<size_t>(num_peers), 0);
    for (int peer : partition.group) {
      HM_CHECK_GE(peer, 0);
      HM_CHECK_LT(peer, num_peers);
      active.in_group[static_cast<size_t>(peer)] = 1;
    }
    partitions_.push_back(std::move(active));
  }
}

bool FaultState::up(int peer) const {
  if (peer < 0 || static_cast<size_t>(peer) >= up_.size()) return false;
  return up_[static_cast<size_t>(peer)] != 0;
}

void FaultState::SetUp(int peer, bool is_up) {
  HM_CHECK_GE(peer, 0);
  HM_CHECK_LT(static_cast<size_t>(peer), up_.size());
  up_[static_cast<size_t>(peer)] = is_up ? 1 : 0;
}

bool FaultState::Connected(int a, int b, sim::TimeMs now) const {
  for (const ActivePartition& partition : partitions_) {
    if (now < partition.start_ms || now >= partition.end_ms) continue;
    const bool a_in = a >= 0 && static_cast<size_t>(a) < partition.in_group.size() &&
                      partition.in_group[static_cast<size_t>(a)] != 0;
    const bool b_in = b >= 0 && static_cast<size_t>(b) < partition.in_group.size() &&
                      partition.in_group[static_cast<size_t>(b)] != 0;
    if (a_in != b_in) return false;
  }
  return true;
}

}  // namespace hyperm::net
