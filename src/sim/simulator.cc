#include "sim/simulator.h"

#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace hyperm::sim {

void Simulator::ScheduleAfter(TimeMs delay, std::function<void()> fn) {
  HM_CHECK_GE(delay, 0.0);
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(TimeMs when, std::function<void()> fn) {
  HM_CHECK_GE(when, now_);
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

void Simulator::ScheduleKeyedAfter(uint64_t key, TimeMs delay,
                                   std::function<void()> fn) {
  HM_CHECK_GE(delay, 0.0);
  const uint64_t gen = ++keyed_gen_[key];
  // The heap entry captures its generation; by fire time a newer
  // ScheduleKeyedAfter may have bumped the map entry, in
  // which case this firing is a superseded no-op.
  queue_.push(Event{now_ + delay, next_seq_++,
                    [this, key, gen, fn = std::move(fn)]() {
                      auto it = keyed_gen_.find(key);
                      if (it == keyed_gen_.end() || it->second != gen) {
                        ++coalesced_;
                        HM_OBS_COUNTER_ADD("sim.coalesced", 1);
                        return;
                      }
                      fn();
                    }});
}

void Simulator::ExtractBatch(std::vector<Event>* batch, bool bounded,
                             TimeMs until, uint64_t limit) {
  batch->clear();
  if (queue_.empty()) return;
  const TimeMs tick = queue_.top().time;
  if (bounded && tick > until) return;
  while (!queue_.empty() && queue_.top().time == tick) {
    if (limit != 0 && batch->size() >= limit) break;
    // priority_queue::top returns const&; the function object must be moved
    // out before pop, so copy the POD parts and steal the callable.
    batch->push_back(std::move(const_cast<Event&>(queue_.top())));
    queue_.pop();
  }
}

uint64_t Simulator::Run(uint64_t max_events) {
  uint64_t count = 0;
  // The batch lives on the stack, not in a member: an event callback may
  // schedule new events (pushing into queue_) without invalidating the
  // in-flight batch. New same-tick events carry a larger seq than every
  // batched event, so running the batch to completion before re-extracting
  // preserves the exact (time, seq) total order of one-at-a-time dispatch.
  std::vector<Event> batch;
  while (!queue_.empty()) {
    if (max_events != 0 && count >= max_events) break;
    const uint64_t limit = max_events == 0 ? 0 : max_events - count;
    ExtractBatch(&batch, /*bounded=*/false, 0.0, limit);
    for (Event& event : batch) {
      now_ = event.time;
      ++count;
      ++executed_;
      event.fn();
    }
  }
  return count;
}

uint64_t Simulator::RunUntil(TimeMs until) {
  HM_CHECK_GE(until, now_);
  uint64_t count = 0;
  std::vector<Event> batch;
  while (!queue_.empty() && queue_.top().time <= until) {
    ExtractBatch(&batch, /*bounded=*/true, until, 0);
    for (Event& event : batch) {
      now_ = event.time;
      ++count;
      ++executed_;
      event.fn();
    }
  }
  now_ = until;
  return count;
}

}  // namespace hyperm::sim
