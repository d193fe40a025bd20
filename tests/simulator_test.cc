#include "sim/simulator.h"

#include <vector>

#include <gtest/gtest.h>

namespace hyperm::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAfter(3.0, [&] { order.push_back(3); });
  sim.ScheduleAfter(1.0, [&] { order.push_back(1); });
  sim.ScheduleAfter(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAfter(1.0, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(1.0, [&] {
    ++fired;
    sim.ScheduleAfter(1.0, [&] { ++fired; });
  });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(1.0, [&] { ++fired; });
  sim.ScheduleAfter(5.0, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilInclusiveOfBoundaryEvents) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAfter(2.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, MaxEventsGuard) {
  Simulator sim;
  // Self-perpetuating event chain.
  std::function<void()> loop = [&] { sim.ScheduleAfter(1.0, loop); };
  sim.ScheduleAfter(1.0, loop);
  EXPECT_EQ(sim.Run(10), 10u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  double seen = -1.0;
  sim.ScheduleAfter(4.0, [&] {
    sim.ScheduleAfter(0.0, [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 4.0);
}

TEST(SimulatorTest, RunUntilExecutesEventsSpawnedExactlyAtBoundary) {
  // An event inside the window schedules work for exactly `until`; that work
  // (and zero-delay work it spawns at `until`) belongs to this RunUntil.
  Simulator sim;
  std::vector<int> fired;
  sim.ScheduleAfter(1.0, [&] {
    fired.push_back(1);
    sim.ScheduleAt(5.0, [&] {
      fired.push_back(2);
      sim.ScheduleAfter(0.0, [&] { fired.push_back(3); });
    });
  });
  sim.ScheduleAfter(5.0 + 1e-9, [&] { fired.push_back(4); });  // just past it
  EXPECT_EQ(sim.RunUntil(5.0), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  EXPECT_EQ(sim.RunUntil(42.0), 0u);
  EXPECT_EQ(sim.now(), 42.0);
  // Moving to an earlier-or-equal instant executes nothing and keeps time
  // monotonic.
  EXPECT_EQ(sim.RunUntil(42.0), 0u);
  EXPECT_EQ(sim.now(), 42.0);
}

TEST(SimulatorTest, ZeroDelaySelfRescheduleIsStoppedByMaxEvents) {
  // A zero-delay feedback loop never advances the clock; only the
  // max_events guard can end the run.
  Simulator sim;
  uint64_t ticks = 0;
  std::function<void()> loop = [&] {
    ++ticks;
    sim.ScheduleAfter(0.0, loop);
  };
  sim.ScheduleAfter(0.0, loop);
  EXPECT_EQ(sim.Run(1000), 1000u);
  EXPECT_EQ(ticks, 1000u);
  EXPECT_EQ(sim.now(), 0.0);      // time never moved
  EXPECT_EQ(sim.pending(), 1u);   // the next iteration is still queued
  // The guard is a pause, not a corruption: a later bounded run continues
  // the same loop from where it stopped.
  EXPECT_EQ(sim.Run(10), 10u);
  EXPECT_EQ(ticks, 1010u);
}

TEST(SimulatorTest, FifoTieBreakAcrossSchedulingStyles) {
  // ScheduleAfter and ScheduleAt targeting the same instant interleave in
  // call order, and zero-delay events spawned while executing that instant
  // run after everything already queued for it.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAfter(2.0, [&] {
    order.push_back(0);
    sim.ScheduleAfter(0.0, [&] { order.push_back(3); });  // same instant, last
  });
  sim.ScheduleAt(2.0, [&] { order.push_back(1); });
  sim.ScheduleAfter(2.0, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, ExecutedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.ScheduleAfter(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(SimulatorTest, BatchDrainPreservesOrderWithSameTickSelfScheduling) {
  // Same-tick events are extracted in one heap batch; events scheduled
  // *during* the batch for the same instant must still run after every
  // pre-existing same-tick event — the exact one-at-a-time total order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAfter(1.0, [&order, &sim, i] {
      order.push_back(i);
      if (i == 0) {
        sim.ScheduleAfter(0.0, [&order] { order.push_back(100); });
      }
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100}));
}

TEST(SimulatorTest, BatchDrainRespectsMaxEventsMidTick) {
  // max_events can split a same-tick batch; the remainder stays queued and a
  // later run resumes mid-instant without reordering.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.ScheduleAfter(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.Run(4), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SimulatorTest, RunUntilBatchesAcrossDistinctTicks) {
  Simulator sim;
  std::vector<double> at;
  for (double t : {1.0, 1.0, 2.0, 2.0, 3.0}) {
    sim.ScheduleAfter(t, [&at, &sim] { at.push_back(sim.now()); });
  }
  EXPECT_EQ(sim.RunUntil(2.0), 4u);
  EXPECT_EQ(at, (std::vector<double>{1.0, 1.0, 2.0, 2.0}));
  EXPECT_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, KeyedReschedulingCoalesces) {
  // Re-scheduling a key supersedes the pending callback: only the latest
  // firing runs, the stale heap slot drains as a counted no-op.
  Simulator sim;
  int fired = 0;
  sim.ScheduleKeyedAfter(7, 5.0, [&] { fired += 1; });
  sim.ScheduleKeyedAfter(7, 2.0, [&] { fired += 10; });
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.coalesced(), 1u);
  // Keyed no-ops still occupy a heap slot but do not count as executions of
  // user work any differently — both entries were popped.
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(SimulatorTest, KeyedTimersAreIndependentPerKey) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleKeyedAfter(1, 1.0, [&] { order.push_back(1); });
  sim.ScheduleKeyedAfter(2, 2.0, [&] { order.push_back(2); });
  sim.ScheduleKeyedAfter(3, 3.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.coalesced(), 0u);
}

TEST(SimulatorTest, KeyedCallbackCanRescheduleItself) {
  // The periodic-timer idiom: the callback re-arms its own key.
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 3) sim.ScheduleKeyedAfter(4, 10.0, tick);
  };
  sim.ScheduleKeyedAfter(4, 10.0, tick);
  sim.Run();
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.coalesced(), 0u);
  EXPECT_EQ(sim.now(), 30.0);
}

}  // namespace
}  // namespace hyperm::sim
