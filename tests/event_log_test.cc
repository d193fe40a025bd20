// Unit tests of the flight recorder core (obs/event_log.h): bounded buffer
// with counted-not-stored overflow, ambient causal-context fill, time-series
// rings, JSONL export stability, Reset semantics.
//
// Tests drive EventLog::Global() through the macros (the exact production
// path) and Reset() it around each test — the log is process-global state.

#include "obs/event_log.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace hyperm::obs {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override { EventLog::Global().Reset(); }
  void TearDown() override { EventLog::Global().Reset(); }
};

TEST_F(EventLogTest, UnarmedRecordsNothingAndSkipsArgumentEvaluation) {
  EventLog& log = EventLog::Global();
  EXPECT_FALSE(log.enabled());
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return 3;
  };
  HM_OBS_EVENT(.sim_ms = 1.0, .kind = EventKind::kMsgSend, .src = touch());
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(log.events().empty());
}

TEST_F(EventLogTest, RecordsInOrderWithKindPayloads) {
  EventLog& log = EventLog::Global();
  log.Arm();
  HM_OBS_EVENT(.sim_ms = 10.0, .kind = EventKind::kMsgSend, .src = 1, .dst = 2,
               .value = 64.0, .aux = 5);
  HM_OBS_EVENT(.sim_ms = 12.5, .kind = EventKind::kMsgDrop, .attempt = 0,
               .cause = 3);
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].kind, EventKind::kMsgSend);
  EXPECT_EQ(log.events()[0].src, 1);
  EXPECT_EQ(log.events()[0].aux, 5);
  EXPECT_EQ(log.events()[1].kind, EventKind::kMsgDrop);
  EXPECT_EQ(log.events()[1].cause, 3);
  EXPECT_DOUBLE_EQ(log.events()[1].sim_ms, 12.5);
}

TEST_F(EventLogTest, OverflowCountsInsteadOfStoring) {
  EventLog& log = EventLog::Global();
  log.Arm(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    HM_OBS_EVENT(.sim_ms = static_cast<double>(i),
                 .kind = EventKind::kMobilityTick, .aux = i);
  }
  EXPECT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  // The retained events are the first four, not an arbitrary window.
  EXPECT_EQ(log.events().back().aux, 3);
}

TEST_F(EventLogTest, ContextScopesFillUnsetIdsAndRestore) {
  EventLog& log = EventLog::Global();
  log.Arm();
  {
    HM_OBS_QUERY_SCOPE(qid);
    EXPECT_EQ(qid, 0);
    HM_OBS_LEVEL_SCOPE(2);
    {
      HM_OBS_MSG_SCOPE(mid);
      EXPECT_EQ(mid, 0);
      HM_OBS_EVENT(.sim_ms = 1.0, .kind = EventKind::kMsgSend);
    }
    // Explicit ids always win over the ambient context.
    HM_OBS_EVENT(.sim_ms = 2.0, .kind = EventKind::kProbeOutcome,
                 .query_id = 99, .level = 7);
  }
  HM_OBS_EVENT(.sim_ms = 3.0, .kind = EventKind::kMobilityTick);

  ASSERT_EQ(log.events().size(), 3u);
  const Event& inner = log.events()[0];
  EXPECT_EQ(inner.query_id, 0);
  EXPECT_EQ(inner.level, 2);
  EXPECT_EQ(inner.msg_id, 0);
  const Event& explicit_ids = log.events()[1];
  EXPECT_EQ(explicit_ids.query_id, 99);
  EXPECT_EQ(explicit_ids.level, 7);
  EXPECT_EQ(explicit_ids.msg_id, -1);  // msg scope already closed
  const Event& outside = log.events()[2];
  EXPECT_EQ(outside.query_id, -1);
  EXPECT_EQ(outside.level, -1);
}

TEST_F(EventLogTest, RootScopeShadowsAmbientContext) {
  EventLog& log = EventLog::Global();
  log.Arm();
  HM_OBS_QUERY_SCOPE(qid);
  HM_OBS_LEVEL_SCOPE(1);
  {
    // What a scheduled simulator callback does while a query is on the stack.
    HM_OBS_ROOT_SCOPE();
    HM_OBS_EVENT(.sim_ms = 1.0, .kind = EventKind::kRepublishRound, .aux = 3);
  }
  HM_OBS_EVENT(.sim_ms = 2.0, .kind = EventKind::kProbeIssue, .attempt = 0);
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].query_id, -1);
  EXPECT_EQ(log.events()[0].level, -1);
  EXPECT_EQ(log.events()[1].query_id, qid);
  EXPECT_EQ(log.events()[1].level, 1);
}

TEST_F(EventLogTest, TimeSeriesRingOverwritesOldestAndCountsTotal) {
  TimeSeries series(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    series.Sample(static_cast<double>(i), static_cast<double>(i) * 10.0);
  }
  EXPECT_EQ(series.total(), 5u);
  const std::vector<TimeSeries::Point> points = series.Points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].sim_ms, 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(points[1].sim_ms, 3.0);
  EXPECT_DOUBLE_EQ(points[2].sim_ms, 4.0);
  EXPECT_DOUBLE_EQ(points[2].value, 40.0);
}

TEST_F(EventLogTest, SeriesMacroSamplesNamedSeries) {
  EventLog& log = EventLog::Global();
  log.Arm();
  HM_OBS_SERIES("probe.islands", 100.0, 2.0);
  HM_OBS_SERIES("probe.islands", 200.0, 3.0);
  ASSERT_EQ(log.series().count("probe.islands"), 1u);
  const TimeSeries& series = log.series().at("probe.islands");
  EXPECT_EQ(series.total(), 2u);
  EXPECT_DOUBLE_EQ(series.Points()[1].value, 3.0);
}

TEST_F(EventLogTest, JsonlExportIsByteStableAndCarriesTrailer) {
  EventLog& log = EventLog::Global();
  log.Arm();
  HM_OBS_QUERY_SCOPE(qid);
  (void)qid;
  HM_OBS_EVENT(.sim_ms = 1.5, .kind = EventKind::kQueryPlan, .src = 4, .aux = 2);
  HM_OBS_EVENT(.sim_ms = 2.0, .kind = EventKind::kMsgDrop, .attempt = 1,
               .cause = 3, .value = 12.25);
  const std::string first = EventsToJsonl(log.events(), log.dropped());
  const std::string second = EventsToJsonl(log.events(), log.dropped());
  EXPECT_EQ(first, second);
  // One line per event plus the trailer.
  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 3);
  EXPECT_NE(first.find("\"kind\":\"query_plan\""), std::string::npos);
  EXPECT_NE(first.find("\"sub\":\"net\""), std::string::npos);
  EXPECT_NE(first.find("\"cause\":3"), std::string::npos);
  EXPECT_NE(first.find("{\"dropped_events\":0,\"events\":2}"), std::string::npos);
}

TEST_F(EventLogTest, ResetClearsEverythingAndDisarms) {
  EventLog& log = EventLog::Global();
  log.Arm(/*capacity=*/2);
  HM_OBS_EVENT(.sim_ms = 1.0, .kind = EventKind::kMsgSend);
  HM_OBS_EVENT(.sim_ms = 2.0, .kind = EventKind::kMsgSend);
  HM_OBS_EVENT(.sim_ms = 3.0, .kind = EventKind::kMsgSend);  // dropped
  HM_OBS_SERIES("probe.x", 1.0, 1.0);
  EXPECT_EQ(log.dropped(), 1u);
  log.Reset();
  EXPECT_FALSE(log.enabled());
  EXPECT_TRUE(log.events().empty());
  EXPECT_TRUE(log.series().empty());
  EXPECT_EQ(log.dropped(), 0u);
  // Id counters restart: the first query after a Reset is query 0 again.
  log.Arm();
  HM_OBS_QUERY_SCOPE(qid);
  EXPECT_EQ(qid, 0);
}

TEST_F(EventLogTest, KindNamesAndSubsystemsAreConsistent) {
  EXPECT_STREQ(EventKindName(EventKind::kMsgDeadLetter), "msg_dead_letter");
  EXPECT_EQ(SubsystemOf(EventKind::kMsgDrop), Subsystem::kNet);
  EXPECT_EQ(SubsystemOf(EventKind::kTxAirtime), Subsystem::kChannel);
  EXPECT_EQ(SubsystemOf(EventKind::kMobilityTick), Subsystem::kMobility);
  EXPECT_EQ(SubsystemOf(EventKind::kRepublishRound), Subsystem::kSoftState);
  EXPECT_EQ(SubsystemOf(EventKind::kQueryPlan), Subsystem::kQuery);
  EXPECT_STREQ(SubsystemName(Subsystem::kChannel), "channel");
  EXPECT_STREQ(DeliveryCauseName(3), "partition");
  EXPECT_STREQ(LevelFateName(2), "deferred");
}

}  // namespace
}  // namespace hyperm::obs
