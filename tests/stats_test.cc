#include "sim/stats.h"

#include <gtest/gtest.h>

namespace hyperm::sim {
namespace {

TEST(StatsTest, StartsEmpty) {
  NetworkStats stats;
  EXPECT_EQ(stats.total_hops(), 0u);
  EXPECT_EQ(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.total_energy_millijoules(), 0.0);
}

TEST(StatsTest, RecordsPerClass) {
  NetworkStats stats;
  stats.RecordHop(TrafficClass::kInsert, 100);
  stats.RecordHop(TrafficClass::kInsert, 50);
  stats.RecordHop(TrafficClass::kQuery, 10);
  EXPECT_EQ(stats.hops(TrafficClass::kInsert), 2u);
  EXPECT_EQ(stats.hops(TrafficClass::kQuery), 1u);
  EXPECT_EQ(stats.hops(TrafficClass::kJoin), 0u);
  EXPECT_EQ(stats.bytes(TrafficClass::kInsert), 150u);
  EXPECT_EQ(stats.total_hops(), 3u);
  EXPECT_EQ(stats.total_bytes(), 160u);
}

TEST(StatsTest, EnergyModelIsLinearInBytes) {
  const double e1 = HopEnergyNanojoules(100);
  const double e2 = HopEnergyNanojoules(200);
  // Doubling payload does not double energy (fixed overhead), but the
  // payload-dependent part is linear.
  EXPECT_NEAR(e2 - e1, (kTxNanojoulePerByte + kRxNanojoulePerByte) * 100, 1e-9);
  EXPECT_EQ(HopEnergyNanojoules(0), 2.0 * kPerMessageNanojoule);
}

TEST(StatsTest, EnergyAccumulates) {
  NetworkStats stats;
  stats.RecordHop(TrafficClass::kRetrieve, 1000);
  EXPECT_NEAR(stats.total_energy_millijoules(), HopEnergyNanojoules(1000) * 1e-6, 1e-12);
  EXPECT_NEAR(stats.energy_millijoules(TrafficClass::kRetrieve),
              stats.total_energy_millijoules(), 1e-15);
}

TEST(StatsTest, ResetClearsEverything) {
  NetworkStats stats;
  stats.RecordHop(TrafficClass::kJoin, 10);
  stats.RecordQueryServed();
  stats.Reset();
  EXPECT_EQ(stats.total_hops(), 0u);
  EXPECT_EQ(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.total_energy_millijoules(), 0.0);
  EXPECT_EQ(stats.queries_served(), 0u);
}

TEST(StatsTest, CountsQueriesServed) {
  NetworkStats stats;
  EXPECT_EQ(stats.queries_served(), 0u);
  stats.RecordQueryServed();
  stats.RecordQueryServed();
  EXPECT_EQ(stats.queries_served(), 2u);
}

TEST(StatsTest, ClassNames) {
  EXPECT_EQ(TrafficClassName(TrafficClass::kJoin), "join");
  EXPECT_EQ(TrafficClassName(TrafficClass::kReplicate), "replicate");
  EXPECT_EQ(TrafficClassName(TrafficClass::kRetrieve), "retrieve");
}

TEST(StatsTest, SummaryMentionsActiveClasses) {
  NetworkStats stats;
  stats.RecordHop(TrafficClass::kQuery, 10);
  const std::string summary = stats.Summary();
  EXPECT_NE(summary.find("query=1"), std::string::npos);
  EXPECT_EQ(summary.find("join="), std::string::npos);
}

TEST(StatsTest, SummaryReportsPerClassTotalsAndQueries) {
  NetworkStats stats;
  stats.RecordHop(TrafficClass::kInsert, 100);
  stats.RecordHop(TrafficClass::kInsert, 50);
  stats.RecordQueryServed();
  const std::string summary = stats.Summary();
  EXPECT_NE(summary.find("hops=2"), std::string::npos);
  EXPECT_NE(summary.find("bytes=150"), std::string::npos);
  EXPECT_NE(summary.find("served=1"), std::string::npos);
  EXPECT_NE(summary.find("insert=2/150B"), std::string::npos);
}

}  // namespace
}  // namespace hyperm::sim
