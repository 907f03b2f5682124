#include "net/stats_collector.h"

#include <string>

#include <gtest/gtest.h>

#include "core/protocol.h"
#include "obs/metrics.h"

namespace sensord {
namespace {

Message MakeMessage(MessageKind kind, size_t numbers) {
  Message msg;
  msg.from = 0;
  msg.to = 1;
  msg.kind = kind;
  msg.size_numbers = numbers;
  return msg;
}

TEST(StatsCollectorTest, StartsEmpty) {
  StatsCollector stats;
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(stats.TotalNumbers(), 0u);
  EXPECT_EQ(stats.MessagesOfKind(1), 0u);
}

TEST(StatsCollectorTest, AccumulatesByKind) {
  StatsCollector stats;
  stats.RecordSend(MakeMessage(1, 2));
  stats.RecordSend(MakeMessage(1, 3));
  stats.RecordSend(MakeMessage(2, 10));
  EXPECT_EQ(stats.TotalMessages(), 3u);
  EXPECT_EQ(stats.MessagesOfKind(1), 2u);
  EXPECT_EQ(stats.MessagesOfKind(2), 1u);
  EXPECT_EQ(stats.MessagesOfKind(3), 0u);
  EXPECT_EQ(stats.TotalNumbers(), 15u);
}

TEST(StatsCollectorTest, ByteConversion) {
  StatsCollector stats;
  stats.RecordSend(MakeMessage(1, 7));
  EXPECT_EQ(stats.TotalBytes(2), 14u);
  EXPECT_EQ(stats.TotalBytes(8), 56u);
}

TEST(StatsCollectorTest, RateComputation) {
  StatsCollector stats;
  for (int i = 0; i < 30; ++i) stats.RecordSend(MakeMessage(1, 1));
  EXPECT_DOUBLE_EQ(stats.MessagesPerSecond(10.0), 3.0);
}

TEST(StatsCollectorTest, RateOverEmptyOrNegativeSpanIsZero) {
  StatsCollector stats;
  stats.RecordSend(MakeMessage(1, 1));
  EXPECT_DOUBLE_EQ(stats.MessagesPerSecond(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.MessagesPerSecond(-1.0), 0.0);
}

TEST(StatsCollectorTest, MirrorsIntoGlobalRegistry) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* total = registry.GetCounter("net.messages.total");
  obs::Counter* numbers = registry.GetCounter("net.numbers.total");
  obs::Counter* samples = registry.GetCounter("net.messages.sample_value");
  obs::Counter* custom = registry.GetCounter("net.messages.kind_200");
  const uint64_t total0 = total->value();
  const uint64_t numbers0 = numbers->value();
  const uint64_t samples0 = samples->value();
  const uint64_t custom0 = custom->value();

  StatsCollector stats;
  stats.RecordSend(MakeMessage(1, 4));  // kMsgSampleValue
  stats.RecordSend(MakeMessage(200, 6));
  EXPECT_EQ(total->value(), total0 + 2);
  EXPECT_EQ(numbers->value(), numbers0 + 10);
  EXPECT_EQ(samples->value(), samples0 + 1);
  EXPECT_EQ(custom->value(), custom0 + 1);

  // Reset clears the per-instance tallies but not the cumulative mirrors.
  stats.Reset();
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(total->value(), total0 + 2);
}

// The kind labels mirror core/protocol.h: every shipped kind must export
// under its name, never the net.messages.kind_<n> fallback.
TEST(StatsCollectorTest, EveryProtocolKindHasALabel) {
  StatsCollector stats;
  for (MessageKind kind :
       {kMsgSampleValue, kMsgOutlierReport, kMsgGlobalModelUpdate,
        kMsgRawReading, kMsgQueryRequest, kMsgQueryResponse,
        kMsgRejoinAnnounce, kMsgRejoinResync}) {
    stats.RecordSend(MakeMessage(kind, 1));
  }
  EXPECT_EQ(stats.TotalMessages(), 8u);
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Global().Snapshot()) {
    for (MessageKind kind = kMsgSampleValue; kind <= kMsgRejoinResync;
         ++kind) {
      EXPECT_NE(m.name, "net.messages.kind_" + std::to_string(kind));
    }
  }
  EXPECT_NE(obs::MetricsRegistry::Global()
                .GetCounter("net.messages.rejoin_resync")
                ->value(),
            0u);
}

TEST(StatsCollectorTest, ResetClearsEverything) {
  StatsCollector stats;
  stats.RecordSend(MakeMessage(5, 9));
  stats.Reset();
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(stats.TotalNumbers(), 0u);
  EXPECT_EQ(stats.MessagesOfKind(5), 0u);
}

TEST(StatsCollectorTest, ZeroSizeMessagesCountAsMessages) {
  StatsCollector stats;
  stats.RecordSend(MakeMessage(1, 0));
  EXPECT_EQ(stats.TotalMessages(), 1u);
  EXPECT_EQ(stats.TotalNumbers(), 0u);
}

}  // namespace
}  // namespace sensord
