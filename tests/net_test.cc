// Unit tests for the network layer: delay models, message statistics,
// perfect-link guarantees and crash semantics.

#include <memory>

#include <gtest/gtest.h>

#include "net/delay_model.h"
#include "net/message_stats.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace fastcommit::net {
namespace {

TEST(DelayModelTest, FixedAlwaysReturnsConstant) {
  FixedDelayModel model(100);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(model.DelayFor(0, 1, i * 7, i), 100);
  }
}

TEST(DelayModelTest, BoundedRandomStaysInBounds) {
  BoundedRandomDelayModel model(10, 100, 42);
  for (int i = 0; i < 500; ++i) {
    sim::Time d = model.DelayFor(0, 1, 0, i);
    EXPECT_GE(d, 10);
    EXPECT_LE(d, 100);
  }
}

TEST(DelayModelTest, BoundedRandomIsDeterministicPerSeed) {
  BoundedRandomDelayModel a(1, 100, 7);
  BoundedRandomDelayModel b(1, 100, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.DelayFor(0, 1, 0, i), b.DelayFor(0, 1, 0, i));
  }
}

TEST(DelayModelTest, GstBoundsDelaysAfterGst) {
  GstDelayModel model(100, 1000, 900, 0.9, 3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LE(model.DelayFor(0, 1, 1000, i), 100) << "post-GST delay over U";
  }
}

TEST(DelayModelTest, GstCanExceedUBeforeGst) {
  GstDelayModel model(100, 1000, 900, 1.0, 3);
  bool exceeded = false;
  for (int i = 0; i < 100; ++i) {
    if (model.DelayFor(0, 1, 0, i) > 100) exceeded = true;
  }
  EXPECT_TRUE(exceeded);
}

TEST(DelayModelTest, ScriptedOverridesMatchingWindow) {
  auto scripted = std::make_unique<ScriptedDelayModel>(
      std::make_unique<FixedDelayModel>(100));
  scripted->AddRule(0, 1, 50, 150, 777);
  EXPECT_EQ(scripted->DelayFor(0, 1, 100, 0), 777);   // in window
  EXPECT_EQ(scripted->DelayFor(0, 1, 200, 1), 100);   // outside window
  EXPECT_EQ(scripted->DelayFor(0, 2, 100, 2), 100);   // other link
  EXPECT_EQ(scripted->DelayFor(2, 1, 100, 3), 100);   // other sender
}

TEST(DelayModelTest, ScriptedWildcardsAndLaterRulesWin) {
  auto scripted = std::make_unique<ScriptedDelayModel>(
      std::make_unique<FixedDelayModel>(100));
  scripted->AddRule(-1, -1, 0, 1000, 200);
  scripted->AddRule(0, -1, 0, 1000, 300);
  EXPECT_EQ(scripted->DelayFor(0, 1, 10, 0), 300);  // later rule wins
  EXPECT_EQ(scripted->DelayFor(1, 2, 10, 1), 200);  // wildcard applies
}

TEST(MessageStatsTest, CountsDeliveriesByTime) {
  MessageStats stats;
  int64_t a = stats.RecordSend(0, 1, 0, Channel::kCommit, 1);
  int64_t b = stats.RecordSend(1, 2, 0, Channel::kCommit, 1);
  int64_t c = stats.RecordSend(2, 0, 50, Channel::kConsensus, 2);
  stats.RecordDelivery(a, 100);
  stats.RecordDelivery(b, 150);
  stats.RecordDrop(c, 90);
  EXPECT_EQ(stats.total_sent(), 3);
  EXPECT_EQ(stats.DeliveredBy(100), 1);
  EXPECT_EQ(stats.DeliveredBy(150), 2);
  EXPECT_EQ(stats.DeliveredBy(1000), 2);  // dropped never counts
  EXPECT_EQ(stats.DeliveredBy(1000, Channel::kConsensus), 0);
  EXPECT_EQ(stats.SentBy(0), 2);
  EXPECT_EQ(stats.SentBy(50), 3);
}

class NetworkTest : public ::testing::Test {
 protected:
  void Wire(int n) {
    network_ = std::make_unique<Network>(
        &simulator_, n, std::make_unique<FixedDelayModel>(100));
    received_.assign(static_cast<size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      network_->RegisterHandler(
          i, [this, i](ProcessId from, const Message& m) {
            received_[static_cast<size_t>(i)].push_back(
                {from, m.kind, simulator_.Now()});
          });
    }
  }

  struct Received {
    ProcessId from;
    int kind;
    sim::Time at;
  };

  sim::Simulator simulator_;
  std::unique_ptr<Network> network_;
  std::vector<std::vector<Received>> received_;
};

TEST_F(NetworkTest, DeliversAfterModelDelay) {
  Wire(2);
  Message m;
  m.kind = 7;
  network_->Send(0, 1, m);
  simulator_.Run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].from, 0);
  EXPECT_EQ(received_[1][0].kind, 7);
  EXPECT_EQ(received_[1][0].at, 100);
}

TEST_F(NetworkTest, SelfSendIsInstantAndUncounted) {
  Wire(2);
  Message m;
  m.kind = 9;
  network_->Send(0, 0, m);
  simulator_.Run();
  ASSERT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[0][0].at, 0);
  EXPECT_EQ(network_->stats().total_sent(), 0);
}

TEST_F(NetworkTest, CrashedSenderSendsNothing) {
  Wire(2);
  network_->Crash(0);
  network_->Send(0, 1, Message{});
  simulator_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(network_->stats().total_sent(), 0);
}

TEST_F(NetworkTest, MessageInFlightToCrashedReceiverIsDropped) {
  Wire(2);
  network_->Send(0, 1, Message{});
  simulator_.ScheduleAt(50, sim::EventClass::kCrash,
                        [this] { network_->Crash(1); });
  simulator_.Run();
  EXPECT_TRUE(received_[1].empty());
  ASSERT_EQ(network_->stats().records().size(), 1u);
  EXPECT_TRUE(network_->stats().records()[0].dropped);
}

TEST_F(NetworkTest, EveryMessageToCorrectProcessIsEventuallyDelivered) {
  Wire(3);
  for (int i = 0; i < 10; ++i) network_->Send(0, 1, Message{});
  for (int i = 0; i < 5; ++i) network_->Send(2, 1, Message{});
  simulator_.Run();
  EXPECT_EQ(received_[1].size(), 15u);
  EXPECT_EQ(network_->stats().DeliveredBy(simulator_.Now()), 15);
}

TEST_F(NetworkTest, HandlerReadsItsOwnPayloadWhileSendingGrowsTheTable) {
  // The handler of the first delivery sends 64 messages, each with a
  // payload, before it reads its own: the slot table grows under it, and
  // the message it was handed must stay intact (asan reports a dangling
  // read otherwise).
  Wire(2);
  Message seen;
  int handled = 0;
  network_->RegisterHandler(1, [&](ProcessId, const Message& m) {
    if (handled++ > 0) return;
    for (int i = 0; i < 64; ++i) {
      Message burst;
      burst.kind = 100 + i;
      burst.ints.assign(8, i);
      network_->Send(1, 0, burst);
    }
    seen = m;
  });
  Message m;
  m.kind = 7;
  m.value = -42;
  m.ints = {1, 2, 3, 5, 8, 13};
  network_->Send(0, 1, m);
  simulator_.Run();
  EXPECT_EQ(seen.kind, 7);
  EXPECT_EQ(seen.value, -42);
  EXPECT_EQ(seen.ints, m.ints);
  EXPECT_EQ(received_[0].size(), 64u);
}

TEST_F(NetworkTest, CrashCountTracksCrashes) {
  Wire(3);
  EXPECT_EQ(network_->crash_count(), 0);
  network_->Crash(1);
  network_->Crash(2);
  EXPECT_EQ(network_->crash_count(), 2);
  EXPECT_FALSE(network_->crashed(0));
  EXPECT_TRUE(network_->crashed(1));
}

}  // namespace
}  // namespace fastcommit::net
