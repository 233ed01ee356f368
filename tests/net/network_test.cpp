#include "src/net/network.h"

#include <gtest/gtest.h>

namespace fargo::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net(sched) {
    net.SetHeaderBytes(0);  // exact byte accounting in these tests
  }

  Message Make(CoreId from, CoreId to, std::size_t bytes) {
    Message m;
    m.from = from;
    m.to = to;
    m.kind = MessageKind::kControl;
    m.payload.assign(bytes, 0);
    return m;
  }

  sim::SimScheduler sched;
  Network net;
  CoreId a{1}, b{2}, c{3};
};

TEST_F(NetworkTest, DeliveryChargesLatencyAndBandwidth) {
  net.SetLink(a, b, LinkModel{Millis(10), 1000.0, true});  // 1000 B/s
  SimTime arrival = -1;
  net.Register(b, [&](Message) { arrival = sched.Now(); });
  net.Send(Make(a, b, 500));  // 500 B / 1000 B/s = 500 ms
  sched.RunUntilIdle();
  EXPECT_EQ(arrival, Millis(10) + Millis(500));
}

TEST_F(NetworkTest, LoopbackIsFree) {
  SimTime arrival = -1;
  net.Register(a, [&](Message) { arrival = sched.Now(); });
  net.Send(Make(a, a, 100000));
  sched.RunUntilIdle();
  EXPECT_EQ(arrival, 0);
}

TEST_F(NetworkTest, HeaderBytesAreCharged) {
  net.SetHeaderBytes(64);
  net.SetLink(a, b, LinkModel{0, 64.0, true});  // 1 second per 64 bytes
  SimTime arrival = -1;
  net.Register(b, [&](Message) { arrival = sched.Now(); });
  net.Send(Make(a, b, 0));
  sched.RunUntilIdle();
  EXPECT_EQ(arrival, Seconds(1));
}

TEST_F(NetworkTest, PartitionDropsMessages) {
  bool delivered = false;
  net.Register(b, [&](Message) { delivered = true; });
  net.SetPartitioned(a, b, true);
  net.Send(Make(a, b, 10));
  sched.RunUntilIdle();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.dropped(), 1u);

  net.SetPartitioned(a, b, false);
  net.Send(Make(a, b, 10));
  sched.RunUntilIdle();
  EXPECT_TRUE(delivered);
}

TEST_F(NetworkTest, UnregisteredDestinationDropsOnArrival) {
  net.Send(Make(a, c, 10));
  sched.RunUntilIdle();
  EXPECT_EQ(net.dropped(), 1u);
}

TEST_F(NetworkTest, StatsAccumulatePerDirectedPair) {
  net.Register(b, [](Message) {});
  net.Register(a, [](Message) {});
  net.Send(Make(a, b, 100));
  net.Send(Make(a, b, 50));
  net.Send(Make(b, a, 25));
  sched.RunUntilIdle();
  EXPECT_EQ(net.StatsBetween(a, b).messages, 2u);
  EXPECT_EQ(net.StatsBetween(a, b).bytes, 150u);
  EXPECT_EQ(net.StatsBetween(b, a).bytes, 25u);
  EXPECT_EQ(net.total_messages(), 3u);
  net.ResetStats();
  EXPECT_EQ(net.total_messages(), 0u);
}

TEST_F(NetworkTest, AsymmetricLinks) {
  net.SetLinkOneWay(a, b, LinkModel{Millis(1), 1e9, true});
  net.SetLinkOneWay(b, a, LinkModel{Millis(100), 1e9, true});
  EXPECT_EQ(net.GetLink(a, b).latency, Millis(1));
  EXPECT_EQ(net.GetLink(b, a).latency, Millis(100));
}

TEST_F(NetworkTest, DefaultLinkAppliesToUnknownPairs) {
  net.SetDefaultLink(LinkModel{Millis(42), 5.0, true});
  EXPECT_EQ(net.GetLink(a, c).latency, Millis(42));
}

TEST_F(NetworkTest, LinkModelChangesMidRun) {
  net.Register(b, [](Message) {});
  net.SetLink(a, b, LinkModel{Millis(1), 1e12, true});
  net.Send(Make(a, b, 10));
  sched.RunUntilIdle();
  const SimTime first = sched.Now();
  // Degrade the link; next message is much slower.
  net.SetLink(a, b, LinkModel{Millis(200), 1e12, true});
  net.Send(Make(a, b, 10));
  sched.RunUntilIdle();
  EXPECT_EQ(sched.Now() - first, Millis(200));
}

TEST_F(NetworkTest, InFlightMessagesKeepTheirCost) {
  // A message already sent is unaffected by later link changes.
  net.Register(b, [](Message) {});
  net.SetLink(a, b, LinkModel{Millis(10), 1e12, true});
  net.Send(Make(a, b, 10));
  net.SetLink(a, b, LinkModel{Seconds(100), 1e12, true});
  sched.RunUntilIdle();
  EXPECT_EQ(sched.Now(), Millis(10));
}

TEST_F(NetworkTest, MinLinkLatencyTracksLinksAndIgnoresLoopback) {
  EXPECT_EQ(net.MinLinkLatency(), LinkModel{}.latency);  // the default link
  net.SetLink(a, b, LinkModel{Millis(2), 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(2));
  net.SetLinkOneWay(b, c, LinkModel{Millis(1), 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(1));
  // Raising the only 1 ms link gives the minimum back to the next one.
  net.SetLinkOneWay(b, c, LinkModel{Millis(9), 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(2));
  // A Core reaches itself for free whatever its entry says.
  net.SetLink(a, a, LinkModel{0, 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(2));
  net.SetDefaultLink(LinkModel{Millis(1), 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(1));
  net.SetDefaultLink(LinkModel{Millis(30), 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(2));
  net.SetLink(a, b, LinkModel{Millis(40), 1e6, true});
  EXPECT_EQ(net.MinLinkLatency(), Millis(9));
  // Cutting a link keeps its latency.
  net.SetPartitioned(b, c, true);
  EXPECT_EQ(net.MinLinkLatency(), Millis(9));
  EXPECT_EQ(net.GetLink(b, c).latency, Millis(9));
  EXPECT_EQ(net.GetLink(c, b).latency, Millis(30));
}

}  // namespace
}  // namespace fargo::net
