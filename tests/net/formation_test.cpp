// Formation battery: golden flush-policy tests (exact byte and deadline
// boundaries), lane-separation rules, the single-item raw-send guarantee,
// batch-item codec symmetry, and the priority-lane regression — heartbeats
// must never queue behind a large frame on a slow link (the failure-detector
// race the kPriority lane exists to prevent).
#include "src/net/formation.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/net/network.h"
#include "src/serial/frame.h"
#include "src/sim/scheduler.h"

namespace fargo::net {
namespace {

class FormationTest : public ::testing::Test {
 protected:
  FormationTest() : net(sched), formation(a, sched, net) {
    net.SetHeaderBytes(0);  // exact byte accounting
    net.SetDefaultLink(LinkModel{Millis(5), 1e6, true});
    net.Register(b, [this](Message m) {
      arrivals.push_back({std::move(m), sched.Now()});
    });
    net.SetTap([this](const Message& m) { sends.push_back({m, sched.Now()}); });
  }

  Message Make(MessageKind kind, std::size_t bytes,
               std::uint64_t correlation = 0) {
    Message m;
    m.from = a;
    m.to = b;
    m.kind = kind;
    m.correlation = correlation;
    m.payload.assign(bytes, static_cast<std::uint8_t>(correlation));
    return m;
  }

  /// Items inside `frame`, decoded; requires kind == kBatch.
  static std::vector<Message> Unpack(const Message& frame) {
    EXPECT_EQ(frame.kind, MessageKind::kBatch);
    std::vector<Message> items;
    serial::FrameReader r(frame.payload);
    while (r.HasNext()) {
      serial::Reader item = r.Next();
      items.push_back(ReadBatchItem(item));
    }
    return items;
  }

  struct Seen {
    Message msg;
    SimTime at = 0;
  };
  sim::SimScheduler sched;
  Network net;
  // Declared before `formation`, which the constructor builds from `a`.
  CoreId a{1}, b{2};
  Formation formation;
  std::vector<Seen> arrivals;
  std::vector<Seen> sends;
};

TEST_F(FormationTest, SameTickMessagesToOnePeerLeaveAsOneFrame) {
  formation.Enqueue(Make(MessageKind::kInvokeRequest, 10, 1),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kInvokeReply, 20, 2),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kTrackerUpdate, 5, 3),
                    Formation::Lane::kImmediate);
  sched.RunUntilIdle();

  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].at, 0) << "delay-0 flush must not add latency";
  const std::vector<Message> items = Unpack(sends[0].msg);
  ASSERT_EQ(items.size(), 3u);
  // Enqueue order is preserved through the frame.
  EXPECT_EQ(items[0].kind, MessageKind::kInvokeRequest);
  EXPECT_EQ(items[1].kind, MessageKind::kInvokeReply);
  EXPECT_EQ(items[2].kind, MessageKind::kTrackerUpdate);
  EXPECT_EQ(items[1].correlation, 2u);
  EXPECT_EQ(items[1].payload.size(), 20u);
  EXPECT_EQ(formation.frames(), 1u);
  EXPECT_EQ(formation.batched_items(), 3u);
  EXPECT_EQ(formation.single_sends(), 0u);
}

TEST_F(FormationTest, SingleOccupantFlushSendsTheRawMessageUnchanged) {
  Message m = Make(MessageKind::kInvokeRequest, 33, 77);
  m.session.origin = a;
  m.session.peer = b;
  m.session.epoch = 4;
  m.session.slot = 2;
  m.session.seq = 9;
  const Message expect = m;
  formation.Enqueue(std::move(m), Formation::Lane::kImmediate);
  sched.RunUntilIdle();

  // At low load the wire is byte-identical to an unbatched build: no
  // kBatch envelope, nothing re-encoded.
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].msg.kind, MessageKind::kInvokeRequest);
  EXPECT_EQ(sends[0].msg.payload, expect.payload);
  EXPECT_EQ(sends[0].msg.correlation, expect.correlation);
  EXPECT_EQ(sends[0].msg.session, expect.session);
  EXPECT_EQ(formation.single_sends(), 1u);
  EXPECT_EQ(formation.frames(), 0u);
}

TEST_F(FormationTest, BulkFlushesAtTheExactByteBoundary) {
  FormationPolicy p;
  p.flush_bytes = 100;
  p.flush_after = Seconds(10);  // deadline far away: bytes must trigger
  formation.SetPolicy(p);

  formation.Enqueue(Make(MessageKind::kEventNotify, 40),
                    Formation::Lane::kBulk);
  formation.Enqueue(Make(MessageKind::kEventNotify, 59),
                    Formation::Lane::kBulk);
  EXPECT_TRUE(sends.empty()) << "99 bytes: below the boundary, must hold";
  formation.Enqueue(Make(MessageKind::kEventNotify, 1),
                    Formation::Lane::kBulk);
  // 100 bytes: the boundary is inclusive, and the flush is synchronous.
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].at, 0);
  EXPECT_EQ(Unpack(sends[0].msg).size(), 3u);
  EXPECT_EQ(formation.queued(), 0u);
}

TEST_F(FormationTest, BulkFlushesAtTheExactDeadline) {
  FormationPolicy p;
  p.flush_bytes = 100000;  // bytes out of reach: the clock must trigger
  p.flush_after = Millis(7);
  formation.SetPolicy(p);

  formation.Enqueue(Make(MessageKind::kEventNotify, 10, 1),
                    Formation::Lane::kBulk);
  // A second item mid-wait must NOT re-arm the deadline — it is measured
  // from the FIRST queued item.
  sched.RunFor(Millis(3));
  formation.Enqueue(Make(MessageKind::kEventNotify, 10, 2),
                    Formation::Lane::kBulk);
  sched.RunUntilIdle();

  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].at, Millis(7));
  EXPECT_EQ(Unpack(sends[0].msg).size(), 2u);
}

TEST_F(FormationTest, LanesForOnePeerFlushSeparately) {
  formation.Enqueue(Make(MessageKind::kInvokeRequest, 10, 1),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kInvokeRequest, 10, 2),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kControl, 4, 3),
                    Formation::Lane::kPriority);
  formation.Enqueue(Make(MessageKind::kControl, 4, 4),
                    Formation::Lane::kPriority);
  sched.RunUntilIdle();

  // Two frames: the immediate pair and the priority pair — priority
  // traffic never rides in an immediate frame.
  ASSERT_EQ(sends.size(), 2u);
  for (const Seen& s : sends) {
    const std::vector<Message> items = Unpack(s.msg);
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].kind, items[1].kind);
  }
}

TEST_F(FormationTest, PriorityTrafficBeatsABigFrameOnASlowLink) {
  // Regression (failure-detector race): a heartbeat enqueued in the same
  // tick as a large payload for the same peer must arrive on its own small
  // frame. Merged, its arrival would be delayed by the big frame's entire
  // serialization time — 8 s on this link — and the detector would declare
  // a live peer dead.
  net.SetLinkOneWay(a, b, LinkModel{Millis(1), 1000.0, true});  // 1 kB/s

  formation.Enqueue(Make(MessageKind::kMoveRequest, 8000, 1),
                    Formation::Lane::kImmediate);
  Message ping = Make(MessageKind::kControl, 8, 2);
  formation.Enqueue(std::move(ping), Formation::Lane::kPriority);
  sched.RunUntilIdle();

  ASSERT_EQ(arrivals.size(), 2u);
  SimTime ping_at = -1, bulk_at = -1;
  for (const Seen& s : arrivals) {
    if (s.msg.kind == MessageKind::kControl) ping_at = s.at;
    if (s.msg.kind == MessageKind::kMoveRequest) bulk_at = s.at;
  }
  ASSERT_GE(ping_at, 0) << "heartbeat was merged into the big frame";
  // 8 B at 1 kB/s = 8 ms transfer + 1 ms latency, far under the 8 s the
  // move payload needs.
  EXPECT_EQ(ping_at, Millis(1) + Millis(8));
  EXPECT_GT(bulk_at, Seconds(7));
  EXPECT_LT(ping_at, bulk_at / 100);
}

TEST_F(FormationTest, LoopbackBypassesFormation) {
  net.Register(a, [this](Message m) {
    arrivals.push_back({std::move(m), sched.Now()});
  });
  Message m = Make(MessageKind::kInvokeRequest, 10, 1);
  m.to = a;  // self-send
  formation.Enqueue(std::move(m), Formation::Lane::kBulk);
  // No flush needed: the message went straight to the network.
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0].msg.kind, MessageKind::kInvokeRequest);
  EXPECT_EQ(formation.queued(), 0u);
  EXPECT_EQ(formation.flushes(), 0u);
}

TEST_F(FormationTest, DisabledFormationSendsStraightThrough) {
  formation.SetEnabled(false);
  formation.Enqueue(Make(MessageKind::kInvokeRequest, 10, 1),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kEventNotify, 10, 2),
                    Formation::Lane::kBulk);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].msg.kind, MessageKind::kInvokeRequest);
  EXPECT_EQ(sends[1].msg.kind, MessageKind::kEventNotify);
  EXPECT_EQ(formation.flushes(), 0u);
  EXPECT_EQ(formation.queued(), 0u);
}

TEST_F(FormationTest, DiscardDropsQueuedTrafficAndTimersCleanly) {
  formation.Enqueue(Make(MessageKind::kEventNotify, 10, 1),
                    Formation::Lane::kBulk);
  EXPECT_EQ(formation.queued(), 1u);
  formation.Discard();
  EXPECT_EQ(formation.queued(), 0u);
  sched.RunUntilIdle();
  EXPECT_TRUE(sends.empty()) << "discarded traffic leaked onto the wire";
  // The cancelled flush timer must not corrupt the scheduler's accounting
  // (a Cancel after firing would leak a tombstone).
  EXPECT_EQ(sched.PendingCount(), 0u);
}

TEST_F(FormationTest, FlushAllDrainsEveryQueueInDeterministicOrder) {
  CoreId c{3};
  net.Register(c, [](Message) {});
  Message to_c = Make(MessageKind::kEventNotify, 10, 1);
  to_c.to = c;
  formation.Enqueue(std::move(to_c), Formation::Lane::kBulk);
  formation.Enqueue(Make(MessageKind::kEventNotify, 10, 2),
                    Formation::Lane::kBulk);
  formation.Enqueue(Make(MessageKind::kEventNotify, 10, 3),
                    Formation::Lane::kBulk);
  formation.FlushAll();
  ASSERT_EQ(sends.size(), 2u);
  // Queues drain ordered by (dest, lane): b (2 items batched) before c.
  EXPECT_EQ(sends[0].msg.to, b);
  EXPECT_EQ(Unpack(sends[0].msg).size(), 2u);
  EXPECT_EQ(sends[1].msg.to, c);
  EXPECT_EQ(sends[1].msg.kind, MessageKind::kEventNotify);
  EXPECT_EQ(formation.queued(), 0u);
}

TEST_F(FormationTest, FlushHookReportsEveryDepartureWithItemsAndBytes) {
  struct Flush {
    CoreId dest;
    Formation::Lane lane;
    std::size_t items, bytes;
  };
  std::vector<Flush> hooks;
  formation.SetFlushHook([&](CoreId dest, Formation::Lane lane,
                             std::size_t items, std::size_t bytes) {
    hooks.push_back({dest, lane, items, bytes});
  });
  formation.Enqueue(Make(MessageKind::kInvokeRequest, 10, 1),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kInvokeRequest, 10, 2),
                    Formation::Lane::kImmediate);
  formation.Enqueue(Make(MessageKind::kEventNotify, 7, 3),
                    Formation::Lane::kBulk);
  formation.FlushAll();
  sched.RunUntilIdle();
  ASSERT_EQ(hooks.size(), 2u);
  EXPECT_EQ(hooks[0].items, 2u);
  EXPECT_EQ(hooks[0].lane, Formation::Lane::kImmediate);
  EXPECT_GT(hooks[0].bytes, 20u);  // frame overhead on top of payloads
  EXPECT_EQ(hooks[1].items, 1u);
  EXPECT_EQ(hooks[1].bytes, 7u);  // single raw send: payload bytes exactly
}

TEST(BatchItemCodecTest, RoundTripsEveryField) {
  std::mt19937 rng(99);
  for (int round = 0; round < 200; ++round) {
    Message m;
    m.from = CoreId{static_cast<std::uint32_t>(rng() % 100)};
    m.to = CoreId{static_cast<std::uint32_t>(rng() % 100)};
    m.kind = static_cast<MessageKind>(rng() % 17);
    m.correlation = rng();
    m.session.origin = CoreId{static_cast<std::uint32_t>(rng() % 100)};
    m.session.peer = CoreId{static_cast<std::uint32_t>(rng() % 100)};
    m.session.epoch = rng() % 5;
    m.session.slot = static_cast<std::uint32_t>(rng() % 64);
    m.session.seq = rng();
    m.payload.resize(rng() % 200);
    for (std::uint8_t& byte : m.payload)
      byte = static_cast<std::uint8_t>(rng());

    serial::Writer w;
    WriteBatchItem(w, m);
    serial::Reader r(w.buffer());
    const Message back = ReadBatchItem(r);
    EXPECT_EQ(back.kind, m.kind);
    EXPECT_EQ(back.correlation, m.correlation);
    EXPECT_EQ(back.session, m.session);
    EXPECT_EQ(back.payload, m.payload);
    EXPECT_TRUE(r.AtEnd());
  }
}

}  // namespace
}  // namespace fargo::net
