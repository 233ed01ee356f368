// Failure injection: partitions, crashes, and timeouts at awkward moments.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class FailureTest : public FargoTest {};

TEST_F(FailureTest, InvokeAcrossPartitionTimesOutThenRecovers) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  auto remote = cores[1]->RefTo<Message>(msg.handle());
  cores[1]->SetRpcTimeout(Millis(100));
  rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), true);
  EXPECT_THROW(remote.Call("text"), UnreachableError);
  rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), false);
  EXPECT_EQ(remote.Invoke<std::string>("text"), "m");
}

TEST_F(FailureTest, OneWayPartitionLosesTheReplyNotTheCall) {
  // Request crosses, the reply is dropped: the method DID execute; the
  // caller sees a timeout (at-least-once ambiguity is inherent here).
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  auto remote = cores[1]->RefTo<Counter>(counter.handle());
  cores[1]->SetRpcTimeout(Millis(100));
  rt.network().SetLinkOneWay(cores[0]->id(), cores[1]->id(),
                             {Millis(5), 1e9, false});  // reply path down
  EXPECT_THROW(remote.Call("increment"), UnreachableError);
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);  // it happened
}

TEST_F(FailureTest, MoveRollsBackCleanlyAndIsRetryable) {
  auto cores = MakeCores(3);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[0]->New<Data>(std::size_t{100});
  worker.Call("bind", {Value(data.handle()), Value("pull")});
  cores[0]->SetRpcTimeout(Millis(100));

  rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), true);
  EXPECT_THROW(cores[0]->Move(worker, cores[1]->id()), FargoError);
  // Both complets rolled back and functional.
  EXPECT_TRUE(cores[0]->repository().Contains(worker.target()));
  EXPECT_TRUE(cores[0]->repository().Contains(data.target()));
  EXPECT_EQ(worker.Invoke<std::int64_t>("work"), 100);
  // Retry to a reachable destination succeeds, pull intact.
  cores[0]->Move(worker, cores[2]->id());
  EXPECT_TRUE(cores[2]->repository().Contains(worker.target()));
  EXPECT_TRUE(cores[2]->repository().Contains(data.target()));
}

TEST_F(FailureTest, CrashDuringStreamTransit) {
  // The destination crashes while the (large, slow) stream is in flight:
  // the sender times out and rolls back.
  auto cores = MakeCores(2, Millis(5), 1e5);  // 100 KB/s: big move is slow
  auto data = cores[0]->New<Data>(std::size_t{100000});
  cores[0]->SetRpcTimeout(Millis(800));
  rt.scheduler().ScheduleAfter(Millis(100), [&] { cores[1]->Crash(); });
  EXPECT_THROW(cores[0]->Move(data, cores[1]->id()), FargoError);
  EXPECT_TRUE(cores[0]->repository().Contains(data.target()));
  EXPECT_EQ(data.Invoke<std::int64_t>("read"), 100000);
}

TEST_F(FailureTest, InvokeOnCompletOfCrashedCoreFails) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  auto remote = cores[1]->RefTo<Message>(msg.handle());
  cores[0]->Crash();
  cores[1]->SetRpcTimeout(Millis(100));
  EXPECT_THROW(remote.Call("text"), UnreachableError);
}

TEST_F(FailureTest, ParkedRequestsTimeOutIfTheCompletNeverArrives) {
  // A request parks at a core that believes the complet is inbound; it
  // never arrives; the caller times out instead of hanging.
  auto cores = MakeCores(3);
  ComletId ghost{cores[0]->id(), 777};
  // core1 believes the ghost is in transit to itself.
  auto ref = cores[2]->RefFromHandle(
      ComletHandle{ghost, cores[1]->id(), "test.Message"});
  cores[1]->trackers().SetForward(ghost, cores[1]->id(), "test.Message");
  cores[2]->SetRpcTimeout(Millis(150));
  EXPECT_THROW(ref.Call("text"), UnreachableError);
}

TEST_F(FailureTest, ShutdownDuringGraceStillServesMoves) {
  // During the grace window the dying core is fully operative: moves out
  // of it succeed even when requested mid-shutdown by a listener.
  auto cores = MakeCores(3);
  auto a = cores[1]->New<Counter>();
  auto b = cores[1]->New<Counter>();
  a.Call("increment");
  b.Call("increment", {Value(2)});
  int moved = 0;
  // The listener runs inside a task, on the dying core: it starts the
  // moves without waiting for them.
  cores[1]->ListenAt(cores[1]->id(), monitor::EventKind::kCoreShutdown,
                     [&](const monitor::Event&) {
                       for (ComletId id : cores[1]->ComletsHere()) {
                         cores[1]->MoveIdAsync(id, cores[2]->id());
                         ++moved;
                       }
                     });
  cores[1]->Shutdown(Millis(500));
  EXPECT_EQ(moved, 2);
  // The original stubs lived at the now-dead core; a client at a survivor
  // reaches both complets at their new home.
  auto a2 = cores[0]->RefFromHandle(
      ComletHandle{a.target(), cores[2]->id(), "test.Counter"});
  auto b2 = cores[0]->RefFromHandle(
      ComletHandle{b.target(), cores[2]->id(), "test.Counter"});
  EXPECT_EQ(a2.Call("get").AsInt(), 1);
  EXPECT_EQ(b2.Call("get").AsInt(), 2);
}

TEST_F(FailureTest, DoubleShutdownAndCrashAreIdempotent) {
  auto cores = MakeCores(2);
  cores[1]->Shutdown(Millis(10));
  cores[1]->Shutdown(Millis(10));
  cores[1]->Crash();
  EXPECT_FALSE(cores[1]->alive());
}

TEST_F(FailureTest, FlappingLinkEventualProgress) {
  // The link flaps; callers retry on failure and eventually all requests
  // complete with no duplicates observed via the counter value.
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  auto remote = cores[1]->RefTo<Counter>(counter.handle());
  cores[1]->SetRpcTimeout(Millis(50));
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), i % 3 == 0);
    try {
      remote.Call("increment");
      ++successes;
    } catch (const UnreachableError&) {
      // dropped request or reply; retry next round
    }
    rt.RunFor(Millis(10));
  }
  rt.network().SetPartitioned(cores[0]->id(), cores[1]->id(), false);
  const std::int64_t count = counter.Invoke<std::int64_t>("get");
  // Every success was a real increment; lost *replies* may add extra
  // executed increments, never fewer.
  EXPECT_GE(count, successes);
  EXPECT_GT(successes, 0);
}

// A non-durable Core restarts with its correlation counter at zero, so its
// first request after the restart re-mints the correlation of a request
// still outstanding from before the crash. The old request's timer must
// fail only its own future: a resend from the new incarnation, or a table
// or slot change under the new request, would drop the new request's reply
// as late. Once through SendAsync, once through InvokeAsync.
TEST_F(FailureTest, ByteRequestOutlivingACrashLeavesTheNewIncarnationAlone) {
  auto cores = MakeCores(2);
  core::Core& a = *cores[0];
  core::Core& b = *cores[1];
  a.SetRpcTimeout(Seconds(1));
  b.Crash();
  auto lookup = [] {
    serial::Writer w;
    w.WriteString("nobody");
    return w.Take();
  };
  auto old_request =
      a.SendAsync(b.id(), net::MessageKind::kNameRequest, lookup());
  rt.RunFor(Millis(10));
  a.Crash();
  a.Restart();
  b.Restart();
  rt.RunFor(Millis(985));  // the old request times out 5 ms from now
  const std::uint64_t late = rt.metrics().CounterValue("rpc.late_replies");
  auto new_request =
      a.SendAsync(b.id(), net::MessageKind::kNameRequest, lookup());
  rt.RunUntilIdle();

  ASSERT_TRUE(old_request.settled());
  EXPECT_THROW(old_request.Take(), UnreachableError);
  ASSERT_TRUE(new_request.settled());
  EXPECT_TRUE(new_request.ok());
  EXPECT_EQ(rt.metrics().CounterValue("rpc.late_replies"), late);
}

TEST_F(FailureTest, InvocationOutlivingACrashLeavesTheNewIncarnationAlone) {
  auto cores = MakeCores(2);
  core::Core& a = *cores[0];
  core::Core& b = *cores[1];
  a.SetRpcTimeout(Seconds(1));
  const ComletHandle lost = b.New<Counter>().handle();
  b.Crash();
  auto old_call = a.invocation().InvokeAsync(lost, "increment", {});
  rt.RunFor(Millis(10));
  a.Crash();
  a.Restart();
  b.Restart();
  const ComletHandle fresh = b.New<Counter>().handle();
  rt.RunFor(Millis(985));  // the old call times out 5 ms from now
  const std::uint64_t late = rt.metrics().CounterValue("rpc.late_replies");
  auto new_call = a.invocation().InvokeAsync(fresh, "increment", {});
  rt.RunUntilIdle();

  ASSERT_TRUE(old_call.settled());
  EXPECT_THROW(old_call.Take(), UnreachableError);
  ASSERT_TRUE(new_call.settled());
  ASSERT_TRUE(new_call.ok());
  EXPECT_EQ(new_call.value().value.AsInt(), 1);
  EXPECT_EQ(rt.metrics().CounterValue("rpc.late_replies"), late);
}

TEST_F(FailureTest, EventNotifyToDeadSubscriberIsDropped) {
  auto cores = MakeCores(2);
  cores[1]->ListenThresholdAt(cores[0]->id(), monitor::ComletLoadProbe(), 0.5,
                              monitor::Trigger::kAbove, Millis(10),
                              [](const monitor::Event&) {});
  cores[1]->Crash();
  cores[0]->New<Message>("m");
  rt.RunFor(Millis(200));  // notifications fire into the void
  EXPECT_GT(rt.network().dropped(), 0u);
  // The publisher core is unaffected.
  EXPECT_EQ(cores[0]->repository().size(), 1u);
}

}  // namespace
}  // namespace fargo::testing
